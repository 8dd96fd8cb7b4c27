"""Exception types shared across the simulator."""


class PipeClimbError(Exception):
    """Base class for scenario and simulation failures."""


class InfeasibleConstraintError(PipeClimbError):
    """Imposed output speeds conflict with the differential's sum relation."""


class InvalidGeometryError(PipeClimbError):
    """Geometric precondition violated (e.g. contact radius >= bend radius)."""


class NoFitError(PipeClimbError):
    """The robot cannot pass: required compression or tilt exceeds its limits.

    ``quantity`` names the failed check: "reach" (the straight-pipe
    compression, in mm, falls below a limit of 0), "compression" (mm),
    "chord" (the robot length against the bend diameter, mm) or "tilt"
    (deg).  ``value`` is what the segment demands and ``limit`` the bound it
    breaks.  ``module`` is the index of the worst module, or None when the
    check does not single one out.
    """

    def __init__(self, message, *, module=None, quantity=None, value=None, limit=None):
        super().__init__(message)
        self.module = module
        self.quantity = quantity
        self.value = value
        self.limit = limit


class InvalidScenarioError(PipeClimbError):
    """Scenario-level contradiction (e.g. network shorter than the robot)."""


class ScenarioParseError(PipeClimbError):
    """Scenario text failed validation; carries per-line diagnostics."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        detail = "; ".join(f"line {line}: {message}" for line, message in self.issues)
        super().__init__(detail or "invalid scenario")
