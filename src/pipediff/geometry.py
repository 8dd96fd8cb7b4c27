"""Pipe network geometry: arc-length-parameterized straights and bends.

A network is an ordered chain of segments sharing endpoint and tangent.
A straight runs along its axis; one declared without an axis continues the
incoming tangent.  Bends inherit the incoming tangent and turn inside the
plane orthogonal to their normal (right-hand rule).  ``PipeNetwork`` walks
the tangent chain once, when it is built: it resolves the default axes and
start tangent, records each segment's radius, length and start, and every
broken invariant.  The types are immutable, so networks are thread-safe values.

Inside a bend the three drive modules ride circles of different radii, set
by the circumferential angle ``theta_i`` of each module's contact point from
the bend-center direction.  ``module_cosines`` gives ``cos(theta_i)``; the
angles are 120 degrees apart, so the path radii always average to the bend
radius -- the identity the passive differential exploits.
``kinematics.demanded_speeds`` holds the path radius ``rho_i`` itself.
"""

import math
from dataclasses import dataclass, field

import numpy as np

UNIT_TOL = 1e-9  # accepted |norm - 1| for declared unit vectors
ANGLE_TOL = 1e-9  # rad, accepted tangent mismatch at joints

MODULE_OFFSETS = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)

Vec3 = tuple[float, float, float]
_PLUS_Y: Vec3 = (0.0, 1.0, 0.0)
_PLUS_Z: Vec3 = (0.0, 0.0, 1.0)


@dataclass(frozen=True)
class PipeSpec:
    """Circular pipe cross-section."""

    inner_radius: float  # mm
    standard_label: str = ""


@dataclass(frozen=True)
class Straight:
    length: float  # mm
    axis: Vec3 | None = None  # unit direction of travel; None continues the incoming tangent
    radius = math.inf  # not a field: a straight is a bend of infinite radius


@dataclass(frozen=True)
class Bend:
    """Circular-arc elbow swept inside the plane orthogonal to ``normal``."""

    radius: float  # mm, centerline bend radius
    sweep_deg: float  # degrees, in (0, 180]
    normal: Vec3  # bend plane normal, sets turn sense

    @property
    def sweep_rad(self) -> float:
        return math.radians(self.sweep_deg)

    @property
    def length(self) -> float:
        """Centerline arc length in mm."""
        return self.radius * self.sweep_rad


Segment = Straight | Bend


def module_cosines(theta: float) -> tuple[float, float, float]:
    """``cos(theta_i)`` of the three modules' contact angles at roll ``theta``
    (rad): the one place the 120-degree module spacing enters the model."""
    return tuple(math.cos(theta + offset) for offset in MODULE_OFFSETS)


def _dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _cross(a, b) -> Vec3:
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _norm(v) -> float:
    return math.hypot(*v)


def _unit(v, fallback: Vec3) -> Vec3:
    """Normalize ``v``; fall back when it is degenerate (a violation flags it)."""
    n = _norm(v)
    if not math.isfinite(n) or n < 1e-12:
        return fallback
    return (v[0] / n, v[1] / n, v[2] / n)


def _rotate(v: Vec3, k: Vec3, angle: float) -> Vec3:
    """Rotate ``v`` about unit ``k`` by ``angle`` radians (Rodrigues, right-hand rule)."""
    c = math.cos(angle)
    s = math.sin(angle)
    kxv = _cross(k, v)
    d = _dot(k, v)
    return tuple(v[i] * c + kxv[i] * s + k[i] * d * (1.0 - c) for i in range(3))


@dataclass(frozen=True)
class Violation:
    """One broken network invariant; data, not an exception."""

    segment_index: int | None
    rule: str
    message: str

    def __str__(self) -> str:
        where = "network" if self.segment_index is None else f"segment {self.segment_index}"
        return f"{self.rule} @ {where}: {self.message}"


def _segment_violations(k: int, segment: Segment, incoming: Vec3, pipe_radius: float):
    """Broken invariants of segment ``k`` entered along unit tangent ``incoming``."""
    if isinstance(segment, Straight):
        if not (math.isfinite(segment.length) and segment.length > 0.0):
            yield Violation(k, "segment-length", f"straight length must be positive, got {segment.length!r}")
        norm = _norm(segment.axis)
        if not abs(norm - 1.0) <= UNIT_TOL:
            yield Violation(k, "unit-axis", f"axis norm is {norm:.12g}, expected 1")
        axis = _unit(segment.axis, incoming)
        deviation = math.atan2(_norm(_cross(incoming, axis)), _dot(incoming, axis))
        if deviation > ANGLE_TOL:
            yield Violation(k, "continuity", f"axis deviates {deviation:.3g} rad from the incoming tangent")
        return
    if not (math.isfinite(segment.radius) and segment.radius > pipe_radius):
        yield Violation(
            k,
            "bend-radius",
            f"bend radius {segment.radius!r} mm must exceed the pipe radius {pipe_radius!r} mm",
        )
    if not (math.isfinite(segment.sweep_deg) and 0.0 < segment.sweep_deg <= 180.0):
        yield Violation(k, "sweep-angle", f"sweep must be in (0, 180] degrees, got {segment.sweep_deg!r}")
    norm = _norm(segment.normal)
    if not abs(norm - 1.0) <= UNIT_TOL:
        yield Violation(k, "unit-normal", f"normal norm is {norm:.12g}, expected 1")
        return
    tilt = abs(_dot(_unit(segment.normal, _PLUS_Y), incoming))
    if tilt > ANGLE_TOL:
        yield Violation(
            k,
            "normal-orthogonality",
            f"bend normal is not orthogonal to the incoming tangent (dot = {tilt:.3g})",
        )


@dataclass(frozen=True)
class PipeNetwork:
    """Ordered, tangent-continuous chain of straights and bends.

    Building a network walks its tangent chain once.  ``start_tangent``
    defaults to the first straight's axis (or +z), and a straight without
    an axis takes the incoming tangent; both are stored resolved, so
    ``segments`` and ``start_tangent`` are explicit.  The same walk records
    the per-segment columns ``radii``, ``lengths`` and ``starts`` (read-only
    float64 arrays), ``total_length`` and every broken invariant, which
    ``validate_network`` returns: a network is checked exactly when built.
    """

    spec: PipeSpec
    segments: tuple[Segment, ...]
    start_tangent: Vec3 | None = None

    radii: np.ndarray = field(init=False, repr=False, compare=False)  # mm, inf for a straight
    lengths: np.ndarray = field(init=False, repr=False, compare=False)  # mm, R * sweep for a bend
    starts: np.ndarray = field(init=False, repr=False, compare=False)  # mm, where each begins
    total_length: float = field(init=False, repr=False, compare=False)  # mm
    _violations: tuple[Violation, ...] = field(init=False, repr=False, compare=False, default=())

    def __post_init__(self):
        segments = tuple(self.segments)
        start = self.start_tangent
        if start is None:
            first = segments[0] if segments else None
            start = first.axis if isinstance(first, Straight) and first.axis is not None else _PLUS_Z
        pipe_radius = self.spec.inner_radius
        violations = []
        if not (math.isfinite(pipe_radius) and pipe_radius > 0.0):
            violations.append(
                Violation(None, "pipe-radius", f"inner radius must be positive, got {pipe_radius!r}")
            )
        if not segments:
            violations.append(Violation(None, "empty-network", "at least one segment required"))

        tangent = _unit(start, _PLUS_Z)
        resolved = []
        rows = []  # radius, length and start of each segment
        s = 0.0
        for k, segment in enumerate(segments):
            if isinstance(segment, Straight) and segment.axis is None:
                segment = Straight(segment.length, tangent)
            violations.extend(_segment_violations(k, segment, tangent, pipe_radius))
            if isinstance(segment, Straight):
                tangent = _unit(segment.axis, tangent)
            else:
                normal = _unit(segment.normal, _PLUS_Y)
                tangent = _unit(_rotate(tangent, normal, segment.sweep_rad), tangent)
            resolved.append(segment)
            rows.append((segment.radius, segment.length, s))
            s += segment.length
        # Finite lengths can still sum past the float range; stepping needs
        # a finite end to stop at.
        if not math.isfinite(s) and all(math.isfinite(seg.length) for seg in resolved):
            violations.append(
                Violation(None, "total-length",
                          f"segment lengths sum to {s!r} mm, beyond the float range")
            )

        object.__setattr__(self, "segments", tuple(resolved))
        object.__setattr__(self, "start_tangent", start)
        columns = np.array(rows, dtype=float).reshape(-1, 3).T.copy()
        columns.flags.writeable = False
        for name, column in zip(("radii", "lengths", "starts"), columns):
            object.__setattr__(self, name, column)
        object.__setattr__(self, "total_length", s)
        object.__setattr__(self, "_violations", tuple(violations))


def validate_network(net: PipeNetwork) -> list[Violation]:
    """The broken invariants ``net`` recorded when it was built, in chain order.

    The list is empty iff the network is well-formed: positive pipe radius
    and straight lengths, a finite total length, unit axes and normals,
    bend radius above the pipe radius, sweep within (0, 180], normals
    orthogonal to the incoming tangent, and G1 continuity at every joint.
    """
    return list(net._violations)
