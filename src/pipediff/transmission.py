"""Single-input, three-output differential gear train.

The train couples one input shaft to three outputs through three two-output
bevel differentials arranged in a cycle: unit i's right side gear is joined
to unit (i+1)'s left side gear, and each joined pair drives one output.
Every ring gear is driven at ``ratio * omega_u`` and a ring's speed is the
arithmetic mean of its two side gears' speeds, so summing the three ring
relations over the coupled pairs pins down only the total of the output
speeds:

    omega_A + omega_B + omega_C = 3 * ratio * omega_u

Within that budget the outputs float with load: free or equally loaded
outputs turn together, externally imposed speeds are honored verbatim, and
unequal torque loads shift speed away from the harder-pressed output.  All
types are immutable values and every operation is a pure function, so the
module is safe to call from any number of threads.
"""

import math
from dataclasses import dataclass
from enum import Enum

from .errors import InfeasibleConstraintError

# Relative tolerance separating genuinely conflicting imposed speeds from
# float noise.
FEASIBILITY_RTOL = 1e-6


class LoadKind(Enum):
    """How one output of the train is constrained."""

    FREE = "free"
    SPEED = "speed"
    TORQUE = "torque"


@dataclass(frozen=True)
class OutputLoad:
    """Constraint on a single output: free, held at a speed, or torque-loaded."""

    kind: LoadKind
    value: float = 0.0  # rad/s for SPEED, N*mm for TORQUE, unused for FREE

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"load value must be finite, got {self.value!r}")


def free() -> OutputLoad:
    return OutputLoad(LoadKind.FREE)


def imposed_speed(omega: float) -> OutputLoad:
    return OutputLoad(LoadKind.SPEED, float(omega))


def imposed_torque(tau: float) -> OutputLoad:
    return OutputLoad(LoadKind.TORQUE, float(tau))


@dataclass(frozen=True)
class LoadState:
    """Per-output constraints for one speed solve.

    All three outputs may carry imposed speeds only when they are mutually
    consistent with the sum relation; consistency is checked at solve time.
    """

    loads: tuple[OutputLoad, OutputLoad, OutputLoad]

    def __post_init__(self):
        if len(self.loads) != 3:
            raise ValueError("exactly three output loads required")
        for load in self.loads:
            if not isinstance(load, OutputLoad):
                raise ValueError(f"not an OutputLoad: {load!r}")

    @classmethod
    def all_free(cls) -> "LoadState":
        return cls((free(), free(), free()))

    @classmethod
    def equal_torques(cls, tau: float) -> "LoadState":
        return cls((imposed_torque(tau),) * 3)


@dataclass(frozen=True)
class GearTrainConfig:
    """Speed ratio of the three-output differential.

    ``ratio`` is the input-to-ring speed ratio: each ring gear turns at
    ``ratio * omega_u``.  The published source never states the numeric
    value, so it defaults to 1 and every relation is ratio-parametric.
    """

    ratio: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.ratio) and self.ratio > 0.0):
            raise ValueError(f"gear ratio must be finite and positive, got {self.ratio!r}")


@dataclass(frozen=True)
class SpeedSolution:
    """Resolved output speeds and the leftover sum-constraint violation."""

    omega_a: float  # rad/s
    omega_b: float
    omega_c: float
    residual: float  # rad/s, |omega_a + omega_b + omega_c - 3*ratio*omega_u|

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.omega_a, self.omega_b, self.omega_c)


def _exact_sum(values: list) -> float:
    """The exact sum of ``values`` rounded once, as ``math.fsum`` rounds it,
    or an infinity of its sign when it leaves the float range."""
    try:
        return math.fsum(values)
    except OverflowError:  # a partial sum overflowed; the exact sum may not have
        from fractions import Fraction  # here, as importing it at start-up costs memory
        exact = sum(map(Fraction, values))
        if abs(exact) < 2**1024 - 2**970:  # the largest float plus half its last bit
            return float(exact)
        return math.inf if exact > 0 else -math.inf


def first_budget_miss(cfg: GearTrainConfig, omega_u: float,
                      rows) -> tuple[int, InfeasibleConstraintError | None]:
    """The first of ``rows`` of three imposed output speeds (rad/s) whose
    exactly rounded sum misses the budget ``3 * ratio * omega_u`` by more
    than ``FEASIBILITY_RTOL`` relative, or leaves the float range, with its
    error; or the number of rows and None when every row meets it."""
    target = 3.0 * cfg.ratio * omega_u
    tolerance = FEASIBILITY_RTOL * max(1.0, abs(target))
    for index, row in enumerate(rows):
        total = _exact_sum(row)
        if abs(total - target) > tolerance:
            return index, InfeasibleConstraintError(
                f"imposed speeds sum to {total:g} rad/s but the train requires "
                f"{target:g} rad/s (3 * ratio * omega_u)"
            )
    return len(rows), None


def solve_output_speeds(cfg: GearTrainConfig, omega_u: float, loads: LoadState) -> SpeedSolution:
    """Distribute the speed budget ``3 * ratio * omega_u`` over the outputs.

    Imposed speeds are honored exactly.  The remaining outputs share the
    leftover budget equally, except that unequal torque loads route speed
    away from the harder-pressed output in proportion to its normalized
    load deviation (the source only states this behavior qualitatively, so
    the proportional rule is the deterministic model used here):

        omega_i = v_mean * (1 - (tau_i - tau_mean) / max|tau|)

    Free outputs carry no deviation.  The deviation is formed as
    ``tau_i / max|tau|`` minus the mean of those shares, so every term lies
    in [-2, 2] however large the torques.  Aggregates use exactly rounded
    sums, which makes the solution bit-identical under relabeling of the
    outputs.

    Raises:
        InfeasibleConstraintError: the imposed speeds' exact sum leaves the
            float range, or all three are imposed and they miss the sum
            budget by more than ``FEASIBILITY_RTOL`` relative.
        ValueError: the budget, a free output's share of the budget left
            after the imposed speeds, a resolved speed or their sum leaves the
            float range.
    """
    target = 3.0 * cfg.ratio * omega_u
    if not math.isfinite(target):
        raise ValueError(f"speed budget 3 * ratio * omega_u must be finite, got {target:g} rad/s")
    entries = loads.loads
    open_idx = [i for i in range(3) if entries[i].kind is not LoadKind.SPEED]
    result = [0.0 if i in open_idx else entries[i].value for i in range(3)]
    imposed = _exact_sum(result)
    if not math.isfinite(imposed):
        raise InfeasibleConstraintError(f"imposed speeds sum to {imposed:g} rad/s, beyond the float range")
    if not open_idx:
        _, miss = first_budget_miss(cfg, omega_u, [result])
        if miss is not None:
            raise miss
    else:
        torque_vals = [entries[i].value for i in open_idx if entries[i].kind is LoadKind.TORQUE]
        scale = max((abs(t) for t in torque_vals), default=0.0)
        uniform = scale == 0.0 or all(t == torque_vals[0] for t in torque_vals)
        if len(open_idx) == 3 and uniform:
            # Equal loads on every output: exactly the common ring speed.
            base = cfg.ratio * omega_u
            result = [base, base, base]
        else:
            v_mean = (target - imposed) / len(open_idx)
            if math.isinf(v_mean):  # the leftover overflows, but each share may not
                v_mean = target / len(open_idx) - imposed / len(open_idx)
            shares = [t / scale for t in torque_vals] if scale > 0.0 else []
            share_mean = math.fsum(shares) / len(shares) if shares else 0.0
            for i in open_idx:
                load = entries[i]
                if load.kind is LoadKind.TORQUE and scale > 0.0:
                    result[i] = v_mean * (1.0 - (load.value / scale - share_mean))
                else:
                    result[i] = v_mean

    residual = abs(_exact_sum(result) - target) if all(map(math.isfinite, result)) else math.inf
    if not math.isfinite(residual):
        raise ValueError(f"speeds resolved for budget {target:g} rad/s leave the float range")
    return SpeedSolution(result[0], result[1], result[2], residual)
