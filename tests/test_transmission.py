import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    GearTrainConfig,
    InfeasibleConstraintError,
    LoadState,
    Straight,
    free,
    imposed_speed,
    imposed_torque,
    solve_output_speeds,
)
from pipediff.kinematics import demanded_speeds
from pipediff.transmission import first_budget_miss

finite = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)


def brute_force_two_free(target, fixed, lo=-50.0, hi=50.0, steps=20001):
    """Residual-scan oracle: one output fixed, the other two equal at x."""
    grid = np.linspace(lo, hi, steps)
    residuals = np.abs(fixed + 2.0 * grid - target)
    return float(grid[int(np.argmin(residuals))])


class TestSolveOutputSpeeds:
    def test_all_free_symmetric(self):
        cfg = GearTrainConfig(ratio=1.0)
        sol = solve_output_speeds(cfg, 10.0, LoadState.all_free())
        assert sol.as_tuple() == (10.0, 10.0, 10.0)
        assert sol.residual <= 1e-9 * 30.0

    def test_one_imposed_speed_two_free(self):
        # Oracle: 8 + 2x = 30 -> x = 11; cross-checked by residual scan.
        assert brute_force_two_free(30.0, 8.0) == pytest.approx(11.0, abs=1e-2)
        cfg = GearTrainConfig(ratio=1.0)
        loads = LoadState((imposed_speed(8.0), free(), free()))
        sol = solve_output_speeds(cfg, 10.0, loads)
        assert sol.as_tuple() == (8.0, 11.0, 11.0)

    def test_equal_torques_follow_input(self):
        cfg = GearTrainConfig(ratio=2.0)
        sol = solve_output_speeds(cfg, 5.0, LoadState.equal_torques(7.0))
        assert sol.as_tuple() == (10.0, 10.0, 10.0)

    def test_unequal_torques_slow_the_loaded_output(self):
        cfg = GearTrainConfig(ratio=1.0)
        loads = LoadState((imposed_torque(10.0), imposed_torque(20.0), imposed_torque(30.0)))
        sol = solve_output_speeds(cfg, 10.0, loads)
        speeds = sol.as_tuple()
        assert speeds[0] > speeds[1] > speeds[2]
        assert math.fsum(speeds) == pytest.approx(30.0, rel=1e-12)

    def test_three_consistent_imposed_speeds(self):
        cfg = GearTrainConfig(ratio=1.0)
        loads = LoadState((imposed_speed(8.0), imposed_speed(11.0), imposed_speed(11.0)))
        sol = solve_output_speeds(cfg, 10.0, loads)
        assert sol.as_tuple() == (8.0, 11.0, 11.0)

    def test_three_inconsistent_imposed_speeds(self):
        cfg = GearTrainConfig(ratio=1.0)
        loads = LoadState((imposed_speed(8.0), imposed_speed(11.0), imposed_speed(12.0)))
        with pytest.raises(InfeasibleConstraintError):
            solve_output_speeds(cfg, 10.0, loads)

    def test_zero_input_with_conflicting_speeds(self):
        cfg = GearTrainConfig(ratio=1.0)
        loads = LoadState((imposed_speed(1.0), imposed_speed(1.0), imposed_speed(1.0)))
        with pytest.raises(InfeasibleConstraintError):
            solve_output_speeds(cfg, 0.0, loads)

    def test_mixed_free_and_torque_share_equally_when_torques_match(self):
        cfg = GearTrainConfig(ratio=1.0)
        loads = LoadState((imposed_speed(4.0), free(), imposed_torque(3.0)))
        sol = solve_output_speeds(cfg, 10.0, loads)
        assert sol.omega_b == sol.omega_c
        assert sol.omega_a == 4.0


class TestImposedDemands:
    """The wall imposes each demanded track speed (mm/s) on its output as
    ``v / sprocket_radius``; the train honours them when they respect the
    speed-sum budget, which the bend geometry guarantees when
    ``v_nominal = ratio * omega_u * sprocket_radius``."""

    BEND = Bend(radius=200.0, sweep_deg=90.0, normal=(0.0, 1.0, 0.0))
    STRAIGHT = Straight(length=100.0, axis=(0.0, 0.0, 1.0))
    SPROCKET = 25.0  # mm

    def demand(self, segment, theta, v_nominal):
        """The row of ``demanded_speeds`` for ``segment`` in a 40 mm bore."""
        return demanded_speeds([segment.radius], theta, v_nominal, 40.0)[0].tolist()

    def resolve(self, gear, demanded, omega_u):
        """Track speeds (mm/s) the train delivers for ``demanded``."""
        loads = LoadState(tuple(imposed_speed(v / self.SPROCKET) for v in demanded))
        solution = solve_output_speeds(gear, omega_u, loads)
        return tuple(w * self.SPROCKET for w in solution.as_tuple())

    def test_straight_equal_loads(self):
        demanded = self.demand(self.STRAIGHT, 0.0, 50.0)
        speeds = self.resolve(GearTrainConfig(ratio=1.0), demanded, 2.0)  # 1 * 2 * 25 = 50
        assert speeds == pytest.approx((50.0, 50.0, 50.0), rel=1e-12)

    def test_bend_matches_theoretical(self):
        demanded = self.demand(self.BEND, 0.0, 50.0)
        resolved = self.resolve(GearTrainConfig(ratio=1.0), demanded, 2.0)
        for v_res, v_theo in zip(resolved, demanded):
            assert abs(v_res - v_theo) <= 1e-9
        assert resolved == pytest.approx((40.0, 55.0, 55.0), rel=1e-9)

    def test_demands_off_the_speed_sum_budget_are_infeasible(self):
        # 1 * 2 rad/s gives a budget of 3 * 50 mm/s; these demands sum to 160.
        with pytest.raises(InfeasibleConstraintError) as caught:
            self.resolve(GearTrainConfig(ratio=1.0), (50.0, 50.0, 60.0), 2.0)
        assert str(caught.value) == (
            "imposed speeds sum to 6.4 rad/s but the train requires 6 rad/s (3 * ratio * omega_u)"
        )

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=0.2, max_value=5.0),
        st.floats(min_value=0.1, max_value=20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_consistency_with_theoretical_everywhere(self, theta, ratio, omega_u):
        v_nominal = ratio * omega_u * self.SPROCKET
        demanded = self.demand(self.BEND, theta, v_nominal)
        resolved = self.resolve(GearTrainConfig(ratio=ratio), demanded, omega_u)
        for v_res, v_theo in zip(resolved, demanded):
            assert abs(v_res - v_theo) <= 1e-9 * max(1.0, abs(v_theo))


class TestFirstBudgetMiss:
    def test_every_row_meets_the_budget(self):
        assert first_budget_miss(GearTrainConfig(2.0), 1.0, [[2.0, 2.0, 2.0], [1.0, 2.0, 3.0]]) == (
            2, None
        )
        assert first_budget_miss(GearTrainConfig(2.0), 1.0, []) == (0, None)

    def test_the_first_row_off_the_budget_and_its_error(self):
        rows = [[2.0, 2.0, 2.0], [2.0, 2.0, 2.1], [0.0, 0.0, 0.0]]
        index, miss = first_budget_miss(GearTrainConfig(2.0), 1.0, rows)
        assert index == 1 and isinstance(miss, InfeasibleConstraintError)
        assert str(miss) == (
            "imposed speeds sum to 6.1 rad/s but the train requires 6 rad/s (3 * ratio * omega_u)"
        )

    def test_the_sum_is_exactly_rounded(self):
        # Added left to right the three give 0; their exact sum is 1.
        _, miss = first_budget_miss(GearTrainConfig(1.0), 0.0, [[1e20, 1.0, -1e20]])
        assert str(miss).startswith("imposed speeds sum to 1 rad/s")

    def test_a_partial_sum_past_the_float_range_is_summed_exactly(self):
        # The first two overflow when added; the exact sum of the row is 1e308.
        assert first_budget_miss(GearTrainConfig(1.0), 1e308 / 3.0, [[1e308, 1e308, -1e308]]) == (
            1, None
        )
        index, miss = first_budget_miss(GearTrainConfig(1.0), 1.0, [[1.0] * 3, [1e308] * 3])
        assert index == 1 and str(miss).startswith("imposed speeds sum to inf rad/s")


class TestSpeedSolutionResidual:
    def test_free_outputs_leave_no_residual(self):
        sol = solve_output_speeds(GearTrainConfig(ratio=1.0), 10.0, LoadState.all_free())
        assert sol.residual == 0.0

    def test_solved_state_leaves_no_residual(self):
        loads = LoadState((imposed_speed(8.0), free(), free()))
        sol = solve_output_speeds(GearTrainConfig(ratio=1.0), 10.0, loads)
        assert sol.as_tuple() == (8.0, 11.0, 11.0)
        assert sol.residual == 0.0

    def test_tolerated_violation_is_reported(self):
        # 1e-5 rad/s off the 30 rad/s budget is inside the feasibility
        # tolerance, so the solve keeps the imposed speeds and reports the miss.
        loads = LoadState((imposed_speed(10.0), imposed_speed(10.0), imposed_speed(10.00001)))
        sol = solve_output_speeds(GearTrainConfig(ratio=1.0), 10.0, loads)
        assert sol.residual == pytest.approx(1e-5, rel=1e-6)


class TestFloatRange:
    def test_three_imposed_speeds_past_the_float_range_are_infeasible(self):
        loads = LoadState((imposed_speed(1e308),) * 3)
        with pytest.raises(InfeasibleConstraintError, match="beyond the float range"):
            solve_output_speeds(GearTrainConfig(ratio=1.0), 10.0, loads)

    def test_two_imposed_speeds_past_the_float_range_are_infeasible(self):
        loads = LoadState((imposed_speed(1e308), imposed_speed(1e308), free()))
        with pytest.raises(InfeasibleConstraintError, match="beyond the float range"):
            solve_output_speeds(GearTrainConfig(ratio=1.0), 10.0, loads)

    def test_a_budget_past_the_float_range_is_rejected(self):
        with pytest.raises(ValueError, match="speed budget"):
            solve_output_speeds(GearTrainConfig(ratio=1e308), 10.0, LoadState.all_free())

    def test_a_leftover_budget_past_the_float_range_is_shared_exactly(self):
        # 1e308 minus an imposed -1e308 leaves 2e308, past the float range,
        # for the two free outputs; each one's share, 1e308, is not.
        raw_loads = [("speed", -1e308), ("free", 0.0), ("free", 0.0)]
        loads = LoadState(tuple(build_load(kind, value) for kind, value in raw_loads))
        target = 3.0 * (1e308 / 3.0)
        sol = solve_output_speeds(GearTrainConfig(ratio=1.0), 1e308 / 3.0, loads)
        assert list(map(Fraction, sol.as_tuple())) == exact_speeds(target, raw_loads)
        assert sol.residual == 0.0

    def test_a_resolved_speed_past_the_float_range_is_rejected(self):
        # Each free output's share of the leftover 2e308 is 1e308; the torque
        # deviations send twice that, past the float range, to the first.
        loads = LoadState((imposed_speed(-1e308), imposed_torque(-1.0), imposed_torque(1.0)))
        with pytest.raises(ValueError, match="^speeds resolved for budget 1e[+]308 rad/s leave "
                                             "the float range$"):
            solve_output_speeds(GearTrainConfig(ratio=1.0), 1e308 / 3.0, loads)


    @pytest.mark.parametrize("raw_loads", [
        # The torques' exact sum, 2.5e308, rounds to inf.
        [("torque", 1e308), ("torque", 1.5e308), ("free", 0.0)],
        # tau_i - tau_mean, 3.4e308 - 1.7e308 / 3, overflows.
        [("torque", 1.7e308), ("torque", -1.7e308), ("torque", -1.7e308)],
    ])
    def test_torques_at_the_edge_of_the_float_range_resolve(self, raw_loads):
        loads = LoadState(tuple(build_load(kind, value) for kind, value in raw_loads))
        sol = solve_output_speeds(GearTrainConfig(ratio=1.0), 1.0, loads)
        for speed, exact in zip(sol.as_tuple(), exact_speeds(3.0, raw_loads)):
            assert math.isclose(speed, exact, rel_tol=1e-15)
        assert sol.residual <= 1e-15 * 3.0


def exact_speeds(target, raw_loads) -> list[Fraction]:
    """The speeds the model resolves for the finite budget ``target``, as exact
    fractions: imposed speeds verbatim, and the open outputs sharing the rest
    by ``v_mean * (1 - (tau_i - tau_mean) / max|tau|)`` for a torque load."""
    imposed = sum((Fraction(v) for kind, v in raw_loads if kind == "speed"), Fraction(0))
    n_open = sum(kind != "speed" for kind, _ in raw_loads)
    v_mean = (Fraction(target) - imposed) / n_open if n_open else Fraction(0)
    torques = [Fraction(v) for kind, v in raw_loads if kind == "torque"]
    scale = max(map(abs, torques), default=Fraction(0))
    tau_mean = sum(torques, Fraction(0)) / len(torques) if torques else Fraction(0)
    speeds = []
    for kind, value in raw_loads:
        if kind == "speed":
            speeds.append(Fraction(value))
        elif kind == "torque" and scale:
            speeds.append(v_mean * (1 - (Fraction(value) - tau_mean) / scale))
        else:
            speeds.append(v_mean)
    return speeds


# Finite floats up to 1.7e308 in magnitude, two draws in three from the top decade.
top = st.floats(min_value=1.7e307, max_value=1.7e308)
huge = st.floats(min_value=-1.7e308, max_value=1.7e308) | top | top.map(lambda x: -x)


@given(
    st.floats(min_value=1e-300, max_value=1.7e308),
    huge,
    st.lists(st.tuples(st.sampled_from(("free", "speed", "torque")), huge),
             min_size=3, max_size=3),
)
@settings(max_examples=500, deadline=None)
def test_speeds_and_residual_stay_finite_to_the_edge_of_the_float_range(
    ratio, omega_u, raw_loads
):
    target = 3.0 * ratio * omega_u
    imposed = [v for kind, v in raw_loads if kind == "speed"]
    exact = sum(map(Fraction, imposed), Fraction(0))
    in_range = abs(exact) < 2**1024 - 2**970  # rounds to a finite float
    loads = LoadState(tuple(build_load(k, v) for k, v in raw_loads))
    try:
        sol = solve_output_speeds(GearTrainConfig(ratio=ratio), omega_u, loads)
    except InfeasibleConstraintError:
        missed = abs(float(exact) - target) > 1e-6 * max(1.0, abs(target)) if in_range else True
        assert math.isfinite(target) and (not in_range or len(imposed) == 3 and missed)
        return
    except ValueError:
        # Only the budget or an exact speed may leave the float range; within
        # 1e-12 of its edge, rounding may take a speed either way.
        edge = (1 - Fraction(1, 10**12)) * Fraction(sys.float_info.max)
        assert (not math.isfinite(target)
                or any(abs(speed) > edge for speed in exact_speeds(target, raw_loads)))
        return
    assert math.isfinite(target) and in_range
    assert all(map(math.isfinite, (*sol.as_tuple(), sol.residual)))
    for (kind, value), speed in zip(raw_loads, sol.as_tuple()):
        assert kind != "speed" or speed == value


def load_strategy():
    kind = st.sampled_from(("free", "speed", "torque"))
    return st.tuples(kind, finite)


def build_load(kind, value):
    if kind == "free":
        return free()
    if kind == "speed":
        return imposed_speed(value)
    return imposed_torque(value)


@given(
    st.floats(min_value=0.1, max_value=10.0),
    finite,
    st.lists(load_strategy(), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_sum_conservation_property(ratio, omega_u, raw_loads):
    if sum(1 for kind, _ in raw_loads if kind == "speed") == 3:
        raw_loads[0] = ("free", 0.0)
    cfg = GearTrainConfig(ratio=ratio)
    loads = LoadState(tuple(build_load(k, v) for k, v in raw_loads))
    sol = solve_output_speeds(cfg, omega_u, loads)
    target = 3.0 * ratio * omega_u
    assert abs(math.fsum(sol.as_tuple()) - target) <= 1e-9 * max(1.0, abs(target))
    assert sol.residual <= 1e-9 * max(1.0, abs(target))


@given(
    st.floats(min_value=0.1, max_value=10.0),
    finite,
    st.lists(load_strategy(), min_size=3, max_size=3),
)
@settings(max_examples=300, deadline=None)
def test_permutation_equivariance_property(ratio, omega_u, raw_loads):
    if sum(1 for kind, _ in raw_loads if kind == "speed") == 3:
        raw_loads[0] = ("free", 0.0)
    cfg = GearTrainConfig(ratio=ratio)
    base_loads = tuple(build_load(k, v) for k, v in raw_loads)
    base = solve_output_speeds(cfg, omega_u, LoadState(base_loads)).as_tuple()
    for perm in itertools.permutations(range(3)):
        permuted = LoadState(tuple(base_loads[p] for p in perm))
        got = solve_output_speeds(cfg, omega_u, permuted).as_tuple()
        assert got == tuple(base[p] for p in perm)


@given(st.floats(min_value=0.1, max_value=10.0), finite, finite)
@settings(max_examples=200, deadline=None)
def test_equal_load_equality_is_exact(ratio, omega_u, tau):
    cfg = GearTrainConfig(ratio=ratio)
    expected = ratio * omega_u
    for loads in (LoadState.all_free(), LoadState.equal_torques(tau)):
        sol = solve_output_speeds(cfg, omega_u, loads)
        assert sol.as_tuple() == (expected, expected, expected)


@given(st.floats(min_value=0.1, max_value=10.0), finite, finite, finite)
@settings(max_examples=200, deadline=None)
def test_two_equal_loads_share_speed_exactly(ratio, omega_u, imposed, tau):
    cfg = GearTrainConfig(ratio=ratio)
    for pair in ((free(), free()), (imposed_torque(tau), imposed_torque(tau))):
        loads = LoadState((imposed_speed(imposed),) + pair)
        sol = solve_output_speeds(cfg, omega_u, loads)
        assert sol.omega_b == sol.omega_c
        assert sol.omega_a == imposed


@pytest.mark.parametrize("make, message", [
    (lambda: imposed_speed(math.nan), "load value must be finite"),
    (lambda: imposed_torque(math.inf), "load value must be finite"),
    (lambda: LoadState((free(), free())), "exactly three output loads"),
    (lambda: LoadState((free(), free(), 0.0)), "not an OutputLoad"),
])
def test_loads_reject_bad_values(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_gear_config_rejects_bad_ratio():
    with pytest.raises(ValueError):
        GearTrainConfig(ratio=0.0)
    with pytest.raises(ValueError):
        GearTrainConfig(ratio=-1.0)
