import itertools
import math

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


def test_gear_config_rejects_bad_ratio():
    with pytest.raises(ValueError):
        GearTrainConfig(ratio=0.0)
    with pytest.raises(ValueError):
        GearTrainConfig(ratio=-1.0)
