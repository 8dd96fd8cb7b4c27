import itertools
import math
import sys
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    DisturbanceConfig,
    GearTrainConfig,
    InvalidScenarioError,
    NoFitError,
    PipeNetwork,
    PipeSpec,
    RobotConfig,
    SimParams,
    Straight,
    parse_scenario,
    render_trace,
    run,
    run_orientation_sweep,
    simulator,
    validate_network,
)
from pipediff.geometry import module_cosines

from reference_stepper import reference_csv, reference_module_state, reference_plan, reference_run

Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def small_setup(dt=0.01, theta_deg=0.0, **sim_overrides):
    """Straight + 90 deg elbow + straight, nominal speed 50 mm/s."""
    spec = PipeSpec(inner_radius=13.2)
    net = PipeNetwork(
        spec,
        (
            Straight(100.0, Z),
            Bend(radius=200.0, sweep_deg=90.0, normal=Y),
            Straight(80.0, X),
        ),
    )
    robot = RobotConfig(
        sprocket_radius=25.0,
        length=40.0,
        nominal_body_radius=13.2,
        preload_compression=5.0,
    )
    gear = GearTrainConfig(ratio=1.0)
    params = SimParams(omega_u=2.0, dt=dt, theta_deg=theta_deg, **sim_overrides)
    return net, robot, gear, params


class TestStep:
    def test_straight_advance(self):
        net, robot, gear, params = small_setup()
        records, _ = run(net, robot, gear, params)
        first, second = records[:2]
        assert first.t == 0.0 and first.s == 0.0
        assert first.v == pytest.approx((50.0, 50.0, 50.0), rel=1e-12)
        assert second.s == pytest.approx(0.5, rel=1e-12)  # 50 mm/s * 0.01 s
        assert second.t == pytest.approx(0.01)

    def test_bend_advance_keeps_the_nominal_mean(self):
        net, robot, gear, params = small_setup()
        records, _ = run(net, robot, gear, params)
        pairs = [(a, b) for a, b in zip(records, records[1:]) if a.segment == 1]
        assert pairs  # the elbow was sampled
        for before, after in pairs:
            assert before.v[0] < 50.0  # module 0 rides the inner side at theta 0
            assert after.s - before.s == pytest.approx(0.5, rel=1e-9)

    def test_completion_signal_at_network_end(self):
        net, robot, gear, params = small_setup()
        records, summary = run(net, robot, gear, params)
        assert summary.completed and summary.stop_reason is None and summary.error is None
        assert records[-1].s == net.total_length
        assert records[-1].segment == len(net.segments) - 1
        assert records[-2].s < net.total_length  # exactly one record at the end


class TestRun:
    def test_records_step_by_dt_and_s_is_monotone(self):
        net, robot, gear, params = small_setup()
        records, summary = run(net, robot, gear, params)
        assert summary.completed
        times = [r.t for r in records]
        for a, b in zip(times, times[1:]):
            assert b - a == pytest.approx(params.dt, rel=1e-9)
        positions = [r.s for r in records]
        assert positions == sorted(positions)
        assert positions[-1] == net.total_length

    def test_joint_record_belongs_to_the_later_segment(self):
        net, robot, gear, params = small_setup(dt=0.5)  # 25 mm steps land on the 100 mm joint
        records, _ = run(net, robot, gear, params)
        assert [r.segment for r in records if r.s == 100.0] == [1]

    def test_mean_speed_conservation_in_straights_and_bends(self):
        net, robot, gear, params = small_setup()
        records, _ = run(net, robot, gear, params)
        nominal = gear.ratio * params.omega_u * robot.sprocket_radius
        for record in records:
            assert math.fsum(record.v) / 3.0 == pytest.approx(nominal, rel=1e-9)

    def test_zero_disturbance_has_zero_slip(self):
        net, robot, gear, params = small_setup()
        records, summary = run(net, robot, gear, params)
        assert summary.max_slip <= 1e-9

    @pytest.mark.parametrize("theta_deg, reduced", [(1e15, 280.0), (-1e15, -280.0)])
    def test_roll_is_reduced_mod_360(self, reference_scenario, theta_deg, reduced):
        # Unreduced, radians(1e15) + 2 pi / 3 rounds away the modules' offsets,
        # and the three path radii stop averaging to the bend radius.
        sc = reference_scenario
        trace, summary = run(sc.network, sc.robot, sc.gear, replace(sc.sim, theta_deg=theta_deg))
        expected = run(sc.network, sc.robot, sc.gear, replace(sc.sim, theta_deg=reduced))
        assert summary.completed and summary.theta_deg == trace.theta_deg == theta_deg
        assert (replace(trace, theta_deg=reduced), replace(summary, theta_deg=reduced)) == expected

    def test_determinism_bit_identical(self):
        net, robot, gear, params = small_setup(
            disturbance=DisturbanceConfig(amplitude=0.025, seed=11)
        )
        first, _ = run(net, robot, gear, params)
        second, _ = run(net, robot, gear, params)
        assert first == second

    def test_distance_closure_over_the_bend(self):
        net, robot, gear, params = small_setup()
        records, _ = run(net, robot, gear, params)
        in_bend = [r for r in records if r.segment == 1]
        after = [r for r in records if r.segment == 2]
        bend = net.segments[1]
        sweep = bend.sweep_rad
        nominal = gear.ratio * params.omega_u * robot.sprocket_radius
        tol = 3.0 * nominal * params.dt
        for i, c in enumerate(module_cosines(params.theta_rad)):
            rho = bend.radius - net.spec.inner_radius * c
            travelled = after[0].distance[i] - in_bend[0].distance[i]
            assert travelled == pytest.approx(rho * sweep, abs=tol)

    def test_time_step_convergence(self):
        net, robot, gear, params = small_setup(dt=0.01)
        _, coarse = run(net, robot, gear, params)
        _, fine = run(net, robot, gear, replace(params, dt=0.005))
        assert abs(fine.total_time - coarse.total_time) / coarse.total_time < 0.005

    def test_t_max_stops_the_run(self):
        net, robot, gear, params = small_setup(t_max=1.0)
        records, summary = run(net, robot, gear, params)
        assert not summary.completed
        assert summary.stop_reason == "t_max"
        assert records[-1].t == pytest.approx(1.0)

    def test_no_fit_mid_run_keeps_partial_trace(self):
        net, robot, gear, params = small_setup()
        tight = replace(robot, length=120.0, max_tilt_deg=45.0)  # 9 mm sagitta at R=200
        tighter = replace(tight, max_compression=12.0)
        records, summary = run(net, tighter, gear, params)
        assert not summary.completed
        assert summary.error is not None and "compression" in summary.error
        assert records  # the straight section was traversed
        assert all(r.segment == 0 for r in records)

    def test_invalid_network_is_rejected(self):
        spec = PipeSpec(inner_radius=13.2)
        net = PipeNetwork(spec, (Bend(radius=5.0, sweep_deg=90.0, normal=Y),))
        _, robot, gear, params = small_setup()
        with pytest.raises(InvalidScenarioError):
            run(net, robot, gear, params)

    def test_nonpositive_nominal_speed_is_rejected(self):
        net, robot, gear, _ = small_setup()
        with pytest.raises(InvalidScenarioError):
            run(net, robot, gear, SimParams(omega_u=-2.0))

    def test_segment_summaries_cover_entry_and_exit(self):
        net, robot, gear, params = small_setup()
        _, summary = run(net, robot, gear, params)
        assert [s.index for s in summary.segments] == [0, 1, 2]
        first, elbow, last = summary.segments
        assert first.entry_time == 0.0
        assert elbow.entry_time == pytest.approx(100.0 / 50.0, abs=2 * params.dt)
        assert elbow.exit_time == pytest.approx(
            (100.0 + 100.0 * math.pi) / 50.0, abs=2 * params.dt
        )
        assert last.exit_time == summary.total_time


def planar_network(spec, pieces):
    """Chain ``pieces`` in the x-z plane: ("straight", length) or
    ("bend", radius, sweep_deg, turn) with turn +1 or -1 about +y."""
    heading = 0.0  # radians from +z towards +x
    segments = []
    for piece in pieces:
        if piece[0] == "straight":
            segments.append(Straight(piece[1], (math.sin(heading), 0.0, math.cos(heading))))
        else:
            _, radius, sweep, turn = piece
            segments.append(Bend(radius, sweep, (0.0, float(turn), 0.0)))
            heading += turn * math.radians(sweep)
    return PipeNetwork(spec, tuple(segments))


class TestSegmentAdmissibility:
    # A 3.5 mm elbow of radius 40 mm needs 5 + 61**2 / (8 * 40) = 16.628 mm of
    # compression; at dt = 0.5 s one 17.5 mm step jumps from s = 315 mm to
    # s = 332.5 mm, clean over it.
    SHORT_TIGHT_ELBOW = (
        ("straight", 320.0),
        ("bend", 40.0, 5.0, 1),
        ("straight", 100.0),
        ("bend", 335.0, 90.0, 1),
    )

    def test_planning_stops_at_the_first_impassable_segment(self, reference_scenario):
        # With a 5.5 mm limit the robot fits the first straight but not the
        # elbow after it.
        sc = reference_scenario
        robot = replace(sc.robot, max_compression=5.5)
        trace, summary = run(sc.network, robot, sc.gear, sc.sim)
        assert summary.error == (
            "bend of radius 335 mm requires 6.388 mm compression on module 0, limit is 5.5 mm"
        )
        assert len(trace) == 900 and set(trace.segment.tolist()) == {0}
        records, expected = reference_run(sc.network, robot, sc.gear, sc.sim)
        assert list(trace) == records
        assert summary == expected

    @pytest.mark.parametrize("dt", [0.5, 0.2])
    def test_a_stepped_over_segment_still_aborts(self, reference_scenario, dt):
        sc = reference_scenario
        net = planar_network(sc.network.spec, self.SHORT_TIGHT_ELBOW)
        records, summary = run(net, sc.robot, sc.gear, replace(sc.sim, dt=dt))
        assert not summary.completed
        assert summary.error == (
            "bend of radius 40 mm requires 16.628 mm compression on module 0, "
            "limit is 16 mm"
        )
        assert records and all(r.segment == 0 for r in records)

    def test_blocks_stay_inside_the_float_range_past_an_abort(self, reference_scenario):
        # At 3.5e-299 mm/s and dt = 1e305 s the first 3.5e6 mm step jumps from
        # the straight past the impassable elbow into the 1e12 mm straight.
        # The plan bounds record times only up to the elbow: a block sized to
        # the network's end would form 4,096 of them and overflow at 1.8e308 s.
        sc = reference_scenario
        net = planar_network(sc.network.spec,
                             [("straight", 320.0), ("bend", 40.0, 5.0, 1), ("straight", 1e12)])
        params = replace(sc.sim, dt=1e305, omega_u=sc.sim.omega_u * 1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace, summary = run(net, sc.robot, sc.gear, params)
        assert not summary.completed
        assert summary.error == (
            "bend of radius 40 mm requires 16.628 mm compression on module 0, "
            "limit is 16 mm"
        )
        assert len(trace) == 1 and trace.segment.tolist() == [0]

    def test_a_block_sized_past_the_float_range_stops_at_t_max(self, reference_scenario):
        # 1e307 mm at 0.0175 mm a step is 5.7e308 steps, past the float
        # range; t_max keeps the plan's bounds finite and stops the run.
        sc = reference_scenario
        net = planar_network(sc.network.spec, [("straight", 1e307), ("bend", 335.0, 90.0, 1)])
        params = replace(sc.sim, omega_u=1.0, dt=0.001, t_max=0.001)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            trace, summary = run(net, sc.robot, sc.gear, params)
        assert summary.stop_reason == "t_max" and summary.error is None
        assert trace.t.tolist() == [0.0, 0.001]

    # Only the plan is made in the tests below: each run would form more
    # records than memory holds.  ``_plan`` allocates per segment, not per record.
    @pytest.mark.parametrize("key, value, records", [
        ("omega_u", 1e-300, "1.8e+303"),
        ("dt", 1e-300, "9e+300"),
    ])
    def test_a_run_no_memory_can_hold_is_cut_at_the_plan(self, reference_scenario, key, value,
                                                         records):
        # Every bound of the float-range rule stays finite for these runs.
        sc = reference_scenario
        params = replace(sc.sim, **{key: value})
        v_nominal = sc.gear.ratio * params.omega_u * sc.robot.sprocket_radius
        plan = simulator._plan(sc.network, sc.robot, sc.gear, params, v_nominal)
        assert len(plan.resolved) == 0
        assert plan.error == (f"steps of {params.dt:g} s at nominal speed {v_nominal:g} mm/s "
                              f"form up to {records} records, more than memory can hold")

    def test_the_record_count_cut_falls_on_the_first_segment_past_it(self, reference_scenario):
        # 1e300 mm at 0.35 mm a step is about 2.9e300 records.
        sc = reference_scenario
        net = planar_network(sc.network.spec,
                             [("straight", 100.0), ("bend", 335.0, 90.0, 1), ("straight", 1e300)])
        plan = simulator._plan(net, sc.robot, sc.gear, sc.sim, 35.0)
        assert len(plan.resolved) == 2
        assert plan.error == ("steps of 0.01 s at nominal speed 35 mm/s form up to 2.86e+300 "
                              "records, more than memory can hold")

    @pytest.mark.parametrize("over", [0, 1])
    def test_t_max_bounds_the_record_count(self, reference_scenario, over):
        # At dt = 1 s, t_max = MAX_RECORDS - 2 s lets the run form exactly
        # MAX_RECORDS records, the most a trace may hold.
        sc = reference_scenario
        net = planar_network(sc.network.spec, [("straight", 1e300)])
        params = replace(sc.sim, dt=1.0, t_max=float(simulator.MAX_RECORDS - 2 + over))
        plan = simulator._plan(net, sc.robot, sc.gear, params, 35.0)
        assert len(plan.resolved) == 1 - over
        assert (plan.error is None) == (over == 0)

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_a_segment_crossed_within_one_step_is_reported(self, reference_text, amplitude):
        # At dt = 0.5 s one 17.5 mm step crosses the 0.1 mm straight whole.
        sc = parse_scenario(reference_text.replace("length = 350.0", "length = 0.1"))
        sim = replace(sc.sim, dt=0.5, disturbance=DisturbanceConfig(amplitude, 7))
        trace, summary = run(sc.network, sc.robot, sc.gear, sim)
        assert summary.completed and 2 not in trace.segment
        assert [seg.index for seg in summary.segments] == [0, 1, 2, 3]
        first, elbow, short, last = summary.segments
        assert first.exit_time == elbow.entry_time
        assert (elbow.exit_time, short.entry_time, short.exit_time, last.entry_time) == (
            24.5, 24.5, 24.5, 24.5
        )
        assert short.ape == (None, None, None)
        assert short.mean_speeds == short.min_speeds == short.max_speeds == (35.0, 35.0, 35.0)
        assert short.max_compression == 5.0
        assert summary.max_compression == max(seg.max_compression for seg in summary.segments)

    @settings(max_examples=40, deadline=None)
    @given(
        pieces=st.lists(
            st.one_of(
                st.tuples(st.just("straight"), st.floats(1.0, 150.0)),
                st.tuples(
                    st.just("bend"),
                    st.floats(14.0, 400.0),
                    st.floats(0.5, 90.0),
                    st.sampled_from((1, -1)),
                ),
            ),
            min_size=1,
            max_size=6,
        ),
        dt=st.floats(0.05, 2.0),
    )
    def test_completion_implies_every_segment_is_admissible(
        self, reference_scenario, pieces, dt
    ):
        sc = reference_scenario
        net = planar_network(sc.network.spec, pieces)
        _, summary = run(net, sc.robot, sc.gear, replace(sc.sim, dt=dt))
        first_error = None
        for segment in net.segments:
            try:
                reference_module_state(sc.robot, net.spec, segment, sc.sim.theta_rad)
            except NoFitError as exc:
                first_error = str(exc)
                break
        assert summary.completed == (first_error is None)
        assert summary.error == first_error


class TestAgainstTheTickStepper:
    """The block stepper against the tick-by-tick reference in reference_stepper."""

    @settings(max_examples=60, deadline=None)
    @given(
        pieces=st.lists(
            st.one_of(
                st.tuples(st.just("straight"), st.floats(1.0, 150.0)),
                # 35 mm/s steps of 0.1, 0.2 or 0.5 s land exactly on these joints
                st.tuples(st.just("straight"), st.integers(1, 40).map(lambda n: 3.5 * n)),
                st.tuples(st.just("straight"), st.floats(0.01, 1.0)),  # shorter than a step
                st.tuples(
                    st.just("bend"),
                    st.floats(14.0, 400.0),  # below about 40 mm the robot does not fit
                    st.floats(0.5, 180.0),
                    st.sampled_from((1, -1)),
                ),
            ),
            min_size=1,
            # Long enough that one block spans many joints.
            max_size=24,
        ),
        dt=st.one_of(st.floats(0.01, 2.0), st.sampled_from((0.1, 0.2, 0.5))),
        theta_deg=st.floats(0.0, 360.0),
        amplitude=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        seed=st.integers(0, 2**32),
        t_max=st.one_of(st.none(), st.floats(0.01, 60.0)),
        block_rows=st.sampled_from((3, 50, simulator.BLOCK_ROWS)),
    )
    def test_every_column_and_the_summary_match(
        self, reference_scenario, pieces, dt, theta_deg, amplitude, seed, t_max, block_rows
    ):
        sc = reference_scenario
        net = planar_network(sc.network.spec, pieces)
        params = replace(sc.sim, dt=dt, theta_deg=theta_deg, t_max=t_max,
                         disturbance=DisturbanceConfig(amplitude, seed))
        # Small blocks split segments and refill the draw buffer mid-segment.
        with mock.patch.object(simulator, "BLOCK_ROWS", block_rows):
            trace, summary = run(net, sc.robot, sc.gear, params)
        records, expected = reference_run(net, sc.robot, sc.gear, params)
        assert list(trace) == records
        assert summary == expected
        # Lines, so that a mismatch reports its first differing row at once.
        assert render_trace(trace).split("\n") == reference_csv(records).split("\n")


    @settings(max_examples=40, deadline=None)
    @given(
        pieces=st.lists(
            st.one_of(
                st.tuples(st.just("straight"), st.floats(1.0, 150.0)),
                st.tuples(st.just("straight"), st.integers(1, 40).map(lambda n: 3.5 * n)),
                st.tuples(st.just("straight"), st.floats(0.01, 1.0)),
                # 45 mm needs 15.3 mm of compression and 42.7 deg of tilt
                st.tuples(
                    st.just("bend"),
                    st.floats(45.0, 400.0),
                    st.floats(0.5, 180.0),
                    st.sampled_from((1, -1)),
                ),
            ),
            min_size=10,
            max_size=30,
        ),
        dt=st.one_of(st.floats(0.05, 2.0), st.sampled_from((0.1, 0.2, 0.5))),
        theta_deg=st.floats(0.0, 360.0),
        amplitude=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        seed=st.integers(0, 2**32),
        # Mostly unset; when set, later than any of these networks' runs end.
        t_max=st.one_of(st.none(), st.none(), st.none(), st.floats(4000.0, 1e6)),
        block_rows=st.sampled_from((3, 50, simulator.BLOCK_ROWS)),
    )
    def test_deep_networks_complete_and_match(
        self, reference_scenario, pieces, dt, theta_deg, amplitude, seed, t_max, block_rows
    ):
        # Passable by construction: a 45 deg tilt limit admits every bend
        # drawn here, where the reference robot's 10 deg rejects any under
        # about 176 mm.
        sc = reference_scenario
        robot = replace(sc.robot, max_tilt_deg=45.0)
        net = planar_network(sc.network.spec, pieces)
        params = replace(sc.sim, dt=dt, theta_deg=theta_deg, t_max=t_max,
                         disturbance=DisturbanceConfig(amplitude, seed))
        with mock.patch.object(simulator, "BLOCK_ROWS", block_rows):
            trace, summary = run(net, robot, sc.gear, params)
        event(f"segments entered: {len(summary.segments)}")
        assert summary.completed and len(summary.segments) == len(pieces)
        records, expected = reference_run(net, robot, sc.gear, params)
        assert list(trace) == records
        assert summary == expected
        assert render_trace(trace).split("\n") == reference_csv(records).split("\n")


def log_uniform(low, high):
    """Floats ``10 ** e`` for exponents ``e`` drawn uniformly in [low, high]."""
    return st.floats(low, high).map(lambda e: 10.0 ** e)


class TestPlanAgainstTheReference:
    """``_plan``'s whole-network columns against ``reference_plan``, which
    plans one segment at a time: bit for bit, over inputs that make each of
    its cuts fire."""

    PLAN_COLUMNS = ("resolved", "means", "demanded", "compressions", "max_tilt_deg")

    @settings(max_examples=300, deadline=None)
    @given(
        pieces=st.lists(
            st.one_of(
                st.tuples(st.just("straight"), st.floats(0.01, 500.0)),
                st.tuples(st.just("straight"), log_uniform(-3.0, 306.0)),
                # Down past the 30.5 mm chord limit of the 61 mm robot.
                st.tuples(
                    st.just("bend"),
                    st.floats(14.0, 400.0),
                    st.floats(0.5, 180.0),
                    st.sampled_from((1, -1)),
                ),
            ),
            min_size=1,
            max_size=12,
        ),
        # Speeds up to 1e307 mm/s put 100 times a disturbed speed past the
        # float range but keep the speeds inside it.
        omega_u=st.one_of(log_uniform(-320.0, 308.0), log_uniform(303.0, 307.0)),
        ratio=st.one_of(st.just(1.0), log_uniform(-320.0, 308.0)),
        dt=log_uniform(-320.0, 308.0),
        # A subnormal nominal speed loses the bits that keep the demands on
        # the differential's budget.
        sprocket_radius=st.one_of(st.just(17.5), log_uniform(-323.3, 3.0),
                                  log_uniform(-323.3, -318.0)),
        # Against the 13.2 mm bore: below 8.2 mm the springs miss the wall,
        # above 24.2 mm the straight pipe needs more than 16 mm.
        nominal_body_radius=st.one_of(st.just(13.2), st.floats(5.0, 30.0)),
        theta_deg=st.floats(0.0, 360.0),
        amplitude=st.one_of(st.just(0.0), st.floats(0.0, 0.99, exclude_min=True)),
        t_max=st.one_of(st.none(), log_uniform(-3.0, 308.0)),
    )
    def test_columns_and_error_match(
        self, reference_scenario, pieces, omega_u, ratio, dt, sprocket_radius,
        nominal_body_radius, theta_deg, amplitude, t_max,
    ):
        sc = reference_scenario
        net = planar_network(sc.network.spec, pieces)
        robot = replace(sc.robot, sprocket_radius=sprocket_radius,
                        nominal_body_radius=nominal_body_radius)
        gear = replace(sc.gear, ratio=ratio)
        params = replace(sc.sim, omega_u=omega_u, dt=dt, theta_deg=theta_deg, t_max=t_max,
                         disturbance=DisturbanceConfig(amplitude, 0))
        v_nominal = ratio * omega_u * sprocket_radius
        # ``run`` refuses these before it plans.
        assume(math.isfinite(v_nominal) and v_nominal > 0.0 and not validate_network(net))
        plan = simulator._plan(net, robot, gear, params, v_nominal)
        expected, rule = reference_plan(net, robot, gear, params)
        event(f"cut: {rule}")
        assert plan.error == expected.error
        for name in self.PLAN_COLUMNS:
            column, reference = getattr(plan, name), getattr(expected, name)
            assert column.shape == reference.shape, name
            assert column.tobytes() == reference.tobytes(), name


class TestSummaryEdges:
    """``_summarize`` works on whole-trace columns; these runs reach the
    edges of that layout, each against the tick-by-tick reference."""

    def check(self, net, robot, gear, params):
        trace, summary = run(net, robot, gear, params)
        records, expected = reference_run(net, robot, gear, params)
        assert list(trace) == records
        assert summary == expected
        return trace, summary

    def test_first_segment_impassable_gives_no_records_and_no_segments(
        self, reference_scenario
    ):
        # The 61 mm robot cannot fit a 20 mm elbow at all.
        sc = reference_scenario
        net = planar_network(sc.network.spec, [("bend", 20.0, 90.0, 1), ("straight", 50.0)])
        trace, summary = self.check(net, sc.robot, sc.gear, sc.sim)
        assert len(trace) == 0 and summary.segments == ()
        assert summary.error == "robot length 61 mm cannot chord a bend of radius 20 mm"
        assert summary.total_time == 0.0 and summary.max_compression == 0.0
        assert all(track.max_ape is None for track in summary.tracks)

    def test_t_max_stop_inside_a_segment_window(self, reference_scenario):
        # The first straight's window spans 0.9 s to 8.1 s at 35 mm/s.
        sc = reference_scenario
        params = replace(sc.sim, t_max=5.0, disturbance=DisturbanceConfig(0.025, 7))
        trace, summary = self.check(sc.network, sc.robot, sc.gear, params)
        assert summary.stop_reason == "t_max" and len(summary.segments) == 1
        assert 31.5 < trace.s[-1] < 283.5
        assert summary.segments[0].exit_time == trace.t[-1] == 5.0

    @pytest.mark.parametrize("t_max, records", [(5e-12, 501), (1e-12, 101)])
    def test_t_max_tolerance_is_relative(self, t_max, records):
        # An absolute 1e-12 s tolerance stopped these at 401 records and at 1.
        net, robot, gear, params = small_setup(dt=1e-14, t_max=t_max)
        trace, summary = self.check(net, robot, gear, params)
        assert len(trace) == records and summary.stop_reason == "t_max"
        assert trace.t[-1] == pytest.approx(t_max, rel=1e-12)

    def test_a_mean_track_speed_that_rounds_to_zero_stalls_the_run(self):
        # A nominal speed of the smallest subnormal, disturbed by up to 90 %:
        # the 21st record's three speeds sum to one subnormal, whose third
        # rounds to a mean of 0.
        net = PipeNetwork(PipeSpec(inner_radius=13.2), (Straight(100.0, Z),))
        robot = RobotConfig(sprocket_radius=1.0, length=10.0, nominal_body_radius=13.2,
                            preload_compression=1.0)
        params = SimParams(omega_u=5e-324, dt=1e300, t_max=1e303,
                           disturbance=DisturbanceConfig(0.9, 0))
        trace, summary = self.check(net, robot, GearTrainConfig(), params)
        assert len(trace) == 21 and not summary.completed and summary.stop_reason is None
        assert summary.error == "stalled: mean track speed 0 mm/s is not positive"

    def test_a_segment_whose_window_holds_no_record_averages_all_of_them(
        self, reference_scenario
    ):
        # The 0.4 mm straight holds two records, 0.030 mm and 0.375 mm past
        # its start: both outside its window of 0.04 mm to 0.36 mm.
        sc = reference_scenario
        net = planar_network(sc.network.spec,
                             [("straight", 30.06), ("straight", 0.4), ("bend", 335.0, 90.0, 1)])
        params = replace(sc.sim, disturbance=DisturbanceConfig(0.025, 2))
        trace, summary = self.check(net, sc.robot, sc.gear, params)
        offsets = trace.s[trace.segment == 1] - net.starts[1]
        assert len(offsets) == 2
        assert not ((0.04 <= offsets) & (offsets <= 0.36)).any()
        v = trace.v[trace.segment == 1]
        assert summary.segments[1].mean_speeds == tuple((v[0] + v[1]) / 2.0)
        assert all(ape is not None for ape in summary.segments[1].ape)

    @pytest.mark.parametrize("block_rows", [3, 7])
    def test_disturbed_run_in_small_blocks(self, reference_scenario, block_rows):
        sc = reference_scenario
        params = replace(sc.sim, dt=0.05, disturbance=DisturbanceConfig(0.025, 7))
        with mock.patch.object(simulator, "BLOCK_ROWS", block_rows):
            _, summary = self.check(sc.network, sc.robot, sc.gear, params)
        assert summary.completed and len(summary.segments) == 4


def _finite_triples():
    """Triples whose correctly rounded sum and TwoSum steps stay finite,
    drawn to reach the cases that break naive three-term sums."""
    bound = sys.float_info.max / 4.0
    floats = st.floats(-bound, bound, allow_nan=False, allow_infinity=False)
    tiny = st.floats(-sys.float_info.min, sys.float_info.min)  # zeros and subnormals
    spread = st.builds(math.ldexp, st.floats(-2.0, 2.0), st.integers(-1074, 1020))

    @st.composite
    def cancelling(draw):
        a = draw(floats | spread)
        return (a, draw(spread) - a, draw(spread | tiny))

    @st.composite
    def tie(draw):
        # ``a`` plus half an ulp of ``a`` lies midway between two floats, and
        # one ulp of that half less lies just short of it; a third term of a
        # fraction of that ulp, perhaps zero, decides which way the sum rounds.
        a = draw(st.floats(1.0, 2.0, exclude_max=True) | spread)
        b = math.ulp(a) / 2.0 * draw(st.sampled_from([1.0, -1.0, 3.0, -3.0]))
        if draw(st.booleans()):
            b = math.nextafter(b, 0.0)
        return (a, b, math.ulp(b) * draw(st.floats(-2.0, 2.0)))

    plain = st.tuples(*[floats | tiny | spread] * 3)
    return plain | cancelling() | tie()


class TestCorrectlyRoundedSums:
    @settings(max_examples=2000, deadline=None)
    @given(_finite_triples())
    def test_sum3_is_math_fsum_bit_for_bit(self, triple):
        rows = np.array(list(itertools.permutations(triple)))
        expected = np.array([math.fsum(row) for row in rows.tolist()])
        assert simulator._sum3(rows).view(np.int64).tolist() == expected.view(np.int64).tolist()

    @pytest.mark.parametrize("network, amplitude, t_max, omega_u, rule, share", [
        # A bend's demand ``v_nominal * rho_i`` overflows first: the rows sum
        # to 0.45 % of the float range.
        ("reference", 0.9, 5.0, 2.0024429238232423e+304,
         "track speeds exceed the float range", 0.004),
        # Two records on one straight: the record range cuts where the three
        # disturbed speeds sum to half the float range.
        ("one straight", 0.001, 1e-9, 2.9931620627078186e+307, "steps of 0.01 s", 0.499),
    ])
    def test_a_plan_row_at_the_float_range_cut_matches_the_reference(
        self, reference_scenario, network, amplitude, t_max, omega_u, rule, share
    ):
        sc = reference_scenario
        net, robot, gear, sim = sc.network, sc.robot, sc.gear, sc.sim
        if network == "one straight":
            net = PipeNetwork(PipeSpec(inner_radius=13.2), (Straight(100.0, Z),))
            robot = RobotConfig(sprocket_radius=1.0, length=10.0, nominal_body_radius=13.2,
                                preload_compression=1.0)
        params = replace(sim, omega_u=omega_u, t_max=t_max,
                         disturbance=DisturbanceConfig(amplitude, 3))
        next_up = replace(params, omega_u=math.nextafter(omega_u, math.inf))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace, summary = run(net, robot, gear, params)
            _, over = run(net, robot, gear, next_up)
        records, expected = reference_run(net, robot, gear, params)
        assert summary.completed and list(trace) == records and summary == expected
        assert trace.v.sum(axis=1).max() > share * sys.float_info.max
        assert over.error.startswith(rule)


def _limb_width(n):
    """Bits per limb of ``simulator._window_sums`` for a column of n values."""
    return 53 - (n + 1).bit_length()


@st.composite
def _columns(draw):
    """``(column, kind)``: columns like the summary's, and columns at the
    edges of ``_window_sums``' exact path and of its guard."""
    # Besides small columns, lengths where the limb width changes: n + 1 = 2**k.
    n = draw(st.integers(0, 40) | st.integers(1, 13).flatmap(
        lambda k: st.sampled_from((2**k - 2, 2**k - 1)).filter(lambda n: n >= 0)))
    kind = draw(st.sampled_from(("constant", "speeds", "ape", "zeros", "signed zeros", "signed",
                                 "three limbs", "four limbs")))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    if kind == "constant":
        return np.full(n, draw(st.floats(0.0, 1e6))), kind
    if kind == "speeds":  # disturbed track speeds
        amplitude = draw(st.floats(0.0, 0.9))
        return draw(st.floats(1e-3, 1e6)) * (1.0 + amplitude * rng.uniform(-1.0, 1.0, n)), kind
    if kind == "ape":  # percent errors, some tiny, some exactly 0
        terms = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(-60, 7, n))
        return np.where(rng.uniform(size=n) < 0.1, 0.0, terms), kind
    if kind == "zeros":
        return np.zeros(n), kind
    if kind == "signed zeros":  # ``-0.0`` among ``0.0`` and a few positive values
        column = np.where(rng.uniform(size=n) < 0.5, -0.0, 0.0)
        column[rng.uniform(size=n) < 0.1] = draw(st.floats(0.0, 1e3))
        return column, kind
    if kind == "signed":
        return rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-5, 5, n), kind
    # The top value has exponent ``e`` and the least has its last bit
    # ``3 * width`` bits lower, give or take one: three limbs just reach it
    # or just miss it.
    e = draw(st.integers(-200, 200))
    over = draw(st.sampled_from((-1, 0))) if kind == "three limbs" else 1
    bits = 3 * _limb_width(max(n, 2)) + over
    column = np.ldexp(rng.uniform(0.5, 1.0, n), rng.integers(e - bits + 53, e + 1, n))
    if n >= 2:
        column[rng.permutation(n)[:2]] = math.ldexp(0.75, e), math.ldexp(0.75, e - bits + 53)
    return column, kind


class TestWindowSums:
    """``_window_sums`` against ``math.fsum``, compared bit for bit."""

    @staticmethod
    def sums(column, windows):
        """``(sums, exact)``: ``_window_sums`` over ``windows``, and whether
        they took the exact numpy path, which ends in ``_sum3``, or the guard."""
        lo, hi = np.array(windows, dtype=np.intp).T
        with mock.patch.object(simulator, "_sum3", wraps=simulator._sum3) as spy:
            sums = simulator._window_sums(column, lo, hi)
        return sums, spy.called

    @staticmethod
    def fsum_bits(column, windows):
        """The bits of ``math.fsum`` of each window."""
        values = column.tolist()
        return np.array([math.fsum(values[a:b]) for a, b in windows]).view(np.int64).tolist()

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), drawn=_columns())
    def test_each_window_is_math_fsum_bit_for_bit(self, data, drawn):
        column, kind = drawn
        n = len(column)
        bound = st.integers(0, n)
        windows = data.draw(st.lists(st.tuples(bound, bound).map(sorted).map(tuple), max_size=6)
                            .map(lambda w: w + [(0, n), (n, n), (0, 0)]))
        sums, exact = self.sums(column, windows)
        event(f"{kind}: {'numpy' if exact else 'guard'}")
        if kind == "three limbs":
            assert exact
        if kind == "four limbs" and n >= 2:
            assert not exact
        assert sums.view(np.int64).tolist() == self.fsum_bits(column, windows)

    @pytest.mark.parametrize("column, exact", [
        (np.full(5, 35.0), True),
        (np.array([1e300, 1e-300, 2.0]), False),  # about 2,000 bits apart
        (np.array([5e-324, 3e-310, 0.0]), False),  # subnormal
        (np.array([1e-300, 1e-300]), False),  # limbs below 2**-1022
        (np.array([8e307, 8e307]), False),  # limb sums past the float range
        (np.array([1.0, math.inf]), False),
        (np.array([1.0, math.nan]), False),
    ])
    def test_the_guard_takes_what_the_limbs_cannot_hold(self, column, exact):
        windows = [(0, len(column)), (1, 1), (0, 1)]
        sums, took_limbs = self.sums(column, windows)
        assert took_limbs == exact
        assert sums.view(np.int64).tolist() == self.fsum_bits(column, windows)

    @pytest.mark.parametrize("amplitude", [0.025, 0.9])
    def test_disturbed_reference_summary_matches_the_tick_stepper(self, reference_scenario,
                                                                   amplitude):
        # The tick stepper's summary takes each mean with ``math.fsum``;
        # the reference scenario sets no ``t_max``.
        sc = reference_scenario
        params = replace(sc.sim, disturbance=DisturbanceConfig(amplitude, 5))
        assert params.t_max is None
        trace, summary = run(sc.network, sc.robot, sc.gear, params)
        records, expected = reference_run(sc.network, sc.robot, sc.gear, params)
        assert summary.completed and list(trace) == records
        assert repr(summary) == repr(expected)


class TestEffectiveRobotPath:
    def test_difference(self):
        net, robot, gear, params = small_setup()
        _, summary = run(net, robot, gear, params)
        assert summary.effective_path == pytest.approx(net.total_length - robot.length)

    def test_single_straight(self):
        net, robot, gear, params = small_setup()
        net = PipeNetwork(net.spec, (Straight(350.0, Z),))
        _, summary = run(net, replace(robot, length=200.0), gear, params)
        assert summary.effective_path == pytest.approx(150.0)

    def test_network_shorter_than_robot(self):
        net, robot, gear, params = small_setup()
        net = PipeNetwork(net.spec, (Straight(100.0, Z),))
        _, summary = run(net, replace(robot, length=200.0), gear, params)
        assert summary.completed
        assert summary.effective_path is None


class TestOrientationSweep:
    def test_mean_speed_is_orientation_independent(self):
        net, robot, gear, params = small_setup()
        nominal = gear.ratio * params.omega_u * robot.sprocket_radius
        results = run_orientation_sweep(net, robot, gear, params, steps=4)
        assert [theta for theta, _ in results] == [0.0, 90.0, 180.0, 270.0]
        for theta, summary in results:
            assert summary.completed and summary.theta_deg == theta
            for segment in summary.segments:
                assert math.fsum(segment.mean_speeds) / 3.0 == pytest.approx(nominal, rel=1e-9)

    def test_per_orientation_seeds_differ(self):
        net, robot, gear, params = small_setup(
            disturbance=DisturbanceConfig(amplitude=0.02, seed=5)
        )
        results = run_orientation_sweep(net, robot, gear, params, steps=2)
        seeds = [summary.disturbance_seed for _, summary in results]
        assert seeds == [5, 6]

    def test_rejects_zero_steps(self):
        net, robot, gear, params = small_setup()
        with pytest.raises(ValueError):
            run_orientation_sweep(net, robot, gear, params, steps=0)


def test_sim_params_validation():
    with pytest.raises(ValueError):
        SimParams(omega_u=1.0, dt=0.0)
    with pytest.raises(ValueError):
        SimParams(omega_u=1.0, t_max=-1.0)
    with pytest.raises(ValueError):
        DisturbanceConfig(amplitude=1.5)
    with pytest.raises(ValueError):
        DisturbanceConfig(seed=-1)
    assert SimParams(omega_u=1.0, theta_deg=120.0).theta_rad == pytest.approx(
        2.0 * math.pi / 3.0
    )


@pytest.mark.parametrize("theta_deg", [math.nan, math.inf, -math.inf])
def test_sim_params_rejects_a_non_finite_roll(theta_deg):
    # The roll reaches demanded_speeds and module_states only through SimParams.
    with pytest.raises(ValueError, match="theta_deg"):
        SimParams(omega_u=1.0, theta_deg=theta_deg)
