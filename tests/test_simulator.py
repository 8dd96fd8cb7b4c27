import math
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
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
    kinematics,
    module_path_radius,
    module_state,
    parse_scenario,
    render_trace,
    run,
    run_orientation_sweep,
    simulator,
)

from reference_stepper import reference_csv, reference_run

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
        for i in range(3):
            rho = module_path_radius(bend, params.theta_rad, i, net.spec.inner_radius)
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

    def test_each_segment_derives_its_demanded_speeds_once(self, reference_scenario):
        sc = reference_scenario
        real = kinematics.theoretical_speeds
        calls = []

        def counting(*args):
            calls.append(args[0])
            return real(*args)

        with mock.patch.object(simulator, "theoretical_speeds", counting), \
                mock.patch.object(kinematics, "theoretical_speeds", counting):
            run(sc.network, sc.robot, sc.gear, sc.sim)
        assert calls == list(sc.network.segments)


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
        # elbow after it, so the plan never looks at the last two segments.
        sc = reference_scenario
        robot = replace(sc.robot, max_compression=5.5)
        with mock.patch.object(simulator, "module_state", wraps=module_state) as counted:
            trace, summary = run(sc.network, robot, sc.gear, sc.sim)
        assert counted.call_count == 2
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
                module_state(sc.robot, net.spec, segment, sc.sim.theta_rad)
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
            max_size=6,
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
        assert render_trace(trace) == reference_csv(records)


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
