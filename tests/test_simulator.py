import itertools
import math
import sys
import tracemalloc
import warnings
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
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

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    @pytest.mark.parametrize("theta_deg", [-200.0, -120.0, -37.5, -1e15, -1e-20, -1e-14])
    def test_a_roll_and_the_same_roll_plus_360_run_alike(self, reference_scenario, theta_deg,
                                                          amplitude):
        # A reduction that keeps the sign (``math.fmod``) leaves -200 at
        # -200, whose module cosines differ from 160's in the last bit.
        sc = reference_scenario
        params = replace(sc.sim, disturbance_amplitude=amplitude, disturbance_seed=3)
        trace, summary = run(sc.network, sc.robot, sc.gear, replace(params, theta_deg=theta_deg))
        turned = theta_deg + 360.0
        expected = run(sc.network, sc.robot, sc.gear, replace(params, theta_deg=turned))
        assert (replace(trace, theta_deg=turned), replace(summary, theta_deg=turned)) == expected

    def test_determinism_bit_identical(self):
        net, robot, gear, params = small_setup(
            disturbance_amplitude=0.025, disturbance_seed=11
        )
        first, _ = run(net, robot, gear, params)
        second, _ = run(net, robot, gear, params)
        assert first == second
        assert first.__eq__(object()) is NotImplemented

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
        segments = summary.segments
        assert segments.index == (0, 1, 2)
        assert segments.entry_time[0] == 0.0
        assert segments.entry_time[1] == pytest.approx(100.0 / 50.0, abs=2 * params.dt)
        assert segments.exit_time[1] == pytest.approx(
            (100.0 + 100.0 * math.pi) / 50.0, abs=2 * params.dt
        )
        assert segments.exit_time[2] == summary.total_time


class TestTraceStorage:
    """A trace stores per record only what moves and gathers the columns
    that hold over a segment from its per-segment rows on each access."""

    @pytest.fixture(params=[0.0, 0.025])
    def trace(self, request, reference_scenario):
        sc = reference_scenario
        params = replace(sc.sim, theta_deg=120.0, disturbance_amplitude=request.param,
                         disturbance_seed=5)
        return run(sc.network, sc.robot, sc.gear, params)[0]

    def test_per_record_arrays_are_t_s_segment_distance_and_disturbed_speeds(self, trace):
        n = len(trace)
        stored = {f.name: getattr(trace, f.name) for f in fields(trace)}
        per_record = {name: value.nbytes for name, value in stored.items()
                      if isinstance(value, np.ndarray) and len(value) == n}
        disturbed = trace.v_disturbed is not None
        moving = {"t", "s", "segment", "distance"} | ({"v_disturbed"} if disturbed else set())
        assert set(per_record) == moving
        assert sum(per_record.values()) == n * (72 if disturbed else 48)
        assert trace.speeds.shape == trace.compressions.shape == (4, 3)

    def test_slip_is_the_gathered_difference_bit_for_bit(self, trace):
        expected = np.abs(trace.v - trace.v_theo)
        assert trace.slip.tobytes() == expected.tobytes()
        assert trace.slip.any() == (trace.v_disturbed is not None)

    def test_a_slice_gathers_the_rows_of_its_records(self, trace):
        joint = int(np.flatnonzero(np.diff(trace.segment))[0]) + 1
        piece = trace[joint - 3:joint + 4]
        assert piece.segment.tolist() == [0] * 3 + [1] * 4
        assert piece.speeds is trace.speeds and piece.compressions is trace.compressions
        for name in ("v", "v_theo", "compression", "slip", "distance"):
            np.testing.assert_array_equal(getattr(piece, name),
                                          getattr(trace, name)[joint - 3:joint + 4])
        assert list(piece) == list(trace)[joint - 3:joint + 4]
        # Its CSV rows, and a reversed and a stepped slice's, are the whole trace's.
        rows = render_trace(trace).splitlines()[1:]
        for key in (slice(joint - 3, joint + 4), slice(None, None, -1), slice(joint, None, 7)):
            assert render_trace(trace[key]).splitlines()[1:] == rows[key]

    @pytest.mark.parametrize("name", ["v", "v_theo", "compression", "slip"])
    def test_gathered_columns_are_read_only(self, trace, name):
        with pytest.raises(ValueError, match="read-only"):
            getattr(trace, name)[0, 0] = 1.0


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
        assert len(plan.speeds) == 0
        assert plan.error == (f"steps of {params.dt:g} s at nominal speed {v_nominal:g} mm/s "
                              f"form up to {records} records, more than memory can hold")

    def test_the_record_count_cut_falls_on_the_first_segment_past_it(self, reference_scenario):
        # 1e300 mm at 0.35 mm a step is about 2.9e300 records.
        sc = reference_scenario
        net = planar_network(sc.network.spec,
                             [("straight", 100.0), ("bend", 335.0, 90.0, 1), ("straight", 1e300)])
        plan = simulator._plan(net, sc.robot, sc.gear, sc.sim, 35.0)
        assert len(plan.speeds) == 2
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
        assert len(plan.speeds) == 1 - over
        assert (plan.error is None) == (over == 0)

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_a_segment_crossed_within_one_step_is_reported(self, reference_text, amplitude):
        # At dt = 0.5 s one 17.5 mm step crosses the 0.1 mm straight whole;
        # the disturbed run takes that step one record earlier.
        crossed = {0.0: 24.5, 0.025: 24.0}[amplitude]
        sc = parse_scenario(reference_text.replace("length = 350.0", "length = 0.1"))
        sim = replace(sc.sim, dt=0.5, disturbance_amplitude=amplitude, disturbance_seed=7)
        trace, summary = run(sc.network, sc.robot, sc.gear, sim)
        assert summary.completed and 2 not in trace.segment
        segments = summary.segments
        assert segments.index == (0, 1, 2, 3)
        assert segments.exit_time[0] == segments.entry_time[1]
        assert (segments.exit_time[1], segments.entry_time[2], segments.exit_time[2],
                segments.entry_time[3]) == (crossed,) * 4
        assert [ape[2] for ape in segments.ape] == [None, None, None]
        for speeds in (segments.mean_speeds, segments.min_speeds, segments.max_speeds):
            assert [track[2] for track in speeds] == [35.0, 35.0, 35.0]
        assert segments.max_compression[2] == 5.0
        assert summary.max_compression == max(segments.max_compression)

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


class TestSplitSegment:
    """Cutting a segment in two, a straight at any point or a bend into two
    bends of its radius and normal, moves only the records' segment: a
    segment's speeds depend only on its radius and the roll."""

    # (segment of the reference, the lengths or sweeps of its two parts)
    SPLITS = [(0, (157.5, 157.5)), (0, (100.0, 215.0)), (1, (45.0, 45.0)), (1, (30.0, 60.0)),
              (3, (90.0, 90.0))]

    @pytest.mark.parametrize("theta_deg", [0.0, 37.5, 120.0])
    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_the_records_and_totals_are_unchanged(self, reference_scenario, amplitude, theta_deg):
        # The segment windows move with a cut, so the means and APE may not.
        sc = reference_scenario
        params = replace(sc.sim, theta_deg=theta_deg, disturbance_amplitude=amplitude,
                         disturbance_seed=3)
        whole, summary = run(sc.network, sc.robot, sc.gear, params)
        for k, parts in self.SPLITS:
            segments = list(sc.network.segments)
            cut = "length" if isinstance(segments[k], Straight) else "sweep_deg"
            segments[k:k + 1] = [replace(segments[k], **{cut: part}) for part in parts]
            net = PipeNetwork(sc.network.spec, tuple(segments), sc.network.start_tangent)
            split, split_summary = run(net, sc.robot, sc.gear, params)
            for name in ("t", "s", "distance", "v", "v_theo", "compression", "slip"):
                assert np.array_equal(getattr(split, name), getattr(whole, name)), (k, parts, name)
            assert np.array_equal(split.segment - (split.segment > k), whole.segment)
            for name in ("total_time", "max_slip", "completed"):
                assert getattr(split_summary, name) == getattr(summary, name), (k, parts, name)
            assert ([t.distance for t in split_summary.tracks]
                    == [t.distance for t in summary.tracks]), (k, parts)


class TestExtendNetwork:
    """A run that ``t_max`` stops inside a network is the same on that
    network followed by more segments: the segments not reached change
    neither a record nor a total, only the network's length and the robot
    path it gives."""

    EXTENSIONS = [
        (Straight(100.0),),
        (Straight(100.0), Bend(300.0, 45.0, (0.0, 1.0, 0.0))),
        (Bend(300.0, 90.0, (0.0, 1.0, 0.0)), Straight(1e4)),
    ]

    # (extension, theta_deg, amplitude, dt, t_max), each stopping inside the
    # reference, whose run takes 60.07 s.
    @pytest.mark.parametrize("extension, theta_deg, amplitude, dt, t_max", [
        (0, 0.0, 0.0, 0.01, 3.0), (1, 37.5, 0.025, 0.5, 17.3), (2, 120.0, 0.3, 1e-3, 29.0),
        (0, 120.0, 0.025, 0.01, 33.99), (1, 0.0, 0.3, 0.01, 29.0), (2, 37.5, 0.0, 0.5, 33.99),
        (0, 37.5, 0.3, 1e-3, 17.3), (2, 0.0, 0.025, 0.01, 3.0),
    ])
    def test_the_run_is_unchanged(self, reference_scenario, extension, theta_deg, amplitude,
                                  dt, t_max):
        sc = reference_scenario
        net = sc.network
        longer = PipeNetwork(net.spec, net.segments + self.EXTENSIONS[extension],
                             net.start_tangent)
        assert longer.violations == ()
        params = replace(sc.sim, theta_deg=theta_deg, disturbance_amplitude=amplitude,
                         disturbance_seed=3, dt=dt, t_max=t_max)
        trace, summary = run(net, sc.robot, sc.gear, params)
        longer_trace, longer_summary = run(longer, sc.robot, sc.gear, params)
        assert not summary.completed and summary.stop_reason
        assert longer_trace == trace
        assert longer_summary.total_length > summary.total_length
        assert replace(longer_summary, total_length=summary.total_length,
                       effective_path=summary.effective_path) == summary


class TestRotateNetwork:
    """Rotating the whole network, its start tangent and every bend normal,
    about one axis changes no run: a segment's speeds depend only on its
    radius and the roll, and the walk resolves the rotated straights."""

    AXIS = (1.0 / math.sqrt(3.0),) * 3

    @staticmethod
    def rotated(v, k, angle):
        # Rodrigues' formula, right-hand rule, about the unit ``k``.
        c, s = math.cos(angle), math.sin(angle)
        cross = (k[1] * v[2] - k[2] * v[1], k[2] * v[0] - k[0] * v[2], k[0] * v[1] - k[1] * v[0])
        dot = k[0] * v[0] + k[1] * v[1] + k[2] * v[2]
        return tuple(v[i] * c + cross[i] * s + k[i] * dot * (1.0 - c) for i in range(3))

    @pytest.mark.parametrize("angle", [0.3, 1.9, -2.7])
    def test_the_run_is_unchanged(self, reference_scenario, angle):
        sc = reference_scenario
        net = sc.network
        segments = tuple(Straight(seg.length) if isinstance(seg, Straight)
                         else replace(seg, normal=self.rotated(seg.normal, self.AXIS, angle))
                         for seg in net.segments)
        turned = PipeNetwork(net.spec, segments, self.rotated(net.start_tangent, self.AXIS, angle))
        assert turned.violations == ()
        for seg, original in zip(turned.segments, net.segments):
            if isinstance(seg, Straight):
                expected = self.rotated(original.axis, self.AXIS, angle)
                assert seg.axis == pytest.approx(expected, rel=0.0, abs=1e-15)
        for amplitude in (0.0, 0.025):
            for theta_deg in (0.0, 37.5, 120.0):
                params = replace(sc.sim, theta_deg=theta_deg, disturbance_amplitude=amplitude,
                                 disturbance_seed=3)
                assert (run(turned, sc.robot, sc.gear, params)
                        == run(net, sc.robot, sc.gear, params)), (amplitude, theta_deg)


# Straights of whole eighths of a millimetre, whose parts, when cut at an
# eighth, sum to them exactly, and bends: with a 45 deg tilt limit the robot
# fits those of radius 45 mm or more, and stops at the first that it does not.
DYADIC_PIECES = st.lists(
    st.one_of(
        st.tuples(st.just("straight"), st.integers(2, 1200).map(lambda k: k / 8.0)),
        st.tuples(st.just("bend"), st.floats(14.0, 400.0), st.floats(0.5, 180.0),
                  st.sampled_from((1, -1))),
    ),
    min_size=1,
    max_size=12,
)


class TestRelationsOnDrawnChains:
    """``TestSplitSegment``'s and ``TestRotateNetwork``'s relations over
    drawn planar chains, which need no oracle."""

    @settings(max_examples=40, deadline=None)
    @given(
        pieces=DYADIC_PIECES,
        data=st.data(),
        dt=st.one_of(st.floats(0.05, 2.0), st.sampled_from((0.1, 0.2, 0.5))),
        theta_deg=st.floats(0.0, 360.0),
        amplitude=st.one_of(st.just(0.0), st.floats(0.0, 0.5, exclude_min=True, exclude_max=True)),
        seed=st.integers(0, 2**32),
    )
    def test_splitting_a_segment_moves_only_the_segment_index(
        self, reference_scenario, pieces, data, dt, theta_deg, amplitude, seed
    ):
        sc = reference_scenario
        robot = replace(sc.robot, max_tilt_deg=45.0)
        net = planar_network(sc.network.spec, pieces)
        k = data.draw(st.integers(0, len(pieces) - 1), label="cut segment")
        segments = list(net.segments)
        if isinstance(segments[k], Straight):
            # A cut at whole eighths: both parts and their sum are exact.
            eighths = int(segments[k].length * 8)
            cut = data.draw(st.integers(1, eighths - 1), label="cut eighths") / 8.0
            parts = [replace(segments[k], length=length)
                     for length in (cut, segments[k].length - cut)]
        else:
            # Half the sweep: R * radians(sweep / 2) is half the arc, exactly.
            parts = [replace(segments[k], sweep_deg=segments[k].sweep_deg / 2.0)] * 2
        segments[k:k + 1] = parts
        split = PipeNetwork(net.spec, tuple(segments), net.start_tangent)
        # Summing in another order may move a joint's last bit.
        assume(np.array_equal(np.delete(split.starts, k + 1), net.starts))
        assume(split.total_length == net.total_length)
        params = replace(sc.sim, dt=dt, theta_deg=theta_deg, disturbance_amplitude=amplitude,
                         disturbance_seed=seed)
        whole, summary = run(net, robot, sc.gear, params)
        parted, parted_summary = run(split, robot, sc.gear, params)
        event(f"completed: {summary.completed}")
        for name in ("t", "s", "distance", "v", "v_theo", "compression", "slip"):
            assert np.array_equal(getattr(parted, name), getattr(whole, name)), name
        assert np.array_equal(parted.segment - (parted.segment > k), whole.segment)
        for name in ("total_time", "max_slip", "completed"):
            assert getattr(parted_summary, name) == getattr(summary, name), name
        assert [t.distance for t in parted_summary.tracks] == [t.distance for t in summary.tracks]

    @settings(max_examples=40, deadline=None)
    @given(
        pieces=DYADIC_PIECES,
        z=st.floats(-1.0, 1.0),
        azimuth=st.floats(-math.pi, math.pi),
        angle=st.floats(-math.pi, math.pi, exclude_min=True, exclude_max=True),
    )
    def test_rotating_the_network_changes_no_run(self, reference_scenario, pieces, z, azimuth,
                                                 angle):
        sc = reference_scenario
        robot = replace(sc.robot, max_tilt_deg=45.0)
        rho = math.sqrt(1.0 - z * z)
        axis = (rho * math.cos(azimuth), rho * math.sin(azimuth), z)
        # Straights given no axis, for the walk to resolve.
        segments = tuple(Straight(seg.length) if isinstance(seg, Straight) else seg
                         for seg in planar_network(sc.network.spec, pieces).segments)
        net = PipeNetwork(sc.network.spec, segments, Z)
        turned = PipeNetwork(net.spec, tuple(
            seg if isinstance(seg, Straight)
            else replace(seg, normal=TestRotateNetwork.rotated(seg.normal, axis, angle))
            for seg in segments), TestRotateNetwork.rotated(Z, axis, angle))
        assume(net.violations == () and turned.violations == ())
        for amplitude in (0.0, 0.025):
            params = replace(sc.sim, disturbance_amplitude=amplitude, disturbance_seed=3)
            assert (run(turned, robot, sc.gear, params)
                    == run(net, robot, sc.gear, params)), amplitude


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
                         disturbance_amplitude=amplitude, disturbance_seed=seed)
        # Small blocks split segments and refill the draw buffer mid-segment.
        with mock.patch.object(simulator, "BLOCK_ROWS", block_rows):
            trace, summary = run(net, sc.robot, sc.gear, params)
        records, expected = reference_run(net, sc.robot, sc.gear, params)
        assert list(trace) == records
        assert summary == expected
        # Lines, so that a mismatch reports its first differing row at once.
        assert render_trace(trace).split("\n") == reference_csv(records).split("\n")

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_the_summary_hashes_as_the_tick_stepper_s(self, reference_scenario, amplitude):
        # A summary is frozen and built of tuples: equal summaries hash alike.
        sc = reference_scenario
        params = replace(sc.sim, disturbance_amplitude=amplitude, disturbance_seed=7)
        _, summary = run(sc.network, sc.robot, sc.gear, params)
        _, expected = reference_run(sc.network, sc.robot, sc.gear, params)
        assert summary == expected and hash(summary) == hash(expected)


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
                         disturbance_amplitude=amplitude, disturbance_seed=seed)
        with mock.patch.object(simulator, "BLOCK_ROWS", block_rows):
            trace, summary = run(net, robot, sc.gear, params)
        event(f"segments entered: {len(summary.segments.index)}")
        assert summary.completed and len(summary.segments.index) == len(pieces)
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

    PLAN_COLUMNS = ("speeds", "means", "compressions", "max_tilt_deg")

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
                         disturbance_amplitude=amplitude, disturbance_seed=0)
        v_nominal = ratio * omega_u * sprocket_radius
        # ``run`` refuses these before it plans.
        assume(math.isfinite(v_nominal) and v_nominal > 0.0 and not net.violations)
        event(f"cut: {self.check(net, robot, gear, params)[1]}")

    def check(self, net, robot, gear, params):
        """``_plan`` and the rule that cut ``reference_plan``, having matched them."""
        v_nominal = gear.ratio * params.omega_u * robot.sprocket_radius
        plan = simulator._plan(net, robot, gear, params, v_nominal)
        expected, rule = reference_plan(net, robot, gear, params)
        assert plan.error == expected.error
        for name in self.PLAN_COLUMNS:
            column, reference = getattr(plan, name), getattr(expected, name)
            assert column.shape == reference.shape, name
            assert column.tobytes() == reference.tobytes(), name
        return plan, rule

    def test_the_budget_cut_keeps_no_segment(self, reference_scenario):
        # A nominal speed of 2.1e-320 mm/s keeps too few bits for the demands
        # over a 1e-320 mm sprocket to meet the differential's budget.
        sc = reference_scenario
        robot = replace(sc.robot, sprocket_radius=1e-320)
        plan, rule = self.check(sc.network, robot, sc.gear, replace(sc.sim, omega_u=2.1))
        assert rule == "budget" and len(plan.speeds) == 0
        assert plan.error == ("imposed speeds sum to 6.29941 rad/s but the train requires "
                              "6.3 rad/s (3 * ratio * omega_u)")

    def test_the_demand_range_cut_fires_where_only_the_budget_plus_the_demands_overflows(self):
        # The budget 3 * omega_u and the demands' sum are each 1.2e308, finite,
        # and the budget check passes; only their sum leaves the float range.
        # Without this cut the record-range rule would name the row instead.
        net = PipeNetwork(PipeSpec(inner_radius=13.2), (Straight(100.0, Z),))
        robot = RobotConfig(sprocket_radius=1.0, length=10.0, nominal_body_radius=13.2,
                            preload_compression=1.0)
        plan, rule = self.check(net, robot, GearTrainConfig(), SimParams(omega_u=4e307))
        assert rule == "demand range" and len(plan.speeds) == 0
        assert plan.error == "track speeds exceed the float range at nominal speed 4e+307 mm/s"


class TestSummaryEdges:
    """The fold works on per-segment columns; these runs reach the edges of
    that layout, each against the tick-by-tick reference."""

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
        assert len(trace) == 0 and summary.segments.index == ()
        assert summary.error == "robot length 61 mm cannot chord a bend of radius 20 mm"
        assert summary.total_time == 0.0 and summary.max_compression == 0.0
        assert all(track.max_ape is None for track in summary.tracks)

    def test_t_max_stop_inside_a_segment_window(self, reference_scenario):
        # The first straight's window spans 0.9 s to 8.1 s at 35 mm/s.
        sc = reference_scenario
        params = replace(sc.sim, t_max=5.0, disturbance_amplitude=0.025, disturbance_seed=7)
        trace, summary = self.check(sc.network, sc.robot, sc.gear, params)
        assert summary.stop_reason == "t_max" and summary.segments.index == (0,)
        assert 31.5 < trace.s[-1] < 283.5
        assert summary.segments.exit_time[0] == trace.t[-1] == 5.0

    @pytest.mark.parametrize("t_max, records", [(5e-12, 501), (1e-12, 101)])
    def test_t_max_tolerance_is_relative(self, t_max, records):
        # An absolute 1e-12 s tolerance stopped these at 401 records and at 1.
        net, robot, gear, params = small_setup(dt=1e-14, t_max=t_max)
        trace, summary = self.check(net, robot, gear, params)
        assert len(trace) == records and summary.stop_reason == "t_max"
        assert trace.t[-1] == pytest.approx(t_max, rel=1e-12)

    def test_a_last_record_at_the_stop_time_stops_the_run_at_t_max(self):
        # The stop time t_max * (1 - 1e-12) rounds to exactly 1.0 s, the time
        # of the 101st record at dt = 0.01 s.
        net, robot, gear, params = small_setup(t_max=1.000000000001)
        assert params.t_max * (1.0 - 1e-12) == 100 * params.dt == 1.0
        trace, summary = self.check(net, robot, gear, params)
        assert len(trace) == 101 and trace.t[-1] == 1.0
        assert summary.stop_reason == "t_max" and summary.error is None

    def test_a_mean_track_speed_that_rounds_to_zero_stalls_the_run(self):
        # A nominal speed of the smallest subnormal, disturbed by up to 90 %:
        # the 5th record's three speeds sum to one subnormal, whose third
        # rounds to a mean of 0.
        net = PipeNetwork(PipeSpec(inner_radius=13.2), (Straight(100.0, Z),))
        robot = RobotConfig(sprocket_radius=1.0, length=10.0, nominal_body_radius=13.2,
                            preload_compression=1.0)
        params = SimParams(omega_u=5e-324, dt=1e300, t_max=1e303,
                           disturbance_amplitude=0.9, disturbance_seed=0)
        trace, summary = self.check(net, robot, GearTrainConfig(), params)
        assert len(trace) == 5 and not summary.completed and summary.stop_reason is None
        assert summary.error == "stalled: mean track speed 0 mm/s is not positive"

    def test_a_disturbed_track_whose_demand_is_zero_has_no_ape(self):
        # The smallest subnormal nominal speed: in a 14 mm bend of a 13.2 mm
        # pipe track A's path radius is 0.8 mm, and its demand rounds to 0.
        net = PipeNetwork(PipeSpec(inner_radius=13.2), (Bend(14.0, 90.0, Y),))
        robot = RobotConfig(sprocket_radius=1.0, length=10.0, nominal_body_radius=13.2,
                            preload_compression=1.0, max_tilt_deg=45.0)
        params = SimParams(omega_u=5e-324, dt=1e300, t_max=1e303,
                           disturbance_amplitude=0.5, disturbance_seed=0)
        trace, summary = self.check(net, robot, GearTrainConfig(), params)
        assert len(trace) == 1001 and summary.stop_reason == "t_max"
        assert trace.speeds[0, 0] == 0.0 and trace.speeds[0, 1:].all()
        assert summary.segments.ape[0] == (None,)
        assert summary.tracks[0].max_ape is None
        assert all(track.max_ape > 0.0 for track in summary.tracks[1:])

    def test_a_segment_whose_window_holds_no_record_averages_all_of_them(
        self, reference_scenario
    ):
        # The 0.4 mm straight holds two records, 0.019 mm and 0.365 mm past
        # its start: both outside its window of 0.04 mm to 0.36 mm.
        sc = reference_scenario
        net = planar_network(sc.network.spec,
                             [("straight", 30.06), ("straight", 0.4), ("bend", 335.0, 90.0, 1)])
        params = replace(sc.sim, disturbance_amplitude=0.025, disturbance_seed=15)
        trace, summary = self.check(net, sc.robot, sc.gear, params)
        offsets = trace.s[trace.segment == 1] - net.starts[1]
        assert len(offsets) == 2
        assert not ((0.04 <= offsets) & (offsets <= 0.36)).any()
        v = trace.v[trace.segment == 1]
        means = [track[1] for track in summary.segments.mean_speeds]
        assert means == ((v[0] + v[1]) / 2.0).tolist()
        assert all(ape[1] is not None for ape in summary.segments.ape)

    @pytest.mark.parametrize("block_rows", [3, 7])
    def test_disturbed_run_in_small_blocks(self, reference_scenario, block_rows):
        sc = reference_scenario
        params = replace(sc.sim, dt=0.05, disturbance_amplitude=0.025, disturbance_seed=7)
        with mock.patch.object(simulator, "BLOCK_ROWS", block_rows):
            _, summary = self.check(sc.network, sc.robot, sc.gear, params)
        assert summary.completed and len(summary.segments.index) == 4


class TestStepBlock:
    # Two planned segments whose mean speeds differ, 10 and 20 mm/s, joined
    # at 100 mm; a block of 20 records of 0.1 s starts 3.5 steps before the joint.
    PLAN = simulator._Plan(
        speeds=np.array([[9.0, 10.0, 11.0], [18.0, 20.0, 22.0]]), means=np.array([10.0, 20.0]),
        compressions=np.zeros((2, 3)), max_tilt_deg=np.zeros(2), error=None,
    )
    STARTS = np.array([0.0, 100.0, math.inf])

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_the_guess_settles_on_the_located_segments(self, amplitude):
        draws = np.random.default_rng(5).uniform(-1.0, 1.0, (20, 3)) if amplitude else None
        guess, located, means, v, positions, _ = simulator._step_block(
            self.PLAN, self.STARTS, 0, 96.5, np.zeros(3), 20, 0.1, amplitude, draws
        )
        assert np.array_equal(guess, located)
        assert np.array_equal(located, np.searchsorted(self.STARTS, positions[:-1], "right") - 1)
        assert located.tolist() == [0] * 4 + [1] * 16
        # Every record steps at its own segment's speeds, those past the joint too.
        speeds = self.PLAN.speeds[located]
        expected = speeds if draws is None else speeds * (1.0 + amplitude * draws)
        assert np.array_equal(v, expected)
        assert np.array_equal(positions[1:] - positions[:-1] > 1.5, located == 1)


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
                         disturbance_amplitude=amplitude, disturbance_seed=3)
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


def _guarded(column):
    """Whether ``_window_sums``' guard takes ``column`` value by value, not in limbs."""
    with mock.patch.object(simulator, "accumulate", wraps=itertools.accumulate) as guard:
        simulator._window_sums(column, np.zeros(1, np.intp), np.full(1, len(column), np.intp))
    return guard.called


def _rounded_bits(sums):
    """The bits of each exact sum of ``_window_sums`` rounded, as the summary rounds it."""
    return np.array([total / simulator._UNIT for total in sums]).view(np.int64).tolist()


def _fsum_bits(windows):
    """The bits of ``math.fsum`` of each window.  An integer sum has no sign of
    zero, so a window of only ``-0.0`` sums to ``+0.0``; ``+ 0.0`` does the
    same to the ``math.fsum``.  The fold never meets ``-0.0``: its speeds are
    ``demand * (1 + amplitude * u)``, a demand of at least +0 times a positive
    factor, and its APE terms are at least +0."""
    return np.array([math.fsum(window) + 0.0 for window in windows]).view(np.int64).tolist()


class TestWindowSums:
    """``_window_sums`` is exact: each window's integer is the window's sum in
    units of 2**-1126, and rounded it is ``math.fsum`` of the window, bit for bit."""

    @staticmethod
    def check(column, windows):
        """Check the sums ``_window_sums`` gives over ``windows``; return
        whether it took the column in limbs, not under its guard."""
        lo, hi = np.array(windows, dtype=np.intp).T
        exact = not _guarded(column)
        sums = simulator._window_sums(column, lo, hi)
        assert len(sums) == len(windows) and all(type(total) is int for total in sums)
        values = column.tolist()
        prefix = [0, *itertools.accumulate(map(Fraction, values))]
        for total, (a, b) in zip(sums, windows):
            assert Fraction(total, 2**1126) == prefix[b] - prefix[a]
        assert _rounded_bits(sums) == _fsum_bits(values[a:b] for a, b in windows)
        return exact

    @settings(max_examples=600, deadline=None)
    @given(data=st.data(), drawn=_columns())
    def test_each_window_is_math_fsum_bit_for_bit(self, data, drawn):
        column, kind = drawn
        n = len(column)
        bound = st.integers(0, n)
        windows = data.draw(st.lists(st.tuples(bound, bound).map(sorted).map(tuple), max_size=6)
                            .map(lambda w: w + [(0, n), (n, n), (0, 0)]))
        exact = self.check(column, windows)
        event(f"{kind}: {'numpy' if exact else 'guard'}")
        if kind == "three limbs":
            assert exact
        if kind == "four limbs" and n >= 2:
            assert not exact
        if not exact:  # and the fold of a guarded column
            TestFoldedSums().check_whole_and_cut(column)

    @pytest.mark.parametrize("column, exact", [
        (np.full(5, 35.0), True),
        (np.array([1e300, 1e-300, 2.0]), False),  # about 2,000 bits apart
        (np.array([5e-324, 3e-310, 0.0]), False),  # subnormal
        (np.array([1e-300, 1e-300]), False),  # limbs below 2**-1022
        # Limb sums past the float range: integers hold them, and the sum rounds in range.
        (np.array([8e307, 8e307]), True),
    ])
    def test_the_guard_takes_what_the_limbs_cannot_hold(self, column, exact):
        assert self.check(column, [(0, len(column)), (1, 1), (0, 1)]) == exact
        # The demand is the column's top, which keeps the percent errors
        # of 8e307 in the float range.
        TestFoldedSums().check_whole_and_cut(column, float(np.abs(column).max()))

    # The fold never meets a non-finite value: the plan cuts the run before
    # the first segment whose speeds, percent errors or sums over its records
    # would leave the float range (``_plan``).  A non-finite float has no exact
    # sum, and ``float.as_integer_ratio`` says so.
    @pytest.mark.parametrize("column, error", [
        (np.array([1.0, math.inf]), OverflowError),
        (np.array([1.0, math.nan]), ValueError),
    ])
    def test_a_non_finite_value_has_no_exact_sum(self, column, error):
        with pytest.raises(error):
            simulator._window_sums(column, np.zeros(1, np.intp), np.full(1, 2, np.intp))

    @pytest.mark.parametrize("amplitude", [0.025, 0.9])
    def test_disturbed_reference_summary_matches_the_tick_stepper(self, reference_scenario,
                                                                   amplitude):
        # The tick stepper's summary takes each mean with ``math.fsum``;
        # the reference scenario sets no ``t_max``.
        sc = reference_scenario
        params = replace(sc.sim, disturbance_amplitude=amplitude, disturbance_seed=5)
        assert params.t_max is None
        trace, summary = run(sc.network, sc.robot, sc.gear, params)
        records, expected = reference_run(sc.network, sc.robot, sc.gear, params)
        assert summary.completed and list(trace) == records
        assert repr(summary) == repr(expected)


def _fold_blocks(column, segment, offsets, cuts, demand=35.0):
    """A ``_Fold`` of three tracks' speeds, ``column`` and two rearrangements
    of it, at records of ``segment`` placed ``offsets`` into 10 mm straights
    that demand ``demand``, cut into blocks at the rows ``cuts``; and the
    disturbed speeds."""
    m = int(segment.max()) + 1
    net = PipeNetwork(PipeSpec(inner_radius=13.2), (Straight(10.0, Z),) * m)
    speeds = np.full((m, 3), demand)
    plan = simulator._Plan(speeds, np.full(m, demand), np.zeros((m, 3)), np.zeros(m), None)
    fold = simulator._Fold(net, None, SimParams(omega_u=1.0, disturbance_amplitude=0.5), plan)
    v = np.stack((column, column[::-1], np.roll(column, 1)), axis=1)
    n = len(column)
    for a, b in itertools.pairwise((0, *cuts, n)):
        fold.add(simulator.Trace(np.arange(a, b) * 0.1, (net.starts[segment] + offsets)[a:b],
                                 segment[a:b], 0.0, np.zeros((b - a, 3)), speeds,
                                 np.zeros((m, 3)), v[a:b]))
    return fold, v


# Six distinct speeds within 2.5 % of 35 mm/s, which the limbs hold.
_SPEEDS = np.array([34.5, 35.25, 35.5, 34.75, 35.875, 34.125])


@st.composite
def _cut_columns(draw):
    """``(column, segment, offsets, cuts)`` for ``_fold_blocks``: a column of
    runs of speeds, which ``_window_sums`` takes in limbs, and of values that
    its guard takes, subnormals or more than three limbs apart."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    parts = []
    for kind in draw(st.lists(st.sampled_from(("speeds", "subnormals", "four limbs")),
                              min_size=1, max_size=4)):
        size = draw(st.integers(1, 12))
        if kind == "speeds":
            parts.append(35.0 * (1.0 + 0.025 * rng.uniform(-1.0, 1.0, size)))
        elif kind == "subnormals":
            parts.append(np.where(rng.uniform(size=size) < 0.5, rng.integers(1, 99, size) * 5e-324,
                                  rng.uniform(30.0, 40.0, size)))
        else:
            parts.append(np.ldexp(rng.uniform(0.5, 1.0, size), rng.integers(-200, 8, size)))
    column = np.concatenate(parts)
    n = len(column)
    segment = np.sort(rng.integers(0, draw(st.integers(1, 4)), n))
    # Window edges (1 and 9 mm) among the offsets: a record on an edge is in.
    offsets = rng.choice([0.0, 0.5, 1.0, 5.0, 9.0, 9.5], n)
    for index in range(segment[-1] + 1):
        offsets[segment == index] = np.sort(offsets[segment == index])
    cuts = sorted(set(draw(st.lists(st.integers(1, max(n - 1, 1)), max_size=6))) - {n})
    return column, segment, offsets, cuts


class TestFoldedSums:
    """A column cut into blocks anywhere and folded gives each segment's sum
    per track bit for bit as ``math.fsum`` of its window's records, or of all
    of its records when the window holds none, the blocks that the limbs hold
    and those that the guard takes alike."""

    def check(self, column, segment, offsets, cuts, demand=35.0):
        fold, v = _fold_blocks(column, segment, offsets, cuts, demand)
        terms = np.abs(v - demand) * 100.0 / demand
        # By column (the speeds, then the APE terms), track, segment.
        assert fold.sums.shape == (2, 3, int(segment.max()) + 1)
        sums = np.reshape(_rounded_bits(fold.sums.ravel()), fold.sums.shape)
        expected = np.zeros_like(sums)
        for index in range(sums.shape[2]):
            mine = segment == index
            window = mine & (1.0 <= offsets) & (offsets <= 9.0)
            rows = window if window.any() else mine
            expected[:, :, index] = np.reshape(
                _fsum_bits(c[rows].tolist() for c in (*v.T, *terms.T)), (2, 3))
            assert fold.counts[index] == mine.sum() and fold.windows[index] == window.sum()
        assert sums.tolist() == expected.tolist()

    def check_whole_and_cut(self, column, demand=35.0):
        """``check`` of one segment's records, a third of them before its
        window and a third after, in one block and cut into two."""
        n = len(column)
        offsets = np.sort(np.resize([0.5, 5.0, 9.5], n))
        for cuts in ([], [n // 2])[:n]:
            self.check(column, np.zeros(n, int), offsets, cuts, demand)

    @settings(max_examples=300, deadline=None)
    @given(drawn=_cut_columns())
    # One segment's records before its window in one block, its window's
    # first records in the next: those replace the whole segment's sum.
    @example(drawn=(_SPEEDS, np.zeros(6, int), np.array([0.5, 0.5, 1.0, 5.0, 9.0, 9.5]), [2]))
    # Its window's records, then records past the window in a later block.
    @example(drawn=(_SPEEDS, np.zeros(6, int), np.array([1.0, 5.0, 5.0, 9.5, 9.5, 9.5]), [3]))
    # A window that holds no record, its segment cut across three blocks,
    # the last of which starts the next segment's window.
    @example(drawn=(_SPEEDS, np.array([0, 0, 0, 0, 0, 1]), np.array([0.0, 0.5, 0.5, 9.5, 9.5, 5.0]),
                    [2, 4]))
    def test_each_sum_is_math_fsum_bit_for_bit(self, drawn):
        guarded = [_guarded(part) for part in np.split(drawn[0], drawn[3])]
        event(f"blocks: {'guarded and limbs' if len(set(guarded)) > 1 else guarded[0]}")
        self.check(*drawn)

    def test_a_window_split_across_a_guarded_and_an_unguarded_block(self):
        # One segment's 8 records, all in its window: the first block's
        # values take the limbs, the second holds a subnormal.
        column = np.array([35.0, 35.5, 34.25, 36.0, 5e-324, 35.0, 1e-300, 34.0])
        guards = [_guarded(part) for part in np.split(column, [3])]
        assert guards == [False, True]
        self.check(column, np.zeros(8, int), np.full(8, 5.0), [3])


class TestUndisturbedSummary:
    """An undisturbed window holds ``count`` records at one demand, so the
    fold takes its ``math.fsum`` as the product ``count * demand`` and forms
    no per-record column."""

    @settings(max_examples=300, deadline=None)
    @given(drawn=st.integers(1, 10**5).flatmap(lambda count: st.tuples(st.just(count), st.one_of(
        st.floats(0.0, sys.float_info.max / count),
        st.floats(0.0, 2.0 ** -1000),  # subnormals among them
        st.floats(sys.float_info.max / count / 2.0, sys.float_info.max / count),
    ))))
    @example(drawn=(10**5, 5e-324))
    def test_count_times_value_is_math_fsum_of_its_copies(self, drawn):
        count, value = drawn
        assume(math.isfinite(float(count) * value))
        expected = math.fsum(itertools.repeat(value, count))
        assert (float(count) * value).hex() == expected.hex()

    @pytest.mark.parametrize("amplitude, called", [(0.0, False), (0.025, True)])
    def test_only_a_disturbed_run_sums_windows_record_by_record(self, reference_scenario,
                                                                amplitude, called):
        sc = reference_scenario
        params = replace(sc.sim, disturbance_amplitude=amplitude, disturbance_seed=3)
        with mock.patch.object(simulator, "_window_sums", wraps=simulator._window_sums) as spy:
            _, summary = run(sc.network, sc.robot, sc.gear, params)
        assert summary.completed and spy.called == called

    def test_an_undisturbed_summary_allocates_nothing_per_record(self, reference_scenario):
        # At dt = 1e-4 the reference forms 600,653 records in blocks of up to
        # 4,094, and gathering one (n, 3) column of a block takes 98 KB.
        # Folding a block allocates a few arrays of one entry per segment.
        sc = reference_scenario
        add, peaks = simulator._Fold.add, []

        def measured(fold, block):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            add(fold, block)
            peaks.append(tracemalloc.get_traced_memory()[1] - held)

        tracemalloc.start()
        try:
            with mock.patch.object(simulator._Fold, "add", measured):
                trace, summary = run(sc.network, sc.robot, sc.gear, replace(sc.sim, dt=1e-4))
        finally:
            tracemalloc.stop()
        assert len(trace) == 600_653 and summary.completed and len(peaks) > 100
        assert max(peaks) < 4 * 1024


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
        summaries = run_orientation_sweep(net, robot, gear, params, steps=4)
        assert [summary.theta_deg for summary in summaries] == [0.0, 90.0, 180.0, 270.0]
        for summary in summaries:
            assert summary.completed
            for speeds in zip(*summary.segments.mean_speeds):
                assert math.fsum(speeds) / 3.0 == pytest.approx(nominal, rel=1e-9)

    def test_per_orientation_seeds_differ(self):
        net, robot, gear, params = small_setup(
            disturbance_amplitude=0.02, disturbance_seed=5
        )
        summaries = run_orientation_sweep(net, robot, gear, params, steps=2)
        seeds = [summary.disturbance_seed for summary in summaries]
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
    with pytest.raises(ValueError, match="omega_u must be finite"):
        SimParams(omega_u=math.inf)
    with pytest.raises(ValueError, match="disturbance amplitude must be in"):
        SimParams(omega_u=1.0, disturbance_amplitude=1.5)
    with pytest.raises(ValueError, match="disturbance seed must be non-negative"):
        SimParams(omega_u=1.0, disturbance_seed=-1)
    assert SimParams(omega_u=1.0, theta_deg=120.0).theta_rad == pytest.approx(
        2.0 * math.pi / 3.0
    )


@pytest.mark.parametrize("seed", [1.5, 3.0, "3", True, False, None])
def test_sim_params_rejects_a_seed_that_is_not_an_int(seed):
    # Each would reach the disturbance stream's key, or the report, as something else.
    with pytest.raises(ValueError, match="disturbance seed must be an int"):
        SimParams(omega_u=1.0, disturbance_amplitude=0.025, disturbance_seed=seed)


@pytest.mark.parametrize("theta_deg", [math.nan, math.inf, -math.inf])
def test_sim_params_rejects_a_non_finite_roll(theta_deg):
    # The roll reaches demanded_speeds and module_states only through SimParams.
    with pytest.raises(ValueError, match="theta_deg"):
        SimParams(omega_u=1.0, theta_deg=theta_deg)
