import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    Straight,
    run,
    simulator,
)
from pipediff.geometry import module_cosines
from pipediff.kinematics import demanded_speeds

from reference_stepper import reference_demands, reference_draw, reference_key

Y = (0.0, 1.0, 0.0)
BEND = Bend(radius=200.0, sweep_deg=90.0, normal=Y)
STRAIGHT = Straight(length=100.0, axis=(0.0, 0.0, 1.0))


def speeds(segment, theta, v_nominal, contact_radius):
    """The ``demanded_speeds`` row of one segment, as a tuple."""
    return tuple(demanded_speeds([segment.radius], theta, v_nominal, contact_radius)[0].tolist())


class TestDemandedSpeeds:
    def test_straight_is_uniform(self):
        assert speeds(STRAIGHT, 0.3, 50.0, 40.0) == (50.0, 50.0, 50.0)

    def test_bend_nearest_module_slows(self):
        # oracle: rho = (160, 220, 220) scaled by v/R = 50/200
        rhos = [BEND.radius - 40.0 * c for c in module_cosines(0.0)]
        assert rhos == pytest.approx([160.0, 220.0, 220.0], rel=1e-12)
        row = speeds(BEND, 0.0, 50.0, 40.0)
        assert row == pytest.approx((40.0, 55.0, 55.0), rel=1e-12)
        assert math.fsum(row) == pytest.approx(150.0, rel=1e-12)

    def test_bend_farthest_module_speeds_up(self):
        assert speeds(BEND, math.pi, 50.0, 40.0) == pytest.approx((60.0, 45.0, 45.0), rel=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=50.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_mean_preservation_property(self, theta, radius, fraction, v_nominal):
        bend = Bend(radius=radius, sweep_deg=90.0, normal=Y)
        mean = math.fsum(speeds(bend, theta, v_nominal, fraction * radius)) / 3.0
        assert mean == pytest.approx(v_nominal, rel=1e-9)

    @given(st.floats(min_value=-10.0, max_value=10.0))
    @settings(max_examples=200, deadline=None)
    def test_a_third_turn_of_roll_moves_each_module_on(self, theta):
        # Module i sits at theta + 2 pi i / 3, so rolling by 2 pi / 3 hands
        # module i + 1's speed to module i.
        turned = speeds(BEND, theta + 2.0 * math.pi / 3.0, 50.0, 40.0)
        row = speeds(BEND, theta, 50.0, 40.0)
        assert turned == pytest.approx(row[1:] + row[:1], rel=1e-12)

    def test_orientation_sweep_is_sinusoidal(self):
        v_nominal, r_c = 50.0, 40.0
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        track_a = [speeds(BEND, float(t), v_nominal, r_c)[0] for t in thetas]
        lo = v_nominal * (BEND.radius - r_c) / BEND.radius
        hi = v_nominal * (BEND.radius + r_c) / BEND.radius
        assert min(track_a) == pytest.approx(lo, rel=1e-6)
        assert max(track_a) == pytest.approx(hi, rel=1e-6)
        assert math.fsum(track_a) / len(track_a) == pytest.approx(v_nominal, rel=1e-9)
        # period 2*pi: the sampled waveform matches a pure cosine
        expected = [
            v_nominal * (1.0 - (r_c / BEND.radius) * math.cos(t)) for t in thetas
        ]
        assert track_a == pytest.approx(expected, rel=1e-12)


@st.composite
def columns_with_contact_radius(draw):
    """1 to 8 straights and bends of radius 1e-3 to 1e300 mm, and one
    contact radius below every bend radius: anywhere from 0 to 1e300 mm when
    all are straights."""
    segments = draw(st.lists(
        st.one_of(
            st.just(Straight(100.0)),
            st.floats(-3.0, 300.0).map(lambda e: Bend(10.0 ** e, 90.0, Y)),
        ),
        min_size=1, max_size=8,
    ))
    bound = min((s.radius for s in segments if isinstance(s, Bend)), default=None)
    if bound is None:
        return segments, draw(st.floats(0.0, 1e300))
    contact_radius = bound * draw(st.floats(0.0, 1.0, exclude_max=True))
    assume(contact_radius < bound)
    return segments, contact_radius


@given(
    columns_with_contact_radius(),
    st.floats(-30.0, 30.0),  # rad, several turns either way
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
)
@settings(max_examples=500, deadline=None)
def test_demanded_speeds_rows_match_the_reference(case, theta, v_nominal):
    segments, contact_radius = case
    rows = demanded_speeds([s.radius for s in segments], theta, v_nominal, contact_radius)
    assert rows.shape == (len(segments), 3)
    for segment, row in zip(segments, rows):
        expected = np.array(reference_demands(segment, theta, v_nominal, contact_radius))
        assert row.view(np.int64).tolist() == expected.view(np.int64).tolist()


class TestDisturbance:
    """The disturbance ``run`` layers on the resolved speeds: ``v * (1 + a * u)``,
    with one row of ``u ~ U(-1, 1)`` per record, record k's at draw ``3 * k``
    of the seed's stream."""

    @staticmethod
    def disturbed(scenario, amplitude, seed):
        """The reference run's trace, and the plan's speeds of each record."""
        sc = scenario
        params = replace(sc.sim, disturbance_amplitude=amplitude, disturbance_seed=seed)
        trace, summary = run(sc.network, sc.robot, sc.gear, params)
        assert summary.completed
        v_nominal = sc.gear.ratio * params.omega_u * sc.robot.sprocket_radius
        plan = simulator._plan(sc.network, sc.robot, sc.gear, params, v_nominal)
        return trace, plan.speeds[trace.segment]

    def test_zero_amplitude_is_identity_and_draws_nothing(self, reference_scenario):
        with mock.patch.object(simulator, "_draws", side_effect=AssertionError("drew")):
            trace, resolved = self.disturbed(reference_scenario, 0.0, 7)
        assert np.array_equal(trace.v, resolved)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**70),
           k=st.one_of(st.integers(0, 3000), st.integers(0, simulator.MAX_RECORDS)),
           rows=st.integers(1, 50))
    @example(seed=2**64 - 1, k=0, rows=1).via("the last one-word seed")
    @example(seed=2**64, k=0, rows=1).via("the first two-word seed")
    def test_draws_from_record_k_are_the_stream_from_draw_3k(self, seed, k, rows):
        key = reference_key(seed)
        expected = [reference_draw(key, n) for n in range(3 * k, 3 * (k + rows))]
        assert simulator._draws(seed, k, rows).tobytes() == np.array(expected).tobytes()

    def test_seeded_draws_are_reproducible(self, reference_scenario):
        # The run's blocks of draws are the same stream as three draws per
        # record, and each record is the one-tick formula v * (1 + a * u).
        for seed in (42, 2**70):
            trace, resolved = self.disturbed(reference_scenario, 0.025, seed)
            key = reference_key(seed)
            u = np.reshape([reference_draw(key, n) for n in range(3 * len(trace))], (-1, 3))
            assert np.array_equal(trace.v, resolved * (1.0 + 0.025 * u))
            assert trace == self.disturbed(reference_scenario, 0.025, seed)[0]

    def test_the_stream_is_uniform_and_adjacent_seeds_are_uncorrelated(self):
        # For n draws of U(-1, 1) the sample mean has standard error
        # sqrt(1/3 / n); the sample variance, about 1/3, has about
        # sqrt((1/5 - 1/9) / n), as u**2 has variance E[u**4] - E[u**2]**2;
        # and the correlation of two independent streams about 1 / sqrt(n).
        # Each bound is six of these, which a uniform stream exceeds with
        # probability about 2e-9.  A sweep's orientations use seeds s and s + 1.
        n = 3 * 333_334
        for seed in (0, 2**64 - 1):
            u, w = (simulator._draws(s, 0, n // 3).ravel() for s in (seed, seed + 1))
            assert abs(u.mean()) < 6.0 * math.sqrt(1.0 / 3.0 / n)
            assert abs(u.var() - 1.0 / 3.0) < 6.0 * math.sqrt((1.0 / 5.0 - 1.0 / 9.0) / n)
            assert abs(np.corrcoef(u, w)[0, 1]) < 6.0 / math.sqrt(n)

    def test_amplitude_bounds_the_deviation(self, reference_scenario):
        trace, resolved = self.disturbed(reference_scenario, 0.025, 3)
        assert not np.array_equal(trace.v, resolved)
        assert (np.abs(trace.v - resolved) <= 0.025 * np.abs(resolved)).all()
