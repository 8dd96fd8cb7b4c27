import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    Straight,
    apply_disturbance,
)
from pipediff.geometry import module_cosines
from pipediff.kinematics import demanded_speeds

from reference_stepper import reference_demands

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
    def test_zero_amplitude_is_identity_and_draws_nothing(self):
        demanded = speeds(BEND, 0.3, 50.0, 40.0)
        draws = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, 3))
        before = draws.copy()
        assert (apply_disturbance(demanded, 0.0, draws) == demanded).all()
        assert (draws == before).all()

    def test_seeded_draws_are_reproducible(self):
        # One (n, 3) block of draws is the same stream as n draws of three,
        # and each row is the one-tick formula v * (1 + a * u).
        demanded = speeds(BEND, 0.3, 50.0, 40.0)
        draws = np.random.default_rng(42).uniform(-1.0, 1.0, size=(50, 3))
        block = apply_disturbance(demanded, 0.025, draws)
        rng = np.random.default_rng(42)
        for row in block.tolist():
            u = rng.uniform(-1.0, 1.0, size=3)
            assert row == [v * (1.0 + 0.025 * float(f)) for v, f in zip(demanded, u)]

    def test_amplitude_bounds_the_deviation(self):
        demanded = speeds(STRAIGHT, 0.0, 50.0, 40.0)
        draws = np.random.default_rng(3).uniform(-1.0, 1.0, size=(100, 3))
        disturbed = apply_disturbance(demanded, 0.025, draws)
        assert disturbed.shape == (100, 3)
        assert (np.abs(disturbed - demanded) <= 0.025 * np.abs(demanded)).all()
