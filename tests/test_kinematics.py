import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    Straight,
    apply_disturbance,
    module_path_radius,
    theoretical_speeds,
)
from pipediff.kinematics import demanded_speeds

Y = (0.0, 1.0, 0.0)
BEND = Bend(radius=200.0, sweep_deg=90.0, normal=Y)
STRAIGHT = Straight(length=100.0, axis=(0.0, 0.0, 1.0))


class TestTheoreticalSpeeds:
    def test_straight_is_uniform(self):
        speeds = theoretical_speeds(STRAIGHT, 0.3, 50.0, 40.0)
        assert speeds.as_tuple() == (50.0, 50.0, 50.0)

    def test_bend_nearest_module_slows(self):
        # oracle: rho = (160, 220, 220) scaled by v/R = 50/200
        rhos = [module_path_radius(BEND, 0.0, i, 40.0) for i in range(3)]
        assert rhos == pytest.approx([160.0, 220.0, 220.0], rel=1e-12)
        speeds = theoretical_speeds(BEND, 0.0, 50.0, 40.0)
        assert speeds.as_tuple() == pytest.approx((40.0, 55.0, 55.0), rel=1e-12)
        assert math.fsum(speeds.as_tuple()) == pytest.approx(150.0, rel=1e-12)

    def test_bend_farthest_module_speeds_up(self):
        speeds = theoretical_speeds(BEND, math.pi, 50.0, 40.0)
        assert speeds.as_tuple() == pytest.approx((60.0, 45.0, 45.0), rel=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=50.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=0.95),
        st.floats(min_value=1.0, max_value=200.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_mean_preservation_property(self, theta, radius, fraction, v_nominal):
        bend = Bend(radius=radius, sweep_deg=90.0, normal=Y)
        speeds = theoretical_speeds(bend, theta, v_nominal, fraction * radius)
        assert speeds.mean == pytest.approx(v_nominal, rel=1e-9)

    def test_orientation_sweep_is_sinusoidal(self):
        v_nominal, r_c = 50.0, 40.0
        thetas = np.linspace(0.0, 2.0 * math.pi, 720, endpoint=False)
        track_a = [
            theoretical_speeds(BEND, float(t), v_nominal, r_c).v_a for t in thetas
        ]
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
def segments_with_contact_radius(draw):
    """A straight or a bend of radius 1e-3 to 1e300 mm, and a contact radius
    in [0, R): anywhere from 0 to 1e300 mm for a straight."""
    if draw(st.booleans()):
        return Straight(100.0), draw(st.floats(0.0, 1e300))
    radius = 10.0 ** draw(st.floats(-3.0, 300.0))
    contact_radius = radius * draw(st.floats(0.0, 1.0, exclude_max=True))
    assume(contact_radius < radius)
    return Bend(radius, 90.0, Y), contact_radius


@given(
    segments_with_contact_radius(),
    st.floats(-30.0, 30.0),  # rad, several turns either way
    st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e),
)
@settings(max_examples=500, deadline=None)
def test_theoretical_speeds_is_the_row_of_demanded_speeds(case, theta, v_nominal):
    segment, contact_radius = case
    speeds = theoretical_speeds(segment, theta, v_nominal, contact_radius).as_tuple()
    row = demanded_speeds([segment.radius], theta, v_nominal, contact_radius)[0]
    assert np.array(speeds).view(np.int64).tolist() == row.view(np.int64).tolist()


class TestDisturbance:
    def test_zero_amplitude_is_identity_and_draws_nothing(self):
        speeds = theoretical_speeds(BEND, 0.3, 50.0, 40.0).as_tuple()
        draws = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, 3))
        before = draws.copy()
        assert (apply_disturbance(speeds, 0.0, draws) == speeds).all()
        assert (draws == before).all()

    def test_seeded_draws_are_reproducible(self):
        # One (n, 3) block of draws is the same stream as n draws of three,
        # and each row is the one-tick formula v * (1 + a * u).
        speeds = theoretical_speeds(BEND, 0.3, 50.0, 40.0).as_tuple()
        draws = np.random.default_rng(42).uniform(-1.0, 1.0, size=(50, 3))
        block = apply_disturbance(speeds, 0.025, draws)
        rng = np.random.default_rng(42)
        for row in block.tolist():
            u = rng.uniform(-1.0, 1.0, size=3)
            assert row == [v * (1.0 + 0.025 * float(f)) for v, f in zip(speeds, u)]

    def test_amplitude_bounds_the_deviation(self):
        speeds = theoretical_speeds(STRAIGHT, 0.0, 50.0, 40.0).as_tuple()
        draws = np.random.default_rng(3).uniform(-1.0, 1.0, size=(100, 3))
        disturbed = apply_disturbance(speeds, 0.025, draws)
        assert disturbed.shape == (100, 3)
        assert (np.abs(disturbed - speeds) <= 0.025 * np.abs(speeds)).all()
