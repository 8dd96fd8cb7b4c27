import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    PipeNetwork,
    PipeSpec,
    Straight,
)

from pipediff.kinematics import demanded_speeds

from reference_stepper import reference_lengths

SPEC = PipeSpec(inner_radius=13.2, standard_label="test bore")
Z = (0.0, 0.0, 1.0)
X = (1.0, 0.0, 0.0)
Y = (0.0, 1.0, 0.0)


def make_net(*segments, spec=SPEC):
    return PipeNetwork(spec, tuple(segments))


class TestTotalLength:
    def test_single_straight(self):
        assert make_net(Straight(350.0, Z)).total_length == 350.0

    def test_half_turn_arc(self):
        net = make_net(Bend(radius=100.0, sweep_deg=180.0, normal=Y))
        assert net.total_length == pytest.approx(100.0 * math.pi, rel=1e-12)

    def test_additivity(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        assert net.total_length == pytest.approx(350.0 + 50.0 * math.pi, rel=1e-12)

    def test_arc_starts_match_cumulative_sum_oracle(self):
        net = make_net(
            Straight(350.0, Z),
            Bend(radius=100.0, sweep_deg=90.0, normal=Y),
            Straight(200.0, X),
        )
        # independent oracle: prefix-sum table of segment lengths
        lengths = [350.0, 100.0 * math.pi / 2.0, 200.0]
        starts = [0.0, lengths[0], lengths[0] + lengths[1]]
        assert net.starts == pytest.approx(starts, rel=1e-12)
        assert net.total_length == pytest.approx(sum(lengths), rel=1e-12)


def bits(values) -> list[int]:
    return np.asarray(values, dtype=np.float64).view(np.int64).tolist()


class TestColumns:
    """The per-segment columns that the walk records."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(
        st.builds(Straight, st.floats(-3.0, 308.2).map(lambda e: 10.0 ** e)),
        st.builds(Straight, st.floats(1e-3, 1e3), st.just(Z)),
        st.builds(Bend, st.floats(14.0, 1e4), st.floats(0.5, 180.0), st.just(Y)),
    ), max_size=20))
    def test_columns_match_an_independent_walk(self, segments):
        net = make_net(*segments)
        lengths, starts, total = reference_lengths(net)
        assert net.radii.dtype == net.lengths.dtype == net.starts.dtype == np.float64
        assert bits(net.radii) == bits([segment.radius for segment in net.segments])
        assert bits(net.lengths) == bits(lengths)
        assert bits(net.starts) == bits(starts)
        assert bits([net.total_length]) == bits([total])

    def test_columns_are_read_only(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        for column in (net.radii, net.lengths, net.starts):
            with pytest.raises(ValueError):
                column[0] = 1.0
        assert net.radii.tolist() == [math.inf, 100.0]

    def test_equality_and_hashing_ignore_the_columns(self):
        pieces = (Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        net, twin = make_net(*pieces), make_net(*pieces)
        for name in ("radii", "lengths", "starts"):
            object.__setattr__(twin, name, np.zeros(5))
        assert twin == net and hash(twin) == hash(net)


def path_radii(radius, theta, contact_radius):
    """rho_i of the three modules in a bend: its ``demanded_speeds`` row at
    ``v_nominal = R``."""
    return demanded_speeds([radius], theta, radius, contact_radius)[0].tolist()


class TestPathRadii:
    def test_nearest_module(self):
        assert path_radii(200.0, 0.0, 40.0)[0] == pytest.approx(160.0, rel=1e-12)

    def test_offset_module(self):
        # oracle: R - r_c * cos(120 deg) = 200 + 40/2
        expected = 200.0 - 40.0 * math.cos(2.0 * math.pi / 3.0)
        assert expected == pytest.approx(220.0, rel=1e-12)
        assert path_radii(200.0, 0.0, 40.0)[1] == pytest.approx(220.0, rel=1e-12)

    def test_farthest_module(self):
        assert path_radii(200.0, math.pi, 40.0)[0] == pytest.approx(240.0, rel=1e-12)

    def test_radii_sum_to_three_r(self):
        assert math.fsum(path_radii(200.0, 0.3, 40.0)) == pytest.approx(3.0 * 200.0, rel=1e-12)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=20.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_identity_property(self, theta, radius, fraction):
        rhos = path_radii(radius, theta, fraction * radius)
        assert math.fsum(rhos) == pytest.approx(3.0 * radius, rel=1e-12)


class TestValidateNetwork:
    def test_well_formed_network(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        assert net.violations == ()

    def test_bend_radius_below_pipe_radius(self):
        net = make_net(Bend(radius=SPEC.inner_radius / 2.0, sweep_deg=90.0, normal=Y))
        violations = net.violations
        assert [v.rule for v in violations] == ["bend-radius"]
        assert violations[0].segment_index == 0

    def test_bend_radius_must_exceed_pipe_radius(self):
        # demanded_speeds needs the contact radius (the pipe's) below R.
        at = make_net(Bend(radius=SPEC.inner_radius, sweep_deg=90.0, normal=Y))
        assert [v.rule for v in at.violations] == ["bend-radius"]
        above = make_net(Bend(radius=math.nextafter(SPEC.inner_radius, math.inf), sweep_deg=90.0, normal=Y))
        assert above.violations == ()

    def test_discontinuous_joint(self):
        # after the 90 deg bend the tangent is +x; declaring +z breaks G1
        net = make_net(
            Straight(100.0, Z),
            Bend(radius=100.0, sweep_deg=90.0, normal=Y),
            Straight(50.0, Z),
        )
        violations = net.violations
        assert [(v.rule, v.segment_index) for v in violations] == [("continuity", 2)]

    def test_total_length_must_be_finite(self):
        net = make_net(Straight(1.7e308, Z), Straight(1.7e308, Z))
        violations = net.violations
        assert [(v.rule, v.segment_index) for v in violations] == [("total-length", None)]
        assert "inf" in violations[0].message

    def test_sweep_angle_limit(self):
        net = make_net(Bend(radius=100.0, sweep_deg=270.0, normal=Y))
        assert any(v.rule == "sweep-angle" for v in net.violations)

    def test_non_unit_axis(self):
        net = make_net(Straight(100.0, (0.0, 0.0, 2.0)))
        assert any(v.rule == "unit-axis" for v in net.violations)

    def test_normal_must_be_orthogonal_to_tangent(self):
        net = make_net(Straight(100.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Z))
        assert any(v.rule == "normal-orthogonality" for v in net.violations)

    def test_empty_network(self):
        net = PipeNetwork(SPEC, ())
        assert any(v.rule == "empty-network" for v in net.violations)

    def test_nonpositive_length(self):
        net = make_net(Straight(0.0, Z))
        assert any(v.rule == "segment-length" for v in net.violations)

    def test_nonpositive_pipe_radius(self):
        net = PipeNetwork(PipeSpec(inner_radius=0.0), (Straight(10.0, Z),))
        assert any(v.rule == "pipe-radius" for v in net.violations)

    def test_bend_exit_tangent(self):
        # a 90 deg turn about +y takes +z to +x
        elbow = Bend(radius=100.0, sweep_deg=90.0, normal=Y)
        assert make_net(elbow, Straight(50.0, X)).violations == ()
        violations = make_net(elbow, Straight(50.0, Z)).violations
        assert [(v.rule, v.segment_index) for v in violations] == [("continuity", 1)]

    def test_non_finite_vectors_are_not_unit(self):
        nan = float("nan")
        net = make_net(Straight(100.0, (nan, 0.0, 1.0)), Bend(100.0, 90.0, (0.0, nan, 0.0)))
        assert [v.rule for v in net.violations] == ["unit-axis", "unit-normal"]

    def test_an_infinite_sweep_is_a_violation(self):
        for sweep in (math.inf, -math.inf):
            net = make_net(Straight(100.0, Z), Bend(radius=100.0, sweep_deg=sweep, normal=Y))
            assert [str(v) for v in net.violations] == [
                f"sweep-angle @ segment 1: sweep must be in (0, 180] degrees, got {sweep!r}"]


class TestDefaultAxis:
    def test_missing_axis_continues_the_incoming_tangent(self):
        net = make_net(Straight(100.0), Bend(radius=100.0, sweep_deg=90.0, normal=Y), Straight(50.0))
        assert net.violations == ()
        assert net.start_tangent == Z
        assert net.segments[0].axis == Z
        assert net.segments[2].axis == pytest.approx(X, abs=1e-15)
        # the network stores the resolved chain, so rebuilding it is a no-op
        assert PipeNetwork(net.spec, net.segments, net.start_tangent) == net

    def test_start_tangent_defaults_to_the_first_axis(self):
        assert make_net(Straight(10.0, X), Straight(10.0)).start_tangent == X
        assert make_net(Bend(radius=100.0, sweep_deg=90.0, normal=Y)).start_tangent == Z
        assert PipeNetwork(SPEC, ()).start_tangent == Z

    def test_explicit_start_tangent_is_kept(self):
        net = PipeNetwork(SPEC, (Straight(10.0),), start_tangent=X)
        assert net.start_tangent == X
        assert net.segments[0].axis == X


def test_arc_length_additivity_under_concatenation():
    a = make_net(Straight(120.0, Z))
    b = make_net(Bend(radius=90.0, sweep_deg=45.0, normal=Y))
    combined = make_net(Straight(120.0, Z), Bend(radius=90.0, sweep_deg=45.0, normal=Y))
    assert combined.total_length == pytest.approx(a.total_length + b.total_length, rel=1e-12)


