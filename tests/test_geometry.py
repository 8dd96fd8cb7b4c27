import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import (
    Bend,
    InvalidGeometryError,
    PipeNetwork,
    PipeSpec,
    Straight,
    module_path_radius,
    validate_network,
)

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


class TestLocate:
    def test_start(self):
        net = make_net(Straight(350.0, Z))
        frame = net.locate(0.0)
        assert (frame.index, frame.offset) == (0, 0.0)
        assert frame.point == (0.0, 0.0, 0.0)
        assert frame.tangent == Z

    def test_end_maps_to_last_segment(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        frame = net.locate(net.total_length)
        assert frame.index == 1
        assert frame.offset == pytest.approx(50.0 * math.pi, rel=1e-12)

    def test_joint_belongs_to_the_later_segment(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        frame = net.locate(350.0)
        assert frame.index == 1
        assert frame.offset == 0.0

    def test_matches_cumulative_sum_oracle(self):
        segments = (
            Straight(350.0, Z),
            Bend(radius=100.0, sweep_deg=90.0, normal=Y),
            Straight(200.0, X),
        )
        net = make_net(*segments)
        # independent oracle: prefix-sum table of segment lengths
        lengths = [350.0, 100.0 * math.pi / 2.0, 200.0]
        starts = [0.0, lengths[0], lengths[0] + lengths[1]]
        frame = net.locate(360.0)
        assert frame.index == 1
        assert frame.offset == pytest.approx(360.0 - starts[1], rel=1e-12)

    def test_monotone_in_arc_length(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        samples = np.linspace(0.0, net.total_length, 200)
        frames = [net.locate(float(s)) for s in samples]
        keys = [(f.index, f.offset) for f in frames]
        assert keys == sorted(keys)

    def test_out_of_range(self):
        net = make_net(Straight(350.0, Z))
        with pytest.raises(ValueError):
            net.locate(-1.0)
        with pytest.raises(ValueError):
            net.locate(350.0 + 1e-6)

    def test_bend_frame_geometry(self):
        # 90 deg turn from +z to +x about +y: exit point offset by (R, 0, R)
        net = make_net(Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        frame = net.locate(net.total_length)
        assert frame.point == pytest.approx((100.0, 0.0, 100.0), abs=1e-9)
        assert frame.tangent == pytest.approx((1.0, 0.0, 0.0), abs=1e-12)


class TestModulePathRadius:
    BEND = Bend(radius=200.0, sweep_deg=90.0, normal=Y)

    def test_nearest_module(self):
        assert module_path_radius(self.BEND, 0.0, 0, 40.0) == pytest.approx(160.0)

    def test_offset_module(self):
        # oracle: R - r_c * cos(120 deg) = 200 + 40/2
        expected = 200.0 - 40.0 * math.cos(2.0 * math.pi / 3.0)
        assert expected == pytest.approx(220.0, rel=1e-12)
        assert module_path_radius(self.BEND, 0.0, 1, 40.0) == pytest.approx(220.0, rel=1e-12)

    def test_farthest_module(self):
        assert module_path_radius(self.BEND, math.pi, 0, 40.0) == pytest.approx(240.0, rel=1e-12)

    def test_radii_sum_to_three_r(self):
        rhos = [module_path_radius(self.BEND, 0.3, i, 40.0) for i in range(3)]
        assert math.fsum(rhos) == pytest.approx(3.0 * 200.0, rel=1e-12)

    def test_contact_radius_must_stay_below_bend_radius(self):
        with pytest.raises(InvalidGeometryError):
            module_path_radius(self.BEND, 0.0, 0, 200.0)
        with pytest.raises(InvalidGeometryError):
            module_path_radius(self.BEND, 0.0, 0, -1.0)

    def test_rejects_bad_module_index(self):
        with pytest.raises(ValueError):
            module_path_radius(self.BEND, 0.0, 3, 40.0)

    def test_rejects_non_finite_theta(self):
        with pytest.raises(ValueError):
            module_path_radius(self.BEND, float("nan"), 0, 40.0)

    @given(
        st.floats(min_value=-10.0, max_value=10.0),
        st.floats(min_value=20.0, max_value=2000.0),
        st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=300, deadline=None)
    def test_sum_identity_property(self, theta, radius, fraction):
        bend = Bend(radius=radius, sweep_deg=90.0, normal=Y)
        r_c = fraction * radius
        rhos = [module_path_radius(bend, theta, i, r_c) for i in range(3)]
        assert math.fsum(rhos) == pytest.approx(3.0 * radius, rel=1e-12)


class TestValidateNetwork:
    def test_well_formed_network(self):
        net = make_net(Straight(350.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Y))
        assert validate_network(net) == []

    def test_bend_radius_below_pipe_radius(self):
        net = make_net(Bend(radius=SPEC.inner_radius / 2.0, sweep_deg=90.0, normal=Y))
        violations = validate_network(net)
        assert [v.rule for v in violations] == ["bend-radius"]
        assert violations[0].segment_index == 0

    def test_discontinuous_joint(self):
        # after the 90 deg bend the tangent is +x; declaring +z breaks G1
        net = make_net(
            Straight(100.0, Z),
            Bend(radius=100.0, sweep_deg=90.0, normal=Y),
            Straight(50.0, Z),
        )
        violations = validate_network(net)
        assert [(v.rule, v.segment_index) for v in violations] == [("continuity", 2)]

    def test_sweep_angle_limit(self):
        net = make_net(Bend(radius=100.0, sweep_deg=270.0, normal=Y))
        assert any(v.rule == "sweep-angle" for v in validate_network(net))

    def test_non_unit_axis(self):
        net = make_net(Straight(100.0, (0.0, 0.0, 2.0)))
        assert any(v.rule == "unit-axis" for v in validate_network(net))

    def test_normal_must_be_orthogonal_to_tangent(self):
        net = make_net(Straight(100.0, Z), Bend(radius=100.0, sweep_deg=90.0, normal=Z))
        assert any(v.rule == "normal-orthogonality" for v in validate_network(net))

    def test_empty_network(self):
        net = PipeNetwork(SPEC, ())
        assert any(v.rule == "empty-network" for v in validate_network(net))

    def test_nonpositive_length(self):
        net = make_net(Straight(0.0, Z))
        assert any(v.rule == "segment-length" for v in validate_network(net))

    def test_nonpositive_pipe_radius(self):
        net = PipeNetwork(PipeSpec(inner_radius=0.0), (Straight(10.0, Z),))
        assert any(v.rule == "pipe-radius" for v in validate_network(net))


def test_arc_length_additivity_under_concatenation():
    a = make_net(Straight(120.0, Z))
    b = make_net(Bend(radius=90.0, sweep_deg=45.0, normal=Y))
    combined = make_net(Straight(120.0, Z), Bend(radius=90.0, sweep_deg=45.0, normal=Y))
    assert combined.total_length == pytest.approx(a.total_length + b.total_length, rel=1e-12)


def test_straight_chain_has_continuous_points():
    net = make_net(Straight(100.0, Z), Bend(radius=50.0, sweep_deg=90.0, normal=Y), Straight(80.0, X))
    assert validate_network(net) == []
    before = np.array(net.locate(100.0 + 25.0 * math.pi - 1e-6).point)
    after = np.array(net.locate(100.0 + 25.0 * math.pi + 1e-6).point)
    assert np.linalg.norm(after - before) < 1e-3
