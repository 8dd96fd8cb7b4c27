import math

import pytest

from pipediff import (
    Bend,
    NoFitError,
    PipeSpec,
    RobotConfig,
    Straight,
    module_states,
)

Y = (0.0, 1.0, 0.0)
STRAIGHT = Straight(length=100.0, axis=(0.0, 0.0, 1.0))


def make_robot(**overrides):
    kwargs = dict(
        sprocket_radius=17.5,
        length=61.0,
        nominal_body_radius=13.2,
        preload_compression=5.0,
    )
    kwargs.update(overrides)
    return RobotConfig(**kwargs)


def segment_state(robot, spec, segment, theta):
    """``(compressions, tilts)`` of one segment; raises the NoFitError that
    ``module_states`` returns for it."""
    compressions, tilts, error = module_states(robot, spec, (segment.radius,), theta)
    if error is not None:
        raise error
    return tuple(compressions[0].tolist()), tuple(tilts[0].tolist())


def compressions(robot, spec, segment, theta=0.0):
    return segment_state(robot, spec, segment, theta)[0]


class TestCompressionInStraight:
    def test_matched_pipe_sits_at_preload(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        assert compressions(robot, spec, STRAIGHT) == (5.0, 5.0, 5.0)

    def test_narrower_pipe_adds_the_radius_gap(self):
        # oracle: delta = preload + (nominal radius - pipe radius)
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius - 2.0)
        deltas = compressions(robot, spec, STRAIGHT)
        assert deltas == pytest.approx((7.0, 7.0, 7.0))

    def test_compression_limit_is_a_hard_no_fit(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius - 12.0)  # needs 17 mm
        with pytest.raises(NoFitError):
            segment_state(robot, spec, STRAIGHT, 0.0)

    def test_too_wide_pipe_loses_contact(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius + robot.preload_compression + 1.0)
        with pytest.raises(NoFitError):
            segment_state(robot, spec, STRAIGHT, 0.0)


class TestCompressionInBend:
    def test_straight_limit_as_radius_grows(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        straight = compressions(robot, spec, STRAIGHT)
        huge = Bend(radius=1e9, sweep_deg=90.0, normal=Y)
        bent = compressions(robot, spec, huge, 0.3)
        assert max(abs(b - s) for b, s in zip(bent, straight)) < 1e-6

    def test_sagitta_increment_on_the_in_plane_module(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        bend = Bend(radius=335.0, sweep_deg=90.0, normal=Y)
        deltas = compressions(robot, spec, bend)
        # oracle: sagitta L^2 / (8R) on the module facing the bend center
        expected = robot.length**2 / (8.0 * bend.radius)
        assert deltas[0] - 5.0 == pytest.approx(expected, rel=1e-12)
        # the two out-of-plane modules take the half projection |cos 120|
        assert deltas[1] - 5.0 == pytest.approx(expected / 2.0, rel=1e-9)
        assert deltas[2] - 5.0 == pytest.approx(expected / 2.0, rel=1e-9)

    def test_sagitta_no_fit_oracle(self):
        robot = make_robot(length=200.0, max_tilt_deg=30.0)
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        bend = Bend(radius=335.0, sweep_deg=90.0, normal=Y)
        # oracle: preload + L^2/(8R) = 5 + 14.93 mm exceeds the 16 mm limit
        assert 5.0 + robot.length**2 / (8.0 * bend.radius) > robot.max_compression
        with pytest.raises(NoFitError, match="compression"):
            segment_state(robot, spec, bend, 0.0)

    def test_robot_longer_than_chord(self):
        robot = make_robot(length=61.0)
        spec = PipeSpec(inner_radius=13.2)
        bend = Bend(radius=30.0, sweep_deg=90.0, normal=Y)
        with pytest.raises(NoFitError):
            segment_state(robot, spec, bend, 0.0)

    def test_continuous_in_inverse_radius(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        radii = [300.0, 600.0, 1200.0, 1e6, 1e9]
        worst = [
            max(compressions(robot, spec, Bend(r, 90.0, Y), 0.7)) for r in radii
        ]
        assert worst == sorted(worst, reverse=True)
        assert worst[-1] == pytest.approx(5.0, abs=1e-6)


class TestTiltLimit:
    def test_tilt_projection(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        bend = Bend(radius=290.0, sweep_deg=180.0, normal=Y)
        _, tilts = segment_state(robot, spec, bend, 0.0)
        expected = math.degrees(math.asin(robot.length / (2.0 * bend.radius)))
        assert tilts[0] == pytest.approx(expected, rel=1e-12)
        assert tilts[1] == pytest.approx(expected / 2.0, rel=1e-9)

    def test_module_state_rejects_excess_tilt(self):
        robot = make_robot(length=140.0)  # 12.06 deg at R=335, above the 10 deg limit
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        bend = Bend(radius=335.0, sweep_deg=90.0, normal=Y)
        with pytest.raises(NoFitError, match="asymmetric"):
            segment_state(robot, spec, bend, 0.0)

    def test_module_state_within_limits(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        bend = Bend(radius=335.0, sweep_deg=90.0, normal=Y)
        compressions, tilts = segment_state(robot, spec, bend, 0.0)
        assert max(tilts) <= robot.max_tilt_deg
        assert max(compressions) <= robot.max_compression


# Each case also breaks every later check it can reach, so the message
# shows which check runs first.
CHORDLESS = Bend(radius=30.0, sweep_deg=90.0, normal=Y)
ELBOW = Bend(radius=335.0, sweep_deg=90.0, normal=Y)


@pytest.mark.parametrize(
    "overrides, inner_radius, segment, message, fields",
    [
        # 5 + (13.2 - 19.2) mm: the springs fall 1 mm short of the wall
        ({}, 19.2, CHORDLESS,
         "pipe radius 19.2 mm is beyond module reach; no wall contact at zero compression",
         (None, "reach", -1.0, 0.0)),
        ({}, 1.2, CHORDLESS, "straight pipe requires 17.000 mm compression, limit is 16 mm",
         (None, "compression", 17.0, 16.0)),
        ({}, 13.2, CHORDLESS, "robot length 61 mm cannot chord a bend of radius 30 mm",
         (None, "chord", 61.0, 60.0)),
        # 5 + 200**2 / (8 * 335) mm, while asin(200 / 670) = 17.4 deg also breaks the tilt limit
        ({"length": 200.0}, 13.2, ELBOW,
         "bend of radius 335 mm requires 19.925 mm compression on module 0, limit is 16 mm",
         (0, "compression", 5.0 + 200.0**2 / (8.0 * 335.0), 16.0)),
        ({"length": 140.0}, 13.2, ELBOW,
         "bend of radius 335 mm demands 12.06 deg asymmetric compression on module 0, "
         "limit is 10 deg",
         (0, "tilt", math.degrees(math.asin(140.0 / 670.0)), 10.0)),
    ],
    ids=["beyond reach", "too narrow", "no chord", "bend compression", "tilt"],
)
def test_module_state_check_order(overrides, inner_radius, segment, message, fields):
    robot = make_robot(**overrides)
    with pytest.raises(NoFitError) as caught:
        segment_state(robot, PipeSpec(inner_radius=inner_radius), segment, 0.0)
    error = caught.value
    assert str(error) == message
    # The failed check as data: module, quantity, value and limit.
    module, quantity, value, limit = fields
    assert (error.module, error.quantity, error.limit) == (module, quantity, limit)
    assert error.value == pytest.approx(value, rel=1e-12)


@pytest.mark.parametrize("overrides, quantity", [({"length": 200.0}, "compression"),
                                                 ({"length": 140.0}, "tilt")])
def test_no_fit_error_names_the_worst_module(overrides, quantity):
    # At theta = 240 deg module 1 (offset 120 deg) faces the bend centre.
    robot = make_robot(**overrides)
    with pytest.raises(NoFitError) as caught:
        segment_state(robot, PipeSpec(inner_radius=13.2), ELBOW, 4.0 * math.pi / 3.0)
    assert (caught.value.module, caught.value.quantity) == (1, quantity)
    assert "on module 1," in str(caught.value)


class TestAlongANetwork:
    """``module_states`` over several segments: the rows up to the first
    segment that breaks a limit, and that segment's error."""

    def test_rows_match_one_segment_at_a_time(self):
        robot = make_robot()
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        segments = (STRAIGHT, ELBOW, Bend(290.0, 180.0, Y), STRAIGHT)
        compressions, tilts, error = module_states(
            robot, spec, [segment.radius for segment in segments], 0.4
        )
        assert error is None and compressions.shape == tilts.shape == (4, 3)
        for segment, row, tilt in zip(segments, compressions.tolist(), tilts.tolist()):
            assert (tuple(row), tuple(tilt)) == segment_state(robot, spec, segment, 0.4)

    def test_the_first_failing_segment_stops_the_rows(self):
        # The elbow breaks the tilt limit and the later bend the chord: the
        # elbow comes first, although chord is the earlier check.
        robot = make_robot(length=140.0)
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        compressions, tilts, error = module_states(
            robot, spec, (STRAIGHT.radius, ELBOW.radius, STRAIGHT.radius, CHORDLESS.radius), 0.0
        )
        assert compressions.tolist() == [[5.0, 5.0, 5.0]] and tilts.tolist() == [[0.0] * 3]
        assert error.quantity == "tilt"

    def test_a_segment_that_breaks_two_limits_reports_the_earlier_check(self):
        robot = make_robot(length=200.0)
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        compressions, _, error = module_states(robot, spec, (ELBOW.radius, CHORDLESS.radius), 0.0)
        assert len(compressions) == 0 and error.quantity == "compression"

    def test_no_segments(self):
        robot = make_robot()
        compressions, tilts, error = module_states(robot, PipeSpec(inner_radius=30.0), (), 0.0)
        assert compressions.shape == tilts.shape == (0, 3) and error is None

    def test_a_robot_too_long_to_square_keeps_straight_compressions(self):
        # 1e200 ** 2 is past the float range: a straight's sagitta stays 0,
        # and a bend wide enough to chord needs more compression than any limit.
        robot = make_robot(length=1e200)
        spec = PipeSpec(inner_radius=robot.nominal_body_radius)
        compressions, tilts, error = module_states(
            robot, spec, (STRAIGHT.radius, 1e300), 0.0
        )
        assert compressions.tolist() == [[5.0, 5.0, 5.0]] and tilts.tolist() == [[0.0] * 3]
        assert str(error) == (
            "bend of radius 1e+300 mm requires inf mm compression on module 0, limit is 16 mm"
        )


def test_config_validation():
    with pytest.raises(ValueError):
        make_robot(preload_compression=17.0)  # above the 16 mm default limit
    with pytest.raises(ValueError, match="preload_compression must be >= 0"):
        make_robot(preload_compression=-1.0)
    with pytest.raises(ValueError):
        make_robot(sprocket_radius=0.0)
    with pytest.raises(ValueError):
        make_robot(max_tilt_deg=-1.0)
