import contextlib
import hashlib
import io
import json
import math
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import (
    DisturbanceConfig,
    ReportOptions,
    ScenarioParseError,
    Straight,
    TRACE_HEADER,
    load_scenario,
    parse_scenario,
    render_report,
    render_sweep_report,
    render_trace,
    run,
    run_orientation_sweep,
    serialize_scenario,
    write_trace,
)
from pipediff.cli import main
from pipediff.scenario import KEYS

from conftest import REFERENCE_SCN, REPO_ROOT

MINIMAL = """\
[pipe]
inner_radius = 13.2

[segment]
type = straight
length = 100.0
axis = 0 0 1

[robot]
sprocket_radius = 25.0
length = 40.0
nominal_body_radius = 13.2
preload_compression = 5.0

[sim]
omega_u = 2.0
"""


def issues_of(text):
    with pytest.raises(ScenarioParseError) as excinfo:
        parse_scenario(text)
    return excinfo.value.issues


class TestParse:
    def test_reference_scenario_is_valid(self, reference_text):
        scenario = parse_scenario(reference_text)
        assert len(scenario.segments) == 4
        assert scenario.sim.dt == 0.01
        assert scenario.report.ape is True

    def test_leading_byte_order_mark_is_dropped(self, tmp_path, capsys):
        path = tmp_path / "bom.scn"
        path.write_bytes(b"\xef\xbb\xbf" + REFERENCE_SCN.read_bytes())
        assert main(["validate", str(path)]) == 0
        assert "OK (4 segments" in capsys.readouterr().out
        assert load_scenario(path) == load_scenario(REFERENCE_SCN)

    def test_minimal_defaults(self):
        scenario = parse_scenario(MINIMAL)
        assert scenario.gear.ratio == 1.0
        assert scenario.robot.spring_stiffness == 2.0
        assert scenario.robot.max_compression == 16.0
        assert scenario.robot.max_tilt_deg == 10.0
        assert scenario.sim.disturbance.amplitude == 0.0
        assert scenario.report == ReportOptions()

    def test_sweep_angle_above_180_is_rejected(self, reference_text):
        text = reference_text.replace("sweep_angle = 180.0", "sweep_angle = 270.0")
        issues = issues_of(text)
        assert any("sweep_angle" in msg for _line, msg in issues)
        # the diagnostic points at the offending line
        lines = text.splitlines()
        for lineno, msg in issues:
            if "sweep_angle" in msg:
                assert "sweep_angle" in lines[lineno - 1]

    def test_missing_pipe_block(self):
        text = MINIMAL.replace("[pipe]\ninner_radius = 13.2\n\n", "")
        issues = issues_of(text)
        assert any("missing [pipe]" in msg for _line, msg in issues)

    def test_unknown_key_is_rejected_with_its_line(self):
        text = MINIMAL + "\n[gear]\nratio = 1.0\nteeth = 12\n"
        issues = issues_of(text)
        (lineno, msg), = [(l, m) for l, m in issues if "unknown key" in m]
        assert "teeth" in msg
        assert text.splitlines()[lineno - 1].startswith("teeth")

    def test_unknown_section(self):
        issues = issues_of(MINIMAL + "\n[motor]\nvolts = 12\n")
        assert any("unknown section" in msg for _line, msg in issues)

    def test_duplicate_key(self):
        text = MINIMAL.replace("omega_u = 2.0", "omega_u = 2.0\nomega_u = 3.0")
        issues = issues_of(text)
        assert any("duplicate key" in msg for _line, msg in issues)

    def test_non_unit_axis(self):
        # 1 + 1e-7 is off by more than the one unit-vector tolerance
        for axis in ("0 0 2", "0 0 1.0000001"):
            text = MINIMAL.replace("axis = 0 0 1", f"axis = {axis}")
            issues = issues_of(text)
            assert any("unit vector" in msg for _line, msg in issues), issues

    def test_discontinuous_chain_is_mapped_to_the_segment_line(self, reference_text):
        text = reference_text.replace("axis = 1 0 0", "axis = 0 0 1")
        issues = issues_of(text)
        assert any("continuity" in msg for _line, msg in issues)

    def test_omega_u_must_be_positive(self):
        issues = issues_of(MINIMAL.replace("omega_u = 2.0", "omega_u = 0.0"))
        assert any("omega_u" in msg for _line, msg in issues)

    def test_disturbance_amplitude_range(self):
        text = MINIMAL.replace("omega_u = 2.0", "omega_u = 2.0\ndisturbance_amplitude = 1.5")
        issues = issues_of(text)
        assert any("disturbance_amplitude" in msg for _line, msg in issues)

    def test_preload_above_limit(self):
        text = MINIMAL.replace("preload_compression = 5.0", "preload_compression = 17.0")
        issues = issues_of(text)
        assert any("preload_compression" in msg for _line, msg in issues)

    def test_report_track_subset(self):
        text = MINIMAL + "\n[report]\ntracks = A C\nape = off\n"
        scenario = parse_scenario(text)
        assert scenario.report.tracks == ("A", "C")
        assert scenario.report.ape is False

    def test_repeated_report_tracks_are_rejected(self):
        text = MINIMAL + "\n[report]\ntracks = A A\n"
        line = text.splitlines().index("tracks = A A") + 1
        assert issues_of(text) == ((line, "tracks: expected a subset of 'A B C', got 'A A'"),)

    def test_readme_key_table_matches_the_schema(self):
        # Rows of the README's scenario key table: (section, key, required).
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        rows = re.findall(r"^\| (\w+) \| `(\w+)` \|.*\| ([^|]*) \|$", readme, re.MULTILINE)
        documented = [(section, key, default.startswith("required"))
                      for section, key, default in rows]
        assert documented == [(key.section, key.name, key.required) for key in KEYS]

    def test_report_segment_indices_validated(self):
        text = MINIMAL + "\n[report]\nsegments = 0 7\n"
        issues = issues_of(text)
        assert any("out of range" in msg for _line, msg in issues)

    def test_axis_defaults_to_the_incoming_tangent(self):
        text = MINIMAL.replace("length = 100.0\naxis = 0 0 1", "length = 100.0")
        scenario = parse_scenario(text)
        assert scenario.segments[0].axis == (0.0, 0.0, 1.0)
        assert scenario.network.start_tangent == (0.0, 0.0, 1.0)


class TestRoundTrip:
    def test_reference_round_trips(self, reference_scenario):
        text = serialize_scenario(reference_scenario)
        assert parse_scenario(text) == reference_scenario

    def test_minimal_round_trips(self):
        scenario = parse_scenario(MINIMAL)
        assert parse_scenario(serialize_scenario(scenario)) == scenario

    def test_round_trip_preserves_overrides(self):
        text = MINIMAL.replace(
            "omega_u = 2.0",
            "omega_u = 2.0\ndt = 0.005\ntheta_deg = 120.0\n"
            "t_max = 30.0\ndisturbance_amplitude = 0.025\ndisturbance_seed = 9",
        )
        scenario = parse_scenario(text)
        assert parse_scenario(serialize_scenario(scenario)) == scenario


def _cross(a, b):
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0])


def _vec(v):
    return " ".join(repr(c) for c in v)


_LABELS = st.text(st.characters(exclude_categories=("Cc", "Cs", "Zl", "Zp")), max_size=20)
_DEFAULT_NORMALS = ((0.0, 1.0, 0.0), (0.0, -1.0, 0.0), (1.0, 0.0, 0.0))


@st.composite
def network_scenarios(draw):
    """Scenario text for a G1 chain, with the tangent each straight must get.

    The chain keeps an orthonormal frame (t, u, w): a bend turns t towards
    some q in +-u, +-w, so its normal is t x q.  Turning only towards +-u
    keeps every bend in the plane with normal +-w = +-y; turning towards
    +-w as well leaves it.  A bend whose normal is the default normal may
    leave it out, each straight states its axis or leaves it to the
    network, and every other optional key and section is drawn present or
    absent.
    """

    def maybe(key, values):
        if draw(st.booleans()):
            lines.append(f"{key} = {draw(values)}")

    planes = draw(st.sampled_from(((0,), (0, 1))))
    t, frame = (0.0, 0.0, 1.0), [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    lines = ["[pipe]", "inner_radius = 13.2"]
    maybe("standard_label", _LABELS)
    maybe("start_tangent", st.just("0 0 1"))
    default_normal = draw(st.sampled_from(_DEFAULT_NORMALS))
    if default_normal != (0.0, 1.0, 0.0) or draw(st.booleans()):
        lines.append(f"default_normal = {_vec(default_normal)}")
    tangents = []
    count = draw(st.integers(1, 8))
    for _ in range(count):
        lines.append("[segment]")
        if draw(st.booleans()):
            lines += ["type = straight", f"length = {draw(st.floats(0.5, 500.0))!r}"]
            if draw(st.booleans()):
                lines.append(f"axis = {_vec(t)}")
            tangents.append(t)
            continue
        plane, sign = draw(st.sampled_from(planes)), draw(st.sampled_from((1.0, -1.0)))
        sweep = draw(st.floats(0.5, 180.0))
        q = tuple(sign * c for c in frame[plane])
        normal = _cross(t, q)
        lines += ["type = bend", f"radius = {draw(st.floats(14.0, 2000.0))!r}",
                  f"sweep_angle = {sweep!r}"]
        if normal != default_normal or draw(st.booleans()):
            lines.append(f"normal = {_vec(normal)}")
        c, s = math.cos(math.radians(sweep)), math.sin(math.radians(sweep))
        t, q = (tuple(c * a + s * b for a, b in zip(t, q)),
                tuple(c * b - s * a for a, b in zip(t, q)))
        frame[plane] = tuple(sign * x for x in q)
    lines += ["[robot]", "sprocket_radius = 25.0", "length = 40.0", "nominal_body_radius = 13.2",
              "preload_compression = 5.0"]
    maybe("spring_stiffness", st.floats(0.1, 10.0).map(repr))
    maybe("max_compression", st.floats(5.0, 40.0).map(repr))
    maybe("max_tilt_deg", st.floats(0.5, 45.0).map(repr))
    if draw(st.booleans()):
        lines.append("[gear]")
        maybe("ratio", st.floats(0.1, 10.0).map(repr))
    lines += ["[sim]", "omega_u = 2.0"]
    maybe("dt", st.sampled_from(("0.01", "0.005", "0.2")))
    maybe("theta_deg", st.floats(-360.0, 360.0).map(repr))
    maybe("t_max", st.floats(0.1, 1000.0).map(repr))
    maybe("disturbance_amplitude", st.sampled_from(("0.0", "0.025")))
    maybe("disturbance_seed", st.integers(0, 2**31).map(str))
    if draw(st.booleans()):
        lines.append("[report]")
        maybe("tracks", st.sampled_from(("A B C", "B", "C A", "b a")))
        indices = st.lists(st.integers(0, count - 1), max_size=3).map(
            lambda idx: " ".join(map(str, idx)))
        maybe("segments", st.one_of(st.just("all"), indices))
        maybe("ape", st.sampled_from(("on", "off", "no", "1")))
    return "\n".join(lines) + "\n", tangents


@settings(max_examples=150, deadline=None)
@given(network_scenarios())
def test_generated_scenarios_round_trip(case):
    text, tangents = case
    scenario = parse_scenario(text)
    assert parse_scenario(serialize_scenario(scenario)) == scenario
    axes = [seg.axis for seg in scenario.segments if isinstance(seg, Straight)]
    assert len(axes) == len(tangents)
    for axis, tangent in zip(axes, tangents):
        assert axis == pytest.approx(tangent, abs=1e-9)


REFERENCE_TEXT = REFERENCE_SCN.read_text(encoding="utf-8")
REFERENCE_BYTES = REFERENCE_TEXT.encode("utf-8")
_VALUES = st.sampled_from(
    ("-1", "0", "nan", "inf", "1e400", "-0", "0 0 1", "1 0", "A B", "all", "on", "", "9" * 30)
)


@st.composite
def mutated_reference(draw):
    """The reference file with a few lines replaced, blanked or re-valued."""
    lines = REFERENCE_TEXT.splitlines()
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines) - 1))
        key, sep, _value = lines[i].partition("=")
        if sep and draw(st.booleans()):
            lines[i] = f"{key}= {draw(st.one_of(_VALUES, st.text(max_size=12)))}"
        else:
            lines[i] = draw(st.text(max_size=30))
    return "\n".join(lines)


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.text(max_size=200).map(lambda s: s.encode("utf-8")),
    mutated_reference().map(lambda s: s.encode("utf-8")),
    st.binary(max_size=200),
    st.tuples(st.integers(0, len(REFERENCE_BYTES)), st.binary(min_size=1, max_size=3)).map(
        lambda edit: REFERENCE_BYTES[:edit[0]] + edit[1] + REFERENCE_BYTES[edit[0]:]
    ),
))
def test_validate_answers_every_input_with_an_exit_code(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.scn"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["validate", str(path)])
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().startswith("error: ")


class TestTraceCsv:
    def test_header_only_for_empty_trace(self):
        assert render_trace([]) == TRACE_HEADER + "\n"

    def test_single_record_has_19_columns(self, reference_run):
        records, _ = reference_run
        text = render_trace(records[:1])
        lines = text.splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) == 2
        assert len(lines[1].split(",")) == 19

    def test_row_count_matches_run_length(self, reference_run):
        records, summary = reference_run
        # records = ceil(T/dt) + 1 where T is the true traversal time
        import math

        steps = math.ceil(summary.total_length / summary.nominal_speed / summary.dt)
        assert len(records) == steps + 1

    def test_byte_deterministic(self, reference_run, tmp_path):
        records, _ = reference_run
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        write_trace(records, a)
        write_trace(records, b)
        assert a.read_bytes() == b.read_bytes()

    def test_write_failure_names_the_path(self, reference_run, tmp_path):
        records, _ = reference_run
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            write_trace(records, target)

    def test_fixed_six_decimal_formatting(self, reference_run):
        records, _ = reference_run
        row = render_trace(records[:1]).splitlines()[1].split(",")
        assert row[0] == "0.000000"
        assert row[4] == "35.000000"

    # The trace CSV is a byte contract: SHA-256 of the reference trace at
    # each roll orientation (the same digests the benchmark checks).
    REFERENCE_TRACE_SHA256 = {
        0.0: "570ebc14659e197c04db0755c397183424d6aa2f0016caacd118e268a955c3c0",
        120.0: "503d55f64beb64be7ac9321c30cb0a46fc3b78520b76bd7d40aca80b3990b9ba",
        240.0: "639e0e6f89864ae050714d40df75d9ae1eda47655b29471d69aef88662e24393",
    }

    @pytest.mark.parametrize("theta", sorted(REFERENCE_TRACE_SHA256))
    def test_reference_trace_bytes_are_pinned(self, reference_scenario, theta):
        sc = reference_scenario
        records, _ = run(sc.network, sc.robot, sc.gear, replace(sc.sim, theta_deg=theta))
        digest = hashlib.sha256(render_trace(records).encode("utf-8")).hexdigest()
        assert digest == self.REFERENCE_TRACE_SHA256[theta]

    def test_disturbed_trace_bytes_are_pinned(self, reference_scenario):
        # Pins which disturbance draw reaches which record: the reference at
        # theta = 120 deg with a 2.5 % disturbance, seed 7.
        sc = reference_scenario
        sim = replace(sc.sim, theta_deg=120.0, disturbance=DisturbanceConfig(0.025, 7))
        records, _ = run(sc.network, sc.robot, sc.gear, sim)
        digest = hashlib.sha256(render_trace(records).encode("utf-8")).hexdigest()
        assert digest == "657532888c940c81c0d44727afcd535ff89fca03347c570b39ecedd080127f4e"


class TestReports:
    def test_disturbed_sweep_report_bytes_are_pinned(self, reference_scenario):
        # The JSON report of an 8-orientation sweep with a 2.5 % disturbance,
        # base seed 7: every orientation's disturbed summary, byte for byte.
        sc = reference_scenario
        sim = replace(sc.sim, disturbance=DisturbanceConfig(0.025, 7))
        results = run_orientation_sweep(sc.network, sc.robot, sc.gear, sim, 8)
        text = render_sweep_report(results, sc.report, fmt="json")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "7639f70f8376c232e4c98bd3120ed4759eb7bcd23f591468a5b9f4d57c2a3828"

    def test_disturbed_sweep_text_report_bytes_are_pinned(self, reference_scenario):
        # The same sweep as the JSON pin above, as the text table.
        sc = reference_scenario
        sim = replace(sc.sim, disturbance=DisturbanceConfig(0.025, 7))
        results = run_orientation_sweep(sc.network, sc.robot, sc.gear, sim, 8)
        text = render_sweep_report(results, sc.report, fmt="text")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "9e16a1d8db8b847508ea875aee0db1b8af2acabcbf5885d1867cd40f7fc9db0c"

    def test_reference_text_report_bytes_are_pinned(self, reference_run, reference_scenario):
        # The text report of the reference run at theta = 0.
        _, summary = reference_run
        text = render_report(summary, reference_scenario.report, fmt="text")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "3e1889ecbdf9b71f15faa8c52cce2716237053425affe8bfa5d48891be5e28a2"

    def test_text_report_lists_the_published_timings(self, reference_run, reference_scenario):
        _, summary = reference_run
        text = render_report(summary, reference_scenario.report, fmt="text")
        assert "run completed" in text
        assert "9.000" in text  # vertical exit
        assert "24.0" in text  # elbow exit
        assert "60.0" in text  # total traversal
        assert "33.621" in text  # inner-track elbow speed

    def test_zero_disturbance_report_shows_zero_ape(self, reference_run, reference_scenario):
        _, summary = reference_run
        payload = json.loads(render_report(summary, reference_scenario.report, fmt="json"))
        for segment in payload["segments"]:
            for track in segment["tracks"].values():
                assert track["ape_pct"] == 0.0

    def test_json_schema_keys(self, reference_run, reference_scenario):
        _, summary = reference_run
        payload = json.loads(render_report(summary, reference_scenario.report, fmt="json"))
        assert set(payload) == {"run", "segments", "tracks", "limits"}
        assert payload["run"]["completed"] is True
        assert payload["limits"]["min_compression_headroom_mm"] >= 0.0
        assert payload["limits"]["min_tilt_headroom_deg"] >= 0.0
        for segment in payload["segments"]:
            assert segment["compression_headroom_mm"] >= 0.0
            assert segment["tilt_headroom_deg"] >= 0.0
        assert [seg["index"] for seg in payload["segments"]] == [0, 1, 2, 3]
        assert [t["name"] for t in payload["tracks"]] == ["A", "B", "C"]

    def test_report_options_filter_tracks_and_segments(self, reference_run):
        _, summary = reference_run
        options = ReportOptions(tracks=("B",), segments=(1,), ape=False)
        payload = json.loads(render_report(summary, options, fmt="json"))
        assert [seg["index"] for seg in payload["segments"]] == [1]
        assert list(payload["segments"][0]["tracks"]) == ["B"]
        assert "ape_pct" not in payload["segments"][0]["tracks"]["B"]
        assert "max_ape_pct" not in payload["tracks"][0]

    def test_disturbed_report_ape_stays_at_the_error_scale(self, reference_scenario):
        import dataclasses
        import math

        from pipediff import DisturbanceConfig, segment_length

        sc = reference_scenario
        sim = dataclasses.replace(
            sc.sim, disturbance=DisturbanceConfig(amplitude=0.025, seed=42)
        )
        net = sc.network
        records, summary = run(net, sc.robot, sc.gear, sim)
        payload = json.loads(render_report(summary, sc.report, fmt="json"))
        for segment in payload["segments"]:
            for track in segment["tracks"].values():
                assert 0.0 < track["ape_pct"] <= 2.5 + 1e-9

        # oracle: recompute the windowed APE directly from the raw trace
        for segment in payload["segments"]:
            index = segment["index"]
            start = net.arc_start(index)
            length = segment_length(net.segments[index])
            lo, hi = start + 0.1 * length, start + 0.9 * length
            window = [r for r in records if r.segment == index and lo <= r.s <= hi]
            for name, i in (("A", 0), ("B", 1), ("C", 2)):
                expected = math.fsum(
                    100.0 * abs(r.v[i] - r.v_theo[i]) / r.v_theo[i] for r in window
                ) / len(window)
                assert segment["tracks"][name]["ape_pct"] == pytest.approx(
                    expected, rel=1e-12
                )

    def test_unknown_format_is_rejected(self, reference_run):
        _, summary = reference_run
        with pytest.raises(ValueError):
            render_report(summary, fmt="xml")
