import collections
import contextlib
import hashlib
import io
import json
import math
import random
import re
import tracemalloc
from dataclasses import fields, replace
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import (
    ReportOptions,
    RunSummary,
    ScenarioParseError,
    SegmentColumns,
    SimParams,
    Straight,
    TRACE_HEADER,
    Trace,
    TrackTotals,
    load_scenario,
    parse_scenario,
    render_report,
    render_sweep_report,
    render_trace,
    run,
    run_orientation_sweep,
    serialize_scenario,
)
from pipediff import report, simulator
from pipediff.cli import main
from pipediff.scenario import KEYS

from conftest import REFERENCE_SCN, REPO_ROOT
from reference_report import (
    reference_json_report,
    reference_json_sweep_report,
    reference_text_report,
)
from reference_stepper import reference_csv

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
        assert scenario.sim.disturbance_amplitude == 0.0
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

    def test_duplicate_sections_are_reported_at_their_headers(self):
        # [segment] repeats by design; a second [sim] or [robot] is reported
        # at its header, and its keys belong to no section.
        extra = "[sim]\ndt = 0.1\n[segment]\ntype = straight\nlength = 5.0\n[robot]\n"
        sim = len(MINIMAL.splitlines()) + 1  # the second [sim]'s line
        assert list(issues_of(MINIMAL + extra)) == [(sim, "duplicate section [sim]"),
                                                    (sim + 1, "key outside of any section"),
                                                    (sim + 5, "duplicate section [robot]")]

    def test_non_unit_axis(self):
        # 1 + 1e-7 is off by more than the one unit-vector tolerance
        for axis in ("0 0 2", "0 0 1.0000001"):
            text = MINIMAL.replace("axis = 0 0 1", f"axis = {axis}")
            issues = issues_of(text)
            assert any("unit vector" in msg for _line, msg in issues), issues

    def test_a_vector_norm_neither_overflows_nor_underflows(self):
        for axis, norm in (("1e200 0 0", "1e+200"), ("3e-200 4e-200 0", "5e-200")):
            text = MINIMAL.replace("axis = 0 0 1", f"axis = {axis}")
            assert issues_of(text) == ((7, f"axis: must be a unit vector, norm is {norm}"),)

    def test_the_parser_applies_the_networks_unit_rule(self):
        # sqrt of the sum of squares is 1.0000000009999999 here, within the
        # tolerance; math.hypot, which the network takes, gives 1.000000001.
        axis = "-0.39421690204903126 -0.8515633431589935 -0.3455906664346459"
        text = MINIMAL.replace("axis = 0 0 1", f"axis = {axis}")
        assert issues_of(text) == ((7, "axis: must be a unit vector, norm is 1.000000001"),)

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

    def test_sim_params_fields_are_the_sim_keys(self):
        # Each [sim] key fills the SimParams field of its own name, in order.
        sim_keys = [key for key in KEYS if key.section == "sim"]
        assert [f.name for f in fields(SimParams)] == [key.name for key in sim_keys]
        assert all(key.owner is SimParams and not key.attr for key in sim_keys)

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
        for path in (a, b):
            with report.trace_writer(path) as write:
                write(records)
        assert a.read_bytes() == b.read_bytes() == render_trace(records).encode()

    def test_write_failure_names_the_path(self, reference_run, tmp_path):
        records, _ = reference_run
        target = tmp_path / "missing" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            with report.trace_writer(target) as write:
                write(records)

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
        sim = replace(sc.sim, theta_deg=120.0, disturbance_amplitude=0.025, disturbance_seed=7)
        records, _ = run(sc.network, sc.robot, sc.gear, sim)
        digest = hashlib.sha256(render_trace(records).encode("utf-8")).hexdigest()
        assert digest == "9a5c6a76044cc0946d6c0410ce6e56287f57993b75127ff8e296f288bb8804b7"


def hand_trace(n, theta_deg=0.0, **columns):
    """An n-row ``Trace``: the given columns, zeros in the others.  Per
    segment it holds the rows ``speeds`` and ``compressions``, one for each
    segment up to the last indexed; ``v_disturbed`` makes its speeds move."""
    columns = {"t": np.zeros(n), "s": np.zeros(n), "segment": np.zeros(n, dtype=int),
               "distance": np.zeros((n, 3))} | columns
    m = int(columns["segment"].max(initial=0)) + 1
    rows = {"speeds": np.zeros((m, 3)), "compressions": np.zeros((m, 3))}
    return Trace(theta_deg=theta_deg, **(rows | columns))


def assert_matches_the_oracle(trace):
    """``render_trace`` writes the values that hold over a segment once per
    segment; the oracle formats every value on its own.  Lines are compared
    so that a mismatch reports its first differing row."""
    assert render_trace(trace).split("\n") == reference_csv(trace).split("\n")


def declined_blocks(trace) -> list:
    """``(values, declined)`` for each block that ``_fields`` declines values
    of while ``trace`` is checked against the oracle: those values, and only
    those, it spells by ``%``."""
    blocks, fields_of = [], report._fields

    def spy(values, end):
        fields, declined = fields_of(values, end)
        if declined.any():
            blocks.append((values, declined))
        return fields, declined

    with mock.patch.object(report, "_fields", spy):
        assert_matches_the_oracle(trace)
    return blocks


class TestTraceCsvRuns:
    @pytest.mark.parametrize("n", [0, 1])
    def test_empty_and_one_row_traces(self, n):
        trace = hand_trace(n, theta_deg=120.0, t=np.full(n, 0.5), speeds=np.full((1, 3), 35.0))
        assert_matches_the_oracle(trace)

    def test_signed_zeros_stay_apart_in_held_rows_and_in_moving_columns(self):
        signs = np.array([0.0, -0.0, -0.0, 0.0, 0.0, -0.0])
        rows = np.column_stack((signs, -signs, np.zeros(6)))
        # One segment per record: ``v``, ``v_theo`` and ``compression`` held.
        held = hand_trace(6, segment=np.arange(6), speeds=rows, compressions=-rows)
        # One segment: ``t`` and ``v`` move.
        moving = hand_trace(6, t=signs, v_disturbed=rows)
        for trace in (held, moving):
            assert_matches_the_oracle(trace)
            assert "-0.000000" in render_trace(trace)

    @pytest.mark.parametrize("case", ["held", "moving", "moving speeds"])
    def test_nan_and_infinities_format_as_the_oracle(self, case):
        values = np.array([np.nan, np.nan, np.inf, -np.inf, -np.inf, np.nan])
        rows = np.column_stack((values,) * 3)
        if case == "held":  # spelled once per segment; the moving values are finite
            trace = hand_trace(6, segment=np.arange(6), speeds=rows, compressions=rows)
        elif case == "moving":
            trace = hand_trace(6, s=values, compressions=rows[:1])
        else:
            trace = hand_trace(6, v_disturbed=rows, speeds=np.full((1, 3), 35.0))
        # Held or moving, the values that ``_fields`` declines are the
        # non-finite ones, which ``%`` spells.
        blocks = declined_blocks(trace)
        assert blocks
        for values, declined in blocks:
            np.testing.assert_array_equal(declined, ~np.isfinite(values))

    def test_runs_crossing_a_chunk_boundary(self):
        n = 2 * report._CHUNK_ROWS + 7
        segment = np.repeat([0, 1, 2], [report._CHUNK_ROWS - 3, report._CHUNK_ROWS + 6, 4])
        speeds = np.array([[35.0] * 3, [33.6211, 35.0, 36.3789], [35.0] * 3])
        # Only track C's compression changes between segments 0 and 1.
        compressions = np.array([[5.25] * 3, [5.25, 5.25, 6.75], [5.25] * 3])
        trace = hand_trace(n, t=np.arange(n) * 0.01, segment=segment, speeds=speeds,
                           compressions=compressions,
                           distance=np.cumsum(speeds[segment] * 0.01, axis=0))
        assert_matches_the_oracle(trace)

    def test_a_column_where_every_value_differs(self):
        rng = np.random.default_rng(5)
        n = report._CHUNK_ROWS + 40
        v = 35.0 * (1.0 + 0.025 * rng.uniform(-1.0, 1.0, size=(n, 3)))
        trace = hand_trace(n, t=np.arange(n) * 0.01, v_disturbed=v,
                           speeds=np.full((1, 3), 35.0), distance=np.cumsum(v * 0.01, axis=0))
        assert_matches_the_oracle(trace)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        n=st.integers(0, 40),
        chunk_rows=st.integers(1, 9),
        theta_deg=st.sampled_from((0.0, -0.0, 120.0, 359.9999995)),
    )
    def test_small_traces_with_few_distinct_values(self, data, n, chunk_rows, theta_deg):
        # Each moving column repeats one to three rows drawn from a small
        # pool, so it has long runs, runs across the small chunks, and
        # neighbours that differ only in sign or in the last formatted digit.
        # The four segments' rows come from the same pool.
        pool = st.sampled_from(
            (0.0, -0.0, 1.0, 35.0, 33.6211, 2.5e-7, 5e-7, 1e300, -1e-300, math.nan, math.inf))

        def column(width, size=n):
            rows = data.draw(st.lists(st.lists(pool, min_size=width, max_size=width),
                                      min_size=1, max_size=3))
            picks = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=size,
                                       max_size=size))
            return np.array([rows[i] for i in picks], dtype=float).reshape(size, width)

        segments = sorted(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
        moving = {"v_disturbed": column(3)} if data.draw(st.booleans()) else {}
        trace = hand_trace(n, theta_deg, t=column(1)[:, 0], s=column(1)[:, 0],
                           segment=np.array(segments, dtype=int), distance=column(3),
                           speeds=column(3, 4), compressions=column(3, 4), **moving)
        with mock.patch.object(report, "_CHUNK_ROWS", chunk_rows):
            assert_matches_the_oracle(trace)

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        runs=st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)), max_size=8),
        chunk_rows=st.integers(1, 9),
    )
    def test_columns_that_change_with_the_segment_or_apart_from_it(self, data, runs, chunk_rows):
        # Segment runs in any order, repeating after a gap, each with its
        # segment's rows.  Each moving column changes where the segment
        # does, at chunk boundaries, at rows of its own, or at any mix of
        # these, so it may hold over each segment run in one chunk and move
        # inside a run in the next.
        segment = np.repeat([index for index, _ in runs], [rows for _, rows in runs]).astype(int)
        n = len(segment)
        rows = np.arange(n)
        segment_changes = np.concatenate(([True], segment[1:] != segment[:-1]))[:n]
        pool = st.sampled_from((0.0, -0.0, 35.0, 33.6211, 5e-7, math.nan, -math.inf))

        def values(size):
            return np.array(data.draw(st.lists(st.lists(pool, min_size=3, max_size=3),
                                               min_size=size, max_size=size)), dtype=float)

        def column():
            changes = np.isin(rows, data.draw(st.lists(st.integers(0, 40), max_size=3)))
            if data.draw(st.booleans()):
                changes |= segment_changes
            if data.draw(st.booleans()):
                changes |= rows % chunk_rows == 0
            pieces = np.cumsum(changes)
            return values(int(pieces[-1]) + 1 if n else 1)[pieces]

        moving = {"v_disturbed": column()} if data.draw(st.booleans()) else {}
        trace = hand_trace(n, 120.0, t=rows * 0.25, s=rows * -1e-7, segment=segment,
                           distance=column(), speeds=values(4), compressions=values(4), **moving)
        with mock.patch.object(report, "_CHUNK_ROWS", chunk_rows):
            assert_matches_the_oracle(trace)

    def test_a_disturbed_reference_run(self, reference_scenario):
        # v and slip move on every row; v_theo and compression hold per segment.
        sc = reference_scenario
        sim = replace(sc.sim, disturbance_amplitude=0.025, disturbance_seed=7)
        trace, _ = run(sc.network, sc.robot, sc.gear, sim)
        assert_matches_the_oracle(trace)

    def test_an_empty_sequence_gives_the_header_alone(self):
        assert render_trace([]) == TRACE_HEADER + "\n"


def ulps_away(x: float, k: int) -> float:
    """``x`` moved ``k`` units in the last place, up for ``k > 0``."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def is_tie(x: float) -> bool:
    """Whether the exact ``|x| * 10**6`` is a half-integer, which ``%``
    rounds to even: ``x`` is an odd multiple of 2**-7."""
    twice = Fraction(abs(x)) * 2 * 10**6
    return twice.denominator == 1 and twice.numerator % 2 == 1


def must_fall_back(x: float) -> bool:
    """Whether the trace writer must leave ``x`` to ``%``: it is not finite,
    reaches 2**52 micro-units or is an exact tie, whose float product
    ``|x| * 1e6`` is the half-integer itself."""
    if not math.isfinite(x) or Fraction(abs(x)) * 10**6 >= 2**52:
        return True
    return is_tie(x)


def may_fall_back(x: float) -> bool:
    """A wide margin around ``must_fall_back``: a finite ``x`` off it has at
    most 2**48 micro-units, at least 2**-46 of their count from a tie."""
    if not math.isfinite(x):
        return True
    micro = Fraction(abs(x)) * 10**6
    return micro >= 2**48 or abs(micro - math.floor(micro) - Fraction(1, 2)) <= micro / 2**46


# Values where reading '%.6f' off rint(|x| * 1e6) is hardest: exact ties and
# their neighbours, signed zeros and values that round to -0.000000,
# subnormals, powers of ten, the 2**52 micro-unit limit, and non-finite ones.
EDGE_VALUES = st.builds(
    lambda centre, k, sign: sign * ulps_away(centre, k),
    st.integers(0, 2**30).map(lambda k: (2 * k + 1) * 2.0 ** -7)
    | st.integers(-8, 16).map(lambda k: 10.0 ** k)
    | st.just(2.0 ** 52 / 1e6)
    | st.floats(0.0, 5e-7)
    | st.floats(0.0, 2.0 ** -1022)
    | st.floats(0.0, 1e4),
    st.integers(-2, 2),
    st.sampled_from((1.0, -1.0)),
) | st.sampled_from((0.0, -0.0, math.nan, math.inf, -math.inf)) | st.floats()


class TestFieldFormatter:
    @settings(max_examples=400, deadline=None)
    @given(values=st.lists(EDGE_VALUES, min_size=1, max_size=4),
           end=st.sampled_from((b",", b"\n")))
    def test_fields_spell_what_percent_spells_or_decline(self, values, end):
        row = np.array([values])
        seps = [b","] * (len(values) - 1) + [end]
        percent = [b"%.6f%s" % (x, sep) for x, sep in zip(values, seps)]
        fields, declined = report._fields(row, end)
        for x, field, text, out in zip(values, fields[0], percent, declined[0].tolist()):
            assert may_fall_back(x) if out else not must_fall_back(x)
            # One speller: every value as ``%`` spells it, declined or not.
            assert field.tobytes().translate(None, b"\0") == text
        # In a trace, the values that the formatter declines are the ones
        # that ``%`` spells.
        blocks = declined_blocks(hand_trace(len(values), t=row[0]))
        assert [repr(x) for values, out in blocks for x in values[out].tolist()] == \
            [repr(x) for x, out in zip(values, declined[0].tolist()) if out]

    @staticmethod
    def three_chunks_with(value):
        """A three-chunk trace with ``value`` at one ``t`` of the middle chunk."""
        n = 3 * report._CHUNK_ROWS
        t = np.arange(n) * 0.01
        t[report._CHUNK_ROWS + 5] = value
        distance = np.cumsum(np.full((n, 3), 0.35), axis=0)
        return hand_trace(n, t=t, speeds=np.full((1, 3), 35.0), distance=distance)

    @pytest.mark.parametrize("value", [0.0078125, -0.0078125, 2.0 ** 52 / 1e6, math.nan])
    def test_one_unsafe_value_sends_only_its_chunk_to_percent(self, value):
        # Only the value itself, in the middle chunk, is declined.
        trace = self.three_chunks_with(value)
        [(values, declined)] = declined_blocks(trace)
        np.testing.assert_array_equal(values[:, 0],
                                      trace.t[report._CHUNK_ROWS:2 * report._CHUNK_ROWS])
        assert declined.sum() == 1 and declined[5, 0]

    @pytest.mark.parametrize("value", [ulps_away(0.0078125, 1), ulps_away(1.0234375, -2)])
    def test_a_value_ulps_from_a_tie_is_spelled_by_fields(self, value):
        # Its float product |x| * 1e6 is not a half-integer, so ``rint``
        # rounds it as ``%`` rounds the exact product.
        fields, declined = report._fields(np.array([[value]]), b"\n")
        assert fields[0, 0].tobytes().translate(None, b"\0") == ("%.6f\n" % value).encode()
        assert not declined.any()
        assert declined_blocks(self.three_chunks_with(value)) == []


def many_segment_scenario(seed: int, amplitude: float, segments: int = 200) -> str:
    """A seeded planar network of ``segments`` short alternating straights
    and bends.

    At dt = 0.2 s and 35 mm/s each segment holds 6 to 39 records, so
    one 512-row chunk of the trace CSV crosses dozens of segment boundaries.
    Radii of 200-400 mm keep the robot inside its limits; the roll of 30 deg
    gives the three tracks three different speeds in every bend.
    """
    rng = random.Random(seed)
    lines = ["[pipe]", "inner_radius = 13.2", "start_tangent = 0 0 1", "default_normal = 0 1 0"]
    for k in range(segments):
        lines.append("[segment]")
        if k % 2 == 0:
            lines += ["type = straight", f"length = {rng.uniform(40.0, 120.0):.3f}"]
        else:
            lines += ["type = bend", f"radius = {rng.uniform(200.0, 400.0):.3f}",
                      f"sweep_angle = {rng.uniform(10.0, 40.0):.3f}"]
    lines += ["[robot]", "sprocket_radius = 17.5", "length = 61.0", "nominal_body_radius = 13.2",
              "preload_compression = 5.0", "spring_stiffness = 2.0", "max_compression = 16.0",
              "max_tilt_deg = 10.0",
              "[sim]", "omega_u = 2.0", "dt = 0.2", "theta_deg = 30.0",
              f"disturbance_amplitude = {amplitude!r}", "disturbance_seed = 3"]
    return "\n".join(lines) + "\n"


class TestManySegmentPins:
    # SHA-256 of the trace CSV and of the JSON report of the network above,
    # undisturbed and with a 2.5 % disturbance.
    PINS = {
        0.0: ("b286b95b24c00ebcdd2ca49681874303969b66949adbfe34a2480bedc59e0d91",
              "ba936dd710eae0656783082f0c81c8c28eba366cefab3dd2b36cb8673adebb5b"),
        0.025: ("ba7063a2ea5047d50da0b9463057028e193a49578f4629e1dba5a7130a743c2e",
                "ea373221c7169cb524cecbc79dd30c6fe05c9bf3de1a5bb7bd9ec0cd8e74375a"),
    }

    def test_undisturbed_speeds_are_the_demands_bit_for_bit(self):
        # The differential delivers the demanded speeds as they are: a
        # round trip through rad/s, (v / r) * r, moves some of them an ulp.
        sc = parse_scenario(many_segment_scenario(11, 0.0))
        trace, summary = run(sc.network, sc.robot, sc.gear, sc.sim)
        assert np.array_equal(trace.v, trace.v_theo) and not trace.slip.any()
        assert summary.max_slip == 0.0
        assert all(ape == 0.0 for column in summary.segments.ape for ape in column)

    @pytest.mark.parametrize("amplitude", sorted(PINS))
    def test_trace_and_json_report_bytes_are_pinned(self, amplitude):
        sc = parse_scenario(many_segment_scenario(11, amplitude))
        records, summary = run(sc.network, sc.robot, sc.gear, sc.sim)
        assert summary.completed and len(summary.segments.index) == 200
        assert len(records) > 3 * 512
        digests = tuple(
            hashlib.sha256(text.encode("utf-8")).hexdigest()
            for text in (render_trace(records), render_report(summary, sc.report, fmt="json"))
        )
        assert digests == self.PINS[amplitude]

    @pytest.mark.parametrize("block_rows", [50, simulator.BLOCK_ROWS])
    @pytest.mark.parametrize("amplitude", sorted(PINS))
    def test_the_streamed_trace_is_pinned_and_each_block_spells_its_own_segments(
            self, amplitude, block_rows, tmp_path, monkeypatch):
        sc = parse_scenario(many_segment_scenario(11, amplitude))
        monkeypatch.setattr(simulator, "BLOCK_ROWS", block_rows)
        path, spans = tmp_path / "t.csv", []
        with mock.patch.object(report, "_held", wraps=report._held) as held:
            with report.trace_writer(path) as write:
                def keep(block):
                    if len(block):
                        spans.append((int(block.segment.min()), int(block.segment.max()) + 1))
                    write(block)

                run(sc.network, sc.robot, sc.gear, sc.sim, keep=keep)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.PINS[amplitude][0]
        assert [call.args[1:] for call in held.call_args_list] == spans

    @pytest.mark.parametrize("amplitude", sorted(PINS) + [0.1, 0.3, 0.9])
    def test_stepping_passes_follow_the_records_not_the_segments(self, amplitude):
        # One stepping block spans as many of the 200 segments as its records
        # reach, so the passes are bounded by the record count alone.  Every
        # block re-guesses its segments until the guess settles, so a strong
        # disturbance does not cost extra passes either.
        sc = parse_scenario(many_segment_scenario(11, amplitude))
        with mock.patch.object(simulator, "_step_block", wraps=simulator._step_block) as step:
            records, summary = run(sc.network, sc.robot, sc.gear, sc.sim)
        assert summary.completed
        assert step.call_count <= math.ceil(len(records) / (simulator.BLOCK_ROWS - 2)) + 2


class TestReports:
    def test_disturbed_sweep_report_bytes_are_pinned(self, reference_scenario):
        # The JSON report of an 8-orientation sweep with a 2.5 % disturbance,
        # base seed 7: every orientation's disturbed summary, byte for byte.
        sc = reference_scenario
        sim = replace(sc.sim, disturbance_amplitude=0.025, disturbance_seed=7)
        summaries = run_orientation_sweep(sc.network, sc.robot, sc.gear, sim, 8)
        text = render_sweep_report(summaries, sc.report, fmt="json")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "33f678b4ddfa5785083f0eefa004a92cfc5de3e38584f920c8298f59bb15c8b3"

    def test_disturbed_sweep_text_report_bytes_are_pinned(self, reference_scenario):
        # The same sweep as the JSON pin above, as the text table.
        sc = reference_scenario
        sim = replace(sc.sim, disturbance_amplitude=0.025, disturbance_seed=7)
        summaries = run_orientation_sweep(sc.network, sc.robot, sc.gear, sim, 8)
        text = render_sweep_report(summaries, sc.report, fmt="text")
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == "92521a592d0f229af32c6f5e96d5ee81ac1b9a0762b5268e492ec4bbd9abbb5a"

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

        sc = reference_scenario
        sim = dataclasses.replace(
            sc.sim, disturbance_amplitude=0.025, disturbance_seed=42
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
            start = net.starts[index]
            length = net.segments[index].length
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

    def test_unknown_sweep_format_is_rejected(self, reference_run):
        _, summary = reference_run
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            render_sweep_report([summary], fmt="xml")

    def test_an_unknown_format_is_rejected_before_a_piece_is_spelled(self, reference_run):
        # So a writer never opens its output for a format that fails.
        _, summary = reference_run
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            report.report_pieces(summary, fmt="xml")
        with pytest.raises(ValueError, match="unknown report format 'xml'"):
            report.sweep_report_pieces([summary], fmt="xml")

    def test_the_json_pieces_of_a_long_run_hold_under_half_its_report(self):
        # 1,000 segments: the rows are spelled 128 at a time, so taking the
        # pieces one by one holds a fraction of the report, where the joined
        # text holds every piece and the whole text at once.
        sc = parse_scenario(many_segment_scenario(5, 0.0, segments=1000))
        _, summary = run(sc.network, sc.robot, sc.gear, sc.sim)
        assert summary.completed and len(summary.segments.index) == 1000
        length = len(render_report(summary, sc.report, fmt="json"))

        def peak(spell):
            tracemalloc.start()
            try:
                spell()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        streamed = peak(lambda: collections.deque(
            report.report_pieces(summary, sc.report, "json"), maxlen=0))
        joined = peak(lambda: render_report(summary, sc.report, fmt="json"))
        assert streamed < length / 2 < 2 * length < joined

    def test_text_report_names_a_t_max_stop(self, reference_scenario):
        sc = reference_scenario
        _, summary = run(sc.network, sc.robot, sc.gear, replace(sc.sim, t_max=5.0))
        lines = render_report(summary, sc.report).splitlines()
        assert lines[:2] == ["run stopped: t = 5.000 s over 2102.279 mm of pipe",
                             "stop reason: t_max"]


# Floats the JSON emitter must spell as json.dumps does: non-finite values,
# signed zeros, subnormals, integral values and digits near repr's limits.
report_floats = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e16, 1e22, 0.1)),
    st.floats(allow_nan=True, allow_infinity=True),
)
# Text with quotes, backslashes, control characters, non-ASCII and "%s".
report_texts = st.text(alphabet=st.sampled_from('ab%s "\\\n\t\x00\x7f\u00e9\u2028\U0001f600'),
                       max_size=8)
maybe_floats = st.one_of(st.none(), report_floats)


@st.composite
def report_summaries(draw):
    """A ``RunSummary`` of arbitrary values, within the types a run gives."""
    m = draw(st.integers(0, 4))  # segments

    def column(values):
        return tuple(draw(values) for _ in range(m))

    def per_track(values):
        return tuple(column(values) for _ in range(3))

    segments = SegmentColumns(
        index=column(st.integers(0, 5)),
        kind=column(st.one_of(st.sampled_from(("straight", "bend 90deg")), report_texts)),
        length=column(report_floats),
        entry_time=column(report_floats),
        exit_time=column(report_floats),
        mean_speeds=per_track(report_floats),
        min_speeds=per_track(report_floats),
        max_speeds=per_track(report_floats),
        ape=per_track(maybe_floats),
        max_compression=column(report_floats),
        max_tilt_deg=column(report_floats),
        compression_headroom_mm=column(report_floats),
        tilt_headroom_deg=column(report_floats),
    )
    tracks = tuple(
        TrackTotals(name, draw(report_floats), draw(report_floats), draw(report_floats),
                    draw(maybe_floats))
        for name in "ABC"
    )
    error = draw(st.one_of(st.none(), report_texts))
    return RunSummary(
        completed=draw(st.booleans()),
        stop_reason=draw(st.one_of(st.none(), st.just("t_max"), report_texts)),
        error=error,
        total_time=draw(report_floats),
        total_length=draw(report_floats),
        effective_path=draw(maybe_floats),
        nominal_speed=draw(report_floats),
        theta_deg=draw(report_floats),
        dt=draw(report_floats),
        disturbance_amplitude=draw(report_floats),
        disturbance_seed=draw(st.integers(0, 2**64)),
        max_slip=draw(report_floats),
        max_compression=draw(report_floats),
        segments=segments,
        tracks=tracks,
    )


@st.composite
def report_options(draw):
    """Any subset of the tracks in any order, APE on or off, any segments."""
    tracks = draw(st.permutations("ABC"))[:draw(st.integers(0, 3))]
    segments = draw(st.one_of(st.none(), st.lists(st.integers(0, 5), max_size=4).map(tuple)))
    return ReportOptions(tracks=tuple(tracks), segments=segments, ape=draw(st.booleans()))


class TestJsonReportAgainstJsonDumps:
    """The template emitter against ``json.dumps`` in reference_report."""

    @settings(max_examples=200, deadline=None)
    @given(summary=report_summaries(), options=report_options())
    def test_run_report_bytes(self, summary, options):
        assert render_report(summary, options, fmt="json") == reference_json_report(
            summary, options)

    @settings(max_examples=100, deadline=None)
    @given(summaries=st.lists(report_summaries(), max_size=3), options=report_options())
    def test_sweep_report_bytes(self, summaries, options):
        assert render_sweep_report(summaries, options, fmt="json") == (
            reference_json_sweep_report(summaries, options))

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_many_segment_run_and_sweep(self, amplitude):
        sc = parse_scenario(many_segment_scenario(5, amplitude))
        _, summary = run(sc.network, sc.robot, sc.gear, sc.sim)
        options = ReportOptions(tracks=("C", "A"), segments=(0, 7, 199), ape=True)
        for opts in (sc.report, options):
            assert render_report(summary, opts, fmt="json").split("\n") == (
                reference_json_report(summary, opts).split("\n"))
        summaries = [summary, replace(summary, theta_deg=-0.0)]
        assert render_sweep_report(summaries, sc.report, fmt="json").split("\n") == (
            reference_json_sweep_report(summaries, sc.report).split("\n"))


class TestTextReportAgainstFStrings:
    """The text report's row format against the per-segment f-strings in
    reference_report."""

    @settings(max_examples=200, deadline=None)
    @given(summary=report_summaries(), options=report_options())
    def test_run_report_bytes(self, summary, options):
        assert render_report(summary, options) == reference_text_report(summary, options)

    @pytest.mark.parametrize("amplitude", [0.0, 0.025])
    def test_many_segment_run(self, amplitude):
        sc = parse_scenario(many_segment_scenario(5, amplitude))
        _, summary = run(sc.network, sc.robot, sc.gear, sc.sim)
        options = ReportOptions(tracks=("C", "A"), segments=(0, 7, 199), ape=True)
        for opts in (sc.report, options, replace(options, ape=False)):
            assert render_report(summary, opts).split("\n") == (
                reference_text_report(summary, opts).split("\n"))
