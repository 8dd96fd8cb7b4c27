import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import (TRACE_HEADER, PipeNetwork, cli, load_scenario, render_report,
                      render_sweep_report, render_trace, report, simulator)
from pipediff import run as simulate
from pipediff.cli import main

from conftest import REFERENCE_SCN, REPO_ROOT
from reference_report import (
    reference_json_report,
    reference_json_sweep_report,
    reference_text_report,
)
from reference_stepper import reference_run


def _refuse(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


def strict_json(text):
    """Parse a JSON report, rejecting the non-standard NaN and Infinity tokens."""
    return json.loads(text, parse_constant=_refuse)


def write_scenario(tmp_path, text, name="case.scn"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


@pytest.fixture()
def bad_scenario(tmp_path, reference_text):
    return write_scenario(
        tmp_path, reference_text.replace("sweep_angle = 180.0", "sweep_angle = 270.0")
    )


@pytest.fixture()
def no_fit_scenario(tmp_path, reference_text):
    # a 200 mm body needs ~19.9 mm of compression in the elbow
    text = reference_text.replace("length = 61.0", "length = 200.0")
    text = text.replace("max_tilt_deg = 10.0", "max_tilt_deg = 30.0")
    return write_scenario(tmp_path, text)


class TestValidate:
    def test_good_scenario_exits_zero(self, capsys):
        assert main(["validate", str(REFERENCE_SCN)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "4 segments" in out

    def test_bad_scenario_exits_one_with_diagnostics(self, bad_scenario, capsys):
        assert main(["validate", bad_scenario]) == 1
        err = capsys.readouterr().err
        assert "sweep_angle" in err and "line" in err

    def test_missing_file_exits_one(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.scn")]) == 1
        assert "cannot read" in capsys.readouterr().err


class TestRun:
    def test_writes_trace_and_report(self, tmp_path, capsys):
        trace = tmp_path / "out.csv"
        report = tmp_path / "report.txt"
        code = main([
            "run", str(REFERENCE_SCN),
            "--trace", str(trace),
            "--report", str(report),
        ])
        assert code == 0
        lines = trace.read_text().splitlines()
        assert lines[0] == TRACE_HEADER
        assert len(lines) > 6000
        assert "run completed" in report.read_text()
        assert capsys.readouterr().out == ""

    def test_json_report_to_stdout(self, capsys):
        assert main(["run", str(REFERENCE_SCN), "--format", "json"]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["run"]["completed"] is True

    def test_theta_override_changes_the_inner_track(self, capsys):
        assert main(["run", str(REFERENCE_SCN), "--format", "json", "--theta", "120"]) == 0
        payload = strict_json(capsys.readouterr().out)
        elbow = payload["segments"][1]["tracks"]
        # at theta = 120 deg module C faces the bend center
        assert elbow["C"]["mean_speed_mm_s"] < elbow["A"]["mean_speed_mm_s"]

    @pytest.mark.parametrize("theta", ["1e15", "1e308"])
    def test_a_large_theta_is_reduced_mod_360(self, theta, capsys):
        # Unreduced, these rolls broke the differential's budget and exited 2.
        assert main(["run", str(REFERENCE_SCN), "--format", "json", "--theta", theta]) == 0
        payload = strict_json(capsys.readouterr().out)
        assert payload["run"]["completed"] is True
        assert payload["run"]["theta_deg"] == float(theta)

    def test_no_fit_exits_two_with_partial_trace(self, no_fit_scenario, tmp_path, capsys):
        trace = tmp_path / "partial.csv"
        code = main(["run", no_fit_scenario, "--trace", str(trace)])
        assert code == 2
        captured = capsys.readouterr()
        assert "compression" in captured.err
        assert len(trace.read_text().splitlines()) > 1  # header plus partial rows

    def test_seed_flag_and_env_fallback(self, tmp_path, reference_text, capsys, monkeypatch):
        noisy = write_scenario(
            tmp_path,
            reference_text.replace(
                "disturbance_amplitude = 0.0", "disturbance_amplitude = 0.025"
            ),
        )
        assert main(["run", noisy, "--format", "json", "--seed", "7"]) == 0
        by_flag = strict_json(capsys.readouterr().out)
        assert by_flag["run"]["disturbance_seed"] == 7

        monkeypatch.setenv("PIPEDIFF_SEED", "7")
        assert main(["run", noisy, "--format", "json"]) == 0
        by_env = strict_json(capsys.readouterr().out)
        assert by_env == by_flag

        monkeypatch.setenv("PIPEDIFF_SEED", "not-a-number")
        assert main(["run", noisy]) == 1
        assert "PIPEDIFF_SEED" in capsys.readouterr().err


class TestSweep:
    def test_three_orientations(self, capsys):
        assert main(["sweep", str(REFERENCE_SCN), "--theta-steps", "3"]) == 0
        out = capsys.readouterr().out
        assert "3 runs" in out
        for theta in ("0.0", "120.0", "240.0"):
            assert theta in out

    def test_json_aggregate(self, capsys):
        assert main([
            "sweep", str(REFERENCE_SCN), "--theta-steps", "2", "--format", "json",
        ]) == 0
        payload = strict_json(capsys.readouterr().out)
        thetas = [entry["theta_deg"] for entry in payload["orientations"]]
        assert thetas == [0.0, 180.0]

    def test_zero_steps_is_a_usage_error(self, capsys):
        assert main(["sweep", str(REFERENCE_SCN), "--theta-steps", "0"]) == 1

    def test_sweep_with_no_fit_exits_two(self, no_fit_scenario, capsys):
        assert main(["sweep", no_fit_scenario, "--theta-steps", "2"]) == 2
        assert "compression" in capsys.readouterr().err


def _disturbed(tmp_path, text):
    return write_scenario(
        tmp_path, text.replace("disturbance_amplitude = 0.0", "disturbance_amplitude = 0.025")
    )


def _not_utf8(tmp_path, text):
    path = tmp_path / "latin1.scn"
    path.write_bytes(text.replace("(assumed)", "(assum\u00e9)").encode("latin-1"))
    return str(path)


def _overflowing(tmp_path, text):
    for length in ("315.0", "350.0"):
        text = text.replace(f"length = {length}", "length = 1.7e308")
    return write_scenario(tmp_path, text)


def _fast(tmp_path, text, omega_u, ratio="1.0", dt="0.01", length="315.0"):
    """Finite inputs past the float range: v_nominal * rho_i in a bend
    (omega_u = 1e306), the sum of three finite straight speeds (1e307),
    v_nominal itself (omega_u = 1e308, ratio = 1e10), one step's travel
    (omega_u = 1e303, dt = 1e300), or the speeds summed over the records of
    the first straight (omega_u = 5e305, length = 1e308)."""
    for key, old, new in (("omega_u", "2.0", omega_u), ("ratio", "1.0", ratio),
                          ("dt", "0.01", dt), ("length", "315.0", length)):
        text = text.replace(f"{key} = {old}", f"{key} = {new}")
    return write_scenario(tmp_path, text)


STEP_RANGE_ERROR = "error: steps of {dt} s at nominal speed {v} mm/s leave the float range"

# One straight at a nominal speed of the smallest subnormal, disturbed by up
# to 90 %: the mean track speed rounds to 0 at the 21st record.
STALLING_SCENARIO = """\
[pipe]
inner_radius = 13.2

[segment]
type = straight
length = 100.0
axis = 0 0 1

[robot]
sprocket_radius = 1.0
length = 10.0
nominal_body_radius = 13.2
preload_compression = 1.0

[sim]
omega_u = 5e-324
dt = 1e300
t_max = 1e303
disturbance_amplitude = 0.9
disturbance_seed = 0
"""

# (argv from tmp_path and the reference text, environment, exit code,
# expected start of the first stderr line)
BAD_INPUTS = {
    "negative --seed": (
        lambda tmp, text: ["run", _disturbed(tmp, text), "--seed", "-1"],
        {}, 1, "error: --seed: disturbance seed must be non-negative",
    ),
    "negative PIPEDIFF_SEED": (
        lambda tmp, text: ["run", _disturbed(tmp, text)],
        {"PIPEDIFF_SEED": "-1"}, 1, "error: PIPEDIFF_SEED: disturbance seed must be non-negative",
    ),
    "negative disturbance_seed": (
        lambda tmp, text: [
            "run", write_scenario(tmp, text.replace("disturbance_seed = 0", "disturbance_seed = -1"))
        ],
        {}, 1, "error: line 54: disturbance_seed: must be at least 0",
    ),
    "validate: lengths that sum past the float range": (
        lambda tmp, text: ["validate", _overflowing(tmp, text)],
        {}, 1, "error: line 9: total-length @ network: segment lengths sum to inf mm",
    ),
    "run: lengths that sum past the float range": (
        lambda tmp, text: ["run", _overflowing(tmp, text)],
        {}, 1, "error: line 9: total-length @ network: segment lengths sum to inf mm",
    ),
    "run: bend speeds past the float range": (
        lambda tmp, text: ["run", _fast(tmp, text, "1e306"), "--trace", str(tmp / "t.csv")],
        {}, 2, "error: track speeds exceed the float range at nominal speed 1.75e+307 mm/s",
    ),
    # 1e200 ** 2 is past the float range; the elbow is wide enough to chord.
    "run: a robot too long to square its length": (
        lambda tmp, text: ["run", write_scenario(tmp, text.replace(
            "length = 61.0", "length = 1e200").replace("radius = 335.0", "radius = 1e300"))],
        {}, 2, "error: bend of radius 1e+300 mm requires inf mm compression on module 0, "
        "limit is 16 mm",
    ),
    "sweep: bend speeds past the float range": (
        lambda tmp, text: ["sweep", _fast(tmp, text, "1e306"), "--theta-steps", "2"],
        {}, 2, "error: track speeds exceed the float range at nominal speed 1.75e+307 mm/s",
    ),
    "run: a speed sum past the float range": (
        lambda tmp, text: ["run", _fast(tmp, text, "1e307")],
        {}, 2, "error: track speeds exceed the float range at nominal speed 1.75e+308 mm/s",
    ),
    "run: a nominal speed past the float range": (
        lambda tmp, text: [
            "run", _fast(tmp, text, "1e308", "1e10"), "--trace", str(tmp / "t.csv"),
            "--format", "json",
        ],
        {}, 2, "error: nominal track speed must be finite and positive, got inf mm/s",
    ),
    "sweep: a nominal speed past the float range": (
        lambda tmp, text: ["sweep", _fast(tmp, text, "1e308", "1e10"), "--theta-steps", "2"],
        {}, 2, "error: nominal track speed must be finite and positive, got inf mm/s",
    ),
    "run: one step's travel past the float range": (
        lambda tmp, text: ["run", _fast(tmp, text, "1e303", dt="1e300"), "--format", "json"],
        {}, 2, STEP_RANGE_ERROR.format(dt="1e+300", v="1.75e+304"),
    ),
    "sweep: one step's travel past the float range": (
        lambda tmp, text: ["sweep", _fast(tmp, text, "1e303", dt="1e300"), "--theta-steps", "2"],
        {}, 2, STEP_RANGE_ERROR.format(dt="1e+300", v="1.75e+304"),
    ),
    "run: a segment's record sums past the float range": (
        lambda tmp, text: ["run", _fast(tmp, text, "5e305", length="1e308"), "--format", "json"],
        {}, 2, STEP_RANGE_ERROR.format(dt="0.01", v="8.75e+306"),
    ),
    "run: imposed speeds that miss the differential's budget": (
        lambda tmp, text: ["run", write_scenario(tmp, text.replace(
            "sprocket_radius = 17.5", "sprocket_radius = 1e-320").replace(
            "omega_u = 2.0", "omega_u = 2.1"))],
        {}, 2, "error: imposed speeds sum to 6.29941 rad/s but the train requires 6.3 rad/s "
               "(3 * ratio * omega_u)\n",
    ),
    "run: a mean track speed that rounds to zero": (
        lambda tmp, text: ["run", write_scenario(tmp, STALLING_SCENARIO), "--trace",
                           str(tmp / "t.csv")],
        {}, 2, "error: stalled: mean track speed 0 mm/s is not positive",
    ),
    "non-integer --seed": (
        lambda tmp, text: ["run", str(REFERENCE_SCN), "--seed", "abc"],
        {}, 1, "error: argument --seed: invalid int value: 'abc'",
    ),
    "non-numeric --theta": (
        lambda tmp, text: ["run", str(REFERENCE_SCN), "--theta", "xyz"],
        {}, 1, "error: argument --theta: invalid float value: 'xyz'",
    ),
    "non-integer --theta-steps": (
        lambda tmp, text: ["sweep", str(REFERENCE_SCN), "--theta-steps", "x"],
        {}, 1, "error: argument --theta-steps: invalid int value: 'x'",
    ),
    "unknown --format": (
        lambda tmp, text: ["run", str(REFERENCE_SCN), "--format", "xml"],
        {}, 1, "error: argument --format: invalid choice: 'xml'",
    ),
    "unknown command": (
        lambda tmp, text: ["simulate", str(REFERENCE_SCN)],
        {}, 1, "error: argument command: invalid choice: 'simulate'",
    ),
    "missing command": (
        lambda tmp, text: [],
        {}, 1, "error: the following arguments are required: command",
    ),
    "nan --theta": (
        lambda tmp, text: ["run", str(REFERENCE_SCN), "--theta", "nan"],
        {}, 1, "error: --theta: theta_deg must be finite",
    ),
    "file not UTF-8": (
        lambda tmp, text: ["validate", _not_utf8(tmp, text)],
        {}, 1, "error: line 11: not UTF-8 text",
    ),
    "run --trace into a missing directory": (
        lambda tmp, text: ["run", str(REFERENCE_SCN), "--trace", str(tmp / "no" / "t.csv")],
        {}, 2, "error: cannot write trace to",
    ),
    "run --report into a missing directory": (
        lambda tmp, text: ["run", str(REFERENCE_SCN), "--report", str(tmp / "no" / "r.txt")],
        {}, 2, "error: cannot write report to",
    ),
    "sweep --report into a missing directory": (
        lambda tmp, text: [
            "sweep", str(REFERENCE_SCN), "--theta-steps", "1", "--report", str(tmp / "no" / "r.txt")
        ],
        {}, 2, "error: cannot write report to",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_with_an_error_line(case, tmp_path, reference_text, capsys, monkeypatch):
    make_argv, env, code, message = BAD_INPUTS[case]
    monkeypatch.delenv("PIPEDIFF_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    argv = make_argv(tmp_path, reference_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == code
    out, err = capsys.readouterr()
    assert err.startswith(message)
    if "json" in argv and out:
        strict_json(out)


@pytest.mark.parametrize("argv", [["--help"], ["run", "--help"], ["sweep", "--help"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: pipediff")


def test_disturbed_percent_error_past_the_float_range_aborts(tmp_path, reference_text, capsys):
    # The first straight's speeds are finite, but 100 times a 90 % slip on
    # them is not: the run aborts before forming a record whose APE overflows.
    text = reference_text.replace("disturbance_amplitude = 0.0", "disturbance_amplitude = 0.9")
    scenario = _fast(tmp_path, text, "5e305")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["run", scenario, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert err.startswith(
        "error: track speeds exceed the float range at nominal speed 8.75e+306 mm/s")
    report = strict_json(out)
    assert report["run"]["error"] == err[len("error: "):].rstrip("\n")
    assert report["segments"] == []


def _log_uniform(low, high):
    return st.floats(math.log10(low), math.log10(high)).map(lambda e: 10.0 ** e)


@settings(max_examples=200, deadline=None)
@given(
    omega_u=_log_uniform(1e-3, 1e308),
    ratio=_log_uniform(1e-3, 1e308),
    dt=_log_uniform(1e-3, 1e308),
    length=_log_uniform(1e-3, 1e308),
    steps=st.integers(1, 1000),
)
def test_float_range_inputs_exit_cleanly(
    tmp_path_factory, reference_text, omega_u, ratio, dt, length, steps
):
    # t_max = steps * dt keeps every example to at most 1,001 records.
    text = reference_text.replace("dt = 0.01", f"dt = 0.01\nt_max = {steps * dt!r}")
    scenario = _fast(tmp_path_factory.mktemp("range"), text, repr(omega_u), repr(ratio),
                     dt=repr(dt), length=repr(length))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(["run", scenario, "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if out.getvalue():
        strict_json(out.getvalue())


@pytest.mark.parametrize("argv", [
    ["validate", str(REFERENCE_SCN)],
    ["run", str(REFERENCE_SCN), "--format", "json"],
    ["sweep", str(REFERENCE_SCN), "--theta-steps", "2"],
], ids=["validate", "run", "sweep"])
def test_each_command_builds_the_network_once(argv, capsys, monkeypatch):
    calls = []
    build = PipeNetwork.__post_init__

    def counted(self):
        calls.append(self)
        build(self)

    monkeypatch.setattr(PipeNetwork, "__post_init__", counted)
    assert main(argv) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("argv, oracle", [
    (["run", str(REFERENCE_SCN), "--format", "json"],
     lambda summaries, options: reference_json_report(summaries[0], options)),
    (["run", str(REFERENCE_SCN), "--format", "text"],
     lambda summaries, options: reference_text_report(summaries[0], options)),
    (["sweep", str(REFERENCE_SCN), "--theta-steps", "2", "--format", "json"],
     reference_json_sweep_report),
    (["sweep", str(REFERENCE_SCN), "--theta-steps", "2", "--format", "text"],
     render_sweep_report),
], ids=["run-json", "run-text", "sweep-json", "sweep-text"])
def test_the_reports_are_the_tick_stepper_s(argv, oracle, reference_scenario, capsys,
                                            monkeypatch):
    # The reports read a run's segment columns; what they print is the
    # per-segment oracle's report of the tick stepper's summaries.
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    sc = reference_scenario
    if argv[0] == "run":
        orientations = [sc.sim]
    else:
        orientations = [replace(sc.sim, theta_deg=k * 180.0,
                                disturbance_seed=sc.sim.disturbance_seed + k) for k in range(2)]
    expected = [reference_run(sc.network, sc.robot, sc.gear, params)[1]
                for params in orientations]
    assert all(len(summary.segments.index) == 4 for summary in expected)
    assert main(argv) == 0
    assert capsys.readouterr().out == oracle(expected, sc.report)


@pytest.mark.parametrize("target, argv", [
    ("run", ["run", str(REFERENCE_SCN)]),
    ("run_orientation_sweep", ["sweep", str(REFERENCE_SCN), "--theta-steps", "2"]),
    ("trace_writer", ["run", str(REFERENCE_SCN), "--trace", "trace.csv"]),
    ("report_pieces", ["run", str(REFERENCE_SCN), "--format", "json"]),
], ids=["run", "sweep", "trace", "report"])
@pytest.mark.parametrize("message", ["", "Unable to allocate 8.00 EiB for an array"])
def test_out_of_memory_exits_two_with_an_error_line(target, argv, message, capsys, monkeypatch):
    # Stands in for an allocation that fails; nothing large is allocated.
    def exhausted(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, exhausted)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: out of memory" + (f": {message}" if message else "") + "\n"


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
def test_the_trace_is_released_before_the_report_is_spelled(traced, reference_scenario, tmp_path,
                                                            capsys, monkeypatch):
    # The report reads the summary alone: the trace, written or not asked
    # for, is gone before the first report piece is spelled.
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    traces, alive = [], []

    def run(*args):
        trace, summary = simulate(*args)
        traces.append(weakref.ref(trace))
        return trace, summary

    def report_pieces(*args, **kwargs):
        def pieces():
            alive.append(traces[0]() is not None)
            yield from report.report_pieces(*args, **kwargs)
        return pieces()

    monkeypatch.setattr(cli, "run", run)
    monkeypatch.setattr(cli, "report_pieces", report_pieces)
    trace = ["--trace", str(tmp_path / "trace.csv")] if traced else []
    assert main(["run", str(REFERENCE_SCN), "--format", "json", *trace]) == 0
    assert alive == [False]
    sc = reference_scenario
    _, summary = simulate(sc.network, sc.robot, sc.gear, sc.sim)
    assert capsys.readouterr().out == render_report(summary, sc.report, fmt="json")


class TestTraceFile:
    """``run --trace`` writes each block as it is stepped, so the file is
    open before the run ends; these pin what a failed run leaves of it."""

    def test_a_run_that_raises_before_its_first_record_makes_no_file(self, tmp_path,
                                                                     reference_text, capsys):
        trace = tmp_path / "t.csv"
        scenario = _fast(tmp_path, reference_text, "1e308", "1e10")
        assert main(["run", scenario, "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            "error: nominal track speed must be finite and positive, got inf mm/s\n")
        assert not trace.exists()

    def test_a_plan_abort_writes_the_header_alone(self, tmp_path, reference_text, capsys):
        # The three straight speeds sum past the float range: the plan keeps no segment.
        trace = tmp_path / "t.csv"
        assert main(["run", _fast(tmp_path, reference_text, "1e307"), "--trace", str(trace)]) == 2
        assert capsys.readouterr().err == (
            "error: track speeds exceed the float range at nominal speed 1.75e+308 mm/s\n")
        assert trace.read_text(encoding="utf-8") == TRACE_HEADER + "\n"

    def test_a_later_abort_leaves_the_partial_trace(self, no_fit_scenario, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["run", no_fit_scenario, "--trace", str(trace)]) == 2
        sc = load_scenario(no_fit_scenario)
        records, summary = simulate(sc.network, sc.robot, sc.gear, sc.sim)
        assert len(records) > 0 and summary.error
        assert capsys.readouterr().err == f"error: {summary.error}\n"
        assert trace.read_text(encoding="utf-8") == render_trace(records)


def _pinned_digests(monkeypatch) -> dict:
    """The benchmark's SHA-256 of the reference ``run --trace`` CSV, by roll."""
    monkeypatch.syspath_prepend(str(REPO_ROOT / "bench"))
    return importlib.import_module("workloads").REF_TRACE_SHA256


@pytest.mark.parametrize("block_rows", [3, 50, simulator.BLOCK_ROWS])
class TestStreamedTrace:
    """The trace written block by block, in blocks of any size, is the one
    ``render_trace`` spells of the whole run's ``Trace``."""

    @pytest.mark.parametrize("amplitude", ["0.0", "0.025"])
    @pytest.mark.parametrize("theta", ["0", "37.5"])
    def test_it_is_render_trace_s(self, block_rows, amplitude, theta, tmp_path, reference_text,
                                  monkeypatch):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        scenario = write_scenario(tmp_path, reference_text.replace(
            "disturbance_amplitude = 0.0", f"disturbance_amplitude = {amplitude}"))
        sc = load_scenario(scenario)
        whole, _ = simulate(sc.network, sc.robot, sc.gear, replace(sc.sim, theta_deg=float(theta)))
        expected = render_trace(whole).encode()
        monkeypatch.setattr(simulator, "BLOCK_ROWS", block_rows)
        trace = tmp_path / "t.csv"
        assert main(["run", scenario, "--theta", theta, "--trace", str(trace),
                     "--report", str(tmp_path / "r.txt")]) == 0
        assert trace.read_bytes() == expected

    def test_the_pinned_reference_traces_are_unchanged(self, block_rows, tmp_path, monkeypatch):
        digests = _pinned_digests(monkeypatch)
        monkeypatch.setattr(simulator, "BLOCK_ROWS", block_rows)
        trace = tmp_path / "t.csv"
        for theta, digest in digests.items():
            assert main(["run", str(REFERENCE_SCN), "--trace", str(trace), "--report",
                         str(tmp_path / "r.json"), "--format", "json", "--seed", "0",
                         "--theta", f"{theta:g}"]) == 0
            assert hashlib.sha256(trace.read_bytes()).hexdigest() == digest


def _child_env() -> dict:
    """The environment of a child Python that imports this checkout's sources."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH")])))


# Runs the command line in a child whose address space is capped at 1 GiB:
# a run that the plan let through would fail there, not fill the host's memory.
CAPPED_MAIN = """
import resource, sys
hard = resource.getrlimit(resource.RLIMIT_AS)[1]
soft = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
from pipediff.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("omega_u, dt, message", [
    ("1e-300", "0.01", "steps of 0.01 s at nominal speed 1.75e-299 mm/s form up to 1.8e+303"),
    ("2.0", "1e-300", "steps of 1e-300 s at nominal speed 35 mm/s form up to 9e+300"),
])
def test_a_run_no_memory_can_hold_exits_two_at_the_plan(tmp_path, reference_text, omega_u, dt,
                                                        message):
    scenario = _fast(tmp_path, reference_text, omega_u, dt=dt)
    trace = tmp_path / "t.csv"
    done = subprocess.run([sys.executable, "-c", CAPPED_MAIN, "run", str(scenario), "--trace",
                           str(trace)], capture_output=True, text=True, env=_child_env(),
                          timeout=300)
    assert done.returncode == 2
    assert done.stderr == f"error: {message} records, more than memory can hold\n"
    assert trace.read_text(encoding="utf-8") == TRACE_HEADER + "\n"


class TestModuleEntryPoint:
    """``python -m pipediff`` is the command line: its exit code and output."""

    def test_a_run_prints_its_report(self):
        done = subprocess.run([sys.executable, "-m", "pipediff", "run", str(REFERENCE_SCN),
                               "--format", "json"], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert done.returncode == 0, done.stderr
        sc = load_scenario(REFERENCE_SCN)
        _, summary = simulate(sc.network, sc.robot, sc.gear, sc.sim)
        assert done.stdout == render_report(summary, sc.report, fmt="json")

    def test_no_command_exits_one(self):
        done = subprocess.run([sys.executable, "-m", "pipediff"], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert done.returncode == 1
        assert done.stderr == "error: the following arguments are required: command\n"


def test_importing_the_cli_leaves_numpy_strings_unloaded():
    # Nothing in pipediff calls numpy's string functions: the trace writer
    # spells its rows as bytes, so no command pays for importing them.
    probe = "import sys, pipediff.cli; print('numpy' in sys.modules, 'numpy.strings' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert done.stdout == "True False\n", done.stderr


@pytest.mark.parametrize("amplitude", ["0.0", "0.025"])
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_no_command_loads_numpy_random(tmp_path, reference_text, command, amplitude):
    # The disturbance stream hashes its counters in uint64 columns, so no run
    # or sweep, disturbed or not, imports ``numpy.random``, which would raise
    # a process's peak memory by megabytes.  Writing the trace loads no
    # ``numpy.strings`` either.
    scenario = write_scenario(tmp_path, reference_text.replace(
        "disturbance_amplitude = 0.0", f"disturbance_amplitude = {amplitude}"))
    outputs = {"run": ["--trace", str(tmp_path / "t.csv")], "sweep": ["--theta-steps", "8"]}
    probe = ("import sys, pipediff.cli; code = pipediff.cli.main(sys.argv[1:]); "
             "print(code, 'numpy.random' in sys.modules, 'numpy.strings' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", probe, command, scenario, *outputs[command],
                           "--report", str(tmp_path / "r.txt")],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert done.stdout == "0 False False\n", done.stderr
