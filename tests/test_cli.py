import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pipediff import TRACE_HEADER, PipeNetwork
from pipediff.cli import main

from conftest import REFERENCE_SCN


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
