"""Benchmark workloads: seeded input files, the CLI argv of each op, and the
checks applied to every op's outputs.

The program only ever sees the files written here; the workload seed stays
inside the benchmark.
"""

import hashlib
import json
import math
import random
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

NOMINAL_SPEED = 35.0  # mm/s, ratio * omega_u * sprocket_radius of every input below
# mm/s.  Undisturbed slip must stay below it, and each bend's three track
# means must average to nominal within it.  Slip is not exactly zero on every
# network: the differential solve reproduces the demanded speeds to rounding
# (7.1e-15 mm/s on synth-1k), while the reference run is exactly zero.
SPEED_TOL = 1e-9
MAX_DISTURBED_APE = 2.5  # percent, per track, with disturbance amplitude 0.025
DISTURBANCE_AMPLITUDE = 0.025
SWEEP_STEPS = 8

REF_THETAS = (0.0, 120.0, 240.0)
# SHA-256 of the `run --trace` CSV of scenarios/reference.scn at each roll
# orientation.  The trace CSV is a documented byte contract, so these are
# expected to hold across every optimisation of the simulator.
REF_TRACE_SHA256 = {
    0.0: "570ebc14659e197c04db0755c397183424d6aa2f0016caacd118e268a955c3c0",
    120.0: "503d55f64beb64be7ac9321c30cb0a46fc3b78520b76bd7d40aca80b3990b9ba",
    240.0: "639e0e6f89864ae050714d40df75d9ae1eda47655b29471d69aef88662e24393",
}

SYNTH_SEGMENTS = 1000
SYNTH_DT = 0.2  # s
SYNTH_MIN_STEPS = 5  # records every segment must hold at SYNTH_DT
SYNTH_MIN_SPAN_MM = SYNTH_MIN_STEPS * NOMINAL_SPEED * SYNTH_DT + 1.0  # 1 mm margin


class CheckFailed(Exception):
    """An op's exit code or outputs are wrong."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation: argv with ``{out}`` standing for its output dir."""

    argv: tuple[str, ...]
    theta: float | None  # roll override, None when the scenario's own is used

    def bind(self, out: Path) -> list[str]:
        return [arg.replace("{out}", str(out)) for arg in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]  # one cycle, repeated for as long as the run lasts
    check: Callable[[Op, Path, int], int]  # (op, out dir, exit code) -> records; raises CheckFailed


def _set_key(text: str, key: str, value: str) -> str:
    pattern = re.compile(rf"^{re.escape(key)}\s*=.*$", re.MULTILINE)
    text, count = pattern.subn(f"{key} = {value}", text)
    if count != 1:
        raise ValueError(f"reference scenario has {count} '{key}' bindings, expected 1")
    return text


def synth_scenario_text(seed: int) -> str:
    """A planar network of alternating straights and bends, seeded.

    Straights carry no axis, so each inherits the incoming tangent (G1 by
    construction); every bend shares one normal, so the network stays in one
    plane.  Radii of 200-400 mm keep the 61 mm robot within its compression
    and tilt limits, and every segment is long enough for at least
    SYNTH_MIN_STEPS records at SYNTH_DT.
    """
    rng = random.Random(seed)
    lines = [
        f"# synth-1k network, seed {seed}: {SYNTH_SEGMENTS} alternating segments",
        "[pipe]",
        "inner_radius = 13.2",
        "standard_label = synthetic planar network",
        "start_tangent = 0 0 1",
        "default_normal = 0 1 0",
    ]
    for k in range(SYNTH_SEGMENTS):
        lines.append("")
        lines.append("[segment]")
        if k % 2 == 0:
            lines += ["type = straight", f"length = {rng.uniform(40.0, 120.0):.3f}"]
            continue
        while True:
            radius = round(rng.uniform(200.0, 400.0), 3)
            sweep = round(rng.uniform(10.0, 60.0), 3)
            if radius * math.radians(sweep) >= SYNTH_MIN_SPAN_MM:
                break
        lines += ["type = bend", f"radius = {radius:.3f}", f"sweep_angle = {sweep:.3f}"]
    lines += [
        "",
        "[robot]",
        "sprocket_radius = 17.5",
        "length = 61.0",
        "nominal_body_radius = 13.2",
        "preload_compression = 5.0",
        "spring_stiffness = 2.0",
        "max_compression = 16.0",
        "max_tilt_deg = 10.0",
        "",
        "[gear]",
        "ratio = 1.0",
        "",
        "[sim]",
        "omega_u = 2.0",
        f"dt = {SYNTH_DT}",
        "theta_deg = 0.0",
        "disturbance_amplitude = 0.0",
        "disturbance_seed = 0",
        "",
        "[report]",
        "tracks = A B C",
        "segments = all",
        "ape = on",
    ]
    return "\n".join(lines) + "\n"


def _read_json(out: Path, name: str) -> dict:
    try:
        return json.loads((out / name).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"{name}: {exc}") from exc


def _record_count(run: dict) -> int:
    """Records in a run's trace: one per tick from t = 0 to the last record."""
    return round(run["total_time_s"] / run["dt_s"]) + 1


def _check_undisturbed(report: dict) -> None:
    run = report["run"]
    if run["completed"] is not True:
        raise CheckFailed(f"run not completed: {run['error']!r}")
    for track in report["tracks"]:
        if not track["max_slip_mm_s"] <= SPEED_TOL:
            raise CheckFailed(f"track {track['name']} slips {track['max_slip_mm_s']!r} mm/s")
    for seg in report["segments"]:
        if not seg["kind"].startswith("bend"):
            continue
        means = [seg["tracks"][name]["mean_speed_mm_s"] for name in ("A", "B", "C")]
        if abs(math.fsum(means) / 3.0 - NOMINAL_SPEED) > SPEED_TOL:
            raise CheckFailed(f"segment {seg['index']}: track means {means} do not average to nominal")


def _check_trace(out: Path, report: dict, expected_sha256: str | None) -> int:
    data = (out / "trace.csv").read_bytes()
    records = data.count(b"\n") - 1
    if records != _record_count(report["run"]):
        raise CheckFailed(f"trace holds {records} records, report implies {_record_count(report['run'])}")
    if expected_sha256 is not None and hashlib.sha256(data).hexdigest() != expected_sha256:
        raise CheckFailed("trace CSV differs from the reference digest")
    return records


def _expect_exit_ok(code: int) -> None:
    if code != 0:
        raise CheckFailed(f"exit code {code}")


def _check_ref_run(op: Op, out: Path, code: int) -> int:
    _expect_exit_ok(code)
    report = _read_json(out, "report.json")
    _check_undisturbed(report)
    return _check_trace(out, report, REF_TRACE_SHA256[op.theta])


def _check_synth(op: Op, out: Path, code: int) -> int:
    _expect_exit_ok(code)
    report = _read_json(out, "report.json")
    _check_undisturbed(report)
    if len(report["segments"]) != SYNTH_SEGMENTS:
        raise CheckFailed(f"report covers {len(report['segments'])} of {SYNTH_SEGMENTS} segments")
    return _check_trace(out, report, None)


def _check_sweep(op: Op, out: Path, code: int) -> int:
    _expect_exit_ok(code)
    orientations = _read_json(out, "report.json")["orientations"]
    if len(orientations) != SWEEP_STEPS:
        raise CheckFailed(f"{len(orientations)} orientations, expected {SWEEP_STEPS}")
    records = 0
    for entry in orientations:
        run = entry["run"]
        if run["completed"] is not True:
            raise CheckFailed(f"theta {entry['theta_deg']}: not completed: {run['error']!r}")
        for track in entry["tracks"]:
            ape = track["max_ape_pct"]
            if ape is None or not ape <= MAX_DISTURBED_APE:
                raise CheckFailed(f"theta {entry['theta_deg']}: track {track['name']} APE {ape!r}")
        records += _record_count(run)
    return records


def build(name: str, seed: int, root: Path, inputs: Path) -> Workload:
    """Write the workload's input files under ``inputs`` and describe its ops."""
    rng = random.Random(seed)
    reference = (root / "scenarios" / "reference.scn").read_text(encoding="utf-8")
    if name == "ref-run":
        scn = inputs / "reference.scn"
        scn.write_text(reference, encoding="utf-8")
        first = seed % len(REF_THETAS)
        thetas = REF_THETAS[first:] + REF_THETAS[:first]
        ops = tuple(
            Op(("run", str(scn), "--trace", "{out}/trace.csv", "--report", "{out}/report.json",
                "--format", "json", "--seed", "0", "--theta", f"{theta:g}"), theta)
            for theta in thetas
        )
        return Workload(name, ops, _check_ref_run)
    if name == "ref-sweep-disturbed":
        scn = inputs / "reference-disturbed.scn"
        scn.write_text(
            _set_key(reference, "disturbance_amplitude", str(DISTURBANCE_AMPLITUDE)), encoding="utf-8"
        )
        base_seed = rng.randrange(2**31)
        op = Op(("sweep", str(scn), "--theta-steps", str(SWEEP_STEPS), "--report",
                 "{out}/report.json", "--format", "json", "--seed", str(base_seed)), None)
        return Workload(name, (op,), _check_sweep)
    if name == "synth-1k":
        scn = inputs / "synth-1k.scn"
        scn.write_text(synth_scenario_text(rng.randrange(2**31)), encoding="utf-8")
        op = Op(("run", str(scn), "--trace", "{out}/trace.csv", "--report", "{out}/report.json",
                 "--format", "json", "--seed", "0"), None)
        return Workload(name, (op,), _check_synth)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("ref-run", "ref-sweep-disturbed", "synth-1k")
