"""End-to-end and per-layer benchmark of the pipediff command line.

    python3 bench/run.py --workload ref-run --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src`` directory.  Each workload is a closed loop with one client: one op is
one in-process ``pipediff.cli.main([...])`` call writing into a fresh
temporary directory, and the next op starts when the previous one returns.
Every op's exit code and outputs are checked.  Op times are given in
reference seconds, calibrated against a fixed kernel timed around and
during each op, so that they follow the program rather than the shared
host's drifting speed (see ``hostclock.py``).

``--trace 0`` reports the end-to-end metrics (untraced); ``--trace 1`` runs
an untraced and a traced pass of half the time each and reports the
per-layer metrics.  ``--workload all`` runs every workload in turn.  The
last line of standard output is one JSON object; the lines before it are a
readable table and the environment.  Per-op times, the environment and (in
traced runs) the raw spans are also written under ``.bench_out/``.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import hostclock
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SEED_ENV_VAR = "PIPEDIFF_SEED"
SETUP_REPEATS = 15  # fresh interpreters per run; setup_s is their median
MIN_OPS = 3  # per timed pass, even when one op outlasts the run time
# Runs one op in a fresh interpreter and prints its exit code and how far the
# op raised the process's peak resident set (VmHWM, KiB) above its value after
# import.  VmHWM belongs to the new address space; ru_maxrss would not do, as
# it carries the parent's peak across fork and exec.
MEM_PROBE = """
import sys
from pipediff.cli import main

def peak_kib():
    with open("/proc/self/status", encoding="ascii") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak_kib()
code = main(sys.argv[1:])
print(code, peak_kib() - before)
"""

END_TO_END_UNITS = {
    "op_s": "s",
    "steps_per_s": "records/s",
    "setup_s": "s",
    "peak_mem_mb": "MB",
}
PER_LAYER_UNITS = {
    "scenario.parse_s": "s",
    "scenario.segments": "count",
    "geometry.build_s": "s",
    "geometry.validate_s": "s",
    "geometry.segment_at_us": "us",
    "robot.module_state_us": "us",
    "kinematics.resolve_us": "us",
    "transmission.solve_us": "us",
    "kinematics.disturb_us": "us",
    "simulator.run_s": "s",
    "simulator.sweep_s": "s",
    "simulator.steps": "count",
    "simulator.us_per_step": "us",
    "simulator.segments_visited": "ratio",
    "report.trace_s": "s",
    "report.trace_bytes": "bytes",
    "report.io_s": "s",
    "report.report_s": "s",
    "op.glue_s": "s",
    "trace.overhead": "ratio",
}


def import_cli():
    """Import ``pipediff.cli`` from this checkout's sources, never elsewhere."""
    if not (SRC / "pipediff" / "cli.py").is_file():
        raise SystemExit(f"bench: no pipediff sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pipediff.cli

    if Path(pipediff.cli.__file__).resolve().parent != SRC / "pipediff":
        raise SystemExit(f"bench: imported pipediff from {pipediff.cli.__file__}, not {SRC}")
    return pipediff.cli


def environment() -> dict:
    cpu = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.machine(),
        "platform": platform.platform(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """Commit of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter on this checkout's sources, without PIPEDIFF_SEED."""
    env = {k: v for k, v in os.environ.items() if k != SEED_ENV_VAR}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=170, check=False)


def setup_once() -> float:
    """Wall time of a fresh interpreter importing ``pipediff.cli``."""
    t0 = time.perf_counter()
    proc = python("-c", "import pipediff.cli")
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: importing pipediff.cli failed:\n{proc.stderr}")
    return wall


class Runner:
    """Runs and checks the ops of one workload, counting failures."""

    def __init__(self, cli, workload, tmp: Path):
        self.cli = cli
        self.workload = workload
        self.tmp = tmp
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def execute(self, op, around=None, call=None, clock=None):
        """Run one op inside ``around``; return (seconds, records, reference
        seconds) or None if it failed.

        ``call(argv)`` runs the op and returns its exit code; the default is
        ``pipediff.cli.main`` in this process.  With a ``hostclock.HostClock``
        the op is calibrated: seconds exclude the kernel runs inside it, and
        reference seconds are set; without one they are None.
        """
        self.attempted += 1
        out = Path(tempfile.mkdtemp(dir=self.tmp))
        log = io.StringIO()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log), \
                    (around or contextlib.nullcontext()):
                argv = op.bind(out)
                if clock:
                    clock.settle()
                t0 = time.perf_counter()
                try:
                    with clock.ticking() if clock else contextlib.nullcontext():
                        code = (call or self.cli.main)(argv)
                except SystemExit as exc:
                    code = exc.code
                elapsed = time.perf_counter() - t0
            records = self.workload.check(op, out, code)
        except Exception as exc:  # any fault of the program counts as a failed op
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"{type(exc).__name__}: {exc} | {log.getvalue().strip()[-400:]}")
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if clock:
            return clock.own_s(elapsed), records, clock.reference_s(elapsed)
        return elapsed, records, None

    def loop(self, seconds: float, around=None, after=None, clock=None):
        """Closed loop, one client, cycling the workload's ops for ``seconds``.

        Returns ``execute``'s result for each op that passed its checks, in
        op order.  ``around(i)`` wraps op i; ``after(i, result)`` sees it.
        """
        ops = self.workload.ops
        results = []
        deadline = time.perf_counter() + seconds
        i = 0
        while i < max(MIN_OPS, len(ops)) or time.perf_counter() < deadline:
            result = self.execute(ops[i % len(ops)], around(i) if around else None,
                                  clock=clock)
            if after:
                after(i, result)
            if result is not None:
                results.append(result)
            i += 1
        return results


def peak_mem_mb(runner) -> float:
    """Peak resident memory one op adds to a fresh process, in MB (10**6 bytes)."""
    grown = []

    def call(argv):
        proc = python("-c", MEM_PROBE, *argv)
        code, kib = proc.stdout.split()[-2:]
        grown.append(int(kib) * 1024 / 1e6)
        return int(code)

    runner.execute(runner.workload.ops[0], call=call)
    return grown[0] if grown else float("nan")


def end_to_end(runner, seconds: float):
    setup = []
    start = time.perf_counter()

    def after(i, result):
        # The interpreter starts are spread over the run, between ops, so
        # that setup_s meets the same host as the ops do.
        while len(setup) < min(SETUP_REPEATS, SETUP_REPEATS * (time.perf_counter() - start)
                                                   / seconds):
            setup.append(setup_once())

    with hostclock.HostClock() as clock:
        runner.execute(runner.workload.ops[0], clock=clock)  # warm-up, checked but not timed
        results = runner.loop(seconds, after=after, clock=clock)
    while len(setup) < SETUP_REPEATS:
        setup.append(setup_once())
    # Times are in reference seconds (see hostclock.py), so that they follow
    # the program and not the shared host's drifting speed.  The interpreter
    # starts ran spread over the run, so the run's median host speed, as the
    # ops measured it, converts them.
    ref = [r for _, _, r in results]
    nan = float("nan")  # when every op failed its checks
    host = statistics.median(w / r for w, _, r in results) if ref else nan  # wall s per ref s
    metrics = {
        "op_s": statistics.median(ref) if ref else nan,
        "steps_per_s": statistics.median(n / r for _, n, r in results) if ref else nan,
        "setup_s": statistics.median(setup) / host,
        "peak_mem_mb": peak_mem_mb(runner),
    }
    detail = {"op_wall_s": [t for t, _, _ in results], "op_ref_s": ref,
              "records": [n for _, n, _ in results], "setup_wall_s": setup}
    return metrics, detail


def _op_counts(observed) -> dict:
    """Counts seen at the layer boundaries of one op."""
    segments, trace_bytes, visited = 0, 0, []
    for name, args, result in observed:
        if name == "scenario.parse":
            segments = len(result.segments)
        elif name == "simulator.run":
            records, net = result[0], args[0]
            visited.append(len({r.segment for r in records}) / len(net.segments))
        elif name == "report.trace":
            trace_bytes += len(result.encode("utf-8"))
    return {
        "scenario.segments": segments,
        "report.trace_bytes": trace_bytes,
        "simulator.segments_visited": statistics.fmean(visited) if visited else 0.0,
    }


def per_layer(runner, seconds: float):
    runner.execute(runner.workload.ops[0])  # warm-up
    untraced = [result[0] for result in runner.loop(seconds / 2)]
    tracer = tracing.Tracer()
    counts, steps = {}, {}

    def after(i, result):
        counts[i] = _op_counts(tracer.observed)
        steps[i] = result[1] if result else 0

    tracer.install()
    try:
        traced = [result[0] for result in runner.loop(seconds / 2, around=tracer.op,
                                                      after=after)]
    finally:
        tracer.uninstall()

    per = tracer.per_op()
    n_ops = len(steps)
    zeros = np.zeros(n_ops)
    step_arr = np.array([steps[i] for i in range(n_ops)], dtype=float)

    def self_s(name):
        return per.get(name, (zeros,))[0]

    def per_call_us(name, inclusive=False):
        self_t, incl_t, calls = per.get(name, (zeros, zeros, zeros))
        total = incl_t if inclusive else self_t
        return np.divide(total * 1e6, calls, out=np.zeros(n_ops), where=calls > 0)

    run_incl = per.get("simulator.run", (zeros, zeros))[1]
    series = {
        "scenario.parse_s": self_s("scenario.parse"),
        "geometry.build_s": self_s("geometry.build"),
        "geometry.validate_s": self_s("geometry.validate"),
        "geometry.segment_at_us": per_call_us("geometry.segment_at"),
        "robot.module_state_us": per_call_us("robot.module_state"),
        "kinematics.resolve_us": per_call_us("kinematics.resolve", inclusive=True),
        "transmission.solve_us": per_call_us("transmission.solve"),
        "kinematics.disturb_us": per_call_us("kinematics.disturb"),
        "simulator.run_s": self_s("simulator.run"),
        "simulator.sweep_s": self_s("simulator.sweep"),
        "simulator.us_per_step": np.divide(run_incl * 1e6, step_arr, out=np.zeros(n_ops),
                                           where=step_arr > 0),
        "report.trace_s": self_s("report.trace"),
        "report.io_s": self_s("report.io"),
        "report.report_s": self_s("report.report"),
        "op.glue_s": self_s(tracing.OP),
    }
    metrics = {name: float(np.median(values)) for name, values in series.items()}
    # Counts come from the first cycle of ops only, so they repeat exactly
    # however many ops the run fits in.
    cycle = range(len(runner.workload.ops))
    for name in ("scenario.segments", "report.trace_bytes", "simulator.segments_visited"):
        metrics[name] = statistics.fmean(counts[i][name] for i in cycle)
    metrics["simulator.steps"] = statistics.fmean(steps[i] for i in cycle)
    metrics["trace.overhead"] = min(traced) / min(untraced)

    OUT.mkdir(exist_ok=True)
    np.savez(OUT / f"spans-{runner.workload.name}.npz", **tracer.arrays())
    detail = {"untraced_op_s": untraced, "traced_op_s": traced}
    return {name: metrics[name] for name in PER_LAYER_UNITS}, detail


def run_workload(cli, name: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        workload = workloads.build(name, seed, ROOT, tmp)
        runner = Runner(cli, workload, tmp)
        metrics, detail = (per_layer if trace else end_to_end)(runner, seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "environment": env, "errors": runner.errors, "detail": detail, **result}
    (OUT / f"{name}-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {name}  seed {seed}  ops {runner.attempted}  failed {runner.failed}  "
          f"fail_ratio {runner.failed / runner.attempted:.4g}")
    times = detail.get("op_wall_s", detail.get("traced_op_s", []))
    for key, entry in result["metrics"].items():
        print(f"  {key:<28} {entry['value']:>14.6g} {entry['unit']:<10}")
    if times:
        print(f"  ({len(times)} timed ops, wall time: best {min(times):.6g} s, median "
              f"{statistics.median(times):.6g} s, worst {max(times):.6g} s)")
    for error in runner.errors:
        print(f"  failed op: {error}")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.environ.pop(SEED_ENV_VAR, None)
    cli = import_cli()
    env = environment()
    print("environment " + json.dumps(env))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = {name: run_workload(cli, name, args.seed, args.seconds, bool(args.trace), env)
               for name in names}
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{key}": entry for name, r in results.items()
                        for key, entry in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
