"""Check the synth-1k generator over several seeds.

    python3 bench/check_synth.py [--seeds 0 1 2 3 4]

For each seed the generated scenario must pass ``pipediff validate``, be
planar (one bend normal, straights inheriting the incoming axis), run to
``completed`` with exit code 0, and give every segment at least
SYNTH_MIN_STEPS trace records.  Exits 1 on the first seed that fails.
"""

import argparse
import contextlib
import io
import json
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

import workloads
from run import OUT, import_cli


def check_seed(cli, seed: int, tmp: Path) -> str:
    """Empty string when the seed's network passes, else what failed."""
    from pipediff.geometry import Bend, Straight

    scn = tmp / f"synth-{seed}.scn"
    scn.write_text(workloads.synth_scenario_text(seed), encoding="utf-8")
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if cli.main(["validate", str(scn)]) != 0:
            return f"validate failed: {log.getvalue().strip()}"
        code = cli.main(["run", str(scn), "--trace", str(tmp / "trace.csv"), "--report",
                         str(tmp / "report.json"), "--format", "json", "--seed", "0"])
    if code != 0:
        return f"run exit code {code}: {log.getvalue().strip()}"

    segments = cli.load_scenario(scn).segments
    normals = {seg.normal for seg in segments if isinstance(seg, Bend)}
    if len(normals) != 1:
        return f"not planar: bend normals {normals}"
    (normal,) = normals
    tilted = [k for k, seg in enumerate(segments) if isinstance(seg, Straight)
              and abs(sum(a * n for a, n in zip(seg.axis, normal))) > 1e-12]
    if tilted:
        return f"not planar: straights {tilted[:10]} leave the bend plane"

    report = json.loads((tmp / "report.json").read_text(encoding="utf-8"))
    if report["run"]["completed"] is not True:
        return f"run did not complete: {report['run']['error']!r}"
    with open(tmp / "trace.csv", encoding="utf-8") as trace:
        next(trace)
        per_segment = Counter(int(line.split(",", 3)[2]) for line in trace)
    short = [k for k in range(workloads.SYNTH_SEGMENTS)
             if per_segment[k] < workloads.SYNTH_MIN_STEPS]
    if short:
        return f"segments with fewer than {workloads.SYNTH_MIN_STEPS} records: {short[:10]}"
    return ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4])
    args = parser.parse_args(argv)
    cli = import_cli()
    OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="check-synth-", dir=OUT))
    try:
        for seed in args.seeds:
            problem = check_seed(cli, seed, tmp)
            print(f"seed {seed}: {problem or 'ok'}")
            if problem:
                return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
