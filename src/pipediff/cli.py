"""Command-line entry point.

Exit codes: 0 success, 1 invalid input (command line, scenario file,
``--seed``, ``--theta`` or the PIPEDIFF_SEED environment variable that
``--seed`` falls back to), 2 runtime failure (no-fit, infeasible constraints,
float range, record count, bad nominal speed, stall, unwritable output, out of
memory).
"""

import argparse
import functools
import os
import sys
from contextlib import nullcontext
from dataclasses import replace

from .errors import PipeClimbError, ScenarioParseError
from .report import report_pieces, sweep_report_pieces, trace_writer
from .scenario import Scenario, load_scenario
from .simulator import run, run_orientation_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SEED_ENV_VAR = "PIPEDIFF_SEED"


class _Parser(argparse.ArgumentParser):
    """Raises usage errors as invalid input instead of exiting with status 2."""

    def error(self, message):
        raise ScenarioParseError([(0, message)])


@functools.cache  # one parser per process: building it costs about ten parses
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="pipediff",
        description=(
            "Deterministic kinematics simulator for a differential-driven "
            "in-pipe climbing robot"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scenario = _Parser(add_help=False)
    scenario.add_argument("scenario", help="path to the scenario file")
    sub.add_parser("validate", parents=[scenario], help="check a scenario file")

    simulate = _Parser(add_help=False, parents=[scenario])
    simulate.add_argument("--report", metavar="PATH", help="write the report here (default: stdout)")
    simulate.add_argument("--format", choices=("text", "json"), default="text")
    simulate.add_argument("--seed", type=int,
                          help="disturbance seed override (a sweep's base seed)")
    p_run = sub.add_parser("run", parents=[simulate], help="simulate one traversal")
    p_run.add_argument("--trace", metavar="PATH", help="write the trace CSV here")
    p_run.add_argument("--theta", type=float, metavar="DEG", help="roll orientation override")
    p_sweep = sub.add_parser("sweep", parents=[simulate], help="run several roll orientations")
    p_sweep.add_argument("--theta-steps", type=int, required=True, metavar="K",
                         help="number of evenly spaced orientations")
    return parser


def _load(path: str) -> Scenario:
    try:
        return load_scenario(path)
    except OSError as exc:
        raise ScenarioParseError([(0, f"cannot read {path}: {exc}")]) from exc


def _apply_overrides(scenario: Scenario, seed, theta) -> Scenario:
    source = "--seed"
    if seed is None and SEED_ENV_VAR in os.environ:
        source, env = SEED_ENV_VAR, os.environ[SEED_ENV_VAR]
        try:
            seed = int(env)
        except ValueError:
            raise ScenarioParseError(
                [(0, f"{SEED_ENV_VAR} must be an integer, got {env!r}")]
            ) from None
    sim = scenario.sim
    for flag, name, value in ((source, "disturbance_seed", seed), ("--theta", "theta_deg", theta)):
        if value is not None:
            try:
                sim = replace(sim, **{name: value})
            except ValueError as exc:
                raise ScenarioParseError([(0, f"{flag}: {exc}")]) from None
    if sim is scenario.sim:
        return scenario
    return replace(scenario, sim=sim)


def _emit(pieces, path: str | None) -> None:
    """Write the report's pieces as they are spelled, to ``path`` or stdout."""
    if path is None:
        sys.stdout.writelines(pieces)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(pieces)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _print_issues(exc: ScenarioParseError) -> None:
    for line, message in exc.issues:
        where = f"line {line}: " if line else ""
        print(f"error: {where}{message}", file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        scenario = _load(args.scenario)
        if args.command != "validate":
            scenario = _apply_overrides(scenario, args.seed, getattr(args, "theta", None))
    except ScenarioParseError as exc:
        _print_issues(exc)
        return EXIT_VALIDATION

    if args.command == "validate":
        total = scenario.network.total_length
        print(
            f"{args.scenario}: OK ({len(scenario.segments)} segments, "
            f"total length {total:.3f} mm)"
        )
        return EXIT_OK
    if args.command == "sweep" and args.theta_steps < 1:
        print("error: --theta-steps must be at least 1", file=sys.stderr)
        return EXIT_VALIDATION

    inputs = (scenario.network, scenario.robot, scenario.gear, scenario.sim)
    try:
        if args.command == "run":
            # The trace is written as it is stepped; the report does not read it.
            with trace_writer(args.trace) if args.trace else nullcontext() as keep:
                summary = run(*inputs, keep)[1]
            summaries = [summary]
            pieces = report_pieces(summary, scenario.report, fmt=args.format)
        else:
            summaries = run_orientation_sweep(*inputs, args.theta_steps)
            pieces = sweep_report_pieces(summaries, scenario.report, fmt=args.format)
        _emit(pieces, args.report)
    except (PipeClimbError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        print(f"error: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return EXIT_RUNTIME
    failed = [summary.error for summary in summaries if summary.error]
    if failed:
        print(f"error: {failed[0]}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
