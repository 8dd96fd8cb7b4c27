"""Command-line entry point.

Exit codes: 0 success, 1 invalid input (scenario file, ``--seed``,
``--theta`` or PIPEDIFF_SEED), 2 runtime failure (no-fit, infeasible
constraints, float range, bad nominal speed, stall, unwritable output).
``--seed`` falls back to the PIPEDIFF_SEED environment variable.
"""

import argparse
import os
import sys
from dataclasses import replace

from .errors import PipeClimbError, ScenarioParseError
from .report import render_report, render_sweep_report, write_trace
from .scenario import Scenario, load_scenario
from .simulator import run, run_orientation_sweep

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2

SEED_ENV_VAR = "PIPEDIFF_SEED"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pipediff",
        description=(
            "Deterministic kinematics simulator for a differential-driven "
            "in-pipe climbing robot"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="check a scenario file")
    p_validate.add_argument("scenario", help="path to the scenario file")

    p_run = sub.add_parser("run", help="simulate one traversal")
    p_run.add_argument("scenario", help="path to the scenario file")
    p_run.add_argument("--trace", metavar="PATH", help="write the trace CSV here")
    p_run.add_argument("--report", metavar="PATH", help="write the report here (default: stdout)")
    p_run.add_argument("--format", choices=("text", "json"), default="text")
    p_run.add_argument("--seed", type=int, help="disturbance seed override")
    p_run.add_argument("--theta", type=float, metavar="DEG", help="roll orientation override")

    p_sweep = sub.add_parser("sweep", help="run several roll orientations")
    p_sweep.add_argument("scenario", help="path to the scenario file")
    p_sweep.add_argument("--theta-steps", type=int, required=True, metavar="K",
                         help="number of evenly spaced orientations")
    p_sweep.add_argument("--report", metavar="PATH", help="write the report here (default: stdout)")
    p_sweep.add_argument("--format", choices=("text", "json"), default="text")
    p_sweep.add_argument("--seed", type=int, help="disturbance base seed override")
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
    try:
        if seed is not None:
            sim = replace(sim, disturbance=replace(sim.disturbance, seed=seed))
    except ValueError as exc:
        raise ScenarioParseError([(0, f"{source}: {exc}")]) from None
    try:
        if theta is not None:
            sim = replace(sim, theta_deg=theta)
    except ValueError as exc:
        raise ScenarioParseError([(0, f"--theta: {exc}")]) from None
    if sim is scenario.sim:
        return scenario
    return replace(scenario, sim=sim)


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def _print_issues(exc: ScenarioParseError) -> None:
    for line, message in exc.issues:
        where = f"line {line}: " if line else ""
        print(f"error: {where}{message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    try:
        scenario = _load(args.scenario)
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

    try:
        scenario = _apply_overrides(scenario, args.seed, getattr(args, "theta", None))
    except ScenarioParseError as exc:
        _print_issues(exc)
        return EXIT_VALIDATION

    net = scenario.network

    if args.command == "run":
        try:
            trace, summary = run(net, scenario.robot, scenario.gear, scenario.sim)
            if args.trace:
                write_trace(trace, args.trace)
            _emit(render_report(summary, scenario.report, fmt=args.format), args.report)
        except (PipeClimbError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        if summary.error:
            print(f"error: {summary.error}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    if args.command == "sweep":
        if args.theta_steps < 1:
            print("error: --theta-steps must be at least 1", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            results = run_orientation_sweep(
                net, scenario.robot, scenario.gear, scenario.sim, args.theta_steps
            )
            _emit(render_sweep_report(results, scenario.report, fmt=args.format), args.report)
        except (PipeClimbError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_RUNTIME
        failed = [summary.error for _theta, summary in results if summary.error]
        if failed:
            print(f"error: {failed[0]}", file=sys.stderr)
            return EXIT_RUNTIME
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
