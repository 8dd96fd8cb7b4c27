"""What the benchmark harness under ``bench/`` needs from the program.

``bench/tracer.py`` imports every module it names, and ``bench/run.py``
reads each op's segment count and visited share from the values the traced
calls return.  A change that breaks either would fail only in a traced
benchmark run; these tests run the same path on the reference scenario.
"""

import importlib
import importlib.util

import pytest

from pipediff.cli import main

from conftest import REFERENCE_SCN, REPO_ROOT

BENCH = REPO_ROOT / "bench"


@pytest.fixture()
def bench(monkeypatch):
    """``bench/tracer.py`` and ``bench/run.py``, imported with ``bench/`` on the
    path as the harness runs them."""
    monkeypatch.syspath_prepend(str(BENCH))
    tracer = importlib.import_module("tracer")
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    harness = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(harness)
    return tracer, harness


def test_every_traced_module_imports(bench):
    tracer, _ = bench
    for _, module, _ in tracer.TARGETS:
        importlib.import_module(module)


@pytest.mark.parametrize("argv", [
    ["run", str(REFERENCE_SCN), "--trace", "{tmp}/t.csv", "--format", "json"],
    ["sweep", str(REFERENCE_SCN), "--theta-steps", "2", "--format", "json"],
])
def test_a_traced_op_gives_the_harness_its_counts(bench, argv, tmp_path, capsys):
    tracer, harness = bench
    spans = tracer.Tracer()
    spans.install()
    try:
        with spans.op(0):
            assert main([arg.format(tmp=tmp_path) for arg in argv]) == 0
    finally:
        spans.uninstall()
    counts = harness._op_counts(spans.observed)
    assert counts["scenario.segments"] == 4
    assert counts["simulator.segments_visited"] == 1.0
