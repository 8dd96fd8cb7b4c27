"""Spans around the benchmark's calls into pipediff's public functions.

Tracing is switched on by rebinding each traced function, in every pipediff
module that imported it, to a wrapper that records one span per call: name,
start, end, parent span and op id.  Spans stay in memory (compact arrays)
and are written out when the run ends.  Nothing inside the program is
changed, so ``simulator._summarize`` and the per-tick work outside the
wrapped calls are timed as part of ``simulator.run``.
"""

import importlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter_ns

import numpy as np

# (span name, module, attribute): each traced callable.  Several callables
# may share one span name; a callable missing from the program is skipped,
# so the benchmark keeps running when a layer is rewritten.
TARGETS = (
    ("scenario.parse", "pipediff.scenario", "load_scenario"),
    ("geometry.build", "pipediff.geometry", "PipeNetwork.__post_init__"),
    ("geometry.validate", "pipediff.geometry", "validate_network"),
    ("geometry.segment_at", "pipediff.geometry", "PipeNetwork.segment_at"),
    ("robot.module_state", "pipediff.robot", "module_state"),
    ("kinematics.resolve", "pipediff.kinematics", "resolved_speeds"),
    ("transmission.solve", "pipediff.transmission", "solve_output_speeds"),
    ("kinematics.disturb", "pipediff.kinematics", "apply_disturbance"),
    ("simulator.run", "pipediff.simulator", "run"),
    ("simulator.sweep", "pipediff.simulator", "run_orientation_sweep"),
    ("report.trace", "pipediff.report", "render_trace"),
    ("report.io", "pipediff.report", "write_trace"),
    ("report.io", "pipediff.cli", "_emit"),
    ("report.report", "pipediff.report", "render_report"),
    ("report.report", "pipediff.report", "render_sweep_report"),
)
OP = "op"
# Span names whose return values feed the per-op counts.
OBSERVED = ("scenario.parse", "simulator.run", "report.trace")


class Tracer:
    """In-memory span store for one traced pass."""

    def __init__(self):
        self.names = [OP]
        self.name_id = array("i")
        self.parent = array("i")
        self.op_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.current_op = -1
        self.observed = []  # (span name, args, result) of the current op
        self._stack = [-1]
        self._patches = []

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.end)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.op_id.append(self.current_op)
        self.end.append(0)
        self._stack.append(idx)
        return idx

    @contextmanager
    def op(self, op_id: int):
        """Span for one whole op; spans opened inside it share ``op_id``."""
        self.current_op = op_id
        self.observed = []
        idx = self._open(0)
        self.start.append(perf_counter_ns())
        try:
            yield
        finally:
            self.end[idx] = perf_counter_ns()
            self._stack.pop()

    def _wrap(self, name: str, fn):
        nid = self._intern(name)
        observe = name in OBSERVED
        open_span, stack, start, end = self._open, self._stack, self.start, self.end

        def traced(*args, **kwargs):
            idx = open_span(nid)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if observe:
                self.observed.append((name, args, result))
            return result

        return traced

    def install(self) -> None:
        """Rebind every traced callable; ``uninstall`` restores them."""
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name, None)
                original = None if cls is None else cls.__dict__.get(method)
                if original is not None:
                    self._patch(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "pipediff":
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def arrays(self) -> dict:
        """The spans as numpy arrays (times in ns since an arbitrary epoch)."""
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "op_id": np.frombuffer(self.op_id, dtype=np.int32).copy(),
            "start_ns": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end_ns": np.frombuffer(self.end, dtype=np.int64).copy(),
        }

    def per_op(self) -> dict:
        """Per op and span name: self time (s), inclusive time (s), calls.

        A span's self time is its duration minus the durations of its direct
        children.  Returns ``{name: (self_s, incl_s, calls)}`` with each value
        an array indexed by op id.
        """
        spans = self.arrays()
        dur = (spans["end_ns"] - spans["start_ns"]).astype(np.float64) / 1e9
        parent = spans["parent"]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        n_ops = int(spans["op_id"].max()) + 1 if len(dur) else 0
        out = {}
        for nid, name in enumerate(self.names):
            mask = spans["name_id"] == nid
            ops = spans["op_id"][mask]
            out[name] = (
                np.bincount(ops, weights=self_s[mask], minlength=n_ops),
                np.bincount(ops, weights=dur[mask], minlength=n_ops),
                np.bincount(ops, minlength=n_ops),
            )
        return out
