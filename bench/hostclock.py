"""Host-speed calibration of the end-to-end times.

On a shared host the speed a process gets drifts with its neighbours' load,
by up to a factor of two over minutes, and the drift shows in process CPU
time as much as in wall time.  Raw op times then move with the host, not
with the program.  So each op is timed against a fixed reference kernel that
does not touch pipediff: the kernel runs a few times right before the op and,
on an interval timer, every ``INTERVAL_S`` during it.  The op's own time is
its wall time minus the kernel runs inside it, and its time in reference
seconds is

    own time / mean kernel time around and during the op * KERNEL_REF_S

that is, the op's cost in kernel runs, read as seconds on the host where
``KERNEL_REF_S`` was measured.  A host that slows the kernel and the op alike
leaves it unchanged; a program that does more work raises it.
"""

import math
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

KERNEL_N = 200  # loop turns of one kernel run, about 1 ms
# About one kernel run's time on the 2-vCPU Intel Xeon host the benchmark
# was written on.  It only sets the scale: reference seconds read close to
# that host's wall seconds.
KERNEL_REF_S = 1.2e-3
INTERVAL_S = 0.05  # kernel run every 50 ms inside an op, about 2 % of its time
BEFORE_OP = 3  # kernel runs right before each op


def kernel(n: int = KERNEL_N) -> int:
    """A fixed mix of the work pipediff does per tick: float math, small
    numpy arrays, dicts and number formatting."""
    acc = 0.0
    v = np.array([1.0, 2.0, 3.0])
    parts = []
    for i in range(n):
        x = i * 0.001
        acc += math.sin(x) * math.cos(x) + (x * x) / (1.0 + x)
        w = v * x + v
        acc += float(np.dot(w, v)) / (float(np.linalg.norm(w)) + 1.0)
        parts.append(f"{i},{x:.6f},{acc:.9g}")
        d = {"a": x, "b": i}
        acc += d["a"] - d["b"] * 1e-9
    return len("\n".join(parts))


class HostClock:
    """Times the reference kernel around and during ops.

    Use as a context manager for the whole timed loop (it owns SIGALRM while
    open), call ``settle()`` before each op and wrap the op's call in
    ``ticking()``; then ``reference_s(wall)`` converts the op's wall time.
    """

    def __init__(self):
        self._samples = []  # kernel times since the last settle()
        self._inside = 0.0  # kernel time spent inside the current op
        self._armed = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        return self

    def __exit__(self, *exc):
        self._disarm()
        signal.signal(signal.SIGALRM, self._previous)

    def _run_kernel(self) -> float:
        t0 = time.perf_counter()
        kernel()
        elapsed = time.perf_counter() - t0
        self._samples.append(elapsed)
        return elapsed

    def _on_alarm(self, signum, frame):
        if self._armed:  # ignores a signal still pending after the op ended
            self._inside += self._run_kernel()

    def _disarm(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._armed = False

    def settle(self):
        """Start a new op's samples with BEFORE_OP kernel runs."""
        self._samples = []
        self._inside = 0.0
        for _ in range(BEFORE_OP):
            self._run_kernel()

    @contextmanager
    def ticking(self):
        """Context for the op's call: runs the kernel every INTERVAL_S."""
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            self._disarm()

    def own_s(self, wall: float) -> float:
        """The op's wall time without the kernel runs inside it."""
        return wall - self._inside

    def reference_s(self, wall: float) -> float:
        """The op's own time in reference seconds."""
        return self.own_s(wall) / statistics.fmean(self._samples) * KERNEL_REF_S
