"""Machine-speed reference for the benchmark's timings.

On a shared virtual machine the same code can run up to about 2x slower
for seconds at a time, because of what other tenants run on the host.
Both wall time and CPU time swing with it, so neither can be timed
around it.  The benchmark therefore runs a fixed reference kernel between
its operations, about ten times a second, and reports every time scaled to
the speed at which the kernel takes :data:`REFERENCE_S`:

    reported = measured * REFERENCE_S / kernel time near the measurement

A change to the program moves the measured time and not the kernel, so
it moves the reported time by the same factor.  A slow phase of the
machine moves both, and cancels.  The raw times are kept in the detail
file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# Kernel time in the fast phase of a 2-vCPU Intel Xeon VM (Python 3.11,
# numpy 2.4, OpenBLAS on one thread).  Scaled times read as milliseconds
# on that machine at its best.
REFERENCE_S = 0.3e-3
EVERY_S = 0.1  # least gap between two kernel samples during a pass
WINDOW_S = 0.5  # samples this close to an operation give its speed
REPEATS = 3  # kernel runs per sample; the fastest one is kept
BURST = 5  # samples taken before and after each set-up

_RNG = np.random.default_rng(20240208)
_MATRIX = _RNG.standard_normal((8, 8))
_VECTOR = _RNG.standard_normal(8)
_BLOCKS = [list(range(i, min(i + 3, 60))) for i in range(0, 60, 3)]


def kernel() -> float:
    """A fixed mix like one solver iteration: small LAPACK calls, matrix
    products and a Python loop over blocks.  Returns a checksum."""
    acc = 0.0
    x = _VECTOR
    for _ in range(10):
        s = np.linalg.svd(_MATRIX, compute_uv=False)
        x = _MATRIX @ x
        x = x / float(np.linalg.norm(x))
        values = (x @ _MATRIX).tolist() * 8
        for block in _BLOCKS:
            acc += sum(values[i] * values[i] for i in block) ** 0.5
        acc += float(s[0])
    return acc


def sample() -> float:
    """Seconds of one kernel run: the fastest of :data:`REPEATS`."""
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class Gauge:
    """Kernel samples in time order, and the speed they give an interval."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.seconds: list[float] = []

    def take(self) -> None:
        t = time.perf_counter()
        self.seconds.append(sample())
        self.times.append(t)

    def burst(self) -> None:
        """Take :data:`BURST` samples back to back (around a set-up)."""
        for _ in range(BURST):
            self.take()

    def tick(self) -> None:
        """Take a sample unless one was taken in the last :data:`EVERY_S`."""
        if not self.times or time.perf_counter() - self.times[-1] >= EVERY_S:
            self.take()

    def factor(self, start: float, end: float) -> float:
        """``REFERENCE_S`` over the median kernel time sampled within
        :data:`WINDOW_S` of ``[start, end]`` (the nearest sample if none)."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.seconds[lo:hi]
        if not near:
            i = bisect.bisect_left(self.times, start)
            i = min(
                (j for j in (i - 1, i) if 0 <= j < len(self.times)),
                key=lambda j: abs(self.times[j] - start),
            )
            near = [self.seconds[i]]
        return REFERENCE_S / statistics.median(near)
