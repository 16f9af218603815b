"""A fixed reference kernel that rescales wall time to a nominal machine speed.

On a shared virtual machine the processor's speed drifts by up to 2× over
seconds to minutes, and CPU time drifts with wall time, so raw op times of
identical code spread more between runs than any useful regression bound.
The kernel below is fixed work that never touches vacuitylab: many numpy
calls on a tiny array, the dispatch-bound mix that dominates the workloads.
``NominalClock`` times it before and after every measured interval and
reports the interval in *nominal seconds*:

    nominal = wall × NOMINAL_S / mean(kernel time before, kernel time after)

A nominal second is the time in which the kernel would take ``NOMINAL_S``;
on the 2-vCPU machine the benchmark was written on it took about that long,
so nominal and wall seconds are close there. Nominal time is proportional
to wall time within an interval, so anything the program does more slowly,
waiting included, shows in it; only the machine's speed at that moment is
divided out.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

NOMINAL_S = 0.025
_ITERATIONS = 2400
_START = np.random.default_rng(0).random((64, 8))


def kernel_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    x = _START
    start = perf_counter()
    for _ in range(_ITERATIONS):
        x = np.tanh(x * 0.5 + 0.1)
        x.sum(axis=1)
    return perf_counter() - start


class NominalClock:
    """Times intervals in wall and nominal seconds; keeps every kernel time it took."""

    def __init__(self):
        kernel_s()  # warm-up pass, not used
        self.kernels = [kernel_s()]
        self._start = None

    def start(self) -> None:
        self._start = perf_counter()

    def stop(self) -> tuple[float, float]:
        """(wall s, nominal s) since ``start``; runs the kernel after the interval."""
        wall = perf_counter() - self._start
        before, after = self.kernels[-1], kernel_s()
        self.kernels.append(after)
        return wall, wall * NOMINAL_S / ((before + after) / 2)
