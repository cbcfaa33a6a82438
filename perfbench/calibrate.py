"""Machine-speed calibration for a shared, noisy host.

On a shared 2-core sandbox the same op can take twice as long from one
second to the next, for reasons outside the process (the host's other
tenants).  While a pass runs, a SIGALRM timer interrupts the worker every
`INTERVAL_S` seconds to time a fixed kernel, also in the middle of long
ops.  Each op's latency is then taken without those interruptions and
scaled by `REFERENCE_S / kernel time` measured during it.  The kernel
mixes the three kinds of work the workloads do (big-integer elimination,
tuple and permutation handling, small numpy linear algebra) and is part
of the benchmark, so no change to specgraph can move it.
"""

from __future__ import annotations

import bisect
import random
import signal
import time
from itertools import permutations

import numpy as np

INTERVAL_S = 0.1
WINDOW_S = 0.25
# median kernel time on the 2-core sandbox the benchmark was tuned on
# (Python 3.11, numpy 2.4); it only sets the scale of the metrics
REFERENCE_S = 0.004

_rng = random.Random(12345)
_MATRIX = [[_rng.randint(-9, 9) for _ in range(12)] for _ in range(12)]
_SYM = np.random.default_rng(12345).standard_normal((6, 6))
_SYM = _SYM + _SYM.T


def _bareiss(rows: list[list[int]]) -> int:
    a = [row[:] for row in rows]
    n, prev = len(a), 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k] or 1
    return a[-1][-1]


def kernel() -> None:
    """The fixed calibration work."""
    for _ in range(2):
        _bareiss(_MATRIX)
        min(tuple(p[i] * 7 + i for i in range(6)) for p in permutations(range(6)))
        for _ in range(30):
            np.linalg.solve(_SYM, np.linalg.eigvalsh(_SYM))


class Clock:
    """Samples the kernel on a timer while active; scales op latencies."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []

    def _sample(self, *_: object) -> None:
        start = time.perf_counter()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter())

    def __enter__(self) -> "Clock":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def measure(self, start: float, end: float) -> tuple[float, float]:
        """Seconds an op spent in [start, end] without samples, and at reference speed.

        The speed is the mean of the samples taken within `WINDOW_S` of the
        interval (at least the nearest one on each side), which smooths the
        jitter of single samples for short ops.
        """
        seconds = [b - a for a, b in zip(self.starts, self.ends)]
        first = bisect.bisect_left(self.starts, start)
        stop = bisect.bisect_right(self.ends, end)
        own = end - start - sum(seconds[first:stop])
        lo = max(min(bisect.bisect_left(self.starts, start - WINDOW_S), first - 1), 0)
        hi = max(bisect.bisect_right(self.ends, end + WINDOW_S), stop + 1)
        near = seconds[lo:hi]
        return own, own * REFERENCE_S * len(near) / sum(near)
