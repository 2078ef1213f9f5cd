"""CPU-speed sampling, so times can be reported at a reference speed.

On a shared virtual machine the CPU speed a process gets drifts: on the
2-vCPU machine this harness was built on, the time of a fixed kernel moved
by about 30 % (interquartile range of 20-second windows) within minutes.
`SpeedClock` runs a fixed ~1 ms kernel from a SIGALRM handler every
`INTERVAL_S` of wall time, in the benchmark's own process and thread.
`reference_s` then turns a wall-time interval into seconds at reference
speed: the wall time minus the kernel's own time inside the interval, times
`REFERENCE_S` / the median kernel time around it.  The kernel runs no
ergorank code, so a slower program still shows in full.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

#: Sampling period of the kernel, in seconds of wall time.
INTERVAL_S = 0.02
#: Nominal time of one kernel run: the reference speed.
REFERENCE_S = 0.001
#: Fewest kernel samples behind one conversion; short intervals borrow the
#: nearest samples on either side.
MIN_SAMPLES = 8


class SpeedClock:
    """Kernel samples (start time, duration) taken while started."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._block = rng.standard_normal((16, 48))
        self._diag = rng.standard_normal(16)
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _kernel(self) -> None:
        """Pure-Python loop plus small numpy element-wise ops and reductions."""
        acc = 0
        for i in range(8_000):
            acc += i & 7
        for _ in range(80):
            np.abs(self._diag[:, None] * self._block).sum(axis=0)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self._kernel()
        self.durations.append(time.perf_counter() - start)
        self.starts.append(start)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def reference_s(self, start: float, end: float) -> float:
        """Seconds at reference speed for the wall interval [start, end]."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.durations[lo:hi])
        while hi - lo < MIN_SAMPLES and (lo > 0 or hi < len(self.starts)):
            lo, hi = max(0, lo - 1), min(len(self.starts), hi + 1)
        if lo == hi:
            return end - start
        return (end - start - own) * REFERENCE_S / statistics.median(self.durations[lo:hi])

    def factor(self) -> float:
        """Reference speed / the median speed over every sample."""
        return REFERENCE_S / statistics.median(self.durations) if self.durations else 1.0
