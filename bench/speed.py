"""Machine-speed sampling, so that timings hold steady on a shared host.

On a shared virtual machine the same pure-Python work can run 1.5-2x slower
for seconds to minutes at a time, which swamps the changes the benchmark is
meant to show.  While a SpeedSampler is active, a SIGALRM timer interrupts
the measured work every INTERVAL_S seconds and times KERNEL, a fixed piece
of Fraction and dict work like the pipeline's own.  A wall time multiplied
by REFERENCE_S / (mean kernel time over the same interval) is the time the
work would take on a host where the kernel takes REFERENCE_S seconds.
The kernel calls add about 1-2% to the wall time they interrupt, on every
run alike.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.5
REFERENCE_S = 0.005
# fewer samples than this in an interval fall back to a wider interval
MIN_SAMPLES = 3


def kernel() -> Fraction:
    acc = Fraction(0)
    seen = {}
    for i in range(1, 2500):
        acc += Fraction(i % 7 + 1, i % 11 + 1)
        seen[i % 64] = acc
    return acc


def kernel_time() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


def direct_factor(repeats: int = 7) -> float:
    """Speed factor from kernel calls made now, outside any sampler."""
    return REFERENCE_S / statistics.median(kernel_time()
                                           for _ in range(repeats))


class SpeedSampler:
    """Context manager that samples the kernel time every INTERVAL_S."""

    def __init__(self):
        self.samples = []  # (perf_counter at the sample, kernel seconds)
        self._previous = None

    def _tick(self, signum, frame):
        self.samples.append((time.perf_counter(), kernel_time()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self, start: float, end: float):
        """REFERENCE_S over the mean kernel time in [start, end], or None
        when fewer than MIN_SAMPLES fell in it."""
        hits = [k for t, k in self.samples if start <= t <= end]
        if len(hits) < MIN_SAMPLES:
            return None
        return REFERENCE_S / statistics.fmean(hits)
