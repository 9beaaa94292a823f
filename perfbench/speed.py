"""Machine-speed calibration for the end-to-end timings.

The CPU speed this benchmark sees can change by a factor of 1.5 from one
minute to the next when other work shares the host (measured on a 2-vCPU
virtual machine: the same pass took 1.8 s in one run and 2.9 s in the
next).  Raw wall-clock medians then spread by about 35% between runs, more
than any useful regression bound.  Over the same runs the time of a fixed
stdlib kernel slowed in step, so every end-to-end time is reported scaled by
the kernel's speed measured alongside it:

    reported = wall seconds * mean(REFERENCE_KERNEL_S / kernel time)

over the kernel samples taken during the interval, that is, in seconds of
a machine on which the kernel takes exactly REFERENCE_KERNEL_S.  The mean
is of speeds, not of kernel times, because work done is the integral of
speed over time.  While timing, a SIGALRM handler runs the kernel every
SAMPLE_INTERVAL_S in the measuring process's own thread, so samples fall
uniformly in time, inside the work they calibrate.  The kernel uses only the
standard library (Fraction arithmetic and a dict), never quantred, so a
faster quantred cannot move it.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

REFERENCE_KERNEL_S = 0.0005
SAMPLE_INTERVAL_S = 0.05


def kernel():
    """Fixed exact-arithmetic work in the style of the engine's inner loops."""
    table = {}
    for i in range(1, 60):
        f = Fraction(i % 7 + 1, i % 11 + 1) * Fraction(i % 5 + 2, i % 3 + 1) + Fraction(1, i % 4 + 1)
        key = (i % 17, f.denominator)
        table[key] = table.get(key, 0) + f
    return table


def time_kernel() -> float:
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start


class Speedometer:
    """Kernel timings (start time, seconds) taken every SAMPLE_INTERVAL_S
    while the context is entered."""

    def __init__(self):
        self.samples = []

    def _sample(self, signum, frame):
        self.samples.append((time.perf_counter(), time_kernel()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """Mean speed, REFERENCE_KERNEL_S over kernel time, of the samples
        taken in [start, end], or of the two nearest ones if none was, or of
        a measurement made now if no sample has been taken yet."""
        if not self.samples:
            return scale_now()
        inside = [k for t, k in self.samples if start <= t <= end]
        if not inside:
            nearest = sorted(self.samples, key=lambda tk: min(abs(tk[0] - start), abs(tk[0] - end)))
            inside = [k for _, k in nearest[:2]]
        return statistics.mean(REFERENCE_KERNEL_S / k for k in inside)

    def scaled(self, start: float, end: float) -> float:
        """The interval's length in reference seconds.  Short intervals are
        widened by half a sampling period on each side to find samples."""
        pad = SAMPLE_INTERVAL_S / 2
        return (end - start) * self.scale(start - pad, end + pad)


def scale_now(repeats: int = 5) -> float:
    """The same scale measured on the spot, for intervals too short to hold
    a timer sample (set-up takes about 50 ms)."""
    return statistics.mean(REFERENCE_KERNEL_S / time_kernel() for _ in range(repeats))
