"""The host's speed, sampled between requests with a fixed exact-pivoting kernel.

The benchmark runs on cores shared with other machines, whose load slows a
request by up to 1.6x, switching within seconds and in stretches of a
minute.  The kernel below is fixed work of the program's own kind: integer
row operations with gcd reduction, as the exact simplex does them, written
here so that no change to the program can change it.  Run between requests,
its time says how fast the host is at that moment.  A request's time divided
by the kernel time around it is the request's cost in kernel runs, which the
host's load moves far less than it moves either time; multiplied by
KERNEL_REF_S, the kernel's time on the reference machine (see README.md),
that cost reads as seconds on that machine.

The kernel runs with the cyclic garbage collector off, so the heap the
program leaves behind does not change its work.
"""
from __future__ import annotations

import gc
import random
from bisect import bisect_left, bisect_right
from math import gcd
from statistics import fmean, median
from time import perf_counter

# Seconds one kernel run takes on the reference machine (2-core Xeon VM,
# Python 3.11.7) when it is quiet; it converts kernel runs to seconds.
KERNEL_REF_S = 0.0009
# The kernel runs after requests until its time is this share of the time
# spent in requests, so the host is sampled evenly over the run.
SAMPLE_SHARE = 0.1
# A request's kernel time is the median over the kernel runs within this
# many seconds of it: the host's speed holds for about that long.
WINDOW_S = 1.0

_ROWS, _COLS = 12, 36
_rng = random.Random("hostspeed")
_TABLEAU = [[_rng.randint(0, 9) for _ in range(_COLS)] for _ in range(_ROWS)]


def _reduce(row: list[int]) -> list[int]:
    g = 0
    for v in row:
        if v:
            g = gcd(g, v)
            if g == 1:
                return row
    return [v // g for v in row] if g > 1 else row


def kernel() -> int:
    """Pivot once on every row of a fixed 12 x 36 integer tableau; returns
    its last entry."""
    num = [row[:] for row in _TABLEAU]
    for k in range(_ROWS):
        prow = num[k]
        enter = next(j for j in range(_COLS) if prow[j] > 0)
        piv = prow[enter]
        for i in range(_ROWS):
            f = num[i][enter]
            if i != k and f:
                num[i] = _reduce([v * piv - f * pv for v, pv in zip(num[i], prow)])
    return num[-1][-1]


_EXPECTED = kernel()


class HostSpeed:
    """Kernel runs taken after requests: the end time and duration of each."""

    def __init__(self):
        self.times: list[float] = []
        self.runs: list[float] = []
        self.owed = 0.0  # kernel seconds still to run for the requests so far

    def sample(self, busy: float, force: bool = False) -> None:
        """Account `busy` seconds of requests and run the kernel for the
        kernel time they are owed; with `force`, at least once."""
        self.owed += SAMPLE_SHARE * busy
        if self.owed <= 0 and not force:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            first = True
            while first or self.owed > 0:
                first = False
                start = perf_counter()
                result = kernel()
                end = perf_counter()
                if result != _EXPECTED:
                    raise RuntimeError("host-speed kernel gave a different result")
                self.owed -= end - start
                self.times.append(end)
                self.runs.append(end - start)
        finally:
            if enabled:
                gc.enable()

    def around(self, start: float, end: float) -> float:
        """Median kernel time over the runs from WINDOW_S before `start` to
        WINDOW_S after `end`, and at least the run before and the run after.
        The median, not the mean: the first run after a large request can be
        slowed by the memory that request freed."""
        lo = bisect_left(self.times, start - WINDOW_S)
        lo = min(lo, max(bisect_left(self.times, start) - 1, 0))
        hi = max(bisect_right(self.times, end + WINDOW_S), bisect_right(self.times, end) + 1)
        return median(self.runs[lo:hi])

    def mean(self) -> float:
        """Mean kernel time over every run so far."""
        return fmean(self.runs)
