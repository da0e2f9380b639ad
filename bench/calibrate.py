"""Host-speed calibration: a fixed pure-Python kernel timed during the jobs.

A small shared host gives this process a CPU speed that drifts from second to
second, up to about twice as slow (the process's CPU time drifts with its wall
time, so this is not time stolen by the hypervisor); raw times then move by
more than any useful regression bound, between runs and between sets of
runs.  The benchmark therefore times a fixed kernel (``kernel``: rational
arithmetic and tuple-keyed dicts, the same kind of interpreter work as the
program's, but no call into the program) every ``PERIOD_S`` seconds from a
timer signal, in the middle of jobs as well as between them, and divides each
job's time by the kernel's time measured during and around it.  Multiplied by
``NOMINAL_S`` the result reads as time at a fixed reference speed: the speed
at which the kernel takes ``NOMINAL_S``.  A change to the program moves the
corrected figures exactly as it moves the raw ones; a change of host speed
moves both the job and the kernel, and cancels.  The time the probes take is
left out of in-process job times (``Speed.clock``).  Raw figures are kept
beside the corrected ones in the full record.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

# Reference speed: the kernel's duration at it.  A round figure near the
# kernel's time on a 2-vCPU x86-64 VM with Python 3.11 in its fast stretches
# (0.12 ms, against about 0.24 ms in its slow ones).  Fixed, so that corrected
# figures of different runs and commits compare.
NOMINAL_S = 0.00012
# A probe runs from a timer signal this often (wall time).  The host's speed
# flips between fast and slow on scales from under a millisecond to seconds,
# so probes are short and frequent (about 4% of the loop's time).
PERIOD_S = 0.005
# A job's speed comes from the probes inside it, widened to at least this many
# of the nearest probes.
NEAREST = 21

_STEP = Fraction(3, 7)


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 16):
        q = Fraction(i, i + 3) * _STEP - acc
        key = (i % 11, i % 5)
        table[key] = table.get(key, 0) + q
        acc = q if i % 3 else Fraction(q.numerator % 97, q.denominator % 89 + 1)
    return sum(table.values())


def probe(repeats=1):
    """Seconds one run of the kernel takes (median of ``repeats``)."""
    clock = time.perf_counter
    samples = []
    for _ in range(repeats):
        t0 = clock()
        kernel()
        samples.append(clock() - t0)
    return statistics.median(samples)


def trimmed_mean(values):
    """Mean without the highest and lowest tenth (at least one each from 5 up)."""
    ordered = sorted(values)
    cut = max(1, len(ordered) // 10) if len(ordered) >= 5 else 0
    return statistics.fmean(ordered[cut:len(ordered) - cut])


class Speed:
    """Probes of the kernel taken from a timer while the loop runs.

    Use as a context manager around the loop.  ``clock`` is the wall clock
    minus the time spent in probes; probe times ``at`` are on that clock.
    """

    def __init__(self):
        self.at: list[float] = []
        self.seconds: list[float] = []
        self.spent_s = 0.0
        self._busy = False
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        for _ in range(NEAREST):  # enough to correct even a loop shorter than one period
            self.force_probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.force_probe()

    def _tick(self, _signum, _frame):
        if not self._busy:  # a probe is never interrupted by the next one
            self.force_probe()

    def force_probe(self):
        self._busy = True
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.at.append(t0 - self.spent_s)
            self.seconds.append(t1 - t0)
            self.spent_s += time.perf_counter() - t0
        finally:
            self._busy = False

    def clock(self):
        """Wall time less the time spent in probes."""
        while True:
            spent = self.spent_s
            now = time.perf_counter()
            if spent == self.spent_s:  # no probe ran in between
                return now - spent

    def factor(self, t0, t1):
        """``NOMINAL_S`` over the kernel's time during [t0, t1] (on ``clock``).

        The trimmed mean of the probes inside the interval, widened to the
        nearest ``NEAREST`` when fewer fall inside.
        """
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        while hi - lo < NEAREST:
            if hi >= len(self.at) or (lo > 0 and t0 - self.at[lo - 1] <= self.at[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return NOMINAL_S / trimmed_mean(self.seconds[lo:hi])
