"""Wall times corrected for the host's speed drift.

On a shared virtual machine the same pure-Python work can take twice as
long in one stretch of seconds as in the next, because the host lends the
CPU elsewhere.  While a Clock is active, an interval timer interrupts the
process every PERIOD_S and times a small fixed probe: the benchmark's own
exact arithmetic plus a walk over a table larger than the caches nearest
the core, and none of ximod's code.  A measured duration has the probe
time that fell inside it removed, and is then scaled by
NOMINAL_PROBE_S / (mean probe time around it): the result is the wall time
the work would have taken on a host that runs the probe in
NOMINAL_PROBE_S.  The mean, not the minimum, is used because time the host
takes away lengthens probes and measured work alike.
"""
from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction

import algebra as al

NOMINAL_PROBE_S = 0.00008
PERIOD_S = 0.005
WINDOW_S = 0.25  # probes this far before and after a duration also count
MIN_PROBES = 20

_Q, _FP = al.Q(), al.FP(101)
_QA = [Fraction(7 * k + 1, k + 2) for k in range(3)]
_QB = [Fraction(3 * k - 5, 2 * k + 3) for k in range(3)]
_FA = [(37 * k + 5) % 101 for k in range(4)]
_FB = [(11 * k + 3) % 101 for k in range(4)]


_TABLE = [Fraction(k, 7) for k in range(20000)]  # larger than the caches nearest the core


def probe_kernel():
    al.pmul(_Q, _QA, _QB)
    al.pdivmod(_FP, al.pmul(_FP, _FA, _FB), _FB)
    for k in range(0, len(_TABLE), 97):
        _TABLE[k].numerator


class Clock:
    """Probe samples taken while active, and the scaling they give."""

    def __init__(self):
        self.at: list[float] = []
        self.probe: list[float] = []
        self.probe_total = 0.0
        self._previous = None

    def _sample(self, _signum=None, _frame=None):
        # the first run refills the caches the interrupted work evicted;
        # the second is the sample
        first = time.perf_counter()
        probe_kernel()
        start = time.perf_counter()
        probe_kernel()
        end = time.perf_counter()
        self.at.append(start)
        self.probe.append(end - start)
        self.probe_total += end - first

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def time(self, fn, *args):
        """fn(*args), its start, and its wall seconds without probe time."""
        before = self.probe_total
        start = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - start - (self.probe_total - before)
        return result, start, seconds

    def scale(self, start: float, seconds: float) -> float:
        """seconds times NOMINAL_PROBE_S over the mean probe time around
        [start, start + seconds]."""
        lo = bisect.bisect_left(self.at, start - WINDOW_S)
        hi = bisect.bisect_right(self.at, start + seconds + WINDOW_S)
        if hi - lo < MIN_PROBES:
            k = bisect.bisect_left(self.at, start + seconds / 2)
            lo = max(0, min(k - MIN_PROBES // 2, len(self.at) - MIN_PROBES))
            hi = min(len(self.at), lo + MIN_PROBES)
        return seconds * NOMINAL_PROBE_S / statistics.fmean(self.probe[lo:hi])

    def speed(self) -> float:
        """Nominal over mean probe time for the whole run (1 = nominal)."""
        return NOMINAL_PROBE_S / statistics.fmean(self.probe)
