"""Host-speed correction for timings taken on a shared machine.

On a shared 2-core host the same job's time swings by up to +-25% within a
few seconds, and a 1 ms probe swings by 15% (median) from one tenth of a
second to the next.  CPU time swings with wall time and the kernel reports
no steal time: the host's speed varies, not the scheduling.  Medians over a
run of a few seconds keep much of that swing (quartile spreads of 15-30%
from run to run).

So while jobs run, an interval timer interrupts them every ``INTERVAL_S`` to
time a fixed pure-Python probe.  The probe mixes the package's inner-loop
operations (small Fraction products, dict updates keyed by tuples) and
imports nothing from it, so a change to the program never changes the
probe.  A job's time is its wall time minus the time spent probing, scaled
by ``REFERENCE_S`` times the mean probe speed while it ran (from the last
probe before it to the first after it).  Reported times are therefore
seconds at the reference host speed; the run prints the uncorrected wall
time beside them.  Probing costs about 5% of a run's duration and none of
the reported time.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

REFERENCE_S = 0.0015  # probe time on a 2-core x86 host at its usual speed
INTERVAL_S = 0.03

_VALUES = [Fraction(p, q) for p in (-3, -2, -1, 1, 2, 5) for q in (1, 2, 3, 4)]


def probe_seconds():
    start = time.perf_counter()
    acc = {}
    n = len(_VALUES)
    for i in range(300):
        key = (i & 15, i % 7)
        acc[key] = acc.get(key, 0) + _VALUES[i % n] * _VALUES[(i * 7) % n]
    return time.perf_counter() - start


class HostSpeed:
    """Probe timings taken from an interval timer while a pass runs.

    Use as a context manager around the jobs; ``spent`` is the wall time
    spent probing so far, for subtracting from the jobs it interrupted.
    """

    def __init__(self):
        self.times = []
        self.probe_s = []
        self.spent = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        self.probe_s.append(probe_seconds())
        self.times.append(start)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factor(self, start, end):
        """REFERENCE_S times the mean probe speed from the last probe before start
        to the first after end."""
        lo = bisect.bisect_right(self.times, start) - 1
        hi = bisect.bisect_left(self.times, end)
        window = self.probe_s[lo:hi + 1]
        return REFERENCE_S * sum(1 / p for p in window) / len(window)
