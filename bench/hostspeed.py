"""How fast the shared host runs this process, sampled while the work runs.

The host is shared: how fast it runs one process drifts by a third or more
for seconds to minutes at a time, and a probe run before and after an op
misses what happened during it.  So a wall-clock timer interrupts the work
every ``PERIOD_S`` seconds and runs a fixed sum of fractions, the probe,
between two bytecodes of the main thread.  The mean probe time over an
interval says how slow the host was during it, and ``rescale`` turns the
interval's wall seconds, less the time spent probing, into seconds on the
reference host, where one probe takes ``PROBE_REF_S``.  A program that gets
faster gets faster on the reference host too: the probe never calls it.

A long call into C code defers the probes due during it, so an interval
needs a few probes before its rescaled time means anything; callers pool
short intervals until they have ``MIN_PROBES``.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.025
PROBE_TERMS = 100
# seconds one probe takes on the reference host
PROBE_REF_S = 0.0005
MIN_PROBES = 8


class Sampler:
    """Probes on SIGALRM between ``start`` and ``stop``; ``take`` returns
    the probe times and the seconds spent probing since the last take."""

    def __init__(self):
        self.probes = []
        self.previous = None

    def _probe(self, signum, frame):
        self.probes.append(probe())

    def start(self):
        self.previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)

    def take(self):
        probes, self.probes = self.probes, []
        return probes, sum(probes)


def probe() -> float:
    """Wall seconds of one probe: a fixed sum of fractions, the same kind of
    interpreter work (calls, small objects, big-integer gcd) as ratpoints."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i, i + 7)
    return time.perf_counter() - start


def rescale(seconds: float, probes: list) -> float:
    """``seconds`` of work, measured while ``probes`` ran, on the reference
    host."""
    return seconds * PROBE_REF_S / statistics.fmean(probes)
