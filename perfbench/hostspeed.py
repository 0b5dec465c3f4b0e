"""Times at a reference host speed.

The host the benchmark was written on shares its cores with other
tenants.  Its speed drifts by up to 1.7x, in stretches that last from a
second to several minutes, and the same stretch slows every process on it
alike.  So the clients read the host's speed now and then with
:func:`probe`, a fixed loop of the exact rational arithmetic and small
dicts that tropd4 spends its time on, and ``run.py`` scales each time it
reports by the probes taken around it: a time is reported as it would
read on a host where the probe takes :data:`REFERENCE_S`.  The probe
shares no code with tropd4, so no change to the program moves it.  On a
five-minute recording of ``point_in_hull`` calls, scaling cut the spread
of 10-second medians from 0.17 to 0.02 (a plain integer loop as the
probe: 0.07).
"""

from __future__ import annotations

import bisect
import statistics
from fractions import Fraction
from time import perf_counter

PROBE_LOOPS = 400
# About what the probe takes on an idle 2-vCPU x86 VM with Python 3.11.7;
# only a unit, the same for every commit.
REFERENCE_S = 0.002
# Clients probe at most this often, so probes cost about 5 % of a run.
INTERVAL_S = 0.05
# A time is scaled by the median of this many probes nearest its start.
WINDOW = 5


def probe():
    """Seconds the fixed loop takes now."""
    start = perf_counter()
    acc, seen = Fraction(0), {}
    for i in range(1, PROBE_LOOPS):
        f = Fraction(i, i % 7 + 1)
        acc += f * f
        seen[i % 50, i % 7] = acc
    return perf_counter() - start


class Probes:
    """Probes of one process, at most one per :data:`INTERVAL_S`.

    Its :meth:`clock` stops while a probe runs, so no time read from it
    includes one.
    """

    def __init__(self):
        self.readings = []  # [clock(), probe seconds]
        self.spent = 0.0
        self.due = float("-inf")

    def clock(self):
        """``perf_counter()`` less the seconds spent probing."""
        return perf_counter() - self.spent

    def tick(self):
        """Probe if it is due, then return :meth:`clock`."""
        now = self.clock()
        if now >= self.due:
            start = perf_counter()
            self.readings.append([now, probe()])
            self.spent += perf_counter() - start
            self.due = now + INTERVAL_S
        return self.clock()


def scale(steps, readings):
    """``[(start, seconds)]`` as seconds at the reference speed.

    ``readings`` are the ``[clock reading, probe seconds]`` of the process
    that made the steps, in clock order, and ``start`` is read from the
    same clock.
    """
    clock = [t for t, _ in readings]
    half = WINDOW // 2
    scaled = []
    for start, seconds in steps:
        k = bisect.bisect(clock, start)
        lo = max(0, min(k - half, len(readings) - WINDOW))
        near = statistics.median(p for _, p in readings[lo:lo + WINDOW])
        scaled.append(seconds * REFERENCE_S / near)
    return scaled
