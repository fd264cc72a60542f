"""Wall time at a fixed host speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes
from second to second: a fixed pure-Python loop took 11-29 ms within
one minute on one vCPU, and every workload slowed with it, so raw wall
times of the same code spread 10-44 % (IQR / median) over ten runs.
:class:`HostClock` runs that reference loop between units of work
(:meth:`HostClock.tick`) and rescales each measured interval by the two
readings that bracket it: the interval's wall time times
``REFERENCE_S / reading``.  Timings are thus reported at the speed of a
host on which the loop takes :data:`REFERENCE_S`; the raw wall times
are printed beside them.
"""

from __future__ import annotations

import bisect
import statistics
import time
from typing import List

perf_counter = time.perf_counter

#: Iterations of the reference loop (11-29 ms on the reference machine).
REFERENCE_ITERATIONS = 100_000
#: The reference loop's time that scaled timings correspond to: about
#: its fastest on one vCPU of the reference machine (Intel Xeon VM,
#: 2 vCPUs, Python 3.11).
REFERENCE_S = 0.0115


def reference_loop() -> float:
    """Wall time of one fixed pure-Python loop: how fast this CPU runs
    right now."""
    table: dict = {}
    started = perf_counter()
    for i in range(REFERENCE_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return perf_counter() - started


class HostClock:
    """Reference-loop readings taken between units of work."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.readings: List[float] = []

    def tick(self) -> None:
        """Take one reading (call it between two timed intervals)."""
        self.starts.append(perf_counter())
        self.readings.append(reference_loop())

    def scaled(self, started: float, seconds: float) -> float:
        """*seconds* of wall time that began at *started*, at reference
        speed: scaled by the mean of the last reading before the interval
        and the first one after it."""
        before = bisect.bisect_left(self.starts, started)
        after = bisect.bisect_left(self.starts, started + seconds)
        near = self.readings[max(before - 1, 0):before] \
            + self.readings[after:after + 1]
        return seconds * REFERENCE_S / statistics.fmean(near)

    def median_ms(self) -> float:
        """The median reading, in ms (how fast the host ran)."""
        return statistics.median(self.readings) * 1e3
