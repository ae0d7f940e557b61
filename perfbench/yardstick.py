"""Host-speed correction for wall times measured on a shared machine.

On a host shared with other tenants (measured on a 2-vCPU Intel Xeon
virtual machine) the same Python code ran up to about twice as slowly
for minutes at a time, while CPU time kept tracking wall time: the
slowdown is contention for the core, not preemption.  No statistic of
raw wall times removes that, so every timing is also corrected by a
yardstick: a fixed computation of the
same kind as the program's hot path (``math.fsum`` distances between
25-dimensional vectors, as in case retrieval), sampled every
``INTERVAL_S`` by a timer signal while the measured work runs.

A corrected time is the raw time, less the time the samples themselves
took, divided by the host slowdown the samples around the work show
(their duration relative to ``REFERENCE_S``): the time the work would
have taken had the host run the yardstick in ``REFERENCE_S``.  The raw
times are reported next to the corrected ones.
"""

from __future__ import annotations

import bisect
import math
import random
import signal
import statistics
import time
from typing import List, Tuple

#: Time between two yardstick samples while work is timed.
INTERVAL_S = 0.01
#: Samples taken this long before a piece of work also describe it, so
#: work shorter than the interval still has a sample.
LOOKBACK_S = 0.1
#: Nominal duration of one yardstick, about what it takes on an unloaded
#: core of the machine the benchmark was written on (Intel Xeon, Python
#: 3.11); corrected times are expressed at this host speed.
REFERENCE_S = 0.00012

_RNG = random.Random(0)
_VECTORS = [tuple(_RNG.random() for _ in range(25)) for _ in range(31)]


def measure() -> float:
    """Run the yardstick once; return its duration in seconds."""
    start = time.perf_counter()
    query = _VECTORS[0]
    for vector in _VECTORS[1:]:
        math.sqrt(math.fsum((a - b) ** 2 for a, b in zip(query, vector)))
    return time.perf_counter() - start


def factor(durations: List[float]) -> float:
    """Host slowdown implied by yardstick durations (1.0 = reference).

    Samples are evenly spaced in wall time and the work done in each
    interval is proportional to 1 / duration, so the slowdown over the
    intervals is the harmonic mean of the durations.
    """
    return statistics.harmonic_mean(durations) / REFERENCE_S


class Sampler:
    """Yardstick samples taken by a timer signal while work runs.

    ``work_clock`` is ``time.perf_counter`` less the time spent in
    samples, so timers read from it leave the samples out.
    """

    def __init__(self) -> None:
        self._times: List[float] = []
        self._durations: List[float] = []
        self._spent = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self._times.append(time.perf_counter())
        duration = measure()
        self._durations.append(duration)
        self._spent += duration

    def work_clock(self) -> float:
        return time.perf_counter() - self._spent

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def paused(self, fn, *args):
        """Call ``fn`` with sampling stopped (for work in other processes)."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        try:
            return fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def mark(self) -> Tuple[float, float]:
        """Start timing a piece of work; pass the result to ``elapsed``."""
        return time.perf_counter(), self.work_clock()

    def elapsed(self, mark: Tuple[float, float]) -> Tuple[float, float]:
        """(raw, corrected) seconds of the work started at ``mark``."""
        start, work_start = mark
        end = time.perf_counter()
        work = self.work_clock() - work_start
        lo = bisect.bisect_left(self._times, start - LOOKBACK_S)
        window = self._durations[lo:] or self._durations[-1:]
        return end - start, (work / factor(window) if window else work)
