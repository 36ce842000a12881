"""Host time rescaled to a fixed reference speed.

The benchmark runs on shared hosts whose virtual CPUs change speed by a
third or more within a minute, as other tenants come and go.  Process CPU
time changes just as much, so it is no cure.  A fixed pure-Python loop,
timed right before and right after the work being measured, tracks that
drift.  A host time ``t`` is reported as ``t * REF_S / r``, where ``r`` is
the loop's mean time around the work: the seconds the work would take on a
machine on which the loop takes ``REF_S`` seconds.  The loop is the
benchmark's own code, so a change to awakesim moves the scaled time by
the share it moves the host time.
"""

from __future__ import annotations

import statistics
import time

# Seconds one reference loop is scaled to; about its time on a 2-vCPU cloud
# host with Python 3.
REF_S = 0.01
_REPS = 3


def _ref_loop() -> int:
    """Dict lookups and stores and small-int arithmetic, as in awakesim."""
    d = {}
    s = 0
    for i in range(40000):
        k = (i * 7919) % 40009
        d[k] = d.get(k, 0) + i
        s += k & 7
    return s


def ref_time() -> float:
    """Median host seconds of a few reference loops, run now."""
    clock = time.perf_counter
    times = []
    for _ in range(_REPS):
        t0 = clock()
        _ref_loop()
        times.append(clock() - t0)
    return statistics.median(times)


def rescale(seconds: float, ref_before: float, ref_after: float) -> float:
    """``seconds`` of host time at the reference speed, given the loop's
    times right before and right after them."""
    return seconds * REF_S * 2 / (ref_before + ref_after)


class ScaledClock:
    """Rescales consecutive spans of host time, each by the loops around it."""

    def __init__(self):
        self.start()

    def start(self) -> None:
        """Time the loop now, before the first span to be scaled."""
        self._last = ref_time()

    def scale(self, seconds: float) -> float:
        """Scale ``seconds`` that ended just now; times the loop once more."""
        before, self._last = self._last, ref_time()
        return rescale(seconds, before, self._last)
