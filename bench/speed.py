"""Machine-speed correction for the benchmark's time metrics.

Shared virtual machines drift.  On a 2-vCPU Intel Xeon VM, identical
work took from 0.6x to 1.3x its median time, in phases lasting from
seconds to minutes, with process CPU time equal to wall time (other
tenants share the host).  Raw times of runs a few minutes apart then
differ by more than any useful regression bound.

A SpeedMeter runs a fixed pure-Python probe (about 3 ms of Fraction
elimination and dict arithmetic, no jetforge code) every 0.1 s from a
SIGALRM handler, so it samples the machine's speed during long jobs
too.  `corrected(t0, t1)` is the time of an interval with the probes
taken out, divided by the speed factor there: the mean probe time in
the interval over REF_PROBE_S.  At reference speed it equals the raw
time.  Garbage collection is off during a probe, so the size of
jetforge's heap does not change the probe's time.
"""

from __future__ import annotations

import bisect
import gc
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.1
# probe time at the reference speed: the fast phase of a 2-vCPU Intel
# Xeon VM with Python 3.11.7
REF_PROBE_S = 0.0025
# an interval with no probe inside uses this many probes before it
NEAREST = 8


def probe():
    """Fixed reference work; returns a value so nothing is skipped."""
    rows = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(5)]
            for i in range(4)]
    r = 0
    for c in range(5):
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    p = {(i, j, k): Fraction(i - j, k + 1) for i in range(3) for j in range(3) for k in range(2)}
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in p.items():
            key = tuple(a + b for a, b in zip(m1, m2))
            out[key] = out.get(key, 0) + c1 * c2
    return r, len(out)


class SpeedMeter:
    """Samples machine speed while installed (a context manager)."""

    def __init__(self):
        self.ends = []       # perf_counter at the end of each probe
        self.durations = []  # seconds each probe took
        self._previous = None

    def _tick(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.perf_counter()
        probe()
        t1 = time.perf_counter()
        if collecting:
            gc.enable()
        self.ends.append(t1)
        self.durations.append(t1 - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _span(self, t0, t1):
        # a probe runs between two bytecodes of the main thread, so one
        # that ends inside [t0, t1] lies wholly inside it
        return bisect.bisect_right(self.ends, t0), bisect.bisect_right(self.ends, t1)

    def factor(self, t0, t1):
        """Mean probe time around [t0, t1] over the reference time."""
        lo, hi = self._span(t0, t1)
        window = self.durations[lo:hi] or self.durations[max(hi - NEAREST, 0):hi]
        return sum(window) / len(window) / REF_PROBE_S

    def corrected(self, t0, t1):
        """Seconds of [t0, t1] outside the probes, at reference speed."""
        lo, hi = self._span(t0, t1)
        return (t1 - t0 - sum(self.durations[lo:hi])) / self.factor(t0, t1)
