"""Machine-speed probe that puts run timings on a common scale.

On a shared machine the interpreter switches between a fast and a slow state
within seconds (the slow one about 1.7 times slower), so raw times of a
fixed answer drifted by 30% between runs a minute apart, far more than the
regressions the benchmark must catch.  While a run measures, a timer signal
therefore interrupts it every ``TICK_S`` seconds to time a fixed,
interpreter-bound probe.  Each answer and each op is rescaled by the mean
time of the probes around it, to the speed at which the probe takes
``NOMINAL_S``, and the clock they are timed with excludes the probes.  The probe is the
benchmark's own code, so no change to the library can move it.
"""

import bisect
import itertools
import math
import signal
import time

# Seconds one probe takes at nominal speed (x86-64, CPython 3.11: about
# 0.8 ms in the fast state and 1.35 ms in the slow one).
NOMINAL_S = 0.001
TICK_S = 0.05
ITERATIONS = 2000
# An interval is rescaled by the probes within this margin of it, so that
# even a 1 ms op sees about five probes.
MARGIN_S = 0.125


def probe():
    """Time fixed work shaped like the library's loops: float math, tuples, dicts."""
    start = time.perf_counter()
    acc = 0.0
    table = {}
    for i in range(ITERATIONS):
        x = (i * 0.618033988749895) % 1.0
        y = math.sin(x) * math.log1p(x)
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0.0) + y
        acc += abs(x - y)
    return time.perf_counter() - start


class SpeedProbe:
    """Probes taken from a SIGALRM handler while the context is active.

    ``clock()`` is ``time.perf_counter()`` minus the time spent in probes,
    so intervals measured with it exclude them.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the probe, probe seconds), in order
        self.spent = 0.0
        self._previous = None
        self._times = []
        self._sums = [0.0]

    def _tick(self, signum, frame):
        entered = time.perf_counter()
        self.samples.append((entered, probe()))
        self.spent += time.perf_counter() - entered

    def clock(self):
        return time.perf_counter() - self.spent

    def sample(self, count=20):
        """Probes taken directly, for runs that cannot be interrupted."""
        for _ in range(count):
            self.samples.append((time.perf_counter(), probe()))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start=-math.inf, end=math.inf):
        """Multiply a time measured between perf_counter ``start`` and ``end``
        by this to express it at nominal speed.  Uses the probes within
        ``MARGIN_S`` of the interval, or all of them if there are none."""
        if len(self._times) != len(self.samples):
            self._times = [t for t, _ in self.samples]
            self._sums = [0.0, *itertools.accumulate(s for _, s in self.samples)]
        lo = bisect.bisect_left(self._times, start - MARGIN_S)
        hi = bisect.bisect_right(self._times, end + MARGIN_S)
        if hi == lo:
            lo, hi = 0, len(self._times)
        return NOMINAL_S * (hi - lo) / (self._sums[hi] - self._sums[lo])
