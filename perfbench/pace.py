"""The host's speed, measured while ops run, so that timings taken on a
shared host can be scaled to one reference speed.

The benchmark runs on a share of a few cores of a host that other work
also uses.  The speed a core gives it changes by up to 1.8x for stretches
of seconds to minutes, and that, not the seed, was most of the run-to-run
spread of raw timings.  So the worker times a fixed reference task in
short blocks while it runs the ops, and reports each op's time also as

    scaled = raw * REFERENCE_S / (mean reference time of the blocks
                                  during the op and on either side of it)

that is, in seconds of a host on which the reference task takes
REFERENCE_S.  The reference task is the benchmark's own code, never the
program's, so a change to the program moves a scaled time by the same
ratio as the raw one.  Raw times are kept in every record as well.

A block runs from a SIGALRM handler every EVERY_S seconds, between the
program's bytecodes; the time spent in blocks is taken out of the op's
own time.  README.md gives the spreads measured with and without scaling.
"""

import bisect
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.001
EVERY_S = 0.5
BLOCK_S = 0.05

_M = (np.arange(16 * 16, dtype=np.int64).reshape(16, 16) * 7 + 3) % 5
_T = (np.arange(64 * 64, dtype=np.int64).reshape(64, 64) * 11 + 5) % 64
_I = (np.arange(4096, dtype=np.int64) * 37) % 64


def reference_task() -> int:
    """Interpreter arithmetic, small products mod p and table lookups:
    the kinds of work topring does."""
    s = 0
    for i in range(3000):
        s = (s * 31 + i) % 65521
    x = _M
    for _ in range(30):
        x = (x @ _M) % 5
    y = _I
    for _ in range(10):
        y = _T[y, _I]
    return s + int(x[0, 0]) + int(y[0])


def block() -> float:
    """Median time of the reference task over a block of about BLOCK_S."""
    times = []
    end = time.perf_counter() + BLOCK_S
    while not times or time.perf_counter() < end:
        t0 = time.perf_counter()
        reference_task()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Pacer:
    """Blocks of the reference task every EVERY_S seconds, from a SIGALRM
    handler.  `spent` sums the time taken by blocks, so that an interval
    timed with perf_counter can have the blocks inside it taken out."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []
        self.spent = 0.0
        self._busy = False

    def tick(self, signum=None, frame=None) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.took.append(block())
        self.at.append(t0)
        self.spent += time.perf_counter() - t0
        self._busy = False

    def start(self) -> None:
        self.tick()
        signal.signal(signal.SIGALRM, self.tick)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.tick()

    def scale(self, t0: float, t1: float) -> float:
        """REFERENCE_S over the mean of the blocks that started in [t0, t1],
        the last one before t0 and the first one after t1."""
        lo = max(bisect.bisect_left(self.at, t0) - 1, 0)
        hi = bisect.bisect_right(self.at, t1) + 1
        return REFERENCE_S / statistics.fmean(self.took[lo:hi])
