"""A clock that runs at the machine's reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts: a
fixed piece of Python work takes 1.5 to 2 times longer for a minute at a
time.  Wall-clock times of the same code then differ by more between runs
than the changes the benchmark exists to detect.  ``RefClock`` removes that
drift.  While it runs, a timer interrupts the process every ``INTERVAL``
seconds and times a fixed calibration snippet, pure Python work of the same
kind as autalg's: a polynomial product with exponent tuples as dict keys,
and integer arithmetic.  Each stretch of wall time between two interrupts
is scaled by ``REFERENCE_S / c``, where ``c`` is the median duration of the
latest snippets; a stretch therefore counts as the time it would have taken
at the speed at which the snippet takes ``REFERENCE_S``.  The snippet's own
time is left out of both the wall and the scaled clock.

The snippet is part of the benchmark, not of autalg, so a change to autalg
moves scaled times exactly as it moves wall times at a fixed machine speed.
Garbage collection is paused while the snippet runs and everything it
allocates is freed before it returns, so it does not move autalg's
collections.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

INTERVAL = 0.05       # seconds of wall time between calibration samples
REFERENCE_S = 0.0022  # the snippet's duration at the reference speed
WINDOW = 5            # samples in the running median
WARMUP = 12           # samples taken at start, before anything is timed
DISCARD = 4           # snippet runs before those, while it is still cold


_LEFT = [(tuple((3 * i + k) % 4 for k in range(6)), 1 + i % 6) for i in range(24)]
_RIGHT = [(tuple((5 * i + 2 * k) % 3 for k in range(6)), 1 + i % 4) for i in range(24)]


def snippet() -> int:
    """Fixed work of 1.5 to 3 ms on a 2 GHz core: a sparse product of two
    polynomials with exponent tuples as dict keys, a sort of its terms, and
    a loop of small-integer arithmetic (the return value is unused).  Code
    of these two kinds slows down by different amounts when the host is
    busy, and autalg's code lies between them."""
    out: dict = {}
    for ea, ca in _LEFT:
        for eb, cb in _RIGHT:
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = (out.get(e, 0) + ca * cb) % 7
    total = len(sorted((e, c) for e, c in out.items() if c))
    for i in range(15000):
        total += i * i % 7
    return total


def measure() -> float:
    """One snippet, timed with garbage collection paused."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    snippet()
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class RefClock:
    """``now()`` gives (wall seconds, reference seconds) since ``start()``,
    both without the time spent in calibration snippets."""

    def __init__(self):
        self.samples: list[float] = []
        self._wall = 0.0
        self._ref = 0.0
        self._mark = 0.0
        self._ticks = 0
        self._scale = 1.0
        self._running = False
        self._busy = False

    def _rescale(self) -> None:
        self._scale = REFERENCE_S / statistics.median(self.samples[-WINDOW:])

    def start(self) -> None:
        for _ in range(DISCARD):
            measure()
        for _ in range(WARMUP):
            self.samples.append(measure())
        self._rescale()
        self._mark = time.perf_counter()
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._wall, self._ref = self.now()
        self._running = False

    def _tick(self, signum, frame) -> None:
        if self._busy:                    # a sample outlasted the interval
            return
        self._busy = True
        t0 = time.perf_counter()
        self.samples.append(measure())
        self._rescale()
        # the stretch before this sample is scaled by the speed around it
        self._wall += t0 - self._mark
        self._ref += (t0 - self._mark) * self._scale
        self._mark = time.perf_counter()
        self._ticks += 1
        self._busy = False

    def now(self) -> tuple[float, float]:
        if not self._running:
            return self._wall, self._ref
        while True:
            ticks = self._ticks
            stretch = time.perf_counter() - self._mark
            wall, ref = self._wall + stretch, self._ref + stretch * self._scale
            if ticks == self._ticks:      # no sample was taken meanwhile
                return wall, ref

    def speed(self) -> float:
        """Median reference speed over all samples (1.0 at the reference)."""
        return REFERENCE_S / statistics.median(self.samples)

