"""A clock that reads reference seconds: wall time scaled by how fast the
machine is running at the moment.

The benchmark runs on a shared host whose speed swings by up to 2x within a
second and stays slow for minutes, so raw wall times of the same code spread
by 40% between passes.  ``RefClock`` measures that speed while it runs: every
``PERIOD_S`` of wall time a SIGALRM handler times one slice of a fixed
calibration kernel, pure Python that touches nothing of the package.  The
clock then advances through the next stretch at ``REFERENCE_SLICE_S`` over
the slice's time per second.  A stretch run at half speed thus counts half,
and the handlers' own time does not count.  One reference second is the time
the code would take on a machine that runs a kernel slice in
``REFERENCE_SLICE_S``.

Only the benchmark's process is timed this way: the handler runs in the
process's main thread between bytecodes, and the kernel takes 6-11% of
the wall time.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from fractions import Fraction

PERIOD_S = 0.02
# A slice's time at the fast speed of the 2-vCPU Xeon VM this was set up on
# (Python 3.11): there one reference second is about one wall second.
REFERENCE_SLICE_S = 0.0012

_KEYS = [(i % 7, i % 5, i % 3) for i in range(64)]
_VALUES = [Fraction(i % 11 - 5, 1 + i % 4) for i in range(64)]


def kernel() -> int:
    """One calibration slice: Fraction arithmetic into a dict keyed by
    tuples, the operations the package's Expr arithmetic is made of."""
    acc: dict = {}
    for _ in range(6):
        for k, v in zip(_KEYS, _VALUES):
            acc[k] = acc.get(k, 0) + v * v
    return len(acc)


def slice_seconds() -> float:
    """Wall time of one kernel slice, with the cyclic collector held off so
    that it does not collect the caller's garbage inside the slice."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


class RefClock:
    """``now()`` reads reference seconds since ``start()``."""

    def __init__(self):
        self.slices: list[float] = []
        # (reference reading at mark, perf_counter at mark, reference
        # seconds per wall second), swapped as one object so that now()
        # never mixes two states.
        self._state = (0.0, 0.0, 1.0)
        self._previous = None

    def start(self) -> None:
        for _ in range(3):
            kernel()
        first = statistics.median(slice_seconds() for _ in range(5))
        self.slices.append(first)
        self._state = (0.0, time.perf_counter(), REFERENCE_SLICE_S / first)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    @property
    def initial_factor(self) -> float:
        """Reference seconds per wall second measured by start()."""
        return REFERENCE_SLICE_S / self.slices[0]

    def now(self) -> float:
        base, mark, factor = self._state
        return base + (time.perf_counter() - mark) * factor

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        base, mark, factor = self._state
        s = slice_seconds()
        self.slices.append(s)
        self._state = (base + (t - mark) * factor, time.perf_counter(), REFERENCE_SLICE_S / s)
