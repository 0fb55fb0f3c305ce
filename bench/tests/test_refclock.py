"""The reference clock: it advances, leaves out its own handler's time, counts
calibration work at about its reference cost, and restores SIGALRM."""

import signal
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import refclock  # noqa: E402


def test_clock_counts_kernel_work_in_reference_seconds():
    previous = signal.getsignal(signal.SIGALRM)
    clock = refclock.RefClock()
    clock.start()
    try:
        readings = []
        w0, r0 = time.perf_counter(), clock.now()
        for _ in range(300):
            refclock.kernel()
            readings.append(clock.now())
        wall, ref = time.perf_counter() - w0, clock.now() - r0
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert len(clock.slices) > 1
    # The same kernel the clock calibrates with costs one reference slice a
    # call, whatever the machine's speed; the handlers' slices do not count.
    assert 0.5 < ref / (300 * refclock.REFERENCE_SLICE_S) < 2.0
    assert ref < wall / min(clock.slices) * refclock.REFERENCE_SLICE_S * 2
    assert readings[-1] > readings[0]
