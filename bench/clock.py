"""Request times in reference seconds.

On a shared 2-core virtual machine a single thread gets anywhere from 0.6x
to 1x of its best speed, in stretches of tens of seconds, so raw wall times
of two runs of the same code can differ by 30%.  A fixed loop timed
between requests measures the speed at that moment; a request's reference
time is its wall time scaled to the speed at which that loop takes
REFERENCE_S.  Program changes cannot move the loop: it is benchmark code,
runs between requests with garbage collection paused, and the program runs
in one thread that is idle between requests.
"""

from __future__ import annotations

import bisect
import gc
import statistics
from time import perf_counter

REFERENCE_S = 0.002  # loop time at reference speed
WINDOW_S = 1.0  # seconds either side of a request
_MODULUS = 3 ** 160 + 7  # products of about 500 bits, like mpmath mantissas


def _loop(steps: int = 3000) -> float:
    start = perf_counter()
    acc, items = 1, []
    for i in range(steps):
        acc = (acc * (_MODULUS - 7) + i) % _MODULUS
        items.append((i, acc))
    return perf_counter() - start


def calibration() -> float:
    """Median of three timings of the loop, with the garbage collector
    paused so the program's heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_loop() for _ in range(3))
    finally:
        if was_enabled:
            gc.enable()


def reference_seconds(wall: float, before: float, after: float) -> float:
    """`wall` seconds measured between calibrations `before` and `after`,
    expressed at reference speed."""
    return wall * 2 * REFERENCE_S / (before + after)


def reference_times(wall: list[float], windows: list[tuple[float, float]],
                    speed: list[tuple[float, float]]) -> list[float]:
    """Each wall time at reference speed, taking the speed as the median of
    the calibrations within WINDOW_S of the request: the speed holds for
    seconds, while a single calibration is noisier than that."""
    when = [t for t, _ in speed]
    out = []
    for seconds, (start, end) in zip(wall, windows):
        lo = bisect.bisect_left(when, start - WINDOW_S)
        hi = bisect.bisect_right(when, end + WINDOW_S)
        local = statistics.median(value for _, value in speed[lo:hi])
        out.append(seconds * REFERENCE_S / local)
    return out
