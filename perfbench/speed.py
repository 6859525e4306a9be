"""Calibration of the machine's momentary speed.

Shared machines change speed by up to 2x for seconds at a time, and the
program's own time follows.  The benchmark times a fixed pure-Python
kernel, which no change to fixaccel can affect, right before and right
after each measured call, and reports the call's time scaled to a
machine on which the kernel takes ``NOMINAL_MS``.  This module imports
nothing but ``time``, so a fresh interpreter can calibrate before it
imports numpy or fixaccel.
"""
import time

NOMINAL_MS = 0.15  # a fixed reference: times are reported as if the kernel took this long


def _kernel() -> float:
    acc = 0.0
    seen = {}
    for i in range(500):
        pair = (i * 0.5, i * 0.25)
        seen[i & 31] = pair
        acc += pair[0] * 1.0001 - seen.get((i * 7) & 31, pair)[1]
    return acc


def kernel_ms(repeats: int = 5) -> float:
    """Fastest of ``repeats`` timings of the kernel, in milliseconds."""
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def scale(before_ms: float, after_ms: float) -> float:
    """Factor that turns a time measured between two kernel timings into
    time on the nominal machine."""
    return NOMINAL_MS / ((before_ms + after_ms) / 2)
