"""A fixed piece of work whose time stands for the machine's current speed.

The benchmark's virtual machine runs at a speed that drifts by tens of
percent over minutes as other tenants load the host. Timing this loop next
to each pass lets a run express its throughput at a reference speed. The
loop mixes the three kinds of work the program does: scalar float calls in
a golden-section search, small numpy arrays built and reduced round by
round, and one pass over a 10,000-element array. It never calls the
program, so a change to the program does not move it.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

# The loop's wall time on the 2-vCPU reference machine (median of 1,079
# rounds); the benchmark reports times and rates at this speed.
REFERENCE_S = 0.030
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden(fn, lo: float, hi: float) -> float:
    a, b = lo, hi
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > 1e-12 * max(1.0, abs(a), abs(b)):
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
    return 0.5 * (a + b)


def _scalar_part() -> float:
    total = 0.0
    for k in range(270):
        y = 1.0 + 1.1 * k

        def share(x, y=y):
            t = x + y
            return x * (t**0.5 - 0.05 * t) / t

        total += _golden(share, 0.0, 400.0)
    return total


def _small_array_part() -> float:
    x = np.linspace(1.0, 40.0, 10)
    target = 36.1
    for _ in range(450):
        arr = np.array(x, dtype=float)
        if arr.ndim != 1 or np.any(arr < 0.0):
            raise ValueError("bad profile")
        out = arr.copy()
        total = float(arr.sum())
        for i in range(arr.shape[0]):
            y = total - out[i]
            xi = min(max(0.5 * (target + y / 9.0), 0.0), out[i] + 1.0)
            total += xi - out[i]
            out[i] = xi
        if float(np.max(np.abs(out - target))) > 1e9:
            raise ArithmeticError("diverged")
        x = out
    return float(x.sum())


def _large_array_part() -> float:
    rng = np.random.default_rng(0)
    deltas = rng.normal(0.4, 1.0, 10_000)
    ts = np.linspace(0.0, 800.0, 41)
    fs = ts**0.5 - 0.05 * ts
    acc = 0.0
    for _ in range(2):
        positive = np.maximum(deltas, 0.0)
        acc += math.fsum(positive) / math.fsum(deltas)
        acc += float(np.interp(np.abs(deltas) * 40.0, ts, fs).sum())
    return acc


def calibration_seconds() -> float:
    """Wall seconds of one round of the fixed work."""
    t0 = time.perf_counter()
    _scalar_part()
    _small_array_part()
    _large_array_part()
    return time.perf_counter() - t0


def to_reference() -> float:
    """Factor that turns seconds measured now into reference seconds:
    below 1 while the machine runs slower than the reference."""
    rounds = [calibration_seconds() for _ in range(3)]  # the first is cold
    return REFERENCE_S / statistics.median(rounds)
