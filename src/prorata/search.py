"""One-dimensional search primitives.

Derivative-free golden-section maximization and plain bisection, shared by
the equilibrium solver, generic best responses, and payoff diagnostics.
"""

from __future__ import annotations

import math
from typing import Callable

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# stop once the bracket is this small relative to max(1, |ends|)
_GOLDEN_RTOL = 1e-12
_BISECT_RTOL = 1e-10
_MAX_ITER = 200


def golden_section_maximize(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    polish: bool = True,
) -> float:
    """Return the maximizer of a unimodal ``fn`` on ``[lo, hi]``.

    Standard golden-section bracket reduction. Because comparison-based
    interval methods stall near sqrt(eps) relative accuracy on flat maxima,
    a single parabolic-vertex refinement (step well above the noise floor)
    is applied to the collapsed bracket; it is skipped whenever the stencil
    leaves the interval or the curvature estimate is not usable.
    """
    if not hi > lo:
        raise ValueError(f"empty bracket [{lo}, {hi}]")
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_MAX_ITER):
        if (b - a) <= _GOLDEN_RTOL * max(1.0, abs(a), abs(b)):
            break
        if fc < fd:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
        else:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
    x = 0.5 * (a + b)
    if polish:
        h = 1e-5 * max(1.0, abs(x))
        if x - h > lo and x + h < hi:
            f0, fm, fp = fn(x), fn(x - h), fn(x + h)
            denom = fm - 2.0 * f0 + fp
            if math.isfinite(denom) and denom < 0.0:
                shift = 0.5 * h * (fm - fp) / denom
                if abs(shift) <= h:
                    x += shift
    return x


def bisect_root(fn: Callable[[float], float], lo: float, hi: float) -> float:
    """Return a root of ``fn`` on ``[lo, hi]`` given ``fn(lo)`` and ``fn(hi)``
    of opposite (or zero) sign."""
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    for _ in range(_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if (hi - lo) <= _BISECT_RTOL * max(1.0, abs(lo), abs(hi)):
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)
