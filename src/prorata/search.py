"""The one-dimensional solver: bisection on the sign of a function.

Every solve in the package is a zero of a monotone function on a bracket:
the positive root of f, the zero of f' (argmax f), the equilibrium
condition (n-1) f(q) + q f'(q), and the slope of a player's own payoff.
Bisection keeps a sign change inside the bracket, so it cannot step out of
it, needs no derivative of the function it bisects, and on a kink (a
one-sided slope that jumps across zero) it lands on the kink itself.
"""

from __future__ import annotations

from typing import Callable


def bisect_root(
    fn: Callable[[float], float], lo: float, hi: float, rtol: float = 0.0, /
) -> float:
    """Return a root of ``fn`` on ``[lo, hi]`` given ``fn(lo)`` and ``fn(hi)``
    of opposite (or zero) sign.

    With the default ``rtol = 0`` the bracket shrinks until ``lo`` and
    ``hi`` are adjacent floats, and ``hi`` is returned: for a decreasing
    one-sided slope that is the first float where the slope is <= 0, so a
    kink comes back exactly. A positive ``rtol`` stops once the bracket is
    that small relative to ``max(|lo|, |hi|)`` and returns its midpoint.
    """
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    while True:
        # halving each end first cannot overflow
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return hi
        if rtol and hi - lo <= rtol * max(abs(lo), abs(hi)):
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
