"""The one-dimensional solver: a safeguarded bracket on the sign of a function.

Every solve in the package is a zero of a monotone function on a bracket:
the positive root of f, the zero of f' (argmax f), the equilibrium
condition (n-1) f(q) + q f'(q), and the slope of a player's own payoff.
The search keeps a sign change inside the bracket, so it cannot step out
of it and needs no derivative of the function it solves.

Each step tries the Illinois point (Dowell & Jarratt, BIT 11, 1971): the
zero of the chord through the bracket's ends, where an end that stays put
while the other moves twice in a row has its value halved, so that neither
end goes stale. As in ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) the
point is then pulled toward the midpoint by 0.2 w**2 / w0 (w the
bracket's width, w0 the first), which makes the steps close in from both
sides, and projected toward the midpoint just enough that either outcome
leaves a bracket no wider than 4 P / 2**k after k steps, P the largest
power of two not above w0: never more than two halvings behind bisection.
A smooth condition converges superlinearly, in about a dozen evaluations;
on a kink (a one-sided slope that jumps across zero) interpolation gains
nothing, the projection holds the bracket to its schedule, and the kink is
still landed on exactly.

So a search takes at most two steps more than bisection would need in
exact arithmetic to close the bracket to one float spacing at the root.
Float bisection rounds its midpoints and can finish a step sooner, which
rounding P down covers except in rare dyadic brackets around a power of
two; and it stops early wherever it happens to evaluate an exact zero.
"""

from __future__ import annotations

import math
from typing import Callable

# ITP's pull kappa1 * w**kappa2 with kappa1 = 0.2 / w0 and kappa2 = 2,
# written in half-widths: 0.4 * half**2 / half0
_PULL = 0.4


def bisect_root(
    fn: Callable[[float], float], lo: float, hi: float, rtol: float = 0.0, /
) -> float:
    """Return a root of ``fn`` on ``[lo, hi]`` given ``fn(lo)`` and ``fn(hi)``
    of opposite (or zero) sign. An exact zero met on the way is returned
    at once.

    With the default ``rtol = 0`` the bracket shrinks by safeguarded
    Illinois steps (see the module docstring) until ``lo`` and ``hi`` are
    adjacent floats, and ``hi`` is returned: for a decreasing one-sided
    slope that is the first float where the slope is <= 0, so a kink comes
    back exactly. A positive ``rtol`` halves the bracket, plain bisection,
    until it is that small relative to ``max(|lo|, |hi|)`` and returns its
    midpoint.
    """
    f_lo, f_hi = fn(lo), fn(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if (f_lo > 0.0) == (f_hi > 0.0):
        raise ValueError(f"no sign change on [{lo}, {hi}]")
    if rtol:
        return _halve(fn, lo, hi, f_lo, rtol)
    # halving each end first cannot overflow
    pull = _PULL / (0.5 * hi - 0.5 * lo)
    # a quarter of the widest bracket allowed after the coming step, P / 2**k;
    # at the start P / 2, the largest power of two not above the half-width
    bound = math.ldexp(0.5, math.frexp(0.5 * hi - 0.5 * lo)[1])
    lo_positive = f_lo > 0.0  # the halvings below may flush f_lo to zero
    moved = 0  # +1 when lo moved last, -1 when hi did
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return hi
        half = 0.5 * hi - 0.5 * lo
        cap = 4.0 * bound  # inf only in the first steps, where any point passes
        bound *= 0.5
        # the chord's zero as an offset from the midpoint, |offset| <= half;
        # an infinite or overflowing end value makes it NaN or 0, and the
        # step a plain halving
        offset = half * ((f_lo + f_hi) / (f_lo - f_hi))
        pulled = pull * half * half
        if offset > pulled:
            offset -= pulled
        elif offset < -pulled:
            offset += pulled
        else:
            offset = 0.0
        room = cap - half
        if not -room <= offset <= room:
            offset = 0.0 if room <= 0.0 else room if offset > 0.0 else -room
        x = mid + offset
        if not (lo < x < hi and x - lo <= cap and hi - x <= cap):
            # rounding put x on an end or past the allowance
            x = math.nextafter(x, mid)
            if not (lo < x < hi and x - lo <= cap and hi - x <= cap):
                x = mid
        f_x = fn(x)
        if f_x == 0.0:
            return x
        if (f_x > 0.0) == lo_positive:
            lo, f_lo = x, f_x
            if moved > 0:
                f_hi *= 0.5
            moved = 1
        else:
            hi, f_hi = x, f_x
            if moved < 0:
                f_lo *= 0.5
            moved = -1


def _halve(fn, lo: float, hi: float, f_lo: float, rtol: float) -> float:
    """Plain bisection until the bracket is ``rtol`` small relative to its
    larger end; returns its midpoint."""
    while True:
        mid = 0.5 * lo + 0.5 * hi
        if not lo < mid < hi:
            return hi
        if hi - lo <= rtol * max(abs(lo), abs(hi)):
            return mid
        f_mid = fn(mid)
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
