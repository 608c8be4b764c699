"""Symmetric equilibria and single-player best responses.

The unique nontrivial symmetric equilibrium has the n players jointly
tender the q in (0, w) maximizing q**(n-1) * f(q); each plays q/n. For the
cfmm and power families q has a closed form, used by default; any family
can be solved numerically as the sign change of the first-order condition
(n-1) f(q) + q f'(q), which decreases on (argmax f, w), by the bracketed
search of :mod:`prorata.search`.

A best response maximizes x/t * f(t) with t = x + y. Its first-order
condition y f(t) + x t f'(t) = 0 is a one-dimensional root: a closed form
for the cfmm family and a monotone Newton iteration for the power family
(see :func:`cfmm_tender` and :func:`power_tender`). Tabulated and callable
families search for the sign change of the same condition, which is
nonincreasing in x because the own payoff is concave.
:func:`unconstrained_tender` gives each family's one tender, which
:func:`best_response` and the dynamics share. A tender takes the bounds of
the move, ``tender(y, lo, hi)``, and returns the best response projected
onto [lo, hi]: exactly the free answer clamped, since the payoff is
concave in x. The power tender uses the bounds to stop its iteration once
the answer is known to lie outside them; the others solve in full and
clamp.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .errors import InvalidArgument, NoFiniteRoot, NoPositiveRegion, integer, number
from .payoff import (
    _NOWHERE_POSITIVE,
    CfmmArbitragePayoff,
    PayoffFamily,
    PowerPayoff,
    TabulatedPayoff,
    diagnostics,
    pro_rata_payoff,
    search_end,
)
from .search import bisect_root

SOLVE_METHODS = ("auto", "closed", "numeric")


class EquilibriumResult(NamedTuple):
    """The symmetric equilibrium :func:`solve_symmetric` found, and how.

    A named tuple, built positionally on every call: immutable, hashable,
    and equal to any record, or plain tuple, of the same fields in order.
    """

    q: float                  # total tendered at equilibrium
    n: int
    per_player: float         # q / n
    equilibrium_payoff: float  # f(q) / n, each player's payoff
    foc_residual: float       # |(n-1) f(q) + q f'(q)|
    method: str

    def positive_payoff(self) -> float:
        """The per-player payoff, for callers that divide by it: raises
        :class:`NoPositiveRegion` when it is not positive."""
        return _positive_payoff(self.equilibrium_payoff, self.n)


def _positive_payoff(payoff: float, n: int) -> float:
    # the check of EquilibriumResult.positive_payoff, which poa shares
    if not payoff > 0.0:
        raise NoPositiveRegion(
            f"equilibrium payoff f(q)/n={payoff!r} is not positive at n={n}")
    return payoff


class BestResponseResult(NamedTuple):
    """One player's best response from :func:`best_response`: the tender,
    its payoff, and which bound, if any, it sits on. A named tuple, as
    :class:`EquilibriumResult` is."""

    x: float
    achieved_payoff: float
    at_boundary: str  # "zero", "budget", or "interior"


def foc_residual(family: PayoffFamily, n: int, q: float) -> float:
    """First-order-condition residual |(n-1) f(q) + q f'(q)| at total q.

    On a table knot f' has two one-sided values. The residual is 0 when
    the condition changes sign across the knot (left value >= 0 >= right
    value), which certifies a kink equilibrium exactly, and otherwise the
    smaller of the two magnitudes.
    """
    g = _signed_foc(family, n, q)
    if isinstance(family, TabulatedPayoff) and q > 0.0:
        # the slope just below q is the left slope at a knot
        left_slope = family.derivative(math.nextafter(q, 0.0))
        g_left = (n - 1) * family.value(q) + q * left_slope
        if g_left >= 0.0 >= g:
            return 0.0
        return min(abs(g_left), abs(g))
    return abs(g)


def _signed_foc(family: PayoffFamily, n: int, q: float) -> float:
    return (n - 1) * family.value(q) + q * family.derivative(q)


def _require_concave(family: PayoffFamily) -> None:
    # a slope's sign change is the maximizer, of the own payoff and of
    # q**(n-1) f(q), only for concave f: both searches refuse other tables
    if isinstance(family, TabulatedPayoff) and not family.concave:
        raise InvalidArgument("table must be concave: its segment slopes must "
                              "not increase")


def _closed_form_power(family: PowerPayoff, n: int) -> float:
    beta, gamma = family.beta, family.gamma
    # n - 1 is exact: beta's low bits survive into the base
    try:
        return ((beta + (n - 1.0)) / (n * gamma)) ** (1.0 / (1.0 - beta))
    except OverflowError:
        # q < w = gamma**(-1/(1-beta)), so the zero of f overflows too, as
        # power_tender reports it
        raise NoFiniteRoot(
            f"equilibrium total overflows for {family} at n={n}") from None


def _closed_form_cfmm(family: CfmmArbitragePayoff, n: int) -> float:
    # Roots of (c n g^2) q^2 + (g^2 r2 + 2 c n r1 g - g^2 n r2) q
    #          + (c n r1^2 - g n r1 r2) = 0; the equilibrium is the larger.
    g, r1, r2, c = family.gamma, family.r1, family.r2, family.c
    a = c * n * g * g
    b = g * g * r2 + 2.0 * c * n * r1 * g - g * g * n * r2
    # the terms cancel near the no-arbitrage boundary c r1 = g r2, and their
    # rounding errors swamp the difference: there c0 = -n r1 m with the
    # family's exact margin m = g r2 - c r1
    m = family.margin
    c0 = c * n * r1 * r1 - g * n * r1 * r2 if m is None else -(n * r1) * m
    # c0 = -n r1**2 f'(0): when c0 >= 0 the concave f is nowhere positive
    # (both roots are <= 0), and when c0 < 0 the roots have opposite signs
    if c0 >= 0.0:
        raise NoPositiveRegion(_NOWHERE_POSITIVE)
    sq = math.sqrt(b * b - 4.0 * a * c0)
    if b >= 0.0:
        root1 = (-b - sq) / (2.0 * a)
    else:
        root1 = (-b + sq) / (2.0 * a)
    return max(root1, c0 / (a * root1))


def solve_symmetric(
    family: PayoffFamily, n: int, method: str = "auto"
) -> EquilibriumResult:
    """Solve for the symmetric equilibrium of the n-player game.

    ``method="auto"`` picks the closed form when the family has one and
    the numeric route otherwise; ``"closed"``/``"numeric"`` force the route.
    The numeric route brackets the sign change of
    g(q) = (n-1) f(q) + q f'(q) on [argmax f, w] to adjacent floats with
    :func:`~prorata.search.bisect_root`, a safeguarded Illinois search
    never more than two halvings behind bisection. g decreases there, so
    its zero is the maximizer of q**(n-1) f(q); when g(argmax f) <= 0
    (n = 1, or a table whose kink at its argmax is the equilibrium) q is
    argmax f itself.
    A payoff that is nowhere positive raises :class:`NoPositiveRegion` on
    either route, and a table that is not concave raises
    :class:`InvalidArgument`, as :func:`best_response` does.
    """
    n = integer("n", n, 1)
    q, used = _symmetric_total(family, n, method)
    return EquilibriumResult(q, n, q / n, family.value(q) / n,
                             foc_residual(family, n, q), used)


def _symmetric_total(family: PayoffFamily, n: int, method: str) -> tuple[float, str]:
    """The equilibrium total q of :func:`solve_symmetric` for an n already
    checked, with the name of the route that found it: the one route
    dispatch, for callers that need only q."""
    if method not in SOLVE_METHODS:
        raise InvalidArgument(f"method must be one of {SOLVE_METHODS}, got {method!r}")

    use_closed = isinstance(family, (PowerPayoff, CfmmArbitragePayoff))
    if method == "closed" and not use_closed:
        raise InvalidArgument(f"no closed form for {family.kind} families")
    if method == "numeric":
        use_closed = False

    if use_closed:
        if isinstance(family, PowerPayoff):
            return _closed_form_power(family, n), "closed-form-power"
        return _closed_form_cfmm(family, n), "closed-form-quadratic"
    _require_concave(family)
    diag = diagnostics(family)
    q = diag.argmax
    if _signed_foc(family, n, q) > 0.0:
        q = bisect_root(lambda q: _signed_foc(family, n, q), q, diag.root)
    return q, "foc-bisection"


def cfmm_tender(family: CfmmArbitragePayoff) -> Callable[..., float]:
    """Best-response tender (y, lo=0, hi=inf) -> x = t - y for a cfmm family,
    projected onto [lo, hi]."""
    # The first-order condition reduces to (r1 + g t)**2 = (g r1 r2 + g**2 r2 y)/c,
    # so t = (sqrt(k0 + k1 y) - r1)/g with k0 = g r1 r2/c and k1 = g**2 r2/c.
    # Near the no-arbitrage boundary sqrt(k0 + k1 y) - r1 cancels, so with
    # the family's exact margin m it is (r1 m/c + k1 y)/(sqrt(k0 + k1 y) + r1)
    g, r1, r2, c = family.gamma, family.r1, family.r2, family.c
    k0, k1, m = g * r1 * r2 / c, g * g * r2 / c, family.margin
    km = None if m is None else r1 * m / c

    def tender(y: float, lo: float = 0.0, hi: float = math.inf) -> float:
        if km is None:
            x = (math.sqrt(k0 + k1 * y) - r1) / g - y
        else:
            x = (km + k1 * y) / (g * (math.sqrt(k0 + k1 * y) + r1)) - y
        if not x > 0.0:
            x = 0.0
        if x < lo:
            x = lo
        if hi < x:
            x = hi
        return x

    return tender


_NEWTON_MAX_STEPS = 100
# A Newton step shorter than this fraction of t is the last one: the error
# it leaves is of the order of its square.
_NEWTON_LAST_STEP = 1e-9
# The chord's lower bound on the root must clear hi by this fraction of t.
# The bound's rounding error and the final iterate's are both below
# 1e-13 t for beta <= 0.99; a margin relative to x would fail near y = w,
# where x is tiny beside t.
_BOUND_MARGIN = 1e-9


def power_tender(family: PowerPayoff) -> Callable[..., float]:
    """Best-response tender (y, lo=0, hi=inf) -> x for a power family,
    projected onto [lo, hi] for 0 <= lo <= hi.

    Dividing the first-order condition by t**beta leaves the root t* of
    h(t) = gamma t**(2-beta) - beta t - (1-beta) y, which is convex, with
    h(y) < 0 whenever y < w = gamma**(-1/(1-beta)), the zero of f; when
    h(y) >= 0 no positive tender pays. As a function of y, t* is concave
    and passes through (w, w) with slope 1/2, so t* <= (w + y)/2: Newton
    starts there and descends monotonically onto the root. The first step
    is taken whatever the sign of h: rounding can put the start a hair
    below the root when y is near w, and from there, h being convex, the
    step lands above it. An iterate where h > 0 bounds the result from
    above, since no later iterate exceeds it, and the zero of the chord
    from (y, h(y)) to that iterate bounds the root from below, again since
    h is convex. So the tender returns ``lo`` as soon as such an iterate
    is at or below it, and ``hi`` as soon as the chord's bound clears it
    by a margin relative to t; either way the result is the one a full
    solve would clamp to. A Newton step below 1e-9 t is the last. Raises
    :class:`NoFiniteRoot` when w overflows the float range.
    """
    beta, gamma = family.beta, family.gamma
    e = 1.0 - beta
    try:
        w = gamma ** (-1.0 / e)
    except OverflowError:
        raise NoFiniteRoot(
            f"payoff zero gamma**(-1/(1-beta)) overflows for {family}"
        ) from None
    half_w = 0.5 * w
    slope = (2.0 - beta) * gamma
    # closure cells: the loop reads them faster than module globals
    margin, last_step = _BOUND_MARGIN, _NEWTON_LAST_STEP

    def tender(y: float, lo: float = 0.0, hi: float = math.inf) -> float:
        gy = gamma * y**e
        x = 0.0  # for y >= w
        # gy can round below 1 at y = w: no positive tender pays there
        if gy < 1.0 and y < w:
            hy = y * (gy - 1.0)  # h(y) < 0
            t = half_w + 0.5 * y
            for k in range(_NEWTON_MAX_STEPS):
                p = t**e
                h = t * (gamma * p - beta) - e * y
                if h > 0.0:
                    # no later iterate exceeds t
                    x = t - y
                    if x <= lo:
                        return lo
                    # x * hy / (hy - h) is the chord's bound on the root's x
                    if hi < x and x * (hy / (hy - h)) - margin * t >= hi:
                        return hi
                elif k:
                    break  # at the root, to rounding
                step = h / (slope * p - beta)
                t -= step
                # a step up (from a start rounded below the root) ends it
                # too: rounding alone put the start there, so the step is
                # tiny and lands on the root
                if step < last_step * t:
                    break
            x = t - y
            if not x > 0.0:
                x = 0.0
        if x < lo:
            x = lo
        if hi < x:
            x = hi
        return x

    return tender


def _slope_tender(family: PayoffFamily) -> Callable[..., float]:
    """Best-response tender (y, lo=0, hi=inf) -> x for a table or callable,
    projected onto [lo, hi].

    It brackets the sign change of the own payoff's slope in x,
    y f(t) + x t f'(t) (f'(x) itself when y = 0), on [0, w] with w the
    zero of f, or on the table up to its last knot. The slope is
    nonincreasing because the own payoff is concave, so its sign change
    is the maximizer, and an end of the range where it does not change
    sign is. The concavity check and the diagnostics run once, here. A
    table that is not concave raises :class:`InvalidArgument`; a callable
    whose f stays positive raises :class:`NoFiniteRoot`.
    """
    _require_concave(family)
    try:
        root = search_end(family)
    except NoPositiveRegion:
        root = 0.0  # nothing positive to gain at any tender
    end = family.domain_max

    def tender(y: float, lo: float = 0.0, hi: float = math.inf) -> float:
        top = min(root, end - y)
        # (end - y) + y can round past the last knot: step top down by the
        # excess (at least one ulp) until the sum stays on the table
        while top > 0.0 and top + y > end:
            top = min(math.nextafter(top, 0.0), top - (top + y - end))
        if top <= 0.0:
            x = 0.0
        else:
            if y == 0.0:
                # the payoff is f itself; the scaled slope below would read
                # x**2 f'(x), which vanishes at x = 0
                slope = family.derivative
            else:
                def slope(x: float) -> float:
                    # d/dx [x f(t) / t] times t**2
                    t = x + y
                    return y * family.value(t) + x * t * family.derivative(t)

            if slope(top) >= 0.0:
                x = top
            elif slope(0.0) <= 0.0:
                x = 0.0
            else:
                x = bisect_root(slope, 0.0, top)
        if x < lo:
            x = lo
        if hi < x:
            x = hi
        return x

    return tender


def unconstrained_tender(family: PayoffFamily) -> Callable[..., float]:
    """The best-response tender ``tender(y, lo=0.0, hi=inf)`` of any family:
    the best response to the others' total y, projected onto [lo, hi]
    (0 <= lo <= hi), bit for bit the answer with no bounds, clamped. The
    clamp replaces only a value strictly past a bound, so a zero of either
    sign, or a NaN, is kept as computed. The tender is the cfmm closed
    form, the power Newton iteration (which stops early once the answer is
    known to lie outside the bounds), or the bracketed slope search of a
    table or callable (see :func:`_slope_tender`)."""
    if isinstance(family, CfmmArbitragePayoff):
        return cfmm_tender(family)
    if isinstance(family, PowerPayoff):
        return power_tender(family)
    return _slope_tender(family)


def best_response(
    family: PayoffFamily,
    y: float,
    budget: float = math.inf,
) -> BestResponseResult:
    """Maximize x -> x/(x+y) f(x+y) over x in [0, budget].

    Every family solves the first-order condition with its one tender (see
    :func:`unconstrained_tender`) and caps the result at the budget, which
    is exact because the payoff is concave in x. A negative ``y`` or
    ``budget`` and a table that is not concave raise
    :class:`InvalidArgument`. Returns x = 0 with payoff 0 when no positive
    tender helps.
    """
    number("y", y, positive=False)
    number("budget", budget, positive=False)
    x = unconstrained_tender(family)(y)
    if x <= 0.0:
        return BestResponseResult(0.0, 0.0, "zero")
    if x >= budget:
        return BestResponseResult(budget, pro_rata_payoff(family, budget, y), "budget")
    return BestResponseResult(x, pro_rata_payoff(family, x, y), "interior")
