"""Concave payoff curves f with f(0) = 0 and their diagnostics.

A payoff family maps the total tendered amount t = 1'x to the pool-level
payout f(t); players receive pro-rata shares of it. Three parametric
families cover the common cases (a constant-product-pool arbitrage profit,
built on the pool's quote curve ``ForwardExchange``, a power curve, and a
piecewise-linear table), plus a thin adapter for ad-hoc callables used by
the verification probes.

All ``value``/``derivative`` methods accept floats or numpy arrays. Every
family's domain ends at its ``domain_max``: a table's last knot, else inf.
Each family class derives from :class:`PayoffFamily` and is the one place
that states what is known exactly about its kind; the solvers, the
checks and :func:`diagnostics` read those members and name no kind. Every
solver asks the family itself: a best response goes through its
``tender()`` (by default the bracketed slope search; power and cfmm solve
exactly), a dynamics round through its ``column_tender()`` where the kind
has one (cfmm), and a closed symmetric route through its
``closed_total(n)``, which the base class refuses.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar

import numpy as np

from .errors import (
    ConfigError,
    DomainExceeded,
    InvalidArgument,
    NoFiniteRoot,
    NoPositiveRegion,
    number,
)
from .search import bisect_root

# Geometric scan for a point with f > 0: by concavity the positive region
# (if any) touches (0, 1] whenever f(1) <= 0, so scanning down dominates,
# to 2**-1074, the smallest subnormal: a power family's zero w can lie far
# below 2**-200 (w = 1e-100 for beta 0.99, gamma 10); a short upward leg
# covers non-concave callables.
_SCAN_DOWN_STEPS = 1074
_SCAN_UP_STEPS = 60
_SCAN_DOWN = [2.0**-k for k in range(_SCAN_DOWN_STEPS + 1)]
# the root's bisection stops at this bracket width relative to the root; the
# root scales every seeded initial draw, so changing it changes the figures
_ROOT_RTOL = 1e-10
# what a cfmm family with f'(0) <= 0 raises, on every route
_NOWHERE_POSITIVE = "payoff is nonpositive everywhere: f'(0) <= 0"
# finite-difference step of callable families, relative to max(|t|, s) with
# s the callable's own scale (see CallablePayoff)
_FD_STEP_SCALE = 1e-6


def _store_floats(family, *names: str) -> None:
    """Store the checked parameters ``names`` as Python floats, so a family
    given numpy numbers computes in Python floats, as ``TabulatedPayoff``
    does with its knots."""
    for name in names:
        object.__setattr__(family, name, float(getattr(family, name)))


def power_poa_closed_form(beta: float, n: int) -> float:
    """PoA for the power family: n * (beta*n / (beta + n - 1))**(beta/(1-beta)).

    ``n - 1`` is exact, so it is taken first: beta keeps its low bits.
    """
    return n * (beta * n / (beta + (n - 1.0))) ** (beta / (1.0 - beta))


class PayoffFamily:
    """What is known exactly about a payoff kind, beyond f and f'.

    Every family class derives from this one. The defaults here describe a
    kind known only through ``value`` and ``derivative``; each class
    overrides what it knows:

    * ``closed_route`` is None when the numeric route is the only one, and
      ``closed_total(n)`` then refuses; otherwise it names the route of
      ``closed_total(n)``, the symmetric equilibrium total in closed form.
    * ``tender()`` builds the kind's best-response tender: here the
      bracketed slope search, which tables and callables use.
    * ``column_tender()`` builds the same tender on arrays, one answer per
      element, bit for bit the scalar tender's; None, here, for a kind with
      no closed form to write on arrays. The dynamics move whole columns of
      rows with it and do not check their totals against ``domain_max``,
      so a kind with a last knot gives none.
    * ``_positive_point()`` and ``_peak(root)`` give :func:`diagnostics`
      a point with f > 0 and (argmax, sup f) on [0, root]: here a halving
      scan, which passes over points where ``value`` raises
      :class:`DomainExceeded`, and the zero of f'.
    * ``linear_until`` is where f stops being linear through the origin,
      which the exact side-condition verdicts read: 0 when f(t)/t is
      strictly decreasing, None when it is not known.
    * ``derivative_nature`` says how ``derivative`` is computed:
      "analytic", "one-sided" (exact slopes, kinks between them) or
      "finite-difference".
    * ``concave`` is False only for a family known not to be concave.
    * ``closed_poa(n)`` is the price of anarchy in closed form, or None.
    """

    domain_max: ClassVar[float] = math.inf
    closed_route: ClassVar[str | None] = None
    linear_until: ClassVar[float | None] = None
    derivative_nature: ClassVar[str] = "analytic"
    concave: ClassVar[bool] = True

    def closed_total(self, n: int) -> float:
        raise InvalidArgument(f"no closed form for {self.kind} families")

    def closed_poa(self, n: int) -> float | None:
        return None

    def column_tender(self) -> Callable[..., np.ndarray] | None:
        return None

    def tender(self) -> Callable[..., float]:
        """The best-response tender ``tender(y, lo=0.0, hi=inf)`` -> x.

        Every tender keeps this window contract. It takes any window
        lo <= hi with hi >= 0, lo below 0 included, and answers the best
        response to the others' total y projected onto [max(lo, 0), hi]: bit
        for bit the answer with no bounds, clamped to [lo, hi]. That answer is
        never below 0 (the cfmm closed form floors at 0, the power iteration
        gives 0 at or past the zero of f, the slope search runs on [0, w]), so
        a lo below 0 never binds and a caller need not floor it. The clamp
        replaces only a value strictly past a bound, so a zero of either sign,
        or a NaN, is kept as computed.

        This default, the tender of tables and callables, brackets the sign
        change of the own payoff's slope in x, y f(t) + x t f'(t) (f'(x)
        itself when y = 0), on [0, w] with w the family's ``diagnostics``
        root: the zero of f, or a table's last knot when f is still positive
        there. The slope is nonincreasing because the own payoff is concave,
        so its sign change is the maximizer, and an end of the range where it
        does not change sign is. The concavity check and the diagnostics run
        once, here. A table that is not concave raises
        :class:`InvalidArgument`; a callable whose f stays positive raises
        :class:`NoFiniteRoot`.
        """
        _require_concave(self)
        try:
            root = diagnostics(self).root
        except NoPositiveRegion:
            root = 0.0  # nothing positive to gain at any tender
        end = self.domain_max

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
                    slope = self.derivative
                else:
                    def slope(x: float) -> float:
                        # d/dx [x f(t) / t] times t**2
                        t = x + y
                        return y * self.value(t) + x * t * self.derivative(t)

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

    def _positive_point(self) -> float:
        for t in _SCAN_DOWN + [2.0**k for k in range(1, _SCAN_UP_STEPS + 1)]:
            try:
                if self.value(t) > 0.0:
                    return t
            except DomainExceeded:  # a callable defined only below t
                pass
        raise NoPositiveRegion("no point with f > 0 found on a geometric scan")

    def _peak(self, root: float) -> tuple[float, float]:
        argmax = bisect_root(self.derivative, 0.0, root)
        return argmax, self.value(argmax)


def _require_concave(family: PayoffFamily) -> None:
    # a slope's sign change is the maximizer, of the own payoff and of
    # q**(n-1) f(q), only for concave f: the default tender and the numeric
    # route both refuse other tables
    if not family.concave:
        raise InvalidArgument("table must be concave: its segment slopes must "
                              "not increase")


@dataclass(frozen=True)
class ForwardExchange:
    """Quote curve g(t) = gamma*r2*t / (r1 + gamma*t) of a two-asset
    constant-product pool with fee multiplier gamma."""

    gamma: float
    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise InvalidArgument(f"gamma must be in (0, 1], got {self.gamma}")
        number("r1", self.r1, positive=True)
        number("r2", self.r2, positive=True)
        _store_floats(self, "gamma", "r1", "r2")

    def quote(self, t):
        return self.gamma * self.r2 * t / (self.r1 + self.gamma * t)

    def derivative(self, t):
        denom = self.r1 + self.gamma * t
        return self.gamma * self.r1 * self.r2 / (denom * denom)

    def arbitrage_family(self, price: float) -> CfmmArbitragePayoff:
        """The induced payoff f(t) = g(t) - price*t as a payoff family."""
        return CfmmArbitragePayoff(gamma=self.gamma, r1=self.r1, r2=self.r2, c=price)


@dataclass(frozen=True)
class CfmmArbitragePayoff(ForwardExchange, PayoffFamily):
    """Arbitrage profit against a two-asset constant-product pool.

    f(t) = g(t) - c*t with g the pool's quote: the pool's output for input
    t valued at the external unit price, minus the cost of the tendered t.
    ``gamma`` is the fee multiplier (1 = no fee), ``r1``/``r2`` the pool
    reserves, ``c`` the external price of asset B in units of asset A.

    Near the no-arbitrage boundary c*r1 = gamma*r2 the rounded terms of f
    and f' cancel. So the family keeps ``margin`` m = gamma*r2 - c*r1
    (f'(0) = m/r1), taken exactly from the parameters' integer ratios and
    rounded once, when |m| < gamma*r2/8, and None outside that band. Inside
    it, f(t) = t (m - c gamma t)/(r1 + gamma t), f' = (r1 m - c gamma t
    (2 r1 + gamma t))/(r1 + gamma t)**2, and the tender and the closed
    route take m too; outside it every formula keeps the rounded terms.
    ``margin`` is not a field: equality, hash and the spec keys ignore it.
    """

    c: float

    kind: ClassVar[str] = "cfmm"
    closed_route: ClassVar[str] = "closed-form-quadratic"
    linear_until: ClassVar[float] = 0.0  # f(t)/t = g(t)/t - c decreases

    def __post_init__(self) -> None:
        ForwardExchange.__post_init__(self)
        number("c", self.c, positive=True)
        _store_floats(self, "c")
        # int / int rounds once, correctly
        (gn, gd), (sn, sd), (cn, cd), (rn, rd) = (
            v.as_integer_ratio() for v in (self.gamma, self.r2, self.c, self.r1))
        num, den = gn * sn * cd * rd - cn * rn * gd * sd, gd * sd * cd * rd
        # |m| < gamma*r2/8, decided in integers
        margin = num / den if 8 * abs(num) < gn * sn * cd * rd else None
        object.__setattr__(self, "margin", margin)

    def value(self, t):
        m = self.margin
        if m is None:
            return self.quote(t) - self.c * t
        g = self.gamma
        return t * (m - self.c * g * t) / (self.r1 + g * t)

    def derivative(self, t):
        m = self.margin
        if m is None:
            # an explicit base call: super() costs a measurable share of a call
            return ForwardExchange.derivative(self, t) - self.c
        g, r1 = self.gamma, self.r1
        denom = r1 + g * t
        return (r1 * m - self.c * g * t * (2.0 * r1 + g * t)) / (denom * denom)

    def _positive_point(self) -> float:
        # f'(0) = m/r1 decides it: the exact margin inside its band, and
        # outside it the rounded terms, which cannot cancel there
        m = self.margin
        if m is None:
            m = self.gamma * self.r2 - self.c * self.r1
        if not m > 0.0:
            raise NoPositiveRegion(_NOWHERE_POSITIVE)
        return PayoffFamily._positive_point(self)

    def closed_total(self, n: int) -> float:
        # Roots of (c n g^2) q^2 + (g^2 r2 + 2 c n r1 g - g^2 n r2) q
        #          + (c n r1^2 - g n r1 r2) = 0; the equilibrium is the larger.
        g, r1, r2, c = self.gamma, self.r1, self.r2, self.c
        a = c * n * g * g
        b = g * g * r2 + 2.0 * c * n * r1 * g - g * g * n * r2
        # the terms cancel near the no-arbitrage boundary c r1 = g r2, and
        # their rounding errors swamp the difference: there c0 = -n r1 m
        # with the family's exact margin m = g r2 - c r1
        m = self.margin
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

    def _free_tender(self, sqrt: Callable) -> Callable:
        """The closed-form best response x = t - y to the others' total y,
        before the floor at 0 and the window: on floats with ``math.sqrt``,
        on arrays with ``np.sqrt``, rounding each step alike."""
        # The first-order condition reduces to (r1 + g t)**2 = (g r1 r2 + g**2 r2 y)/c,
        # so t = (sqrt(k0 + k1 y) - r1)/g with k0 = g r1 r2/c and k1 = g**2 r2/c.
        # Near the no-arbitrage boundary sqrt(k0 + k1 y) - r1 cancels, so with
        # the family's exact margin m it is (r1 m/c + k1 y)/(sqrt(k0 + k1 y) + r1)
        g, r1, r2, c = self.gamma, self.r1, self.r2, self.c
        k0, k1, m = g * r1 * r2 / c, g * g * r2 / c, self.margin
        if m is None:
            return lambda y: (sqrt(k0 + k1 * y) - r1) / g - y
        km = r1 * m / c
        return lambda y: (km + k1 * y) / (g * (sqrt(k0 + k1 * y) + r1)) - y

    def tender(self) -> Callable[..., float]:
        """Best-response tender (y, lo=0, hi=inf) -> x = t - y in closed
        form, on the window :meth:`PayoffFamily.tender` states."""
        free = self._free_tender(math.sqrt)

        def tender(y: float, lo: float = 0.0, hi: float = math.inf) -> float:
            x = free(y)
            if not x > 0.0:
                x = 0.0
            if x < lo:
                x = lo
            if hi < x:
                x = hi
            return x

        return tender

    def column_tender(self) -> Callable[..., np.ndarray]:
        """:meth:`tender` on arrays: ``tender(y, lo=0.0, hi=inf)`` with y an
        array and each bound a float or an array of y's shape, answering
        per element the bits the scalar tender gives. A y of inf meets
        inf - inf here as there, and answers 0; numpy warns of it unless
        the caller silences invalid values."""
        free = self._free_tender(np.sqrt)

        def tender(y: np.ndarray, lo=0.0, hi=math.inf) -> np.ndarray:
            x = free(y)
            x = np.where(x > 0.0, x, 0.0)  # NaN to 0, as ``not x > 0.0``
            # the answer is now at or above +0.0: a float lo at or below 0 or
            # a float hi of inf cannot bind, and is skipped
            if isinstance(lo, np.ndarray) or lo > 0.0:
                x = np.where(x < lo, lo, x)
            if isinstance(hi, np.ndarray) or hi < math.inf:
                x = np.where(hi < x, hi, x)
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


@dataclass(frozen=True)
class PowerPayoff(PayoffFamily):
    """f(t) = t**beta - gamma*t with 0 < beta < 1 and gamma > 0."""

    beta: float
    gamma: float

    kind: ClassVar[str] = "power"
    closed_route: ClassVar[str] = "closed-form-power"
    linear_until: ClassVar[float] = 0.0  # f(t)/t = t**(beta-1) - gamma decreases

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise InvalidArgument(f"beta must be in (0, 1), got {self.beta}")
        number("gamma", self.gamma, positive=True)
        _store_floats(self, "beta", "gamma")

    def value(self, t):
        return t**self.beta - self.gamma * t

    def derivative(self, t):
        # f'(0+) = +inf, as the array path gives; Python's 0.0**-k would raise
        if isinstance(t, (int, float)) and t == 0.0:
            return math.inf
        return self.beta * t ** (self.beta - 1.0) - self.gamma

    def closed_total(self, n: int) -> float:
        beta, gamma = self.beta, self.gamma
        # n - 1 is exact: beta's low bits survive into the base
        try:
            return ((beta + (n - 1.0)) / (n * gamma)) ** (1.0 / (1.0 - beta))
        except OverflowError:
            # q < w = gamma**(-1/(1-beta)), so the zero of f overflows too,
            # as the tender reports it
            raise NoFiniteRoot(
                f"equilibrium total overflows for {self} at n={n}") from None

    def closed_poa(self, n: int) -> float:
        return power_poa_closed_form(self.beta, n)

    def tender(self) -> Callable[..., float]:
        """Best-response tender (y, lo=0, hi=inf) -> x, on the window
        :meth:`PayoffFamily.tender` states.

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
        solve would clamp to. A Newton step below 1e-9 t is the last. A
        result that small beside t is kept only where f(y + x) is positive:
        within a few ulps of w the rounded root can land past the zero of f,
        where no positive tender pays. Raises :class:`NoFiniteRoot` when w
        overflows the float range.
        """
        beta, gamma, value = self.beta, self.gamma, self.value
        e = 1.0 - beta
        try:
            w = gamma ** (-1.0 / e)
        except OverflowError:
            raise NoFiniteRoot(
                f"payoff zero gamma**(-1/(1-beta)) overflows for {self}"
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
                # so tiny an x can round past the zero of f, where no
                # positive tender pays
                if not (x > last_step * t or x > 0.0 and value(y + x) > 0.0):
                    x = 0.0
            if x < lo:
                x = lo
            if hi < x:
                x = hi
            return x

        return tender


@dataclass(frozen=True)
class TabulatedPayoff(PayoffFamily):
    """Piecewise-linear payoff through the knots ``(ts, fs)``.

    The knots must be finite and start at (0, 0); evaluation past the last knot raises
    :class:`DomainExceeded`. The derivative is the exact right slope of
    the segment at t (the left slope at the last knot), so at a kink it is
    the slope just past it. ``concave`` tells whether the segment slopes
    never increase, which the best-response search needs. A scalar
    ``value`` finds the segment with :func:`bisect.bisect_right` and gives
    the same bits as the array path, :func:`numpy.interp`. The knots and
    slopes are also kept as read-only arrays for the array paths; like
    ``concave`` they are not fields, so equality, hash, repr and the spec
    keys ignore them.
    """

    ts: tuple[float, ...]
    fs: tuple[float, ...]

    kind: ClassVar[str] = "table"
    derivative_nature: ClassVar[str] = "one-sided"

    def __post_init__(self) -> None:
        object.__setattr__(self, "ts", tuple(float(t) for t in self.ts))
        object.__setattr__(self, "fs", tuple(float(f) for f in self.fs))
        if len(self.ts) != len(self.fs):
            raise InvalidArgument("ts and fs must have equal length")
        if len(self.ts) < 2:
            raise InvalidArgument("need at least two knots")
        if not all(map(math.isfinite, self.ts + self.fs)):
            raise InvalidArgument("knots must be finite")
        if self.ts[0] != 0.0 or self.fs[0] != 0.0:
            raise InvalidArgument("table must start at (0, 0)")
        if any(b <= a for a, b in zip(self.ts, self.ts[1:])):
            raise InvalidArgument("ts must be strictly increasing")
        # segment slopes, computed as numpy.interp computes them
        ts, fs = self.ts, self.fs
        slopes = tuple(
            (fs[i + 1] - fs[i]) / (ts[i + 1] - ts[i]) for i in range(len(ts) - 1)
        )
        object.__setattr__(self, "_slopes", slopes)
        concave = all(b <= a for a, b in zip(slopes, slopes[1:]))
        object.__setattr__(self, "concave", concave)
        # the array paths' knots and slopes, built once; read-only, as
        # every copy of the table shares them
        for name, values in (("_ts_arr", ts), ("_fs_arr", fs), ("_slopes_arr", slopes)):
            arr = np.array(values, dtype=float)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def domain_max(self) -> float:
        return self.ts[-1]

    @property
    def linear_until(self) -> float:
        # the first segment runs through (0, 0)
        return self.ts[1]

    def _positive_point(self) -> float:
        fs = self._fs_arr
        if np.max(fs) <= 0.0:
            raise NoPositiveRegion("payoff is nonpositive at every knot")
        return self.ts[int(np.argmax(fs))]

    def _peak(self, root: float) -> tuple[float, float]:
        # piecewise-linear maxima live on the knots
        ts, fs = self._ts_arr, self._fs_arr
        idx = int(np.argmax(np.where(ts <= root, fs, -np.inf)))
        return float(ts[idx]), float(fs[idx])

    def _check_domain(self, arr: np.ndarray) -> None:
        if np.any(arr > self.ts[-1]):
            raise DomainExceeded(
                f"t={np.max(arr)} beyond last knot {self.ts[-1]}"
            )

    def value(self, t):
        if isinstance(t, (int, float)) and 0.0 <= t <= self.ts[-1]:
            i = bisect.bisect_right(self.ts, t) - 1
            if t == self.ts[i]:
                return self.fs[i]
            return self._slopes[i] * (t - self.ts[i]) + self.fs[i]
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = np.interp(arr, self._ts_arr, self._fs_arr)
        return float(out) if np.ndim(t) == 0 else out

    def derivative(self, t):
        # searching the inner knots only gives the segment index directly,
        # with t < ts[1] on the first segment and t >= ts[-2] on the last
        ts = self.ts
        if isinstance(t, (int, float)) and t <= ts[-1]:
            return self._slopes[bisect.bisect_right(ts, t, 1, len(ts) - 1) - 1]
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = self._slopes_arr[np.searchsorted(self._ts_arr[1:-1], arr, side="right")]
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class CallablePayoff(PayoffFamily):
    """Adapter for ad-hoc payoffs given as plain functions.

    Used for probe curves that none of the parametric families express
    exactly (e.g. shifted quadratics). When ``deriv`` is omitted the
    derivative falls back to a central finite difference (one-sided within
    a step of 0, where ``fn`` need not be defined to the left), the one
    approximate derivative in the package; every other family's is exact.
    Its step is 1e-6*max(|t|, s), with s the first of 1, 1/2, 1/4, ... where
    f > 0, passing over points where f raises :class:`DomainExceeded` (1 if
    there is none): an absolute 1e-6 below t = 1 when
    f(1) > 0, so terms that cancel near 0 keep their precision, and within
    a factor 2 of a concave f's root when the positive region is narrower
    than 1, so the slope keeps its sign change on a region like (0, 1e-7).
    """

    fn: Callable[[float], float]
    deriv: Callable[[float], float] | None = None

    kind: ClassVar[str] = "callable"

    def __post_init__(self) -> None:
        if not abs(float(self.fn(0.0))) <= 1e-12:  # NaN too
            raise InvalidArgument("payoff must satisfy f(0) = 0")

    @property
    def derivative_nature(self) -> str:
        return "analytic" if self.deriv is not None else "finite-difference"

    @functools.cached_property
    def _fd_scale(self) -> float:
        # found once, on the first finite difference, by the positive point
        # scan; not a field
        try:
            return min(self._positive_point(), 1.0)
        except NoPositiveRegion:
            return 1.0

    def value(self, t):
        return self.fn(t)

    def derivative(self, t):
        if self.deriv is not None:
            return self.deriv(t)
        # one-sided near 0, so a function defined only for t >= 0 is never
        # evaluated left of the origin
        h = _FD_STEP_SCALE * np.maximum(np.abs(t), self._fd_scale)
        lo = np.maximum(t - h, 0.0)
        out = (self.fn(t + h) - self.fn(lo)) / (t + h - lo)
        return float(out) if np.ndim(t) == 0 else out


def pro_rata_payoff(family: PayoffFamily, x, y):
    """Payoff x/(x+y) * f(x+y) to a player tendering x against the rest y.

    Exactly 0.0 when x = 0 (no division is attempted), and exactly f(t)
    when y = 0. Accepts floats or broadcastable arrays.
    """
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        if x <= 0.0:
            return 0.0
        t = x + y
        return x * family.value(t) / t
    x_arr = np.asarray(x, dtype=float)
    t = x_arr + np.asarray(y, dtype=float)
    x_b = np.broadcast_to(x_arr, t.shape)
    pos = t > 0.0
    vals = family.value(np.where(pos, t, 0.0))
    share = np.divide(x_b, t, out=np.zeros(t.shape), where=pos)
    return np.where(x_b > 0.0, share * vals, 0.0)


@dataclass(frozen=True)
class PayoffDiagnostics:
    """Key landmarks of a payoff curve on its positive region.

    ``root`` is the smallest positive zero past the region where f > 0,
    or a table's last knot when f is still positive there: the end of
    every search on the family. ``max_value``/``argmax`` describe sup f
    over [0, root].
    """

    root: float
    max_value: float
    argmax: float


def diagnostics(family: PayoffFamily) -> PayoffDiagnostics:
    """Locate the positive root and the maximum.

    The root is bracketed by doubling from a point with f > 0 until the
    sign flips, up to the end of the float range, and then bisected to
    1e-10 relative; a table still positive at its last knot stops the
    doubling there, and the knot is its root. The point and the argmax
    come from the family (see :class:`PayoffFamily`): by default a halving
    scan, and the zero of f' on [0, root] bracketed to adjacent floats by
    the safeguarded search of :mod:`prorata.search`; a cfmm family decides
    from the sign of f'(0) whether it has a point, and a table reads both
    off its knots.
    The result is memoized on the family object itself, as ``_diagnostics``,
    which is not a field: equality, hash, repr and the spec keys ignore it.
    An equal but separate family object computes its own, equal, report.
    A table still positive at its last knot is memoized as any family is;
    an error is not, so a nowhere-positive family raises on every call.
    """
    try:
        return family._diagnostics
    except AttributeError:
        pass
    t_pos = family._positive_point()
    end = family.domain_max
    # double until f <= 0 (a NaN doubles on, as a positive value does)
    lo = hi = t_pos
    while not family.value(hi) <= 0.0:
        if hi >= end:  # a table still positive at its last knot: the root
            root = end
            break
        if hi > 0.5 * sys.float_info.max:  # the next doubling would overflow
            raise NoFiniteRoot(f"payoff still positive at t={hi:g} (cap reached)")
        lo, hi = hi, min(2.0 * hi, end)
    else:
        root = bisect_root(family.value, lo, hi, _ROOT_RTOL)
    argmax, max_value = family._peak(root)
    diag = PayoffDiagnostics(root=root, max_value=max_value, argmax=argmax)
    # set as margin and _slopes are: through __dict__ would turn the
    # instance's inline attribute values into a real dict, and every later
    # read of a parameter in value/derivative would slow down
    object.__setattr__(family, "_diagnostics", diag)
    return diag


# the parametric families by kind
FAMILY_KINDS = {c.kind: c for c in (PowerPayoff, CfmmArbitragePayoff, TabulatedPayoff)}


def spec_keys(kind: str) -> dict:
    """A family kind's spec keys, its class's fields in order, each with
    its conversion: float for a number, tuple for a knot list."""
    return {f.name: float if f.type == "float" else tuple
            for f in dataclasses.fields(FAMILY_KINDS[kind])}


def _spec_float(name: str, value) -> float:
    # float() reads a bool as 0 or 1: a spec's true is not a number
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    return float(value)


def family_from_dict(spec: dict) -> PayoffFamily:
    """Build a payoff family from a config mapping with a ``kind`` and that
    kind's :func:`spec_keys`; unknown or missing keys are errors, and so is
    a bool for a number or a knot."""
    if "kind" not in spec:
        raise ConfigError("family spec needs a 'kind' (cfmm, power, or table)")
    kind = spec["kind"]
    if kind not in FAMILY_KINDS:
        raise ConfigError(f"unknown family kind {kind!r}")
    keys = spec_keys(kind)
    given, allowed = set(spec) - {"kind"}, set(keys)
    if given - allowed:
        raise ConfigError(f"unknown keys for {kind} family: {sorted(given - allowed)}")
    if allowed - given:
        raise ConfigError(f"missing keys for {kind} family: {sorted(allowed - given)}")
    try:
        # in field order, so the first bad parameter reported is fixed
        return FAMILY_KINDS[kind](**{
            k: _spec_float(k, spec[k]) if conv is float
            else tuple(_spec_float(f"{k}[{i}]", v) for i, v in enumerate(spec[k]))
            for k, conv in keys.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {kind} family parameters: {exc}") from exc
