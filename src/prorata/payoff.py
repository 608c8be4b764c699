"""Concave payoff curves f with f(0) = 0 and their diagnostics.

A payoff family maps the total tendered amount t = 1'x to the pool-level
payout f(t); players receive pro-rata shares of it. Three parametric
families cover the common cases (a constant-product-pool arbitrage profit,
built on the pool's quote curve ``ForwardExchange``, a power curve, and a
piecewise-linear table), plus a thin adapter for ad-hoc callables used by
the verification probes.

All ``value``/``derivative`` methods accept floats or numpy arrays. Every
family's domain ends at its ``domain_max``: a table's last knot, else inf.
"""

from __future__ import annotations

import bisect
import dataclasses
import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, ClassVar, Union

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
# (if any) touches (0, 1] whenever f(1) <= 0, so scanning down dominates;
# a short upward leg covers non-concave callables.
_SCAN_DOWN_STEPS = 200
_SCAN_UP_STEPS = 60
# the root's bisection stops at this bracket width relative to the root; the
# root scales every seeded initial draw, so changing it changes the figures
_ROOT_RTOL = 1e-10
# finite-difference step of callable families, relative to max(1, |t|)
_FD_STEP_SCALE = 1e-6


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

    def quote(self, t):
        return self.gamma * self.r2 * t / (self.r1 + self.gamma * t)

    def derivative(self, t):
        denom = self.r1 + self.gamma * t
        return self.gamma * self.r1 * self.r2 / (denom * denom)

    def arbitrage_family(self, price: float) -> CfmmArbitragePayoff:
        """The induced payoff f(t) = g(t) - price*t as a payoff family."""
        return CfmmArbitragePayoff(gamma=self.gamma, r1=self.r1, r2=self.r2, c=price)


@dataclass(frozen=True)
class CfmmArbitragePayoff(ForwardExchange):
    """Arbitrage profit against a two-asset constant-product pool.

    f(t) = g(t) - c*t with g the pool's quote: the pool's output for input
    t valued at the external unit price, minus the cost of the tendered t.
    ``gamma`` is the fee multiplier (1 = no fee), ``r1``/``r2`` the pool
    reserves, ``c`` the external price of asset B in units of asset A.
    """

    c: float

    kind: ClassVar[str] = "cfmm"
    domain_max: ClassVar[float] = math.inf

    def __post_init__(self) -> None:
        ForwardExchange.__post_init__(self)
        number("c", self.c, positive=True)

    def value(self, t):
        return self.quote(t) - self.c * t

    def derivative(self, t):
        # an explicit base call: super() costs a measurable share of a call
        return ForwardExchange.derivative(self, t) - self.c


@dataclass(frozen=True)
class PowerPayoff:
    """f(t) = t**beta - gamma*t with 0 < beta < 1 and gamma > 0."""

    beta: float
    gamma: float

    kind: ClassVar[str] = "power"
    domain_max: ClassVar[float] = math.inf

    def __post_init__(self) -> None:
        if not 0.0 < self.beta < 1.0:
            raise InvalidArgument(f"beta must be in (0, 1), got {self.beta}")
        number("gamma", self.gamma, positive=True)

    def value(self, t):
        return t**self.beta - self.gamma * t

    def derivative(self, t):
        # f'(0+) = +inf, as the array path gives; Python's 0.0**-k would raise
        if isinstance(t, (int, float)) and t == 0.0:
            return math.inf
        return self.beta * t ** (self.beta - 1.0) - self.gamma


@dataclass(frozen=True)
class TabulatedPayoff:
    """Piecewise-linear payoff through the knots ``(ts, fs)``.

    The knots must be finite and start at (0, 0); evaluation past the last knot raises
    :class:`DomainExceeded`. The derivative is the exact right slope of
    the segment at t (the left slope at the last knot), so at a kink it is
    the slope just past it. ``concave`` tells whether the segment slopes
    never increase, which the best-response search needs. A scalar
    ``value`` finds the segment with :func:`bisect.bisect_right` and gives
    the same bits as the array path, :func:`numpy.interp`.
    """

    ts: tuple[float, ...]
    fs: tuple[float, ...]

    kind: ClassVar[str] = "table"

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

    @property
    def domain_max(self) -> float:
        return self.ts[-1]

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
        out = np.interp(arr, self.ts, self.fs)
        return float(out) if np.ndim(t) == 0 else out

    def derivative(self, t):
        # searching the inner knots only gives the segment index directly,
        # with t < ts[1] on the first segment and t >= ts[-2] on the last
        ts = self.ts
        if isinstance(t, (int, float)) and t <= ts[-1]:
            return self._slopes[bisect.bisect_right(ts, t, 1, len(ts) - 1) - 1]
        arr = np.asarray(t, dtype=float)
        self._check_domain(arr)
        out = np.asarray(self._slopes)[np.searchsorted(ts[1:-1], arr, side="right")]
        return float(out) if np.ndim(t) == 0 else out


@dataclass(frozen=True)
class CallablePayoff:
    """Adapter for ad-hoc payoffs given as plain functions.

    Used for probe curves that none of the parametric families express
    exactly (e.g. shifted quadratics). When ``deriv`` is omitted the
    derivative falls back to a central finite difference (one-sided within
    a step of 0, where ``fn`` need not be defined to the left), the one
    approximate derivative in the package; every other family's is exact.
    """

    fn: Callable[[float], float]
    deriv: Callable[[float], float] | None = None

    kind: ClassVar[str] = "callable"
    domain_max: ClassVar[float] = math.inf

    def __post_init__(self) -> None:
        if not abs(float(self.fn(0.0))) <= 1e-12:  # NaN too
            raise InvalidArgument("payoff must satisfy f(0) = 0")

    def value(self, t):
        return self.fn(t)

    def derivative(self, t):
        if self.deriv is not None:
            return self.deriv(t)
        # one-sided near 0, so a function defined only for t >= 0 is never
        # evaluated left of the origin
        h = _FD_STEP_SCALE * np.maximum(1.0, np.abs(t))
        lo = np.maximum(t - h, 0.0)
        return (self.fn(t + h) - self.fn(lo)) / (t + h - lo)


PayoffFamily = Union[CfmmArbitragePayoff, PowerPayoff, TabulatedPayoff, CallablePayoff]


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
    ``max_value``/``argmax`` describe sup f over [0, root], and
    ``positive_witness`` is a point 0 < z < root with f(z) > 0.
    """

    root: float
    max_value: float
    argmax: float
    positive_witness: float


def _find_positive_point(family: PayoffFamily) -> float:
    if isinstance(family, TabulatedPayoff):
        fs = np.asarray(family.fs)
        if np.max(fs) <= 0.0:
            raise NoPositiveRegion("payoff is nonpositive at every knot")
        return family.ts[int(np.argmax(fs))]
    candidates = [1.0]
    candidates += [2.0**-k for k in range(1, _SCAN_DOWN_STEPS + 1)]
    candidates += [2.0**k for k in range(1, _SCAN_UP_STEPS + 1)]
    for t in candidates:
        if family.value(t) > 0.0:
            return t
    raise NoPositiveRegion("no point with f > 0 found on a geometric scan")


@functools.lru_cache(maxsize=256)
def diagnostics(family: PayoffFamily) -> PayoffDiagnostics:
    """Locate the positive root, the maximum, and a positivity witness.

    The root is bracketed by doubling from a point with f > 0 until the
    sign flips (up to the end of the float range, or to the last knot for
    tabulated families) and then bisected to 1e-10 relative. The argmax is
    the zero of f' on [0, root], bracketed to adjacent floats by the
    safeguarded search of :mod:`prorata.search`; for tabulated
    families it is read off the knots, where piecewise-linear maxima live.
    Results are memoized per family (families are frozen and hashable).
    """
    t_pos = _find_positive_point(family)
    end = family.domain_max
    # double until f <= 0 (a NaN doubles on, as a positive value does)
    lo = hi = t_pos
    while not family.value(hi) <= 0.0:
        if hi >= end:
            raise NoFiniteRoot(f"payoff still positive at the domain end t={end}")
        if hi > 0.5 * sys.float_info.max:  # the next doubling would overflow
            raise NoFiniteRoot(f"payoff still positive at t={hi:g} (cap reached)")
        lo, hi = hi, min(2.0 * hi, end)
    root = bisect_root(family.value, lo, hi, _ROOT_RTOL)

    if isinstance(family, TabulatedPayoff):
        ts = np.asarray(family.ts)
        fs = np.asarray(family.fs)
        inside = ts <= root
        idx = int(np.argmax(np.where(inside, fs, -np.inf)))
        argmax, max_value = float(ts[idx]), float(fs[idx])
    else:
        argmax = bisect_root(family.derivative, 0.0, root)
        max_value = family.value(argmax)

    # t_pos qualifies when argmax does not: f > 0 there and the root is past it
    witness = argmax if 0.0 < argmax < root and family.value(argmax) > 0.0 else t_pos
    return PayoffDiagnostics(
        root=root, max_value=max_value, argmax=argmax, positive_witness=witness
    )


def search_end(family: PayoffFamily) -> float:
    """Where a search for a tender or a sample ends: the zero of f, or a
    table's last knot when f is still positive there."""
    try:
        return diagnostics(family).root
    except NoFiniteRoot:
        if family.domain_max == math.inf:
            raise
        return family.domain_max


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
