"""Batched clearing of signed demands against a constant-product pool.

Traders submit signed amounts of asset A (positive = sell A for B). The
batch nets internally at the pool's average price: sellers fund the net
amount pro rata, the net is traded once through the pool, and the output
is split in proportion to contribution. Global sums are exact and rounded
once, computed in numpy (``_exact_sum``): the float ``math.fsum`` returns, so
reordering traders cannot change anyone's fill, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .equilibrium import cfmm_tender
from .errors import InvalidArgument, NonPositiveNetDemand
from .payoff import ForwardExchange

MAX_TRADERS = 10_000
_SUM_LIMIT = sys.float_info.max / 2


@dataclass(frozen=True, eq=False)
class BatchInstance:
    deltas: np.ndarray  # signed demands in asset A, one per trader
    pool: ForwardExchange

    def __post_init__(self) -> None:
        arr = np.array(self.deltas, dtype=float)
        if arr.ndim != 1:
            raise InvalidArgument("deltas must be one-dimensional")
        if arr.shape[0] == 0 or arr.shape[0] > MAX_TRADERS:
            raise InvalidArgument(f"need 1..{MAX_TRADERS} traders, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise InvalidArgument("deltas must be finite")
        # clear() takes exact sums of the deltas and of their positive parts;
        # below _SUM_LIMIT in absolute total neither can overflow
        with np.errstate(over="ignore"):
            bounded = np.abs(arr).sum() < _SUM_LIMIT
        if not bounded:
            try:
                _exact_sum(arr)
                _exact_sum(np.maximum(arr, 0.0))
            except OverflowError:
                raise InvalidArgument("the sum of the deltas overflows") from None
        arr.setflags(write=False)
        object.__setattr__(self, "deltas", arr)


@dataclass(frozen=True, eq=False)
class BatchOutcome:
    residuals: np.ndarray     # nonnegative per-trader amounts sent to the pool
    pool_input: float         # sum of residuals == net demand
    pool_output: float        # g(pool_input), asset B produced
    per_trader_b: np.ndarray  # pro-rata split of pool_output


def clear(instance: BatchInstance) -> BatchOutcome:
    """Net the batch and trade the remainder through the pool.

    Residuals scale the positive demands by (net demand)/(gross positive
    demand); buyers (delta <= 0) carry residual 0 and receive no B — their
    fills net out internally in asset A. When no demand is netted
    (all deltas >= 0) the scale is exactly 1 and residuals equal deltas.
    The net, the gross and the pool input are exact sums rounded once, so
    permuting the traders permutes the fills and changes no bit.
    Raises :class:`NonPositiveNetDemand` when the batch nets to <= 0, and
    :class:`InvalidArgument` when the net is so large that the quote
    overflows a float.
    """
    deltas = instance.deltas
    net = _exact_sum(deltas)
    if net <= 0.0:
        raise NonPositiveNetDemand(f"batch nets to {net}, nothing to trade")
    residuals = np.maximum(deltas, 0.0)
    gross = _exact_sum(residuals)
    residuals *= net / gross
    pool_input = _exact_sum(residuals)
    pool_output = instance.pool.quote(pool_input)
    if not math.isfinite(pool_output):
        raise InvalidArgument(f"the pool quote for input {pool_input!r} overflows")
    per_trader_b = residuals * (pool_output / pool_input)
    residuals.setflags(write=False)
    per_trader_b.setflags(write=False)
    return BatchOutcome(
        residuals=residuals,
        pool_input=pool_input,
        pool_output=pool_output,
        per_trader_b=per_trader_b,
    )


def _exact_sum(a: np.ndarray) -> float:
    """The sum of the finite floats in ``a`` (at least one), rounded once:
    the float ``math.fsum`` returns, +0.0 when the sum is exactly zero.
    Raises ``OverflowError`` when the rounded sum is not finite; unlike
    ``math.fsum``, never for an intermediate sum.

    ``np.frexp`` writes each entry as M * 2**(e-53) with M an integer,
    |M| < 2**53. M splits into a high half of at most 27 bits and a low half
    of at most 26, and ``np.bincount`` sums each half per exponent e. A bin
    sum stays below 2**53, so it is exact, for up to 2**26 entries, far above
    MAX_TRADERS. One Python int gathers the nonzero bins, and one
    int-to-float conversion or int/int division, both correctly rounded,
    rounds it.
    """
    # in place where it can be: at MAX_TRADERS fresh 80 kB temporaries can
    # page-fault on every call, which measured up to 3x slower
    m, e = np.frexp(a)
    e0 = int(e.min())
    e -= e0
    bins = e.astype(np.intp)  # cast once, not in each bincount
    m *= 2.0**27  # M / 2**26: the high half is its integer part
    high = np.trunc(m)
    his = np.bincount(bins, weights=high)  # in units of 2**(e0 + k - 27)
    m -= high
    los = np.bincount(bins, weights=m) * 2.0**26  # of 2**(e0 + k - 53)
    nonzero = np.flatnonzero((his != 0.0) | (los != 0.0))
    total = 0
    for k, hi, lo in zip(nonzero.tolist(), his[nonzero].tolist(),
                         los[nonzero].tolist()):
        total += ((int(hi) << 26) + int(lo)) << k
    shift = e0 - 53  # total counts units of 2**shift
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def optimal_arbitrage(pool: ForwardExchange, price: float) -> float:
    """The t* maximizing g(t) - price*t: where the pool's marginal quote
    meets the external price, or 0 when the pool already quotes below it."""
    # argmax f is the best response of a lone player (y = 0)
    return cfmm_tender(pool.arbitrage_family(price))(0.0)
