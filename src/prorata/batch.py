"""Batched clearing of signed demands against a constant-product pool.

Traders submit signed amounts of asset A (positive = sell A for B). The
batch nets internally at the pool's average price: sellers fund the net
amount pro rata, the net is traded once through the pool, and the output
is split in proportion to contribution. Global sums are exact and rounded
once, computed in numpy (``_fixed_sums``): the float ``math.fsum`` returns, so
reordering traders cannot change anyone's fill, bit for bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgument, NonPositiveNetDemand
from .payoff import ForwardExchange

MAX_TRADERS = 10_000
_SUM_LIMIT = sys.float_info.max / 2
_BLOCK = 12  # exponent bins merged per float; see _fixed_sums
_BLOCK_SCALE = 2.0 ** np.arange(_BLOCK)
_LOW_SCALE = _BLOCK_SCALE * 2.0**26  # the low halves count units of 2**-26


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
                _net_and_gross(arr)
            except OverflowError:
                raise InvalidArgument("the sum of the deltas overflows") from None
        arr.setflags(write=False)
        object.__setattr__(self, "deltas", arr)


@dataclass(frozen=True, eq=False)
class BatchOutcome:
    residuals: np.ndarray     # nonnegative per-trader amounts sent to the pool
    # the exact sum of the residuals, rounded once: the net demand to within
    # the residuals' own rounding, a few ulps while they are normal; but a
    # subnormal residual rounds by up to half of 5e-324, so deltas
    # (5e-324, 5e-324, 5e-324, -5e-324) send 1.5e-323 for a net of 1e-323
    pool_input: float
    pool_output: float        # g(pool_input), asset B produced
    per_trader_b: np.ndarray  # pro-rata split of pool_output


def clear(instance: BatchInstance) -> BatchOutcome:
    """Net the batch and trade the remainder through the pool.

    Residuals scale the positive demands by (net demand)/(gross positive
    demand); buyers (delta <= 0) carry residual 0 and receive no B — their
    fills net out internally in asset A. When no demand is netted
    (all deltas >= 0) the scale is exactly 1 and residuals equal deltas.
    The net, the gross and the pool input are exact sums rounded once, so
    permuting the traders permutes the fills and changes no bit. The net
    and the gross share one pass over the traders; the pool input takes a
    second only when the net differs from the gross, and is the gross
    otherwise. Each pass is exact for fewer than 2**15 entries
    (MAX_TRADERS = 10,000; see ``_fixed_sums``).
    Raises :class:`NonPositiveNetDemand` when the batch nets to <= 0 or
    every scaled residual rounds to 0 (so nothing reaches the pool), and
    :class:`InvalidArgument` when the net is so large that the quote
    overflows a float.
    """
    deltas = instance.deltas
    net, gross = _net_and_gross(deltas)
    if net <= 0.0:
        raise NonPositiveNetDemand(f"batch nets to {net}, nothing to trade")
    residuals = np.maximum(deltas, 0.0)
    if net == gross:
        # the scale net/gross is exactly 1: the residuals are the positive
        # parts, whose exact sum, rounded once, is the gross
        pool_input = gross
    else:
        residuals *= net / gross
        pool_input = _exact_sum(residuals)
        if pool_input == 0.0:  # the scaled residuals all rounded to 0
            raise NonPositiveNetDemand(
                f"batch nets to {net}, but every residual rounds to 0: nothing to trade")
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
    """The sum of the finite floats in ``a`` (1 to 2**15 - 1 of them), rounded
    once: the float ``math.fsum`` returns, +0.0 when the sum is exactly zero.
    Raises ``OverflowError`` when the rounded sum is not finite; unlike
    ``math.fsum``, never for an intermediate sum. See ``_fixed_sums``."""
    total, _, shift = _fixed_sums(a)
    return _rounded(total, shift)


def _net_and_gross(a: np.ndarray) -> tuple[float, float]:
    """The exact sums of ``a`` and of its positive entries, as ``_exact_sum``
    rounds them, from one pass. Raises ``OverflowError`` when either is not
    finite."""
    net, gross, shift = _fixed_sums(a)
    return _rounded(net, shift), _rounded(gross, shift)


def _fixed_sums(a: np.ndarray) -> tuple[int, int, int]:
    """``(net, gross, shift)``: the sum of ``a`` and the sum of its positive
    entries are exactly ``net * 2**shift`` and ``gross * 2**shift``.

    ``np.frexp`` writes each entry as M * 2**(e-53) with M an integer,
    |M| < 2**53. M splits into a high half of at most 27 bits and a low half
    of at most 26, and ``np.bincount`` sums each half per exponent e. When
    ``a`` has a negative entry, entries with the sign bit set are binned
    ``width`` above the rest, so the same two bincounts give the net (both
    halves) and the gross (the lower half). Each run of ``_BLOCK`` = 12
    adjacent bins is then merged into one float, bin k scaled by 2**k: every
    entry adds at most 2**27 * 2**11 = 2**38 to it in absolute value, so
    with fewer than 2**15 entries (MAX_TRADERS = 10,000) every partial sum,
    in any order, is an integer below 2**53 and exact. One Python int per
    sum gathers the blocks, and ``_rounded`` rounds it once.
    """
    # in place where it can be, each temporary freed before the next is made:
    # at MAX_TRADERS fresh 80 kB temporaries can page-fault on every call,
    # which measured up to 3x slower. The exponents come out as intp, the
    # type np.bincount takes, and become the bin indices in place.
    m, bins = np.frexp(a, out=(np.empty_like(a), np.empty(a.shape, np.intp)))
    e0 = int(bins.min())
    bins -= e0
    width = (int(bins.max()) // _BLOCK + 1) * _BLOCK  # whole blocks per half
    if a.min() < 0.0:
        signed = a.view(np.int64) >> 63  # -1 where the sign bit is set
        signed &= width
        bins += signed
        del signed  # so np.trunc below can reuse its memory
    m *= 2.0**27  # M / 2**26: the high half is its integer part
    high = np.trunc(m)
    his = np.bincount(bins, weights=high, minlength=2 * width)
    m -= high
    los = np.bincount(bins, weights=m, minlength=2 * width)
    # block sums: integers below 2**53, so exact as int64
    his = (his.reshape(-1, _BLOCK) @ _BLOCK_SCALE).astype(np.int64).tolist()
    los = (los.reshape(-1, _BLOCK) @ _LOW_SCALE).astype(np.int64).tolist()
    half = width // _BLOCK
    net = gross = 0  # in units of 2**(e0 - 53), gathered from the top block down
    for b in range(half - 1, -1, -1):
        positive = (his[b] << 26) + los[b]
        gross = (gross << _BLOCK) + positive
        net = (net << _BLOCK) + positive + (his[b + half] << 26) + los[b + half]
    return net, gross, e0 - 53


def _rounded(total: int, shift: int) -> float:
    """``total * 2**shift`` correctly rounded: one int-to-float conversion or
    int/int division. Raises ``OverflowError`` when it is not finite."""
    return float(total << shift) if shift >= 0 else total / (1 << -shift)


def optimal_arbitrage(pool: ForwardExchange, price: float) -> float:
    """The t* maximizing g(t) - price*t: where the pool's marginal quote
    meets the external price, or 0 when the pool already quotes below it."""
    # argmax f is the best response of a lone player (y = 0)
    return pool.arbitrage_family(price).tender()(0.0)
