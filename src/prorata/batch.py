"""Batched clearing of signed demands against a constant-product pool.

Traders submit signed amounts of asset A (positive = sell A for B). The
batch nets internally at the pool's average price: sellers fund the net
amount pro rata, the net is traded once through the pool, and the output
is split in proportion to contribution. Global sums use ``math.fsum`` so
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
                math.fsum(arr.tolist())
                math.fsum(np.maximum(arr, 0.0).tolist())
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
    Raises :class:`NonPositiveNetDemand` when the batch nets to <= 0, and
    :class:`InvalidArgument` when the net is so large that the quote
    overflows a float.
    """
    deltas = instance.deltas
    # fsum over a memoryview reads Python floats straight from the buffer;
    # iterating the array would box a numpy scalar per element, and a
    # tolist() copy would hold them all at once
    net = math.fsum(memoryview(deltas))
    if net <= 0.0:
        raise NonPositiveNetDemand(f"batch nets to {net}, nothing to trade")
    positive = np.maximum(deltas, 0.0)
    gross = math.fsum(memoryview(positive))
    scale = net / gross
    residuals = positive * scale
    pool_input = math.fsum(memoryview(residuals))
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


def optimal_arbitrage(pool: ForwardExchange, price: float) -> float:
    """The t* maximizing g(t) - price*t: where the pool's marginal quote
    meets the external price, or 0 when the pool already quotes below it."""
    # argmax f is the best response of a lone player (y = 0)
    return cfmm_tender(pool.arbitrage_family(price))(0.0)
