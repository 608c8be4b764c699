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
from .errors import NonPositiveNetDemand
from .payoff import CfmmArbitragePayoff

MAX_TRADERS = 10_000
_SUM_LIMIT = sys.float_info.max / 2


@dataclass(frozen=True)
class ForwardExchange:
    """Quote curve g(t) = gamma*r2*t / (r1 + gamma*t) of a two-asset
    constant-product pool with fee multiplier gamma."""

    gamma: float
    r1: float
    r2: float

    def __post_init__(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if self.r1 <= 0.0 or self.r2 <= 0.0:
            raise ValueError(f"reserves must be positive, got r1={self.r1}, r2={self.r2}")

    def quote(self, t):
        return self.gamma * self.r2 * t / (self.r1 + self.gamma * t)

    def derivative(self, t):
        denom = self.r1 + self.gamma * t
        return self.gamma * self.r1 * self.r2 / (denom * denom)

    def arbitrage_family(self, price: float) -> CfmmArbitragePayoff:
        """The induced payoff f(t) = g(t) - price*t as a payoff family."""
        return CfmmArbitragePayoff(gamma=self.gamma, r1=self.r1, r2=self.r2, c=price)


@dataclass(frozen=True, eq=False)
class BatchInstance:
    deltas: np.ndarray  # signed demands in asset A, one per trader
    pool: ForwardExchange

    def __post_init__(self) -> None:
        arr = np.array(self.deltas, dtype=float)
        if arr.ndim != 1:
            raise ValueError("deltas must be one-dimensional")
        if arr.shape[0] == 0 or arr.shape[0] > MAX_TRADERS:
            raise ValueError(f"need 1..{MAX_TRADERS} traders, got {arr.shape[0]}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("deltas must be finite")
        # clear() takes exact sums of the deltas and of their positive parts;
        # below _SUM_LIMIT in absolute total neither can overflow
        with np.errstate(over="ignore"):
            bounded = np.abs(arr).sum() < _SUM_LIMIT
        if not bounded:
            try:
                math.fsum(arr.tolist())
                math.fsum(np.maximum(arr, 0.0).tolist())
            except OverflowError:
                raise ValueError("the sum of the deltas overflows") from None
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
    Raises :class:`NonPositiveNetDemand` when the batch nets to <= 0.
    """
    deltas = instance.deltas
    net = math.fsum(deltas)
    if net <= 0.0:
        raise NonPositiveNetDemand(f"batch nets to {net}, nothing to trade")
    positive = np.maximum(deltas, 0.0)
    gross = math.fsum(positive)
    scale = net / gross
    residuals = positive * scale
    pool_input = math.fsum(residuals)
    pool_output = instance.pool.quote(pool_input)
    per_trader_b = residuals * (pool_output / pool_input)
    residuals.setflags(write=False)
    per_trader_b.setflags(write=False)
    return BatchOutcome(
        residuals=residuals,
        pool_input=pool_input,
        pool_output=pool_output,
        per_trader_b=per_trader_b,
    )


def arbitrage_payoff(pool: ForwardExchange, price: float, x, y):
    """Pro-rata arbitrage profit x/(x+y)*g(x+y) - price*x of tendering x
    alongside y, with the pool output valued at the external price."""
    if isinstance(x, (int, float)) and isinstance(y, (int, float)):
        if x <= 0.0:
            return 0.0
        t = x + y
        return (x / t) * pool.quote(t) - price * x
    x_arr = np.asarray(x, dtype=float)
    t = x_arr + np.asarray(y, dtype=float)
    x_b = np.broadcast_to(x_arr, t.shape)
    share = np.divide(x_b, t, out=np.zeros(t.shape), where=t > 0.0)
    return np.where(x_b > 0.0, share * pool.quote(np.where(t > 0.0, t, 1.0)) - price * x_b, 0.0)


def optimal_arbitrage(pool: ForwardExchange, price: float) -> float:
    """The t* maximizing g(t) - price*t: where the pool's marginal quote
    meets the external price, or 0 when the pool already quotes below it."""
    if price <= 0.0:
        raise ValueError(f"external price must be positive, got {price}")
    # argmax f is the best response of a lone player (y = 0)
    return cfmm_tender(pool.arbitrage_family(price))(0.0)
