"""Iterated best-response dynamics.

Players repeatedly replace their tender with a best response to everyone
else's. Updates are applied in place player-by-player ("sequential", the
default — it converges for every n tested) or simultaneously
("synchronous", which loses local stability once n >= 4 because the
round map's eigenvalue (n-1)·BR' leaves the unit disk).

Three scenarios: unconstrained responses, per-round movement caps
(BoundedUpdate), and hard per-player budgets (Budgeted). Caps and budgets
are applied by projecting the unconstrained best response, which is exact
for concave payoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .equilibrium import (
    EquilibriumResult,
    best_response,
    solve_symmetric,
    unconstrained_tender,
)
from .payoff import PayoffFamily, _cached_diagnostics, pro_rata_payoff

UPDATE_ORDERS = ("sequential", "synchronous")


@dataclass(frozen=True)
class Unconstrained:
    """Best responses applied as-is."""


@dataclass(frozen=True)
class BoundedUpdate:
    """Each round, a player may move at most ``delta`` from their last tender."""

    delta: float

    def __post_init__(self) -> None:
        if self.delta <= 0.0:
            raise ValueError(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class Budgeted:
    """Per-player hard caps; ``math.inf`` entries mean no cap."""

    budgets: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        if any(b < 0.0 for b in self.budgets):
            raise ValueError("budgets must be nonnegative")


Scenario = Union[Unconstrained, BoundedUpdate, Budgeted]


@dataclass(frozen=True)
class GameConfig:
    family: PayoffFamily
    n: int
    scenario: Scenario = Unconstrained()
    convergence_threshold: float = 0.1
    max_iterations: int = 2000
    seed: int = 0
    update_order: str = "sequential"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 1:
            raise ValueError(f"n must be a positive integer, got {self.n!r}")
        if self.convergence_threshold <= 0.0:
            raise ValueError("convergence_threshold must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.update_order not in UPDATE_ORDERS:
            raise ValueError(
                f"update_order must be one of {UPDATE_ORDERS}, got {self.update_order!r}"
            )
        if isinstance(self.scenario, Budgeted) and len(self.scenario.budgets) != self.n:
            raise ValueError(
                f"need {self.n} budgets, got {len(self.scenario.budgets)}"
            )


@dataclass(frozen=True, eq=False)
class StrategyProfile:
    """An immutable vector of per-player tenders."""

    actions: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.actions, dtype=float)
        if arr.ndim != 1:
            raise ValueError("actions must be one-dimensional")
        if np.any(arr < 0.0):
            raise ValueError("actions must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "actions", arr)

    @property
    def total(self) -> float:
        return float(self.actions.sum())

    def payoffs(self, family: PayoffFamily) -> np.ndarray:
        return pro_rata_payoff(family, self.actions, self.total - self.actions)


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    profiles: list[StrategyProfile]
    converged_at: int | None   # round index; 0 means already at equilibrium
    stop_reason: str           # "converged" or "iteration-cap"
    equilibrium: EquilibriumResult
    final_payoffs: np.ndarray

    def history(self) -> np.ndarray:
        """Tender vectors stacked as a (rounds+1, n) array."""
        return np.stack([p.actions for p in self.profiles])


def _make_unconstrained_br(family: PayoffFamily) -> Callable[[float], float]:
    tender = unconstrained_tender(family)
    if tender is not None:
        return tender

    def br(y: float) -> float:
        return best_response(family, y).x

    return br


def _round_bounds(scenario: Scenario, x: np.ndarray):
    if isinstance(scenario, BoundedUpdate):
        return np.maximum(0.0, x - scenario.delta), x + scenario.delta
    if isinstance(scenario, Budgeted):
        return np.zeros_like(x), np.asarray(scenario.budgets, dtype=float)
    return np.zeros_like(x), np.full_like(x, math.inf)


def _step(
    x: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    order: str,
    br: Callable[[float], float],
) -> np.ndarray:
    sequential = order == "sequential"
    out = x.copy()
    total = float(x.sum())
    for i in range(x.shape[0]):
        y = total - (out[i] if sequential else x[i])
        if y < 0.0:
            y = 0.0
        xi = br(y)
        if xi < lower[i]:
            xi = lower[i]
        elif xi > upper[i]:
            xi = upper[i]
        if sequential:
            total += xi - out[i]
        out[i] = xi
    return out


def draw_initial_profile(
    family: PayoffFamily, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Each tender uniform on (0, w/n), the natural per-player scale."""
    w = _cached_diagnostics(family).root
    return rng.uniform(0.0, w / n, size=n)


def simulate(
    config: GameConfig,
    initial: StrategyProfile | Sequence[float] | np.ndarray | None = None,
) -> DynamicsTrace:
    """Run best-response rounds until the profile is within
    ``convergence_threshold`` of the symmetric equilibrium (sup norm) or
    the round cap is hit. ``initial=None`` draws a uniform profile from
    the config seed."""
    family, n = config.family, config.n
    eq = solve_symmetric(family, n)
    if initial is None:
        x = draw_initial_profile(family, n, np.random.default_rng(config.seed))
    elif isinstance(initial, StrategyProfile):
        x = initial.actions.copy()
    else:
        x = np.array(initial, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"initial profile must have shape ({n},), got {x.shape}")
    if np.any(x < 0.0):
        raise ValueError("initial tenders must be nonnegative")

    br = _make_unconstrained_br(family)
    profiles = [StrategyProfile(x)]
    converged_at: int | None = None
    stop_reason = "iteration-cap"
    if float(np.max(np.abs(x - eq.per_player))) < config.convergence_threshold:
        converged_at, stop_reason = 0, "converged"
    else:
        for t in range(1, config.max_iterations + 1):
            lower, upper = _round_bounds(config.scenario, x)
            x = _step(x, lower, upper, config.update_order, br)
            profiles.append(StrategyProfile(x))
            if float(np.max(np.abs(x - eq.per_player))) < config.convergence_threshold:
                converged_at, stop_reason = t, "converged"
                break

    final = profiles[-1]
    return DynamicsTrace(
        profiles=profiles,
        converged_at=converged_at,
        stop_reason=stop_reason,
        equilibrium=eq,
        final_payoffs=final.payoffs(family),
    )


@dataclass(frozen=True)
class StudyRecord:
    n: int
    trial: int
    iterations: int | None
    converged: bool


@dataclass(frozen=True)
class StudyResult:
    records: tuple[StudyRecord, ...]

    def mean_iterations(self) -> dict[int, float]:
        """Mean rounds-to-convergence per n, over converged trials."""
        sums: dict[int, list[int]] = {}
        for r in self.records:
            if r.converged:
                sums.setdefault(r.n, []).append(r.iterations)
        return {n: float(np.mean(v)) for n, v in sorted(sums.items())}

    def non_converged(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for r in self.records:
            if not r.converged:
                out[r.n] = out.get(r.n, 0) + 1
        return out


def convergence_study(
    family: PayoffFamily,
    n_values: Sequence[int],
    trials: int,
    seed: int,
    scenario: Scenario = Unconstrained(),
    convergence_threshold: float = 0.1,
    max_iterations: int = 2000,
    update_order: str = "sequential",
) -> StudyResult:
    """Rounds-to-convergence statistics over seeded random restarts.

    Trial (n, k) draws its initial profile from a child generator seeded
    with [seed, n, k], so any subset of the grid reproduces exactly.
    """
    records = []
    for n in n_values:
        config = GameConfig(
            family=family,
            n=int(n),
            scenario=scenario,
            convergence_threshold=convergence_threshold,
            max_iterations=max_iterations,
            seed=seed,
            update_order=update_order,
        )
        for trial in range(trials):
            rng = np.random.default_rng([seed, int(n), trial])
            x0 = draw_initial_profile(family, int(n), rng)
            trace = simulate(config, initial=x0)
            records.append(
                StudyRecord(
                    n=int(n),
                    trial=trial,
                    iterations=trace.converged_at,
                    converged=trace.converged_at is not None,
                )
            )
    return StudyResult(records=tuple(records))


@dataclass(frozen=True)
class WhaleFishReport:
    """Trial-averaged outcome of one unconstrained player (the whale)
    against ``n_fish`` budget-capped players."""

    n_fish: int
    trials: int
    fair_strategy: float        # q/(n_fish+1): symmetric-equilibrium tender
    fair_payoff: float          # f(q)/(n_fish+1)
    whale_strategy: float       # mean final whale tender
    whale_profit: float         # mean final whale payoff
    pct_strategy_increase: float
    pct_profit_increase: float
    pct_strategy_std: float
    pct_profit_std: float
    converged_trials: int
    fish_saturated_trials: int


def whale_fish_experiment(
    family: PayoffFamily,
    n_fish: int,
    trials: int,
    seed: int,
    convergence_threshold: float = 0.1,
    max_iterations: int = 2000,
) -> WhaleFishReport:
    """Budgeted dynamics with one deep-pocketed player.

    Fish budgets are drawn uniform on (0, q/n_total) — below the fair
    equilibrium tender — and fish start uniform within budget; the whale
    starts uniform on (0, w/n_total) and is uncapped. Rounds stop when no
    player moved more than ``convergence_threshold`` in the last round.
    """
    if n_fish < 0:
        raise ValueError(f"n_fish must be nonnegative, got {n_fish}")
    n_total = n_fish + 1
    eq = solve_symmetric(family, n_total)
    fair_strategy = eq.per_player
    fair_payoff = eq.equilibrium_payoff
    w = _cached_diagnostics(family).root
    br = _make_unconstrained_br(family)

    pct_strategy = np.empty(trials)
    pct_profit = np.empty(trials)
    strategies = np.empty(trials)
    profits = np.empty(trials)
    converged = 0
    saturated = 0
    for trial in range(trials):
        rng = np.random.default_rng([seed, n_fish, trial])
        fish_budgets = rng.uniform(0.0, fair_strategy, size=n_fish)
        x = np.empty(n_total)
        x[0] = rng.uniform(0.0, w / n_total)
        x[1:] = rng.uniform(0.0, fish_budgets) if n_fish else []
        lower = np.zeros(n_total)
        upper = np.concatenate(([math.inf], fish_budgets))
        for _ in range(max_iterations):
            prev = x
            x = _step(x, lower, upper, "sequential", br)
            if float(np.max(np.abs(x - prev))) < convergence_threshold:
                converged += 1
                break
        if n_fish == 0 or np.array_equal(x[1:], fish_budgets):
            saturated += 1
        strategies[trial] = x[0]
        profits[trial] = pro_rata_payoff(family, float(x[0]), float(x[1:].sum()))
        pct_strategy[trial] = 100.0 * (x[0] - fair_strategy) / fair_strategy
        pct_profit[trial] = 100.0 * (profits[trial] - fair_payoff) / fair_payoff

    return WhaleFishReport(
        n_fish=n_fish,
        trials=trials,
        fair_strategy=fair_strategy,
        fair_payoff=fair_payoff,
        whale_strategy=float(strategies.mean()),
        whale_profit=float(profits.mean()),
        pct_strategy_increase=float(pct_strategy.mean()),
        pct_profit_increase=float(pct_profit.mean()),
        pct_strategy_std=float(pct_strategy.std()),
        pct_profit_std=float(pct_profit.std()),
        converged_trials=converged,
        fish_saturated_trials=saturated,
    )
