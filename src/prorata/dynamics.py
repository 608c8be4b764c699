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

One round engine serves :func:`simulate`, :func:`convergence_study` and
:func:`whale_fish_experiment`: it plays all trials of a study point (or a
whale row) in lockstep as the rows of one (trials, n) array, drops each
trial from the array at the round it stops, and checks the stop rules on
the whole array. ``simulate`` is the one-trial case. Within a round each
row is swept in Python floats, player after player, through the family's
one best-response tender, :func:`unconstrained_tender`, the one
:func:`best_response` caps at a budget, so a trial ends exactly as it
would alone. The engine reads its rules from a :class:`GameConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .equilibrium import EquilibriumResult, solve_symmetric, unconstrained_tender
from .errors import InvalidArgument, NoPositiveRegion
from .payoff import PayoffFamily, diagnostics, pro_rata_payoff

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
            raise InvalidArgument(f"delta must be positive, got {self.delta}")


@dataclass(frozen=True)
class Budgeted:
    """Per-player hard caps; ``math.inf`` entries mean no cap."""

    budgets: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(float(b) for b in self.budgets))
        if any(b < 0.0 for b in self.budgets):
            raise InvalidArgument("budgets must be nonnegative")


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
            raise InvalidArgument(f"n must be a positive integer, got {self.n!r}")
        if not self.convergence_threshold > 0.0:  # NaN too
            raise InvalidArgument("convergence_threshold must be positive")
        iterations = self.max_iterations
        if not isinstance(iterations, int) or isinstance(iterations, bool):
            raise InvalidArgument(f"max_iterations must be an integer, got {iterations!r}")
        if iterations < 1:
            raise InvalidArgument("max_iterations must be at least 1")
        if self.update_order not in UPDATE_ORDERS:
            raise InvalidArgument(
                f"update_order must be one of {UPDATE_ORDERS}, got {self.update_order!r}"
            )
        if isinstance(self.scenario, Budgeted) and len(self.scenario.budgets) != self.n:
            raise InvalidArgument(
                f"need {self.n} budgets, got {len(self.scenario.budgets)}"
            )


@dataclass(frozen=True, eq=False)
class DynamicsTrace:
    """One run of :func:`simulate`."""

    tenders: np.ndarray        # read-only (rounds+1, n): the start, then every round
    converged_at: int | None   # round index; 0 means already at equilibrium
    stop_reason: str           # "converged" or "iteration-cap"
    equilibrium: EquilibriumResult
    final_payoffs: np.ndarray


def _sweep(
    X: np.ndarray,
    lower: np.ndarray,
    upper: np.ndarray,
    order: str,
    tender: Callable[[float], float],
) -> np.ndarray:
    """One best-response round on every row of X, shape (rows, n).

    Players move one after another, each row on its own and in Python
    floats: sequential order sees the moves already made this round,
    synchronous order only last round's profile. Each move is clipped to
    [lower, upper] (arrays broadcastable to X). Rows never mix, so a row's
    result is the same whatever else is in X. Each row and player costs
    ~0.6 µs (cfmm, tender included), which beats per-player numpy calls
    below ~15-20 rows and loses to them above.
    """
    sequential = order == "sequential"
    rows = []
    for x, los, ups, total in zip(
        X.tolist(),
        np.broadcast_to(lower, X.shape).tolist(),
        np.broadcast_to(upper, X.shape).tolist(),
        X.sum(axis=1).tolist(),
    ):
        out = []
        for xi, lo, up in zip(x, los, ups):
            # before its move a player's entry is still last round's, in
            # either order. A clamp replaces only a value strictly past its
            # bound: a zero of either sign, or a NaN, is kept as computed.
            y = total - xi
            if y < 0.0:
                y = 0.0
            t = tender(y)
            if t < lo:
                t = lo
            if up < t:
                t = up
            if sequential:
                total += t - xi
            out.append(t)
        rows.append(out)
    return np.array(rows)


def _play(
    config: GameConfig,
    X: np.ndarray,
    upper: np.ndarray,
    stopped: Callable[[np.ndarray, np.ndarray], np.ndarray],
    history: list[np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Run rounds of ``config``'s game on every row of X until
    ``stopped(new, old)`` holds for the row or the config's round cap is hit.

    ``upper`` caps each tender (per row and player); a ``BoundedUpdate``
    scenario caps each move. A stopped row leaves the active set, so rows
    stop independently. Returns the final profiles and each row's stopping
    round (-1 for rows cut off by the cap). ``history`` collects every
    round's active rows.
    """
    scenario, order = config.scenario, config.update_order
    delta = scenario.delta if isinstance(scenario, BoundedUpdate) else None
    tender = unconstrained_tender(config.family)
    final = X.copy()
    stop_at = np.full(X.shape[0], -1)
    rows = np.arange(X.shape[0])
    lower = np.zeros((1, X.shape[1]))
    for t in range(1, config.max_iterations + 1):
        if not rows.size:
            break
        if delta is None:
            new = _sweep(X, lower, upper, order, tender)
        else:
            new = _sweep(X, np.maximum(0.0, X - delta), X + delta, order, tender)
        if history is not None:
            history.append(new)
        done = stopped(new, X)
        X = new
        if done.any():
            final[rows[done]] = X[done]
            stop_at[rows[done]] = t
            keep = ~done
            X, rows, upper = X[keep], rows[keep], upper[keep]
    final[rows] = X
    return final, stop_at


def _play_to_equilibrium(
    config: GameConfig,
    eq: EquilibriumResult,
    X: np.ndarray,
    history: list[np.ndarray] | None = None,
) -> np.ndarray:
    """Rounds on every row of X until it is within the threshold of the
    symmetric equilibrium ``eq`` (sup norm), checked from round 0. Returns
    each row's stopping round (-1 at the iteration cap)."""
    threshold = config.convergence_threshold

    def near(new: np.ndarray, old: np.ndarray | None = None) -> np.ndarray:
        return np.abs(new - eq.per_player).max(axis=1) < threshold

    scenario = config.scenario
    caps = scenario.budgets if isinstance(scenario, Budgeted) else math.inf
    stop_at = np.zeros(X.shape[0], dtype=int)
    todo = np.flatnonzero(~near(X))
    if todo.size:
        _, stop_at[todo] = _play(
            config, X[todo], np.full((todo.size, config.n), caps), near, history
        )
    return stop_at


def draw_initial_profile(
    family: PayoffFamily, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Each tender uniform on (0, w/n), the natural per-player scale."""
    w = diagnostics(family).root
    return rng.uniform(0.0, w / n, size=n)


def simulate(
    config: GameConfig,
    initial: Sequence[float] | np.ndarray | None = None,
) -> DynamicsTrace:
    """Run best-response rounds until the profile is within
    ``convergence_threshold`` of the symmetric equilibrium (sup norm) or
    the round cap is hit. ``initial=None`` draws a uniform profile from
    the config seed."""
    family, n = config.family, config.n
    eq = solve_symmetric(family, n)
    if initial is None:
        x = draw_initial_profile(family, n, np.random.default_rng(config.seed))
    else:
        x = np.array(initial, dtype=float)
    if x.shape != (n,):
        raise InvalidArgument(f"initial profile must have shape ({n},), got {x.shape}")
    if np.any(x < 0.0):
        raise InvalidArgument("initial tenders must be nonnegative")

    history = [x[None, :]]
    stop_at = _play_to_equilibrium(config, eq, history[0], history)
    tenders = np.concatenate(history)
    tenders.setflags(write=False)
    converged_at = int(stop_at[0]) if stop_at[0] >= 0 else None
    final = tenders[-1]
    return DynamicsTrace(
        tenders=tenders,
        converged_at=converged_at,
        stop_reason="iteration-cap" if converged_at is None else "converged",
        equilibrium=eq,
        final_payoffs=pro_rata_payoff(family, final, float(final.sum()) - final),
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
    with [seed, n, k], so any subset of the grid reproduces exactly. The
    trials of one n run in lockstep, as the rows of one array; each row
    stops on its own and ends exactly as it would alone.
    """
    if trials < 1:
        raise InvalidArgument(f"trials must be at least 1, got {trials}")
    records = []
    for n in n_values:
        n = int(n)
        config = GameConfig(
            family=family,
            n=n,
            scenario=scenario,
            convergence_threshold=convergence_threshold,
            max_iterations=max_iterations,
            seed=seed,
            update_order=update_order,
        )
        X = np.array([
            draw_initial_profile(family, n, np.random.default_rng([seed, n, trial]))
            for trial in range(trials)
        ])
        stop_at = _play_to_equilibrium(config, solve_symmetric(family, n), X)
        records.extend(
            StudyRecord(
                n=n,
                trial=trial,
                iterations=rounds if rounds >= 0 else None,
                converged=rounds >= 0,
            )
            for trial, rounds in enumerate(stop_at.tolist())
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
    All trials run in lockstep, as the rows of one array.
    """
    if n_fish < 0:
        raise InvalidArgument(f"n_fish must be nonnegative, got {n_fish}")
    if trials < 1:
        raise InvalidArgument(f"trials must be at least 1, got {trials}")
    n_total = n_fish + 1
    # the run settings get the same checks as a study's
    config = GameConfig(family, n_total, convergence_threshold=convergence_threshold,
                        max_iterations=max_iterations, seed=seed)
    eq = solve_symmetric(family, n_total)
    fair_strategy = eq.per_player
    fair_payoff = eq.equilibrium_payoff
    if not fair_payoff > 0.0:
        # the percentage columns divide by it
        raise NoPositiveRegion(f"equilibrium payoff f(q)/n={fair_payoff!r} is "
                               f"not positive at n={n_total}")
    w = diagnostics(family).root

    X = np.empty((trials, n_total))
    upper = np.full((trials, n_total), math.inf)
    for trial in range(trials):
        rng = np.random.default_rng([seed, n_fish, trial])
        upper[trial, 1:] = rng.uniform(0.0, fair_strategy, size=n_fish)
        X[trial, 0] = rng.uniform(0.0, w / n_total)
        X[trial, 1:] = rng.uniform(0.0, upper[trial, 1:]) if n_fish else []

    def settled(new: np.ndarray, old: np.ndarray) -> np.ndarray:
        return np.abs(new - old).max(axis=1) < convergence_threshold

    final, stop_at = _play(config, X, upper, settled)
    strategies = final[:, 0]
    profits = np.array([
        pro_rata_payoff(family, float(x[0]), float(x[1:].sum())) for x in final
    ])
    pct_strategy = 100.0 * (strategies - fair_strategy) / fair_strategy
    pct_profit = 100.0 * (profits - fair_payoff) / fair_payoff
    converged = int(np.count_nonzero(stop_at >= 0))
    saturated = int(np.count_nonzero((final[:, 1:] == upper[:, 1:]).all(axis=1)))

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
