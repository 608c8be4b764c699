"""Iterated best-response dynamics.

Players repeatedly replace their tender with a best response to everyone
else's. Updates are applied in place player-by-player ("sequential", the
default — it converges for every n tested) or simultaneously
("synchronous", which loses local stability once n >= 4 because the
round map's eigenvalue (n-1)·BR' leaves the unit disk).

Three scenarios: unconstrained responses, per-round movement caps
(BoundedUpdate), and hard per-player budgets (Budgeted). Caps and budgets
are applied by projecting the unconstrained best response, which is exact
for concave payoffs; the family's own tender, ``family.tender()``, takes
the bounds and projects (see :meth:`~prorata.payoff.PayoffFamily.tender`).

One round engine, :func:`_play_batch`, serves :func:`simulate`,
:func:`convergence_study` and :func:`whale_fish_sweep` (and so
:func:`whale_fish_experiment`, its one-count call): a run's trials, of
every n value or fish count, play in lockstep as the rows of one batch,
and each row leaves at the round it stops. Rows never mix, so a trial ends
exactly as it would alone. Two kernels move the rows, chosen by the family:
a column kernel, one array call per player for every row, where the family
has a ``column_tender()`` (cfmm), and a scalar loop over rows otherwise.
The engine's docstring gives the stop reasons, the layout of the batch and
why each kernel is kept. The engine reads its rules from a
:class:`GameConfig`, whose defaults are the run defaults of every function
here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .equilibrium import EquilibriumResult, solve_symmetric
from .errors import DomainExceeded, InvalidArgument, integer, number
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
        number("delta", self.delta, positive=True)


@dataclass(frozen=True)
class Budgeted:
    """Per-player hard caps; ``math.inf`` entries mean no cap."""

    budgets: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "budgets", tuple(
            number(f"budgets[{i}]", float(b), positive=False)
            for i, b in enumerate(self.budgets)))


Scenario = Union[Unconstrained, BoundedUpdate, Budgeted]


@dataclass(frozen=True)
class GameConfig:
    """The rules of one game, each checked once here: the family, the n
    players, the scenario, the stop rule and the update order.

    ``convergence_threshold`` is an absolute distance in units of tender,
    not scaled to the family: a trial converges when its profile is within
    it of the symmetric equilibrium (sup norm), or, for the whale, when no
    player moved by it or more. A family whose tenders all lie far below
    it reads as converged at round 0: the power family with beta 0.99 and
    gamma 10 has its zero at 1e-100, so at n = 3 the default 0.1 stops
    every trial at round 0, and 1e-110 takes 16 rounds.
    """

    family: PayoffFamily
    n: int
    scenario: Scenario = Unconstrained()
    convergence_threshold: float = 0.1
    max_iterations: int = 2000
    seed: int = 0
    update_order: str = "sequential"

    def __post_init__(self) -> None:
        # numpy integers are stored as Python ints
        for name, least in (("n", 1), ("max_iterations", 1), ("seed", 0)):
            object.__setattr__(self, name, integer(name, getattr(self, name), least))
        number("convergence_threshold", self.convergence_threshold, positive=True)
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

    tenders: np.ndarray  # read-only (rounds+1, n): the start, then every round
    stop_reason: str     # "converged", "fixed-point" or "iteration-cap"
    equilibrium: EquilibriumResult
    final_payoffs: np.ndarray


# A row whose players all moved by at most this many ulps of the row total
# is at rest: rounding, not the dynamics, moves it.
_FIXED_POINT_ULPS = 4
_REASONS = ("iteration-cap", "converged", "fixed-point")

_Point = tuple[np.ndarray, np.ndarray, Union[float, None]]
_Outcome = tuple[np.ndarray, list[int], list[str]]


def _play(
    config: GameConfig,
    X: np.ndarray,
    upper: np.ndarray,
    target: float | None = None,
    history: list[np.ndarray] | None = None,
) -> _Outcome:
    """:func:`_play_batch` on the one point (X, upper, target)."""
    (outcome,) = _play_batch(config, [(X, upper, target)], history)
    return outcome


def _play_batch(
    config: GameConfig,
    points: Sequence[_Point],
    history: list[np.ndarray] | None = None,
) -> list[_Outcome]:
    """Run rounds of ``config``'s game on the rows of every point, each row
    until it stops.

    A point is (X, upper, target): its trials as the rows of X, as wide as
    its n, their tender caps and the symmetric tender they aim at, or None
    (for every point or for none); the points share ``config``'s family,
    scenario, threshold, round cap and update order. A row stops at the first round where one of these
    holds, and says which:

    - ``"converged"``: the row is within the threshold of ``target`` (sup
      norm), checked from round 0; with no target, no player moved by the
      threshold or more;
    - ``"fixed-point"``: no player moved more than ``_FIXED_POINT_ULPS``
      ulps of the row total;
    - ``"iteration-cap"``: the row played the config's round cap.

    In a round players move one after another, each row on its own:
    sequential order sees the moves already made this round, synchronous
    order only last round's profile. A move is one call of the family's
    tender on the window [0, u], u the player's entry of ``upper``, or,
    under a ``BoundedUpdate`` movement cap delta, [x - delta, x + delta]
    around the player's last tender x; the tender itself keeps the answer
    at or above 0 (see :meth:`~prorata.payoff.PayoffFamily.tender`). Each
    round then sums every live row with numpy. A stopped row leaves, so
    rows stop independently and a row ends exactly as it would alone.

    The family alone picks one of two kernels, which give the same bits.
    With a ``column_tender()`` (cfmm) the rows of all points play as one
    batch, and player j of every live row moves in one array call (see
    :func:`_column_play`); a run's points share each call because at 10
    trials one point's rows are too few to repay numpy's cost per call.
    Otherwise the points play one after another, each row in Python floats
    through ``tender()`` (see :func:`_scalar_play`): a search (tables,
    callables) has no array form, and power's Newton iteration, called per
    element of an array, is several times slower than its scalar loop. On
    a table family, a row total past the last knot raises
    :class:`DomainExceeded` at that round, for the first listed point whose
    rows leave the table. ``history``, given one point, collects every
    round's live rows. Returns, per point, its final rows, the rounds each
    played and why each stopped.
    """
    tender = config.family.column_tender()
    if tender is None:
        return [_scalar_play(config, *point, history) for point in points]
    return _column_play(config, tender, points, history)


def _scalar_play(
    config: GameConfig,
    X: np.ndarray,
    upper: np.ndarray,
    target: float | None,
    history: list[np.ndarray] | None,
) -> _Outcome:
    """The rounds of one point, each row moved in Python floats.

    Each live row is one record: its index, its tenders as a Python float
    list, its caps and its total. The round builds one array, for the row
    totals (numpy's sum, the bits the array would give) and for
    ``history``.
    """
    family, scenario = config.family, config.scenario
    threshold, cap = config.convergence_threshold, config.max_iterations
    delta = scenario.delta if isinstance(scenario, BoundedUpdate) else None
    sequential = config.update_order == "sequential"
    end = family.domain_max
    tender = family.tender()

    def distance(row: list[float]) -> float:
        """The row's sup-norm distance to target; infinite at a NaN."""
        dist = 0.0
        for v in row:
            d = abs(v - target)
            if not d <= dist:
                dist = d if d == d else math.inf
        return dist

    final = X.tolist()
    rounds, reasons = [cap] * len(final), ["iteration-cap"] * len(final)
    live = []
    for i, record in enumerate(zip(final, upper.tolist(), X.sum(axis=1).tolist())):
        if target is not None and distance(record[0]) < threshold:
            rounds[i], reasons[i] = 0, "converged"
        else:
            live.append((i, *record))
    for t in range(1, cap + 1):
        if not live:
            break
        swept = []
        for _, x, caps, total in live:
            out, move = [], 0.0
            for xi, up in zip(x, caps):
                # before its move a player's entry is still last round's,
                # in either order
                y = total - xi
                if y < 0.0:
                    y = 0.0
                if delta is None:
                    v = tender(y, 0.0, up)
                else:
                    v = tender(y, xi - delta, xi + delta)
                if sequential:
                    total += v - xi
                step = abs(v - xi)
                if step > move:
                    move = step
                out.append(v)
            swept.append((out, move))
        X = np.array([row for row, _ in swept])
        totals = X.sum(axis=1).tolist()
        if end < math.inf and (over := [s for s in totals if s > end]):
            raise DomainExceeded(f"round {t}: tender total {max(over)} "
                                 f"beyond last knot {end}")
        if history is not None:
            history.append(X)
        keep = []
        for (i, _, caps, before), (row, move), total in zip(live, swept, totals):
            final[i] = row
            if (move if target is None else distance(row)) < threshold:
                rounds[i], reasons[i] = t, "converged"
            elif move <= _FIXED_POINT_ULPS * math.ulp(before):
                rounds[i], reasons[i] = t, "fixed-point"
            else:
                keep.append((i, row, caps, total))
        live = keep
    return np.array(final), rounds, reasons


def _column_play(
    config: GameConfig,
    tender: Callable[..., np.ndarray],
    points: Sequence[_Point],
    history: list[np.ndarray] | None,
) -> list[_Outcome]:
    """The rounds of all points as one batch, moved by the column tender.

    The live rows are one array, sorted by width, widest first (stably),
    so the rows that have a player j are a prefix of it, and player j of
    all of them moves in one call. Past its width a row holds its target,
    which the distance reads as 0. Each row total is numpy's sum over the
    view of the row's width group: numpy gives a row summed in an array,
    or in a view of a wider one, the bits of the row summed alone, but not
    of the row summed with zeros after it. The stop tests run on arrays.
    The column kernel does not check totals against ``domain_max``: no
    family with a column tender has a last knot.
    """
    scenario = config.scenario
    delta = scenario.delta if isinstance(scenario, BoundedUpdate) else None
    sequential = config.update_order == "sequential"
    threshold, cap = config.convergence_threshold, config.max_iterations

    order = sorted(range(len(points)), key=lambda i: -points[i][0].shape[1])
    spans, first = [], 0
    for i in order:
        spans.append((first, first + len(points[i][0])))
        first += len(points[i][0])
    X = np.empty((first, points[order[0]][0].shape[1]))
    hi = np.full(X.shape, math.inf)
    width = np.empty(first, dtype=int)
    for i, (a, b) in zip(order, spans):
        x, upper, target = points[i]
        n = x.shape[1]
        X[a:b, :n], X[a:b, n:], hi[a:b, :n], width[a:b] = x, target or 0.0, upper, n
    goal = None if points[0][2] is None else np.repeat(
        [points[i][2] for i in order], [b - a for a, b in spans])
    if not np.isfinite(hi).any():
        hi = None  # a cap of inf never binds, and the tender skips it
    final = np.empty_like(X)
    rounds, reasons = np.full(first, cap), np.zeros(first, dtype=int)
    ids = np.arange(first)  # each live row's index in X
    groups = _groups(width)
    B = _totals(X, groups)

    def distance() -> np.ndarray:
        """Each row's sup-norm distance to its target, NaN at a NaN, which
        fails the threshold test as inf does."""
        return np.abs(X - goal[:, None]).max(axis=1)

    def retire(t: int, converged: np.ndarray, stop: np.ndarray) -> None:
        nonlocal X, hi, B, goal, ids, width, groups
        done = ids[stop]
        rounds[done] = t
        reasons[done] = np.where(converged[stop], 1, 2)
        final[done] = X[stop]
        keep = ~stop
        X, B, ids, width = X[keep], B[keep], ids[keep], width[keep]
        if hi is not None:
            hi = hi[keep]
        if goal is not None:
            goal = goal[keep]
        groups = _groups(width)

    if goal is not None and (converged := distance() < threshold).any():
        retire(0, converged, converged)
    for t in range(1, cap + 1):
        if not len(ids):
            break
        new = X.copy()
        running = B.copy() if sequential else B
        reach = [0] * groups[0][2]  # rows [0, reach[j]) have a player j
        for _, b, n in groups:
            reach[:n] = [b] * n
        # a total of inf meets inf - inf, as in the scalar rule, which answers 0
        with np.errstate(invalid="ignore"):
            for j, k in enumerate(reach):
                # before its move column j is still last round's, in either order
                x = new[:k, j]
                y = running[:k] - x
                y = np.where(y < 0.0, 0.0, y)
                if delta is not None:
                    v = tender(y, x - delta, x + delta)
                else:
                    v = tender(y, 0.0, math.inf if hi is None else hi[:k, j])
                if sequential:
                    running[:k] += v - x
                new[:k, j] = v
        # each row's largest step |v - x|; the padding does not move
        moves = np.abs(new - X).max(axis=1)
        X = new
        if history is not None:
            history.append(X)
        converged = (moves if goal is None else distance()) < threshold
        # moves <= 4 ulps of B, as math.ulp gives them: np.spacing(inf) is
        # NaN, where math.ulp(inf) is inf and every move is at or below it
        stop = converged | ~(moves > _FIXED_POINT_ULPS * np.spacing(B))
        B = _totals(X, groups)
        if stop.any():
            retire(t, converged, stop)
    final[ids] = X
    rounds, reasons = rounds.tolist(), [_REASONS[r] for r in reasons.tolist()]
    return [(final[a:b, :points[i][0].shape[1]], rounds[a:b], reasons[a:b])
            for i, (a, b) in sorted(zip(order, spans))]


def _groups(width: np.ndarray) -> list[tuple[int, int, int]]:
    """(first, end, width) of each run of rows of one width."""
    cuts = [0, *(np.flatnonzero(width[1:] != width[:-1]) + 1).tolist(), len(width)]
    return [(a, b, int(width[a])) for a, b in zip(cuts, cuts[1:]) if a < b]


def _totals(X: np.ndarray, groups: list[tuple[int, int, int]]) -> np.ndarray:
    """Each row's total: numpy's sum over its width group's view."""
    return np.concatenate([X[a:b, :n].sum(axis=1) for a, b, n in groups])


def _caps(config: GameConfig, rows: int) -> np.ndarray:
    """The tender caps of ``rows`` trials: the scenario's budgets, or none."""
    scenario = config.scenario
    budgets = scenario.budgets if isinstance(scenario, Budgeted) else math.inf
    return np.full((rows, config.n), budgets)


def draw_initial_profile(
    family: PayoffFamily, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Each tender uniform on (0, w/n), the natural per-player scale."""
    n = integer("n", n, 1)
    w = diagnostics(family).root
    return rng.uniform(0.0, w / n, size=n)


def simulate(
    config: GameConfig,
    initial: Sequence[float] | np.ndarray | None = None,
) -> DynamicsTrace:
    """Run best-response rounds until the profile is within
    ``convergence_threshold`` of the symmetric equilibrium (sup norm), no
    longer moves, or hits the round cap. ``initial=None`` draws a uniform
    profile from the config seed."""
    family, n = config.family, config.n
    eq = solve_symmetric(family, n)
    if initial is None:
        x = draw_initial_profile(family, n, np.random.default_rng(config.seed))
    else:
        x = np.array(initial, dtype=float)
    if x.shape != (n,):
        raise InvalidArgument(f"initial profile must have shape ({n},), got {x.shape}")
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        raise InvalidArgument("initial tenders must be finite and nonnegative")

    history = [x[None, :]]
    _, _, (reason,) = _play(config, history[0], _caps(config, 1), eq.per_player,
                            history)
    tenders = np.concatenate(history)
    tenders.setflags(write=False)
    final = tenders[-1]
    return DynamicsTrace(
        tenders=tenders,
        stop_reason=reason,
        equilibrium=eq,
        final_payoffs=pro_rata_payoff(family, final, float(final.sum()) - final),
    )


@dataclass(frozen=True)
class StudyRecord:
    n: int
    trial: int
    iterations: int  # rounds played
    stop: str        # "converged", "fixed-point" or "iteration-cap"


@dataclass(frozen=True)
class StudyResult:
    records: tuple[StudyRecord, ...]

    def mean_iterations(self) -> dict[int, float]:
        """Mean rounds-to-convergence per n, over converged trials."""
        sums: dict[int, list[int]] = {}
        for r in self.records:
            if r.stop == "converged":
                sums.setdefault(r.n, []).append(r.iterations)
        return {n: float(np.mean(v)) for n, v in sorted(sums.items())}


def convergence_study(
    family: PayoffFamily,
    n_values: Sequence[int],
    trials: int,
    seed: int,
    scenario: Scenario = GameConfig.scenario,
    convergence_threshold: float = GameConfig.convergence_threshold,
    max_iterations: int = GameConfig.max_iterations,
    update_order: str = GameConfig.update_order,
) -> StudyResult:
    """Rounds-to-convergence statistics over seeded random restarts.

    Trial (n, k) draws its initial profile from a child generator seeded
    with [seed, n, k], so any subset of the grid reproduces exactly. Every
    point is set up and checked before any is played; then the trials of
    all n values run in lockstep, as the rows of one batch. Each row stops
    on its own, for its own reason, and ends exactly as it would alone.
    """
    trials = integer("trials", trials, 1)
    ns, points = [], []
    for i, n in enumerate(n_values):
        n = integer(f"n_values[{i}]", n, 1)
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
        ns.append(n)
        points.append((X, _caps(config, trials), solve_symmetric(family, n).per_player))
    records = []  # the points differ only in n, so the last config rules them all
    for n, (_, rounds, reasons) in zip(ns, _play_batch(config, points) if points else ()):
        records.extend(StudyRecord(n, trial, played, stop)
                       for trial, (played, stop) in enumerate(zip(rounds, reasons)))
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
    convergence_threshold: float = GameConfig.convergence_threshold,
    max_iterations: int = GameConfig.max_iterations,
) -> WhaleFishReport:
    """Budgeted dynamics with one deep-pocketed player: the
    :func:`whale_fish_sweep` of the one count ``n_fish``."""
    (report,) = whale_fish_sweep(family, [n_fish], trials, seed,
                                 convergence_threshold, max_iterations)
    return report


def whale_fish_sweep(
    family: PayoffFamily,
    n_fish_values: Sequence[int],
    trials: int,
    seed: int,
    convergence_threshold: float = GameConfig.convergence_threshold,
    max_iterations: int = GameConfig.max_iterations,
) -> tuple[WhaleFishReport, ...]:
    """Budgeted dynamics with one deep-pocketed player, one report per
    count of fish.

    Fish budgets are drawn uniform on (0, q/n_total) — below the fair
    equilibrium tender — and fish start uniform within budget; the whale
    starts uniform on (0, w/n_total) and is uncapped. A trial converges
    when no player moved by ``convergence_threshold`` or more in the last
    round. Each count is set up and checked, its ``n_fish``, then
    ``trials``, then the run settings, before any is played; then the
    trials of all counts run in lockstep, as the rows of one batch, each
    ending exactly as it would alone.
    """
    setups, points = [], []
    for n_fish in n_fish_values:
        n_fish, trials = integer("n_fish", n_fish, 0), integer("trials", trials, 1)
        n_total = n_fish + 1
        # the run settings get the same checks as a study's
        config = GameConfig(family, n_total, convergence_threshold=convergence_threshold,
                            max_iterations=max_iterations, seed=seed)
        eq = solve_symmetric(family, n_total)
        fair_strategy = eq.per_player
        fair_payoff = eq.positive_payoff()  # the percentage columns divide by it
        w = diagnostics(family).root

        # one draw of 2*n_fish + 1 doubles u per trial: the fish budgets, the
        # whale start, the fish starts; each value is its upper end times u,
        # the bits of numpy's uniform(0, upper)
        U = np.array([np.random.default_rng([seed, n_fish, trial]).random(2 * n_fish + 1)
                      for trial in range(trials)])
        budgets = fair_strategy * U[:, :n_fish]
        upper = np.hstack((np.full((trials, 1), math.inf), budgets))
        X = np.hstack(((w / n_total) * U[:, n_fish:n_fish + 1],
                       budgets * U[:, n_fish + 1:]))
        setups.append((n_fish, fair_strategy, fair_payoff, budgets))
        points.append((X, upper, None))

    reports = []  # the counts differ only in n, so the last config rules them all
    for (n_fish, fair_strategy, fair_payoff, budgets), (final, _, reasons) in zip(
            setups, _play_batch(config, points) if points else ()):
        strategies = final[:, 0]
        profits = np.array([
            pro_rata_payoff(family, float(x[0]), float(x[1:].sum())) for x in final
        ])
        pct_strategy = 100.0 * (strategies - fair_strategy) / fair_strategy
        pct_profit = 100.0 * (profits - fair_payoff) / fair_payoff
        saturated = int(np.count_nonzero((final[:, 1:] == budgets).all(axis=1)))
        reports.append(WhaleFishReport(
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
            converged_trials=reasons.count("converged"),
            fish_saturated_trials=saturated,
        ))
    return tuple(reports)
