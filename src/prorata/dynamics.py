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

Two kernels play the rounds and give the same bits. A run,
:func:`convergence_study`, :func:`bounded_update_sweep` or
:func:`whale_fish_sweep` (and so :func:`whale_fish_experiment`, its
one-count call), plays on its family's kernel through :func:`_play_batch`:
the run's trials, of every n value, movement cap or fish count, play in
lockstep as the rows of one batch, and each row leaves at the round it
stops. The points of a batch share everything but n and the movement cap,
which is data of each row, as the tender caps are. Rows never mix, so a
trial ends exactly as it would alone. The kernel is a column kernel, one
in-place tender call per player for every row of a player-major batch,
where the family has a ``column_tender()`` (cfmm), and a scalar loop over
rows in Python floats otherwise. A trace, :func:`simulate`, plays its one
row in Python floats on the scalar kernel, which keeps every round. The
docstring of :func:`_play_batch` gives the stop reasons, the layout of the
batch and why each kernel is kept. The kernels read their rules from a
:class:`GameConfig`, whose defaults are the run defaults of every function
here.
"""

from __future__ import annotations

import functools
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

_Point = tuple[np.ndarray, np.ndarray, Union[np.ndarray, None], Union[float, None]]
_Outcome = tuple[np.ndarray, list[int], list[str]]


def _play_batch(config: GameConfig, points: Sequence[_Point]) -> list[_Outcome]:
    """Run rounds of ``config``'s game on the rows of every point, each row
    until it stops.

    A point is (X, upper, step, target): its trials as the rows of X, as
    wide as its n, their tender caps, each row's movement cap (an array
    with one entry per row, or None for no cap) and the symmetric tender
    they aim at, or None. Movement caps and targets are given for every
    point or for none. The points share everything else: ``config``'s
    family, threshold, round cap and update order (the kernels read the
    scenario only through the caps, which :func:`_caps` makes from it). A
    row stops at the first round where one of these holds, and says which:

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
    under the row's movement cap delta, [x - delta, x + delta] around the
    player's last tender x; the tender itself keeps the answer at or above
    0 (see :meth:`~prorata.payoff.PayoffFamily.tender`). Each round then
    sums every live row with numpy. A stopped row leaves, so
    rows stop independently and a row ends exactly as it would alone.

    The rule for kernels: a run plays on its family's kernel, and a trace
    plays in Python floats. Here the family alone picks one of two kernels,
    which give the same bits. With a ``column_tender()`` (cfmm) the rows of
    all points play as one batch, kept player-major, and player j of every
    live row moves in one tender call that works in place and writes its
    answer straight into the new round (see :func:`_column_play`); a run's
    points share each call because at 10 trials one point's rows are too
    few to repay numpy's cost per call, and that cost is why each move
    makes as few array calls as it can. Otherwise the points play one after
    another, each row in Python floats through ``tender()`` (see
    :func:`_scalar_play`): a search (tables, callables) has no array form,
    and power's Newton iteration, called per element of an array, is
    several times slower than its scalar loop; rows of one width but of
    several movement caps are one point, so they share each round's array
    and numpy sum (a movement-cap sweep is one point). :func:`simulate`
    calls the scalar kernel directly for its one row, whatever the family,
    since one row on the column kernel pays numpy's cost per call on every
    move; the scalar kernel alone keeps every round's profile. On a table
    family, a row total past the last knot raises :class:`DomainExceeded`
    at that round, for the first listed point whose rows leave the table.
    Returns, per point, its final rows, the rounds each played and why
    each stopped.
    """
    tender = config.family.column_tender()
    if tender is None:
        return [_scalar_play(config, *point) for point in points]
    return _column_play(config, tender, points)


def _scalar_play(
    config: GameConfig,
    X: np.ndarray,
    upper: np.ndarray,
    step: np.ndarray | None,
    target: float | None,
    history: list[np.ndarray] | None = None,
) -> _Outcome:
    """The rounds of one point, each row moved in Python floats.

    Each live row is one record: its index, its tenders as a Python float
    list, its caps, its movement cap (None for none) and its total. The
    round builds one array of the live rows: numpy sums it for the row
    totals (the bits the array would give), and ``history``, when given,
    collects it.
    """
    family = config.family
    threshold, cap = config.convergence_threshold, config.max_iterations
    sequential = config.update_order == "sequential"
    end = family.domain_max
    tender = family.tender()

    def near(row: list[float]) -> bool:
        """Every entry within the threshold of target (sup norm); a NaN is
        not, and the test stops at the first entry that is not."""
        for v in row:
            if not abs(v - target) < threshold:
                return False
        return True

    final = X.tolist()
    rounds, reasons = [cap] * len(final), ["iteration-cap"] * len(final)
    steps = [None] * len(final) if step is None else step.tolist()
    live = []
    for i, record in enumerate(zip(final, upper.tolist(), steps,
                                   X.sum(axis=1).tolist())):
        if target is not None and near(record[0]):
            rounds[i], reasons[i] = 0, "converged"
        else:
            live.append((i, *record))
    for t in range(1, cap + 1):
        if not live:
            break
        swept = []
        # before its move a player's entry is still last round's, in either
        # order; the window is [0, cap], or delta either side of it
        for _, x, caps, delta, total in live:
            out, move = [], 0.0
            if delta is None:
                for xi, up in zip(x, caps):
                    y = total - xi
                    v = tender(0.0 if y < 0.0 else y, 0.0, up)
                    if sequential:
                        total += v - xi
                    step = abs(v - xi)
                    if step > move:
                        move = step
                    out.append(v)
            else:
                for xi in x:
                    y = total - xi
                    v = tender(0.0 if y < 0.0 else y, xi - delta, xi + delta)
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
        for (i, _, caps, delta, before), (row, move), total in zip(live, swept, totals):
            final[i] = row
            if (move < threshold) if target is None else near(row):
                rounds[i], reasons[i] = t, "converged"
            elif move <= _FIXED_POINT_ULPS * math.ulp(before):
                rounds[i], reasons[i] = t, "fixed-point"
            else:
                keep.append((i, row, caps, delta, total))
        live = keep
    return np.array(final), rounds, reasons


def _column_play(
    config: GameConfig,
    tender: Callable[..., np.ndarray],
    points: Sequence[_Point],
) -> list[_Outcome]:
    """The rounds of all points as one batch, moved by the column tender.

    The live rows are sorted by width, widest first (stably), and kept
    player-major: X[j] holds player j of every live row, so the rows that
    have a player j are a prefix of it, one contiguous array, and player j
    of all of them moves in one tender call. Past its width a row holds its
    target, which the distance reads as 0. A move works in place: the
    others' totals go into one scratch array, and the tender writes its
    answer straight into the new round's X[j] (its ``out``). Each row total
    is numpy's sum over the row-major view of the row's width group: numpy
    gives a row summed in an array, or in a view of a wider one, the bits of
    the row summed alone, but not of the row summed with zeros after it,
    nor of a column of player-major X summed down. The stop tests run on
    arrays. The movement caps are one array of the live rows, which leave
    it with their rows. The column kernel does not check totals against
    ``domain_max``: no family with a column tender has a last knot.
    """
    sequential = config.update_order == "sequential"
    threshold, cap = config.convergence_threshold, config.max_iterations

    order = sorted(range(len(points)), key=lambda i: -points[i][0].shape[1])
    spans, first = [], 0
    for i in order:
        spans.append((first, first + len(points[i][0])))
        first += len(points[i][0])
    X = np.empty((points[order[0]][0].shape[1], first))
    hi = np.full(X.shape, math.inf)
    width = np.empty(first, dtype=int)
    for i, (a, b) in zip(order, spans):
        x, upper, _, target = points[i]
        n = x.shape[1]
        X[:n, a:b], X[n:, a:b], hi[:n, a:b], width[a:b] = x.T, target or 0.0, upper.T, n
    step = None if points[0][2] is None else np.concatenate(
        [points[i][2] for i in order])
    goal = None if points[0][3] is None else np.repeat(
        [points[i][3] for i in order], [b - a for a, b in spans])
    if not np.isfinite(hi).any():
        hi = None  # a cap of inf never binds, and the tender skips it
    final = np.empty((first, X.shape[0]))
    rounds, reasons = np.full(first, cap), np.zeros(first, dtype=int)
    ids = np.arange(first)  # each live row's index in final
    groups = _groups(width)
    B = _totals(X, groups)
    others = np.empty(first)  # scratch: the others' totals, then the steps

    def distance() -> np.ndarray:
        """Each row's sup-norm distance to its target, NaN at a NaN, which
        fails the threshold test as inf does."""
        return np.abs(X - goal).max(axis=0)

    def retire(t: int, converged: np.ndarray, stop: np.ndarray) -> None:
        nonlocal X, hi, step, B, goal, ids, width, groups
        done = ids[stop]
        rounds[done] = t
        reasons[done] = np.where(converged[stop], 1, 2)
        final[done] = X[:, stop].T
        keep = ~stop
        X, B, ids, width = X[:, keep], B[keep], ids[keep], width[keep]
        if hi is not None:
            hi = hi[:, keep]
        if step is not None:
            step = step[keep]
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
                # before its move X[j] is still last round's, in either order
                x, total, y = X[j, :k], running[:k], others[:k]
                np.subtract(total, x, out=y)
                # the floor at 0; numpy's maximum answers its second
                # argument on a tie and keeps a NaN, as the scalar test does
                np.maximum(0.0, y, out=y)
                if step is not None:
                    v = tender(y, x - step[:k], x + step[:k], out=new[j, :k])
                else:
                    v = tender(y, 0.0, math.inf if hi is None else hi[j, :k],
                               out=new[j, :k])
                if sequential:
                    total += np.subtract(v, x, out=y)
        # each row's largest step |v - x|; the padding does not move
        moves = np.abs(new - X).max(axis=0)
        X = new
        converged = (moves if goal is None else distance()) < threshold
        # moves <= 4 ulps of B, as math.ulp gives them: np.spacing(inf) is
        # NaN, where math.ulp(inf) is inf and every move is at or below it
        stop = converged | ~(moves > _FIXED_POINT_ULPS * np.spacing(B))
        B = _totals(X, groups)
        if stop.any():
            retire(t, converged, stop)
    final[ids] = X.T
    rounds, reasons = rounds.tolist(), [_REASONS[r] for r in reasons.tolist()]
    return [(final[a:b, :points[i][0].shape[1]], rounds[a:b], reasons[a:b])
            for i, (a, b) in sorted(zip(order, spans))]


def _groups(width: np.ndarray) -> list[tuple[int, int, int]]:
    """(first, end, width) of each run of rows of one width."""
    cuts = [0, *(np.flatnonzero(width[1:] != width[:-1]) + 1).tolist(), len(width)]
    return [(a, b, int(width[a])) for a, b in zip(cuts, cuts[1:]) if a < b]


def _totals(X: np.ndarray, groups: list[tuple[int, int, int]]) -> np.ndarray:
    """Each row total of player-major X: numpy's sum over its width group's
    view of the rows, laid out row-major first."""
    rows = X.T.copy()
    return np.concatenate([rows[a:b, :n].sum(axis=1) for a, b, n in groups])


def _caps(config: GameConfig, rows: int) -> tuple[np.ndarray, np.ndarray | None]:
    """The caps of ``rows`` trials: their tender caps, the scenario's
    budgets or none, and their movement caps, its delta or None."""
    scenario = config.scenario
    budgets = scenario.budgets if isinstance(scenario, Budgeted) else math.inf
    step = np.full(rows, float(scenario.delta)) \
        if isinstance(scenario, BoundedUpdate) else None
    return np.full((rows, config.n), budgets), step


def draw_initial_profile(
    family: PayoffFamily, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Each tender uniform on (0, w/n), the natural per-player scale."""
    n = integer("n", n, 1)
    w = diagnostics(family).root
    return rng.uniform(0.0, w / n, size=n)


# SeedSequence.generate_state's hash: step k of eight xors a pool word with
# h_k, multiplies by h_{k+1} and xors in its own top half, where h_k is
# INIT_B * MULT_B**k mod 2**32; the eight steps cycle the four-word pool
# twice and make PCG64's four 64-bit words.
_HASH_XOR, _HASH_MUL = (
    np.array([0x8B51F9DD * 0x58F38DED**k % 2**32 for k in steps],
             dtype=np.uint32).reshape(2, 4)
    for steps in (range(8), range(1, 9)))


@functools.cache
def _seeding():
    """numpy.random's seeding pieces, imported when a run first draws (an
    import with the package would raise every process's peak memory), and
    the seed sequence that hands PCG64 state words already computed."""
    from numpy.random import PCG64, Generator, SeedSequence
    from numpy.random.bit_generator import ISeedSequence

    class StateWords(ISeedSequence):
        """PCG64's four seed words, as ``generate_state(4, np.uint64)``
        would give them; PCG64 asks for nothing else."""

        __slots__ = ("words",)

        def __init__(self, words: np.ndarray) -> None:
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedSequence, StateWords, PCG64, Generator


def _trial_uniforms(keys: Sequence[Sequence[int]], counts: Sequence[int]) -> np.ndarray:
    """The bytes of ``np.random.default_rng(list(key)).random(count)`` for
    every key and its count, one after another in one array.

    The keys hold nonnegative ints. It is NumPy's algorithm, done for all
    keys at once where that is cheaper: NumPy's ``SeedSequence`` mixes
    each key's entropy, passed as its little-endian uint32 words (the words
    NumPy makes of an int list, and the same pool); the hash of
    ``SeedSequence.generate_state(4, np.uint64)``, the only state PCG64
    asks for, runs once over the pools of every key; and each key's
    ``Generator(PCG64(...))`` is seeded from its four words by NumPy, then
    draws. NEP 19 keeps both SeedSequence's output and PCG64's stream fixed
    across NumPy versions, and the tests compare with ``default_rng``
    itself. Each key has its own generator, so nothing is shared between
    calls or threads.
    """
    SeedSequence, StateWords, PCG64, Generator = _seeding()
    words, ends = [], []
    for key in keys:
        for k in key:
            words.append(k & 0xFFFFFFFF)
            while k := k >> 32:
                words.append(k & 0xFFFFFFFF)
        ends.append(len(words))
    flat = np.array(words, dtype=np.uint32)
    pools = np.array([SeedSequence(flat[a:b]).pool for a, b in zip([0, *ends], ends)],
                     dtype=np.uint32).reshape(-1, 1, 4)
    state = pools ^ _HASH_XOR
    state *= _HASH_MUL
    state ^= state >> 16
    # as NumPy orders the words: little-endian pairs, then native uint64
    state = state.reshape(-1, 8).astype("<u4", copy=False).view("<u8")
    state = state.astype(np.uint64, copy=False)
    out = np.empty(sum(counts))
    stop = 0
    for row, count in zip(state, counts):
        start, stop = stop, stop + count
        Generator(PCG64(StateWords(row))).random(out=out[start:stop])
    return out


def simulate(
    config: GameConfig,
    initial: Sequence[float] | np.ndarray | None = None,
) -> DynamicsTrace:
    """Run best-response rounds until the profile is within
    ``convergence_threshold`` of the symmetric equilibrium (sup norm), no
    longer moves, or hits the round cap. ``initial=None`` draws a uniform
    profile from the config seed. The one row plays in Python floats, on
    :func:`_scalar_play`, whatever the family."""
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
    _, _, (reason,) = _scalar_play(config, history[0], *_caps(config, 1),
                                   eq.per_player, history)
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

    Trial (n, k) draws its initial profile as
    :func:`draw_initial_profile` would from ``np.random.default_rng([seed,
    n, k])``, so any subset of the grid reproduces exactly; the run makes
    the streams of all its trials in one pass (:func:`_trial_uniforms`:
    NumPy's SeedSequence and PCG64 seeding, which NEP 19 keeps stable).
    Every point is set up and checked before any is played, and an empty
    ``n_values`` still checks ``trials`` and the run settings; then the
    trials of all n values run in lockstep, as the rows of one batch. Each
    row stops on its own, for its own reason, and ends exactly as it would
    alone.
    """
    trials = integer("trials", trials, 1)
    settings = dict(convergence_threshold=convergence_threshold,
                    max_iterations=max_iterations, seed=seed, update_order=update_order)
    setups = []
    for i, n in enumerate(n_values):
        n = integer(f"n_values[{i}]", n, 1)
        config = GameConfig(family, n, scenario, **settings)
        # the scale of numpy's uniform(0, w/n), which is w/n times its u
        scale = diagnostics(family).root / n
        setups.append((n, scale, _caps(config, trials), solve_symmetric(family, n).per_player))
    if not setups:
        GameConfig(family, 1, **settings)
        return StudyResult(records=())

    keys = [(config.seed, n, trial) for n, *_ in setups for trial in range(trials)]
    U, first, points = _trial_uniforms(keys, [n for _, n, _ in keys]), 0, []
    for n, scale, caps, target in setups:
        points.append((scale * U[first:first + trials * n].reshape(trials, n), *caps, target))
        first += trials * n
    records = []  # the points differ only in n, so the last config rules them all
    for (n, *_), (_, rounds, reasons) in zip(setups, _play_batch(config, points)):
        records.extend(StudyRecord(n, trial, played, stop)
                       for trial, (played, stop) in enumerate(zip(rounds, reasons)))
    return StudyResult(records=tuple(records))


def bounded_update_sweep(
    family: PayoffFamily,
    n: int,
    deltas: Sequence[float],
    trials: int,
    seed: int,
    convergence_threshold: float = GameConfig.convergence_threshold,
    max_iterations: int = GameConfig.max_iterations,
    update_order: str = GameConfig.update_order,
) -> tuple[StudyResult, ...]:
    """Rounds-to-convergence statistics at one n under each movement cap,
    one result per delta in the order given. Result i is, bit for bit,
    ``convergence_study(family, [n], trials, seed, BoundedUpdate(deltas[i]),
    ...)``.

    Every delta's trial k starts where that study's does, from
    ``np.random.default_rng([seed, n, k])``, so the sweep draws the
    ``trials`` starts once and every delta shares them. Everything is
    checked before any trial plays, in the order the studies one delta at a
    time meet it: ``deltas[0]``, ``trials``, n (named ``n_values[0]``, as
    the study names it), the run settings, the family's equilibrium at n,
    then the other deltas. An empty
    ``deltas`` still checks ``trials``, n and the settings, then returns
    ``()``. The trials of every delta then run in lockstep, as the rows of
    one batch, each row under its own movement cap. On a table family a
    row total past the last knot raises :class:`DomainExceeded` at the
    first round where a row of any delta leaves the table, naming the
    largest total of that round; the studies one delta at a time raise for
    the first listed delta that leaves, so the round they name can differ.
    """
    deltas = list(deltas)
    steps = [float(BoundedUpdate(delta).delta) for delta in deltas[:1]]
    trials = integer("trials", trials, 1)
    config = GameConfig(family, integer("n_values[0]", n, 1),
                        convergence_threshold=convergence_threshold,
                        max_iterations=max_iterations, seed=seed,
                        update_order=update_order)
    if not deltas:
        return ()
    n = config.n
    scale = diagnostics(family).root / n
    target = solve_symmetric(family, n).per_player
    steps += [float(BoundedUpdate(delta).delta) for delta in deltas[1:]]

    starts = _trial_uniforms([(config.seed, n, k) for k in range(trials)], [n] * trials)
    X = np.tile(scale * starts.reshape(trials, n), (len(steps), 1))
    ((_, rounds, reasons),) = _play_batch(config, [(
        X, np.full(X.shape, math.inf), np.repeat(steps, trials), target)])
    return tuple(StudyResult(records=tuple(
        StudyRecord(n, k, rounds[first + k], reasons[first + k]) for k in range(trials)))
        for first in range(0, len(X), trials))


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
    ``trials``, then the run settings, before any is played, and an empty
    ``n_fish_values`` still checks ``trials`` and the run settings. Trial k
    of a count draws from ``np.random.default_rng([seed, n_fish, k])``'s
    stream, which the run makes for all its trials in one pass
    (:func:`_trial_uniforms`: NumPy's SeedSequence and PCG64 seeding,
    which NEP 19 keeps stable). Then the trials of all counts run in
    lockstep, as the rows of one batch, each ending exactly as it would
    alone, and the run reports once: each trial's payoff in Python floats,
    then every mean and standard deviation as one reduction over the
    (counts x trials) array, row by row the bits of one count's trials.
    """
    # the run settings get the same checks as a study's
    settings = dict(convergence_threshold=convergence_threshold,
                    max_iterations=max_iterations, seed=seed)
    setups = []
    for n_fish in n_fish_values:
        n_fish, trials = integer("n_fish", n_fish, 0), integer("trials", trials, 1)
        n_total = n_fish + 1
        config = GameConfig(family, n_total, **settings)
        eq = solve_symmetric(family, n_total)
        fair_payoff = eq.positive_payoff()  # the percentage columns divide by it
        setups.append((n_fish, eq.per_player, fair_payoff, diagnostics(family).root / n_total))
    if not setups:
        integer("trials", trials, 1)
        GameConfig(family, 1, **settings)
        return ()

    # one draw of 2*n_fish + 1 doubles u per trial: the fish budgets, the
    # whale start, the fish starts; each value is its upper end times u,
    # the bits of numpy's uniform(0, upper)
    keys = [(config.seed, n_fish, trial) for n_fish, *_ in setups for trial in range(trials)]
    U, first, points = _trial_uniforms(keys, [2 * n_fish + 1 for _, n_fish, _ in keys]), 0, []
    for n_fish, fair_strategy, _, scale in setups:
        size = trials * (2 * n_fish + 1)
        u = U[first:first + size].reshape(trials, 2 * n_fish + 1)
        first += size
        budgets = fair_strategy * u[:, :n_fish]
        upper = np.hstack((np.full((trials, 1), math.inf), budgets))
        X = np.hstack((scale * u[:, n_fish:n_fish + 1], budgets * u[:, n_fish + 1:]))
        points.append((X, upper, None, None))

    # the counts differ only in n, so the last config rules them all; every
    # count has ``trials`` rows, so each figure is one reduction over a
    # (counts x trials) array, row by row the bits of one count's trials
    plays = _play_batch(config, points)
    strategies = np.array([final[:, 0] for final, _, _ in plays])
    # each trial's payoff in Python floats, as the family's scalar value
    # gives it, against its fish total summed as the row alone
    profits = np.array([
        [pro_rata_payoff(family, whale, fish) for whale, fish in zip(
            final[:, 0].tolist(), final[:, 1:].sum(axis=1).tolist())]
        for final, _, _ in plays])
    fair_strategies = np.array([[fair_strategy] for _, fair_strategy, _, _ in setups])
    fair_payoffs = np.array([[fair_payoff] for _, _, fair_payoff, _ in setups])
    pct_strategy = 100.0 * (strategies - fair_strategies) / fair_strategies
    pct_profit = 100.0 * (profits - fair_payoffs) / fair_payoffs
    figures = zip(*(column.tolist() for column in (
        strategies.mean(axis=1), profits.mean(axis=1),
        pct_strategy.mean(axis=1), pct_profit.mean(axis=1),
        pct_strategy.std(axis=1), pct_profit.std(axis=1))))
    return tuple(
        WhaleFishReport(n_fish, trials, fair_strategy, fair_payoff, *figure,
                        converged_trials=reasons.count("converged"),
                        # every fish at its budget
                        fish_saturated_trials=int(np.count_nonzero(
                            (final[:, 1:] == upper[:, 1:]).all(axis=1))))
        for (n_fish, fair_strategy, fair_payoff, _), (_, upper, *_),
            (final, _, reasons), figure in zip(setups, points, plays, figures))
