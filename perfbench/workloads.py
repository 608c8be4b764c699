"""The three benchmark workloads.

A workload turns its seed into a fixed list of *passes*: the inputs of a
few seconds of work each, made before anything is timed. ``run`` executes
one pass and returns its raw outputs; ``check`` judges them afterwards,
outside the timed region, and counts the ops that failed. Checks test
properties that stay true when the program gets more precise (agreement
between routes, conservation, bounds against a grid), never byte digests.

Library calls go through module attributes looked up at call time, so the
traced run sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import prorata
import prorata.cli

from oracle import correct_digits, cfmm_total, power_half_total

REFERENCE_POWER = {"beta": 0.5, "gamma": 0.05}
REFERENCE_CFMM = {"gamma": 0.99, "r1": 200.0, "r2": 250.0, "c": 1.0}
NEAR_BOUNDARY_C = 0.99 * 250.0 / 200.0 * (1.0 - 1e-12)
N_VALUES = range(1, 51)
ITERATION_CAP = 2000          # the CLI's default round cap
AGREE_RTOL = 1e-9             # closed against numeric equilibrium
GRID_POINTS = 4001            # dense grid a best response must not lose to
GRID_RTOL = 1e-9              # ... by more than this, relative
# On a 41-knot table the optimum sits at a kink, which the solvers miss by
# about 1e-6 relative today (a known accuracy defect); the check is there to
# catch wrong answers, so table results get this tolerance.
TABLE_GRID_RTOL = 1e-6


def _pass_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


@dataclass
class Facts:
    """What a pass's outputs say about the dynamics it ran."""

    study_trials: int = 0
    study_rounds: int = 0
    study_converged: int = 0
    whale_trials: int = 0
    whale_converged: int = 0

    def add(self, other: "Facts") -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, getattr(self, name) + getattr(other, name))


@dataclass
class Checked:
    failed: int
    facts: Facts = field(default_factory=Facts)
    problems: list[str] = field(default_factory=list)


# ------------------------------------------------------------- CLI studies


def _run_cli(argv: list[str]):
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = prorata.cli.main(argv)
    except Exception as exc:  # reported by the check as failed ops
        return exc.with_traceback(None)
    return code, buf.getvalue()


def _cli_rows(result, header: list[str], problems: list[str], argv):
    if isinstance(result, Exception):
        problems.append(f"{argv}: raised {result!r}")
        return None
    code, text = result
    if code != 0:
        problems.append(f"{argv}: exit code {code}")
        return None
    reader = csv.reader(io.StringIO(text))
    if next(reader, None) != header:
        problems.append(f"{argv}: unexpected header")
        return None
    return list(reader)


def _study_record(row, keys: list[float], trials: int, facts: Facts) -> str | None:
    """Check one ``key,trial,iterations,converged`` row; None when sound."""
    if len(row) != 4:
        return f"row {row} has {len(row)} fields"
    key, trial, iterations, converged = row
    try:
        known = float(key) in keys
    except ValueError:
        known = False
    if not known:
        return f"row {row}: unexpected key"
    if not trial.isdigit() or int(trial) >= trials:
        return f"row {row}: bad trial index"
    if converged not in ("true", "false"):
        return f"row {row}: bad converged flag"
    if (converged == "true") != (iterations != ""):
        return f"row {row}: converged must hold exactly when iterations is set"
    if iterations and not (iterations.isdigit() and int(iterations) <= ITERATION_CAP):
        return f"row {row}: bad iteration count"
    facts.study_trials += 1
    facts.study_rounds += int(iterations) if iterations else ITERATION_CAP
    facts.study_converged += converged == "true"
    return None


def _check_study(result, argv, header, keys, trials, out: Checked) -> None:
    expected = len(keys) * trials
    rows = _cli_rows(result, header, out.problems, argv)
    if rows is None:
        out.failed += expected
        return
    seen = set()
    for row in rows:
        problem = _study_record(row, keys, trials, out.facts)
        if problem is None and (row[0], row[1]) in seen:
            problem = f"row {row}: duplicate record"
        if problem is not None:
            out.problems.append(problem)
            out.failed += 1
        seen.add((row[0], row[1]))
    # records that never came out count as failed ops too
    out.failed += max(0, expected - len(rows))


WHALE_HEADER = [
    "n_fish", "trials", "whale_strategy", "whale_profit",
    "pct_strategy_increase", "pct_strategy_increase_std",
    "pct_profit_increase", "pct_profit_increase_std",
    "converged_trials", "fish_saturated_trials",
]


def _whale_row(row, n_fish: int, trials: int) -> str | None:
    if len(row) != len(WHALE_HEADER):
        return f"whale row {row}: {len(row)} fields"
    try:
        values = [float(v) for v in row]
    except ValueError:
        return f"whale row {row}: not numeric"
    if not all(math.isfinite(v) for v in values):
        return f"whale row {row}: not finite"
    rec = dict(zip(WHALE_HEADER, values))
    if rec["n_fish"] != n_fish or rec["trials"] != trials:
        return f"whale row {row}: expected n_fish={n_fish}, trials={trials}"
    if not rec["whale_strategy"] > 0.0:
        return f"whale row {row}: whale tenders nothing"
    if not rec["pct_profit_increase"] > 0.0:
        return f"whale row {row}: the whale must profit over the fair share"
    for key in ("converged_trials", "fish_saturated_trials"):
        if not (rec[key].is_integer() and 0 <= rec[key] <= trials):
            return f"whale row {row}: bad {key}"
    return None


def _check_whale(result, argv, fish: list[int], trials: int, out: Checked) -> None:
    rows = _cli_rows(result, WHALE_HEADER, out.problems, argv)
    if rows is None:
        out.failed += len(fish) * trials
        return
    for i, n_fish in enumerate(fish):
        problem = _whale_row(rows[i], n_fish, trials) if i < len(rows) else (
            f"whale row for n_fish={n_fish} missing")
        if problem is not None:
            out.problems.append(problem)
            out.failed += trials
            continue
        out.facts.whale_trials += trials
        out.facts.whale_converged += int(float(rows[i][8]))
    if len(rows) > len(fish):
        out.problems.append(f"{argv}: {len(rows) - len(fish)} extra whale rows")


class StudyPower:
    """``prorata reproduce scenario2-delta`` at reduced trials: power
    beta=0.5 gamma=0.05, n=10, bounded updates with delta in
    {0.5, 1, 2, 5, 10}. One op is one trial."""

    name = "study-power"
    HEADER = ["delta", "trial", "iterations", "converged"]
    DELTAS = [0.5, 1.0, 2.0, 5.0, 10.0]

    def __init__(self, seed: int, tiny: bool = False):
        self.trials = 1 if tiny else 2
        self.seeds = _pass_seeds(seed, 1 if tiny else 60)
        self.passes = len(self.seeds)
        self.traced_passes = 1 if tiny else 4

    def _argv(self, index: int) -> list[str]:
        return ["reproduce", "scenario2-delta", "--trials", str(self.trials),
                "--seed", str(self.seeds[index])]

    def warm_up(self) -> None:
        # imports the CLI paths and fills the diagnostics cache
        _run_cli(["reproduce", "scenario2-delta", "--trials", "1",
                  "--deltas", "10"])

    def ops(self, index: int) -> int:
        return len(self.DELTAS) * self.trials

    def run(self, index: int):
        return _run_cli(self._argv(index))

    def check(self, index: int, result) -> Checked:
        out = Checked(failed=0)
        _check_study(result, self._argv(index), self.HEADER, self.DELTAS,
                     self.trials, out)
        return out


class StudyCfmm:
    """``prorata reproduce scenario1`` (cfmm reference, n=2..16) followed by
    ``prorata reproduce whale`` (1..20 fish). One op is one trial; a whale
    row of T trials counts as T ops."""

    name = "study-cfmm"
    HEADER = ["n", "trial", "iterations", "converged"]
    N_VALUES = [float(n) for n in range(2, 17)]
    FISH = list(range(1, 21))

    def __init__(self, seed: int, tiny: bool = False):
        self.trials = 1 if tiny else 10
        self.seeds = _pass_seeds(seed, 1 if tiny else 120)
        self.passes = len(self.seeds)
        self.traced_passes = 1 if tiny else 16

    def _argvs(self, index: int):
        tail = ["--trials", str(self.trials), "--seed", str(self.seeds[index])]
        return (["reproduce", "scenario1", *tail], ["reproduce", "whale", *tail])

    def warm_up(self) -> None:
        _run_cli(["reproduce", "scenario1", "--trials", "1", "--n-values", "2"])
        _run_cli(["reproduce", "whale", "--trials", "1", "--n-values", "1"])

    def ops(self, index: int) -> int:
        return (len(self.N_VALUES) + len(self.FISH)) * self.trials

    def run(self, index: int):
        return [_run_cli(argv) for argv in self._argvs(index)]

    def check(self, index: int, result) -> Checked:
        out = Checked(failed=0)
        study_argv, whale_argv = self._argvs(index)
        _check_study(result[0], study_argv, self.HEADER, self.N_VALUES,
                     self.trials, out)
        _check_whale(result[1], whale_argv, self.FISH, self.trials, out)
        return out


# ---------------------------------------------------------------- one-shot


@dataclass(frozen=True)
class Op:
    group: str
    fn: str                      # attribute of the ``prorata`` package
    args: tuple
    kwargs: dict
    check: Callable | None       # (result, all results) -> problem or None
    expect: type | None = None   # the typed error the call must raise


def _grid_max(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(np.max(finite)) if finite.size else -math.inf


def _not_below_grid(value: float, grid_best: float, family) -> bool:
    rtol = TABLE_GRID_RTOL if isinstance(family, prorata.TabulatedPayoff) \
        else GRID_RTOL
    return value >= grid_best - rtol * max(1.0, abs(grid_best))


def _check_equilibrium(n: int, pair_index: int | None):
    def check(res, results):
        if not (math.isfinite(res.q) and res.q > 0.0):
            return f"q={res.q!r} is not positive"
        if abs(res.per_player * n - res.q) > 1e-12 * res.q:
            return "per_player is not q/n"
        if pair_index is not None:
            closed = results[pair_index]
            if isinstance(closed, Exception):
                return None  # already counted against the closed op
            if abs(res.q - closed.q) > AGREE_RTOL * closed.q:
                return f"numeric q={res.q!r} disagrees with closed {closed.q!r}"
        return None
    return check


def _check_poa(family, n: int):
    closed = None
    if isinstance(family, prorata.PowerPayoff):
        b = family.beta
        closed = n * (b * n / (n + b - 1.0)) ** (b / (1.0 - b))

    def check(rep, results):
        if not rep.poa >= 1.0 - 1e-12:
            return f"poa={rep.poa!r} below 1"
        if not rep.fair_payoff >= rep.eq_payoff * (1.0 - 1e-12):
            return "coordination pays less than equilibrium"
        if closed is not None and abs(rep.poa - closed) > 1e-9 * closed:
            return f"poa={rep.poa!r} against closed form {closed!r}"
        return None
    return check


def _check_best_response(family, y: float, root: float):
    def check(res, results):
        hi = root
        if isinstance(family, prorata.TabulatedPayoff):
            hi = min(hi, family.domain_max - y)
        if not 0.0 <= res.x <= hi * (1.0 + 1e-12):
            return f"x={res.x!r} outside [0, {hi!r}]"
        again = prorata.pro_rata_payoff(family, res.x, y)
        if abs(again - res.achieved_payoff) > 1e-12 * max(1.0, abs(again)):
            return "achieved payoff does not match the payoff at x"
        grid = np.linspace(0.0, hi, GRID_POINTS)
        best = _grid_max(prorata.pro_rata_payoff(family, grid, y))
        if not _not_below_grid(res.achieved_payoff, best, family):
            return f"payoff {res.achieved_payoff!r} loses to grid {best!r}"
        return None
    return check


def _check_table_equilibrium(family, n: int, root: float):
    def log_objective(q):
        with np.errstate(divide="ignore", invalid="ignore"):
            return (n - 1) * np.log(q) + np.log(family.value(q))

    def check(res, results):
        if not 0.0 < res.q < root:
            return f"q={res.q!r} outside (0, {root!r})"
        grid = np.linspace(root * 1e-6, root, GRID_POINTS)[:-1]
        best = _grid_max(log_objective(grid))
        if not _not_below_grid(float(log_objective(res.q)), best, family):
            return f"objective at q={res.q!r} loses to grid {best!r}"
        return None
    return check


def _check_clear(instance):
    deltas = instance.deltas
    net = math.fsum(deltas)
    positive = deltas > 0.0

    def check(out, results):
        res = out.residuals
        if res.shape != deltas.shape or np.any(res < 0.0):
            return "residuals must be nonnegative, one per trader"
        if np.any(res[~positive] != 0.0):
            return "buyers must carry residual 0"
        if abs(math.fsum(res) - net) > 1e-12 * net:
            return "residuals do not sum to the net demand"
        if abs(out.pool_input - net) > 1e-12 * net:
            return "pool input is not the net demand"
        scale = res[positive] / deltas[positive]
        if np.ptp(scale) > 1e-12 * net / math.fsum(deltas[positive]):
            return "sellers are not filled pro rata"
        if abs(math.fsum(out.per_trader_b) - out.pool_output) > 1e-12 * out.pool_output:
            return "B received does not sum to the pool output"
        share = out.per_trader_b[positive] / res[positive]
        if np.ptp(share) > 1e-12 * float(np.max(share)):
            return "B is not split in proportion to residuals"
        if np.any(out.per_trader_b[~positive] != 0.0):
            return "buyers must receive no B"
        return None
    return check


def _check_condition(holds: bool):
    def check(rep, results):
        if rep.holds is not holds:
            return f"{rep.condition} holds={rep.holds}, expected {holds}"
        # a clean verdict has no witnesses, a violation at least one
        clean = rep.holds if rep.condition == prorata.CHORD_STRICT else not rep.holds
        if clean == bool(rep.witness):
            return f"{rep.condition} verdict disagrees with its witnesses"
        return None
    return check


class OneShot:
    """A seeded mix of single library calls, in five groups of roughly
    equal time: equilibria, PoA curves, best responses (41-knot table,
    power, cfmm), batch clearing and side-condition checks. One op is one
    library call."""

    name = "one-shot"

    def __init__(self, seed: int, tiny: bool = False):
        rng = np.random.default_rng([seed, 0x51])
        self.reference = [prorata.PowerPayoff(**REFERENCE_POWER),
                          prorata.CfmmArbitragePayoff(**REFERENCE_CFMM)]
        self.near_boundary = prorata.CfmmArbitragePayoff(
            **{**REFERENCE_CFMM, "c": NEAR_BOUNDARY_C})
        k = 2 if tiny else 12
        self.powers = [prorata.PowerPayoff(float(rng.uniform(0.2, 0.8)),
                                     float(rng.uniform(0.02, 0.2)))
                       for _ in range(k)]
        self.cfmms = []
        for _ in range(k):
            g, r1, r2 = (float(v) for v in (rng.uniform(0.97, 1.0),
                                            rng.uniform(100.0, 400.0),
                                            rng.uniform(100.0, 400.0)))
            c = float(rng.uniform(0.3, 0.9)) * g * r2 / r1
            self.cfmms.append(prorata.CfmmArbitragePayoff(g, r1, r2, c))
        self.table = self._table(rng)
        self.pools = [prorata.ForwardExchange(0.99, 200.0, 250.0),
                      prorata.ForwardExchange(float(rng.uniform(0.97, 1.0)),
                                        float(rng.uniform(100.0, 400.0)),
                                        float(rng.uniform(100.0, 400.0)))]
        self.tiny = tiny
        count = 1 if tiny else 4
        self.pass_ops = [self._make_pass(np.random.default_rng([seed, i]))
                         for i in range(count)]
        self.passes = count
        self.traced_passes = 1 if tiny else 2

    @staticmethod
    def _table(rng):
        beta = float(rng.uniform(0.3, 0.7))
        gamma = float(rng.uniform(0.02, 0.1))
        root = (1.0 / gamma) ** (1.0 / (1.0 - beta))
        # twice the root, so the table's end never caps a best response;
        # see README.md on the defect the capped case shows
        ts = np.linspace(0.0, 2.0 * root, 41)
        return prorata.TabulatedPayoff(tuple(ts), tuple(ts**beta - gamma * ts))

    def _root(self, family) -> float:
        # the positive root of f, from the library's own diagnostics
        return prorata.diagnostics(family).root

    def _make_pass(self, rng) -> list[Op]:
        tiny = self.tiny
        ops: list[Op] = []
        n_values = range(1, 6) if tiny else N_VALUES

        def add(group, fn, args, check, expect=None, **kwargs):
            ops.append(Op(group, fn, args, kwargs, check, expect))

        eq_families = self.reference + [self.near_boundary] + \
            self.powers[:2] + self.cfmms[:2]
        for fam in eq_families:
            well = fam is not self.near_boundary
            for n in n_values:
                add("equilibrium", "solve_symmetric", (fam, n, "closed"),
                    _check_equilibrium(n, None))
                add("equilibrium", "solve_symmetric", (fam, n, "numeric"),
                    _check_equilibrium(n, len(ops) - 1 if well else None))

        poa_n = range(1, 6) if tiny else range(1, 121)
        for fam in self.reference + self.powers + self.cfmms:
            for n in poa_n:
                add("poa", "poa", (fam, n), _check_poa(fam, n))

        table_root = self._root(self.table)
        y_max = 0.9 * (self.table.domain_max - table_root)
        for y in rng.uniform(0.0, y_max, 2 if tiny else 10):
            add("best-response", "best_response", (self.table, float(y)),
                _check_best_response(self.table, float(y), table_root))
        for n in rng.choice(np.arange(1, 51), 2 if tiny else 8, replace=False):
            add("best-response", "solve_symmetric", (self.table, int(n), "numeric"),
                _check_table_equilibrium(self.table, int(n), table_root))
        for fam in self.reference + self.powers[:2] + self.cfmms[:2]:
            root = self._root(fam)
            for y in rng.uniform(0.0, 0.8 * root, 2 if tiny else 30):
                add("best-response", "best_response", (fam, float(y)),
                    _check_best_response(fam, float(y), root))

        max_traders = prorata.batch.MAX_TRADERS
        sizes = [max_traders] * (1 if tiny else 10) + \
            [int(s) for s in rng.integers(1, max_traders, 1 if tiny else 6)]
        for i, size in enumerate(sizes):
            pool = self.pools[i % len(self.pools)]
            deltas = rng.normal(0.4, 1.0, size) * float(rng.uniform(0.1, 10.0))
            if i == len(sizes) - 1:
                deltas = np.abs(deltas)  # nothing nets: residuals are the deltas
            if math.fsum(deltas) <= 0.0:
                deltas = -deltas
            inst = prorata.BatchInstance(deltas=deltas, pool=pool)
            add("clear", "clear", (inst,), _check_clear(inst))
        for i in range(1 if tiny else 3):
            deltas = -np.abs(rng.normal(0.0, 1.0, max_traders)) if i == 0 \
                else rng.normal(-0.4, 1.0, max_traders)
            if math.fsum(deltas) > 0.0:
                deltas = -deltas
            inst = prorata.BatchInstance(deltas=deltas, pool=self.pools[0])
            add("clear", "clear", (inst,), None, expect=prorata.NonPositiveNetDemand)

        smooth = self.reference + self.powers[:7] + self.cfmms[:7]
        for fam in smooth if not tiny else self.reference:
            seed = int(rng.integers(2**31))
            add("verify", "check_chord_condition", (fam,), _check_condition(True),
                seed=seed)
            add("verify", "detect_linear_segment_at_zero", (fam,),
                _check_condition(False), seed=seed)
        seed = int(rng.integers(2**31))
        add("verify", "check_chord_condition", (self.table,), _check_condition(False),
            seed=seed)
        add("verify", "detect_linear_segment_at_zero", (self.table,),
            _check_condition(True), seed=seed)
        return ops

    def warm_up(self) -> None:
        # fills the diagnostics cache for every family the passes use
        for fam in self.reference + [self.near_boundary, self.table] + \
                self.powers + self.cfmms:
            prorata.solve_symmetric(fam, 2, "numeric")

    def ops(self, index: int) -> int:
        return len(self.pass_ops[index])

    def run(self, index: int) -> list:
        fns = {name: getattr(prorata, name) for name in
               {op.fn for op in self.pass_ops[index]}}
        results = []
        for op in self.pass_ops[index]:
            try:
                results.append(fns[op.fn](*op.args, **op.kwargs))
            except Exception as exc:  # judged by the op's check
                # without its traceback, which would tie this frame and
                # the whole pass's results into a cycle until the next gc
                results.append(exc.with_traceback(None))
        return results

    def check(self, index: int, results: list) -> Checked:
        out = Checked(failed=0)
        for op, res in zip(self.pass_ops[index], results):
            if op.expect is not None:
                problem = None if isinstance(res, op.expect) else \
                    f"expected {op.expect.__name__}, got {res!r}"
            elif isinstance(res, Exception):
                problem = f"raised {res!r}"
            else:
                try:
                    problem = op.check(res, results)
                except Exception as exc:  # a malformed result
                    problem = f"check failed on {res!r}: {exc!r}"
            if problem is not None:
                out.failed += 1
                out.problems.append(f"{op.group} {op.fn}: {problem}")
        out.failed += max(0, len(self.pass_ops[index]) - len(results))
        return out


WORKLOADS = {cls.name: cls for cls in (StudyPower, StudyCfmm, OneShot)}


def reference_accuracy() -> dict[str, float]:
    """Correct digits of the equilibrium total against the 50-digit oracle.

    ``min_correct_digits`` is the minimum over the well-conditioned solves
    (both reference families, both routes, n = 1..50);
    ``near_boundary_digits`` the minimum of the default route on the cfmm
    family one part in 1e12 inside its no-arbitrage boundary.
    """
    solve = prorata.solve_symmetric
    power = prorata.PowerPayoff(**REFERENCE_POWER)
    cfmm = prorata.CfmmArbitragePayoff(**REFERENCE_CFMM)
    near = prorata.CfmmArbitragePayoff(**{**REFERENCE_CFMM, "c": NEAR_BOUNDARY_C})
    cf = REFERENCE_CFMM
    well = []
    for n in N_VALUES:
        exact_power = power_half_total(power.gamma, n)
        exact_cfmm = cfmm_total(cf["gamma"], cf["r1"], cf["r2"], cf["c"], n)
        for method in ("closed", "numeric"):
            well.append(correct_digits(solve(power, n, method).q, exact_power))
            well.append(correct_digits(solve(cfmm, n, method).q, exact_cfmm))
    near_digits = [
        correct_digits(solve(near, n).q,
                       cfmm_total(cf["gamma"], cf["r1"], cf["r2"], NEAR_BOUNDARY_C, n))
        for n in N_VALUES
    ]
    return {"min_correct_digits": min(well), "near_boundary_digits": min(near_digits)}
