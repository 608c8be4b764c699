"""Command-line front end.

Every command reads a payoff family from flags (or a JSON config), runs
one of the library routines, and writes rows as CSV or an aligned text
table. Errors come out as a single machine-parsable line on stderr with
exit code 2 (bad input), 3 (no equilibrium / no root exists), or
4 (numeric failure at runtime).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from typing import Sequence

import numpy as np

from .analysis import poa, poa_growth_check
from .batch import BatchInstance, ForwardExchange, clear
from .dynamics import (
    BoundedUpdate,
    Budgeted,
    GameConfig,
    Unconstrained,
    convergence_study,
    draw_initial_profile,
    simulate,
    whale_fish_experiment,
)
from .equilibrium import SOLVE_METHODS, best_response, solve_symmetric
from .errors import (
    ConfigError,
    DomainExceeded,
    NoEquilibrium,
    NoFiniteRoot,
    NonPositiveNetDemand,
    NoPositiveRegion,
    ProRataError,
)
from .payoff import family_from_dict
from .verify import (
    check_chord_condition,
    detect_linear_segment_at_zero,
    rosen_probe,
)

# Reference parameter sets used by the `reproduce` figures.
REFERENCE_CFMM = {"kind": "cfmm", "gamma": 0.99, "r1": 200.0, "r2": 250.0, "c": 1.0}
REFERENCE_POWER = {"kind": "power", "beta": 0.5, "gamma": 0.05}

FIGURES = ("scenario1", "scenario2-delta", "whale", "poa-curve")

_CONFIG_KEYS = {
    "equilibrium": {"family", "n", "method"},
    "bestresponse": {"family", "y", "budget"},
    "simulate": {
        "family", "n", "trials", "seed", "threshold", "max_iterations",
        "update_order", "scenario", "delta", "budgets",
    },
    "study": {
        "family", "n_values", "trials", "seed", "threshold", "max_iterations",
        "update_order", "scenario", "delta", "budgets",
    },
    "whale": {"family", "n_fish_values", "trials", "seed", "threshold",
              "max_iterations"},
    "poa": {"family", "n_values", "n0"},
    "batch": {"deltas", "gamma", "r1", "r2", "input"},
    "verify": {"family", "conditions", "samples", "seed", "rosen_n", "domain_hi"},
}


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in str(text).split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}: {exc}") from exc


def _parse_int_values(text) -> list[int]:
    """Comma list with inclusive a:b ranges, e.g. '1,4:8,16'."""
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    out: list[int] = []
    for part in str(text).split(","):
        part = part.strip()
        if not part:
            continue
        try:
            if ":" in part:
                a, b = part.split(":")
                lo, hi = int(a), int(b)
                if hi < lo:
                    raise ValueError(f"empty range {part}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(int(part))
        except ValueError as exc:
            raise ConfigError(f"bad integer list {text!r}: {exc}") from exc
    if not out:
        raise ConfigError(f"no values in {text!r}")
    return out


def _load_config(path: str | None, command: str) -> dict:
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    allowed = _CONFIG_KEYS[command] | {"output", "format"}
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    return cfg


def _resolve(args, config: dict, name: str, default):
    value = getattr(args, name, None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _resolve_family(args, config: dict):
    kind = getattr(args, "family", None)
    if kind is None:
        if "family" in config:
            spec = config["family"]
            if not isinstance(spec, dict):
                raise ConfigError("config 'family' must be an object")
            return family_from_dict(spec)
        raise ConfigError("no payoff family given (use --family or a config file)")
    spec: dict = {"kind": kind}
    if kind == "power":
        for key in ("beta", "gamma"):
            val = getattr(args, key, None)
            if val is None:
                raise ConfigError(f"--{key} is required for --family power")
            spec[key] = val
    elif kind == "cfmm":
        for key, flag in (("gamma", "gamma"), ("r1", "r1"), ("r2", "r2"),
                          ("c", "price")):
            val = getattr(args, flag, None)
            if val is None:
                raise ConfigError(f"--{flag} is required for --family cfmm")
            spec[key] = val
    else:  # table
        ts, fs = getattr(args, "ts", None), getattr(args, "fs", None)
        if ts is None or fs is None:
            raise ConfigError("--ts and --fs are required for --family table")
        spec["ts"], spec["fs"] = _parse_floats(ts), _parse_floats(fs)
    return family_from_dict(spec)


def _resolve_scenario(args, config: dict, n: int):
    name = _resolve(args, config, "scenario", "unconstrained")
    if name == "unconstrained":
        return Unconstrained()
    if name == "bounded":
        delta = _resolve(args, config, "delta", None)
        if delta is None:
            raise ConfigError("scenario 'bounded' needs --delta")
        return BoundedUpdate(delta=float(delta))
    if name == "budgeted":
        budgets = _resolve(args, config, "budgets", None)
        if budgets is None:
            raise ConfigError("scenario 'budgeted' needs --budgets")
        if isinstance(budgets, str):
            budgets = _parse_floats(budgets)
        budgets = [float(b) for b in budgets]
        if len(budgets) == 1:
            budgets = budgets * n
        if len(budgets) != n:
            raise ConfigError(f"need 1 or {n} budgets, got {len(budgets)}")
        return Budgeted(budgets=tuple(budgets))
    raise ConfigError(f"unknown scenario {name!r}")


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _emit(columns: Sequence[str], rows: Sequence[Sequence], fmt: str,
          path: str | None) -> None:
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        text = buf.getvalue()
    else:
        cells = [list(columns)] + [[_cell(v) for v in row] for row in rows]
        widths = [max(len(r[j]) for r in cells) for j in range(len(columns))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in cells
        ]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _io_args(args, config) -> tuple[str, str | None]:
    path = _resolve(args, config, "output", None)
    fmt = _resolve(args, config, "format", None)
    if fmt is None:
        fmt = "csv" if path is not None else "table"
    if fmt not in ("csv", "table"):
        raise ConfigError(f"unknown format {fmt!r}")
    return fmt, path


# ---------------------------------------------------------------- commands


def _cmd_equilibrium(args) -> int:
    config = _load_config(args.config, "equilibrium")
    family = _resolve_family(args, config)
    n = int(_resolve(args, config, "n", 2))
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    method = str(_resolve(args, config, "method", "auto"))
    if method not in SOLVE_METHODS:
        raise ConfigError(f"method must be one of {SOLVE_METHODS}")
    res = solve_symmetric(family, n, method=method)
    fmt, path = _io_args(args, config)
    _emit(
        ["n", "q", "per_player", "eq_payoff", "foc_residual", "method"],
        [[res.n, res.q, res.per_player, res.equilibrium_payoff,
          res.foc_residual, res.method]],
        fmt, path,
    )
    return 0


def _cmd_bestresponse(args) -> int:
    config = _load_config(args.config, "bestresponse")
    family = _resolve_family(args, config)
    y = float(_resolve(args, config, "y", 0.0))
    budget = float(_resolve(args, config, "budget", math.inf))
    res = best_response(family, y, budget=budget)
    fmt, path = _io_args(args, config)
    _emit(
        ["y", "budget", "x", "payoff", "boundary"],
        [[y, budget, res.x, res.achieved_payoff, res.at_boundary]],
        fmt, path,
    )
    return 0


def _cmd_simulate(args) -> int:
    config = _load_config(args.config, "simulate")
    family = _resolve_family(args, config)
    n = int(_resolve(args, config, "n", 2))
    trials = int(_resolve(args, config, "trials", 1))
    seed = int(_resolve(args, config, "seed", 0))
    game = GameConfig(
        family=family,
        n=n,
        scenario=_resolve_scenario(args, config, n),
        convergence_threshold=float(_resolve(args, config, "threshold", 0.1)),
        max_iterations=int(_resolve(args, config, "max_iterations", 2000)),
        seed=seed,
        update_order=str(_resolve(args, config, "update_order", "sequential")),
    )
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([seed, trial])
        trace = simulate(game, initial=draw_initial_profile(family, n, rng))
        for it, profile in enumerate(trace.profiles):
            payoffs = profile.payoffs(family)
            for player in range(n):
                rows.append(
                    [trial, it, player, float(profile.actions[player]),
                     float(payoffs[player])]
                )
    fmt, path = _io_args(args, config)
    _emit(["trial", "iteration", "player", "strategy", "payoff"], rows, fmt, path)
    return 0


def _cmd_study(args) -> int:
    config = _load_config(args.config, "study")
    family = _resolve_family(args, config)
    n_values = _parse_int_values(_resolve(args, config, "n_values", "2:16"))
    scenario = _resolve_scenario(args, config, n_values[0])
    if isinstance(scenario, Budgeted) and len(set(n_values)) > 1:
        raise ConfigError("a budgeted study needs a single n value")
    result = convergence_study(
        family,
        n_values,
        trials=int(_resolve(args, config, "trials", 100)),
        seed=int(_resolve(args, config, "seed", 0)),
        scenario=scenario,
        convergence_threshold=float(_resolve(args, config, "threshold", 0.1)),
        max_iterations=int(_resolve(args, config, "max_iterations", 2000)),
        update_order=str(_resolve(args, config, "update_order", "sequential")),
    )
    rows = [[r.n, r.trial, r.iterations, r.converged] for r in result.records]
    fmt, path = _io_args(args, config)
    _emit(["n", "trial", "iterations", "converged"], rows, fmt, path)
    if fmt == "table":
        means = result.mean_iterations()
        sys.stdout.write("\nmean iterations to converge:\n")
        for n, mean in means.items():
            sys.stdout.write(f"  n={n}: {mean:.2f}\n")
    return 0


def _cmd_whale(args) -> int:
    config = _load_config(args.config, "whale")
    family = _resolve_family(args, config)
    n_fish_values = _parse_int_values(_resolve(args, config, "n_fish_values", "1:20"))
    rows = []
    for n_fish in n_fish_values:
        rep = whale_fish_experiment(
            family,
            n_fish,
            trials=int(_resolve(args, config, "trials", 100)),
            seed=int(_resolve(args, config, "seed", 0)),
            convergence_threshold=float(_resolve(args, config, "threshold", 0.1)),
            max_iterations=int(_resolve(args, config, "max_iterations", 2000)),
        )
        rows.append([
            rep.n_fish, rep.trials, rep.whale_strategy, rep.whale_profit,
            rep.pct_strategy_increase, rep.pct_strategy_std,
            rep.pct_profit_increase, rep.pct_profit_std,
            rep.converged_trials, rep.fish_saturated_trials,
        ])
    fmt, path = _io_args(args, config)
    _emit(
        ["n_fish", "trials", "whale_strategy", "whale_profit",
         "pct_strategy_increase", "pct_strategy_increase_std",
         "pct_profit_increase", "pct_profit_increase_std",
         "converged_trials", "fish_saturated_trials"],
        rows, fmt, path,
    )
    return 0


def _cmd_poa(args) -> int:
    config = _load_config(args.config, "poa")
    family = _resolve_family(args, config)
    n_values = _parse_int_values(_resolve(args, config, "n_values", "1:50"))
    result = poa_growth_check(
        family, n_values, n0=int(_resolve(args, config, "n0", 10))
    )
    rows = [[r.n, r.eq_payoff, r.fair_payoff, r.poa] for r in result.reports]
    fmt, path = _io_args(args, config)
    _emit(["n", "eq_payoff", "fair_payoff", "poa"], rows, fmt, path)
    if fmt == "table":
        sys.stdout.write(
            f"\nnondecreasing={str(result.nondecreasing).lower()} "
            f"poa(n)/n floor for n>={result.n0}: {result.ratio_floor!r}\n"
        )
    return 0


def _cmd_batch(args) -> int:
    config = _load_config(args.config, "batch")
    gamma = _resolve(args, config, "gamma", None)
    r1 = _resolve(args, config, "r1", None)
    r2 = _resolve(args, config, "r2", None)
    if gamma is None or r1 is None or r2 is None:
        raise ConfigError("batch needs pool parameters --gamma, --r1, --r2")
    try:
        pool = ForwardExchange(gamma=float(gamma), r1=float(r1), r2=float(r2))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    ids: list[str]
    input_path = _resolve(args, config, "input", None)
    deltas_text = _resolve(args, config, "deltas", None)
    if input_path is not None:
        try:
            with open(input_path, newline="") as fh:
                reader = csv.DictReader(fh)
                if reader.fieldnames is None or \
                        {"trader_id", "delta"} - set(reader.fieldnames):
                    raise ConfigError(
                        "batch input needs columns trader_id, delta"
                    )
                ids, deltas = [], []
                for rec in reader:
                    ids.append(rec["trader_id"])
                    deltas.append(float(rec["delta"]))
        except OSError as exc:
            raise ConfigError(f"cannot read {input_path}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad delta in {input_path}: {exc}") from exc
    elif deltas_text is not None:
        deltas = deltas_text if isinstance(deltas_text, list) \
            else _parse_floats(deltas_text)
        ids = [str(i) for i in range(len(deltas))]
    else:
        raise ConfigError("batch needs --input or --deltas")

    try:
        outcome = clear(BatchInstance(deltas=np.asarray(deltas, dtype=float),
                                      pool=pool))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [
        [tid, float(d), float(r), float(b)]
        for tid, d, r, b in zip(ids, deltas, outcome.residuals,
                                outcome.per_trader_b)
    ]
    fmt, path = _io_args(args, config)
    _emit(["trader_id", "delta", "residual", "received_b"], rows, fmt, path)
    return 0


def _cmd_verify(args) -> int:
    config = _load_config(args.config, "verify")
    family = _resolve_family(args, config)
    conditions = _resolve(args, config, "conditions", "chord,linear,rosen")
    if isinstance(conditions, str):
        conditions = [c.strip() for c in conditions.split(",") if c.strip()]
    unknown = set(conditions) - {"chord", "linear", "rosen"}
    if unknown:
        raise ConfigError(f"unknown conditions: {sorted(unknown)}")
    samples = int(_resolve(args, config, "samples", 10_000))
    seed = int(_resolve(args, config, "seed", 0))
    domain_hi = _resolve(args, config, "domain_hi", None)
    domain_hi = float(domain_hi) if domain_hi is not None else None
    rosen_n = int(_resolve(args, config, "rosen_n", 2))

    rows = []
    for name in conditions:
        if name == "chord":
            rep = check_chord_condition(family, samples=samples, seed=seed,
                                        domain_hi=domain_hi)
            for w in rep.witness or ((None, None, None),):
                rows.append([rep.condition, rep.holds, *w])
        elif name == "linear":
            rep = detect_linear_segment_at_zero(family, samples=samples,
                                                seed=seed, domain_hi=domain_hi)
            for w in rep.witness or ((None, None, None),):
                rows.append([rep.condition, rep.holds, *w])
        else:
            rep = rosen_probe(family, rosen_n)
            rows.append([rep.condition, rep.holds, float(rosen_n),
                         rosen_n / 2.0, rep.details["e_value"]])
    fmt, path = _io_args(args, config)
    _emit(["condition", "holds", "witness_a", "witness_b", "witness_value"],
          rows, fmt, path)
    return 0


def _cmd_reproduce(args) -> int:
    figure = args.figure
    default_family = {"scenario1": "cfmm", "scenario2-delta": "power",
                      "whale": "cfmm", "poa-curve": "power"}[figure]
    kind = args.family or default_family
    family = family_from_dict(
        REFERENCE_CFMM if kind == "cfmm" else REFERENCE_POWER
    )
    trials = args.trials if args.trials is not None else 100
    seed = args.seed if args.seed is not None else 0
    path = args.output

    if figure == "scenario1":
        n_values = _parse_int_values(args.n_values or "2:16")
        result = convergence_study(family, n_values, trials=trials, seed=seed)
        rows = [[r.n, r.trial, r.iterations, r.converged] for r in result.records]
        _emit(["n", "trial", "iterations", "converged"], rows, "csv", path)
    elif figure == "scenario2-delta":
        n = int(args.n or 10)
        deltas = _parse_floats(args.deltas or "0.5,1,2,5,10")
        rows = []
        for delta in deltas:
            result = convergence_study(
                family, [n], trials=trials, seed=seed,
                scenario=BoundedUpdate(delta=delta),
            )
            rows.extend(
                [delta, r.trial, r.iterations, r.converged]
                for r in result.records
            )
        _emit(["delta", "trial", "iterations", "converged"], rows, "csv", path)
    elif figure == "whale":
        default_range = f"1:{args.max_fish}" if args.max_fish else "1:20"
        n_fish_values = _parse_int_values(args.n_values or default_range)
        rows = []
        for n_fish in n_fish_values:
            rep = whale_fish_experiment(family, n_fish, trials=trials, seed=seed)
            rows.append([
                rep.n_fish, rep.trials, rep.whale_strategy, rep.whale_profit,
                rep.pct_strategy_increase, rep.pct_strategy_std,
                rep.pct_profit_increase, rep.pct_profit_std,
                rep.converged_trials, rep.fish_saturated_trials,
            ])
        _emit(
            ["n_fish", "trials", "whale_strategy", "whale_profit",
             "pct_strategy_increase", "pct_strategy_increase_std",
             "pct_profit_increase", "pct_profit_increase_std",
             "converged_trials", "fish_saturated_trials"],
            rows, "csv", path,
        )
    else:  # poa-curve
        n_values = _parse_int_values(args.n_values or "1:50")
        rows = [[r.n, r.eq_payoff, r.fair_payoff, r.poa]
                for r in (poa(family, n) for n in n_values)]
        _emit(["n", "eq_payoff", "fair_payoff", "poa"], rows, "csv", path)
    return 0


# ----------------------------------------------------------------- parser


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=("power", "cfmm", "table"),
                     help="payoff family kind")
    sub.add_argument("--beta", type=float, help="power exponent in (0,1)")
    sub.add_argument("--gamma", type=float,
                     help="power linear cost, or cfmm fee multiplier")
    sub.add_argument("--r1", type=float, help="cfmm reserve of asset A")
    sub.add_argument("--r2", type=float, help="cfmm reserve of asset B")
    sub.add_argument("--price", type=float, help="cfmm external price of B")
    sub.add_argument("--ts", help="table knot positions, comma-separated")
    sub.add_argument("--fs", help="table knot values, comma-separated")


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags win)")
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "table"),
                     help="output format (default: table on stdout, csv to files)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="prorata",
        description="concave pro-rata games: equilibria, dynamics, batches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("equilibrium", help="symmetric equilibrium")
    _add_family_flags(p)
    _add_io_flags(p)
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=SOLVE_METHODS)
    p.set_defaults(fn=_cmd_equilibrium)

    p = sub.add_parser("bestresponse", help="single-player best response")
    _add_family_flags(p)
    _add_io_flags(p)
    p.add_argument("--y", type=float, help="everyone else's total tender")
    p.add_argument("--budget", type=float)
    p.set_defaults(fn=_cmd_bestresponse)

    for name, helptext in (("simulate", "trace best-response rounds"),
                           ("study", "rounds-to-convergence statistics")):
        p = sub.add_parser(name, help=helptext)
        _add_family_flags(p)
        _add_io_flags(p)
        if name == "simulate":
            p.add_argument("--n", type=int)
        else:
            p.add_argument("--n-values", dest="n_values",
                           help="e.g. '2:16' or '2,4,8'")
        p.add_argument("--trials", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--threshold", type=float)
        p.add_argument("--max-iterations", dest="max_iterations", type=int)
        p.add_argument("--update-order", dest="update_order",
                       choices=("sequential", "synchronous"))
        p.add_argument("--scenario",
                       choices=("unconstrained", "bounded", "budgeted"))
        p.add_argument("--delta", type=float, help="bounded-update step cap")
        p.add_argument("--budgets", help="comma list (1 value broadcasts)")
        p.set_defaults(fn=_cmd_simulate if name == "simulate" else _cmd_study)

    p = sub.add_parser("whale", help="one deep player vs budget-capped fish")
    _add_family_flags(p)
    _add_io_flags(p)
    p.add_argument("--n-fish-values", dest="n_fish_values",
                   help="e.g. '1:20'")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--max-iterations", dest="max_iterations", type=int)
    p.set_defaults(fn=_cmd_whale)

    p = sub.add_parser("poa", help="price-of-anarchy curve")
    _add_family_flags(p)
    _add_io_flags(p)
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--n0", type=int, help="tail start for the poa/n floor")
    p.set_defaults(fn=_cmd_poa)

    p = sub.add_parser("batch", help="clear a batch of signed demands")
    _add_io_flags(p)
    p.add_argument("--input", help="CSV with columns trader_id, delta")
    p.add_argument("--deltas", help="inline comma list of signed demands")
    p.add_argument("--gamma", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.set_defaults(fn=_cmd_batch)

    p = sub.add_parser("verify", help="certify concavity side conditions")
    _add_family_flags(p)
    _add_io_flags(p)
    p.add_argument("--conditions", "--condition", dest="conditions",
                   help="subset of chord,linear,rosen")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--domain-hi", dest="domain_hi", type=float)
    p.add_argument("--rosen-n", dest="rosen_n", type=int)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reproduce", help="regenerate a reference figure CSV")
    p.add_argument("figure", type=lambda s: s.removeprefix("fig-"),
                   choices=FIGURES)
    p.add_argument("--family", choices=("power", "cfmm"))
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--max-fish", dest="max_fish", type=int)
    p.add_argument("--deltas")
    p.add_argument("--output")
    p.set_defaults(fn=_cmd_reproduce)

    return parser


_ERROR_SLUGS = (
    (ConfigError, "config-error", 2),
    (NoEquilibrium, "no-equilibrium", 3),
    (NoFiniteRoot, "no-finite-root", 3),
    (NoPositiveRegion, "no-positive-region", 3),
    (DomainExceeded, "domain-exceeded", 4),
    (NonPositiveNetDemand, "non-positive-net-demand", 4),
)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except ProRataError as exc:
        for klass, slug, code in _ERROR_SLUGS:
            if isinstance(exc, klass):
                print(f"error: {slug}: {exc}", file=sys.stderr)
                return code
        print(f"error: runtime: {exc}", file=sys.stderr)
        return 4
    except (ArithmeticError, ValueError) as exc:
        print(f"error: numeric-error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
