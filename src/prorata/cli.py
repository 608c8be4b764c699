"""Command-line front end.

Every command reads a payoff family from flags (or a JSON config), runs
one of the library routines, and writes rows as CSV or an aligned text
table. Errors come out as a single machine-parsable line on stderr with
exit code 2 (bad input: anything raising :class:`InvalidArgument`, which
the library raises at its own argument checks, so they are not copied
here), 3 (no positive region / no root exists), or 4 (numeric failure).
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

from .analysis import poa_growth_check
from .batch import BatchInstance, clear
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
    InvalidArgument,
    NoFiniteRoot,
    NonPositiveNetDemand,
    NoPositiveRegion,
    ProRataError,
)
from .payoff import ForwardExchange, family_from_dict, pro_rata_payoff
from .verify import (
    check_chord_condition,
    detect_linear_segment_at_zero,
    rosen_probe,
)

# Reference parameter sets of the `reproduce` figures, by family kind.
REFERENCE = {
    "cfmm": {"kind": "cfmm", "gamma": 0.99, "r1": 200.0, "r2": 250.0, "c": 1.0},
    "power": {"kind": "power", "beta": 0.5, "gamma": 0.05},
}

# The flags that spell out a family; a config file gives one "family" object.
_FAMILY_FLAGS = (
    ("beta", float, "power exponent in (0,1)"),
    ("gamma", float, "power linear cost, or cfmm fee multiplier"),
    ("r1", float, "cfmm reserve of asset A"),
    ("r2", float, "cfmm reserve of asset B"),
    ("price", float, "cfmm external price of B"),
    ("ts", None, "table knot positions, comma-separated"),
    ("fs", None, "table knot values, comma-separated"),
)

# A command's result: column names, rows, and text that follows the table
# (on stdout) in table format.
Table = tuple[list[str], list[list], str]


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(p) for p in str(text).split(",") if p.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad float list {text!r}: {exc}") from exc


def _parse_int_values(text) -> list[int]:
    """Comma list with inclusive a:b ranges, e.g. '1,4:8,16'."""
    if isinstance(text, (list, tuple)):
        return [_convert(int, v) for v in text]
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


def _convert(kind, value):
    """``kind(value)``; a config value that does not convert is a config error.
    An integer is not taken from a bool or a float with a fractional part,
    which ``int`` would accept or truncate."""
    if kind is int and (
        isinstance(value, bool)
        or isinstance(value, float) and not value.is_integer()
    ):
        raise ConfigError(f"expected an integer, got {value!r}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _load_config(args) -> dict:
    """The ``--config`` file, holding only keys the command has flags for."""
    path = getattr(args, "config", None)
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
    unknown = set(cfg) - args.config_keys
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    return cfg


def _resolve(args, config: dict, name: str, default, kind=None):
    """The flag's value, else the config's (null counts as not given), else
    ``default``. A given value is converted to ``kind`` when one is named;
    one that does not convert is a config error."""
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name)
    if value is None:
        return default
    return value if kind is None else _convert(kind, value)


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
        delta = _resolve(args, config, "delta", None, float)
        if delta is None:
            raise ConfigError("scenario 'bounded' needs --delta")
        return BoundedUpdate(delta=delta)
    if name == "budgeted":
        budgets = _resolve(args, config, "budgets", None)
        if budgets is None:
            raise ConfigError("scenario 'budgeted' needs --budgets")
        if isinstance(budgets, str):
            budgets = _parse_floats(budgets)
        budgets = [_convert(float, b) for b in _convert(list, budgets)]
        if len(budgets) == 1:
            budgets = budgets * n
        if len(budgets) != n:
            raise ConfigError(f"need 1 or {n} budgets, got {len(budgets)}")
        return Budgeted(budgets=tuple(budgets))
    raise ConfigError(f"unknown scenario {name!r}")


def _game(args, config: dict, family, n: int, scenario) -> GameConfig:
    """The run settings shared by simulate and study."""
    return GameConfig(
        family=family,
        n=n,
        scenario=scenario,
        convergence_threshold=_resolve(args, config, "threshold", 0.1, float),
        max_iterations=_resolve(args, config, "max_iterations", 2000, int),
        seed=_resolve(args, config, "seed", 0, int),
        update_order=_resolve(args, config, "update_order", "sequential", str),
    )


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


def _cmd_equilibrium(args, config) -> Table:
    family = _resolve_family(args, config)
    n = _resolve(args, config, "n", 2, int)
    method = _resolve(args, config, "method", "auto", str)
    res = solve_symmetric(family, n, method=method)
    return (
        ["n", "q", "per_player", "eq_payoff", "foc_residual", "method"],
        [[res.n, res.q, res.per_player, res.equilibrium_payoff,
          res.foc_residual, res.method]],
        "",
    )


def _cmd_bestresponse(args, config) -> Table:
    family = _resolve_family(args, config)
    y = _resolve(args, config, "y", 0.0, float)
    budget = _resolve(args, config, "budget", math.inf, float)
    res = best_response(family, y, budget=budget)
    return (
        ["y", "budget", "x", "payoff", "boundary"],
        [[y, budget, res.x, res.achieved_payoff, res.at_boundary]],
        "",
    )


def _cmd_simulate(args, config) -> Table:
    family = _resolve_family(args, config)
    n = _resolve(args, config, "n", 2, int)
    game = _game(args, config, family, n, _resolve_scenario(args, config, n))
    # simulate runs one trial per call, so the trial count is checked here
    trials = _resolve(args, config, "trials", 1, int)
    if trials < 1:
        raise ConfigError(f"trials must be at least 1, got {trials}")
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([game.seed, trial])
        T = simulate(game, initial=draw_initial_profile(family, n, rng)).tenders
        payoffs = pro_rata_payoff(family, T, T.sum(axis=1, keepdims=True) - T)
        for it, (xs, ps) in enumerate(zip(T.tolist(), payoffs.tolist())):
            rows.extend([trial, it, player, x, p]
                        for player, (x, p) in enumerate(zip(xs, ps)))
    return ["trial", "iteration", "player", "strategy", "payoff"], rows, ""


def _cmd_study(args, config) -> Table:
    family = _resolve_family(args, config)
    n_values = _parse_int_values(_resolve(args, config, "n_values", "2:16"))
    scenario = _resolve_scenario(args, config, n_values[0])
    if isinstance(scenario, Budgeted) and len(set(n_values)) > 1:
        raise ConfigError("a budgeted study needs a single n value")
    game = _game(args, config, family, n_values[0], scenario)
    result = convergence_study(
        family,
        n_values,
        trials=_resolve(args, config, "trials", 100, int),
        seed=game.seed,
        scenario=scenario,
        convergence_threshold=game.convergence_threshold,
        max_iterations=game.max_iterations,
        update_order=game.update_order,
    )
    rows = [[r.n, r.trial, r.iterations, r.converged] for r in result.records]
    summary = "".join(f"  n={n}: {mean:.2f}\n"
                      for n, mean in result.mean_iterations().items())
    return (["n", "trial", "iterations", "converged"], rows,
            "\nmean iterations to converge:\n" + summary)


def _delta_sweep(args, config) -> Table:
    """The study at one n for each movement cap delta, keyed by delta."""
    deltas = _parse_floats(config["deltas"])
    if not deltas:
        raise ConfigError(f"no values in {config['deltas']!r}")
    rows = []
    for delta in deltas:
        bounded = {**config, "scenario": "bounded", "delta": delta}
        rows.extend([delta, *row[1:]] for row in _cmd_study(args, bounded)[1])
    return ["delta", "trial", "iterations", "converged"], rows, ""


def _cmd_whale(args, config) -> Table:
    family = _resolve_family(args, config)
    n_fish_values = _parse_int_values(_resolve(args, config, "n_fish_values", "1:20"))
    run = dict(
        trials=_resolve(args, config, "trials", 100, int),
        seed=_resolve(args, config, "seed", 0, int),
        convergence_threshold=_resolve(args, config, "threshold", 0.1, float),
        max_iterations=_resolve(args, config, "max_iterations", 2000, int),
    )
    rows = []
    for n_fish in n_fish_values:
        rep = whale_fish_experiment(family, n_fish, **run)
        rows.append([
            rep.n_fish, rep.trials, rep.whale_strategy, rep.whale_profit,
            rep.pct_strategy_increase, rep.pct_strategy_std,
            rep.pct_profit_increase, rep.pct_profit_std,
            rep.converged_trials, rep.fish_saturated_trials,
        ])
    return (
        ["n_fish", "trials", "whale_strategy", "whale_profit",
         "pct_strategy_increase", "pct_strategy_increase_std",
         "pct_profit_increase", "pct_profit_increase_std",
         "converged_trials", "fish_saturated_trials"],
        rows, "",
    )


def _cmd_poa(args, config) -> Table:
    family = _resolve_family(args, config)
    n_values = _parse_int_values(_resolve(args, config, "n_values", "1:50"))
    result = poa_growth_check(
        family, n_values, n0=_resolve(args, config, "n0", 10, int)
    )
    rows = [[r.n, r.eq_payoff, r.fair_payoff, r.poa] for r in result.reports]
    return (
        ["n", "eq_payoff", "fair_payoff", "poa"], rows,
        f"\nnondecreasing={str(result.nondecreasing).lower()} "
        f"poa(n)/n floor for n>={result.n0}: {result.ratio_floor!r}\n",
    )


def _cmd_batch(args, config) -> Table:
    pool_args = [_resolve(args, config, key, None, float)
                 for key in ("gamma", "r1", "r2")]
    if None in pool_args:
        raise ConfigError("batch needs pool parameters --gamma, --r1, --r2")
    pool = ForwardExchange(*pool_args)

    ids: list[str]
    input_path = _resolve(args, config, "input", None)
    deltas_text = _resolve(args, config, "deltas", None)
    if input_path is not None:
        try:
            with open(input_path, newline="") as fh:
                # a missing cell reads as "", which float() rejects below
                reader = csv.DictReader(fh, restval="")
                if reader.fieldnames is None or \
                        {"trader_id", "delta"} - set(reader.fieldnames):
                    raise ConfigError(
                        "batch input needs columns trader_id, delta"
                    )
                ids, deltas = [], []
                for rec in reader:
                    ids.append(rec["trader_id"])
                    deltas.append(float(rec["delta"]))
        except ConfigError:
            raise  # a ValueError too, and already worded
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

    outcome = clear(BatchInstance(deltas=np.asarray(deltas, dtype=float),
                                  pool=pool))
    rows = [
        [tid, float(d), float(r), float(b)]
        for tid, d, r, b in zip(ids, deltas, outcome.residuals,
                                outcome.per_trader_b)
    ]
    return ["trader_id", "delta", "residual", "received_b"], rows, ""


def _cmd_verify(args, config) -> Table:
    family = _resolve_family(args, config)
    conditions = _resolve(args, config, "conditions", "chord,linear,rosen")
    if isinstance(conditions, str):
        conditions = [c.strip() for c in conditions.split(",") if c.strip()]
    unknown = set(conditions) - {"chord", "linear", "rosen"}
    if unknown:
        raise ConfigError(f"unknown conditions: {sorted(unknown)}")
    samples = _resolve(args, config, "samples", 10_000, int)
    seed = _resolve(args, config, "seed", 0, int)
    domain_hi = _resolve(args, config, "domain_hi", None, float)
    rosen_n = _resolve(args, config, "rosen_n", 2, int)

    rows = []
    for name in conditions:
        if name == "rosen":
            rep = rosen_probe(family, rosen_n)
            rows.append([rep.condition, rep.holds, float(rosen_n),
                         rosen_n / 2.0, rep.details["e_value"]])
            continue
        check = check_chord_condition if name == "chord" \
            else detect_linear_segment_at_zero
        rep = check(family, samples=samples, seed=seed, domain_hi=domain_hi)
        rows.extend([rep.condition, rep.holds, *w]
                    for w in rep.witness or ((None, None, None),))
    return (["condition", "holds", "witness_a", "witness_b", "witness_value"],
            rows, "")


def _given(flag, default):
    """A reproduce flag's value, or the figure's default when not given."""
    return default if flag is None else flag


# Each figure is a preset run of a command: (handler, reference family kind,
# config from the reproduce flags). A flag that is not given keeps the
# default; a given one, even zero or empty, goes to the handler's checks.
FIGURES = {
    "scenario1": (_cmd_study, "cfmm",
                  lambda a: {"n_values": _given(a.n_values, "2:16")}),
    "scenario2-delta": (_delta_sweep, "power",
                        lambda a: {"n_values": [_given(a.n, 10)],
                                   "deltas": _given(a.deltas, "0.5,1,2,5,10")}),
    "whale": (_cmd_whale, "cfmm",
              lambda a: {"n_fish_values": _given(
                  a.n_values, f"1:{_given(a.max_fish, 20)}")}),
    "poa-curve": (_cmd_poa, "power",
                  lambda a: {"n_values": _given(a.n_values, "1:50")}),
}


def _cmd_reproduce(args, config) -> Table:
    handler, kind, preset = FIGURES[args.figure]
    figure = {"family": REFERENCE[args.family or kind], **preset(args)}
    for key in ("trials", "seed"):
        if getattr(args, key) is not None:
            figure[key] = getattr(args, key)
    # no flags: the handler reads everything from the preset
    return handler(argparse.Namespace(), figure)


# ----------------------------------------------------------------- parser


def _add_family_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--family", choices=("power", "cfmm", "table"),
                     help="payoff family kind")
    for name, kind, helptext in _FAMILY_FLAGS:
        sub.add_argument(f"--{name}", type=kind, help=helptext)


def _add_io_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="JSON config file (flags win)")
    sub.add_argument("--output", help="write to this path instead of stdout")
    sub.add_argument("--format", choices=("csv", "table"),
                     help="output format (default: table on stdout, csv to files)")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--threshold", type=float)
    sub.add_argument("--max-iterations", dest="max_iterations", type=int)


def _command(sub, name: str, helptext: str, fn, family: bool = True):
    p = sub.add_parser(name, help=helptext)
    if family:
        _add_family_flags(p)
    _add_io_flags(p)
    p.set_defaults(fn=fn)
    return p


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="prorata",
        description="concave pro-rata games: equilibria, dynamics, batches",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "equilibrium", "symmetric equilibrium", _cmd_equilibrium)
    p.add_argument("--n", type=int)
    p.add_argument("--method", choices=SOLVE_METHODS)

    p = _command(sub, "bestresponse", "single-player best response",
                 _cmd_bestresponse)
    p.add_argument("--y", type=float, help="everyone else's total tender")
    p.add_argument("--budget", type=float)

    for name, helptext, fn in (
            ("simulate", "trace best-response rounds", _cmd_simulate),
            ("study", "rounds-to-convergence statistics", _cmd_study)):
        p = _command(sub, name, helptext, fn)
        if name == "simulate":
            p.add_argument("--n", type=int)
        else:
            p.add_argument("--n-values", dest="n_values",
                           help="e.g. '2:16' or '2,4,8'")
        _add_run_flags(p)
        p.add_argument("--update-order", dest="update_order",
                       choices=("sequential", "synchronous"))
        p.add_argument("--scenario",
                       choices=("unconstrained", "bounded", "budgeted"))
        p.add_argument("--delta", type=float, help="bounded-update step cap")
        p.add_argument("--budgets", help="comma list (1 value broadcasts)")

    p = _command(sub, "whale", "one deep player vs budget-capped fish", _cmd_whale)
    p.add_argument("--n-fish-values", dest="n_fish_values",
                   help="e.g. '1:20'")
    _add_run_flags(p)

    p = _command(sub, "poa", "price-of-anarchy curve", _cmd_poa)
    p.add_argument("--n-values", dest="n_values")
    p.add_argument("--n0", type=int, help="tail start for the poa/n floor")

    p = _command(sub, "batch", "clear a batch of signed demands", _cmd_batch,
                 family=False)
    p.add_argument("--input", help="CSV with columns trader_id, delta")
    p.add_argument("--deltas", help="inline comma list of signed demands")
    p.add_argument("--gamma", type=float)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)

    p = _command(sub, "verify", "certify concavity side conditions", _cmd_verify)
    p.add_argument("--conditions", "--condition", dest="conditions",
                   help="subset of chord,linear,rosen")
    p.add_argument("--samples", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--domain-hi", dest="domain_hi", type=float)
    p.add_argument("--rosen-n", dest="rosen_n", type=int)

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
    p.set_defaults(fn=_cmd_reproduce, format="csv")

    # a config file may set what the command's flags set, with the family
    # as one object in place of its flags
    family_flags = {name for name, _, _ in _FAMILY_FLAGS}
    for p in sub.choices.values():
        keys = {a.dest for a in p._actions} - {"help", "config"}
        if "family" in keys:
            keys -= family_flags
        p.set_defaults(config_keys=frozenset(keys))
    return parser


_ERROR_SLUGS = (
    (InvalidArgument, "config-error", 2),
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
        config = _load_config(args)
        columns, rows, after = args.fn(args, config)
        fmt, path = _io_args(args, config)
        _emit(columns, rows, fmt, path)
        if fmt == "table":
            sys.stdout.write(after)
        return 0
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
