"""Command-line front end.

Every command reads a payoff family from flags (or a JSON config), runs
one of the library routines, and writes rows as CSV or an aligned text
table. Each command's flags, with their types, defaults and help, are
one entry of :data:`COMMANDS`. argparse only splits the command line, so
every flag arrives as a string. One pass then gives each flag its
command-line value, else its ``--config`` value (a null counts as not
given), else its default, and reads that value once by the flag's type:
a scalar, a choice, or a list, which takes a JSON list or a comma
string. A value that does not read is refused in one form that names
its flag, ``--flag: expected <what>, got <value>``. Errors come out as a
single machine-parsable line on stderr with exit code 2 (bad input:
anything raising :class:`InvalidArgument`, which the library raises at
its own argument checks, so they are not copied here), 3 (no positive
region / no root exists), or 4 (numeric failure). A closed stdout exits
1 quietly.
"""

from __future__ import annotations

import argparse
import csv
import errno
import functools
import io
import json
import math
import os
import sys
from typing import Sequence

import numpy as np

from .analysis import poa_growth_check
from .batch import BatchInstance, clear
from .dynamics import (
    UPDATE_ORDERS,
    BoundedUpdate,
    Budgeted,
    GameConfig,
    Unconstrained,
    convergence_study,
    draw_initial_profile,
    simulate,
    whale_fish_sweep,
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
    integer,
)
from .payoff import (FAMILY_KINDS, ForwardExchange, family_from_dict,
                     pro_rata_payoff, spec_keys)
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

# A command's result: column names, rows, and text that follows the table
# (on stdout) in table format.
Table = tuple[list[str], list[list], str]


# what a value must be for each scalar flag type, as its refusal names it
_EXPECTED = {int: "an integer", float: "a number", str: "a string"}


def _read(flag: str, kind, value):
    """``value`` read once by ``flag``'s type: a scalar type (int, float or
    str), a tuple of choices, or a list ``[kind]`` of either, given as a
    JSON list or as the nonblank parts of a comma string, where integer
    parts may be inclusive a:b ranges ('1,4:8,16'). A number or a string is
    never taken from a bool, which ``int`` and ``float`` read as 0 or 1,
    nor an integer from a float, which ``int`` would truncate. A refusal
    names the flag: ``--flag: expected <what>, got <value>``."""
    if isinstance(kind, list):
        parts = value if isinstance(value, list) else [
            p.strip() for p in str(value).split(",") if p.strip()]
        out = []
        for part in parts:
            if kind[0] is int and isinstance(part, str) and ":" in part:
                lo, _, hi = part.partition(":")
                lo, hi = _read(flag, int, lo), _read(flag, int, hi)
                if hi < lo:
                    raise ConfigError(f"{flag}: empty range {part}")
                out.extend(range(lo, hi + 1))
            else:
                out.append(_read(flag, kind[0], part))
        if not out:
            raise ConfigError(f"{flag}: no values in {value!r}")
        return out
    if isinstance(kind, tuple):
        if value in kind:
            return value
        what = f"one of {_choices(kind)}"
    else:
        what = _EXPECTED[kind]
        if not (isinstance(value, bool) or kind is int and isinstance(value, float)):
            try:
                return kind(value)
            except (TypeError, ValueError):
                pass
    raise ConfigError(f"{flag}: expected {what}, got {value!r}")


def _choices(kind: tuple) -> str:
    """A choice flag's choices as argparse shows them, ``{a,b}``."""
    return "{" + ",".join(kind) + "}"


def _config(args, flags: dict) -> dict:
    """The ``--config`` file's values, none without one. It may hold only
    keys the command has flags for, and the family only as one object."""
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
    # every flag but --config, the family object in place of the family flags
    keys = {dest for dest in flags if dest != "config"
            and not ("family" in flags and dest in _FAMILY_FLAGS)}
    unknown = set(cfg) - keys
    if unknown:
        raise ConfigError(f"unknown config keys for {args.command}: {sorted(unknown)}")
    family = cfg.get("family")
    if family is not None and not isinstance(family, dict):
        raise ConfigError("config 'family' must be an object")
    return cfg


def _settle(args, flags: dict) -> None:
    """The one pass over a command's flags: each takes its command-line
    value, else its ``--config`` value (a null counts as not given), else
    its default from the command's table entry, and is read once by its
    flag's type. A config file's family object is checked as it is built."""
    cfg = _config(args, flags)
    for dest, (kind, default, _) in flags.items():
        value = next((v for v in (getattr(args, dest, None), cfg.get(dest), default)
                      if v is not None), None)
        if value is not None and not (dest == "family" and isinstance(value, dict)):
            value = _read(f"--{dest.replace('_', '-')}", kind, value)
        setattr(args, dest, value)


def _resolve_family(args):
    kind = args.family
    if kind is None:
        raise ConfigError("no payoff family given (use --family or a config file)")
    # a config file's family object takes no family flags; a kind, its own
    from_config = isinstance(kind, dict)
    keys = {} if from_config else spec_keys(kind)
    own = [_FLAG_OF.get(key, key) for key in keys]
    for flag in _FAMILY_FLAGS:
        if flag not in own and getattr(args, flag) is not None:
            raise ConfigError(
                f"--{flag} needs --family: the config file gives the family "
                "as one object" if from_config
                else f"--{flag} is not a parameter of the {kind} family")
    if from_config:
        return family_from_dict(kind)
    spec: dict = {"kind": kind}
    for key, flag in zip(keys, own):
        value = getattr(args, flag)
        if value is None:
            raise ConfigError(f"--{flag} is required for --family {kind}")
        spec[key] = value
    return family_from_dict(spec)


def _resolve_scenario(args, n: int):
    name = args.scenario
    # each constrained scenario's own flag, given exactly when it is chosen
    for scenario, key in (("bounded", "delta"), ("budgeted", "budgets")):
        given = getattr(args, key) is not None
        if given != (name == scenario):
            raise ConfigError(f"--{key} needs --scenario {scenario}" if given
                              else f"scenario {scenario!r} needs --{key}")
    if name == "unconstrained":
        return Unconstrained()
    if name == "bounded":
        return BoundedUpdate(delta=args.delta)
    budgets = args.budgets * n if len(args.budgets) == 1 else args.budgets
    if len(budgets) != n:
        raise ConfigError(f"need 1 or {n} budgets, got {len(budgets)}")
    return Budgeted(budgets=tuple(budgets))


def _run_settings(args) -> dict:
    """The threshold, round cap and seed of simulate, study and whale."""
    return dict(
        convergence_threshold=args.threshold,
        max_iterations=args.max_iterations,
        seed=args.seed,
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
    cells = [[_cell(v) for v in row] for row in [columns, *rows]]
    if fmt == "csv":
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(cells)
        text = buf.getvalue()
    else:
        widths = [max(len(r[j]) for r in cells) for j in range(len(columns))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip()
            for row in cells
        ]
        text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _io_args(args) -> tuple[str, str | None]:
    """The output format and path, checked before the command runs: the
    path may not be a directory or lie in a missing one. The file itself is
    written only when the command has succeeded."""
    fmt = args.format or ("table" if args.output is None else "csv")
    path = args.output
    if path is not None and not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.ENOENT
    elif path is not None and os.path.isdir(path):
        code = errno.EISDIR
    else:
        return fmt, path
    raise ConfigError(f"cannot write {path}: {OSError(code, os.strerror(code), path)}")


# ---------------------------------------------------------------- commands


def _cmd_equilibrium(args) -> Table:
    family = _resolve_family(args)
    res = solve_symmetric(family, args.n, method=args.method)
    return (
        ["n", "q", "per_player", "eq_payoff", "foc_residual", "method"],
        [[res.n, res.q, res.per_player, res.equilibrium_payoff,
          res.foc_residual, res.method]],
        "",
    )


def _cmd_bestresponse(args) -> Table:
    family = _resolve_family(args)
    res = best_response(family, args.y, budget=args.budget)
    return (
        ["y", "budget", "x", "payoff", "boundary"],
        [[args.y, args.budget, res.x, res.achieved_payoff, res.at_boundary]],
        "",
    )


def _cmd_simulate(args) -> Table:
    family = _resolve_family(args)
    game = GameConfig(family, args.n, _resolve_scenario(args, args.n),
                      update_order=args.update_order,
                      **_run_settings(args))
    # simulate runs one trial per call, so the trial count is checked here
    trials = integer("trials", args.trials, 1)
    rows = []
    for trial in range(trials):
        rng = np.random.default_rng([game.seed, trial])
        T = simulate(game, initial=draw_initial_profile(family, args.n, rng)).tenders
        payoffs = pro_rata_payoff(family, T, T.sum(axis=1, keepdims=True) - T)
        for it, (xs, ps) in enumerate(zip(T.tolist(), payoffs.tolist())):
            rows.extend([trial, it, player, x, p]
                        for player, (x, p) in enumerate(zip(xs, ps)))
    return ["trial", "iteration", "player", "strategy", "payoff"], rows, ""


def _cmd_study(args) -> Table:
    return _study(args, _resolve_family(args))


def _study(args, family) -> Table:
    scenario = _resolve_scenario(args, args.n_values[0])
    if isinstance(scenario, Budgeted) and len(set(args.n_values)) > 1:
        raise ConfigError("a budgeted study needs a single n value")
    result = convergence_study(
        family,
        args.n_values,
        trials=args.trials,
        scenario=scenario,
        update_order=args.update_order,
        **_run_settings(args),
    )
    # iterations counts the rounds to convergence: blank for the other stops
    rows = [[r.n, r.trial, r.iterations if r.stop == "converged" else None,
             r.stop == "converged"] for r in result.records]
    summary = "".join(f"  n={n}: {mean:.2f}\n"
                      for n, mean in result.mean_iterations().items())
    return (["n", "trial", "iterations", "converged"], rows,
            "\nmean iterations to converge:\n" + summary)


def _delta_sweep(args) -> Table:
    """The study at one n for each movement cap delta, keyed by delta."""
    family = _resolve_family(args)  # one object, so its diagnostics memo is reused
    rows = []
    for delta in args.deltas:
        bounded = argparse.Namespace(**{**vars(args), "scenario": "bounded",
                                        "delta": delta})
        rows.extend([delta, *row[1:]] for row in _study(bounded, family)[1])
    return ["delta", "trial", "iterations", "converged"], rows, ""


def _cmd_whale(args) -> Table:
    family = _resolve_family(args)
    rows = [[
        rep.n_fish, rep.trials, rep.whale_strategy, rep.whale_profit,
        rep.pct_strategy_increase, rep.pct_strategy_std,
        rep.pct_profit_increase, rep.pct_profit_std,
        rep.converged_trials, rep.fish_saturated_trials,
    ] for rep in whale_fish_sweep(family, args.n_fish_values, args.trials,
                                  **_run_settings(args))]
    return (
        ["n_fish", "trials", "whale_strategy", "whale_profit",
         "pct_strategy_increase", "pct_strategy_increase_std",
         "pct_profit_increase", "pct_profit_increase_std",
         "converged_trials", "fish_saturated_trials"],
        rows, "",
    )


def _cmd_poa(args) -> Table:
    family = _resolve_family(args)
    result = poa_growth_check(family, args.n_values, n0=args.n0)
    rows = [[r.n, r.eq_payoff, r.fair_payoff, r.poa] for r in result.reports]
    return (
        ["n", "eq_payoff", "fair_payoff", "poa"], rows,
        f"\nnondecreasing={str(result.nondecreasing).lower()} "
        f"poa(n)/n floor for n>={result.n0}: {result.ratio_floor!r}\n",
    )


def _cmd_batch(args) -> Table:
    pool_args = [args.gamma, args.r1, args.r2]
    if None in pool_args:
        raise ConfigError("batch needs pool parameters --gamma, --r1, --r2")
    pool = ForwardExchange(*pool_args)

    ids: list[str]
    if args.input is not None:
        try:
            with open(args.input, newline="") as fh:
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
            raise ConfigError(f"cannot read {args.input}: {exc}") from exc
        except ValueError as exc:
            raise ConfigError(f"bad delta in {args.input}: {exc}") from exc
    elif args.deltas is not None:
        deltas = args.deltas
        ids = [str(i) for i in range(len(deltas))]
    else:
        raise ConfigError("batch needs --input or --deltas")

    outcome = clear(BatchInstance(deltas=deltas, pool=pool))
    rows = [
        [tid, d, float(r), float(b)]
        for tid, d, r, b in zip(ids, deltas, outcome.residuals,
                                outcome.per_trader_b)
    ]
    return ["trader_id", "delta", "residual", "received_b"], rows, ""


def _cmd_verify(args) -> Table:
    family = _resolve_family(args)
    rows = []
    for name in args.conditions:
        if name == "rosen":
            rep = rosen_probe(family, args.rosen_n)
            rows.append([rep.condition, rep.holds, float(args.rosen_n),
                         args.rosen_n / 2.0, rep.details["e_value"]])
            continue
        check = check_chord_condition if name == "chord" \
            else detect_linear_segment_at_zero
        rep = check(family, domain_hi=args.domain_hi)
        rows.extend([rep.condition, rep.holds, *w]
                    for w in rep.witness or ((None, None, None),))
    return (["condition", "holds", "witness_a", "witness_b", "witness_value"],
            rows, "")


def _whale_fish(n_values, max_fish) -> dict:
    """The whale figure's fish counts: --n-values, or 1 to --max-fish (20)."""
    if max_fish is not None and max_fish < 1:
        raise ConfigError(f"--max-fish: expected at least 1, got {max_fish!r}")
    if n_values is None:
        return {"n_fish_values": f"1:{20 if max_fish is None else max_fish}"}
    if max_fish is not None:
        raise ConfigError("the whale figure reads --n-values or --max-fish, "
                          "not both")
    return {"n_fish_values": n_values}


# Each figure is a preset run of a command: (the command whose flags it
# sets, the handler, reference family kind, the figure flags it reads with
# their defaults, the command's settings from those flags). The settings
# pass through the command's flags as its command line would: a setting
# left None keeps the command's default, and a given one, even zero or
# empty, goes to the handler's checks.
FIGURES = {
    "scenario1": ("study", _cmd_study, "cfmm", {"n_values": None}, dict),
    "scenario2-delta": ("study", _delta_sweep, "power",
                        {"n": 10, "deltas": (0.5, 1.0, 2.0, 5.0, 10.0)},
                        lambda n, deltas: {"n_values": [n], "deltas": deltas}),
    "whale": ("whale", _cmd_whale, "cfmm", {"n_values": None, "max_fish": None},
              _whale_fish),
    "poa-curve": ("poa", _cmd_poa, "power", {"n_values": None}, dict),
}


def _cmd_reproduce(args) -> Table:
    command, handler, kind, reads, preset = FIGURES[args.figure]
    given = {flag: value for flag in ("n", "n_values", "max_fish", "deltas")
             if (value := getattr(args, flag)) is not None}
    unread = [flag for flag in given if flag not in reads]
    if unread:
        raise ConfigError(f"the {args.figure} figure does not read "
                          f"--{unread[0].replace('_', '-')}")
    settings = argparse.Namespace(family=REFERENCE[args.family or kind],
                                  trials=args.trials, seed=args.seed,
                                  **preset(**{**reads, **given}))
    _settle(settings, COMMANDS[command][2])
    return handler(settings)


# ------------------------------------------------------------------ parser

# Each flag's dest: (type: int, float or str, a list of one of them, or a
# tuple of choices; default, None for none; help). The family flags are the
# families' spec keys, named as the keys are but for --price, the cfmm's c;
# a config file gives one "family" object in their place.
_FLAG_OF = {"c": "price"}
_FAMILY_FLAGS = {
    "beta": (float, None, "power exponent in (0,1)"),
    "gamma": (float, None, "power linear cost, or cfmm fee multiplier"),
    "r1": (float, None, "cfmm reserve of asset A"),
    "r2": (float, None, "cfmm reserve of asset B"),
    "price": (float, None, "cfmm external price of B"),
    "ts": ([float], None, "table knot positions, comma-separated"),
    "fs": ([float], None, "table knot values, comma-separated"),
}
_FAMILY = {"family": (tuple(FAMILY_KINDS), None, "payoff family kind"),
           **_FAMILY_FLAGS}
_IO = {
    "config": (str, None, "JSON config file (flags win)"),
    "output": (str, None, "write to this path instead of stdout"),
    "format": (("csv", "table"), None,
               "output format (default: table on stdout, csv to files)"),
}
_RUN = {"seed": (int, GameConfig.seed, None),
        "threshold": (float, GameConfig.convergence_threshold, None),
        "max_iterations": (int, GameConfig.max_iterations, None)}
_SCENARIO = {
    "update_order": (UPDATE_ORDERS, GameConfig.update_order, None),
    "scenario": (("unconstrained", "bounded", "budgeted"), "unconstrained", None),
    "delta": (float, None, "bounded-update step cap"),
    "budgets": ([float], None, "comma list (1 value broadcasts)"),
}
_ALIASES = {"conditions": ("--condition",)}

# Every command: (help, handler, flags). A flag's type reads its value
# once, whether given by flag, by config or by default.
COMMANDS = {
    "equilibrium": ("symmetric equilibrium", _cmd_equilibrium, {
        **_FAMILY, **_IO, "n": (int, 2, None),
        "method": (SOLVE_METHODS, "auto", None)}),
    "bestresponse": ("single-player best response", _cmd_bestresponse, {
        **_FAMILY, **_IO, "y": (float, 0.0, "everyone else's total tender"),
        "budget": (float, math.inf, None)}),
    "simulate": ("trace best-response rounds", _cmd_simulate, {
        **_FAMILY, **_IO, "n": (int, 2, None), "trials": (int, 1, None),
        **_RUN, **_SCENARIO}),
    "study": ("rounds-to-convergence statistics", _cmd_study, {
        **_FAMILY, **_IO, "n_values": ([int], "2:16", "e.g. '2:16' or '2,4,8'"),
        "trials": (int, 100, None), **_RUN, **_SCENARIO}),
    "whale": ("one deep player vs budget-capped fish", _cmd_whale, {
        **_FAMILY, **_IO, "n_fish_values": ([int], "1:20", "e.g. '1:20'"),
        "trials": (int, 100, None), **_RUN}),
    "poa": ("price-of-anarchy curve", _cmd_poa, {
        **_FAMILY, **_IO, "n_values": ([int], "1:50", None),
        "n0": (int, 10, "tail start for the poa/n floor")}),
    "batch": ("clear a batch of signed demands", _cmd_batch, {
        **_IO, "input": (str, None, "CSV with columns trader_id, delta"),
        "deltas": ([float], None, "inline comma list of signed demands"),
        "gamma": (float, None, None), "r1": (float, None, None),
        "r2": (float, None, None)}),
    "verify": ("certify concavity side conditions", _cmd_verify, {
        **_FAMILY, **_IO,
        "conditions": ([("chord", "linear", "rosen")], "chord,linear,rosen",
                       "subset of chord,linear,rosen"),
        "domain_hi": (float, None, "end of the checked range, default the zero of f"),
        "rosen_n": (int, 2, None)}),
    # each figure reads the figure flags its FIGURES entry names, and one
    # left unset keeps the figure's default
    "reproduce": ("regenerate a reference figure CSV", _cmd_reproduce, {
        "family": (("power", "cfmm"), None, None), "trials": (int, None, None),
        "seed": (int, None, None), "n": (int, None, None),
        "n_values": ([int], None, None), "max_fish": (int, None, None),
        "deltas": ([float], None, None), "output": (str, None, None)}),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process and shared: do not modify it."""
    # no prefix matching: a flag a command does not have exits 2
    parser = argparse.ArgumentParser(
        prog="prorata",
        description="concave pro-rata games: equilibria, dynamics, batches",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, _, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext, allow_abbrev=False)
        if name == "reproduce":
            p.add_argument("figure", type=lambda s: s.removeprefix("fig-"),
                           choices=FIGURES)
            p.set_defaults(format="csv")
        for dest, (kind, default, text) in flags.items():
            # every value stays a string here, read once by _settle; a
            # choice flag's metavar lists its choices
            p.add_argument(f"--{dest.replace('_', '-')}", *_ALIASES.get(dest, ()),
                           dest=dest, help=text,
                           metavar=_choices(kind) if isinstance(kind, tuple) else None)
    parser.commands = sub.choices  # each command's own parser, for its errors
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
        args, rest = parser.parse_known_args(argv)
        if rest:
            parser.commands[args.command].error(
                f"unrecognized arguments: {' '.join(rest)}")
    except SystemExit as exc:
        return int(exc.code or 0)
    _, run, flags = COMMANDS[args.command]
    try:
        _settle(args, flags)
        fmt, path = _io_args(args)
        columns, rows, after = run(args)
        _emit(columns, rows, fmt, path)
        if fmt == "table":
            sys.stdout.write(after)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return 0
    except BrokenPipeError:
        # the reader left early: exit quietly, the flush at exit to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
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
