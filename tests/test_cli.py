"""Command-line surface: schemas, config resolution, exit codes."""

import csv
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from prorata import (
    CfmmArbitragePayoff,
    ConfigError,
    InvalidArgument,
    PowerPayoff,
    ProRataError,
    errors,
    power_poa_closed_form,
    pro_rata_payoff,
)
from prorata.cli import _ERROR_SLUGS, COMMANDS, FIGURES, build_parser, main

ROOT = Path(__file__).resolve().parents[1]

POWER = ["--family", "power", "--beta", "0.5", "--gamma", "0.05"]
CFMM = ["--family", "cfmm", "--gamma", "0.99", "--r1", "200", "--r2", "250",
        "--price", "1"]
# f peaks at the knot 10 and rises again after 20
NON_CONCAVE_TABLE = ["--family", "table", "--ts", "0,10,20,30", "--fs", "0,8,2,3"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------- commands


def test_equilibrium_csv(capsys):
    code, out, err = run(
        capsys, "equilibrium", *POWER, "--n", "2", "--format", "csv"
    )
    assert code == 0 and err == ""
    (row,) = rows_of(out)
    assert set(row) == {"n", "q", "per_player", "eq_payoff", "foc_residual",
                        "method"}
    assert float(row["q"]) == pytest.approx(225.0, rel=1e-12)
    assert row["method"] == "closed-form-power"


def test_equilibrium_table_is_default(capsys):
    code, out, _ = run(capsys, "equilibrium", *CFMM, "--n", "1")
    assert code == 0
    header, values = out.splitlines()
    assert header.split()[:2] == ["n", "q"]
    assert values.split()[0] == "1"


def test_bestresponse(capsys):
    code, out, _ = run(
        capsys, "bestresponse", *CFMM, "--y", "10", "--format", "csv"
    )
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["x"]) == pytest.approx(18.208055378950654, rel=1e-12)
    assert row["boundary"] == "interior"


def test_simulate_trace_layout(capsys):
    code, out, _ = run(
        capsys, "simulate", *CFMM, "--n", "2", "--trials", "2", "--seed", "3",
        "--format", "csv",
    )
    assert code == 0
    rows = rows_of(out)
    assert set(rows[0]) == {"trial", "iteration", "player", "strategy", "payoff"}
    assert {r["trial"] for r in rows} == {"0", "1"}
    assert {r["player"] for r in rows} == {"0", "1"}
    # iteration 0 is the drawn start, present for every trial
    assert [r["iteration"] for r in rows[:2]] == ["0", "0"]


@pytest.mark.parametrize("family, argv", [
    (CfmmArbitragePayoff(gamma=0.99, r1=200.0, r2=250.0, c=1.0), CFMM),
    (PowerPayoff(beta=0.5, gamma=0.05), POWER),
], ids=["cfmm", "power"])
def test_simulate_payoffs_match_allocation_rule(capsys, family, argv):
    code, out, _ = run(capsys, "simulate", *argv, "--n", "4", "--trials", "2",
                       "--seed", "5", "--format", "csv")
    assert code == 0
    profiles = {}
    for r in rows_of(out):
        profiles.setdefault((r["trial"], r["iteration"]), []).append(
            (float(r["strategy"]), float(r["payoff"])))
    assert len(profiles) > 2
    for cells in profiles.values():
        x, paid = np.array(cells).T
        assert pro_rata_payoff(family, x, x.sum() - x).tolist() == paid.tolist()


def test_study_table_prints_summary(capsys):
    code, out, _ = run(
        capsys, "study", *CFMM, "--n-values", "2:3", "--trials", "2",
        "--seed", "0",
    )
    assert code == 0
    assert "mean iterations to converge:" in out
    assert "n=2:" in out and "n=3:" in out


def test_study_of_a_table_positive_at_its_last_knot_converges(capsys):
    # q f(q) peaks inside the table at n = 2 and 3, though f(2) > 0
    code, out, _ = run(capsys, "study", "--family", "table", "--ts", "0,1,2",
                       "--fs", "0,1,0.5", "--n-values", "2:3", "--trials", "2",
                       "--format", "csv")
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 4 and all(r["converged"] == "true" for r in rows)


def test_study_scenario_flags(capsys):
    code, out, _ = run(
        capsys, "study", *POWER, "--n-values", "3", "--trials", "2",
        "--scenario", "bounded", "--delta", "5", "--format", "csv",
    )
    assert code == 0
    assert all(r["converged"] == "true" for r in rows_of(out))


def test_study_leaves_the_rounds_of_unconverged_trials_blank(capsys):
    # budgets of 5 bind below the equilibrium tender: the trials stop as
    # fixed points, and their rows read as they would at the round cap
    code, out, _ = run(capsys, "study", *CFMM, "--n-values", "3", "--scenario",
                       "budgeted", "--budgets", "5", "--trials", "3",
                       "--format", "csv")
    assert (code, out.splitlines()) == (0, [
        "n,trial,iterations,converged", "3,0,,false", "3,1,,false", "3,2,,false"])


def test_whale_csv(capsys):
    code, out, _ = run(
        capsys, "whale", *CFMM, "--n-fish-values", "1:2", "--trials", "3",
        "--format", "csv",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["n_fish"] for r in rows] == ["1", "2"]
    assert all(float(r["pct_profit_increase"]) > 0.0 for r in rows)


def test_poa_csv(capsys):
    code, out, _ = run(
        capsys, "poa", *POWER, "--n-values", "1,2,10", "--format", "csv"
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["n"] for r in rows] == ["1", "2", "10"]
    assert float(rows[1]["poa"]) == pytest.approx(4.0 / 3.0, rel=1e-9)


def test_batch_inline_deltas(capsys):
    code, out, _ = run(
        capsys, "batch", "--deltas", "5,-2,3,-1", "--gamma", "0.99",
        "--r1", "200", "--r2", "250", "--format", "csv",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["trader_id"] for r in rows] == ["0", "1", "2", "3"]
    assert float(rows[0]["residual"]) == 3.125
    assert float(rows[1]["received_b"]) == 0.0


def test_batch_reads_csv_input(capsys, tmp_path):
    src = tmp_path / "orders.csv"
    src.write_text("trader_id,delta\nalice,5\nbob,-2\n")
    code, out, _ = run(
        capsys, "batch", "--input", str(src), "--gamma", "0.99",
        "--r1", "200", "--r2", "250", "--format", "csv",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["trader_id"] for r in rows] == ["alice", "bob"]
    assert float(rows[0]["residual"]) == 3.0


def test_batch_row_without_a_delta_cell_exits_2(capsys, tmp_path):
    src = tmp_path / "orders.csv"
    src.write_text("trader_id,delta\na,1\nb\n")
    code, out, err = run(capsys, "batch", "--input", str(src), "--gamma", "0.99",
                         "--r1", "200", "--r2", "250")
    assert (code, out) == (2, "")
    assert err == (f"error: config-error: bad delta in {src}: could not "
                   "convert string to float: ''\n")


def test_verify_conditions_subset(capsys):
    code, out, _ = run(
        capsys, "verify", *POWER, "--conditions", "chord,linear",
        "--format", "csv",
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["condition"] for r in rows] == ["chord-strict",
                                              "linear-segment-at-zero"]
    assert [r["holds"] for r in rows] == ["true", "false"]
    # singular alias
    code, out, _ = run(
        capsys, "verify", *POWER, "--condition", "rosen", "--rosen-n", "4",
        "--format", "csv",
    )
    assert code == 0
    (row,) = rows_of(out)
    assert row["condition"] == "rosen-monotone-probe"


def test_reproduce_accepts_fig_prefix(capsys):
    code, out, _ = run(
        capsys, "reproduce", "fig-poa-curve", "--n-values", "1:5"
    )
    assert code == 0
    assert out.splitlines()[0] == "n,eq_payoff,fair_payoff,poa"


def test_reproduce_whale_max_fish(capsys):
    code, out, _ = run(
        capsys, "reproduce", "whale", "--max-fish", "2", "--trials", "2"
    )
    assert code == 0
    rows = rows_of(out)
    assert [r["n_fish"] for r in rows] == ["1", "2"]


# ------------------------------------------------------- config handling


def test_config_file_supplies_defaults(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "power", "beta": 0.5, "gamma": 0.05},
        "n": 2,
        "format": "csv",
    }))
    code, out, _ = run(capsys, "equilibrium", "--config", str(cfg))
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["q"]) == pytest.approx(225.0, rel=1e-12)


def test_flags_override_config(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "family": {"kind": "power", "beta": 0.5, "gamma": 0.05},
        "n": 2,
        "format": "csv",
    }))
    code, out, _ = run(capsys, "equilibrium", "--config", str(cfg), "--n", "1")
    assert code == 0
    (row,) = rows_of(out)
    assert float(row["q"]) == pytest.approx(100.0, rel=1e-12)


def test_unknown_config_key_is_an_error(capsys, tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"n": 2, "surprise": 1}))
    code, _, err = run(capsys, "equilibrium", *POWER, "--config", str(cfg))
    assert code == 2
    assert err.startswith("error: config-error:")


def test_output_writes_file_and_defaults_to_csv(capsys, tmp_path):
    dest = tmp_path / "eq.csv"
    code, out, _ = run(
        capsys, "equilibrium", *POWER, "--n", "3", "--output", str(dest)
    )
    assert code == 0 and out == ""
    assert dest.read_text().startswith("n,q,per_player")


# ----------------------------------------------------------- exit codes


def test_missing_family_parameter_exits_2(capsys):
    code, _, err = run(capsys, "equilibrium", "--family", "power", "--beta",
                       "0.5", "--n", "2")
    assert code == 2
    assert err.startswith("error: config-error:")


def test_invalid_family_parameter_exits_2(capsys):
    code, _, err = run(
        capsys, "equilibrium", "--family", "cfmm", "--gamma", "2", "--r1",
        "200", "--r2", "250", "--price", "1", "--n", "2",
    )
    assert code == 2


def test_no_equilibrium_exits_3(capsys):
    # external price above the pool's best marginal quote: f <= 0 everywhere
    code, _, err = run(
        capsys, "equilibrium", "--family", "cfmm", "--gamma", "0.99", "--r1",
        "200", "--r2", "250", "--price", "2", "--n", "2",
    )
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


def test_nonpositive_batch_exits_4(capsys):
    code, _, err = run(
        capsys, "batch", "--deltas=-1,-2", "--gamma", "0.99", "--r1",
        "200", "--r2", "250",
    )
    assert code == 4
    assert err.startswith("error: ")


def test_overflowing_batch_exits_2(capsys):
    code, out, err = run(
        capsys, "batch", "--deltas", "1e308,1e308", "--gamma", "0.99",
        "--r1", "200", "--r2", "250",
    )
    assert (code, out) == (2, "")
    assert err == "error: config-error: the sum of the deltas overflows\n"


def test_each_package_error_has_one_exit_row():
    # callers that catch ValueError still catch argument errors
    assert issubclass(InvalidArgument, ProRataError)
    assert issubclass(InvalidArgument, ValueError)
    assert issubclass(ConfigError, InvalidArgument)
    rows = [klass for klass, _, _ in _ERROR_SLUGS]
    classes = [k for k in vars(errors).values()
               if isinstance(k, type) and issubclass(k, ProRataError)
               and k is not ProRataError]
    for klass in classes:
        # the first matching row, as main reads the table; none falls
        # through to "runtime"
        row = next(r for r in rows if issubclass(klass, r))
        assert row is (InvalidArgument if issubclass(klass, InvalidArgument)
                       else klass), klass
    assert [code for _, _, code in _ERROR_SLUGS].count(2) == 1


def test_parser_is_built_once_and_reused(capsys):
    assert build_parser() is build_parser()
    usage_error = run(capsys, "reproduce", "fig-nope")
    assert usage_error[0] == 2 and "invalid choice" in usage_error[2]
    assert run(capsys, "reproduce", "fig-nope") == usage_error
    assert run(capsys, "equilibrium", *POWER, "--n", "2")[0] == 0
    assert run(capsys, "reproduce", "fig-nope") == usage_error


@pytest.mark.parametrize("argv", [["equilibrium", *POWER], ["study", *CFMM]],
                         ids=["flushed-at-the-end", "written-past-the-buffer"])
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(argv):
    # the pipe's read end is closed before the child starts, so its stdout
    # fails on the first write that reaches it, every time
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(errors.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    try:
        child = subprocess.run([sys.executable, "-m", "prorata.cli", *argv],
                               stdout=write_end, stderr=subprocess.PIPE,
                               env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (1, b"")


def test_unknown_subcommand_exits_2(capsys):
    assert run(capsys, "frobnicate")[0] == 2


@pytest.mark.parametrize("argv, unknown", [
    pytest.param(["whale", *CFMM, "--n", "2", "--trials", "2"], "--n 2", id="argv0"),
    pytest.param(["study", *CFMM, "--n", "3", "--trials", "2"], "--n 3", id="argv1"),
    pytest.param(["reproduce", "poa-curve", "--bogus"], "--bogus", id="reproduce"),
])
def test_a_flag_prefix_is_not_read_as_the_longer_flag(capsys, argv, unknown):
    # whale and study have no --n: it must not run as --n-fish-values or
    # --n-values; an unknown flag is reported against the command's usage
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"usage: prorata {argv[0]} [-h]")
    assert err.endswith(
        f"prorata {argv[0]}: error: unrecognized arguments: {unknown}\n")


# each command with its required flags only, and with every documented
# default spelled out: the two runs print the same bytes
DEFAULTS_SPELLED_OUT = [
    (["equilibrium", *POWER], ["--n", "2", "--method", "auto", "--format", "table"]),
    (["bestresponse", *CFMM], ["--y", "0", "--budget", "inf", "--format", "table"]),
    (["simulate", *CFMM],
     ["--n", "2", "--trials", "1", "--seed", "0", "--threshold", "0.1",
      "--max-iterations", "2000", "--update-order", "sequential",
      "--scenario", "unconstrained", "--format", "table"]),
    (["study", *CFMM],
     ["--n-values", "2:16", "--trials", "100", "--seed", "0", "--threshold", "0.1",
      "--max-iterations", "2000", "--update-order", "sequential",
      "--scenario", "unconstrained", "--format", "table"]),
    (["whale", *CFMM],
     ["--n-fish-values", "1:20", "--trials", "100", "--seed", "0",
      "--threshold", "0.1", "--max-iterations", "2000", "--format", "table"]),
    (["poa", *POWER], ["--n-values", "1:50", "--n0", "10", "--format", "table"]),
    (["batch", "--deltas", "5,-2,3", "--gamma", "0.99", "--r1", "200", "--r2", "250"],
     ["--format", "table"]),
    (["verify", *POWER],
     ["--conditions", "chord,linear,rosen", "--rosen-n", "2", "--format", "table"]),
    (["reproduce", "scenario1"],
     ["study", *CFMM, "--n-values", "2:16", "--trials", "100", "--seed", "0",
      "--format", "csv"]),
    (["reproduce", "scenario2-delta"],
     ["reproduce", "scenario2-delta", "--family", "power", "--n", "10",
      "--deltas", "0.5,1,2,5,10", "--trials", "100", "--seed", "0"]),
    (["reproduce", "whale"],
     ["whale", *CFMM, "--n-fish-values", "1:20", "--trials", "100", "--seed", "0",
      "--threshold", "0.1", "--max-iterations", "2000", "--format", "csv"]),
    (["reproduce", "poa-curve"],
     ["poa", *POWER, "--n-values", "1:50", "--n0", "10", "--format", "csv"]),
]


@pytest.mark.parametrize("required, spelled", DEFAULTS_SPELLED_OUT,
                         ids=[" ".join(r[:2]) for r, _ in DEFAULTS_SPELLED_OUT])
def test_defaults_match_their_documented_values(capsys, required, spelled):
    # a reproduce row spells its figure out as the command it presets
    full = spelled if required[0] == "reproduce" else [*required, *spelled]
    by_default = run(capsys, *required)
    assert by_default[0] == 0 and by_default[1]
    assert run(capsys, *full) == by_default


def test_determinism_across_reruns(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["reproduce", "scenario1", "--n-values", "2:4", "--trials", "5"]
    assert main(argv + ["--output", str(a)]) == 0
    assert main(argv + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_overflowing_quote_exits_2(capsys):
    code, out, err = run(
        capsys, "batch", "--deltas", "8e307,8e307", "--gamma", "0.99",
        "--r1", "200", "--r2", "250",
    )
    assert (code, out) == (2, "")
    assert err == ("error: config-error: the pool quote for input 1.6e+308 "
                   "overflows\n")


BAD_RUN_PARAMETERS = [
    (["study", *CFMM, "--threshold", "0"],
     "convergence_threshold must be finite and positive, got 0.0"),
    (["study", *CFMM, "--n-values", "0"], "n_values[0] must be at least 1, got 0"),
    (["study", *CFMM, "--max-iterations", "0"],
     "max_iterations must be at least 1, got 0"),
    (["study", *CFMM, "--n-values", "3", "--scenario", "budgeted",
      "--budgets", "-1"], "budgets[0] must be nonnegative, got -1.0"),
    (["simulate", *CFMM, "--n", "0"], "n must be at least 1, got 0"),
    (["whale", *CFMM, "--n-fish-values=-1"], "n_fish must be nonnegative, got -1"),
    (["whale", *CFMM, "--trials", "0"], "trials must be at least 1, got 0"),
    (["verify", *POWER, "--conditions", "rosen", "--rosen-n", "1"],
     "n must be at least 2, got 1"),
    (["reproduce", "scenario2-delta", "--deltas", "0"],
     "delta must be finite and positive, got 0.0"),
    (["reproduce", "poa-curve", "--n-values", "0:2"],
     "n_values[0] must be at least 1, got 0"),
    (["reproduce", "whale", "--trials", "0"], "trials must be at least 1, got 0"),
    # zero or empty counts and figure flags reach the handlers' checks
    (["study", *CFMM, "--trials", "0"], "trials must be at least 1, got 0"),
    (["simulate", *CFMM, "--trials", "0"], "trials must be at least 1, got 0"),
    (["reproduce", "scenario2-delta", "--n", "0"],
     "n_values[0] must be at least 1, got 0"),
    (["reproduce", "whale", "--max-fish", "0"],
     "--max-fish: expected at least 1, got 0"),
    (["reproduce", "scenario1", "--n-values="], "--n-values: no values in ''"),
    (["reproduce", "whale", "--n-values="], "--n-values: no values in ''"),
    (["reproduce", "scenario2-delta", "--deltas="], "--deltas: no values in ''"),
    # the library's own argument checks, with no copy in the CLI
    (["bestresponse", *CFMM, "--y", "-1"], "y must be nonnegative, got -1.0"),
    (["bestresponse", *CFMM, "--budget", "-1"],
     "budget must be nonnegative, got -1.0"),
    (["bestresponse", *NON_CONCAVE_TABLE],
     "table must be concave: its segment slopes must not increase"),
    (["equilibrium", *NON_CONCAVE_TABLE, "--method", "closed"],
     "no closed form for table families"),
    (["equilibrium", *CFMM, "--n", "0"], "n must be at least 1, got 0"),
    (["whale", *CFMM, "--n-fish-values=-1", "--trials", "0"],
     "n_fish must be nonnegative, got -1"),
    (["verify", *POWER, "--domain-hi", "-5"],
     "domain_hi must be finite and positive, got -5.0"),
    (["verify", *POWER, "--domain-hi", "nan"],
     "domain_hi must be finite and positive, got nan"),
    # the whale's run settings go through the same config checks as a study's
    (["whale", *CFMM, "--threshold", "0"],
     "convergence_threshold must be finite and positive, got 0.0"),
    (["whale", *CFMM, "--max-iterations", "0"],
     "max_iterations must be at least 1, got 0"),
    (["whale", *CFMM, "--threshold", "nan"],
     "convergence_threshold must be finite and positive, got nan"),
    (["study", *CFMM, "--threshold", "nan"],
     "convergence_threshold must be finite and positive, got nan"),
    (["verify", "--family", "table", "--ts", "0,10,20,30", "--fs", "0,8,13,15",
      "--domain-hi", "100"],
     "domain_hi 100.0 is past the table's last knot 30.0"),
    # a scenario's own flag without that scenario is an error, not ignored
    (["simulate", *CFMM, "--n", "2", "--delta", "0.001"],
     "--delta needs --scenario bounded"),
    (["study", *CFMM, "--n-values", "3", "--budgets", "0.001"],
     "--budgets needs --scenario budgeted"),
    (["study", *CFMM, "--scenario", "bounded", "--delta", "1", "--budgets", "1"],
     "--budgets needs --scenario budgeted"),
    # a family flag of another kind is an error too, not ignored
    (["equilibrium", *POWER, "--r1", "200", "--ts", "5"],
     "--r1 is not a parameter of the power family"),
    # a negative seed is bad input, not numpy's numeric error
    *[([command, *CFMM, "--seed", "-1"], "seed must be nonnegative, got -1")
      for command in ("simulate", "study", "whale")],
    (["reproduce", "whale", "--trials", "1", "--seed", "-1"],
     "seed must be nonnegative, got -1"),
    # NaN fails every bound, and family parameters and caps must be finite
    (["equilibrium", *POWER[:-1], "nan"],
     "bad power family parameters: gamma must be finite and positive, got nan"),
    (["equilibrium", *CFMM[:5], "inf", *CFMM[6:]],
     "bad cfmm family parameters: r1 must be finite and positive, got inf"),
    (["simulate", *CFMM, "--scenario", "bounded", "--delta", "nan"],
     "delta must be finite and positive, got nan"),
    (["simulate", *CFMM, "--scenario", "bounded", "--delta", "inf"],
     "delta must be finite and positive, got inf"),
    (["study", *CFMM, "--n-values", "3", "--scenario", "budgeted",
      "--budgets", "nan"], "budgets[0] must be nonnegative, got nan"),
    (["bestresponse", *CFMM, "--y", "nan"], "y must be nonnegative, got nan"),
    (["bestresponse", *CFMM, "--budget", "nan"],
     "budget must be nonnegative, got nan"),
    (["study", *CFMM, "--threshold", "inf"],
     "convergence_threshold must be finite and positive, got inf"),
    (["study", *CFMM, "--n-values", "3", "--scenario", "bounded"],
     "scenario 'bounded' needs --delta"),
    # the table's knots are list flags too
    (["equilibrium", "--family", "table", "--ts=", "--fs", "0,8,-2"],
     "--ts: no values in ''"),
    (["equilibrium", "--family", "table", "--ts", "0,10,20", "--fs="],
     "--fs: no values in ''"),
    # each of the two sets the whale figure's fish counts
    (["reproduce", "whale", "--n-values", "1:2", "--max-fish", "5",
      "--trials", "1"],
     "the whale figure reads --n-values or --max-fish, not both"),
]


@pytest.mark.parametrize("argv, message", BAD_RUN_PARAMETERS, ids=[
    "study-threshold", "study-n", "study-max-iterations", "study-budgets",
    "simulate-n", "whale-n-fish", "whale-trials", "verify-rosen-n",
    "reproduce-deltas", "reproduce-poa-n", "reproduce-whale-trials",
    "study-trials", "simulate-trials", "reproduce-delta-n",
    "reproduce-whale-max-fish", "reproduce-scenario1-n-values",
    "reproduce-whale-n-values", "reproduce-delta-deltas",
    "bestresponse-y", "bestresponse-budget", "bestresponse-non-concave",
    "equilibrium-closed-table", "equilibrium-n", "whale-n-fish-first",
    "verify-domain-hi", "verify-domain-hi-nan",
    "whale-threshold", "whale-max-iterations", "whale-threshold-nan",
    "study-threshold-nan", "verify-domain-hi-past-table",
    "simulate-delta-unbounded", "study-budgets-unbudgeted",
    "study-budgets-bounded", "equilibrium-flag-of-another-family",
    "simulate-seed", "study-seed", "whale-seed", "reproduce-whale-seed",
    "power-gamma-nan", "cfmm-r1-inf",
    "simulate-delta-nan", "simulate-delta-inf", "study-budgets-nan",
    "bestresponse-y-nan", "bestresponse-budget-nan", "study-threshold-inf",
    "study-bounded-without-delta", "table-no-ts", "table-no-fs",
    "reproduce-whale-n-values-and-max-fish",
])
def test_bad_run_parameters_exit_2(capsys, argv, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: config-error: {message}\n"
    assert caught == []


# ------------------------------------------ reproduce presets = commands


def test_reproduce_figures_are_command_presets(capsys):
    pairs = [
        (["reproduce", "scenario1", "--n-values", "2:4", "--trials", "3",
          "--seed", "1"],
         ["study", *CFMM, "--n-values", "2:4", "--trials", "3", "--seed", "1"]),
        (["reproduce", "whale", "--max-fish", "2", "--trials", "3"],
         ["whale", *CFMM, "--n-fish-values", "1:2", "--trials", "3"]),
        (["reproduce", "poa-curve", "--n-values", "1:6"],
         ["poa", *POWER, "--n-values", "1:6"]),
        (["reproduce", "poa-curve", "--family", "cfmm", "--n-values", "2,5"],
         ["poa", *CFMM, "--n-values", "2,5"]),
    ]
    for figure, command in pairs:
        code, expected, _ = run(capsys, *command, "--format", "csv")
        assert code == 0
        assert run(capsys, *figure) == (0, expected, "")


def test_reproduce_delta_sweep_is_bounded_studies(capsys):
    code, out, _ = run(capsys, "reproduce", "scenario2-delta", "--n", "3",
                       "--deltas", "1,5", "--trials", "2", "--seed", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta,trial,iterations,converged"
    expected = []
    for delta in ("1", "5"):
        _, study, _ = run(capsys, "study", *POWER, "--n-values", "3",
                          "--trials", "2", "--seed", "4", "--scenario",
                          "bounded", "--delta", delta, "--format", "csv")
        expected += [f"{float(delta)!r},{line.split(',', 1)[1]}"
                     for line in study.splitlines()[1:]]
    assert lines[1:] == expected


# the figure flags each figure reads; --family, --trials, --seed and
# --output pass to every figure
FIGURE_FLAGS = {"scenario1": {"n_values"}, "scenario2-delta": {"n", "deltas"},
                "whale": {"n_values", "max_fish"}, "poa-curve": {"n_values"}}


@pytest.mark.parametrize("figure", sorted(FIGURE_FLAGS))
def test_reproduce_refuses_a_flag_its_figure_does_not_read(capsys, figure):
    values = {"n": "2", "n_values": "2", "max_fish": "1", "deltas": "1"}
    for flag, value in values.items():
        argv = ["reproduce", figure, f"--{flag.replace('_', '-')}", value,
                "--trials", "1"]
        if flag in FIGURE_FLAGS[figure]:
            assert run(capsys, *argv)[0] == 0, flag
        else:
            assert run(capsys, *argv) == (
                2, "", f"error: config-error: the {figure} figure does not "
                       f"read --{flag.replace('_', '-')}\n")


def test_reproduce_figures_script_matches_reproduce(capsys, tmp_path):
    spec = importlib.util.spec_from_file_location(
        "reproduce_figures", ROOT / "scripts" / "reproduce_figures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert script.run(["--outdir", str(tmp_path), "--trials", "2"]) == 0
    capsys.readouterr()
    written = sorted(p.name for p in tmp_path.iterdir())
    assert written == sorted(f"{f.replace('-', '_')}.csv" for f in FIGURES)
    for figure in FIGURES:
        code, out, _ = run(capsys, "reproduce", figure, "--trials", "2")
        assert code == 0
        assert (tmp_path / f"{figure.replace('-', '_')}.csv").read_text() == out


def test_bench_pairs_counts_wins_and_applies_the_gain_rule(capsys, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "bench_pairs", ROOT / "scripts" / "bench_pairs.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    ops = {"name": "ops_per_s", "better": "higher", "bound": 0.15}
    setup = {"name": "setup_s", "better": "lower", "bound": 0.25}
    base = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]
    faster = script._report(ops, base, [1.2 * b for b in base])
    assert "wins 10/10" in faster and "gain shown: yes" in faster
    # lower is better: a rise loses every pair
    slower = script._report(setup, base, [b + 1.0 for b in base])
    assert "wins 0/10" in slower and "gain shown: no" in slower
    # nine wins, but the medians are closer than the base's quartile spread
    close = [b + 0.5 for b in base]
    close[0] = base[0] - 1.0
    within = script._report(ops, base, close)
    assert "wins 9/10" in within and "gain shown: no" in within
    # ties count for neither side
    assert "wins 0/10" in script._report(ops, base, base)

    # the rejection rule: the change's median worse than the base's by more
    # than the metric's bound, relative to the base, in its worse direction
    assert "worse than bound 0.15: no" in faster
    assert "worse than bound 0.15: no" in script._report(ops, base, [0.86 * b for b in base])
    assert "worse than bound 0.15: yes" in script._report(ops, base, [0.84 * b for b in base])
    assert "worse than bound 0.25: no" in script._report(setup, base, [1.24 * b for b in base])
    assert "worse than bound 0.25: yes" in script._report(setup, base, [1.26 * b for b in base])
    assert "worse than bound 0.25: no" in script._report(setup, base, [0.5 * b for b in base])
    values = {"base": {"ops_per_s": base, "setup_s": base},
              "change": {"ops_per_s": [0.8 * b for b in base],
                         "setup_s": [1.3 * b for b in base]}}
    assert script._verdict("one-shot", [ops, setup], values, {"base": 0, "change": 0}) \
        == "verdict one-shot: REJECT (ops_per_s, setup_s)"
    values["change"] = values["base"]
    assert script._verdict("one-shot", [ops, setup], values, {"base": 0, "change": 0}) \
        == "verdict one-shot: within bounds"
    assert script._verdict("one-shot", [ops, setup], values, {"base": 1, "change": 3}) \
        == "verdict one-shot: REJECT (failed ops 1 -> 3)"

    # the exit status: 1 when any workload's verdict rejects; runs and git
    # calls are stubbed, each side reporting fixed metrics
    metrics = {"ops_per_s": 100.0, "setup_s": 1.0, "peak_rss_mb": 50.0,
               "min_correct_digits": 15.0}
    change_ops = {"one-shot": 100.0, "study-cfmm": 100.0}

    def fake_run(checkout, pycache, workload, args):
        ops = change_ops[workload] if checkout == script.ROOT else 100.0
        return {"failed": 0, "metrics": {
            name: {"value": ops if name == "ops_per_s" else value}
            for name, value in metrics.items()}}

    monkeypatch.setattr(script, "_run", fake_run)
    monkeypatch.setattr(script, "_git", lambda *args: "0" * 40 if args[0] == "rev-parse" else "")
    monkeypatch.setattr(script, "_extract", lambda rev, dest: None)
    argv = ["--workload", "one-shot,study-cfmm", "--pairs", "2", "--seconds", "1"]
    assert script.main(argv) == 0
    change_ops["study-cfmm"] = 80.0
    assert script.main(argv) == 1
    out = capsys.readouterr().out
    assert out.endswith("verdict one-shot: within bounds\n"
                        "verdict study-cfmm: REJECT (ops_per_s)\n")
    for seconds in ("0", "-1", "nan"):
        with pytest.raises(SystemExit) as exit_info:
            script.main([*argv[:4], "--seconds", seconds])
        assert exit_info.value.code == 2
        assert "--seconds must be positive" in capsys.readouterr().err


# ----------------------------------------------------- config keys


# the keys each command's config file accepts, written out here so that a
# flag change cannot silently change them
CONFIG_KEYS = {
    "equilibrium": {"family", "n", "method"},
    "bestresponse": {"family", "y", "budget"},
    "simulate": {"family", "n", "trials", "seed", "threshold", "max_iterations",
                 "update_order", "scenario", "delta", "budgets"},
    "study": {"family", "n_values", "trials", "seed", "threshold",
              "max_iterations", "update_order", "scenario", "delta", "budgets"},
    "whale": {"family", "n_fish_values", "trials", "seed", "threshold",
              "max_iterations"},
    "poa": {"family", "n_values", "n0"},
    "batch": {"deltas", "gamma", "r1", "r2", "input"},
    "verify": {"family", "conditions", "rosen_n", "domain_hi"},
}


def _with_config(capsys, tmp_path, command, cfg):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(cfg))
    return run(capsys, command, "--config", str(path))


@pytest.mark.parametrize("command", sorted(CONFIG_KEYS))
def test_config_keys_follow_the_flags(capsys, tmp_path, command):
    for key in sorted(CONFIG_KEYS[command] | {"output", "format"}):
        # a null value fails later, at the family or pool, not as a key
        code, _, err = _with_config(capsys, tmp_path, command, {key: None})
        assert code == 2 and "unknown config keys" not in err, key
    foreign = "method" if command == "whale" else "n_fish_values"
    for key in ("beta", "price", "ts", foreign):
        code, _, err = _with_config(capsys, tmp_path, command, {key: 1})
        assert code == 2
        assert err == (f"error: config-error: unknown config keys for "
                       f"{command}: [{key!r}]\n")


def _malformed(kind) -> str:
    """A value that a flag of this type refuses: a list's first part reads,
    its second does not."""
    if isinstance(kind, list):
        item = kind[0]
        return f"{item[0] if isinstance(item, tuple) else 2},{_malformed(item)}"
    return "nope" if isinstance(kind, tuple) else {int: "2.5", float: "x"}[kind]


# every flag of every command whose value reads as more than a string
TYPED_FLAGS = [(command, dest, kind) for command, (_, _, flags) in COMMANDS.items()
               for dest, (kind, _, _) in flags.items() if kind is not str]


@pytest.mark.parametrize("command, dest, kind", TYPED_FLAGS,
                         ids=[f"{c}-{d}" for c, d, _ in TYPED_FLAGS])
def test_a_malformed_value_is_refused_in_one_line_naming_its_flag(
        capsys, tmp_path, command, dest, kind):
    flag = "--" + dest.replace("_", "-")
    value = _malformed(kind)
    figure = ["scenario1"] if command == "reproduce" else []
    runs = [[command, *figure, f"{flag}={value}"]]
    # a config file gives the family as one object, checked as it is built
    if dest in (CONFIG_KEYS.get(command, set()) | {"format"}) - {"family"}:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({dest: value}))
        runs.append([command, "--config", str(path)])
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        (line,) = err.splitlines()
        assert line.startswith(f"error: config-error: {flag}: expected "), line


CFMM_SPEC = {"kind": "cfmm", "gamma": 0.99, "r1": 200.0, "r2": 250.0, "c": 1.0}

# (command, config) pairs, each with one value of the wrong type
WRONGLY_TYPED = [
    pytest.param(command, {**base, key: value},
                 id=f"{command}-{key}-{type(value).__name__}")
    for command, base, keys in (
        ("study", {"n_values": "2"},
         ("trials", "seed", "threshold", "max_iterations", "n_values")),
        ("simulate", {}, ("n", "trials", "seed", "threshold", "max_iterations")),
        ("simulate", {"scenario": "bounded"}, ("delta",)),
        ("simulate", {"scenario": "budgeted"}, ("budgets",)),
        ("whale", {"n_fish_values": "1"},
         ("trials", "seed", "threshold", "max_iterations", "n_fish_values")),
        ("equilibrium", {}, ("n",)),
        ("bestresponse", {}, ("y", "budget")),
        ("poa", {}, ("n_values", "n0")),
        ("verify", {}, ("rosen_n", "domain_hi")),
    )
    for key in keys
    for value in ("abc", ["abc"], {})
]


@pytest.mark.parametrize("command, cfg", WRONGLY_TYPED)
def test_wrongly_typed_config_values_exit_2(capsys, tmp_path, command, cfg):
    code, out, err = _with_config(
        capsys, tmp_path, command, {"family": CFMM_SPEC, **cfg}
    )
    assert (code, out) == (2, "")
    (line,) = err.splitlines()
    assert line.startswith("error: config-error: ")


@pytest.mark.parametrize("command, cfg", [
    ("equilibrium", {"n": 2.9}),
    ("equilibrium", {"n": True}),
    ("simulate", {"trials": 1.5}),
    ("simulate", {"seed": 0.5, "max_iterations": 10}),
    ("study", {"n_values": [2, 2.5]}),
    ("poa", {"n0": float("inf")}),
    ("verify", {"rosen_n": 2.5}),
    ("equilibrium", {"n": 3.0}),
])
def test_fractional_config_integers_exit_2(capsys, tmp_path, command, cfg):
    # int() would truncate these (or take a bool as 0/1) and run silently
    code, out, err = _with_config(
        capsys, tmp_path, command, {"family": CFMM_SPEC, **cfg}
    )
    assert (code, out) == (2, "")
    # the refusal names the flag, then the value or a list's part
    flag = "--" + next(iter(cfg)).replace("_", "-")
    if command == "study":
        assert err == ("error: config-error: --n-values: "
                       "expected an integer, got 2.5\n")
    else:
        assert err.startswith(f"error: config-error: {flag}: expected an integer, got ")


@pytest.mark.parametrize("command, cfg, message", [
    ("bestresponse", {"y": True}, "--y: expected a number, got True"),
    ("bestresponse", {"budget": False}, "--budget: expected a number, got False"),
    ("study", {"n_values": "2", "threshold": True},
     "--threshold: expected a number, got True"),
    ("study", {"n_values": "3", "scenario": "budgeted", "budgets": [1, True]},
     "--budgets: expected a number, got True"),
    ("simulate", {"update_order": True},
     "--update-order: expected one of {sequential,synchronous}, got True"),
    ("equilibrium", {"output": True}, "--output: expected a string, got True"),
    ("equilibrium", {"family": {"kind": "power", "beta": 0.5, "gamma": True}},
     "bad power family parameters: gamma must be a number, got True"),
    ("equilibrium", {"family": {"kind": "table", "ts": [0, 10, 20],
                                "fs": [0, True, 3]}},
     "bad table family parameters: fs[1] must be a number, got True"),
], ids=["y", "budget", "threshold", "budgets", "update-order", "output",
        "family-gamma", "table-knot"])
def test_bool_config_values_exit_2(capsys, tmp_path, command, cfg, message):
    # int() and float() would read true as 1 and false as 0 and run
    cfg = {"family": CFMM_SPEC, **cfg}
    assert _with_config(capsys, tmp_path, command, cfg) == (
        2, "", f"error: config-error: {message}\n")


def test_library_type_error_is_not_a_config_error(capsys, monkeypatch):
    # only config conversion maps TypeError to config-error; one raised by
    # library work is a program fault and propagates
    def broken(instance):
        raise TypeError("a fault inside clear")

    monkeypatch.setattr("prorata.cli.clear", broken)
    with pytest.raises(TypeError, match="a fault inside clear"):
        main(["batch", "--deltas", "5,-2", "--gamma", "0.99",
              "--r1", "200", "--r2", "250"])


@pytest.mark.parametrize("target", ["directory", "missing-parent"])
@pytest.mark.parametrize("argv", [
    ["equilibrium", *POWER], ["reproduce", "poa-curve", "--n-values", "1:3"],
], ids=["equilibrium", "reproduce"])
def test_unwritable_output_exits_2(capsys, tmp_path, argv, target):
    path = tmp_path if target == "directory" else tmp_path / "no" / "x.csv"
    code, out, err = run(capsys, *argv, "--output", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: config-error: cannot write {path}: [Errno ")
    assert err.count("\n") == 1


POWER_SPEC = {"kind": "power", "beta": 0.5, "gamma": 0.05}

# (command, flags, a config file with the same settings): the config's family
# is an object, and its list keys come as JSON lists or as comma strings
FLAGS_AND_CONFIG = [
    ("equilibrium", [*POWER, "--n", "3", "--method", "numeric"],
     {"family": POWER_SPEC, "n": 3, "method": "numeric"}),
    ("equilibrium", ["--family", "table", "--ts", "0,10,20,30,40",
                     "--fs", "0,8,13,15,-2", "--format", "csv"],
     {"family": {"kind": "table", "ts": [0, 10, 20, 30, 40],
                 "fs": [0, 8, 13, 15, -2]}, "format": "csv"}),
    ("bestresponse", [*CFMM, "--y", "10", "--budget", "4"],
     {"family": CFMM_SPEC, "y": 10, "budget": 4}),
    ("simulate", [*CFMM, "--n", "2", "--trials", "2", "--seed", "3",
                  "--scenario", "budgeted", "--budgets", "5,3"],
     {"family": CFMM_SPEC, "n": 2, "trials": 2, "seed": 3,
      "scenario": "budgeted", "budgets": [5, 3]}),
    ("simulate", [*CFMM, "--n", "2", "--scenario", "budgeted", "--budgets", "5,3"],
     {"family": CFMM_SPEC, "n": 2, "scenario": "budgeted", "budgets": "5,3"}),
    ("simulate", [*CFMM, "--n", "2", "--scenario", "budgeted", "--budgets", "5"],
     {"family": CFMM_SPEC, "n": 2, "scenario": "budgeted", "budgets": 5}),
    ("simulate", [*POWER, "--n", "3", "--scenario", "bounded", "--delta", "2",
                  "--update-order", "synchronous", "--max-iterations", "7",
                  "--threshold", "0.01"],
     {"family": POWER_SPEC, "n": 3, "scenario": "bounded", "delta": 2,
      "update_order": "synchronous", "max_iterations": 7, "threshold": 0.01}),
    ("study", [*CFMM, "--n-values", "2:3", "--trials", "2", "--seed", "1"],
     {"family": CFMM_SPEC, "n_values": [2, 3], "trials": 2, "seed": 1}),
    ("study", [*CFMM, "--n-values", "2,4", "--trials", "2"],
     {"family": CFMM_SPEC, "n_values": "2,4", "trials": 2}),
    ("whale", [*CFMM, "--n-fish-values", "1:2", "--trials", "2",
               "--threshold", "0.05"],
     {"family": CFMM_SPEC, "n_fish_values": [1, 2], "trials": 2,
      "threshold": 0.05}),
    ("poa", [*POWER, "--n-values", "1,2,10", "--n0", "2"],
     {"family": POWER_SPEC, "n_values": "1,2,10", "n0": 2}),
    ("batch", ["--deltas", "5,-2,3", "--gamma", "0.99", "--r1", "200",
               "--r2", "250"],
     {"deltas": [5, -2, 3], "gamma": 0.99, "r1": 200, "r2": 250}),
    ("batch", ["--deltas", "5,-2,3", "--gamma", "0.99", "--r1", "200",
               "--r2", "250"],
     {"deltas": "5,-2,3", "gamma": 0.99, "r1": 200, "r2": 250}),
    ("verify", [*POWER, "--conditions", "chord,rosen", "--rosen-n", "3",
                "--domain-hi", "500"],
     {"family": POWER_SPEC, "conditions": ["chord", "rosen"], "rosen_n": 3,
      "domain_hi": 500}),
    ("verify", [*POWER, "--conditions", "linear,chord"],
     {"family": POWER_SPEC, "conditions": "linear,chord"}),
    ("verify", ["--family", "table", "--ts", "0,3,60", "--fs", "0,3,3",
                "--domain-hi", "2"],
     {"family": {"kind": "table", "ts": [0, 3, 60], "fs": [0, 3, 3]},
      "domain_hi": 2}),
]


@pytest.mark.parametrize("command, flags, cfg", FLAGS_AND_CONFIG, ids=[
    f"{command}-{i}" for i, (command, _, _) in enumerate(FLAGS_AND_CONFIG)])
def test_config_file_runs_as_its_flags(capsys, tmp_path, command, flags, cfg):
    by_flags = run(capsys, command, *flags)
    assert by_flags[0] == 0 and by_flags[1]
    assert _with_config(capsys, tmp_path, command, cfg) == by_flags


# each list flag with a config key: (command, the other flags it needs,
# the key, its value as a comma string and as a JSON list)
LIST_FLAGS = [
    ("study", [*CFMM, "--trials", "2"], "n_values", "2,3:4", [2, 3, 4]),
    ("poa", POWER, "n_values", "1,3:4", [1, 3, 4]),
    ("whale", [*CFMM, "--trials", "2"], "n_fish_values", "1:2", [1, 2]),
    ("simulate", [*CFMM, "--scenario", "budgeted"], "budgets", "5,3", [5, 3]),
    ("study", [*CFMM, "--n-values", "2", "--trials", "2", "--scenario",
               "budgeted"], "budgets", "5", [5]),
    ("batch", ["--gamma", "0.99", "--r1", "200", "--r2", "250"], "deltas",
     "5,-2,3", [5, -2, 3]),
    ("verify", POWER, "conditions", "chord,rosen",
     ["chord", "rosen"]),
]


@pytest.mark.parametrize("command, flags, key, text, values", LIST_FLAGS,
                         ids=[f"{c}-{k}" for c, _, k, _, _ in LIST_FLAGS])
def test_a_list_flag_reads_one_way_from_flags_and_config(
        capsys, tmp_path, command, flags, key, text, values):
    flag = "--" + key.replace("_", "-")
    by_flag = run(capsys, command, *flags, f"{flag}={text}")
    assert by_flag[0] == 0 and by_flag[1]
    path = tmp_path / "run.json"
    for value in (text, values):
        path.write_text(json.dumps({key: value}))
        assert run(capsys, command, *flags, "--config", str(path)) == by_flag
    assert run(capsys, command, *flags, f"{flag}=") == (
        2, "", f"error: config-error: {flag}: no values in ''\n")


@pytest.mark.parametrize("command, cfg, message", [
    ("verify", {"family": POWER_SPEC, "conditions": 5},
     "--conditions: expected one of {chord,linear,rosen}, got '5'"),
    ("batch", {"deltas": ["a", 1], "gamma": 0.99, "r1": 200, "r2": 250},
     "--deltas: expected a number, got 'a'"),
    ("study", {"family": CFMM_SPEC, "n_values": []}, "--n-values: no values in []"),
    ("simulate", {"family": CFMM_SPEC, "delta": 0.5},
     "--delta needs --scenario bounded"),
    ("study", {"family": CFMM_SPEC, "n_values": [3], "budgets": [1]},
     "--budgets needs --scenario budgeted"),
    ("equilibrium", {"family": "power"}, "config 'family' must be an object"),
    # a choice flag's config value outside its choices
    ("study", {"family": CFMM_SPEC, "format": "nope"},
     "--format: expected one of {csv,table}, got 'nope'"),
    ("study", {"family": CFMM_SPEC, "scenario": "nope"},
     "--scenario: expected one of {unconstrained,bounded,budgeted}, got 'nope'"),
    ("simulate", {"family": CFMM_SPEC, "update_order": "nope"},
     "--update-order: expected one of {sequential,synchronous}, got 'nope'"),
    ("equilibrium", {"family": CFMM_SPEC, "method": "nope"},
     "--method: expected one of {auto,closed,numeric}, got 'nope'"),
], ids=["verify-conditions-number", "batch-deltas-word", "study-no-n-values",
        "simulate-delta-unbounded", "study-budgets-unbudgeted",
        "family-not-an-object", "format-choice", "scenario-choice",
        "update-order-choice", "method-choice"])
def test_bad_config_values_exit_2(capsys, tmp_path, command, cfg, message):
    code, out, err = _with_config(capsys, tmp_path, command, cfg)
    assert (code, out) == (2, "")
    assert err == f"error: config-error: {message}\n"


# ------------------------------------------- error branches, line by line

TABLE_0_10_20 = ["--family", "table", "--ts", "0,10,20"]

ERROR_LINES = [
    (["simulate", *CFMM, "--n", "3", "--scenario", "budgeted", "--budgets", "1,2"],
     2, "config-error: need 1 or 3 budgets, got 2"),
    (["study", *CFMM, "--n-values", "2:3", "--scenario", "budgeted",
      "--budgets", "1"], 2, "config-error: a budgeted study needs a single n value"),
    (["equilibrium", "--family", "table", "--ts", "0,10", "--fs", "0,5,8"],
     2, "config-error: bad table family parameters: ts and fs must have equal length"),
    (["equilibrium", "--family", "table", "--ts", "0", "--fs", "0"],
     2, "config-error: bad table family parameters: need at least two knots"),
    (["equilibrium", *CFMM[:-1], "-1"],
     2, "config-error: bad cfmm family parameters: c must be finite and "
     "positive, got -1.0"),
    (["batch", "--gamma", "0.99", "--r1", "200", "--r2", "250"],
     2, "config-error: batch needs --input or --deltas"),
    (["batch", "--deltas", "5", "--gamma", "0.99", "--r1", "-200", "--r2", "250"],
     2, "config-error: r1 must be finite and positive, got -200.0"),
    (["equilibrium", *TABLE_0_10_20, "--fs", "0,-1,-3"],
     3, "no-positive-region: payoff is nonpositive at every knot"),
    *[([command, *TABLE_0_10_20, "--fs", "0,5,8"], 3,
       "no-finite-root: payoff still positive at the domain end t=20.0")
      for command in ("equilibrium", "study", "poa", "simulate", "whale")],
    (["bestresponse", "--family", "power", "--beta", "0.999", "--gamma", "1e-300",
      "--y", "1"], 3, "no-finite-root: payoff zero gamma**(-1/(1-beta)) overflows "
     "for PowerPayoff(beta=0.999, gamma=1e-300)"),
    # the closed route's equilibrium total overflows, and so does the zero
    (["equilibrium", "--family", "power", "--beta", "0.9973748341073528",
      "--gamma", "0.15021323171746095", "--n", "1"], 3,
     "no-finite-root: equilibrium total overflows for "
     "PowerPayoff(beta=0.9973748341073528, gamma=0.15021323171746095) at n=1"),
    (["equilibrium", *TABLE_0_10_20, "--fs", "0,nan,-5"],
     2, "config-error: bad table family parameters: knots must be finite"),
    # the price is 7/3 rounded up: f'(0) is one ulp below zero, and f is
    # nowhere positive
    (["poa", "--family", "cfmm", "--gamma", "1", "--r1", "3", "--r2", "7",
      "--price", "2.3333333333333335", "--n-values", "1:3"],
     3, "no-positive-region: payoff is nonpositive everywhere: f'(0) <= 0"),
    # each synchronous move stays on the table, three together do not
    (["simulate", "--family", "table", "--ts", "0,50,100,200,300,400",
      "--fs", "0,6,8,9,7,0", "--update-order", "synchronous", "--n", "3",
      "--trials", "2", "--seed", "4", "--max-iterations", "40"],
     4, "domain-exceeded: round 4: tender total 470.1846975261365 beyond last "
     "knot 400.0"),
]


@pytest.mark.parametrize("argv, code, line", ERROR_LINES, ids=[
    "simulate-budget-count", "study-budgeted-n-values", "table-lengths",
    "table-one-knot", "cfmm-price", "batch-no-demands", "batch-reserve",
    "table-nowhere-positive", "table-positive-end-equilibrium",
    "table-positive-end-study", "table-positive-end-poa",
    "table-positive-end-simulate", "table-positive-end-whale", "power-overflow",
    "power-total-overflow",
    "table-nan-knot", "poa-zero-payoff", "simulate-past-the-last-knot"])
def test_error_branches_print_one_line(capsys, argv, code, line):
    assert run(capsys, *argv) == (code, "", f"error: {line}\n")


def test_unreadable_config_files_exit_2(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert run(capsys, "equilibrium", "--config", str(missing)) == (
        2, "", f"error: config-error: cannot read config {missing}: [Errno 2] "
               f"No such file or directory: '{missing}'\n")
    broken = tmp_path / "broken.json"
    broken.write_text("not json")
    assert run(capsys, "equilibrium", "--config", str(broken)) == (
        2, "", f"error: config-error: config {broken} is not valid JSON: "
               "Expecting value: line 1 column 1 (char 0)\n")
    listed = tmp_path / "listed.json"
    listed.write_text("[1, 2]")
    assert run(capsys, "equilibrium", "--config", str(listed)) == (
        2, "", "error: config-error: config root must be a JSON object\n")


def test_unreadable_batch_input_exits_2(capsys, tmp_path):
    pool = ["--gamma", "0.99", "--r1", "200", "--r2", "250"]
    wrong = tmp_path / "wrong.csv"
    wrong.write_text("id,delta\n1,5\n")
    assert run(capsys, "batch", "--input", str(wrong), *pool) == (
        2, "", "error: config-error: batch input needs columns trader_id, delta\n")
    missing = tmp_path / "missing.csv"
    assert run(capsys, "batch", "--input", str(missing), *pool) == (
        2, "", f"error: config-error: cannot read {missing}: [Errno 2] "
               f"No such file or directory: '{missing}'\n")


def test_family_flags_beside_a_config_family_exit_2(capsys, tmp_path):
    # a flag cannot change one parameter of the config file's family object
    path = tmp_path / "fam.json"
    path.write_text(json.dumps({"family": POWER_SPEC}))
    assert run(capsys, "equilibrium", "--config", str(path), "--beta", "0.9") == (
        2, "", "error: config-error: --beta needs --family: the config file "
               "gives the family as one object\n")


@pytest.mark.parametrize("key, value", [("samples", "300"), ("seed", "5")])
def test_verify_reads_no_sampling_flags(capsys, tmp_path, key, value):
    # the built-in kinds get exact verdicts, and a callable, the one family
    # that is sampled, cannot be given on the command line
    code, out, err = run(capsys, "verify", *POWER, f"--{key}", value)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: unrecognized arguments: --{key} {value}\n")
    assert _with_config(capsys, tmp_path, "verify", {
        "family": POWER_SPEC, key: int(value)}) == (
        2, "", f"error: config-error: unknown config keys for verify: ['{key}']\n")


def test_verify_with_no_conditions_exits_2(capsys, tmp_path):
    assert run(capsys, "verify", *POWER, "--conditions", ",") == (
        2, "", "error: config-error: --conditions: no values in ','\n")
    code, out, err = _with_config(capsys, tmp_path, "verify",
                                  {"family": POWER_SPEC, "conditions": []})
    assert (code, out, err) == (
        2, "", "error: config-error: --conditions: no values in []\n")


def test_output_and_format_are_checked_before_the_command_runs(
        capsys, tmp_path, monkeypatch):
    def never(*args):
        pytest.fail("the command ran")

    monkeypatch.setitem(FIGURES, "scenario2-delta", (never, "power", never))
    monkeypatch.setattr("prorata.cli._resolve_family", never)
    missing = tmp_path / "no" / "x.csv"
    for target in (missing, tmp_path):
        code, out, err = run(capsys, "reproduce", "scenario2-delta",
                             "--output", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: config-error: cannot write {target}: [Errno ")
    assert not missing.parent.exists()
    assert _with_config(capsys, tmp_path, "study",
                        {"family": CFMM_SPEC, "format": "xml"}) == (
        2, "", "error: config-error: --format: expected one of {csv,table}, "
               "got 'xml'\n")


def test_output_file_is_left_alone_when_the_command_fails(capsys, tmp_path):
    path = tmp_path / "kept.csv"
    path.write_text("earlier\n")
    code, _, _ = run(capsys, "equilibrium", *TABLE_0_10_20, "--fs", "0,5,8",
                     "--output", str(path))
    assert code == 3 and path.read_text() == "earlier\n"
    code, _, _ = run(capsys, "equilibrium", *TABLE_0_10_20, "--fs", "0,5,8",
                     "--output", str(tmp_path / "new.csv"))
    assert code == 3 and not (tmp_path / "new.csv").exists()


def test_a_power_family_with_a_far_zero_runs_poa_and_simulate(capsys):
    # the zero of f is 0.001**-5 = 1e15: the root search doubles from t = 1
    # up to it, past any fixed multiple of its start; for poa also 10**-100,
    # which the positive-point scan reaches halving down from t = 1
    for beta, gamma in (("0.8", "0.001"), ("0.99", "10")):
        family = ["--family", "power", "--beta", beta, "--gamma", gamma]
        code, out, err = run(capsys, "poa", *family, "--n-values", "1:4",
                             "--format", "csv")
        assert (code, err) == (0, "")
        assert [float(r["poa"]) for r in rows_of(out)] == pytest.approx(
            [power_poa_closed_form(float(beta), n) for n in range(1, 5)], rel=1e-9)
    code, out, err = run(capsys, "simulate", "--family", "power", "--beta", "0.8",
                         "--gamma", "0.001", "--n", "3", "--format", "csv")
    assert (code, err) == (0, "") and len(rows_of(out)) > 3


def test_whale_without_a_positive_fair_payoff_exits_3(capsys):
    # f'(0) is one ulp below zero (the price is 7/3 rounded up): there is
    # no fair payoff for the percentage columns to divide by
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(
            capsys, "whale", "--family", "cfmm", "--gamma", "1", "--r1", "3",
            "--r2", "7", "--price", "2.3333333333333335", "--n-fish-values", "1:3",
            "--trials", "3", "--format", "csv")
    assert (code, out) == (3, "")
    assert err == ("error: no-positive-region: payoff is nonpositive everywhere: "
                   "f'(0) <= 0\n")
    assert caught == []
