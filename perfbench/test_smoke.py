"""Smoke tests of the benchmark itself.

    python3 -m pytest perfbench -q

Each workload runs at its tiny size in both modes; every metric named in
BENCHMARK.json must come out with its unit and the checks must pass.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import prorata  # noqa: E402
import prorata.dynamics  # noqa: E402
from metrics import END_TO_END, MISSING, PER_LAYER, layer_metrics, units  # noqa: E402
from tracer import ROOT as ROOT_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS, OneShot, StudyCfmm  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def test_spec_matches_the_metric_definitions():
    spec_units = {m["name"]: m["unit"]
                  for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert spec_units == units()
    assert [m["name"] for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run("--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, m in result["metrics"].items():
        # nothing is missing on this code
        assert isinstance(m["value"], float) and m["value"] >= 0.0, name


def test_run_without_the_program_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "one-shot", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_times_sum_to_the_root_span():
    workload = OneShot(5, tiny=True)
    workload.warm_up()
    original = prorata.solve_symmetric
    tracer = Tracer()
    with tracer.installed(), tracer.root():
        workload.run(0)
    assert prorata.solve_symmetric is original
    stats = tracer.take()
    assert stats["equilibrium.solve_symmetric.numeric"].calls > 0
    total = sum(s.self for s in stats.values())
    assert math.isclose(total, stats[ROOT_SPAN].incl, rel_tol=1e-9)


def test_traced_run_survives_a_removed_name(monkeypatch):
    monkeypatch.delattr(prorata.dynamics, "whale_fish_experiment")
    tracer = Tracer()
    assert "dynamics.whale_fish_experiment" in tracer.missing
    workload = StudyCfmm(3, tiny=True)
    workload.warm_up()
    with tracer.installed(), tracer.root():
        out = workload.run(0)
    checked = workload.check(0, out)
    assert checked.failed == 0
    extra = {"cli.import_s": 0.1, "cli.process_s": 0.2, "passes": 1,
             "near_boundary_digits": 3.7, "trace.overhead_frac": 0.1}
    metrics = layer_metrics(tracer.take(), {}, checked.facts, workload.ops(0),
                            tracer.missing, extra)
    assert metrics["dynamics.whale_ms_per_trial"] == MISSING
    assert metrics["dynamics.self_ms"] > 0.0
