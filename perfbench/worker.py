"""One workload in one fresh interpreter; started by run.py.

The worker imports the program, makes the workload's inputs from the
seed, warms up, and notes the monotonic clock at that point (run.py
subtracts its own clock at launch to get the set-up time). Then:

* untraced (``--trace 0``): runs passes until ``--seconds`` have passed,
  each after one round of the calibration loop, and reports the median
  over passes of ops per reference second (calibrate.py);
* traced (``--trace 1``): runs each traced pass twice, untraced and then
  through the tracer, in whole cycles until ``--seconds`` have passed, and
  reports the per-layer metrics of the traced passes.

The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import prorata
from calibrate import REFERENCE_S, calibration_seconds, to_reference
from metrics import layer_metrics
from tracer import ROOT, Tracer
from workloads import WORKLOADS, Checked, Facts, reference_accuracy

MIN_PASSES = 3
PROBE_FAMILIES = 24
PROBE_PROCESSES = 5
MAX_PROBLEMS = 10


def _record(checked: Checked, ops: int, totals: dict) -> None:
    totals["attempted"] += ops
    totals["failed"] += min(ops, checked.failed)
    room = MAX_PROBLEMS - len(totals["problems"])
    totals["problems"].extend(checked.problems[:max(0, room)])


def _timed(workload, index: int):
    t0 = time.perf_counter()
    out = workload.run(index)
    return out, time.perf_counter() - t0


def untraced(workload, seconds: float) -> dict:
    totals = {"attempted": 0, "failed": 0, "problems": []}
    rates, raw_rates = [], []
    start = time.perf_counter()
    while True:
        index = len(rates) % workload.passes
        calibration = calibration_seconds()
        out, dt = _timed(workload, index)
        ops = workload.ops(index)
        raw_rates.append(ops / dt)
        rates.append(ops / dt * calibration / REFERENCE_S)
        _record(workload.check(index, out), ops, totals)
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(rates) >= min(MIN_PASSES, workload.passes):
            break
    accuracy = reference_accuracy()
    return {
        **totals,
        "passes": len(rates),
        "pass_rates": rates,
        "raw_ops_per_s": statistics.median(raw_rates),
        "metrics": {
            "ops_per_s": statistics.median(rates),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "min_correct_digits": accuracy["min_correct_digits"],
        },
    }


def _fresh_families(seed: int) -> list:
    rng = np.random.default_rng([seed, 0xD1A6])
    families = []
    for i in range(PROBE_FAMILIES):
        if i % 2:
            families.append(prorata.PowerPayoff(float(rng.uniform(0.2, 0.8)),
                                                float(rng.uniform(0.02, 0.2))))
        else:
            g, r1, r2 = (float(v) for v in (rng.uniform(0.97, 1.0),
                                            rng.uniform(100.0, 400.0),
                                            rng.uniform(100.0, 400.0)))
            families.append(prorata.CfmmArbitragePayoff(
                g, r1, r2, float(rng.uniform(0.3, 0.9)) * g * r2 / r1))
    return families


def _median_child_seconds(argv: list[str], check) -> float:
    """Median wall seconds of fresh processes running ``argv``; ``check``
    reads each one's stdout and may return the figure to use instead."""
    values = []
    for _ in range(PROBE_PROCESSES):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=60)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[1:3]} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        values.append(check(proc.stdout, wall))
    return statistics.median(values)


def cli_probes() -> dict:
    py = sys.executable
    import_code = ("import time; t0 = time.perf_counter(); import prorata.cli; "
                   "print(time.perf_counter() - t0)")

    def expect_closed_form(stdout, wall):
        if "closed-form-power" not in stdout:
            raise RuntimeError(f"unexpected equilibrium output {stdout!r}")
        return wall

    return {
        "cli.import_s": _median_child_seconds(
            [py, "-c", import_code], lambda out, wall: float(out.strip())),
        "cli.process_s": _median_child_seconds(
            [py, "-m", "prorata.cli", "equilibrium", "--family", "power",
             "--beta", "0.5", "--gamma", "0.05", "--n", "10"],
            expect_closed_form),
    }


def traced(workload, seconds: float, seed: int, spans_path: Path) -> dict:
    tracer = Tracer()
    totals = {"attempted": 0, "failed": 0, "problems": []}
    facts = Facts()
    ratios, traced_ops, traced_passes = [], 0, 0
    start = time.perf_counter()
    while traced_passes == 0 or time.perf_counter() - start < seconds:
        for index in range(workload.traced_passes):
            ops = workload.ops(index)
            out, plain = _timed(workload, index)
            _record(workload.check(index, out), ops, totals)
            with tracer.installed(), tracer.root():
                out, dt = _timed(workload, index)
            checked = workload.check(index, out)
            _record(checked, ops, totals)
            facts.add(checked.facts)
            ratios.append(dt / plain)
            traced_ops += ops
            traced_passes += 1
    stats = tracer.take()
    roots = stats[ROOT].incl
    self_sum = sum(s.self for s in stats.values())
    if abs(self_sum - roots) > 1e-9 * roots:
        totals["problems"].append(
            f"span self times sum to {self_sum!r}, root spans to {roots!r}")
        totals["failed"] += 1

    with tracer.installed():
        for family in _fresh_families(seed):
            prorata.payoff.diagnostics(family)
    probe = tracer.take()
    span_count = tracer.write_spans(spans_path)

    extra = {
        **cli_probes(),
        **reference_accuracy(),
        "passes": traced_passes,
        "trace.overhead_frac": statistics.median(ratios) - 1.0,
    }
    return {
        **totals,
        "passes": traced_passes,
        "missing": tracer.missing,
        "spans": span_count,
        "self_time_check": {"root_s": roots, "self_sum_s": self_sum},
        "metrics": layer_metrics(stats, probe, facts, traced_ops,
                                 tracer.missing, extra),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    src = Path(prorata.__file__).resolve().parent.parent
    expected = Path(os.environ.get("PERFBENCH_SRC", src)).resolve()
    if src != expected:
        print(f"imported prorata from {src}, expected {expected}", file=sys.stderr)
        return 3

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    workload.warm_up()
    ready = time.monotonic()
    scale = to_reference()
    if args.setup_only:
        print(json.dumps({"ready": ready, "to_reference": scale}))
        return 0

    if args.trace:
        spans = args.out / f"spans-{args.workload}-seed{args.seed}.json"
        result = traced(workload, args.seconds, args.seed, spans)
    else:
        result = untraced(workload, args.seconds)
    result.update(ready=ready, to_reference=scale, numpy=np.__version__,
                  python=sys.version.split()[0])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
