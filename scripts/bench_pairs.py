#!/usr/bin/env python3
"""Run benchmark workloads in alternating pairs: a base commit against the
working tree.

    python3 scripts/bench_pairs.py --workload study-power --pairs 10 --seed 3
    python3 scripts/bench_pairs.py --workload one-shot --base HEAD --seconds 8
    python3 scripts/bench_pairs.py --workload all --pairs 5

``--workload`` takes one name, a comma-separated list, or ``all`` (every
workload in ``BENCHMARK.json``). The base (default ``HEAD~1``, the parent of
a committed change; pass ``--base HEAD`` for uncommitted work) is extracted
from ``git archive`` into a temporary directory, which goes at the end with
everything else the script wrote; nothing is written into the repository,
so no ``git worktree`` is left behind. Each pair runs ``perfbench/run.py``
once in each checkout, untraced, alternating which side goes first; each
side keeps its bytecode in its own cache in the temporary directory
(``PYTHONPYCACHEPREFIX``, writing on), so a ``__pycache__`` left in the
working tree does not lower its ``setup_s``.
For every end-to-end metric in ``BENCHMARK.json`` the script prints each
side's median and quartiles, the change's wins (ties count for neither
side), whether a gain is shown (at least nine tenths of the pairs won and
medians further apart than the base's quartile spread) and whether the
change's median is worse than the base's by more than the metric's
``bound``, relative to the base. Each workload ends with one verdict row
naming the metrics past their bound, and a failure count that rose, which
is what rejects a change; the script exits 1 when any workload's verdict
rejects. Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def _extract(rev: str, dest: Path) -> None:
    """Extract the committed tree of ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def _run(checkout: Path, pycache: Path, workload: str, args) -> dict:
    """One untraced run in ``checkout``; returns its result line. Bytecode
    is read and written under ``pycache`` only (writing on, as the run's
    uncounted first interpreter expects), so a stale ``__pycache__`` in one
    checkout cannot spare that side the compiling the other does."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0"]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    proc = subprocess.run(argv, cwd=checkout, env=env, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _beyond_bound(better: str, bound: float, base_median: float,
                  change_median: float) -> bool:
    """Whether the change's median is worse than the base's by more than
    ``bound``, relative to the base."""
    if better == "higher":
        return change_median < base_median * (1.0 - bound)
    return change_median > base_median * (1.0 + bound)


def _report(metric: dict, base: list[float], change: list[float]) -> str:
    """One row for a ``BENCHMARK.json`` end-to-end metric."""
    b1, bm, b3 = _quartiles(base)
    c1, cm, c3 = _quartiles(change)
    sign = 1.0 if metric["better"] == "higher" else -1.0
    wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    shown = wins >= 0.9 * len(base) and sign * (cm - bm) > b3 - b1
    beyond = _beyond_bound(metric["better"], metric["bound"], bm, cm)
    ratio = cm / bm if bm else float("nan")
    return (f"{metric['name']:20s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  change/base {ratio:.4f}  "
            f"wins {wins}/{len(base)}  gain shown: {'yes' if shown else 'no'}  "
            f"worse than bound {metric['bound']:g}: {'yes' if beyond else 'no'}")


def _verdict(workload: str, metrics: list[dict], values: dict, failed: dict) -> str:
    """The workload's one verdict row: the metrics whose change median is
    worse than the base's beyond their bound, and a failure count that rose."""
    flagged = [m["name"] for m in metrics
               if _beyond_bound(m["better"], m["bound"],
                                _quartiles(values["base"][m["name"]])[1],
                                _quartiles(values["change"][m["name"]])[1])]
    if failed["change"] > failed["base"]:
        flagged.append(f"failed ops {failed['base']} -> {failed['change']}")
    return (f"verdict {workload}: "
            + (f"REJECT ({', '.join(flagged)})" if flagged else "within bounds"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        help="a name, a comma-separated list, or 'all'")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--base", default="HEAD~1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if not args.seconds > 0.0:
        parser.error("--seconds must be positive")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [w["name"] for w in bench["workloads"]]
    workloads = known if args.workload == "all" else args.workload.split(",")
    unknown = [w for w in workloads if w not in known]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; known: {known}")
    metrics = bench["end_to_end"]
    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    if _git("diff", "--name-only", base_rev, "--", "perfbench"):
        print("# warning: perfbench/ differs between the base and the working "
              "tree; each side runs its own")

    verdicts = []
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkout = Path(tmp) / "base"
        _extract(base_rev, checkout)
        sides = {"base": checkout, "change": ROOT}
        for workload in workloads:
            print(f"# workload {workload}, seed {args.seed}, {args.seconds:g} s "
                  f"runs, {args.pairs} pairs; base {base_rev[:12]} against the "
                  f"working tree at {ROOT}")
            values = {side: {m["name"]: [] for m in metrics}
                      for side in ("base", "change")}
            failed = {"base": 0, "change": 0}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                line = []
                for side in order:
                    result = _run(sides[side], Path(tmp) / "pycache" / side,
                                  workload, args)
                    failed[side] += result["failed"]
                    for name, series in values[side].items():
                        series.append(result["metrics"][name]["value"])
                    line.append(f"{side} "
                                f"{result['metrics']['ops_per_s']['value']:.6g}")
                print(f"# pair {i + 1}: " + ", ".join(line) + " ops/s", flush=True)
            for m in metrics:
                print(_report(m, values["base"][m["name"]],
                              values["change"][m["name"]]))
            print(f"failed: base {failed['base']}, change {failed['change']}")
            verdicts.append(_verdict(workload, metrics, values, failed))
    print("\n".join(verdicts))
    return 1 if any("REJECT" in verdict for verdict in verdicts) else 0


if __name__ == "__main__":
    sys.exit(main())
