#!/usr/bin/env python3
"""Run one benchmark workload in alternating pairs: a base commit against
the working tree.

    python3 scripts/bench_pairs.py --workload study-power --pairs 10 --seed 3
    python3 scripts/bench_pairs.py --workload one-shot --base HEAD --seconds 8

The base (default ``HEAD~1``, the parent of a committed change; pass
``--base HEAD`` for uncommitted work) is checked out into a temporary
``git worktree``, which is removed at the end. Each pair runs
``perfbench/run.py`` once in each checkout, untraced, alternating which side
goes first. For every end-to-end metric in ``BENCHMARK.json`` the script
prints each side's median and quartiles, the change's wins (ties count for
neither side), and whether a gain is shown: at least nine tenths of the
pairs won and medians further apart than the base's quartile spread.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _git(*args: str) -> str:
    proc = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                          text=True, check=True)
    return proc.stdout.strip()


def _run(checkout: Path, args) -> dict:
    """One untraced run in ``checkout``; returns its result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "0"]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _report(name: str, better: str, base: list[float], change: list[float]) -> str:
    b1, bm, b3 = _quartiles(base)
    c1, cm, c3 = _quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - b) > 0.0 for b, c in zip(base, change))
    shown = wins >= 0.9 * len(base) and sign * (cm - bm) > b3 - b1
    ratio = cm / bm if bm else float("nan")
    return (f"{name:20s} base {bm:.6g} [{b1:.6g}, {b3:.6g}]  "
            f"change {cm:.6g} [{c1:.6g}, {c3:.6g}]  change/base {ratio:.4f}  "
            f"wins {wins}/{len(base)}  gain shown: {'yes' if shown else 'no'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--base", default="HEAD~1")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    base_rev = _git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    if subprocess.run(["git", "-C", str(ROOT), "diff", "--quiet", base_rev, "--",
                       "perfbench"]).returncode != 0:
        print("# warning: perfbench/ differs between the base and the working "
              "tree; each side runs its own")
    print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s "
          f"runs, {args.pairs} pairs; base {base_rev[:12]} against the "
          f"working tree at {ROOT}")

    values = {side: {m["name"]: [] for m in metrics} for side in ("base", "change")}
    failed = {"base": 0, "change": 0}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkout = Path(tmp) / "base"
        _git("worktree", "add", "--detach", str(checkout), base_rev)
        try:
            sides = {"base": checkout, "change": ROOT}
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                line = []
                for side in order:
                    result = _run(sides[side], args)
                    failed[side] += result["failed"]
                    for name, series in values[side].items():
                        series.append(result["metrics"][name]["value"])
                    line.append(f"{side} {result['metrics']['ops_per_s']['value']:.6g}")
                print(f"# pair {i + 1}: " + ", ".join(line) + " ops/s", flush=True)
        finally:
            _git("worktree", "remove", "--force", str(checkout))
    for m in metrics:
        print(_report(m["name"], m["better"], values["base"][m["name"]],
                      values["change"][m["name"]]))
    print(f"failed: base {failed['base']}, change {failed['change']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
