#!/usr/bin/env python3
"""Regenerate the four reference experiment CSVs.

Writes, into --outdir (default figures/):

  scenario1.csv        iterations to converge vs crowd size n, cfmm defaults
  scenario2_delta.csv  iterations to converge vs per-step movement cap delta
  whale.csv            one deep-pocketed player vs budgeted fish, 1..20 fish
  poa_curve.csv        equilibrium vs fair-split payoff and their ratio vs n

Everything goes through `prorata reproduce <figure>`; rerunning with the
same seed is byte-identical, so diffing against a previous output directory
is a cheap regression check.
"""

from __future__ import annotations

import argparse
import pathlib
import sys
import time

from prorata.cli import FIGURES
from prorata.cli import main as prorata_main


def run(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--outdir", type=pathlib.Path, default=pathlib.Path("figures"))
    ap.add_argument("--trials", type=int,
                    help="trials per design point (default: the figure's own)")
    ap.add_argument("--seed", type=int, help="default: the figure's own")
    args = ap.parse_args(argv)

    args.outdir.mkdir(parents=True, exist_ok=True)
    for figure in FIGURES:
        out = args.outdir / f"{figure.replace('-', '_')}.csv"
        cli = ["reproduce", figure, "--output", str(out)]
        for flag in ("trials", "seed"):
            if getattr(args, flag) is not None:
                cli += [f"--{flag}", str(getattr(args, flag))]
        t0 = time.perf_counter()
        code = prorata_main(cli)
        if code != 0:
            print(f"{figure}: exit code {code}", file=sys.stderr)
            return code
        print(f"{figure:16s} -> {out}  ({time.perf_counter() - t0:.1f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(run())
