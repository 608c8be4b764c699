#!/usr/bin/env python3
"""Compare the CLI's output between a base source tree and the working tree.

    python3 scripts/cli_diff.py --base-src ../base/src
    python3 scripts/cli_diff.py --base-src ../base/src my_commands.txt

Each nonblank line of the command file (default
``scripts/cli_commands.txt``) that does not start with ``#`` holds the
arguments of one ``python -m prorata.cli`` run, split as a shell would.
Every command runs twice from the repository root with ``COLUMNS=80``:
once with ``PYTHONPATH`` set to the base tree, once to the working tree's
``src``. Each command whose exit code, stdout or stderr differs is printed
with a diff of what moved, and the script exits 1 if any differs.
Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import os
import pathlib
import shlex
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(src: pathlib.Path, args: list[str]) -> tuple:
    env = {**os.environ, "PYTHONPATH": str(src), "COLUMNS": "80"}
    done = subprocess.run([sys.executable, "-m", "prorata.cli", *args],
                          cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode, done.stdout, done.stderr


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base-src", type=pathlib.Path, required=True,
                    help="the base tree's src directory")
    ap.add_argument("file", type=pathlib.Path, nargs="?",
                    default=ROOT / "scripts" / "cli_commands.txt",
                    help="one command per line (default: %(default)s)")
    args = ap.parse_args(argv)

    lines = [line.strip() for line in args.file.read_text().splitlines()]
    commands = [line for line in lines if line and not line.startswith("#")]
    differ = 0
    for line in commands:
        base, new = (_run(src.resolve(), shlex.split(line))
                     for src in (args.base_src, ROOT / "src"))
        if base == new:
            continue
        differ += 1
        print(f"differs: {line}")
        if base[0] != new[0]:
            print(f"  exit code {base[0]} -> {new[0]}")
        for name, old, now in zip(("stdout", "stderr"), base[1:], new[1:]):
            print("".join(difflib.unified_diff(
                old.splitlines(True), now.splitlines(True),
                f"base {name}", f"new {name}")), end="")
    print(f"{differ} of {len(commands)} commands differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
