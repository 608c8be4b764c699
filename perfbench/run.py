"""Benchmark of the prorata library and CLI.

    python3 perfbench/run.py --workload study-power --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program is imported from
``src/``. Each workload runs in a fresh single-threaded interpreter
(worker.py). With ``--trace 0`` the run reports the end-to-end metrics,
their times scaled to a reference machine speed (calibrate.py); with
``--trace 1`` the per-layer ones. Every line before the last is a
comment starting with ``#``; the last line is the result as JSON:
``{"correct", "attempted", "failed", "metrics"}``. Runs leave their
records under ``.bench_build/perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ("study-power", "study-cfmm", "one-shot")
SETUP_SAMPLES = 5           # extra fresh interpreters timed to ready
CHILD_TIMEOUT_S = 170
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
MIN_DIGITS = 12.0           # accuracy below this is a wrong answer


def _env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env["PERFBENCH_SRC"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker(args, extra: list[str]) -> tuple[dict, float]:
    """Run one worker; return its result and its launch time."""
    argv = [sys.executable, str(HERE / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out", str(OUT), *(["--tiny"] if args.tiny else []), *extra]
    launched = time.monotonic()
    proc = subprocess.run(argv, env=_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), launched


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired) as exc:
        return f"unknown ({exc})"
    return proc.stdout.strip() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="smallest inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "prorata" / "__init__.py").is_file():
        print(f"no program source at {SRC}/prorata", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)

    # stays free of numpy: a child's peak RSS starts from this process's
    from metrics import END_TO_END, PER_LAYER, units

    setups, raw_setups = [], []

    def note_setup(ready: dict, launched: float) -> None:
        raw_setups.append(ready["ready"] - launched)
        setups.append(raw_setups[-1] * ready["to_reference"])

    if not args.trace:
        # the first interpreter also writes the bytecode caches; not counted
        _worker(args, ["--setup-only"])
        for _ in range(SETUP_SAMPLES):
            note_setup(*_worker(args, ["--setup-only"]))
    result, launched = _worker(args, [])
    note_setup(result, launched)

    names = list(PER_LAYER) if args.trace else list(END_TO_END)
    values = dict(result["metrics"])
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    unit = units()
    metrics = {name: {"value": values[name], "unit": unit[name]} for name in names}

    correct = result["failed"] == 0
    if not args.trace and values["min_correct_digits"] < MIN_DIGITS:
        correct = False
        result["problems"].append(
            f"min_correct_digits {values['min_correct_digits']} < {MIN_DIGITS}")

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny,
        "python": result["python"], "numpy": result["numpy"],
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(), "src_sha256": _src_digest(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    record = {"env": env, "passes": result["passes"],
              "setup_samples_s": setups, "raw_setup_samples_s": raw_setups,
              "pass_rates": result.get("pass_rates"),
              "raw_ops_per_s": result.get("raw_ops_per_s"),
              "problems": result["problems"], "missing": result.get("missing", []),
              "self_time_check": result.get("self_time_check"),
              "correct": correct, "attempted": result["attempted"],
              "failed": result["failed"], "metrics": metrics}
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# env {json.dumps(env)}")
    print(f"# passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']} failed_frac="
          f"{result['failed'] / max(1, result['attempted']):.6g}")
    rates = sorted(result.get("pass_rates", []))
    if len(rates) >= 20:
        # the slowest decile still has at least two passes beyond it
        print(f"# ops/s at reference speed over {len(rates)} passes: median "
              f"{statistics.median(rates):.6g}, 10th percentile "
              f"{rates[len(rates) // 10]:.6g}")
    if not args.trace:
        print(f"# as measured, unscaled: ops/s {result['raw_ops_per_s']:.6g}, "
              f"setup s {statistics.median(raw_setups):.6g}; machine at "
              f"{result['to_reference']:.3f} of reference speed")
    for problem in result["problems"]:
        print(f"# problem: {problem}")
    if result.get("missing"):
        print(f"# missing (metrics read -1): {', '.join(result['missing'])}")
    for name, m in metrics.items():
        print(f"# {name:40s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
