"""Benchmark of the aurifeuille package: one command, four workloads.

    python3 perfbench/run.py --workload factor|split|verify|oracle \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its
``src/`` directory.  A run starts single-threaded worker processes
(worker.py) one after another: six that only time set-up, then one that
times set-up and runs the workload for S seconds.  A traced run starts
only the last.  Times are in reference seconds (see calibrate.py).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code
is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("factor", "split", "verify", "oracle")
SETUP_SAMPLES = 7
DEADLINE_S = 170


def unit(metric: str) -> str:
    if metric.endswith("_mb"):
        return "MB"
    return "s" if metric.endswith("_s") else "count"


def start_worker(args):
    """Start one worker; return it and its set-up time, in reference
    seconds, once it is ready."""
    command = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--src", str(ROOT / "src"),
        "--spans", str(HERE / "results" / f"spans-{args.workload}-{args.seed}.json.gz"),
    ]
    before = calibrate.chunk_seconds()
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        setup = time.perf_counter() - t0
        if line.strip() != "ready":
            raise RuntimeError("worker did not get ready")
        after = calibrate.chunk_seconds()
    except BaseException:
        stop(proc)
        raise
    return proc, setup * calibrate.REFERENCE_S * 2 / (before + after)


def finish(proc, command: str, deadline: float) -> str:
    """Send the worker its command and return its output once it has ended."""
    try:
        out, _ = proc.communicate(command + "\n", timeout=max(1.0, deadline - time.monotonic()))
    except BaseException:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def stop(proc) -> None:
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "aurifeuille" / "__init__.py").is_file():
        print(f"error: no program at {ROOT / 'src' / 'aurifeuille'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            proc, setup = start_worker(args)
            finish(proc, "exit", deadline)
            setups.append(setup)
    proc, setup = start_worker(args)
    setups.append(setup)
    raw = json.loads(finish(proc, "run", deadline).splitlines()[-1])

    for problem in raw["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for label in raw["failed_ops"]:
        print(f"failed operation: {label}", file=sys.stderr)
    if args.trace:
        values = raw["layers"]
    else:
        values = {
            "wall_s": raw["wall_ref_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": raw["peak_rss_mb"],
        }
    metrics = {k: {"value": v, "unit": unit(k)} for k, v in values.items()}
    print(f"{args.workload}: pass seconds " + " ".join(f"{t:.3f}" for t in raw["pass_s"]))
    print(f"{args.workload}: pass reference seconds " + " ".join(f"{sum(t):.3f}" for t in raw["op_ref_s"]))
    if args.trace:
        print(f"{args.workload}: traced pass seconds " + " ".join(f"{t:.3f}" for t in raw["traced_pass_s"]))
    result = {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
