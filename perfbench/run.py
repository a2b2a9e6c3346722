"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload quantifier-wall --seed 1 --seconds 20 --trace 0

Run it from the repository root.  It times the package's set-up in
several fresh processes and then runs the workload in one more, each with
a fixed PYTHONHASHSEED, and prints {"correct", "attempted", "failed",
"metrics"} as its last line.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 the per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("quantifier-wall", "witness-roundtrip", "harness")
SETUPS = 5
SETUP_TIMEOUT_S = 60


def worker_command(role: str, args: argparse.Namespace) -> list[str]:
    return [sys.executable, str(WORKER), role, "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]


def time_setup(args: argparse.Namespace, env: dict) -> float:
    """Seconds from starting a fresh process to its corpus being ready."""
    start = time.perf_counter()
    with subprocess.Popen(worker_command("setup", args), cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            _, err = proc.communicate(timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise SystemExit("set-up timed out")
    if line.strip() != "ready" or proc.returncode != 0:
        raise SystemExit(f"set-up failed:\n{err}")
    return ready - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "corgal" / "__init__.py").is_file():
        print(f"error: no corgal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (HERE / "pool.json").is_file():
        print("error: perfbench/pool.json is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED="0")

    setups = [time_setup(args, env) for _ in range(SETUPS)] if not args.trace else []
    try:
        proc = subprocess.run(worker_command("measure", args), cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=args.seconds + 120)
    except subprocess.TimeoutExpired:
        print("error: the workload did not finish in time", file=sys.stderr)
        return 1
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"error: workload process exited with {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    metrics = result["metrics"]
    if setups:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"}, **metrics}
    print(f"round wall times (s): {result['round_walls']}")
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
