"""Two sets of benchmark runs, interleaved, with each metric's median and
quartiles per set.

    python3 perfbench/steadiness.py                      # same code twice
    python3 perfbench/steadiness.py --against ../parent  # parent (set A) vs this checkout (set B)

Run from the repository root.  For every seed and workload it runs set A
and set B back to back, alternating which goes first, so slow drift of
the machine falls on both sets alike.  The spread of a metric is the
distance between its first and third quartile as a share of its median;
the shift is set B's median over set A's, minus one.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{checkout} {workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> tuple[float, float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="runs per set and workload")
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="checkout measured as set A")
    args = parser.parse_args()
    checkouts = {"A": (args.against or ROOT).resolve(), "B": ROOT}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results: dict = {s: {w: [] for w in args.workloads} for s in "AB"}
    for k in range(args.seeds):
        seed = args.first_seed + k
        for workload in args.workloads:
            for side in ("AB" if k % 2 == 0 else "BA"):
                start = time.time()
                results[side][workload].append(
                    run(checkouts[side], workload, seed, args.seconds))
                print(f"seed {seed} {workload} set {side}: {time.time() - start:.0f} s",
                      file=sys.stderr, flush=True)

    log = HERE / "out" / f"steadiness-{int(time.time())}.json"
    log.parent.mkdir(parents=True, exist_ok=True)
    log.write_text(json.dumps({"args": vars(args) | {"against": str(args.against)},
                               "results": results}, indent=1))
    print(f"runs logged in {log}")
    worst_ok = True
    for workload in args.workloads:
        shares = {s: {(r["failed"], r["attempted"]) for r in results[s][workload]} for s in "AB"}
        failed_share = {s: {f / a for f, a in shares[s]} for s in "AB"}
        same_share = len(failed_share["A"] | failed_share["B"]) == 1
        correct = all(r["correct"] for s in "AB" for r in results[s][workload])
        print(f"\n{workload}: correct {correct}, failed share the same in every run: {same_share}")
        worst_ok &= correct and same_share
        for name in results["A"][workload][0]["metrics"]:
            line = [f"  {name:38s}"]
            medians = {}
            for side in "AB":
                values = [r["metrics"][name]["value"] for r in results[side][workload]]
                median, q1, q3 = summary(values)
                medians[side] = median
                spread = (q3 - q1) / median if median else 0.0
                line.append(f"{side}: {median:.5g} [{q1:.5g}, {q3:.5g}] spread {spread:6.1%}")
            shift = medians["B"] / medians["A"] - 1 if medians["A"] else 0.0
            bound = bounds.get(name)
            line.append(f"shift {shift:+6.1%}" + (f" (bound {bound:.0%})" if bound else ""))
            print("  ".join(line))
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
