"""Regenerate pool.json: the candidate cases of every workload, their cost
weights and the reference evaluator's expected verdicts.

    python3 perfbench/regen.py

Run from the repository root.  The weight of a case is the median of its
times over PASSES timing passes, each a fresh process that runs every
candidate of a workload once, in an order shuffled per pass, the way a
benchmark run does; passes follow one another, so drift of the machine
speed spreads over all cases alike.  The memory of a case is the peak
resident size of a fresh process that runs it once.  Weights and memory
only steer which cases a seed draws, so every commit later measured with
the same pool gets the same corpus for a given seed.  Regenerating
changes the corpora, so it belongs with a change to the benchmark, never
with a change that claims a gain.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corgal  # noqa: E402
import corgal.cli  # noqa: E402

import corpus  # noqa: E402
import reference as ref  # noqa: E402

QUANTIFIER_SEEDS = range(40)
QUANTIFIER_MAX_WEIGHT_S = 1.0
WITNESS_SEEDS = range(60)
WITNESS_STATES = (6, 7, 8)
WITNESS_ATOMS = (1, 2)
# 4 rounds make multi-million-character witnesses; 5 rounds one of 54 M.
WITNESS_ROUNDS = (1, 2, 3)
HARNESS_SEEDS = range(40)
PASSES = 5
OUT = HERE / "out" / "regen"
CANDIDATES = OUT / "candidates.json"


def timed(argv: list[str]) -> tuple[float, int, str]:
    """Peak resident MB of a fresh process running the command once, and
    the exit code and output of one run in this process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = corgal.cli.main(argv)
    fresh = subprocess.run([sys.executable, "-c", _PEAK_RSS, *argv], cwd=HERE.parent,
                           capture_output=True, text=True, check=True, timeout=600)
    return int(fresh.stdout) / 1024, code, buf.getvalue()


def time_pass(workload: str, number: int) -> dict[str, float]:
    """Seconds of one run of every candidate, in a fresh process."""
    proc = subprocess.run([sys.executable, __file__, "--time-pass", workload, str(number)],
                          cwd=HERE.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def run_time_pass(workload: str, number: int) -> int:
    import worker

    candidates = json.loads(CANDIDATES.read_text())[workload]
    cases = [dict(c, stratum=s) for s, members in candidates.items() for c in members]
    random.Random(number).shuffle(cases)
    cases = corpus.set_up(corgal, workload, cases, OUT / f"pass-{workload}")
    seconds = {}
    for case in cases:
        gc.collect()
        start = time.perf_counter()
        worker.call(corgal, case["argv"])
        seconds[case["id"]] = time.perf_counter() - start
    print(json.dumps(seconds))
    return 0


_PEAK_RSS = """
import contextlib, io, sys
sys.path.insert(0, "src")
import corgal.cli
with contextlib.redirect_stdout(io.StringIO()):
    corgal.cli.main(sys.argv[1:])
with open("/proc/self/status") as status:
    print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def write(name: str, text: str) -> str:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{name}.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def quantifier_pool() -> dict:
    pool: dict = {}
    for shape, (text, n) in corpus.QUANTIFIER_SHAPES.items():
        pool[shape] = []
        for seed in QUANTIFIER_SEEDS:
            case = {"id": f"{shape}-s{seed}", "model": [seed, n, 3, 3], "state": "s0",
                    "formula": text}
            doc_text = corpus.model_text(corgal, case)
            doc = json.loads(doc_text)
            r = ref.Reference(ref.Model(doc), budget=corpus.REFERENCE_BUDGET)
            try:
                expected = r.holds("s0", ref.parse(text))
                over = False
            except ref.BudgetExceeded:
                expected, over = None, True
            memory, code, out = timed(["check", "--model", write(case["id"], doc_text),
                                       "--state", "s0", "--formula", text])
            if code not in (0, 1) or (not over and (code == 0) != expected):
                raise SystemExit(f"{case['id']}: program disagrees with the reference: {out!r}")
            print(f"{case['id']}: reference {expected}, work {r.work}", flush=True)
            pool[shape].append(dict(case, memory=round(memory, 2), expected=expected,
                                    over_budget=over, fingerprint=corpus.canonical(doc)))
    return pool


def has_witness(f, verdict: bool) -> bool:
    # every witness formula has condition top, so the condition holds
    return verdict if f[0] in ("coaldual", "groupdual") else not verdict


def witness_pool() -> dict:
    pool: dict = {f"rounds-{k}": [] for k in WITNESS_ROUNDS}
    for n in WITNESS_STATES:
        for atoms in WITNESS_ATOMS:
            for seed in WITNESS_SEEDS:
                model_spec = [seed, n, 3, atoms]
                doc_text = corpus.model_text(corgal, {"model": model_spec})
                doc = json.loads(doc_text)
                model = ref.Model(doc)
                _, rounds = ref.refine(model, model.full)
                if rounds not in WITNESS_ROUNDS:
                    continue
                for k, text in enumerate(corpus.WITNESS_FORMULAS):
                    f = ref.parse(text)
                    verdict = ref.Reference(model).holds("s0", f)
                    if not has_witness(f, verdict):
                        continue
                    case = {"id": f"w{k}-s{seed}-n{n}-a{atoms}", "model": model_spec,
                            "state": "s0", "formula": text}
                    memory, code, out = timed(["witness", "--model", write(case["id"], doc_text),
                                               "--state", "s0", "--formula", text])
                    case = dict(case, memory=round(memory, 2), expected=verdict,
                                over_budget=False, fingerprint=corpus.canonical(doc),
                                document=doc_text)
                    reason = corpus.check_witness(case, code, out)
                    if reason:
                        raise SystemExit(f"{case['id']}: {reason}")
                    del case["document"]
                    print(f"{case['id']}: rounds {rounds}, {len(out)} chars", flush=True)
                    pool[f"rounds-{rounds}"].append(case)
    return pool


def harness_pool() -> dict:
    pool: dict = {}
    for suite, count in corpus.HARNESS_SUITES.items():
        pool[suite] = []
        for seed in HARNESS_SEEDS:
            argv = ["suite", suite, "--seed", str(seed), "--count", str(count)]
            memory, code, out = timed(argv)
            report = json.loads(out[out.index("{"):])
            if code != 0 or report["failures"] or report["skipped"]:
                raise SystemExit(f"suite {suite} seed {seed} did not pass cleanly")
            print(f"{suite} seed {seed}: passed", flush=True)
            pool[suite].append({"id": f"{suite}-s{seed}", "suite": suite, "seed": seed,
                                "memory": round(memory, 2)})
    return pool


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if sys.argv[1:2] == ["--time-pass"]:
        return run_time_pass(sys.argv[2], int(sys.argv[3]))
    pool = {
        "quantifier-wall": quantifier_pool(),
        "witness-roundtrip": witness_pool(),
        "harness": harness_pool(),
    }
    CANDIDATES.write_text(json.dumps(pool))
    times: dict[str, list[float]] = {}
    for number in range(PASSES):
        for workload in corpus.WORKLOADS:
            for case_id, seconds in time_pass(workload, number).items():
                times.setdefault(case_id, []).append(seconds)
        print(f"timing pass {number + 1} of {PASSES} done", flush=True)
    for workload in corpus.WORKLOADS:
        for stratum, members in pool[workload].items():
            for case in members:
                case["weight"] = round(statistics.median(times[case["id"]]), 4)
    pool["quantifier-wall"] = {
        shape: [c for c in members if c["weight"] <= QUANTIFIER_MAX_WEIGHT_S]
        for shape, members in pool["quantifier-wall"].items()
    }
    pool["reference_budget"] = corpus.REFERENCE_BUDGET
    with open(corpus.POOL_PATH, "w", encoding="utf-8") as handle:
        json.dump(pool, handle, indent=1, sort_keys=True)
        handle.write("\n")
    for workload in corpus.WORKLOADS:
        sizes = {k: len(v) for k, v in pool[workload].items()}
        print(f"{workload}: {sizes}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
