"""Workload definitions: the candidate pools, the seeded stratified
selection of a run's cases, the set-up that turns cases into model files,
and the checks on each case's output.

A run's corpus is drawn from a fixed pool stored in pool.json.  Each
stratum of the pool is sorted by its cost weight and cut into equal bins,
and the run's seed picks one case per bin.  Every seed therefore gets
different models with the same spread of costs, which keeps the per-run
totals comparable across seeds.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
from pathlib import Path

import reference as ref

HERE = Path(__file__).resolve().parent
POOL_PATH = HERE / "pool.json"
WORKLOADS = ("quantifier-wall", "witness-roundtrip", "harness")

# Reference work budget: restricted models whose group-knowledge sets the
# reference may compute for one case.  Cases above it are checked by the
# dual and bisimulation properties on every run instead.
REFERENCE_BUDGET = 2_000

QUANTIFIER_SHAPES = {
    # name: (formula, states)
    "single-coalition": ("<[{a0,a1}]> (K a2 p0 | K a0 p1)", 12),
    "nested-coalition": ("<[{a0}]> <[{a1}]> K a2 p0", 9),
    "nested-group": ("[{a0,a1,a2}, top] <{a0}, top> K a1 p1", 10),
    "relativised-group": ("[{a0,a1}, ~K a2 p0] <{a2}, top> (K a0 p1 | K a1 p2)", 11),
}

# The paper's verdicts on the two bundled scenarios.
_GOAL = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"
SCENARIO_CASES = (
    ("train", "w", "[! ~p] K c ~p", True),
    ("train", "w", "[{c}, top] (~K c ~p & ~K c p)", True),
    ("train", "w", "<[{a,b}]> (~K c ~p & ~K c p)", True),
    ("train", "w", "[<{a,c}>] (K c ~p | K c p)", True),
    ("counterexample", "pqr", f"<[{{a,b}}]> ({_GOAL})", True),
    ("counterexample", "pqr", f"[<{{a}}>] [<{{b}}>] ~({_GOAL})", True),
    ("counterexample", "pqr", f"<[{{a}}]> <[{{b}}]> ({_GOAL})", False),
    ("counterexample", "pqr", f"[<{{c}}>] ({_GOAL})", True),
)

WITNESS_FORMULAS = (
    "<[{a0,a1}]> K a2 p0",
    "<{a0}, top> (K a1 p0 | K a2 ~p0)",
    "[<{a1}>] ~K a0 p0",
    "[{a0,a2}, top] ~K a1 p0",
)

HARNESS_SUITES = {
    # suite: models per case
    "axioms": 6,
    "rules": 8,
    "theorems": 12,
    "quantifier-rules": 12,
    "translation-measures": 150,
}

# bins per stratum, i.e. cases per run drawn from it
BINS = {
    "quantifier-wall": {name: 5 for name in QUANTIFIER_SHAPES},
    "witness-roundtrip": {"rounds-1": 4, "rounds-2": 8, "rounds-3": 8},
    "harness": {name: 4 for name in HARNESS_SUITES},
}

# how closely a corpus's total weight, median weight and largest memory
# must meet their targets, as shares of the targets
BALANCE = (0.01, 0.01, 0.02)
REDRAWS = 5000


def load_pool() -> dict:
    with open(POOL_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def select(pool: dict, workload: str, seed: int) -> list[dict]:
    """The run's cases: one per weight bin of every stratum, in a fixed
    order (strata as listed, bins lightest first).

    The seed draws each bin's case; then single bins are redrawn, a
    redraw kept only when it brings the corpus nearer its targets, until
    each is met within its share in BALANCE: the total and the median
    weight of the mean draw, and the typical largest memory of a case.  Scenario cases
    count with weight 0.
    """
    rng = random.Random(f"{workload}/{seed}")
    bins = []
    for stratum, k in BINS[workload].items():
        members = sorted(pool[workload][stratum], key=lambda c: (c["weight"], c["id"]))
        if len(members) < k:
            raise ValueError(f"pool stratum {workload}/{stratum} has fewer than {k} cases")
        for b in range(k):
            chunk = members[b * len(members) // k:(b + 1) * len(members) // k]
            bins.append([dict(c, stratum=stratum) for c in chunk])
    fixed = scenario_cases() if workload == "quantifier-wall" else []
    means = [sum(c["weight"] for c in chunk) / len(chunk) for chunk in bins]
    draws = random.Random(f"{workload}/targets")
    targets = (
        sum(means),
        statistics.median(means + [0.0] * len(fixed)),
        statistics.median(max(draws.choice(chunk)["memory"] for chunk in bins)
                          for _ in range(101)),
    )

    def error(chosen: list[dict]) -> float:
        weights = [c["weight"] for c in chosen] + [0.0] * len(fixed)
        got = (sum(weights), statistics.median(weights), max(c["memory"] for c in chosen))
        return max(abs(g / t - 1) / tol for g, t, tol in zip(got, targets, BALANCE))

    picks = [rng.choice(chunk) for chunk in bins]
    current = error(picks)
    for _ in range(REDRAWS):
        if current <= 1:
            break
        b = rng.randrange(len(bins))
        trial = picks[:b] + [rng.choice(bins[b])] + picks[b + 1:]
        if error(trial) < current:
            picks, current = trial, error(trial)
    picks += fixed
    return picks


def scenario_cases() -> list[dict]:
    return [
        {"id": f"{name}-{i}", "stratum": "scenarios", "scenario": name, "state": state,
         "formula": text, "expected": verdict, "over_budget": False}
        for i, (name, state, text, verdict) in enumerate(SCENARIO_CASES)
    ]


def canonical(doc: dict) -> str:
    """Format-independent fingerprint of a model document."""
    shape = {
        "agents": doc["agents"],
        "atoms": doc["atoms"],
        "states": doc["states"],
        "valuation": {s: sorted(doc["valuation"][s]) for s in doc["states"]},
        "partitions": {a: sorted(sorted(b) for b in doc["partitions"][a]) for a in doc["agents"]},
    }
    return hashlib.sha256(json.dumps(shape, sort_keys=True).encode()).hexdigest()[:16]


def model_text(corgal, case: dict) -> str:
    """The case's model document, generated through the package."""
    if "scenario" in case:
        return {"train": corgal.TRAIN_DOCUMENT,
                "counterexample": corgal.COUNTEREXAMPLE_DOCUMENT}[case["scenario"]]
    seed, n, agents, atoms = case["model"]
    return corgal.render_model(corgal.random_model(seed, n, agents, atoms))


def set_up(corgal, workload: str, cases: list[dict], outdir: Path) -> list[dict]:
    """Write each case's model document, parse it back and parse its
    formula; returns the cases with their command lines."""
    outdir.mkdir(parents=True, exist_ok=True)
    ready = []
    for i, case in enumerate(cases):
        if workload == "harness":
            argv = ["suite", case["suite"], "--seed", str(case["seed"]),
                    "--count", str(HARNESS_SUITES[case["suite"]])]
            ready.append(dict(case, argv=argv))
            continue
        text = model_text(corgal, case)
        path = outdir / f"{i:02d}-{case['id']}.json"
        path.write_text(text, encoding="utf-8")
        corgal.parse_model_document(path.read_text(encoding="utf-8"))
        corgal.parse_formula(case["formula"])
        command = "witness" if workload == "witness-roundtrip" else "check"
        argv = [command, "--model", str(path), "--state", case["state"],
                "--formula", case["formula"]]
        ready.append(dict(case, argv=argv, path=str(path), document=text))
    return ready


# ---------------------------------------------------------------------------
# output checks; each returns None when the output is right, else a reason


def check_verdict(case: dict, code: int, out: str) -> str | None:
    want = "true" if case["expected"] else "false"
    lines = out.splitlines()
    if not lines or lines[0] != want or code != (0 if case["expected"] else 1):
        return f"expected {want} (exit {0 if case['expected'] else 1}), got exit {code}: {out[:80]!r}"
    return None


def check_fingerprint(case: dict) -> str | None:
    if "scenario" in case:
        return None
    got = canonical(json.loads(case["document"]))
    if got != case["fingerprint"]:
        return ("random_model output differs from the stored pool; "
                "regenerate with python3 perfbench/regen.py")
    return None


def check_witness(case: dict, code: int, out: str) -> str | None:
    """The printed witness re-parses, is a conjunction of K-formulas over
    exactly the group's agents with purely epistemic bodies, and confirms
    the verdict under the reference evaluator."""
    bad = check_verdict(case, code, out)
    if bad:
        return bad
    lines = out.splitlines()
    if len(lines) != 2 or not lines[1].startswith("witness: "):
        return f"no witness line in {out[:80]!r}"
    text = lines[1][len("witness: "):]
    if text == "none":
        return "verdict carries a witness but none was printed"
    f = ref.parse(case["formula"])
    group = f[1]
    try:
        w = ref.parse(text)
    except ValueError as exc:
        return f"witness does not parse: {exc}"
    parts = [] if w == ("top",) and not group else ref.conjuncts(w)
    agents = [p[1] for p in parts if p[0] == "know"]
    if len(agents) != len(parts) or sorted(agents) != sorted(group) or len(set(agents)) != len(agents):
        return f"witness is not group knowledge of {sorted(group)}"
    if not all(ref.is_epistemic(p[2]) for p in parts):
        return "witness body is not purely epistemic"
    model = ref.Model(json.loads(case["document"]))
    r = ref.Reference(model)
    point = 1 << model.index[case["state"]]
    announced = r.truth(model.full, w)
    op = f[0]
    if op in ("group", "groupdual"):
        y = announced & r.truth(model.full, f[2])
        if not y & point:
            return "witness is not true at the point"
        after = bool(r.truth(y, f[3]) & point)
        ok = after if op == "groupdual" else not after
    else:
        if not announced & point:
            return "witness is not true at the point"
        rest = frozenset(model.agents) - group
        answers = [y for y in r.group_sets(model.full, rest) if y & point]
        outcomes = [bool(r.truth(announced & y, f[2]) & point) for y in answers]
        ok = all(outcomes) if op == "coaldual" else not any(outcomes)
    return None if ok else "witness does not confirm the verdict under the reference"


def clone_document(doc: dict, state: str) -> tuple[dict, str]:
    """The document plus a copy of `state` in all of its blocks; the copy
    is bisimilar to the original."""
    copy = "zclone"
    out = json.loads(json.dumps(doc))
    out["states"].append(copy)
    out["valuation"][copy] = list(doc["valuation"][state])
    for agent in out["agents"]:
        for block in out["partitions"][agent]:
            if state in block:
                block.append(copy)
    out.pop("designated", None)
    return out, copy
