"""Tests of the benchmark's own parts: the reference evaluator against
corgal.evaluate, the seeded selection, and the output checks.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import corgal  # noqa: E402
import corgal.cli  # noqa: E402,F401

import corpus  # noqa: E402
import reference as ref  # noqa: E402

SMALL_FORMULAS = (
    "[! p0] K a0 p0",
    "<! ~K a1 p0> K a1 ~p0",
    "<[{a0}]> K a1 p0",
    "[<{a1}>] ~K a0 p0",
    "[<{}>] (K a0 p0 | K a1 ~p0)",
    "[{a0}, p0] K a1 p0",
    "<{a0,a1}, top> (K a0 p0 & ~K a1 p0)",
    "<[{a0}]> <[{a1}]> K a1 p0",
    "[{a0,a1}, top] <{a0}, ~K a1 p0> K a1 p0",
)


def truth_sets(model, text: str) -> tuple[int, int]:
    doc = json.loads(corgal.render_model(model))
    expected = ref.Reference(ref.Model(doc)).truth(ref.Model(doc).full, ref.parse(text))
    return corgal.truth_set(model, corgal.parse_formula(text)), expected


@pytest.mark.parametrize("name, state, text, verdict", corpus.SCENARIO_CASES)
def test_reference_gives_the_paper_verdicts(name, state, text, verdict):
    doc = json.loads({"train": corgal.TRAIN_DOCUMENT,
                      "counterexample": corgal.COUNTEREXAMPLE_DOCUMENT}[name])
    model = ref.Model(doc)
    assert ref.Reference(model).holds(state, ref.parse(text)) is verdict
    program = corgal.parse_model(json.dumps(doc))
    assert corgal.evaluate(program, state, corgal.parse_formula(text)) is verdict


@pytest.mark.parametrize("text", SMALL_FORMULAS)
def test_reference_agrees_with_evaluate_on_all_small_models(text):
    for model in corgal.enumerate_small_models(3, 2, 1):
        program, reference = truth_sets(model, text)
        assert program == reference, (corgal.render_model(model), text)


def test_dual_holds_exactly_where_the_formula_fails():
    for model in corgal.enumerate_small_models(2, 2, 1):
        doc = json.loads(corgal.render_model(model))
        m = ref.Model(doc)
        r = ref.Reference(m)
        for text in SMALL_FORMULAS[2:]:
            f = ref.parse(text)
            assert r.truth(m.full, ref.dual(f)) == m.full & ~r.truth(m.full, f)


def test_render_parses_back_to_the_same_formula():
    for text in SMALL_FORMULAS + tuple(c[2] for c in corpus.SCENARIO_CASES):
        f = ref.parse(text)
        assert ref.parse(ref.render(f)) == f


def test_budget_stops_the_reference():
    doc = json.loads(corgal.render_model(corgal.random_model(0, 8, 3, 3)))
    r = ref.Reference(ref.Model(doc), budget=5)
    with pytest.raises(ref.BudgetExceeded):
        r.holds("s0", ref.parse("<[{a0}]> <[{a1}]> K a2 p0"))


def test_clone_is_bisimilar_to_its_original():
    doc = json.loads(corgal.render_model(corgal.random_model(3, 6, 3, 2)))
    cloned, copy = corpus.clone_document(doc, "s2")
    m = ref.Model(cloned)
    classes, _ = ref.refine(m, m.full)
    assert any(c >> m.index["s2"] & 1 and c >> m.index[copy] & 1 for c in classes)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_selection_is_seeded_and_takes_one_case_per_bin(workload):
    pool = corpus.load_pool()
    first = corpus.select(pool, workload, 7)
    assert first == corpus.select(pool, workload, 7)
    assert first != corpus.select(pool, workload, 8)
    per_stratum = {}
    for case in first:
        per_stratum[case["stratum"]] = per_stratum.get(case["stratum"], 0) + 1
    assert {k: v for k, v in per_stratum.items() if k != "scenarios"} == corpus.BINS[workload]


def test_witness_check_rejects_a_wrong_witness():
    case = {"id": "x", "formula": "<[{a,b}]> (K b (p & q & r) & ~K a (p & q & r) "
                                  "& ~K c (p & q & r))",
            "state": "pqr", "expected": True, "document": corgal.COUNTEREXAMPLE_DOCUMENT}
    good = "true\nwitness: K a q & K b top\n"
    assert corpus.check_witness(case, 0, good) is None
    assert corpus.check_witness(case, 0, "true\nwitness: K a top & K b top\n")
    assert corpus.check_witness(case, 0, "true\nwitness: K a q & K c top\n")
    assert corpus.check_witness(case, 0, "true\nwitness: K a q & K b [! p] top\n")


def test_traced_worker_reports_every_layer_metric():
    import subprocess

    import tracing

    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "measure", "--workload", "witness-roundtrip",
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        capture_output=True, text=True, timeout=300, env={"PYTHONHASHSEED": "0"},
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert [name for name, _ in tracing.METRICS] == list(result["metrics"])
    for name in ("witness_chars", "checker.evaluate_witness.s", "model.definable_formula.s",
                 "parser.render_formula.chars", "checker.truth_set.calls"):
        assert result["metrics"][name]["value"] > 0, name
    assert "absent" not in proc.stderr


def test_run_fails_without_the_package(tmp_path):
    import shutil
    import subprocess

    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "harness", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_property_check_accepts_the_verdict_and_rejects_its_negation(tmp_path):
    import worker

    doc = corgal.render_model(corgal.random_model(1, 6, 3, 2))
    path = tmp_path / "m.json"
    path.write_text(doc)
    text = "<[{a0}]> <[{a1}]> K a2 p0"
    case = {"formula": text, "state": "s0", "path": str(path), "document": doc}
    code, out = worker.call(corgal, ["check", "--model", str(path), "--state", "s0",
                                     "--formula", text])
    assert worker.check_properties(corgal, case, code, out) is None
    flipped = 1 - code
    assert worker.check_properties(corgal, case, flipped, "true\n" if flipped == 0 else "false\n")
