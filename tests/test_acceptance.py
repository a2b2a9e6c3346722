"""End-to-end acceptance gate.

Each test covers one acceptance criterion at its stated tolerance and
prints one pass line; any assertion failure is the corresponding fail
line.  The full-envelope suites (criteria 3 to 6) take a few minutes.
"""

import random
import time

from corgal import (
    Coal,
    CoalDual,
    Not,
    RelGroup,
    RelGroupDual,
    Stratum,
    SuiteConfig,
    contract,
    counterexample_model,
    el_definable_know_sets,
    enumerate_small_models,
    evaluate,
    evaluate_coalition_alt,
    evaluate_witness,
    parse_formula,
    random_model,
    run_axiom_suite,
    run_quantifier_rule_suite,
    run_rule_suite,
    run_theorem_suite,
    run_translation_and_measure_suite,
    train_model,
    truth_set,
)
from corgal.model import block_unions
from corgal.validity import _gen

GOAL = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"

FULL = SuiteConfig(seed=0, model_count=500, max_states=5)


def _report(name: str, detail: str) -> None:
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def _note_value(report, prefix: str) -> int:
    note = next(n for n in report.notes if n.startswith(prefix))
    return int(note.split(":")[1])


def test_criterion_1_train_scenario_verdicts():
    start = time.perf_counter()
    train = train_model()
    verdicts = [
        "[! ~p] K c ~p",
        "[{c}, top] (~K c ~p & ~K c p)",
        "<[{a,b}]> (~K c ~p & ~K c p)",
        "[<{a,c}>] (K c ~p | K c p)",
    ]
    for text in verdicts:
        assert evaluate(train, "w", parse_formula(text)) is True, text
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("1 (two-state scenario)", f"4 exact verdicts in {elapsed:.3f}s")


def test_criterion_2_counterexample_and_witness():
    start = time.perf_counter()
    model = counterexample_model()
    joint = parse_formula(f"<[{{a,b}}]> ({GOAL})")
    assert evaluate(model, "pqr", joint) is True
    assert evaluate(model, "pqr", parse_formula(f"[<{{a}}>] [<{{b}}>] ~({GOAL})")) is True
    assert evaluate(model, "pqr", parse_formula(f"[<{{c}}>] ({GOAL})")) is True

    report = evaluate_witness(model, "pqr", joint)
    assert report.verdict and report.witness is not None
    expected = truth_set(model, parse_formula("K a q & K b top"))
    # evaluate_witness returned, so announcing the witness replayed the verdict
    assert truth_set(model, report.witness.denotation()) == expected
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report("2 (four-state counterexample)", f"3 verdicts + witness in {elapsed:.3f}s")


def test_criterion_3_axiom_soundness():
    report = run_axiom_suite(FULL)
    assert report.cases >= 500 * 20 * 17
    assert report.failures == []
    assert report.skipped == []
    _report("3 (axiom soundness)", f"{report.cases} instances, 0 failures, 0 skips")


def test_criterion_4_rule_soundness():
    report = run_rule_suite(FULL)
    assert report.failures == []
    assert report.skipped == []
    _report("4 (rule soundness)", f"{report.cases} conclusions, 0 failures")


def test_criterion_5_infinitary_rule_contrapositive():
    report = run_quantifier_rule_suite(FULL)
    assert report.failures == []
    witnessed = _note_value(report, "witnessed-refutations")
    assert witnessed >= 200
    _report("5 (contrapositive witnesses)", f"{witnessed} refutations all re-checked")


def test_criterion_6_validity_propositions():
    report = run_theorem_suite(FULL)
    assert report.failures == []
    assert report.skipped == []
    _report("6 (validity propositions)", f"{report.cases} instances, 0 failures")


def test_criterion_7_translation():
    report = run_translation_and_measure_suite(FULL)
    assert report.failures == []
    triples = _note_value(report, "translation-triples")
    assert triples >= 1000
    _report("7 (announcement elimination)", f"{triples} triples, 0 failures")


def test_criterion_8_measures():
    report = run_translation_and_measure_suite(FULL)
    assert report.failures == []
    instances = _note_value(report, "measure-instances")
    assert instances >= 1000
    _report("8 (order measures)", f"{instances} inequality instances, 0 failures")


def test_criterion_9_semantic_cross_checks():
    rng = random.Random(0)

    # duality of both quantified operator pairs
    for _ in range(120):
        m = random_model(rng.randrange(2**32), rng.randint(2, 5), 3, 2)
        f = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
        chi = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
        g = frozenset(rng.sample(list(m.agents), rng.randint(0, 3)))
        assert truth_set(m, CoalDual(g, f)) == truth_set(m, Not(Coal(g, Not(f))))
        assert truth_set(m, RelGroupDual(g, chi, f)) == truth_set(
            m, Not(RelGroup(g, chi, Not(f)))
        )

    # agreement of the two coalition evaluation routes
    for _ in range(40):
        m = random_model(rng.randrange(2**32), rng.randint(2, 4), 2, 2)
        f = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
        g = frozenset(rng.sample(list(m.agents), rng.randint(0, 2)))
        for shape in (Coal(g, f), CoalDual(g, f)):
            for w in m.states:
                assert evaluate_coalition_alt(m, w, shape) == evaluate(m, w, shape)

    # contraction invariance of whole formulas
    for _ in range(80):
        m = random_model(rng.randrange(2**32), rng.randint(2, 5), 3, 2)
        f = _gen(rng, Stratum.CORGAL, 3, m.atoms, m.agents)
        quotient, mapping = contract(m)
        for w in m.states:
            assert evaluate(m, w, f) == evaluate(quotient, mapping[w], f)

    # definability oracle, exhaustively on the small contracted models
    contracted = 0
    for m in enumerate_small_models(4, 2, 2):
        quotient, _ = contract(m)
        if len(quotient.states) != len(m.states):
            continue
        contracted += 1
        for agent in m.agents:
            definable = {s for s in el_definable_know_sets(m, agent) if s}
            assert definable == set(block_unions(m.blocks(agent)))
    assert contracted > 1000
    _report(
        "9 (semantic cross-checks)",
        f"duality, alternative semantics, contraction, oracle on {contracted} models",
    )
