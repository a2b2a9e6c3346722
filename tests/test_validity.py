import json

import pytest

from corgal import (
    AXIOM_IDS,
    And,
    Ann,
    Atom,
    Coal,
    CoalDual,
    DisjointnessViolation,
    GroupKnowledgeFormula,
    Iff,
    Imp,
    Know,
    MissingBinding,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Stratum,
    SuiteConfig,
    axiom_instance,
    evaluate,
    gen_formula,
    parse_formula,
    parse_model,
    render_formula,
    run_axiom_suite,
    run_counterexample_repro,
    run_open_question_search,
    run_quantifier_rule_suite,
    run_rule_suite,
    run_theorem_suite,
    run_translation_and_measure_suite,
    stratum,
)
from corgal.formula import Formula
from corgal.validity import HARD_MAX_STATES

p, q = Atom("p"), Atom("q")

SMALL = dict(model_count=12, seed=5)


class TestSuiteConfig:
    def test_defaults_fit_the_envelope(self):
        cfg = SuiteConfig()
        assert cfg.model_count == 500
        assert cfg.max_states == 5

    def test_ceiling(self):
        with pytest.raises(ValueError):
            SuiteConfig(max_states=HARD_MAX_STATES + 1)

    def test_positive(self):
        with pytest.raises(ValueError):
            SuiteConfig(max_states=0)

    def test_zero_models_allowed(self):
        report = run_axiom_suite(SuiteConfig(model_count=0))
        assert report.cases == 0
        assert report.passed


class TestAxiomInstances:
    def test_atomic_announcement_schema(self):
        inst = axiom_instance("A5", {"phi": And(p, q), "atom": "p"})
        assert inst == Iff(Ann(And(p, q), p), Imp(And(p, q), p))

    def test_group_box_unfolding_schema(self):
        psi_g = GroupKnowledgeFormula((("a", Know("a", q)),))
        # spec-level reading: announcing what the group knows, under the
        # condition, cannot do worse than the quantified box
        inst = axiom_instance(
            "A10",
            {"group": frozenset({"a"}), "chi": q, "phi": p,
             "psi_g": GroupKnowledgeFormula((("a", q),))},
        )
        assert inst == Imp(
            RelGroup({"a"}, q, p),
            And(q, Ann(And(Know("a", q), q), p)),
        )

    def test_empty_coalition_schema(self):
        inst = axiom_instance("C3", {"phi": p, "all_agents": ("a", "b")})
        assert inst == Imp(
            Not(CoalDual(frozenset(), Not(p))),
            CoalDual(frozenset({"a", "b"}), p),
        )

    def test_coalition_to_group_schema(self):
        inst = axiom_instance(
            "A11",
            {"group": frozenset({"a"}), "phi": p,
             "psi_g": GroupKnowledgeFormula((("a", q),)),
             "all_agents": ("a", "b")},
        )
        assert inst == Imp(Coal({"a"}, p), RelGroupDual({"b"}, Know("a", q), p))

    def test_every_schema_renders_as_pinned(self):
        # the suites' verdicts and failure texts depend on these exact instances
        r = Atom("r")
        bindings = {
            "phi": And(p, q), "psi": Know("b", q), "chi": Not(r), "agent": "a", "atom": "r",
            "group": frozenset({"a"}), "group2": frozenset({"c"}),
            "psi_g": GroupKnowledgeFormula((("a", Or(p, r)),)),
            "all_agents": frozenset({"a", "b", "c"}),
        }
        pinned = {
            "A0": "(p & q) -> (K b q -> (p & q))",
            "A1": "K a ((p & q) -> K b q) -> (K a (p & q) -> K a K b q)",
            "A2": "K a (p & q) -> (p & q)",
            "A3": "K a (p & q) -> K a K a (p & q)",
            "A4": "~K a (p & q) -> K a ~K a (p & q)",
            "A5": "[! (p & q)] r <-> ((p & q) -> r)",
            "A6": "[! (p & q)] ~K b q <-> ((p & q) -> ~[! (p & q)] K b q)",
            "A7": "[! (p & q)] (K b q & ~r) <-> ([! (p & q)] K b q & [! (p & q)] ~r)",
            "A8": "[! (p & q)] K a K b q <-> ((p & q) -> K a [! (p & q)] K b q)",
            "A9": "[! (p & q)] [! K b q] ~r <-> [! ((p & q) & [! (p & q)] K b q)] ~r",
            "A10": "[{a}, ~r] (p & q) -> (~r & [! (K a (p | r) & ~r)] (p & q))",
            "A11": "[<{a}>] (p & q) -> <{b,c}, K a (p | r)> (p & q)",
            "C1": "~<[{a}]> bot",
            "C2": "<[{a}]> top",
            "C3": "~<[{}]> ~(p & q) -> <[{a,b,c}]> (p & q)",
            "C4": "<[{a}]> ((p & q) & K b q) -> <[{a}]> (p & q)",
            "C5": "(<[{a}]> (p & q) & <[{c}]> K b q) -> <[{a,c}]> ((p & q) & K b q)",
        }
        assert AXIOM_IDS == tuple(pinned)
        assert {x: render_formula(axiom_instance(x, bindings)) for x in AXIOM_IDS} == pinned
        tautologies = [
            "(p & q) -> (K b q -> (p & q))",
            "((p & q) -> (K b q -> ~r)) -> (((p & q) -> K b q) -> ((p & q) -> ~r))",
            "(~(p & q) -> ~K b q) -> (K b q -> (p & q))",
            "(p & q) | ~(p & q)",
            "((p & q) & K b q) <-> (K b q & (p & q))",
            "~((p & q) | K b q) <-> (~(p & q) & ~K b q)",
        ]
        for taut in range(7):  # the template index wraps around
            instance = axiom_instance("A0", dict(bindings, taut=taut))
            assert render_formula(instance) == tautologies[taut % 6]

    def test_psi_g_must_cover_the_group(self):
        psi_g = GroupKnowledgeFormula((("b", q),))
        for axiom_id in ("A10", "A11"):
            with pytest.raises(ValueError, match=f"{axiom_id}: psi_g bindings"):
                axiom_instance(axiom_id, {
                    "group": frozenset({"a"}), "chi": q, "phi": p, "psi_g": psi_g,
                    "all_agents": ("a", "b"),
                })

    def test_missing_binding(self):
        with pytest.raises(MissingBinding, match="A10 needs binding 'psi_g'"):
            axiom_instance("A10", {"group": frozenset({"a"}), "chi": q, "phi": p})
        # the first missing metavariable is named; taut has a default
        with pytest.raises(MissingBinding, match="A11 needs binding 'phi'"):
            axiom_instance("A11", {"group": frozenset({"a"}), "all_agents": ("a",)})
        with pytest.raises(MissingBinding, match="A0 needs binding 'phi'"):
            axiom_instance("A0", {"taut": 1})

    def test_disjointness(self):
        with pytest.raises(DisjointnessViolation):
            axiom_instance(
                "C5",
                {"group": frozenset({"a"}), "group2": frozenset({"a"}),
                 "phi": p, "psi": q},
            )

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            axiom_instance("A99", {})


class TestAxiomSuite:
    def test_sound(self):
        report = run_axiom_suite(SuiteConfig(**SMALL))
        assert report.passed
        assert report.cases > 0
        assert not report.skipped

    def test_corrupted_schema_fails(self):
        def bad_a6(bindings):
            # wrong polarity: [phi]~psi <-> ~[phi]psi
            return Iff(
                Ann(bindings["phi"], Not(bindings["psi"])),
                Not(Ann(bindings["phi"], bindings["psi"])),
            )

        report = run_axiom_suite(SuiteConfig(**SMALL), overrides={"A6": bad_a6})
        assert not report.passed
        assert all(f.claim == "A6" for f in report.failures)

    def test_failures_replay(self):
        def bad_a6(bindings):
            return Iff(
                Ann(bindings["phi"], Not(bindings["psi"])),
                Not(Ann(bindings["phi"], bindings["psi"])),
            )

        report = run_axiom_suite(SuiteConfig(model_count=6, seed=1), overrides={"A6": bad_a6})
        assert report.failures
        failure = report.failures[0]
        model = parse_model(failure.model_document)
        assert evaluate(model, failure.state, parse_formula(failure.formula)) is False

    def test_deterministic(self):
        a = run_axiom_suite(SuiteConfig(model_count=4, seed=3))
        b = run_axiom_suite(SuiteConfig(model_count=4, seed=3))
        assert a.to_dict() == b.to_dict()

    def test_cap_exceeded_is_a_skip_not_a_pass(self):
        report = run_axiom_suite(SuiteConfig(model_count=4, seed=3, enumeration_cap=2))
        assert report.skipped
        assert report.passed  # skips are reported, not failed


class TestRuleSuite:
    def test_sound(self):
        report = run_rule_suite(SuiteConfig(**SMALL))
        assert report.passed
        assert report.cases > 0

    def test_invalid_premises_surface(self):
        report = run_rule_suite(
            SuiteConfig(model_count=10, seed=2), premises=[Know("a0", Atom("p0"))]
        )
        assert not report.passed

    def test_empty_premise_pool_passes_trivially(self):
        report = run_rule_suite(SuiteConfig(model_count=5, seed=0), premises=[])
        assert report.passed
        assert report.cases == 0


class TestQuantifierRuleSuite:
    def test_witnesses_refute(self):
        report = run_quantifier_rule_suite(SuiteConfig(**SMALL))
        assert report.passed
        assert report.cases > 0
        note = next(n for n in report.notes if n.startswith("witnessed-refutations"))
        assert int(note.split(":")[1]) > 0

    def test_true_conclusion_demands_no_witness(self, train):
        # the lone member cannot learn what she does not know
        f = RelGroup({"c"}, Atom("p"), Not(Know("c", Not(Atom("p")))))
        f = parse_formula("[{c}, top] ~K c ~p")
        assert evaluate(train, "w", f)

    def test_vacuous_context_behaves_like_a_bare_hole(self, train):
        from corgal import TOP, nf_instantiate

        inner = parse_formula("[{c}, top] K c ~p")
        bare = nf_instantiate((), inner)
        wrapped = nf_instantiate(((Imp, TOP),), inner)
        for state in train.states:
            assert evaluate(train, state, bare) == evaluate(train, state, wrapped)

    def test_descent_through_knowledge_and_announcement(self, counterexample, monkeypatch):
        import corgal.validity
        from corgal import Evaluator, nf_instantiate
        from corgal.formula import reduction
        from corgal.validity import _witness_through_form

        nf = ((Know, "a"), (Ann, Atom("q")))
        inner = parse_formula("[{a,b}, top] ~K c p")
        assert not evaluate(counterexample, "qr", nf_instantiate(nf, inner))
        seen = []
        original = corgal.validity.evaluate_witness

        def spy(model, state, f, cap):
            seen.append((model.states, state))
            return original(model, state, f, cap=cap)

        monkeypatch.setattr(corgal.validity, "evaluate_witness", spy)
        witness = _witness_through_form(Evaluator(), counterexample, "qr", nf, inner)
        # K a moves the point to pqr, [! q] drops pr
        assert seen == [(("pqr", "pq", "qr"), "pqr")]
        assert render_formula(witness.denotation()) == "K a top & K b p"
        premise = nf_instantiate(nf, reduction(inner, witness.denotation(), counterexample.agents))
        assert not evaluate(counterexample, "qr", premise)


class TestTheoremSuite:
    def test_sound(self):
        report = run_theorem_suite(SuiteConfig(**SMALL))
        assert report.passed
        assert report.cases > 0

    def test_enlarging_by_the_empty_group_is_trivial(self, train):
        # the widening schema with an empty second group degenerates to f -> f
        body = parse_formula("K a ~p")
        g = frozenset({"a"})
        instance = Imp(CoalDual(g, body), CoalDual(g | frozenset(), body))
        assert instance.left == instance.right
        for state in train.states:
            assert evaluate(train, state, instance)


class TestReproSuite:
    def test_passes(self):
        report = run_counterexample_repro()
        assert report.passed
        assert report.cases >= 10
        assert len(report.notes) == 2

    def test_deterministic(self):
        assert run_counterexample_repro().to_dict() == run_counterexample_repro().to_dict()

    def test_mutated_model_fails(self):
        from corgal import COUNTEREXAMPLE_DOCUMENT

        mutated = json.loads(COUNTEREXAMPLE_DOCUMENT)
        mutated["partitions"]["c"] = [["pqr"], ["pq"], ["qr"], ["pr"]]
        report = run_counterexample_repro(json.dumps(mutated))
        assert not report.passed


class TestTranslationMeasureSuite:
    def test_sound(self):
        report = run_translation_and_measure_suite(SuiteConfig(**SMALL))
        assert report.passed
        assert report.cases > 0


class TestOpenQuestions:
    def test_never_fails(self):
        report = run_open_question_search(SuiteConfig(model_count=20, seed=8))
        assert report.passed
        assert report.cases == 40


class TestGenFormula:
    def test_deterministic(self):
        a = gen_formula(7, Stratum.CORGAL, 4, ("p", "q"), ("a", "b"))
        b = gen_formula(7, Stratum.CORGAL, 4, ("p", "q"), ("a", "b"))
        assert a == b

    def test_stratum_bound(self):
        for seed in range(60):
            f = gen_formula(seed, Stratum.EL, 4, ("p",), ("a",))
            assert stratum(f) is Stratum.EL

    def test_depth_bound(self):
        def depth(f: Formula) -> int:
            kids = []
            for name in ("sub", "ann", "cond", "left", "right"):
                kid = getattr(f, name, None)
                if isinstance(kid, Formula):
                    kids.append(kid)
            return 1 + max(map(depth, kids), default=0)

        for seed in range(60):
            f = gen_formula(seed, Stratum.CORGAL, 2, ("p", "q"), ("a", "b"))
            assert depth(f) <= 2

    def test_renders_as_pinned(self):
        # every suite draws its formulas here, so its draw order must not change
        pinned = {
            (Stratum.EL, 3): "q <-> ~K b p",
            (Stratum.EL, 5): "K b K c (top <-> p)",
            (Stratum.EL, 9): "(~q & ~p) | ((q -> p) & bot)",
            (Stratum.EL, 11): "K b K c q <-> K a p",
            (Stratum.PAL, 3): "[! q] ([! p] q & [! p] p)",
            (Stratum.PAL, 10): "K b ([! p] top -> (q & top))",
            (Stratum.PAL, 11): "[! [! <! q> p] p] ~K b p",
            (Stratum.RGAL, 5): "<{a,b,c}, ((bot | p) -> (p & q))> K a (bot & p)",
            (Stratum.RGAL, 13): "[{c}, ([{a}, p] p | [{b}, p] q)] <{b}, (q -> q)> [{a,b,c}, p] q",
            (Stratum.RGAL, 59): "[{a}, <{}, [! q] q> (p | bot)] K b p",
            (Stratum.CORGAL, 11): "[! [<{a,b,c}>] [! p] bot] (<{a,b,c}, p> top & p)",
            (Stratum.CORGAL, 13): "[{c}, ([{a}, p] p | <[{b}]> p)] [<{b,c}>] [<{a,b}>] q",
            (Stratum.CORGAL, 17): "[<{a,b}>] <{a,c}, <[{b,c}]> q> p",
        }
        for (target, seed), text in pinned.items():
            f = gen_formula(seed, target, 4, ("p", "q"), ("a", "b", "c"))
            assert render_formula(f) == text, (target, seed)

    def test_contexts_render_as_pinned(self):
        # the quantifier-rules suite draws its contexts here, and every later
        # draw of the suite depends on this order
        import random

        from corgal import nf_instantiate
        from corgal.validity import _gen_nf

        pinned = [
            "[! (q <-> p)] [! q] z",
            "[! q] p -> z",
            "z",
            "(q -> q) -> (<! p> q -> z)",
            "[! p] top -> K a z",
            "K c K c z",
            "z",
            "K c (~top -> z)",
            "p -> K b z",
            "[! p] K b z",
            "z",
            "[! p] [! <! q> p] z",
            "[! K a q] K c z",
            "K c K c z",
            "z",
            "~p -> z",
            "K c [! K a q] z",
            "[! [! p] p] K b z",
            "K a q -> z",
            "z",
        ]
        for seed, text in enumerate(pinned):
            nf = _gen_nf(random.Random(seed), 2, ("p", "q"), ("a", "b", "c"))
            assert render_formula(nf_instantiate(nf, Atom("z"))) == text, seed

    def test_rejects_zero_depth(self):
        with pytest.raises(ValueError):
            gen_formula(0, Stratum.EL, 0, ("p",), ("a",))


class TestReportShape:
    def test_json_round_trips(self):
        report = run_counterexample_repro()
        payload = json.loads(report.to_json())
        assert payload["suite"] == "repro"
        assert payload["passed"] is True
        assert payload["cases"] == report.cases
