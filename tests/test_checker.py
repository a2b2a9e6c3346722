import inspect
import random
import sys

import pytest

import corgal.checker
import corgal.cli as cli
import corgal.model
from corgal import (
    Ann,
    Atom,
    Bot,
    Coal,
    CoalDual,
    EnumerationCapExceeded,
    EpistemicModel,
    Evaluator,
    GroupKnowledgeFormula,
    Imp,
    Know,
    Not,
    NotQuantified,
    Or,
    RelGroup,
    RelGroupDual,
    Stratum,
    TOP,
    UndeclaredSymbol,
    characteristic_formulas,
    contract,
    counterexample_model,
    definable_formula,
    evaluate,
    evaluate_coalition_alt,
    evaluate_trace,
    evaluate_witness,
    parse_formula,
    random_model,
    render_formula,
    render_model,
    truth_set,
)
from corgal.checker import WitnessCheckFailed
from corgal.model import _join, update
from corgal.validity import _gen

p, q, r = Atom("p"), Atom("q"), Atom("r")

GOAL = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"


def goal_formula():
    return parse_formula(GOAL)


class TestTruthSets:
    def test_negated_atom(self, train):
        assert truth_set(train, Not(p)) == train.state_mask(["w"])

    def test_top_is_everywhere(self, train):
        assert truth_set(train, TOP) == train.full

    def test_knowledge_set(self, counterexample):
        assert truth_set(counterexample, Know("a", q)) == counterexample.state_mask(
            ["pqr", "qr", "pq"]
        )

    def test_undeclared_agent(self, train):
        with pytest.raises(UndeclaredSymbol, match="agent"):
            truth_set(train, Know("z", p))

    def test_undeclared_atom(self, train):
        with pytest.raises(UndeclaredSymbol, match="atom"):
            truth_set(train, Atom("zz"))

    def test_undeclared_group_member(self, train):
        with pytest.raises(UndeclaredSymbol, match="agent"):
            truth_set(train, Coal({"z"}, p))


class TestPointedVerdicts:
    def test_train_announcement(self, train):
        assert evaluate(train, "w", parse_formula("[! ~p] K c ~p"))

    def test_train_group_box(self, train):
        assert evaluate(train, "w", parse_formula("[{c}, top] (~K c ~p & ~K c p)"))

    def test_train_coalition_diamond(self, train):
        assert evaluate(train, "w", parse_formula("<[{a,b}]> (~K c ~p & ~K c p)"))

    def test_train_coalition_box(self, train):
        assert evaluate(train, "w", parse_formula("[<{a,c}>] (K c ~p | K c p)"))

    def test_counterexample_joint_power(self, counterexample):
        assert evaluate(counterexample, "pqr", parse_formula(f"<[{{a,b}}]> ({GOAL})"))

    def test_counterexample_split_power_fails(self, counterexample):
        assert evaluate(
            counterexample, "pqr", parse_formula(f"[<{{a}}>] [<{{b}}>] ~({GOAL})")
        )
        assert not evaluate(
            counterexample, "pqr", parse_formula(f"<[{{a}}]> <[{{b}}]> ({GOAL})")
        )

    def test_counterexample_complement_box(self, counterexample):
        assert evaluate(counterexample, "pqr", parse_formula(f"[<{{c}}>] ({GOAL})"))

    def test_vacuous_announcement(self, train, counterexample):
        for m, w in ((train, "w"), (counterexample, "pq")):
            assert evaluate(m, w, Ann(Bot(), p))

    def test_group_sugar(self, train):
        sugar = parse_formula("[{a,b}] ~K c p")
        explicit = parse_formula("[{a,b}, top] ~K c p")
        assert evaluate(train, "w", sugar) == evaluate(train, "w", explicit)


class TestSemanticInvariants:
    def seeded_cases(self, count=25, states=5, agents=3, atoms=2, depth=3):
        rng = random.Random(99)
        for _ in range(count):
            m = random_model(rng.randrange(2**32), rng.randint(2, states), agents, atoms)
            f = _gen(rng, Stratum.CORGAL, depth, m.atoms, m.agents)
            yield rng, m, f

    def test_duality(self):
        rng = random.Random(5)
        for _ in range(25):
            m = random_model(rng.randrange(2**32), rng.randint(2, 5), 3, 2)
            f = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
            chi = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
            g = frozenset(rng.sample(list(m.agents), rng.randint(0, 3)))
            assert truth_set(m, CoalDual(g, f)) == truth_set(m, Not(Coal(g, Not(f))))
            assert truth_set(m, RelGroupDual(g, chi, f)) == truth_set(
                m, Not(RelGroup(g, chi, Not(f)))
            )

    def test_contraction_invariance(self):
        for rng, m, f in self.seeded_cases():
            quotient, mapping = contract(m)
            for w in m.states:
                assert evaluate(m, w, f) == evaluate(quotient, mapping[w], f)

    def test_isomorphism_invariance(self):
        for rng, m, f in self.seeded_cases(count=15, depth=2):
            renamed = EpistemicModel(
                states=[f"x{name}" for name in m.states],
                agents=m.agents,
                atoms=m.atoms,
                partitions={
                    a: [[f"x{s}" for s in m.states_in(b)] for b in m.blocks(a)]
                    for a in m.agents
                },
                valuation={
                    atom: [f"x{s}" for s in m.states_in(m.valuation_mask(atom))]
                    for atom in m.atoms
                },
            )
            for w in m.states:
                assert evaluate(m, w, f) == evaluate(renamed, f"x{w}", f)

    def test_alternative_coalition_semantics(self, train, counterexample):
        cases = [
            (counterexample, "pqr", CoalDual({"a", "b"}, goal_formula())),
            (counterexample, "pqr", Coal({"c"}, goal_formula())),
            (train, "w", Coal({"a", "c"}, parse_formula("K c ~p | K c p"))),
            (train, "w", CoalDual({"a", "b"}, parse_formula("~K c ~p & ~K c p"))),
        ]
        for m, w, f in cases:
            assert evaluate_coalition_alt(m, w, f) == evaluate(m, w, f)

    def test_alternative_semantics_on_random_models(self):
        rng = random.Random(17)
        for _ in range(12):
            m = random_model(rng.randrange(2**32), rng.randint(2, 4), 2, 2)
            f = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
            g = frozenset(rng.sample(list(m.agents), rng.randint(0, 2)))
            box = Coal(g, f)
            dia = CoalDual(g, f)
            for w in m.states:
                assert evaluate_coalition_alt(m, w, box) == evaluate(m, w, box)
                assert evaluate_coalition_alt(m, w, dia) == evaluate(m, w, dia)

    def test_empty_coalition_of_top(self, train):
        assert evaluate_coalition_alt(train, "w", Coal(frozenset(), TOP))


class TestWitnesses:
    def test_not_quantified(self, train):
        with pytest.raises(NotQuantified):
            evaluate_witness(train, "w", Know("a", Not(p)))

    def test_counterexample_witness_is_knowing_q(self, counterexample):
        report = evaluate_witness(
            counterexample, "pqr", parse_formula(f"<[{{a,b}}]> ({GOAL})")
        )
        assert report.verdict
        assert report.witness is not None
        expected = truth_set(counterexample, parse_formula("K a q & K b top"))
        assert truth_set(counterexample, report.witness.denotation()) == expected
        assert report.witness.group == {"a", "b"}

    def test_witness_that_does_not_replay_the_decision_is_refused(
        self, counterexample, monkeypatch
    ):
        # silence is the first extension, and it does not decide the verdict
        f = parse_formula(f"<[{{a,b}}]> ({GOAL})")
        silence = GroupKnowledgeFormula((("a", TOP), ("b", TOP)))
        monkeypatch.setattr(corgal.checker, "definable_formula", lambda model, parts: silence)
        with pytest.raises(WitnessCheckFailed, match="witness self-check failed"):
            evaluate_witness(counterexample, "pqr", f)

    def test_refuted_diamond_has_no_witness(self, train):
        report = evaluate_witness(
            train, "w", RelGroupDual({"c"}, TOP, Know("c", Not(p)))
        )
        assert not report.verdict
        assert report.witness is None
        verdict, lines = evaluate_trace(train, "w", RelGroupDual({"c"}, TOP, Know("c", Not(p))))
        assert not verdict
        assert lines  # the single full-union candidate was examined

    def test_trivial_diamond_witnessed_by_the_cell(self, train, counterexample):
        # top is positive, so the diamond weighs the cell of the point
        # alone: each member announces its block of the point, the models
        # being contracted
        for m, w in ((train, "w"), (counterexample, "pqr")):
            assert contract(m)[0].n == m.n
            report = evaluate_witness(m, w, RelGroupDual({"a", "b"}, TOP, TOP))
            assert report.verdict
            assert report.witness is not None
            point = 1 << m.state_index(w)
            for a, body in report.witness.bindings:
                assert truth_set(m, body) == next(b for b in m.blocks(a) if b & point)

    def test_group_diamond_prefers_silence(self, train):
        report = evaluate_witness(
            train, "w", parse_formula("<{a,b}, top> (~K c ~p & ~K c p)")
        )
        assert report.verdict
        assert truth_set(train, report.witness.denotation()) == train.full

    def test_trace_lists_each_extension_once_silence_first(self, counterexample):
        f = parse_formula(f"<[{{a,b}}]> ({GOAL})")
        verdict, lines = evaluate_trace(counterexample, "pqr", f)
        assert verdict
        targets = [line.rsplit(" -> ", 1)[1].split(": ")[0] for line in lines]
        assert len(targets) == len(set(targets)) == 5
        assert targets[0] == "{" + ",".join(counterexample.states) + "}"
        # the trace stops at the first extension that decides the verdict,
        # and the witness names it
        assert [line.endswith(": True") for line in lines] == [False] * 4 + [True]
        witness = evaluate_witness(counterexample, "pqr", f).witness
        got = truth_set(counterexample, witness.denotation())
        assert "{" + ",".join(counterexample.states_in(got)) + "}" == targets[-1]

    def test_vacuous_group_box_failure_has_no_witness(self, train):
        # condition is false at w, so the box fails without a refuting choice
        report = evaluate_witness(train, "w", RelGroup({"a"}, p, Not(p)))
        assert not report.verdict
        assert report.witness is None

    def test_witness_self_check_on_random_cases(self):
        rng = random.Random(31)
        checked = 0
        for _ in range(60):
            m = random_model(rng.randrange(2**32), rng.randint(2, 4), 2, 2)
            kind = rng.choice(("relgroup", "relgroupdual", "coal", "coaldual"))
            g = frozenset(rng.sample(list(m.agents), rng.randint(0, 2)))
            body = _gen(rng, Stratum.PAL, 2, m.atoms, m.agents)
            chi = TOP if rng.random() < 0.5 else _gen(rng, Stratum.EL, 2, m.atoms, m.agents)
            f = {
                "relgroup": RelGroup(g, chi, body),
                "relgroupdual": RelGroupDual(g, chi, body),
                "coal": Coal(g, body),
                "coaldual": CoalDual(g, body),
            }[kind]
            w = rng.choice(m.states)
            # evaluate_witness raises WitnessCheckFailed unless the witness
            # replays the verdict
            report = evaluate_witness(m, w, f)
            assert report.verdict == evaluate(m, w, f)
            if report.witness is not None:
                checked += 1
        assert checked > 10

    def test_budget_fallback_is_the_characteristic_formula_witness(
        self, counterexample, monkeypatch
    ):
        cases = [(counterexample, "pqr", parse_formula(f"<[{{a,b}}]> ({GOAL})"))]
        cases += [
            (random_model(seed, 6, 3, 1), "s0", parse_formula("<{a0}, top> (K a1 p0 | K a2 ~p0)"))
            for seed in range(8)
        ]
        fallbacks = 0
        for m, w, f in cases:
            smallest = evaluate_witness(m, w, f)
            monkeypatch.setattr(corgal.model, "WITNESS_SEARCH_BASE", 0)
            monkeypatch.setattr(corgal.model, "WITNESS_SEARCH_PER_NODE", 0)
            report = evaluate_witness(m, w, f)
            monkeypatch.undo()
            assert report.verdict == smallest.verdict
            if report.witness is None:
                assert smallest.witness is None
                continue
            fallbacks += 1
            # both announce the same extension, and both passed the self-check
            got = truth_set(m, report.witness.denotation())
            assert got == truth_set(m, smallest.witness.denotation())
            # the same decomposition, realised through characteristic formulas
            quotient, mapping = contract(m)

            def image(mask):
                return quotient.state_mask({mapping[s] for s in m.states_in(mask)})

            parts = tuple((a, image(truth_set(m, body))) for a, body in smallest.witness.bindings)
            with monkeypatch.context() as patch:
                patch.setattr(corgal.model, "WITNESS_SEARCH_BASE", 0)
                patch.setattr(corgal.model, "WITNESS_SEARCH_PER_NODE", 0)
                expected = definable_formula(quotient, parts)
            assert render_formula(report.witness.denotation()) == render_formula(
                expected.denotation()
            )
            assert len(str(smallest.witness)) <= len(str(report.witness))
        assert fallbacks >= 5

    def test_search_gives_up_on_a_large_model(self, tmp_path, capsys):
        # the search exceeds its default budget here, so each member
        # announces the balanced disjunction of its classes' characteristic
        # formulas, in the order of their lowest states, the quotient's
        # state order; the body is not positive, so the extension announced
        # is not the cell of s0, whose blocks the search finds
        m = random_model(3, 20, 3, 1)
        f = parse_formula("<{a0}, top> ((K a1 p0 | K a2 ~p0) & ~K a0 p0)")
        report = evaluate_witness(m, "s0", f)
        assert report.verdict and report.witness is not None  # and self-checked
        quotient, _ = contract(m)
        chars = characteristic_formulas(m)
        for _, body in report.witness.bindings:
            mask = truth_set(m, body)
            covered = [q for q in quotient.states if mask >> m.state_index(q) & 1]
            assert body == _join(Or, [chars[q] for q in covered])
        path = tmp_path / "model.json"
        path.write_text(render_model(m), encoding="utf-8")
        argv = ["witness", "--model", str(path), "--state", "s0", "--formula", render_formula(f)]
        assert cli.main(argv) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["true", "witness: " + render_formula(report.witness.denotation())]


class TestEvaluatorReuse:
    def test_short_lived_formulas_and_models(self):
        # formulas and restricted models are built and dropped in the loop,
        # so their ids get reused; a cache keyed on ids alone would mix
        # up queries
        rng = random.Random(7)
        ev = Evaluator()
        models = [random_model(seed, rng.randint(2, 5), 3, 2) for seed in range(6)]
        for i in range(400):
            m = models[i % len(models)]
            if i % 3 == 0:
                m = update(m, rng.randrange(1, m.full + 1))
            f = _gen(rng, Stratum.CORGAL, 3, m.atoms, m.agents)
            w = rng.choice(m.states)
            assert ev.holds(m, w, f) == evaluate(m, w, f)
            assert ev.truth_set(m, f) == truth_set(m, f)

    def test_one_refinement_per_domain_whichever_evaluator_asks(self, monkeypatch):
        # every refinement starts from the valuation partition, so counting
        # its calls counts the refinements actually computed; _quotient
        # reads it too, so the query stays off the witness path
        calls = []
        partition = corgal.model._valuation_partition
        monkeypatch.setattr(
            corgal.model, "_valuation_partition", lambda m: calls.append(m) or partition(m)
        )
        model = counterexample_model()
        f = parse_formula(f"<[{{a}}]> <[{{b}}]> ({GOAL})")
        verdict = Evaluator().holds(model, "pqr", f)
        assert calls
        calls.clear()
        assert Evaluator(cap=100).holds(model, "pqr", f) == verdict
        assert calls == []

    def test_silence_settles_a_nested_positive_diamond_without_refining(self, monkeypatch):
        # K a q holds at pqr, so by the preservation lemma it holds there in
        # every scope the outer box weighs, and silence settles the inner
        # diamond: only the model itself is refined, for the outer box's
        # extensions, and none of its 8 scopes that contain pqr
        calls = []
        partition = corgal.model._valuation_partition
        monkeypatch.setattr(
            corgal.model, "_valuation_partition", lambda m: calls.append(m) or partition(m)
        )
        model = counterexample_model()
        f = parse_formula("[{a,b}, top] <{c}, top> K a q")
        assert Evaluator().holds(model, "pqr", f)
        assert len(calls) == 1


class TestCap:
    def test_cap_propagates(self, counterexample):
        f = parse_formula(f"<[{{a,b}}]> ({GOAL})")
        with pytest.raises(EnumerationCapExceeded):
            evaluate(counterexample, "pqr", f, cap=5)

    def test_cap_counts_distinct_extensions(self, counterexample):
        # {a,b} has 49 decompositions but 13 distinct extensions; the whole
        # truth set is asked on every state, so it enumerates all of them
        f = parse_formula(f"<[{{a,b}}]> ({GOAL})")
        assert truth_set(counterexample, f, cap=13) == truth_set(counterexample, f)
        with pytest.raises(EnumerationCapExceeded, match="distinct group extensions"):
            truth_set(counterexample, f, cap=12)

    def test_cap_counts_the_extensions_containing_the_point(self, counterexample):
        # a fold asked at one state enumerates only the 8 of the 13
        # extensions that contain it
        f = parse_formula(f"<[{{a,b}}]> ({GOAL})")
        assert evaluate(counterexample, "pqr", f, cap=8)
        with pytest.raises(
            EnumerationCapExceeded, match="^8 distinct group extensions exceed the cap of 7$"
        ):
            evaluate(counterexample, "pqr", f, cap=7)

    def test_generous_cap_is_fine(self, counterexample):
        f = parse_formula(f"<[{{a,b}}]> ({GOAL})")
        assert evaluate(counterexample, "pqr", f, cap=10**6)

    @pytest.mark.parametrize("seed, n, text", [
        (275, 4, "p0 & [<{a0,a1,a2}>] [! p1] p1"),
        (143, 7, "K a1 [{a0,a2}, <! p0> p0] [<{a1}>] p1"),
        (297, 6, "[{a0,a1,a2}, p0] [<{a0,a1,a2}>] (p1 | p0)"),
    ])
    def test_scopes_the_point_never_reaches_are_not_enumerated(self, seed, n, text):
        # the truth set weighs scopes whose extensions exceed the cap; the
        # verdict at s0 visits none of them, since each part is asked only
        # where its parent reads it (not the right side of & where p0
        # fails, under K a1 only the block of s0)
        model = random_model(seed, n, 3, 2)
        f = parse_formula(text)
        with pytest.raises(EnumerationCapExceeded):
            truth_set(model, f, cap=2)
        assert evaluate(model, "s0", f, cap=2) is False
        assert evaluate(model, "s0", f) is False

    def test_check_trace_and_witness_agree_under_the_cap(self):
        # all three run the fold check runs, with its collapse and its
        # focus, so at every cap they give one verdict or all hit the cap
        rng = random.Random(5)
        bodies = [parse_formula(text) for text in (
            "K a1 p0 | K a2 ~p0", "K a0 p1 & (p0 | K a2 p0)",  # positive
            "(K a1 p0 | p1) & ~K a2 p0", "~K a0 p0 | K a1 p1",  # mixed
        )]
        p0 = Atom("p0")
        shapes = [
            lambda g, body: RelGroup(g, TOP, body),
            lambda g, body: RelGroupDual(g, TOP, body),
            lambda g, body: RelGroupDual(g, p0, body),
            lambda g, body: Coal(g, body),
            lambda g, body: CoalDual(g, body),
        ]
        runs = [
            evaluate,
            lambda *args, **kw: evaluate_trace(*args, **kw)[0],
            lambda *args, **kw: evaluate_witness(*args, **kw).verdict,
        ]
        refused = 0
        for _ in range(400):
            m = random_model(rng.randrange(2**32), rng.randint(3, 6), 3, 2)
            g = frozenset(rng.sample(m.agents, rng.randint(1, 3)))
            f = rng.choice(shapes)(g, rng.choice(bodies))
            w = rng.choice(m.states)
            cap = rng.randint(1, 12)
            answers = []
            for run in runs:
                try:
                    answers.append(run(m, w, f, cap=cap))
                except EnumerationCapExceeded:
                    answers.append(None)
            assert answers in ([True] * 3, [False] * 3, [None] * 3), (m, w, str(f), cap)
            refused += answers[0] is None
        assert 0 < refused < 400


class TestRecursionDepth:
    @pytest.mark.parametrize("wrap", [
        lambda g: CoalDual({"a"}, g),
        lambda g: Coal({"a"}, g),
        lambda g: RelGroupDual({"a"}, TOP, g),
        lambda g: RelGroup({"a"}, TOP, g),
    ], ids=["<[{a}]>", "[<{a}>]", "<{a}, top>", "[{a}, top]"])
    def test_a_quantifier_level_costs_at_most_four_frames(self, counterexample, wrap):
        # 98 nested operators answer within 500 frames: a relativised level
        # costs three (truth, _compute, fold), a coalition level four, its
        # inner fold called from the outer fold's loop
        f = Imp(Know("a", p), p)
        for _ in range(98):
            f = wrap(f)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 500)
        try:
            verdict = evaluate(counterexample, "pqr", f)
            assert evaluate_witness(counterexample, "pqr", f).verdict == verdict
            assert evaluate_trace(counterexample, "pqr", f)[0] == verdict
        finally:
            sys.setrecursionlimit(limit)
