import hashlib
import sys
from functools import reduce

import pytest

import corgal.model
from corgal import (
    And,
    Atom,
    EnumerationCapExceeded,
    EpistemicModel,
    Formula,
    Know,
    Not,
    Or,
    Stratum,
    TOP,
    characteristic_formulas,
    contract,
    definable_formula,
    evaluate,
    evaluate_witness,
    parse_formula,
    parse_model,
    random_model,
    render_model,
    smallest_formulas,
    stratum,
    truth_set,
)
from corgal.formula import tree_nodes
from corgal.model import block_unions, choice_sets, refinement, update
from corgal.validity import enumerate_small_models
from conftest import models_equal
from test_differential import doubled_models


def two_state_twin():
    # both states satisfy exactly {p}; every agent relates them
    return EpistemicModel(
        states=["x", "y"],
        agents=["a", "b"],
        atoms=["p"],
        partitions={"a": [["x", "y"]], "b": [["x", "y"]]},
        valuation={"p": ["x", "y"]},
    )


class TestConstruction:
    def test_partition_invariants_enforced(self):
        with pytest.raises(ValueError, match="cover"):
            EpistemicModel(["x", "y"], ["a"], ["p"], {"a": [["x"]]}, {"p": []})
        with pytest.raises(ValueError, match="overlap"):
            EpistemicModel(
                ["x", "y"], ["a"], ["p"], {"a": [["x", "y"], ["y"]]}, {"p": []}
            )
        with pytest.raises(ValueError, match="empty"):
            EpistemicModel(["x"], ["a"], ["p"], {"a": [["x"], []]}, {"p": []})

    def test_valuation_naming_an_unknown_state(self):
        with pytest.raises(ValueError, match="^atom 'p': unknown state 'zz' in valuation$"):
            EpistemicModel(["w"], ["a"], ["p"], {"a": [["w"]]}, {"p": ["zz"]})

    def test_valuation_entry_that_is_not_a_state_name(self):
        with pytest.raises(ValueError, match=r"^atom 'p': unknown state \['w'\] in valuation$"):
            EpistemicModel(["w"], ["a"], ["p"], {"a": [["w"]]}, {"p": [["w"]]})


class TestUpdate:
    def test_train_announcement_drops_a_state(self, train):
        restricted = update(train, train.state_mask(["w"]))
        assert restricted.states == ("w",)
        assert all(len(restricted.blocks(a)) == 1 for a in restricted.agents)

    def test_trivial_announcement_is_identity(self, train):
        assert models_equal(update(train, train.full), train)

    def test_learning_from_an_extension(self, counterexample):
        # announcing "a knows q" teaches b that q
        mask = counterexample.state_mask(["pqr", "qr", "pq"])
        restricted = update(counterexample, mask)
        assert len(restricted.states) == 3
        assert evaluate(restricted, "pqr", Know("b", Atom("q")))

    def test_empty_extension_is_an_error(self, train):
        with pytest.raises(ValueError, match="empty"):
            update(train, 0)

    def test_update_preserves_validity(self):
        for seed in range(15):
            m = random_model(seed, 4, 3, 2)
            for mask in (1, 3, m.full):
                sub = update(m, mask)
                assert models_equal(parse_model_render(sub), sub)


def parse_model_render(m):
    return parse_model(render_model(m))


class TestContract:
    def test_distinct_valuations_stay_apart(self, train):
        quotient, mapping = contract(train)
        assert models_equal(quotient, train)
        assert mapping == {"w": "w", "v": "v"}

    def test_symmetric_duplicates_merge(self):
        quotient, mapping = contract(two_state_twin())
        assert quotient.states == ("x",)
        assert mapping == {"x": "x", "y": "x"}

    def test_counterexample_is_already_contracted(self, counterexample):
        quotient, _ = contract(counterexample)
        assert models_equal(quotient, counterexample)

    def test_idempotent(self):
        for seed in range(20):
            m = random_model(seed, 5, 2, 1)
            once, _ = contract(m)
            twice, _ = contract(once)
            assert models_equal(once, twice)

    def test_separation_can_need_a_refinement_round(self):
        # y and z agree on valuation and differ only through a's view of x
        m = EpistemicModel(
            states=["x", "y", "z"],
            agents=["a"],
            atoms=["p"],
            partitions={"a": [["x", "y"], ["z"]]},
            valuation={"p": ["x"]},
        )
        quotient, _ = contract(m)
        assert len(quotient.states) == 3
        chars = characteristic_formulas(m)
        for state in m.states:
            assert truth_set(m, chars[state]) == m.state_mask([state])

    def test_isolated_twins_merge(self):
        m = EpistemicModel(
            states=["x", "y"],
            agents=["a"],
            atoms=["p"],
            partitions={"a": [["x"], ["y"]]},
            valuation={"p": []},
        )
        quotient, mapping = contract(m)
        assert quotient.states == ("x",)
        assert mapping["y"] == "x"


def signature_rounds(m: EpistemicModel, domain: int) -> list[list[int]]:
    """Bisimulation classes of M|domain round by round, by per-state
    signatures: round 0 by valuation, then a state's label is its old one
    together with, per agent, the set of old labels its block in M|domain
    holds; stop once a round splits nothing."""
    states = [i for i in range(m.n) if domain >> i & 1]
    labels = {i: tuple(m.valuation_mask(p) >> i & 1 for p in m.atoms) for i in states}
    history = [labels]
    while True:
        step = {
            i: (labels[i], tuple(
                frozenset(labels[j] for j in states if block >> j & 1)
                for a in m.agents for block in m.blocks(a) if block >> i & 1
            ))
            for i in states
        }
        if len(set(step.values())) == len(set(labels.values())):
            break
        labels = step
        history.append(labels)
    rounds = []
    for labels in history:
        classes: dict = {}
        for i in states:
            classes[labels[i]] = classes.get(labels[i], 0) | 1 << i
        rounds.append(list(classes.values()))  # first-seen order: by lowest state
    return rounds


class TestRefinement:
    def test_rounds_match_signature_refinement(self):
        models = [*enumerate_small_models(3, 2, 1), *doubled_models()]
        models += [random_model(seed, 6, 3, 1) for seed in range(20)]
        models += [random_model(seed, 7, 3, 1) for seed in range(30)]
        # refinement stops once the classes are discrete; count how each
        # domain ends: discrete after the valuation split, discrete after
        # one or more splits, or stable with a class of several states
        exits = {"valuation": 0, "split": 0, "stable": 0}
        deepest = 0
        for m in models:
            for domain in range(1, m.full + 1):
                depth, widened = refinement(m, domain)
                rounds = signature_rounds(m, domain)
                classes = rounds[-1]
                # the bisimulation classes are the meet of the valuation
                # partition, round 0, and every agent's widened blocks
                meet = rounds[0]
                for a in m.agents:
                    meet = [part for c in meet for w in widened[a] if (part := c & w)]
                assert sorted(meet) == sorted(classes), (m, domain)
                assert depth == len(rounds) - 1, (m, domain)
                for a in m.agents:
                    blocks = [b & domain for b in m.blocks(a) if b & domain]
                    expected = {sum(c for c in classes if c & b) for b in blocks}
                    # refinement() keeps the order it splits in; compare as sorted
                    assert sorted(widened[a]) == sorted(expected)
                if len(classes) < domain.bit_count():
                    exits["stable"] += 1
                else:
                    exits["valuation" if depth == 0 else "split"] += 1
                deepest = max(deepest, depth + 1)
        assert min(exits.values()) > 500 and deepest > 4, (exits, deepest)


class TestCharacteristicFormulas:
    def test_train_states_are_pinned(self, train):
        chars = characteristic_formulas(train)
        assert truth_set(train, chars["w"]) == train.state_mask(["w"])
        assert truth_set(train, chars["v"]) == train.state_mask(["v"])

    def test_one_state_model(self):
        m = random_model(3, 1, 1, 1)
        chars = characteristic_formulas(m)
        only = m.states[0]
        assert truth_set(m, chars[only]) == m.full

    def test_counterexample_needs_no_modalities(self, counterexample):
        chars = characteristic_formulas(counterexample)
        for state, f in chars.items():
            assert truth_set(counterexample, f) == counterexample.state_mask([state])
            assert _has_no_knowledge(f)

    def test_pins_classes_on_uncontracted_models(self):
        models = [two_state_twin()] + [random_model(seed, 6, 2, 1) for seed in range(25)]
        merged = 0
        for m in models:
            quotient, mapping = contract(m)
            merged += quotient.n < m.n
            for state, f in characteristic_formulas(m).items():
                bisimilar = [s for s in m.states if mapping[s] == mapping[state]]
                assert truth_set(m, f) == m.state_mask(bisimilar)
        assert merged > 5

    def test_pins_states_on_contracted_random_models(self):
        for seed in range(25):
            m, _ = contract(random_model(seed, 5, 2, 2))
            chars = characteristic_formulas(m)
            for state, f in chars.items():
                assert truth_set(m, f) == m.state_mask([state])


def _has_no_knowledge(f):
    if isinstance(f, Know):
        return False
    if isinstance(f, (Atom,)) or f == TOP:
        return True
    if isinstance(f, Not):
        return _has_no_knowledge(f.sub)
    if isinstance(f, (And, Or)):
        return _has_no_knowledge(f.left) and _has_no_knowledge(f.right)
    return True


class TestAgentUnions:
    # the unions of one agent's blocks, which choice_sets() combines
    def test_counts(self, counterexample):
        assert len(block_unions(counterexample.blocks("c"))) == 3
        assert len(block_unions(counterexample.blocks("a"))) == 7

    def test_silence_comes_first(self, counterexample):
        for agent in counterexample.agents:
            unions = block_unions(counterexample.blocks(agent))
            assert unions[0] == counterexample.full

    def test_unions_are_distinct(self):
        for seed in range(10):
            m = random_model(seed, 5, 2, 2)
            for agent in m.agents:
                unions = block_unions(m.blocks(agent))
                assert len(set(unions)) == len(unions)


class TestChoiceSets:
    def test_pair_count(self, counterexample):
        assert len(choice_sets(counterexample, {"a", "b"})) == 49

    def test_empty_group_is_trivial(self, counterexample):
        sets = choice_sets(counterexample, frozenset())
        assert len(sets) == 1
        assert sets[0].extension == counterexample.full

    def test_singleton_group_matches_agent_unions(self, counterexample):
        sets = choice_sets(counterexample, {"a"})
        assert [c.extension for c in sets] == block_unions(counterexample.blocks("a"))

    def test_extension_is_the_intersection(self, counterexample):
        for c in choice_sets(counterexample, {"a", "c"}):
            expected = counterexample.full
            for _, mask in c.per_agent_union:
                expected &= mask
            assert c.extension == expected

    def test_components_are_unions_of_blocks(self, counterexample):
        for c in choice_sets(counterexample, {"a", "b"}):
            for agent, mask in c.per_agent_union:
                rebuilt = 0
                for block in counterexample.blocks(agent):
                    if block & mask:
                        assert block & ~mask == 0
                        rebuilt |= block
                assert rebuilt == mask

    def test_cap(self, counterexample):
        with pytest.raises(EnumerationCapExceeded):
            choice_sets(counterexample, {"a", "b"}, cap=10)

    def test_unknown_agent(self, counterexample):
        with pytest.raises(ValueError, match="unknown agent"):
            choice_sets(counterexample, {"zz"})

    def test_cap_is_checked_before_any_union_is_built(self, monkeypatch):
        # one agent with 20 singleton blocks has 2^20 - 1 unions
        calls = []
        unions = corgal.model.block_unions
        monkeypatch.setattr(
            corgal.model, "block_unions", lambda blocks: calls.append(blocks) or unions(blocks)
        )
        names = [f"s{i}" for i in range(20)]
        m = EpistemicModel(names, ["a"], ["p"], {"a": [[s] for s in names]}, {"p": names})
        message = "^1048575 choice-set decompositions exceed the cap of 10$"
        with pytest.raises(EnumerationCapExceeded, match=message):
            choice_sets(m, {"a"}, cap=10)
        assert calls == []


class TestDefinableFormula:
    def test_counterexample_component_is_knowing_q(self, counterexample):
        target = choice_sets(counterexample, {"a"})
        union = counterexample.state_mask(["pqr", "qr", "pq"])
        choice = next(c for c in target if c.extension == union)
        psi = definable_formula(counterexample, choice.per_agent_union)
        assert truth_set(counterexample, psi.denotation()) == union
        assert truth_set(counterexample, Know("a", Atom("q"))) == union

    def test_empty_group(self, counterexample):
        trivial = choice_sets(counterexample, frozenset())[0]
        assert definable_formula(counterexample, trivial.per_agent_union).denotation() == TOP

    def test_full_union_is_silence(self, counterexample):
        sets = choice_sets(counterexample, {"b"})
        psi = definable_formula(counterexample, sets[0].per_agent_union)
        assert truth_set(counterexample, psi.denotation()) == counterexample.full

    def test_extension_always_matches(self):
        for seed in range(12):
            m, _ = contract(random_model(seed, 4, 2, 2))
            for group in (frozenset({"a0"}), frozenset({"a0", "a1"})):
                for c in choice_sets(m, group):
                    if c.extension == 0:
                        continue
                    psi = definable_formula(m, c.per_agent_union)
                    assert truth_set(m, psi.denotation()) == c.extension

    def test_search_gives_smallest_bodies(self, counterexample):
        union = counterexample.state_mask(["pqr", "qr", "pq"])
        parts = (("a", union), ("b", counterexample.full))
        psi = definable_formula(counterexample, parts)
        assert psi.bindings == (("a", Atom("q")), ("b", TOP))

    def test_fallback_agrees_with_the_contraction(self, monkeypatch):
        # the characteristic route works on any model: each agent's
        # disjunction runs over the bisimulation classes its union covers
        checked = 0
        for seed in range(12):
            m = random_model(seed, 6, 2, 1)
            quotient, mapping = contract(m)
            if quotient.n == m.n:
                continue
            for c in choice_sets(quotient, {"a0", "a1"}):
                if c.extension == 0:
                    continue
                parts = tuple(
                    (a, m.state_mask(s for s in m.states if mapping[s] in quotient.states_in(mask)))
                    for a, mask in c.per_agent_union
                )
                with monkeypatch.context() as patch:
                    patch.setattr(corgal.model, "WITNESS_SEARCH_BASE", 0)
                    patch.setattr(corgal.model, "WITNESS_SEARCH_PER_NODE", 0)
                    psi = definable_formula(m, parts)
                    assert psi == definable_formula(quotient, c.per_agent_union)
                searched = definable_formula(m, parts)
                for (a, body), (_, mask) in zip(searched.bindings, parts):
                    assert truth_set(m, body) == mask
                    assert tree_size(body) <= tree_size(dict(psi.bindings)[a])
                checked += 1
        assert checked > 20


def tree_size(f: Formula) -> int:
    """Nodes of f written out as a tree, shared subterms counted at every
    occurrence."""
    sizes: dict[int, int] = {}

    def walk(g: Formula) -> int:
        if id(g) not in sizes:
            children = [getattr(g, n) for n in g.__match_args__]
            sizes[id(g)] = 1 + sum(walk(c) for c in children if isinstance(c, Formula))
        return sizes[id(g)]

    return walk(f)


def least_sizes(m: EpistemicModel, count: int) -> dict[int, int]:
    """Least node count of an epistemic formula with each truth set, for
    the first `count` truth sets reached: every truth set of n nodes,
    from those of fewer nodes, until `count` are known."""
    def know(a, x):
        return sum(b for b in m.blocks(a) if b & ~x == 0)

    exactly = {1: {m.full, 0} | {m.valuation_mask(p) for p in m.atoms}}
    least = dict.fromkeys(exactly[1], 1)
    n = 1
    while len(least) < count:
        n += 1
        sets = {m.full & ~x for x in exactly[n - 1]}
        sets |= {know(a, x) for a in m.agents for x in exactly[n - 1]}
        for i in range(1, n - 1):
            for x in exactly[i]:
                for y in exactly[n - 1 - i]:
                    sets |= {x & y, x | y}
        exactly[n] = sets
        for x in sets:
            least.setdefault(x, n)
    return least


class TestSmallestFormulas:
    def test_every_class_union_on_small_models(self):
        checked = 0
        for m in enumerate_small_models(3, 2, 1):
            quotient, mapping = contract(m)
            chars = characteristic_formulas(quotient)
            classes = [m.state_mask(s for s in m.states if mapping[s] == q) for q in quotient.states]
            unions = {0: []}
            for i, c in enumerate(classes):
                unions.update({u | c: names + [quotient.states[i]] for u, names in unions.items()})
            found = smallest_formulas(m, unions, budget=10**6)
            least = least_sizes(m, len(unions))
            assert found.keys() == unions.keys() == least.keys()
            for mask, f in found.items():
                assert stratum(f) == Stratum.EL
                assert truth_set(m, f) == mask
                assert tree_size(f) == least[mask]
                if mask:
                    via_chars = reduce(Or, [chars[q] for q in unions[mask]])
                    assert tree_size(f) <= tree_size(via_chars)
                checked += 1
        assert checked > 1000

    def test_smallest_first(self, counterexample):
        q_a = truth_set(counterexample, Know("a", Atom("q")))
        found = smallest_formulas(counterexample, [counterexample.full, 0, q_a], budget=10**6)
        assert found[counterexample.full] == TOP
        assert str(found[0]) == "bot"
        assert found[q_a] == Atom("q")

    def test_budget_runs_out(self, counterexample):
        assert smallest_formulas(counterexample, [counterexample.full], budget=0) is None
        assert smallest_formulas(counterexample, [], budget=0) == {}

    def test_target_must_be_definable(self):
        m = two_state_twin()
        with pytest.raises(ValueError, match="bisimulation classes"):
            smallest_formulas(m, [m.state_mask(["x"])], budget=10**6)


# witness queries whose search gives up at WITNESS_SEARCH_BASE but not at
# the budget the fallback's size allows
PAST_THE_BASE = [
    (0, 20, "<{a0}, top> (K a1 p0 | K a2 ~p0)"),
    (19, 20, "<{a0}, top> ((K a1 p0 | K a2 ~p0) & ~K a0 p0)"),
    (0, 30, "<{a0}, top> ((K a1 p0 | K a2 ~p0) & ~K a0 p0)"),
]


class TestCharacteristicSize:
    def test_counts_the_fallback_bodies(self, monkeypatch):
        # the budget the search resumes with counts the tree nodes of the
        # fallback bodies, once per member; with a base of 0 and a node
        # each, the budget is that count, on contracted and uncontracted
        # models of up to five refinement rounds
        budgets = []

        def gives_up(m, targets, budget):
            while True:
                budgets.append(budget)
                budget = yield None

        monkeypatch.setattr(corgal.model, "WITNESS_SEARCH_BASE", 0)
        monkeypatch.setattr(corgal.model, "WITNESS_SEARCH_PER_NODE", 1)
        monkeypatch.setattr(corgal.model, "_search", gives_up)
        models = list(enumerate_small_models(3, 2, 1))
        models += [random_model(seed, 7, 3, 1) for seed in range(30)]
        checked = 0
        for m in models:
            first, second = m.agents[:2]
            for u, v in zip(block_unions(m.blocks(first))[:8], block_unions(m.blocks(second))):
                for parts in (((first, u),), ((first, u), (second, v))):
                    budgets.clear()
                    psi = definable_formula(m, parts)
                    assert budgets == [0, sum(tree_size(body) for _, body in psi.bindings)]
                    checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("seed, n, formula", PAST_THE_BASE)
    def test_search_goes_past_the_base_budget(self, monkeypatch, seed, n, formula):
        # the search gives up at WITNESS_SEARCH_BASE but not at the budget
        # the fallback's size allows, so the witness is the searched formula
        m = random_model(seed, n, 3, 1)
        witness = evaluate_witness(m, "s0", parse_formula(formula)).witness
        parts = tuple((a, truth_set(m, body)) for a, body in witness.bindings)
        masks = [u for _, u in parts]
        assert smallest_formulas(m, masks, corgal.model.WITNESS_SEARCH_BASE) is None
        searched = smallest_formulas(m, masks, 10**6)
        assert witness.bindings == tuple((a, searched[u]) for a, u in parts)
        monkeypatch.setattr(corgal.model, "WITNESS_SEARCH_BASE", 0)
        monkeypatch.setattr(corgal.model, "WITNESS_SEARCH_PER_NODE", 0)
        fallback = definable_formula(m, parts)
        for (_, body), (_, chars) in zip(witness.bindings, fallback.bindings):
            assert tree_size(body) < tree_size(chars)

    @pytest.mark.parametrize("seed, n, formula", PAST_THE_BASE)
    def test_one_search_per_witness(self, monkeypatch, seed, n, formula):
        # the search that gives up at WITNESS_SEARCH_BASE resumes at the
        # larger budget; it is started once, not again from scratch
        starts = []
        search = corgal.model._search

        def counted(m, targets, budget):
            starts.append(budget)
            return search(m, targets, budget)

        monkeypatch.setattr(corgal.model, "_search", counted)
        report = evaluate_witness(random_model(seed, n, 3, 1), "s0", parse_formula(formula))
        assert report.witness is not None
        assert starts == [corgal.model.WITNESS_SEARCH_BASE]

    def test_counts_a_shared_dag_without_recursion(self):
        # higher than the recursion limit, with 2^levels leaves in its tree
        f = Know("a", Atom("p"))
        levels = sys.getrecursionlimit() + 100
        for _ in range(levels):
            f = And(f, f)
        assert tree_nodes(f) == 3 * 2**levels - 1


class TestRandomModel:
    def test_deterministic(self):
        assert models_equal(random_model(9, 5, 3, 3), random_model(9, 5, 3, 3))

    def test_pinned(self):
        # benchmark pools store fingerprints of these models, so the draws
        # must never change; the digest was recorded when the test was added
        digest = hashlib.sha256()
        for n in (1, 2, 5, 9, 20):
            for seed in range(200):
                digest.update(render_model(random_model(seed, n, 3, 2)).encode())
        assert digest.hexdigest() == (
            "58dfe903f26df5e4f6c78e8b8c4e26909ad0c532c0d12196dd117ca5e0d796d8"
        )

    def test_more_states_than_the_recursion_limit(self):
        # the partition counts are built without recursing once per state
        assert random_model(0, 1200, 1, 1).n == 1200

    def test_minimal(self):
        m = random_model(0, 1, 1, 1)
        assert m.states == ("s0",)

    def test_counts_validated(self):
        with pytest.raises(ValueError):
            random_model(0, 0, 1, 1)

    def test_partition_sampling_hits_all_shapes(self):
        # 2 states have exactly 2 set partitions; both should appear
        shapes = set()
        for seed in range(40):
            m = random_model(seed, 2, 1, 1)
            shapes.add(len(m.blocks("a0")))
        assert shapes == {1, 2}
