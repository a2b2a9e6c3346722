import copy
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

from hypothesis import given
from hypothesis import strategies as st
import pytest

import corgal
from corgal import (
    And,
    Ann,
    AnnDual,
    Atom,
    BOT,
    Bot,
    Coal,
    CoalDual,
    GroupKnowledgeFormula,
    HOLE,
    Iff,
    Imp,
    Know,
    KnowDual,
    NfAnn,
    NfImp,
    NfKnow,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Stratum,
    TOP,
    Top,
    depth_box,
    depth_coal,
    desugar,
    nf_instantiate,
    order_lt,
    parse_formula,
    size,
    stratum,
)
from corgal.formula import _measure, agents_in, atoms_in, hole_count
from corgal.validity import _gen

from conftest import el_formulas, formulas

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestStratum:
    def test_knowledge_only(self):
        assert stratum(Know("a", p)) is Stratum.EL

    def test_announcement(self):
        assert stratum(Ann(p, Know("a", p))) is Stratum.PAL

    def test_coalition(self):
        assert stratum(Coal({"a"}, p)) is Stratum.CORGAL

    def test_group(self):
        assert stratum(RelGroup({"a"}, p, q)) is Stratum.RGAL

    def test_duals_classify_with_their_primitive(self):
        assert stratum(AnnDual(p, q)) is Stratum.PAL
        assert stratum(RelGroupDual({"a"}, p, q)) is Stratum.RGAL
        assert stratum(CoalDual({"a"}, p)) is Stratum.CORGAL
        assert stratum(KnowDual("a", p)) is Stratum.EL

    def test_nesting_takes_the_maximum(self):
        assert stratum(Know("a", Coal({"b"}, p))) is Stratum.CORGAL
        assert stratum(Ann(RelGroup({"a"}, p, q), r)) is Stratum.RGAL


class TestDesugar:
    def test_announcement_diamond(self):
        assert desugar(AnnDual(p, q)) == Not(Ann(p, Not(q)))

    def test_coalition_diamond(self):
        assert desugar(CoalDual({"a"}, p)) == Not(Coal({"a"}, Not(p)))

    def test_identity_on_core(self):
        assert desugar(p) == p
        assert desugar(Ann(p, q)) == Ann(p, q)

    def test_group_diamond(self):
        assert desugar(RelGroupDual({"a"}, p, q)) == Not(RelGroup({"a"}, p, Not(q)))

    def test_knowledge_diamond(self):
        assert desugar(KnowDual("a", p)) == Not(Know("a", Not(p)))

    def test_or_imp_iff(self):
        assert desugar(Or(p, q)) == Not(And(Not(p), Not(q)))
        assert desugar(Imp(p, q)) == Not(And(p, Not(q)))

    @given(formulas())
    def test_idempotent(self, f):
        assert desugar(desugar(f)) == desugar(f)


class TestMeasures:
    def test_size_atom(self):
        assert size(p) == 1

    def test_size_announcement(self):
        assert size(Ann(p, q)) == 4

    def test_size_conjunction(self):
        assert size(And(p, q)) == 3

    def test_box_depth(self):
        assert depth_box(RelGroup({"a"}, p, q)) == 1
        assert depth_box(Coal({"a"}, p)) == 0
        # announcement depth adds, group box adds one
        assert depth_box(Ann(p, RelGroup({"a"}, q, r))) == 1

    def test_coal_depth(self):
        assert depth_coal(Coal({"a"}, p)) == 1
        assert depth_coal(RelGroup({"a"}, p, q)) == 0
        assert depth_coal(Know("a", Coal({"a"}, Coal({"b"}, p)))) == 2

    @given(el_formulas())
    def test_epistemic_formulas_have_zero_depths(self, f):
        assert depth_box(f) == 0
        assert depth_coal(f) == 0

    def test_order_examples(self):
        assert order_lt(p, Know("a", p))
        assert not order_lt(Know("a", p), p)
        lhs = And(p, Ann(And(Know("a", p), p), q))
        assert order_lt(lhs, RelGroup({"a"}, p, q))

    def test_order_silent_response_below_coalition_box(self):
        silence = GroupKnowledgeFormula((("a", TOP),)).denotation()
        assert order_lt(RelGroupDual({"b"}, silence, p), Coal({"a"}, p))

    @given(formulas(max_leaves=8))
    def test_order_irreflexive(self, f):
        assert not order_lt(f, f)

    @given(formulas(max_leaves=6), formulas(max_leaves=6), formulas(max_leaves=6))
    def test_order_transitive(self, f, g, h):
        if order_lt(f, g) and order_lt(g, h):
            assert order_lt(f, h)

    @given(
        formulas(max_leaves=6),
        formulas(max_leaves=6),
        formulas(max_leaves=6),
        el_formulas(max_leaves=4),
        st.frozensets(st.sampled_from(("a", "b")), max_size=2),
    )
    def test_measure_inequalities(self, tau, chi, phi, body, group):
        den = GroupKnowledgeFormula(tuple((a, body) for a in sorted(group))).denotation()
        others = frozenset(("a", "b")) - group
        assert order_lt(And(chi, Ann(And(den, chi), phi)), RelGroup(group, chi, phi))
        assert order_lt(
            Ann(tau, And(chi, Ann(And(den, chi), phi))),
            Ann(tau, RelGroup(group, chi, phi)),
        )
        assert order_lt(RelGroupDual(others, den, phi), Coal(group, phi))
        assert order_lt(
            Ann(tau, RelGroupDual(others, den, phi)), Ann(tau, Coal(group, phi))
        )


def naive_measure(f):
    """(depth_coal, depth_box, size) by walking the desugared tree, as the
    order is defined."""

    def walk(g):
        if isinstance(g, (Atom, Top, Bot)):
            return 0, 0, 1
        if isinstance(g, (Not, Know)):
            c, b, s = walk(g.sub)
            return c, b, s + 1
        if isinstance(g, And):
            (c1, b1, s1), (c2, b2, s2) = walk(g.left), walk(g.right)
            return max(c1, c2), max(b1, b2), s1 + s2 + 1
        if isinstance(g, Ann):
            (c1, b1, s1), (c2, b2, s2) = walk(g.ann), walk(g.sub)
            return c1 + c2, b1 + b2, s1 + 3 * s2
        if isinstance(g, RelGroup):
            (c1, b1, _), (c2, b2, s2) = walk(g.cond), walk(g.sub)
            return c1 + c2, b1 + b2 + 1, s2 + 1
        if isinstance(g, Coal):
            c, b, s = walk(g.sub)
            return c + 1, b, s + 1
        raise TypeError(f"not in the desugared core: {g!r}")

    return walk(desugar(f))


class TestMeasureAgainstDesugaredWalk:
    """The measures kept on each node equal those of a walk over the
    desugared tree."""

    def generated(self):
        rng = random.Random(5)
        agents = ("a", "b", "c")
        for i in range(5000):
            target = Stratum(i % 4)
            depth = 1 + (i // 4) % 5
            yield _gen(rng, target, depth, ("p", "q"), agents)

    def test_generated_formulas(self):
        seen = set()
        for f in self.generated():
            m = naive_measure(f)
            seen.add((stratum(f), m[:2] != (0, 0)))
            assert _measure(f) == m
            assert (depth_coal(f), depth_box(f), size(f)) == m
        # every stratum was reached, and some formulas have nonzero depths
        assert {s for s, _ in seen} == set(Stratum)
        assert (Stratum.CORGAL, True) in seen

    def test_order_is_the_triple_comparison(self):
        formulas = list(self.generated())
        for f, g in zip(formulas, formulas[1:] + formulas[:1]):
            assert order_lt(f, g) == (naive_measure(f) < naive_measure(g))
            assert order_lt(g, f) == (naive_measure(g) < naive_measure(f))

    @pytest.mark.parametrize(
        "f",
        [
            p,
            TOP,
            BOT,
            Not(p),
            And(p, Know("a", q)),
            Or(p, Know("a", q)),
            Imp(Coal({"a"}, p), q),
            Iff(Ann(p, q), RelGroup({"a"}, p, q)),
            Know("a", Coal({"b"}, p)),
            KnowDual("a", RelGroup({"b"}, q, p)),
            Ann(Coal({"a"}, p), RelGroup({"a"}, q, r)),
            AnnDual(RelGroup({"a"}, p, q), Coal({"b"}, Or(p, q))),
            RelGroup({"a"}, Coal({"b"}, p), Iff(p, q)),
            RelGroupDual({"a"}, RelGroup({"b"}, p, q), Coal({"a"}, r)),
            Coal({"a"}, KnowDual("b", p)),
            CoalDual({"a", "b"}, AnnDual(p, Imp(q, r))),
        ],
        ids=lambda f: str(f),
    )
    def test_every_constructor(self, f):
        assert _measure(f) == naive_measure(f)

    def test_shared_operands_count_twice(self):
        f = Iff(p, q)
        for _ in range(3):
            f = Or(f, f)
        assert size(f) == naive_measure(f)[2] == 8 * size(Iff(p, q)) + 7 * 4


class TestInterning:
    def test_atoms_and_constants(self):
        assert Atom("p") is Atom("p")
        assert Atom("p") is not Atom("q")
        assert Top() is TOP
        assert Bot() is BOT

    def test_parser_returns_interned_leaves(self):
        f = parse_formula("p & top")
        assert f.left is Atom("p")
        assert f.right is TOP
        assert parse_formula("bot") is BOT

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_copies_keep_interned_leaves(self, clone):
        f = Know("a", Atom("p"))
        hash(f)
        g = clone(f)
        assert g.sub is Atom("p")
        assert g == f and hash(g) == hash(f)
        assert clone(Atom("p")) is Atom("p")
        assert clone(TOP) is TOP
        assert clone(BOT) is BOT
        assert clone(RelGroup({"a"}, p, q)) == RelGroup({"a"}, p, q)

    def test_non_leaf_nodes_stay_distinct_objects(self):
        f, g = Know("a", Atom("p")), Know("a", Atom("p"))
        assert f is not g
        assert f == g and hash(f) == hash(g)
        assert Know("a", p) != Know("b", p)
        assert And(p, q) != And(q, p)
        assert len({f, g, Know("b", p)}) == 2

    def test_pickle_loads_equal_under_another_hash_seed(self):
        f = parse_formula("K a p & q")
        hash(f)
        seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
        script = (
            "import pickle, sys\n"
            "from corgal import parse_formula\n"
            "g = pickle.loads(sys.stdin.buffer.read())\n"
            "f = parse_formula('K a p & q')\n"
            "print(f == g, hash(f) == hash(g), g in {f}, hash('K a p & q'))\n"
        )
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(corgal.__file__).resolve().parents[1]))
        out = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(f),
            capture_output=True, env=env, check=True,
        ).stdout.decode().split()
        assert out[:3] == ["True", "True", "True"]
        # the loading process really hashes differently
        assert int(out[3]) != hash("K a p & q")


class TestSharedSubterms:
    """Walks visit each distinct node once: this formula has 2^40 leaves
    in its tree but 41 distinct nodes."""

    def dag(self):
        f = Know("a", p)
        for _ in range(40):
            f = And(f, f)
        return f

    def test_stratum(self):
        assert stratum(self.dag()) == Stratum.EL
        assert stratum(Ann(q, self.dag())) == Stratum.PAL

    def test_symbols(self):
        f = self.dag()
        assert agents_in(f) == {"a"}
        assert atoms_in(f) == {"p"}

    def test_hash_and_equality(self):
        assert hash(self.dag()) == hash(self.dag())
        assert self.dag() == self.dag()

    def test_group_knowledge_accepts_shared_bodies(self):
        assert GroupKnowledgeFormula((("a", self.dag()),)).group == {"a"}


class TestGroupKnowledge:
    def test_empty_group_denotes_top(self):
        assert GroupKnowledgeFormula(()).denotation() == TOP

    def test_singleton(self):
        g = GroupKnowledgeFormula((("a", q),))
        assert g.denotation() == Know("a", q)
        assert g.group == frozenset({"a"})

    def test_denotation_order_is_sorted(self):
        g = GroupKnowledgeFormula((("b", q), ("a", p)))
        assert g.denotation() == And(Know("a", p), Know("b", q))

    def test_rejects_announcement_bodies(self):
        with pytest.raises(ValueError):
            GroupKnowledgeFormula((("a", Ann(p, q)),))

    def test_rejects_duplicate_agents(self):
        with pytest.raises(ValueError):
            GroupKnowledgeFormula((("a", p), ("a", q)))


class TestNecessityForms:
    def test_bare_hole(self):
        assert nf_instantiate(HOLE, p) == p

    def test_implication_context(self):
        nf = NfImp(p, NfKnow("a", HOLE))
        assert nf_instantiate(nf, q) == Imp(p, Know("a", q))

    def test_announcement_context(self):
        nf = NfAnn(r, NfImp(p, HOLE))
        assert nf_instantiate(nf, Know("b", q)) == Ann(r, Imp(p, Know("b", q)))

    def test_every_form_has_one_hole(self):
        forms = [
            HOLE,
            NfImp(p, HOLE),
            NfKnow("a", NfAnn(q, HOLE)),
            NfAnn(p, NfImp(q, NfKnow("b", HOLE))),
        ]
        for nf in forms:
            assert hole_count(nf) == 1
