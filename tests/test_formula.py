from hypothesis import given
from hypothesis import strategies as st
import pytest

from corgal import (
    And,
    Ann,
    AnnDual,
    Atom,
    Coal,
    CoalDual,
    GroupKnowledgeFormula,
    HOLE,
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
    depth_box,
    depth_coal,
    desugar,
    nf_instantiate,
    order_lt,
    size,
    stratum,
)
from corgal.formula import agents_in, atoms_in, hole_count

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
