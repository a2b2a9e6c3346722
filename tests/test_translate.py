import random

import pytest
from hypothesis import given

import corgal.translate
from corgal import (
    And,
    Ann,
    Atom,
    Bot,
    Coal,
    Formula,
    Iff,
    Imp,
    Know,
    Not,
    RelGroup,
    Stratum,
    StratumError,
    Top,
    desugar,
    pal_to_el,
    random_model,
    render_formula,
    stratum,
    truth_set,
)
from corgal.formula import height, tree_nodes
from corgal.translate import translation_size
from corgal.validity import _gen

from conftest import el_formulas

p, q, r = Atom("p"), Atom("q"), Atom("r")


class TestClauses:
    def test_atom_is_fixed(self):
        assert pal_to_el(p) == p

    def test_knowledge_under_announcement(self):
        got = pal_to_el(Ann(p, Know("a", p)))
        assert got == Imp(p, Know("a", Imp(p, p)))
        assert render_formula(got) == "p -> K a (p -> p)"

    def test_composed_announcements(self):
        got = pal_to_el(Ann(p, Ann(q, r)))
        assert render_formula(got) == "(p & (p -> q)) -> r"

    def test_group_operators_are_rejected(self):
        with pytest.raises(StratumError):
            pal_to_el(RelGroup({"a"}, p, q))
        with pytest.raises(StratumError):
            pal_to_el(Coal({"a"}, p))


class TestProperties:
    @given(el_formulas())
    def test_fixpoint_on_epistemic_formulas(self, f):
        assert pal_to_el(f) == desugar(f)

    def test_output_stratum_is_epistemic(self):
        rng = random.Random(4)
        for _ in range(200):
            f = _gen(rng, Stratum.PAL, 4, ("p", "q"), ("a", "b"))
            assert stratum(pal_to_el(f)) is Stratum.EL

    def test_semantic_equivalence(self):
        rng = random.Random(12)
        for _ in range(150):
            m = random_model(rng.randrange(2**32), rng.randint(1, 5), 2, 2)
            f = _gen(rng, Stratum.PAL, 3, m.atoms, m.agents)
            assert truth_set(m, f) == truth_set(m, pal_to_el(f))


def complexity(f: Formula, memo: dict) -> int:
    """c of van Ditmarsch, van der Hoek and Kooi (Dynamic Epistemic Logic,
    2007, ch. 7), with g -> h counted as ~(g & ~h); memo maps id(f) to
    (f, c(f))."""
    if id(f) not in memo:
        if isinstance(f, (Atom, Top, Bot)):
            c = 1
        elif isinstance(f, (Not, Know)):
            c = 1 + complexity(f.sub, memo)
        elif isinstance(f, And):
            c = 1 + max(complexity(f.left, memo), complexity(f.right, memo))
        elif isinstance(f, Imp):
            c = 2 + max(complexity(f.left, memo), 1 + complexity(f.right, memo))
        elif isinstance(f, Ann):
            c = (4 + complexity(f.ann, memo)) * complexity(f.sub, memo)
        else:
            raise TypeError(f)
        memo[id(f)] = f, c
    return memo[id(f)][1]


class TestTermination:
    def test_each_step_lowers_the_complexity(self, monkeypatch):
        steps = []
        step = corgal.translate.reduction_step
        monkeypatch.setattr(
            corgal.translate, "reduction_step", lambda f: steps.append((f, step(f))) or steps[-1][1]
        )
        rng = random.Random(5)
        for _ in range(3500):
            pal_to_el(_gen(rng, Stratum.PAL, 4, ("p", "q"), ("a", "b")))
        memo: dict = {}
        for f, g in steps:
            assert complexity(g, memo) < complexity(f, memo), render_formula(f)
        # every shape of the core body: leaf, ~, &, K a and [! ]
        assert {type(f.sub) for f, _ in steps} >= {Atom, Top, Not, And, Know, Ann}
        assert len(steps) > 20000


def announced_chain(n: int) -> Formula:
    """n nested [! K a p] around K a p."""
    f = Know("a", p)
    for _ in range(n):
        f = Ann(Know("a", p), f)
    return f


class TestTranslationSize:
    def test_matches_the_built_translation(self):
        rng = random.Random(7)
        for _ in range(2000):
            f = _gen(rng, Stratum.PAL, rng.randint(1, 5), ("p", "q"), ("a", "b"))
            g = pal_to_el(f)
            assert translation_size(f) == (height(g), tree_nodes(g)), render_formula(f)

    @pytest.mark.parametrize("n", range(9))
    def test_matches_on_the_announced_chain(self, n):
        g = pal_to_el(announced_chain(n))
        assert translation_size(announced_chain(n)) == (height(g), tree_nodes(g))

    def test_the_announced_chain_grows_threefold(self):
        # built, n = 12 is 5,668,697 characters
        sizes = {n: translation_size(announced_chain(n)) for n in (6, 8, 10, 11, 12, 20)}
        assert sizes == {
            6: (24, 2_186), 8: (32, 19_682), 10: (40, 177_146), 11: (44, 531_440),
            12: (48, 1_594_322), 20: (80, 10_460_353_202),
        }

    def test_shared_subterms_are_walked_once(self):
        # desugar shares each side of an iff, so this translation has 2^40
        # leaves in its tree but few distinct nodes
        f = p
        for _ in range(40):
            f = Iff(p, f)
        assert translation_size(f) == (height(desugar(f)), tree_nodes(desugar(f)))
        assert translation_size(f)[1] > 2**40
