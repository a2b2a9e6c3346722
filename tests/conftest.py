"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import pytest
from hypothesis import strategies as st

from corgal import (
    And,
    Ann,
    AnnDual,
    Atom,
    Bot,
    Coal,
    CoalDual,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Top,
    EpistemicModel,
    counterexample_model,
    train_model,
)

AGENTS = ("a", "b")
ATOMS = ("p", "q")

_groups = st.frozensets(st.sampled_from(AGENTS), max_size=len(AGENTS))
_agents = st.sampled_from(AGENTS)


def _leaves() -> st.SearchStrategy:
    return st.one_of(
        st.sampled_from([Atom(p) for p in ATOMS]),
        st.just(Top()),
        st.just(Bot()),
    )


def _extend(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(Not, children),
        st.builds(And, children, children),
        st.builds(Or, children, children),
        st.builds(Imp, children, children),
        st.builds(Iff, children, children),
        st.builds(Know, _agents, children),
        st.builds(Ann, children, children),
        st.builds(AnnDual, children, children),
        st.builds(RelGroup, _groups, children, children),
        st.builds(RelGroupDual, _groups, children, children),
        st.builds(Coal, _groups, children),
        st.builds(CoalDual, _groups, children),
    )


def models_equal(a: EpistemicModel, b: EpistemicModel) -> bool:
    """Equality under state-name identity (block order ignored)."""
    if a.states != b.states or a.agents != b.agents or a.atoms != b.atoms:
        return False
    if any(a.valuation_mask(p) != b.valuation_mask(p) for p in a.atoms):
        return False
    return all(set(a.blocks(ag)) == set(b.blocks(ag)) for ag in a.agents)


def formulas(max_leaves: int = 12) -> st.SearchStrategy:
    """Grammar-expressible formulas (no bare knowledge duals)."""
    return st.recursive(_leaves(), _extend, max_leaves=max_leaves)


def el_formulas(max_leaves: int = 12) -> st.SearchStrategy:
    return st.recursive(
        _leaves(),
        lambda children: st.one_of(
            st.builds(Not, children),
            st.builds(And, children, children),
            st.builds(Or, children, children),
            st.builds(Imp, children, children),
            st.builds(Know, _agents, children),
        ),
        max_leaves=max_leaves,
    )


@pytest.fixture(scope="session")
def train():
    return train_model()


@pytest.fixture(scope="session")
def counterexample():
    return counterexample_model()
