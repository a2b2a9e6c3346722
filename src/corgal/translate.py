"""Reduction of public announcements to the purely epistemic language."""

from __future__ import annotations

from .formula import (
    And,
    Ann,
    Atom,
    Bot,
    Formula,
    Imp,
    Know,
    Not,
    Stratum,
    Top,
    desugar,
    stratum,
)


class StratumError(Exception):
    """The formula contains group or coalition operators, which have no
    announcement-free equivalent."""


def pal_to_el(f: Formula) -> Formula:
    """Rewrite announcements away, clause by clause, without simplifying.

    Announcement-free connectives translate homomorphically; an
    announcement is rewritten by reduction_step and translated again.
    Each step strictly lowers the complexity c of van Ditmarsch, van der
    Hoek and Kooi (Dynamic Epistemic Logic, 2007, ch. 7), so the recursion
    terminates: c(p) = 1, c(~g) = c(K a g) = 1 + c(g), c(g & h) =
    1 + max(c(g), c(h)), c([!g] h) = (4 + c(g)) c(h), and g -> h counts as
    ~(g & ~h).  (formula.size can grow: [! q] p has 4, q -> p 5.)  Diamond
    duals are desugared first.
    """
    g = desugar(f)
    if stratum(g) > Stratum.PAL:
        raise StratumError("group and coalition operators cannot be translated")
    return _translate(g)


def reduction_step(f: Ann) -> Formula:
    """The right-hand side of the reduction axiom for [!ann] body, by the
    shape of the core body (axioms A5-A9)."""
    ann, body = f.ann, f.sub
    if isinstance(body, (Atom, Top, Bot)):
        return Imp(ann, body)
    if isinstance(body, Not):
        return Imp(ann, Not(Ann(ann, body.sub)))
    if isinstance(body, And):
        return And(Ann(ann, body.left), Ann(ann, body.right))
    if isinstance(body, Know):
        return Imp(ann, Know(body.agent, Ann(ann, body.sub)))
    if isinstance(body, Ann):
        return Ann(And(ann, Ann(ann, body.ann)), body.sub)
    raise TypeError(f"unexpected node in desugared input: {f!r}")


def _translate(f: Formula) -> Formula:
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(_translate(f.sub))
    if isinstance(f, And):
        return And(_translate(f.left), _translate(f.right))
    if isinstance(f, Imp):
        # arises only from reduction_step's right-hand sides
        return Imp(_translate(f.left), _translate(f.right))
    if isinstance(f, Know):
        return Know(f.agent, _translate(f.sub))
    if isinstance(f, Ann):
        return _translate(reduction_step(f))
    raise TypeError(f"unexpected node in desugared input: {f!r}")
