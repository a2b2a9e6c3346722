"""Reduction of public announcements to the purely epistemic language.

translation_size works out the height and the node count of a
translation by recurrence on its input, so a caller can refuse one that
is too large before building it.
"""

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
    return _translate(_core(f))


def translation_size(f: Formula) -> tuple[int, int]:
    """The height and the tree-node count of pal_to_el(f), worked out by
    recurrence on f without building the translation, which can be
    exponentially larger than f: PAL is exponentially more succinct than
    EL (Lutz, AAMAS 2006)."""
    return _size(_core(f), {})


def _core(f: Formula) -> Formula:
    g = desugar(f)
    if stratum(g) > Stratum.PAL:
        raise StratumError("group and coalition operators cannot be translated")
    return g


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


# (height, tree nodes) of a translation
_Size = tuple[int, int]


def _size(f: Formula, memo: dict) -> _Size:
    """_translate(f)'s size; memo maps (id(node), announcement size) to the
    answer, so the shared subterms that desugar makes are walked once."""
    key = id(f), None
    if key not in memo:
        if isinstance(f, (Atom, Top, Bot)):
            memo[key] = 0, 1
        elif isinstance(f, (Not, Know)):
            h, n = _size(f.sub, memo)
            memo[key] = 1 + h, 1 + n
        elif isinstance(f, And):
            (h1, n1), (h2, n2) = _size(f.left, memo), _size(f.right, memo)
            memo[key] = 1 + max(h1, h2), 1 + n1 + n2
        elif isinstance(f, Ann):
            memo[key] = _announced(_size(f.ann, memo), f.sub, memo)
        else:
            raise TypeError(f"unexpected node in desugared input: {f!r}")
    return memo[key]


def _announced(ann: _Size, body: Formula, memo: dict) -> _Size:
    """_translate(Ann(a, body))'s size, where ann is _translate(a)'s, by
    reduction_step's right-hand sides."""
    key = id(body), ann
    if key not in memo:
        h, n = ann
        if isinstance(body, (Atom, Top, Bot)):  # a -> body
            memo[key] = 1 + h, 2 + n
        elif isinstance(body, (Not, Know)):  # a -> ~[!a] c, a -> K x [!a] c
            hc, nc = _announced(ann, body.sub, memo)
            memo[key] = 1 + max(h, 1 + hc), 2 + n + nc
        elif isinstance(body, And):  # [!a] c & [!a] d
            (h1, n1), (h2, n2) = _announced(ann, body.left, memo), _announced(ann, body.right, memo)
            memo[key] = 1 + max(h1, h2), 1 + n1 + n2
        elif isinstance(body, Ann):  # [!(a & [!a] c)] d
            hc, nc = _announced(ann, body.ann, memo)
            memo[key] = _announced((1 + max(h, hc), 1 + n + nc), body.sub, memo)
        else:
            raise TypeError(f"unexpected node in desugared input: {body!r}")
    return memo[key]
