"""Syntax of the epistemic announcement language.

Formulas are immutable trees over knowledge, public announcement,
relativised group announcement and coalition announcement operators.
The three announcement diamonds and the Or/Imp/Iff connectives are
sugar; desugar() expands them into the core
(Atom/Top/Bot/Not/And/Know/Ann/RelGroup/Coal).  The knowledge diamond has
no node of its own: it is written ~K a ~phi.  The size and depth
measures plus the well-founded order driving the harness are those of
the desugared formula.  They are computed on the formula itself, without
building the desugared tree, and kept on each node by a recursive memo,
as its hash is.  Membership in the positive fragment (positive()), over
which the checker's quantifiers enumerate nothing, the tree's height
(height()), which the parser bounds, and its node count (tree_nodes()),
which sizes the witness search's budget, are kept on each node too, and
share one walk that needs no recursion.  reduction() writes once what a
quantifier becomes when its group's announcement is fixed, for the
checker's witness check and the harness's axioms.  Leaves are interned:
Atom(name) returns one object per name, and Top() and Bot() return TOP
and BOT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Iterator


class Stratum(enum.IntEnum):
    """Nested sublanguages, smallest first."""

    EL = 0       # propositional + knowledge
    PAL = 1      # adds public announcements
    RGAL = 2     # adds relativised group announcements
    CORGAL = 3   # adds coalition announcements


@dataclass(frozen=True, eq=False)
class Formula:
    """Base class for all formula nodes.

    Equality is structural.  Each node computes its hash once and keeps
    it, so hashing a formula costs O(1) after the first time even when it
    shares subterms, as witnesses built from characteristic formulas do.
    Pickling and copying rebuild a node through its constructor, so the
    kept hash, which depends on the process's hash seed, is never carried
    over.
    """

    # Memos filled on first use, not dataclass fields.
    _hash = None
    _measure = None
    _positive = None
    _height = None
    _tree_nodes = None

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = hash((type(self), *(getattr(self, n) for n in self.__match_args__)))
            object.__setattr__(self, "_hash", value)
        return value

    def __reduce__(self) -> tuple:
        return type(self), tuple(getattr(self, n) for n in self.__match_args__)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return _equal(self, other)

    def __str__(self) -> str:
        from .parser import render_formula

        return render_formula(self)


@dataclass(frozen=True, eq=False)
class Atom(Formula):
    """Propositional variable; Atom(name) is one object per name."""

    name: str

    def __new__(cls, name: str) -> "Atom":
        atom = _ATOMS.get(name)
        if atom is None:
            atom = _ATOMS[name] = super().__new__(cls)
        return atom


# Atoms are immutable values, so one table serves the whole process.
_ATOMS: dict[str, Atom] = {}


@dataclass(frozen=True, eq=False)
class Top(Formula):
    """Top() is TOP."""

    def __new__(cls) -> "Top":
        return TOP


@dataclass(frozen=True, eq=False)
class Bot(Formula):
    """Bot() is BOT."""

    def __new__(cls) -> "Bot":
        return BOT


TOP = object.__new__(Top)
BOT = object.__new__(Bot)


@dataclass(frozen=True, eq=False)
class Not(Formula):
    sub: Formula


@dataclass(frozen=True, eq=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Imp(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, eq=False)
class Know(Formula):
    agent: str
    sub: Formula


@dataclass(frozen=True, eq=False)
class Ann(Formula):
    """Public announcement box: after truthfully announcing `ann`, `sub`."""

    ann: Formula
    sub: Formula


@dataclass(frozen=True, eq=False)
class AnnDual(Formula):
    ann: Formula
    sub: Formula


def _freeze_group(f: Formula) -> None:
    """Store the group of a quantified node as a frozenset."""
    object.__setattr__(f, "group", frozenset(f.group))


@dataclass(frozen=True, eq=False)
class RelGroup(Formula):
    """Relativised group announcement box over the agents in `group`."""

    group: frozenset[str]
    cond: Formula
    sub: Formula

    __post_init__ = _freeze_group


@dataclass(frozen=True, eq=False)
class RelGroupDual(Formula):
    group: frozenset[str]
    cond: Formula
    sub: Formula

    __post_init__ = _freeze_group


@dataclass(frozen=True, eq=False)
class Coal(Formula):
    """Coalition announcement box: every announcement by `group` can be
    countered by the remaining agents so that `sub` holds."""

    group: frozenset[str]
    sub: Formula

    __post_init__ = _freeze_group


@dataclass(frozen=True, eq=False)
class CoalDual(Formula):
    group: frozenset[str]
    sub: Formula

    __post_init__ = _freeze_group


def _equal(f: Formula, g: Formula) -> bool:
    """Structural equality without recursion, each pair of shared
    subterms compared once."""
    compared: set[tuple[int, int]] = set()
    stack = [(f, g)]
    while stack:
        a, b = stack.pop()
        if a is b or (id(a), id(b)) in compared:
            continue
        if type(a) is not type(b) or hash(a) != hash(b):
            return False
        compared.add((id(a), id(b)))
        for name in a.__match_args__:
            x, y = getattr(a, name), getattr(b, name)
            if isinstance(x, Formula):
                stack.append((x, y))
            elif x != y:
                return False
    return True


# the fields of each node class annotated Formula (annotations are strings
# here), in declaration order
_SUBFORMULA_FIELDS = {
    cls: tuple(n for n in cls.__match_args__ if cls.__annotations__[n] == "Formula")
    for cls in Formula.__subclasses__()
}


def _children(f: Formula) -> list[Formula]:
    try:
        names = _SUBFORMULA_FIELDS[type(f)]
    except KeyError:
        raise TypeError(f"not a formula: {f!r}") from None
    return [getattr(f, n) for n in names]


def _subformulas(f: Formula) -> Iterator[Formula]:
    """Every node of f, each shared subterm once, without recursion."""
    seen = {id(f)}
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        for child in _children(g):
            if id(child) not in seen:
                seen.add(id(child))
                stack.append(child)


def stratum(f: Formula) -> Stratum:
    """Least sublanguage containing f; duals classify with their primitive."""
    level = Stratum.EL
    for g in _subformulas(f):
        if isinstance(g, (Coal, CoalDual)):
            return Stratum.CORGAL
        if isinstance(g, (RelGroup, RelGroupDual)):
            level = Stratum.RGAL
        elif isinstance(g, (Ann, AnnDual)) and level < Stratum.PAL:
            level = Stratum.PAL
    return level


def _kept(f: Formula, name: str, rule: Callable[[Formula, list], object]) -> object:
    """The fact kept on f as attribute `name`, set first on every node
    below f that lacks it, children before parents, without recursion.
    rule(g, values) gives g's fact from the facts its children keep."""
    stack = [f]
    while getattr(f, name) is None:
        g = stack[-1]
        parts = _children(g)
        pending = [h for h in parts if getattr(h, name) is None]
        if pending:
            stack += pending
            continue
        stack.pop()
        object.__setattr__(g, name, rule(g, [getattr(h, name) for h in parts]))
    return getattr(f, name)


def _positive_rule(g: Formula, values: list) -> bool:
    t = type(g)
    if t is And or t is Or:
        return values[0] and values[1]
    if t is Know or (t is RelGroup and g.cond is TOP):
        return values[-1]
    return t is Atom or t is Top or t is Bot or (t is Not and type(g.sub) is Atom)


def positive(f: Formula) -> bool:
    """Is f positive: built from literals, top, bot, &, |, K a and
    [G, top]?  A positive formula true at a state stays true there in
    every restriction that keeps the state (see checker).  Kept on each
    node, and computed without recursion."""
    value = f._positive
    if value is None:
        value = _kept(f, "_positive", _positive_rule)
    return value


def height(f: Formula) -> int:
    """Height of f's tree: 0 for a leaf, else one more than its highest
    subformula.  Kept on each node, and computed without recursion."""
    value = f._height
    if value is None:
        value = _kept(f, "_height", lambda g, values: 1 + max(values, default=-1))
    return value


def tree_nodes(f: Formula) -> int:
    """Nodes of f written out as a tree, shared subterms counted at every
    occurrence.  Kept on each node, and computed without recursion."""
    value = f._tree_nodes
    if value is None:
        value = _kept(f, "_tree_nodes", lambda g, values: 1 + sum(values))
    return value


def desugar(f: Formula) -> Formula:
    """Expand duals and Or/Imp/Iff into the core constructors.

    Top and Bot are kept as atomic constants.  Idempotent.
    """
    if isinstance(f, (Atom, Top, Bot)):
        return f
    if isinstance(f, Not):
        return Not(desugar(f.sub))
    if isinstance(f, And):
        return And(desugar(f.left), desugar(f.right))
    if isinstance(f, Or):
        return Not(And(Not(desugar(f.left)), Not(desugar(f.right))))
    if isinstance(f, Imp):
        return Not(And(desugar(f.left), Not(desugar(f.right))))
    if isinstance(f, Iff):
        a, b = desugar(f.left), desugar(f.right)
        return And(Not(And(a, Not(b))), Not(And(b, Not(a))))
    if isinstance(f, Know):
        return Know(f.agent, desugar(f.sub))
    if isinstance(f, Ann):
        return Ann(desugar(f.ann), desugar(f.sub))
    if isinstance(f, AnnDual):
        return Not(Ann(desugar(f.ann), Not(desugar(f.sub))))
    if isinstance(f, RelGroup):
        return RelGroup(f.group, desugar(f.cond), desugar(f.sub))
    if isinstance(f, RelGroupDual):
        return Not(RelGroup(f.group, desugar(f.cond), Not(desugar(f.sub))))
    if isinstance(f, Coal):
        return Coal(f.group, desugar(f.sub))
    if isinstance(f, CoalDual):
        return Not(Coal(f.group, Not(desugar(f.sub))))
    raise TypeError(f"not a formula: {f!r}")


# Recursive, unlike _kept: the translation-measures suite measures many
# fresh nodes, and routing this through _kept made it 15-40 % slower.
def _measure(f: Formula) -> tuple[int, int, int]:
    """(depth_coal, depth_box, size) of desugar(f), computed on f itself
    and kept on the node."""
    m = f._measure
    if m is not None:
        return m
    t = type(f)
    if t is Atom or t is Top or t is Bot:
        m = (0, 0, 1)
    elif t is Not or t is Know:
        c, b, s = _measure(f.sub)
        m = (c, b, s + 1)
    elif t is And or t is Or or t is Imp or t is Iff:
        c1, b1, s1 = _measure(f.left)
        c2, b2, s2 = _measure(f.right)
        if t is Iff:
            s = 2 * (s1 + s2) + 7
        else:
            s = s1 + s2 + (1 if t is And else 4 if t is Or else 3)
        m = (max(c1, c2), max(b1, b2), s)
    elif t is Ann or t is AnnDual:
        c1, b1, s1 = _measure(f.ann)
        c2, b2, s2 = _measure(f.sub)
        m = (c1 + c2, b1 + b2, s1 + 3 * s2 + (4 if t is AnnDual else 0))
    elif t is RelGroup or t is RelGroupDual:
        c1, b1, _ = _measure(f.cond)
        c2, b2, s2 = _measure(f.sub)
        m = (c1 + c2, b1 + b2 + 1, s2 + (3 if t is RelGroupDual else 1))
    elif t is Coal or t is CoalDual:
        c, b, s = _measure(f.sub)
        m = (c + 1, b, s + (3 if t is CoalDual else 1))
    else:
        raise TypeError(f"not a formula: {f!r}")
    object.__setattr__(f, "_measure", m)
    return m


def size(f: Formula) -> int:
    """Weighted size of the desugared formula, computed on f itself.

    Announcements weigh their body threefold; the group operators do not
    count their condition.  Each dual and each of Or, Imp and Iff counts
    as its expansion does.
    """
    return _measure(f)[2]


def depth_box(f: Formula) -> int:
    """Nesting depth of relativised group boxes; coalition boxes are
    transparent."""
    return _measure(f)[1]


def depth_coal(f: Formula) -> int:
    """Nesting depth of coalition boxes; group boxes are transparent."""
    return _measure(f)[0]


def order_lt(f: Formula, g: Formula) -> bool:
    """Well-founded strict order on the desugared formulas: coalition
    depth, then box depth, then size.  Compares the measures kept on f
    and g; neither is desugared."""
    return _measure(f) < _measure(g)


@dataclass(frozen=True)
class GroupKnowledgeFormula:
    """A joint announcement: one purely epistemic formula per member agent.

    Denotes the conjunction of "agent i knows its bound formula" over the
    group, Top for the empty group.
    """

    bindings: tuple[tuple[str, Formula], ...]

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.bindings, key=lambda item: item[0]))
        agents = [a for a, _ in ordered]
        if len(set(agents)) != len(agents):
            raise ValueError("duplicate agent in group knowledge bindings")
        for agent, body in ordered:
            if stratum(body) != Stratum.EL:
                raise ValueError(
                    f"binding for agent {agent!r} must be purely epistemic"
                )
        object.__setattr__(self, "bindings", ordered)

    @property
    def group(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.bindings)

    def denotation(self) -> Formula:
        if not self.bindings:
            return TOP
        parts = [Know(a, f) for a, f in self.bindings]
        return reduce(And, parts)

    def __str__(self) -> str:
        return str(self.denotation())


def reduction(f: Formula, den: Formula, agents: Iterable[str]) -> Formula:
    """What the quantified f says once its group's announcement is fixed
    to den (axioms A10 and A11 and their duals); `agents` are all the
    model's agents, of which the coalition operators read the others G':

        [G,chi] phi  ->  chi & [!(den & chi)] phi
        <G,chi> phi  ->  chi -> <!(den & chi)> phi
        [<G>] phi    ->  <G', den> phi
        <[G]> phi    ->  [G', den] phi
    """
    if isinstance(f, RelGroup):
        return And(f.cond, Ann(And(den, f.cond), f.sub))
    if isinstance(f, RelGroupDual):
        return Imp(f.cond, AnnDual(And(den, f.cond), f.sub))
    if isinstance(f, Coal):
        return RelGroupDual(frozenset(agents) - f.group, den, f.sub)
    if isinstance(f, CoalDual):
        return RelGroup(frozenset(agents) - f.group, den, f.sub)
    raise TypeError(f"not a quantified formula: {f!r}")


# A context with one hole, as frames outermost first: (Imp, antecedent),
# (Know, agent) or (Ann, announcement), each a constructor and the argument it
# fixes before the hole. () is the bare hole.
NecessityForm = tuple[tuple[Callable[..., Formula], object], ...]


def nf_instantiate(nf: NecessityForm, f: Formula) -> Formula:
    """Replace the hole with f, keeping the surrounding context."""
    for op, arg in reversed(nf):
        f = op(arg, f)
    return f


def _collect(f: Formula, agents: set[str], atoms: set[str]) -> None:
    for g in _subformulas(f):
        if isinstance(g, Atom):
            atoms.add(g.name)
        elif isinstance(g, Know):
            agents.add(g.agent)
        elif isinstance(g, (RelGroup, RelGroupDual, Coal, CoalDual)):
            agents.update(g.group)
