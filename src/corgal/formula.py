"""Syntax of the epistemic announcement language.

Formulas are immutable trees over knowledge, public announcement,
relativised group announcement and coalition announcement operators.
The diamond duals and the Or/Imp/Iff connectives are sugar; desugar()
expands them into the core (Atom/Top/Bot/Not/And/Know/Ann/RelGroup/Coal),
and the size and depth measures plus the well-founded order driving the
harness are those of the desugared formula.  They are computed on the
formula itself, without building the desugared tree, and kept on each
node, as its hash is.  Leaves are interned: Atom(name) returns one object
per name, and Top() and Bot() return TOP and BOT.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from typing import Iterator


class Stratum(enum.IntEnum):
    """Nested sublanguages, smallest first."""

    EL = 0       # propositional + knowledge
    PAL = 1      # adds public announcements
    RGAL = 2     # adds relativised group announcements
    CORGAL = 3   # adds coalition announcements


@dataclass(frozen=True, eq=False)
class Formula:
    """Base class for all formula nodes.

    Supports ~f, f & g, f | g and f >> g (implication) as construction
    shorthand.  Equality is structural.  Each node computes its hash once
    and keeps it, so hashing a formula costs O(1) after the first time
    even when it shares subterms, as witnesses built from characteristic
    formulas do.  Pickling and copying rebuild a node through its
    constructor, so the kept hash, which depends on the process's hash
    seed, is never carried over.
    """

    # Memos filled on first use, not dataclass fields.
    _hash = None
    _measure = None

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

    def __invert__(self) -> "Formula":
        return Not(self)

    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __rshift__(self, other: "Formula") -> "Formula":
        return Imp(self, other)

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
class KnowDual(Formula):
    """Possibility dual of Know; no concrete syntax of its own."""

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


@dataclass(frozen=True, eq=False)
class RelGroup(Formula):
    """Relativised group announcement box over the agents in `group`."""

    group: frozenset[str]
    cond: Formula
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", frozenset(self.group))


@dataclass(frozen=True, eq=False)
class RelGroupDual(Formula):
    group: frozenset[str]
    cond: Formula
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", frozenset(self.group))


@dataclass(frozen=True, eq=False)
class Coal(Formula):
    """Coalition announcement box: every announcement by `group` can be
    countered by the remaining agents so that `sub` holds."""

    group: frozenset[str]
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", frozenset(self.group))


@dataclass(frozen=True, eq=False)
class CoalDual(Formula):
    group: frozenset[str]
    sub: Formula

    def __post_init__(self) -> None:
        object.__setattr__(self, "group", frozenset(self.group))


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


def _children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (Atom, Top, Bot)):
        return ()
    if isinstance(f, (Not, Know, KnowDual, Coal, CoalDual)):
        return (f.sub,)
    if isinstance(f, (And, Or, Imp, Iff)):
        return (f.left, f.right)
    if isinstance(f, (Ann, AnnDual)):
        return (f.ann, f.sub)
    if isinstance(f, (RelGroup, RelGroupDual)):
        return (f.cond, f.sub)
    raise TypeError(f"not a formula: {f!r}")


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
    if isinstance(f, KnowDual):
        return Not(Know(f.agent, Not(desugar(f.sub))))
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


def _measure(f: Formula) -> tuple[int, int, int]:
    """(depth_coal, depth_box, size) of desugar(f), computed on f itself
    and kept on the node."""
    m = f._measure
    if m is not None:
        return m
    t = type(f)
    if t is Atom or t is Top or t is Bot:
        m = (0, 0, 1)
    elif t is Not or t is Know or t is KnowDual:
        c, b, s = _measure(f.sub)
        m = (c, b, s + (3 if t is KnowDual else 1))
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

    @classmethod
    def from_dict(cls, mapping: dict[str, Formula]) -> "GroupKnowledgeFormula":
        return cls(tuple(mapping.items()))

    @property
    def group(self) -> frozenset[str]:
        return frozenset(a for a, _ in self.bindings)

    def body(self, agent: str) -> Formula:
        for a, f in self.bindings:
            if a == agent:
                return f
        raise KeyError(agent)

    def denotation(self) -> Formula:
        if not self.bindings:
            return TOP
        parts = [Know(a, f) for a, f in self.bindings]
        return reduce(And, parts)

    def __str__(self) -> str:
        return str(self.denotation())


@dataclass(frozen=True)
class NecessityForm:
    """Context with a unique hole, built from implications, knowledge and
    announcement boxes."""


@dataclass(frozen=True)
class Hole(NecessityForm):
    pass


@dataclass(frozen=True)
class NfImp(NecessityForm):
    ante: Formula
    body: NecessityForm


@dataclass(frozen=True)
class NfKnow(NecessityForm):
    agent: str
    body: NecessityForm


@dataclass(frozen=True)
class NfAnn(NecessityForm):
    ann: Formula
    body: NecessityForm


HOLE = Hole()


def nf_instantiate(nf: NecessityForm, f: Formula) -> Formula:
    """Replace the hole with f, keeping the surrounding context."""
    if isinstance(nf, Hole):
        return f
    if isinstance(nf, NfImp):
        return Imp(nf.ante, nf_instantiate(nf.body, f))
    if isinstance(nf, NfKnow):
        return Know(nf.agent, nf_instantiate(nf.body, f))
    if isinstance(nf, NfAnn):
        return Ann(nf.ann, nf_instantiate(nf.body, f))
    raise TypeError(f"not a necessity form: {nf!r}")


def hole_count(nf: NecessityForm) -> int:
    if isinstance(nf, Hole):
        return 1
    if isinstance(nf, (NfImp, NfKnow, NfAnn)):
        return hole_count(nf.body)
    raise TypeError(f"not a necessity form: {nf!r}")


def agents_in(f: Formula) -> frozenset[str]:
    """All agent names occurring in f, group members included."""
    out: set[str] = set()
    _collect(f, out, set())
    return frozenset(out)


def atoms_in(f: Formula) -> frozenset[str]:
    out: set[str] = set()
    _collect(f, set(), out)
    return frozenset(out)


def _collect(f: Formula, agents: set[str], atoms: set[str]) -> None:
    for g in _subformulas(f):
        if isinstance(g, Atom):
            atoms.add(g.name)
        elif isinstance(g, (Know, KnowDual)):
            agents.add(g.agent)
        elif isinstance(g, (RelGroup, RelGroupDual, Coal, CoalDual)):
            agents.update(g.group)
