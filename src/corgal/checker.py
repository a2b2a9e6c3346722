"""Semantic evaluation: truth sets, pointed checks, witness synthesis.

An Evaluator keeps its caches per root model, the model object a query
names.  Every model the semantics visits below a root (the restriction
after an announcement, an extension a quantifier weighs) is a set of the
root's states, held as a bitmask S: truth(S, f, F) is memoised on (S, f)
and announcing a in M|S leaves S & truth(S, a, S).  Formula hashes are
memoised on the nodes, so a key costs O(1) to hash.

Truth is computed on demand.  truth(S, f, F) gives the states of the
focus F, within S, where f holds in M|S, and computes only those not yet
known; a pointed check asks the point, a truth set asks F = S.  The
focus each part of f is asked:
- ~g: F.  g & h and g -> h: g on F, h only where g holds.  g | h: g on
  F, h only where g fails.  g <-> h: both on F.
- K a g: g on the blocks of a in M|S that meet F.
- [!chi] g and <!chi> g: chi on S, since it becomes the next model, and
  g on F & chi.
- The quantifiers: the condition of [G,chi] and <G,chi> on S, since it
  bounds every scope, and the body only on the states the fold still
  reads (see _Root.fold).
Each (S, f) has one entry (known, value) in _truth: the states of S
where f is decided, and the truth set within them.  A query computes
only focus & ~known and adds it to both; once `known` is S, every later
query of (S, f) is answered from the entry.  A domain the focus never
reaches is never visited, nor counted against the cap.

The quantified operators range over the joint announcements of a group.
Their truth sets in M|S are the intersections, over the members, of
unions of each member's blocks widened to whole bisimulation classes of
M|S (model.refinement, kept on the model per S, so every evaluator of
the model reads the same widened blocks).  Each distinct such
intersection, an extension, is enumerated once, S itself first so that
silence is the first candidate.  Extensions are unions of bisimulation
classes, so a fold yields a mask over S directly.  A fold asked at one
state s weighs only the extensions that contain s, and only those are
enumerated: by the Fact below they are the meets of unions U_a that each
hold W_a(s), so each member a contributes the 2^(k-1) unions of its k
widened blocks that hold W_a(s), not all 2^k - 1.  The list is the full
one filtered to s, in the same order, and is kept per (S, G, s); a full
list already kept for (S, G) is filtered instead.  The cap counts the
distinct extensions enumerated, so a pointed fold counts only those that
contain its point.

One fold, _Root.fold, evaluates all four operators.  On the states F it
is asked, [G,chi] f starts from F & chi and loses those where f fails in
M|(c & chi) for an extension c of G; <G,chi> f starts from F - chi and
gains those where f holds in some M|(c & chi).  The coalition operators
nest it once (axiom A11; the two-move game of Agotnes and van Ditmarsch,
AAMAS 2008): with c fixed, [<G>] f is <G', c> f and <[G]> f is
[G', c] f, G' being the other agents, so each c, with condition S, is
weighed by the dual fold of G' with condition c.  A fold asks each c only
the states of its scope it can still change, those a box still holds or
a diamond still lacks, and stops once it is settled, before enumerating
anything if the condition settles it.  A level costs three Python frames
(truth, _compute, fold), a coalition level four, as the inner fold is
called from the outer one's loop: 98 nested operators need about 300
and 400 frames of the default limit of 1,000.
evaluate_witness and evaluate_trace make the fold call check makes at
the point (_pointed), and have the top-level fold list each announcement
it weighs with its weight there; the fold stops at the first that
decides the verdict.  check --trace prints the list, and the last entry,
if it decides, gives the witness.  The witness for an extension X is its
canonical decomposition R_a(X), the union of member a's widened blocks
that meet X.  Each member announces a smallest epistemic formula
true exactly on R_a(X), found by a size-ordered search over the root
model's truth sets; only when that search exceeds its budget does the
witness fall back to the characteristic formulas of the model's
bisimulation classes (model.definable_formula).

Quantifiers over positive bodies enumerate nothing.  A body is positive
(formula.positive) when it is built from literals, top, bot, &, |, K a
and [G, top].  In M|S write W_a(s) for the widened block of a that
refinement(M, S) gives containing s, and X_G(s) for the meet of W_a(s)
over a in G (S for the empty group).  The cells of G are the distinct
X_G(s); they partition S.

Lemma (preservation).  For positive f, Y within Z and s in Y:
s in truth(Z, f) implies s in truth(Y, f).  By induction on f.
Literals, top and bot keep their value at s, and & and | follow from
their parts.  For K a g: a restriction only removes K-successors, so a's
block of s in M|Y is the part inside Y of its block in M|Z, and each of
its states satisfies g in M|Z, hence in M|Y.  For [G, top] g: by the
clause for [G,chi] below, which rests on the lemma for g alone,
truth(Z, [G, top] g) = truth(Z, g), and g is smaller.

Fact.  Every extension c of G with s in c contains X_G(s), and X_G(s) is
itself an extension.  c is the meet over a in G of unions U_a of a's
widened blocks; s is in U_a and one agent's widened blocks are disjoint,
so W_a(s) lies in U_a.  Taking U_a = W_a(s) gives X_G(s).  For t in
X_G(s), W_a(t) = W_a(s) for every a, so X_G(t) = X_G(s): each cell is
X_G of each of its states.

The clauses, for positive f, at s in S (the other agents are G'):
- [G,chi] f: s in chi and s in truth(c & chi, f) for every extension c
  containing s.  Silence, c = S, asks s in truth(chi, f), and by the
  lemma that gives every smaller scope.  So truth(chi, f), empty when
  chi is.
- <G,chi> f: s outside chi, or s in truth(c & chi, f) for some c
  containing s.  X_G(s) & chi lies in each such c & chi, so by the
  lemma X_G(s) serves whenever any c does: (S - chi) together with the
  union over cells C of G of truth(C & chi, f).
- <[G]> f: some c containing s with s in truth(c & d, f) for every
  response d containing s.  d = S asks s in truth(c, f), which gives
  every d by the lemma; and X_G(s) serves whenever any c does.  So the
  union over cells C of G of truth(C, f): silence is the only response
  needed.
- [<G>] f: for every c containing s some response d with s in
  truth(c & d, f).  c = S asks some d with s in truth(d, f), which
  serves every c by the lemma; X_G'(s) serves whenever any d does.  So
  the union over cells C of G' of truth(C, f): silence is the only
  option needed.

Corollary (silence first).  For positive f, every s in truth(chi, f)
holds <G,chi> f and <[G]> f (chi = S): silence is an announcement, and
by the lemma s keeps f in each smaller scope, the cell X_G(s) & chi and
every response alike.

_Root.fold stays the one implementation of the four clauses, and
_Root.options the one place that orders what it weighs, silence first
in every fold.  Over a positive body a box fold weighs silence alone,
and a diamond fold silence and then the cells other than S, yielded
lazily: by the corollary a state silence settles is asked in no cell,
and S is refined for its cells only if silence leaves a state open.
That needs one truth set per cell instead of one per pair of option and
response, and no cap.  check, the trace and the witness make this one
fold call: a positive box is refuted by silence or not at all, and a
positive diamond is witnessed by silence where silence settles it,
otherwise by R_a(X_G(s)), since the cell is an extension (the Fact).

Only [G, top] extends the fragment.  On random_model(533214, 5, 3, 2),
whose five states are pairwise non-bisimilar, <[{a0}]> (K a2 p0 | ~p1),
<{a0}, top> (K a2 p0 | ~p1) and [<{a1,a2}>] (K a2 p0 | ~p1) hold at s2
and fail there after restriction to {s0,s1,s2,s4}: the coalition
operators and <G,chi> over positive bodies are not preserved.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .formula import (
    And,
    Ann,
    AnnDual,
    Atom,
    Bot,
    Coal,
    CoalDual,
    Formula,
    GroupKnowledgeFormula,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Top,
    _QUANTIFIED,
    _collect,
    positive,
    reduction,
)
from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    EpistemicModel,
    StateSet,
    block_unions,
    definable_formula,
    refinement,
)


class UndeclaredSymbol(Exception):
    """The formula mentions an agent or atom the model does not declare."""


class NotQuantified(Exception):
    """The operation needs a quantified announcement operator on top."""


class WitnessCheckFailed(Exception):
    """A synthesised witness did not confirm the verdict it was built for."""


def check_symbols(model: EpistemicModel, f: Formula) -> None:
    agents: set[str] = set()
    atoms: set[str] = set()
    _collect(f, agents, atoms)
    unknown_agents = agents - set(model.agents)
    if unknown_agents:
        raise UndeclaredSymbol(f"unknown agent {sorted(unknown_agents)[0]!r}")
    unknown_atoms = atoms - set(model.atoms)
    if unknown_atoms:
        raise UndeclaredSymbol(f"unknown atom {sorted(unknown_atoms)[0]!r}")


@dataclass
class WitnessReport:
    """Outcome of a quantified check, with the responsible announcement
    when the verdict direction admits one; evaluate_witness has checked it."""

    verdict: bool
    witness: GroupKnowledgeFormula | None


class Evaluator:
    """Shared caches for a batch of queries against related models.

    Pure from the outside; results never depend on query order.  The
    truth sets and extensions of each model are keyed on the model object
    itself, which the evaluator keeps for its lifetime; they stay per
    evaluator, since the cap can refuse an extension.  Every evaluator
    reads the same widened blocks, kept on the model (model.refinement):
    computing them never counts against the cap, so no verdict depends
    on which evaluator asked first.

    An evaluator does not check f's symbols against the model.  An
    undeclared agent or atom raises UndeclaredSymbol only where the focus
    reaches it: holds(train, "w", p & K zz p) is False, and
    truth_set(model, bot & zz) is 0.  The module-level evaluate,
    truth_set, evaluate_witness and evaluate_trace run check_symbols
    first.
    """

    def __init__(self, cap: int = DEFAULT_ENUMERATION_CAP):
        self.cap = cap
        self._roots: dict[EpistemicModel, _Root] = {}

    def holds(self, model: EpistemicModel, state: str, f: Formula) -> bool:
        return bool(self.truth_set(model, f, 1 << model.state_index(state)))

    def truth_set(
        self, model: EpistemicModel, f: Formula, focus: StateSet | None = None
    ) -> StateSet:
        """The states where f holds; given a focus, only those within it,
        and no others are computed."""
        root = self._roots.get(model)
        if root is None:
            root = self._roots[model] = _Root(model, self.cap)
        return root.truth(model.full, f, model.full if focus is None else focus & model.full)


class _Root:
    """The caches of one root model; every state set is a mask over it."""

    def __init__(self, model: EpistemicModel, cap: int):
        self.model = model
        self.cap = cap
        self.agents = frozenset(model.agents)
        # (known, value): f decided on `known`, value = truth & known
        self._truth: dict[tuple[StateSet, Formula], tuple[StateSet, StateSet]] = {}
        self._extensions: dict[tuple[StateSet, frozenset[str], StateSet], list[StateSet]] = {}

    def truth(self, domain: StateSet, f: Formula, focus: StateSet) -> StateSet:
        """States of `focus` where f holds in the model restricted to
        `domain`; focus lies within domain, and only focus & ~known is
        computed."""
        key = (domain, f)
        known, value = self._truth.get(key, (0, 0))
        need = focus & ~known
        if need:
            value |= self._compute(domain, f, need)
            self._truth[key] = (known | need, value)
        return value & focus

    def _compute(self, domain: StateSet, f: Formula, need: StateSet) -> StateSet:
        """truth(domain, f) & need, asking each part of f only where the
        answer depends on it."""
        model = self.model
        if isinstance(f, Atom):
            try:
                return model.valuation_mask(f.name) & need
            except KeyError:
                raise UndeclaredSymbol(f"unknown atom {f.name!r}") from None
        if isinstance(f, Top):
            return need
        if isinstance(f, Bot):
            return 0
        if isinstance(f, Not):
            return need & ~self.truth(domain, f.sub, need)
        if isinstance(f, And):
            return self.truth(domain, f.right, self.truth(domain, f.left, need))
        if isinstance(f, Or):
            left = self.truth(domain, f.left, need)
            return left | self.truth(domain, f.right, need & ~left)
        if isinstance(f, Imp):
            left = self.truth(domain, f.left, need)
            return (need & ~left) | self.truth(domain, f.right, left)
        if isinstance(f, Iff):
            return need & ~(self.truth(domain, f.left, need) ^ self.truth(domain, f.right, need))
        if isinstance(f, Know):
            try:
                blocks = model.blocks(f.agent)
            except KeyError:
                raise UndeclaredSymbol(f"unknown agent {f.agent!r}") from None
            asked = 0  # the blocks that meet need
            for block in blocks:
                if block & need:
                    asked |= block
            t = self.truth(domain, f.sub, asked & domain)
            mask = 0
            for block in blocks:
                if block & need and block & domain & ~t == 0:
                    mask |= block
            return mask & need
        if isinstance(f, Ann):
            s = self.truth(domain, f.ann, domain)
            if s == 0:
                return need
            return (need & ~s) | self.truth(s, f.sub, need & s)
        if isinstance(f, AnnDual):
            s = self.truth(domain, f.ann, domain)
            return self.truth(s, f.sub, need & s) if s else 0
        if isinstance(f, _QUANTIFIED):
            chi, box, others = self.quantifier(domain, f)
            return self.fold(domain, f.group, chi, box, f.sub, need, others)
        raise TypeError(f"not a formula: {f!r}")

    def extensions(
        self, domain: StateSet, group: frozenset[str], point: StateSet = 0
    ) -> list[StateSet]:
        """The distinct non-empty truth sets, in M|domain, of the joint
        announcements of `group`, in the order first met as e & u, for
        each member a in model order, e in the list of the members
        before a and u in block_unions of a's widened blocks by lowest
        state; so domain (silence) comes first.  Given a point, a state
        of domain, only those that contain it, in the same order: per
        member a, the unions that hold W_a(point)."""
        key = (domain, group, point)
        hit = self._extensions.get(key)
        if hit is not None:
            return hit
        if point:
            full = self._extensions.get((domain, group, 0))
            if full is not None:
                return [e for e in full if e & point]
        widened = refinement(self.model, domain)[1]
        found = [domain]
        for agent in [a for a in self.model.agents if a in group]:
            k = len(widened[agent])
            n_unions = 1 << (k - 1) if point else (1 << k) - 1
            if n_unions > self.cap:
                raise EnumerationCapExceeded(n_unions, self.cap)
            # by lowest state, which fixes the order of extensions
            unions = block_unions(sorted(widened[agent], key=lambda w: w & -w))
            if point:
                unions = [u for u in unions if u & point]
            seen: dict[StateSet, None] = {}
            for e in found:
                seen.update(dict.fromkeys([e & u for u in unions]))
                seen.pop(0, None)
                if len(seen) > self.cap:
                    raise EnumerationCapExceeded(len(seen), self.cap)
            found = list(seen)
        self._extensions[key] = found
        return found

    def cells(self, domain: StateSet, group: frozenset[str]) -> list[StateSet]:
        """The cells of `group` in M|domain: the distinct X_G(s), each the
        smallest extension containing its states.  They partition domain."""
        widened = refinement(self.model, domain)[1]
        cells = [domain]
        for agent in [a for a in self.model.agents if a in group]:
            cells = [part for c in cells for w in widened[agent] if (part := c & w)]
        return cells

    def decomposition(
        self, domain: StateSet, group: frozenset[str], extension: StateSet
    ) -> tuple[tuple[str, StateSet], ...]:
        """R_a(extension) for each member a, in model order: the union of
        a's widened blocks that meet the extension.  Their intersection
        is the extension."""
        widened = refinement(self.model, domain)[1]
        return tuple(
            (a, sum(u for u in widened[a] if u & extension))
            for a in self.model.agents
            if a in group
        )

    def quantifier(
        self, domain: StateSet, f: Formula
    ) -> tuple[StateSet, bool, frozenset[str] | None]:
        """The fold of the quantified f in M|domain: its condition, whether
        it is a box, and the agents whose dual fold weighs each announcement
        (None for the relativised operators)."""
        relativised = isinstance(f, (RelGroup, RelGroupDual))
        # a condition top is the domain itself, and keeps no entry per scope
        asks = relativised and not isinstance(f.cond, Top)
        chi = self.truth(domain, f.cond, domain) if asks else domain
        unknown = f.group - self.agents
        if unknown:
            raise UndeclaredSymbol(f"unknown agent {sorted(unknown)[0]!r}")
        others = None if relativised else self.agents - f.group
        return chi, isinstance(f, (RelGroup, Coal)), others

    def options(
        self, domain: StateSet, group: frozenset[str], box: bool, sub: Formula, need: StateSet
    ) -> Iterator[StateSet]:
        """The announcements of `group` a fold asked on `need` weighs in
        M|domain, silence (domain) first.  Over a positive sub, silence
        alone for a box and then the other cells for a diamond, refined
        only if the fold reads past silence (see the module docstring);
        else every extension, only those containing a one-state need."""
        if not positive(sub):
            yield from self.extensions(domain, group, 0 if need & (need - 1) else need)
            return
        yield domain
        if not box:
            yield from (c for c in self.cells(domain, group) if c != domain)

    def fold(
        self,
        domain: StateSet,
        group: frozenset[str],
        chi: StateSet,
        box: bool,
        sub: Formula,
        need: StateSet,
        others: frozenset[str] | None,
        weighed: list[tuple[StateSet, StateSet]] | None = None,
    ) -> StateSet:
        """[group, chi] sub (box) or <group, chi> sub (diamond) in
        M|domain, on the states of `need`.  Each announcement c is weighed
        on the states of its scope it can still change: by sub in M|scope,
        or with `others` by their dual fold with condition c (axiom A11).
        Given `weighed`, each c weighed is appended to it with `good`, the
        states it was weighed on where the clause holds for c."""
        res = need & chi if box else need & ~chi
        done = 0 if box else need
        if res == done:
            return res
        for c in self.options(domain, group, box, sub, need):
            scope = c & chi
            here = scope & res if box else scope & need & ~res
            if not here:
                continue
            if others is None:
                good = self.truth(scope, sub, here)
            else:
                good = self.fold(domain, others, scope, not box, sub, here, None)
            if weighed is not None:
                weighed.append((c, good))
            res = (res & ~here) | good if box else res | good
            if res == done:
                break
        return res


def truth_set(model: EpistemicModel, f: Formula, cap: int = DEFAULT_ENUMERATION_CAP) -> StateSet:
    """Bitmask of the states where f holds."""
    check_symbols(model, f)
    return Evaluator(cap=cap).truth_set(model, f)


def evaluate(
    model: EpistemicModel, state: str, f: Formula, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Does f hold at the given state?"""
    check_symbols(model, f)
    return Evaluator(cap=cap).holds(model, state, f)


def _pointed(
    model: EpistemicModel, state: str, f: Formula, cap: int
) -> tuple[_Root, bool, bool, list[tuple[StateSet, StateSet]]]:
    """The query evaluate_witness and evaluate_trace share, the fold
    check makes at the point, on a fresh evaluator: its root, f's verdict,
    whether f is a box, and (c, good) for each announcement the top-level
    fold weighed, in order.  The fold stops at the first that decides the
    verdict, so only the last entry can decide; none is weighed when the
    condition alone decides."""
    if not isinstance(f, _QUANTIFIED):
        raise NotQuantified("the outermost operator is not a quantified announcement")
    check_symbols(model, f)
    root = _Root(model, cap)
    point = 1 << model.state_index(state)
    chi, box, others = root.quantifier(model.full, f)
    weighed: list[tuple[StateSet, StateSet]] = []
    verdict = root.fold(model.full, f.group, chi, box, f.sub, point, others, weighed)
    return root, bool(verdict), box, weighed


def evaluate_witness(
    model: EpistemicModel, state: str, f: Formula, cap: int = DEFAULT_ENUMERATION_CAP
) -> WitnessReport:
    """Evaluate a quantified operator and surface the responsible
    announcement.

    A witness exists when the verdict hinges on one choice: an existential
    that succeeds, or a universal refuted by a specific announcement.
    Vacuous verdicts (condition false at the point) carry none.  The
    witness is the announcement that decided the top-level fold, the last
    that evaluate_trace lists: over a positive body silence, or a
    diamond's cell X_G(s) where silence leaves the point open; otherwise
    the first deciding extension.
    The witness is checked before it is returned: announcing it in place
    of the quantifier, through a fresh evaluator, must replay the
    decision, or WitnessCheckFailed is raised.
    """
    root, verdict, box, weighed = _pointed(model, state, f, cap)
    if not weighed or bool(weighed[-1][1]) == box:
        return WitnessReport(verdict, None)

    deciding = weighed[-1][0]
    witness = definable_formula(model, root.decomposition(model.full, f.group, deciding))
    # announcing the witness in place of the quantifier replays the decision
    recheck = reduction(f, witness.denotation(), model.agents)
    if evaluate(model, state, recheck, cap=cap) != (not box):
        raise WitnessCheckFailed("witness self-check failed")
    return WitnessReport(verdict, witness)


_OPERATOR = {RelGroup: "[G,chi]", RelGroupDual: "<G,chi>", Coal: "[<G>]", CoalDual: "<[G]>"}


def evaluate_trace(
    model: EpistemicModel, state: str, f: Formula, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[bool, list[str]]:
    """Evaluate a quantified operator and list the announcements its
    top-level fold weighs at the point, in order, up to the one that
    decides the verdict: one line per announcement X, with its
    decomposition R_a(X) and whether the clause holds there.  Silence
    comes first, followed over a positive body only by a diamond's cell
    X_G(s) where silence leaves the point open, otherwise by the other
    extensions whose scope contains the point."""
    root, verdict, _, weighed = _pointed(model, state, f, cap)

    def names(mask: StateSet) -> str:
        return "{" + ",".join(model.states_in(mask)) + "}"

    op = _OPERATOR[type(f)]
    lines: list[str] = []
    for c, good in weighed:
        parts = " ".join(f"{a}:{names(u)}" for a, u in root.decomposition(model.full, f.group, c))
        lines.append(f"{op} {parts or '{}'} -> {names(c)}: {bool(good)}")
    return verdict, lines
