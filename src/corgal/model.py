"""Finite multi-agent S5 models and the machinery behind quantified
announcements.

States are indexed and state sets are bitmasks (bit i = state i), which
keeps announcement updates and the choice-set enumeration cheap.
Bisimulation classes are computed in one place, refinement(): partition
refinement on masks over any restriction M|S, which gives the number of
rounds that split a class and each agent's blocks widened to the final
classes, in the order it split them.  Every restriction starts from the
model's valuation partition, computed once and kept on the model, and
the refinement of each restriction is kept on the model too, one entry
per domain S, so every evaluator of the model reads the same widened
blocks and none computes them twice.  The refinement stops as soon as
every state is its own class: distinct blocks meet disjoint singleton
classes, so no region merges blocks and no class splits, and the widened
blocks are the blocks themselves.  The checker's quantifiers read it
directly and fix their own order.  _quotient() is the one derivation of
the whole model's quotient from it, classes (the meet of the valuation
partition and the widened blocks) and quotient blocks ordered by lowest
state; contract() and characteristic_formulas() read it, and the latter
needs no contracted model.  A choice set is one union of equivalence
classes per group member; on a bisimulation-contracted model these are
exactly the truth sets of the joint announcements the group operators
quantify over.  definable_formula() turns the members' unions, given as
(agent, mask) pairs, back into a concrete announcement on any model: a
smallest epistemic formula per union from one resumable search, or, once
that search exceeds its budget, the characteristic formulas of the
classes each union covers.  Every conjunction and disjunction these build
is joined as a balanced tree (_join), so a formula over k parts nests
about log2 k levels deep, not k - 1, and stays within the parser's
height bound where a left-deep chain would not.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import product
from typing import Generator, Iterable, Mapping, Sequence

from .formula import (
    And,
    Atom,
    BOT,
    Formula,
    GroupKnowledgeFormula,
    Know,
    Not,
    Or,
    TOP,
    tree_nodes,
)

StateSet = int

DEFAULT_ENUMERATION_CAP = 10**6

# The smallest-formula search of definable_formula() builds at most
# WITNESS_SEARCH_BASE candidate formulas; only when that gives up are the
# characteristic-formula bodies it would replace built, and the same
# search resumes up to WITNESS_SEARCH_BASE plus WITNESS_SEARCH_PER_NODE
# per tree node of those bodies, then falls back to them.  A candidate
# costs about as much as a node of the fallback (building, checking,
# rendering) and the base about its fixed cost, so a search that gives up
# adds about a quarter to what the fallback costs.
WITNESS_SEARCH_BASE = 10_000
WITNESS_SEARCH_PER_NODE = 0.25


class EnumerationCapExceeded(Exception):
    """Raised instead of silently truncating an enumeration of group
    announcements.  The evaluator counts the distinct group extensions it
    enumerates, which at a single asked state are only those containing
    it; choice_sets() counts decompositions."""

    def __init__(self, requested: int, cap: int, unit: str = "distinct group extensions"):
        self.requested = requested
        self.cap = cap
        super().__init__(f"{requested} {unit} exceed the cap of {cap}")


class EpistemicModel:
    """Finite state set, one partition per agent, propositional valuation.

    Immutable after construction; the partition representation makes each
    agent's indistinguishability relation an equivalence relation by
    construction.  The constructor is the one check of that structure:
    it raises ValueError for a duplicate name, no states, a partition
    missing or for an undeclared agent, an empty, overlapping or
    non-covering block or one naming an undeclared state, and a
    valuation not given for exactly the declared atoms or naming an
    undeclared state.
    """

    # the states split by the valuation, filled on first use
    _by_valuation = None

    def __init__(
        self,
        states: Sequence[str],
        agents: Sequence[str],
        atoms: Sequence[str],
        partitions: Mapping[str, Sequence[Iterable[str]]],
        valuation: Mapping[str, Iterable[str]],
    ):
        self.states = tuple(states)
        self.agents = tuple(agents)
        self.atoms = tuple(atoms)
        for kind, names in (("agent", self.agents), ("atom", self.atoms), ("state", self.states)):
            if len(set(names)) != len(names):
                twice = next(name for i, name in enumerate(names) if name in names[:i])
                raise ValueError(f"duplicate {kind} {twice!r}")
        if not self.states:
            raise ValueError("model has no states")
        self.n = len(self.states)
        self.full: StateSet = (1 << self.n) - 1
        self._index = {name: i for i, name in enumerate(self.states)}
        # refinement(model, S) for every S it was asked
        self._refinements: dict[StateSet, tuple] = {}

        missing = sorted(set(self.agents) - set(partitions))
        if missing:
            raise ValueError(f"partition missing for agent {missing[0]!r}")
        extra = sorted(set(partitions) - set(self.agents))
        if extra:
            raise ValueError(f"partition for undeclared agent {extra[0]!r}")
        self._blocks: dict[str, tuple[StateSet, ...]] = {}
        for agent in self.agents:
            blocks = []
            covered = 0
            for block in partitions[agent]:
                b = 0
                for name in block:
                    try:
                        bit = 1 << self._index[name]
                    except (KeyError, TypeError):
                        raise ValueError(
                            f"agent {agent!r}: unknown state {name!r} in partition"
                        ) from None
                    if covered & bit:
                        raise ValueError(f"agent {agent!r}: partition blocks overlap at {name!r}")
                    covered |= bit
                    b |= bit
                if b == 0:
                    raise ValueError(f"agent {agent!r}: empty partition block")
                blocks.append(b)
            if covered != self.full:
                uncovered = min(self.states_in(self.full & ~covered))
                raise ValueError(f"agent {agent!r}: partition does not cover state {uncovered!r}")
            self._blocks[agent] = tuple(blocks)

        if set(valuation) != set(self.atoms):
            raise ValueError("valuation must be given for exactly the declared atoms")
        self._val: dict[str, StateSet] = {}
        for atom in self.atoms:
            v = 0
            for name in valuation[atom]:
                try:
                    v |= 1 << self._index[name]
                except (KeyError, TypeError):
                    raise ValueError(f"atom {atom!r}: unknown state {name!r} in valuation") from None
            self._val[atom] = v

    def state_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown state {name!r}") from None

    def state_mask(self, names: Iterable[str]) -> StateSet:
        mask = 0
        for name in names:
            mask |= 1 << self.state_index(name)
        return mask

    def states_in(self, mask: StateSet) -> tuple[str, ...]:
        return tuple(self.states[i] for i in _bits(mask & self.full))

    def blocks(self, agent: str) -> tuple[StateSet, ...]:
        return self._blocks[agent]

    def valuation_mask(self, atom: str) -> StateSet:
        try:
            return self._val[atom]
        except KeyError:
            raise KeyError(f"unknown atom {atom!r}") from None

    def __repr__(self) -> str:
        return f"EpistemicModel(states={list(self.states)}, agents={list(self.agents)})"


def _bits(mask: int) -> Iterable[int]:
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def update(model: EpistemicModel, announcement: StateSet) -> EpistemicModel:
    """Restrict the model to the states in `announcement`.

    Callers guarantee the actual state is inside, so an empty extension is
    an error here; vacuously true announcements are handled by the caller.
    """
    announcement &= model.full
    if announcement == 0:
        raise ValueError("announcement extension is empty")
    names = model.states_in(announcement)
    partitions = {
        agent: [model.states_in(b & announcement) for b in model.blocks(agent) if b & announcement]
        for agent in model.agents
    }
    valuation = {atom: model.states_in(model.valuation_mask(atom) & announcement) for atom in model.atoms}
    return EpistemicModel(names, model.agents, model.atoms, partitions, valuation)


def refinement(
    model: EpistemicModel, domain: StateSet
) -> tuple[int, dict[str, tuple[StateSet, ...]]]:
    """Bisimulation classes of M|domain by partition refinement on masks.

    Returns the number of rounds that split a class and each agent's
    blocks of M|domain widened to whole final classes (the blocks of the
    contracted M|domain, pulled back; one agent's stay disjoint), in the
    order the refinement split them; nothing is sorted.  The classes are
    not kept: they are the meet of the valuation partition and the
    widened blocks, since states agreeing on both have blocks meeting
    the same classes, which makes that meet a bisimulation.  The
    refinement starts from the valuation partition restricted to domain;
    a round splits states whose blocks meet different classes of the
    round before, for all agents at once, so the number of rounds is the
    depth the characteristic formulas need.

    Refinement stops once every state is its own class.  A discrete
    partition is stable and its widened blocks are the agents' blocks
    themselves: distinct blocks of one agent meet disjoint sets of
    singleton classes, so no region merges two blocks and no class
    splits.  The valuation partition and the refinement of each domain
    are computed once and kept on the model, which is immutable, so every
    evaluator of the model shares them; callers must not change what they
    get.
    """
    hit = model._refinements.get(domain)
    if hit is not None:
        return hit
    classes = [part for c in _valuation_partition(model) if (part := c & domain)]
    depth = 0
    blocks = [[b & domain for b in model.blocks(a) if b & domain] for a in model.agents]
    size = domain.bit_count()
    while len(classes) < size:
        refined = classes
        regions_by_agent = []
        for agent_blocks in blocks:
            # states whose blocks meet the same classes stay together
            regions: dict[int, StateSet] = {}
            for b in agent_blocks:
                met = 0
                for i, c in enumerate(classes):
                    if c & b:
                        met |= 1 << i
                regions[met] = regions.get(met, 0) | b
            regions_by_agent.append(regions.values())
            refined = [part for c in refined for r in regions.values() if (part := c & r)]
        if len(refined) == len(classes):
            break
        classes = refined
        depth += 1
    else:
        # discrete: each block is its own region (see above)
        regions_by_agent = blocks
    # on stable classes each region is the union of the classes its blocks meet
    widened = {a: tuple(regions) for a, regions in zip(model.agents, regions_by_agent)}
    result = model._refinements[domain] = depth, widened
    return result


def _valuation_partition(model: EpistemicModel) -> list[StateSet]:
    """The model's states split by the valuation, kept on the model."""
    if model._by_valuation is None:
        classes = [model.full]
        for atom in model.atoms:
            v = model.valuation_mask(atom)
            classes = [part for c in classes for part in (c & v, c & ~v) if part]
        model._by_valuation = classes
    return model._by_valuation


def _first(mask: StateSet) -> int:
    """Index of the lowest state in a non-empty mask."""
    return (mask & -mask).bit_length() - 1


def _quotient(model: EpistemicModel) -> tuple[list[StateSet], dict[str, list[list[int]]], int]:
    """The quotient of the whole model by refinement(model, model.full):
    the classes, the meet of the valuation partition and the widened
    blocks, and each agent's quotient blocks as lists of class indices,
    both ordered by lowest state, and the number of rounds that split a
    class.  contract() and characteristic_formulas() read it, so it
    fixes their order."""
    depth, widened = refinement(model, model.full)
    classes = _valuation_partition(model)
    for a in model.agents:
        classes = [part for c in classes for w in widened[a] if (part := c & w)]
    classes = sorted(classes, key=lambda c: c & -c)
    blocks = {}
    for a in model.agents:
        # each class joins the widened block holding it, so the blocks
        # come in the order of their lowest classes
        members: dict[StateSet, list[int]] = {}
        for k, c in enumerate(classes):
            for w in widened[a]:
                if w & c:
                    members.setdefault(w, []).append(k)
                    break
        blocks[a] = list(members.values())
    return classes, blocks, depth


def contract(model: EpistemicModel) -> tuple[EpistemicModel, dict[str, str]]:
    """Quotient by the largest bisimulation, via partition refinement.

    Returns the quotient model and the surjection old state -> quotient
    state.  Quotient states are named after the first member of each
    class, and they and the quotient blocks are ordered by lowest state.
    """
    classes, blocks, _ = _quotient(model)
    names = [model.states[_first(c)] for c in classes]
    name_of = [""] * model.n
    for c, name in zip(classes, names):
        for i in _bits(c):
            name_of[i] = name
    partitions = {a: [[names[k] for k in b] for b in blocks[a]] for a in model.agents}
    valuation = {}
    for atom in model.atoms:
        v = model.valuation_mask(atom)
        valuation[atom] = [name for c, name in zip(classes, names) if c & v]
    quotient = EpistemicModel(names, model.agents, model.atoms, partitions, valuation)
    return quotient, dict(zip(model.states, name_of))


def _join(op: type[Formula], parts: Sequence[Formula]) -> Formula:
    """op over the parts, in order, as a balanced tree: k parts nest
    about log2 k levels deep, where a left-deep chain would nest k - 1.
    Any shape has k - 1 inner nodes, so sizes do not depend on it."""
    if len(parts) == 1:
        return parts[0]
    mid = len(parts) // 2
    return op(_join(op, parts[:mid]), _join(op, parts[mid:]))


def characteristic_formulas(model: EpistemicModel) -> dict[str, Formula]:
    """One epistemic formula per bisimulation class, true exactly on it,
    given for every state; bisimilar states share one.

    Round 0 describes the valuation; each later round records, per agent,
    which round-k descriptions are considered possible and that nothing
    else is.  The number of rounds equals the number of refinement steps
    the model needs, so the formulas are as shallow as the model allows.
    Disjunctions and conjunctions list classes by lowest state and are
    balanced trees.
    """
    classes, blocks, depth = _quotient(model)

    def describe(c: StateSet) -> Formula:
        lits = [Atom(p) if model.valuation_mask(p) & c else Not(Atom(p)) for p in model.atoms]
        return _join(And, lits) if lits else TOP

    valuations = [describe(c) for c in classes]
    current = valuations
    for _ in range(depth):
        previous = current
        parts = [[v] for v in valuations]
        for agent in model.agents:
            for b in blocks[agent]:
                # every class of the block gets the same parts
                shared = [Not(Know(agent, Not(previous[k]))) for k in b]
                shared.append(Know(agent, _join(Or, [previous[k] for k in b])))
                for k in b:
                    parts[k] += shared
        current = [_join(And, p) for p in parts]
    class_of = {i: k for k, c in enumerate(classes) for i in _bits(c)}
    return {s: current[class_of[i]] for i, s in enumerate(model.states)}


def smallest_formulas(
    model: EpistemicModel, targets: Iterable[StateSet], budget: int
) -> dict[StateSet, Formula] | None:
    """A smallest epistemic formula for each target truth set, or None
    when finding them would build more than `budget` candidates.

    Candidates grow by node count from top, bot and the atoms through
    ~, K_a, & and |, and each truth set keeps the first formula found
    for it.  Replacing a subformula by one with the same truth set keeps
    the truth set, so the kept formula is a smallest one.  Every target
    must be a union of bisimulation classes, as every epistemic truth
    set is; no quotient model is needed.
    """
    return next(_search(model, targets, budget))


def _search(
    model: EpistemicModel, targets: Iterable[StateSet], budget: int
) -> Generator[dict[StateSet, Formula] | None, int, None]:
    """smallest_formulas() as a generator: it yields the formulas, or None
    where it would pass `budget`; sent a larger budget there, it goes on
    as a search from scratch with that budget would."""
    wanted = set(targets)
    full = model.full
    agent_blocks = [(a, model.blocks(a)) for a in model.agents]
    # a truth set's recipe: a leaf formula, or an operator over truth sets
    recipe: dict[StateSet, Formula | tuple] = {}
    levels: list[list[StateSet]] = [[], []]  # levels[n]: sets first found at n nodes
    for mask, leaf in [(full, TOP), (0, BOT)] + [
        (model.valuation_mask(p), Atom(p)) for p in model.atoms
    ]:
        if mask not in recipe:
            recipe[mask] = leaf
            levels[1].append(mask)
    work = 2 + len(model.atoms) if wanted else 0
    last_grown = 1
    while True:
        while work > budget:
            budget = yield None
        if wanted <= recipe.keys():
            break
        n = len(levels)
        if n > 2 * last_grown + 1:
            raise ValueError("a target is not a union of bisimulation classes")
        level: list[StateSet] = []
        for x in levels[n - 1]:
            work += 1 + len(agent_blocks)
            m = full & ~x
            if m not in recipe:
                recipe[m] = (Not, x)
                level.append(m)
            for a, blocks in agent_blocks:
                m = 0
                for b in blocks:
                    if b & ~x == 0:
                        m |= b
                if m not in recipe:
                    recipe[m] = (Know, a, x)
                    level.append(m)
        for i in range(1, (n - 1) // 2 + 1):
            left, right = levels[i], levels[n - 1 - i]
            for k, x in enumerate(left):
                others = right[k:] if left is right else right
                work += 2 * len(others)
                while work > budget:
                    budget = yield None
                for y in others:
                    m = x & y
                    if m not in recipe:
                        recipe[m] = (And, x, y)
                        level.append(m)
                    m = x | y
                    if m not in recipe:
                        recipe[m] = (Or, x, y)
                        level.append(m)
        if level:
            last_grown = n
        levels.append(level)
    yield _build_formulas(recipe, wanted)


def _build_formulas(
    recipe: dict[StateSet, Formula | tuple], wanted: set[StateSet]
) -> dict[StateSet, Formula]:
    built: dict[StateSet, Formula] = {}

    def build(mask: StateSet) -> Formula:
        f = built.get(mask)
        if f is None:
            r = recipe[mask]
            if isinstance(r, Formula):
                f = r
            elif r[0] is Know:
                f = Know(r[1], build(r[2]))
            else:
                f = r[0](*map(build, r[1:]))
            built[mask] = f
        return f

    return {mask: build(mask) for mask in wanted}


def block_unions(blocks: Sequence[StateSet]) -> list[StateSet]:
    """All non-empty unions of the given disjoint blocks, by subset
    bitmask (bit i = blocks[i]) descending, so the union of all comes
    first."""
    unions = [0]
    for b in blocks:
        unions += [u | b for u in unions]
    return unions[:0:-1]


@dataclass(frozen=True)
class ChoiceSet:
    """One announcement option for a group: per agent a union of that
    agent's classes, with the intersection as joint extension."""

    group: tuple[str, ...]
    per_agent_union: tuple[tuple[str, StateSet], ...]
    extension: StateSet


def choice_sets(
    model: EpistemicModel,
    group: Iterable[str],
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> list[ChoiceSet]:
    """Every decomposition of a group announcement over `group`.

    Entries with empty extension are kept; callers skip them through their
    membership guards.  The empty group yields the single trivial choice.
    """
    members = tuple(a for a in model.agents if a in frozenset(group))
    if len(members) != len(frozenset(group)):
        unknown = sorted(frozenset(group) - set(model.agents))[0]
        raise ValueError(f"unknown agent {unknown!r} in group")
    if not members:
        return [ChoiceSet((), (), model.full)]
    total = 1
    for a in members:
        total *= (1 << len(model.blocks(a))) - 1
    if total > cap:
        raise EnumerationCapExceeded(total, cap, "choice-set decompositions")
    per_agent = [block_unions(model.blocks(a)) for a in members]
    out = []
    for combo in product(*per_agent):
        extension = model.full
        for mask in combo:
            extension &= mask
        out.append(ChoiceSet(members, tuple(zip(members, combo)), extension))
    return out


def definable_formula(
    model: EpistemicModel, parts: Sequence[tuple[str, StateSet]]
) -> GroupKnowledgeFormula:
    """Concrete joint announcement whose members' knowledge sets are
    `parts`, one (agent, union of that agent's widened blocks) pair per
    member, on any model.

    Each agent's knowledge part has exactly that agent's union as truth
    set.  Each agent announces a smallest formula for its union, from
    one search (_search) that resumes past WITNESS_SEARCH_BASE; once it
    exceeds the larger budget too, the balanced disjunction of the
    characteristic formulas of the bisimulation classes its union
    covers, in the order of their lowest states.
    """
    masks = [mask for _, mask in parts]
    search = _search(model, masks, WITNESS_SEARCH_BASE)
    bodies = next(search)
    if bodies is None:
        chars = characteristic_formulas(model)
        # bisimilar states share their class's formula, so dedup keeps one per class
        fallback = {
            mask: _join(Or, list(dict.fromkeys(chars[s] for s in model.states_in(mask))))
            for mask in masks
        }
        # the search resumes where it gave up, up to the larger budget
        nodes = sum(tree_nodes(fallback[mask]) for mask in masks)
        budget = int(WITNESS_SEARCH_BASE + WITNESS_SEARCH_PER_NODE * nodes)
        bodies = search.send(budget) or fallback
    return GroupKnowledgeFormula(tuple((agent, bodies[mask]) for agent, mask in parts))


def random_model(seed: int, n_states: int, n_agents: int, n_atoms: int) -> EpistemicModel:
    """Deterministic random model: uniform set partition per agent,
    uniform truth set per atom."""
    if min(n_states, n_agents, n_atoms) < 1:
        raise ValueError("all counts must be at least 1")
    rng = random.Random(seed)
    states = [f"s{i}" for i in range(n_states)]
    agents = [f"a{i}" for i in range(n_agents)]
    atoms = [f"p{i}" for i in range(n_atoms)]
    partitions = {a: _uniform_set_partition(rng, states) for a in agents}
    valuation = {p: [s for s in states if rng.random() < 0.5] for p in atoms}
    return EpistemicModel(states, agents, atoms, partitions, valuation)


def _uniform_set_partition(rng: random.Random, items: Sequence[str]) -> list[list[str]]:
    """Uniform over all set partitions, by counting restricted growth
    strings: d(r, m) = m d(r-1, m) + d(r-1, m+1) extensions remain for r
    items after m blocks exist, d(0, m) = 1.  Built up once for the Bell
    numbers d(r, 0), the rows are walked down, one per item, by
    d(r-1, m+1) = d(r, m) - m d(r-1, m): one row is kept, nothing recurses."""
    n = len(items)
    row = [1] * (n + 1)
    bells = [1]
    for r in range(1, n + 1):
        row = [m * row[m] + row[m + 1] for m in range(n - r + 1)]
        bells.append(row[0])
    blocks: list[list[str]] = []
    for idx, item in enumerate(items):
        # row holds d(n - idx, m) for m <= idx; below holds d(n - idx - 1, m)
        below = [bells[n - idx - 1]]
        for m in range(idx + 1):
            below.append(row[m] - m * below[m])
        m = len(blocks)
        # each existing block weighs below[m]; the rest of the draws open a new block
        k = rng.randrange(row[m]) // below[m]
        if k < m:
            blocks[k].append(item)
        else:
            blocks.append([item])
        row = below
    return blocks
