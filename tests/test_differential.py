"""evaluate(), evaluate_trace() and evaluate_witness() against a naive reference evaluator.

The reference follows the semantics literally, with no contraction and no
caches: an announcement restricts the model with update(), and a group's
announcements are all intersections, one set per member, of the sets that
member can come to know in the model at hand
(validity.el_definable_know_sets).  It shares no code with the checker's
mask-keyed evaluator, its bisimulation classes or its extension
enumeration.
"""

from __future__ import annotations

from functools import reduce
from itertools import combinations, product
from operator import and_
from random import Random

import pytest

from corgal import (
    And,
    Ann,
    AnnDual,
    Atom,
    Bot,
    Coal,
    CoalDual,
    EpistemicModel,
    Evaluator,
    Iff,
    Imp,
    Know,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Stratum,
    Top,
    UndeclaredSymbol,
    contract,
    counterexample_model,
    el_definable_know_sets,
    enumerate_small_models,
    evaluate,
    evaluate_trace,
    evaluate_witness,
    gen_formula,
    parse_formula,
    parse_model,
    positive,
    random_model,
    train_model,
    truth_set,
)
from corgal.checker import _Root
from corgal.model import update

GOAL = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"


def announcements(model: EpistemicModel, group: frozenset[str]) -> set[int]:
    """Truth sets of the joint announcements of `group` in `model`."""
    sets = {model.full}
    for agent in sorted(group):
        sets = {x & k for x in sets for k in el_definable_know_sets(model, agent)}
    return sets


def after(model: EpistemicModel, announced: int, f) -> int:
    """States of `announced` where f holds once it is announced."""
    restricted = update(model, announced)
    return model.state_mask(restricted.states_in(reference(restricted, f)))


def pointwise(model: EpistemicModel, holds) -> int:
    return sum(1 << i for i in range(model.n) if holds(1 << i))


def reference(model: EpistemicModel, f) -> int:
    full = model.full
    if isinstance(f, Atom):
        return model.valuation_mask(f.name)
    if isinstance(f, Top):
        return full
    if isinstance(f, Bot):
        return 0
    if isinstance(f, Not):
        return full & ~reference(model, f.sub)
    if isinstance(f, (And, Or, Imp, Iff)):
        a, b = reference(model, f.left), reference(model, f.right)
        return full & {
            And: a & b, Or: a | b, Imp: ~a | b, Iff: ~(a ^ b)
        }[type(f)]
    if isinstance(f, Know):
        t = reference(model, f.sub)
        return pointwise(model, lambda w: next(b for b in model.blocks(f.agent) if b & w) & ~t == 0)
    if isinstance(f, (Ann, AnnDual)):
        s = reference(model, f.ann)
        if s == 0:
            return full if isinstance(f, Ann) else 0
        t = after(model, s, f.sub)
        return (full & ~s) | t if isinstance(f, Ann) else t
    if isinstance(f, (RelGroup, RelGroupDual)):
        chi = reference(model, f.cond)
        options = {x & chi for x in announcements(model, f.group)} - {0}
        outcome = {x: after(model, x, f.sub) for x in options}
        if isinstance(f, RelGroup):
            return pointwise(
                model, lambda w: bool(w & chi) and all(outcome[x] & w for x in options if x & w)
            )
        return pointwise(
            model, lambda w: not (w & chi) or any(outcome[x] & w for x in options if x & w)
        )
    if isinstance(f, (Coal, CoalDual)):
        options = announcements(model, f.group)
        responses = announcements(model, frozenset(model.agents) - f.group)
        joint = {x & y for x in options for y in responses} - {0}
        outcome = {z: after(model, z, f.sub) for z in joint}

        def answered(x: int, w: int) -> list[bool]:
            return [bool(outcome[x & y] & w) for y in responses if y & w]

        if isinstance(f, Coal):
            return pointwise(model, lambda w: all(any(answered(x, w)) for x in options if x & w))
        return pointwise(model, lambda w: any(all(answered(x, w)) for x in options if x & w))
    raise TypeError(f"not a formula: {f!r}")


def agree(model: EpistemicModel, f) -> None:
    expected = reference(model, f)
    for i, state in enumerate(model.states):
        assert evaluate(model, state, f) == bool(expected >> i & 1), (model, state, str(f))


NESTED = [
    "<[{a0}]> <[{a1}]> K a0 p0",
    "[<{a0}>] [<{a1}>] ~K a1 p0",
    "<[{a0,a1}]> [<{}>] (K a0 p0 | K a1 ~p0)",
    "[{a0,a1}, top] <{a0}, p0> K a1 p0",
    "<{a1}, K a0 p0> [<{a1}>] (p0 -> K a0 p0)",
    "[! K a0 p0 | K a1 ~p0] <[{a0}]> <{a1}> ~K a0 p0",
]


def _formulas(atoms: tuple[str, ...], agents: tuple[str, ...], count: int) -> list:
    return [gen_formula(seed, Stratum.CORGAL, 4, atoms, agents) for seed in range(count)]


def doubled_models():
    """Every model of at most two states, doubled: each state gets a
    bisimilar twin.  Each agent's blocks are copied, merged with their
    copies, or crossed over them ({x, y'} and {y, x'}), so that twins can
    sit in different blocks and a union of blocks can split a class."""
    for model in enumerate_small_models(2, 2, 1):
        def twin(s: str) -> str:
            return s + "x"

        options = []
        for agent in model.agents:
            blocks = [list(model.states_in(b)) for b in model.blocks(agent)]
            options.append([
                blocks + [[twin(s) for s in b] for b in blocks],
                [b + [twin(s) for s in b] for b in blocks],
                [[b[0], twin(b[-1])] for b in blocks] + [[b[-1], twin(b[0])] for b in blocks if len(b) == 2],
            ])
        valuation = {
            p: [*model.states_in(model.valuation_mask(p)),
                *(twin(s) for s in model.states_in(model.valuation_mask(p)))]
            for p in model.atoms
        }
        for parts in product(*options):
            yield EpistemicModel(
                [*model.states, *(twin(s) for s in model.states)],
                model.agents, model.atoms, dict(zip(model.agents, parts)), valuation,
            )


def test_every_small_model():
    formulas = [parse_formula(text) for text in NESTED]
    formulas += _formulas(("p0",), ("a0", "a1"), 30)
    for model in enumerate_small_models(3, 2, 1):
        for f in formulas:
            agree(model, f)


def test_models_with_twins_in_different_blocks():
    formulas = [parse_formula(text) for text in NESTED + ["<{a1}> K a0 p0", "<{a0}> K a1 p0"]]
    formulas += _formulas(("p0",), ("a0", "a1"), 30)
    for model in doubled_models():
        for f in formulas:
            agree(model, f)


@pytest.mark.parametrize("name", ["train", "counterexample"])
def test_bundled_scenarios(name):
    if name == "train":
        model = train_model()
        texts = [
            "[! ~p] K c ~p",
            "[{c}, top] (~K c ~p & ~K c p)",
            "<[{a,b}]> (~K c ~p & ~K c p)",
            "[<{a,c}>] (K c ~p | K c p)",
        ]
    else:
        model = counterexample_model()
        texts = [
            f"<[{{a,b}}]> ({GOAL})",
            f"[<{{a}}>] [<{{b}}>] ~({GOAL})",
            f"<[{{a}}]> <[{{b}}]> ({GOAL})",
            f"[<{{c}}>] ({GOAL})",
        ]
    formulas = [parse_formula(text) for text in texts]
    formulas += _formulas(model.atoms, model.agents, 20)
    for f in formulas:
        agree(model, f)


def _entry(model: EpistemicModel, line: str) -> tuple[int, bool]:
    """The extension an `evaluate_trace` line names, as a mask, and
    whether the clause holds there."""
    target, verdict = line.rsplit(" -> ", 1)[1].split(": ")
    names = target.strip("{}")
    return model.state_mask(names.split(",") if names else []), verdict == "True"


def pointed_cases(model: EpistemicModel, group: frozenset[str], body):
    """Each quantified formula over `body`, whether it is a box, and its
    announcements: (extension, scope, ok) where the clause holds at a
    state w of `scope` for that announcement iff ok(w)."""
    options = announcements(model, group)
    responses = announcements(model, frozenset(model.agents) - group)
    for chi_text in ("top", "p0"):
        chi = reference(model, parse_formula(chi_text))
        entries = []
        for x in options:
            t = after(model, x & chi, body) if x & chi else 0
            entries.append((x, x & chi, lambda w, t=t: bool(t & w)))
        yield RelGroup(group, parse_formula(chi_text), body), True, entries
        yield RelGroupDual(group, parse_formula(chi_text), body), False, entries
    joint = {x & y: after(model, x & y, body) for x in options for y in responses if x & y}

    def answered(x: int, w: int) -> list[bool]:
        return [bool(joint[x & y] & w) for y in responses if y & w]

    for op, box, rule in ((Coal, True, any), (CoalDual, False, all)):
        yield op(group, body), box, [
            (x, x, lambda w, x=x, rule=rule: rule(answered(x, w))) for x in options
        ]


def test_pointed_path_against_the_reference():
    # verdict, trace and witness of evaluate_trace and evaluate_witness at
    # every point.  The trace lists the announcements the top-level fold
    # weighs, each as the reference weighs it, up to the first that
    # decides the verdict, which is the witness.  Outside the positive
    # fragment they are the extensions whose scope holds the point,
    # silence first, all of them when none decides; over a positive body
    # the one announcement is the cell X_G(s) of a diamond or silence of
    # a box, and none is weighed where the condition fails
    bodies = [parse_formula("~K a0 p0 | K a1 p0"), parse_formula("K a0 p0 | K a1 p0")]
    groups = [frozenset(), frozenset({"a0"}), frozenset({"a0", "a1"})]
    witnessed = 0
    for model in [*enumerate_small_models(3, 2, 1), *doubled_models()]:
        for group, body in product(groups, bodies):
            options = announcements(model, group)
            for f, box, entries in pointed_cases(model, group, body):
                expected = reference(model, f)
                relativised = isinstance(f, (RelGroup, RelGroupDual))
                chi = reference(model, f.cond) if relativised else model.full
                for i, state in enumerate(model.states):
                    w = 1 << i
                    report = evaluate_witness(model, state, f)
                    verdict, lines = evaluate_trace(model, state, f)
                    case = (model, state, str(f))
                    assert report.verdict == verdict == bool(expected & w), case
                    wanted = {x: ok(w) for x, scope, ok in entries if scope & w}
                    got = [_entry(model, line) for line in lines]
                    assert all(wanted.get(x) == ok for x, ok in got), case
                    assert len({x for x, _ in got}) == len(got), case
                    decides = [ok != box for _, ok in got]
                    assert not any(decides[:-1]), case
                    if positive(body):
                        # a diamond's cell: the announcements holding w meet in it
                        cell = model.full if box else reduce(and_, [x for x in options if x & w])
                        assert [x for x, _ in got] == ([cell] if chi & w else []), case
                    else:
                        assert not got or got[0][0] == model.full, case
                        if not any(decides):
                            assert len(got) == len(wanted), case
                    if not any(decides):
                        assert report.witness is None, case
                        continue
                    witnessed += 1
                    # evaluate_witness returned, so its self-check held
                    assert truth_set(model, report.witness.denotation()) == got[-1][0], case
    assert witnessed > 1000


def test_random_three_agent_models():
    # three agents make coalition complements groups of two, and five
    # states leave room for bisimilar states the checker merges
    for seed in range(30):
        model = random_model(seed, 5, 3, 2)
        for f in _formulas(model.atoms, model.agents, 10):
            agree(model, f)


# every operator once, quantified ones over bodies outside the positive
# fragment, and right-hand sides that are asked only where the left
# side leaves the answer open
FOCUSED = [
    "p0", "top", "bot", "~p0 & K a1 p0", "K a0 p0 | ~p0", "K a0 p0 -> K a1 p0",
    "K a0 p0 <-> p0", "K a0 (p0 | K a1 ~p0)", "[! K a0 p0] K a1 p0", "<! ~K a1 p0> ~K a0 p0",
    "[{a0}, ~K a1 p0] ~K a0 p0", "<{a1}, top> (K a0 p0 & ~K a1 p0)",
    "[<{a0}>] ~K a1 p0", "<[{a1}]> (K a0 p0 -> ~K a1 p0)",
    "p0 & <[{a0}]> ~K a1 p0", "~p0 | [<{a1}>] ~K a0 p0", "K a1 p0 -> <{a0}, p0> ~K a1 p0",
]


def focused_formulas() -> list:
    """FOCUSED and NESTED, each bare and under ~, K and [! chi]."""
    chi = parse_formula("p0 | K a1 p0")
    out = []
    for f in [parse_formula(text) for text in FOCUSED + NESTED]:
        out += [f, Not(f), Know("a0", f), Ann(chi, f)]
    return out


def test_pointed_queries_in_shuffled_order():
    # Evaluator.holds computes truth only at the state asked, down to the
    # bodies of nested quantifiers; asking the states of a model in a
    # shuffled order through one evaluator reads, extends and completes
    # the partial entries that earlier states left behind
    formulas = focused_formulas()
    shuffle = Random(16).shuffle
    models = [*enumerate_small_models(3, 2, 1), *doubled_models()]
    models += [random_model(seed, 6 + seed % 2, 2, 1) for seed in range(12)]
    for model in models:
        expected = [reference(model, f) for f in formulas]
        order = list(enumerate(model.states))
        shuffle(order)
        ev = Evaluator()
        for i, state in order:
            for f, t in zip(formulas, expected):
                assert ev.holds(model, state, f) == bool(t >> i & 1), (model, state, str(f))
        for f, t in zip(formulas, expected):
            assert ev.truth_set(model, f) == t, (model, str(f))


def test_query_order_does_not_change_truth_sets():
    # a pointed query leaves partial entries behind; a later truth set on
    # the same evaluator must equal one from a fresh evaluator
    formulas = focused_formulas()
    for seed in range(20):
        model = random_model(seed, 5 + seed % 3, 3, 2)
        state = model.states[seed % model.n]
        for f in formulas:
            ev = Evaluator()
            ev.holds(model, state, f)
            assert ev.truth_set(model, f) == Evaluator().truth_set(model, f), (model, str(f))


def test_truth_sets_within_a_focus():
    # truth_set with a focus answers only its states; the random foci
    # overlap, so later ones extend what earlier ones left decided
    formulas = focused_formulas()
    draw = Random(7).getrandbits
    for seed in range(12):
        model = random_model(seed, 5 + seed % 3, 3, 2)
        ev = Evaluator()
        for f in formulas:
            expected = reference(model, f)
            for _ in range(3):
                focus = draw(model.n)
                assert ev.truth_set(model, f, focus) == expected & focus, (model, str(f), focus)
            assert ev.truth_set(model, f) == expected, (model, str(f))


def positive_cases() -> list:
    """The four quantified operators over positive bodies, for no agent,
    one agent and every agent, with condition top and a non-positive one."""
    bodies = ["K a0 p0 | K a1 ~p0", "p0 & [{a1}, top] K a1 (K a0 p0 | ~p0)"]
    cases = []
    for body in bodies:
        for group in ["", "a0", "a0,a1"]:
            cases += [f"<[{{{group}}}]> ({body})", f"[<{{{group}}}>] ({body})"]
            for chi in ["top", "~K a0 p0"]:
                cases += [f"[{{{group}}}, {chi}] ({body})", f"<{{{group}}}, {chi}> ({body})"]
    return [parse_formula(text) for text in cases]


def test_positive_bodies_collapse():
    # a quantifier over a positive body weighs one announcement per point:
    # it enumerates nothing, so not even a cap of 1 stops it, and it still
    # agrees with the reference; under an outer quantifier whose body is
    # not positive the inner one collapses in every restriction weighed.
    # Asked at one point, a diamond first asks its body under silence, and
    # weighs the cells only where that fails
    flat = positive_cases()
    assert all(positive(f.sub) for f in flat)
    nested = [parse_formula(f"<[{{a1}}]> ~({f})") for f in flat[::3]]
    nested += [parse_formula(f"[{{a0}}, ~K a1 p0] (({f}) -> K a0 p0)") for f in flat[1::3]]
    nested += [parse_formula(f"[<{{a0}}>] ~({f})") for f in flat[2::3]]
    for model in [*enumerate_small_models(3, 2, 1), *doubled_models()]:
        for f in flat:
            expected = reference(model, f)
            assert truth_set(model, f, cap=1) == expected, (model, str(f))
            for i, state in enumerate(model.states):
                assert evaluate(model, state, f, cap=1) == bool(expected >> i & 1), (model, state, str(f))
        for f in nested:
            expected = reference(model, f)
            assert truth_set(model, f) == expected, (model, str(f))
            for i, state in enumerate(model.states):
                assert evaluate(model, state, f) == bool(expected >> i & 1), (model, state, str(f))


def test_extensions_containing_a_point():
    # the pointed enumeration is extensions() filtered to the extensions
    # that contain the point, in the same order, whether it enumerates
    # them itself or reads the kept full list
    for model in [*enumerate_small_models(3, 2, 1), *doubled_models()]:
        groups = [frozenset(g) for k in range(len(model.agents) + 1)
                  for g in combinations(model.agents, k)]
        domains = {model.full: None}
        for agent in model.agents:
            domains.update(dict.fromkeys(_Root(model, 10**6).extensions(model.full, frozenset({agent}))))
        for domain, group in product(domains, groups):
            root = _Root(model, 10**6)
            points = [1 << i for i in range(model.n) if domain >> i & 1]
            pointed = {point: root.extensions(domain, group, point) for point in points}
            full = root.extensions(domain, group)
            for point in points:
                expected = [e for e in full if e & point]
                assert pointed[point] == expected, (model, domain, sorted(group), point)
                assert root.extensions(domain, group, point) == expected


# random_model(533214, 5, 3, 2): five pairwise non-bisimilar states
EXTENDED_FRAGMENT_COUNTERMODEL = """{
  "agents": ["a0", "a1", "a2"],
  "atoms": ["p0", "p1"],
  "states": ["s0", "s1", "s2", "s3", "s4"],
  "valuation": {"s0": [], "s1": [], "s2": ["p0", "p1"], "s3": ["p0"], "s4": ["p0", "p1"]},
  "partitions": {
    "a0": [["s0", "s3", "s4"], ["s1", "s2"]],
    "a1": [["s0", "s1", "s2", "s4"], ["s3"]],
    "a2": [["s0", "s2", "s3"], ["s1", "s4"]]
  }
}"""


def test_coalitions_over_positive_bodies_are_not_positive():
    # restriction to {s0,s1,s2,s4} keeps s2 but loses the three
    # diamond-like forms there, so they are not preserved under
    # restriction and may not count as positive themselves
    model = parse_model(EXTENDED_FRAGMENT_COUNTERMODEL)
    assert len(contract(model)[0].states) == 5
    restricted = update(model, model.state_mask(["s0", "s1", "s2", "s4"]))
    s2 = model.state_mask(["s2"])
    body = "(K a2 p0 | ~p1)"
    for text in [f"<[{{a0}}]> {body}", f"<{{a0}}, top> {body}", f"[<{{a1,a2}}>] {body}"]:
        f = parse_formula(text)
        assert not positive(f)
        assert reference(model, f) & s2
        assert not reference(restricted, f) & restricted.state_mask(["s2"])
        agree(model, f)
        agree(restricted, f)
    # [G, top] over a positive body is its body, in every restriction
    f = parse_formula(f"[{{a0}}, top] {body}")
    assert positive(f)
    for m in (model, restricted):
        assert reference(m, f) == reference(m, f.sub) == truth_set(m, f)


@pytest.mark.parametrize("text", [
    "<[{zz}]> K a0 p0", "[<{zz}>] K a0 p0", "[{zz}, top] K a0 p0",
    "<{zz}, top> K a0 p0", "[{zz}, bot] p0", "<{zz}, bot> p0",
    "[{a0}, top] <[{a1,zz}]> p0", "K zz p0", "[! K zz p0] p0", "<[{a0}]> K zz p0",
])
def test_unknown_group_agent_under_a_positive_body(text):
    # Evaluator.truth_set runs without check_symbols, and the collapse
    # weighs no extension of the group, yet the agent is still unknown;
    # so is a knowing agent the model does not declare
    model = random_model(1, 4, 2, 1)
    with pytest.raises(UndeclaredSymbol, match="unknown agent 'zz'"):
        Evaluator().truth_set(model, parse_formula(text))
