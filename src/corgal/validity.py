"""Property-based harness: seeded generators, axiom and rule soundness
suites, the validity schemas, contrapositive witness checks for the
infinitary rules, reproduction of the bundled scenarios, and two
independent oracles: the definability oracle backing the choice-set
machinery and the coalition operators' group-announcement reformulation.

Every suite is deterministic in (seed, config); failures carry enough
text to replay them through the parser.
"""

from __future__ import annotations

import inspect
import json
import random
from dataclasses import asdict, dataclass, field
from functools import reduce
from itertools import product
from typing import Callable, Iterable, Iterator, Mapping

from .builtin import COUNTEREXAMPLE_DOCUMENT, TRAIN_DOCUMENT
from .checker import (
    Evaluator,
    NotQuantified,
    check_symbols,
    evaluate,
    evaluate_witness,
    truth_set,
)
from .formula import (
    And,
    Ann,
    AnnDual,
    Atom,
    Coal,
    CoalDual,
    Formula,
    GroupKnowledgeFormula,
    Iff,
    Imp,
    Know,
    NecessityForm,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Stratum,
    TOP,
    BOT,
    nf_instantiate,
    order_lt,
    reduction,
    stratum,
)
from .model import (
    DEFAULT_ENUMERATION_CAP,
    ChoiceSet,
    EnumerationCapExceeded,
    EpistemicModel,
    StateSet,
    characteristic_formulas,
    choice_sets,
    contract,
    random_model,
    update,
)
from .parser import parse_formula, parse_model, render_formula, render_model
from .translate import pal_to_el, reduction_step

HARD_MAX_STATES = 6

_AXIOM_BINDINGS_PER_MODEL = 20
_RULE_BINDINGS_PER_MODEL = 6
_THEOREM_BINDINGS_PER_MODEL = 2
_FORMULA_DEPTH = 3
_N_AGENTS = _N_ATOMS = 3


@dataclass
class SuiteConfig:
    seed: int = 0
    model_count: int = 500
    max_states: int = 5
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self) -> None:
        if self.model_count < 0:
            raise ValueError("model_count must not be negative")
        for name in ("max_states", "enumeration_cap"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.max_states > HARD_MAX_STATES:
            raise ValueError(
                f"max_states {self.max_states} above the ceiling of {HARD_MAX_STATES}"
            )


@dataclass
class Failure:
    claim: str
    model_document: str
    state: str
    formula: str
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    cases: int
    failures: list[Failure] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        suite, cases, *rest = asdict(self).items()
        return dict([suite, cases, ("passed", self.passed), *rest])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def summary(self) -> str:
        text = (
            f"suite {self.suite}: {self.cases} cases, "
            f"{len(self.failures)} failures, {len(self.skipped)} skipped"
        )
        if self.notes:
            text += f", {len(self.notes)} notes"
        return text


class MissingBinding(Exception):
    """An axiom schema was instantiated without one of its metavariables."""


class DisjointnessViolation(Exception):
    """The coalition-composition schema needs disjoint groups."""


# ---------------------------------------------------------------------------
# random generation


def gen_formula(
    seed: int,
    target: Stratum,
    max_depth: int,
    atoms: tuple[str, ...],
    agents: tuple[str, ...],
) -> Formula:
    """Deterministic random formula within the requested sublanguage."""
    if max_depth < 1:
        raise ValueError("max_depth must be at least 1")
    rng = random.Random(seed)
    return _gen(rng, target, max_depth, tuple(atoms), tuple(agents))


# a node class drawn twice is twice as likely
_EL_NODES: tuple[type[Formula], ...] = (Not, And, Or, Imp, Iff, Know, Know)
_PAL_NODES = _EL_NODES + (Ann, Ann, AnnDual)
_RGAL_NODES = _PAL_NODES + (RelGroup, RelGroupDual)
_CORGAL_NODES = _RGAL_NODES + (Coal, CoalDual)
_NODES_BY_STRATUM = {
    Stratum.EL: _EL_NODES,
    Stratum.PAL: _PAL_NODES,
    Stratum.RGAL: _RGAL_NODES,
    Stratum.CORGAL: _CORGAL_NODES,
}


def _gen(
    rng: random.Random,
    target: Stratum,
    depth: int,
    atoms: tuple[str, ...],
    agents: tuple[str, ...],
) -> Formula:
    if depth <= 1 or rng.random() < 0.2:
        roll = rng.random()
        if roll < 0.08:
            return TOP
        if roll < 0.14:
            return BOT
        return Atom(rng.choice(atoms))
    node = rng.choice(_NODES_BY_STRATUM[target])
    # the node's fields are drawn in declaration order
    return node(*[
        _gen_group(rng, agents) if name == "group"
        else rng.choice(agents) if name == "agent"
        else _gen(rng, target, depth - 1, atoms, agents)
        for name in node.__match_args__
    ])


def _gen_group(rng: random.Random, agents: tuple[str, ...]) -> frozenset[str]:
    if rng.random() < 0.08:
        return frozenset()
    k = rng.randint(1, len(agents))
    return frozenset(rng.sample(list(agents), k))


def _gen_group_knowledge(
    rng: random.Random,
    group: frozenset[str],
    atoms: tuple[str, ...],
    agents: tuple[str, ...],
) -> GroupKnowledgeFormula:
    bindings = []
    for agent in sorted(group):
        if rng.random() < 0.25:
            bindings.append((agent, TOP))
        else:
            bindings.append((agent, _gen(rng, Stratum.EL, 2, atoms, agents)))
    return GroupKnowledgeFormula(tuple(bindings))


def _gen_nf(
    rng: random.Random,
    depth: int,
    atoms: tuple[str, ...],
    agents: tuple[str, ...],
) -> NecessityForm:
    if depth <= 0:
        return ()
    kind = rng.choice(("hole", "imp", "know", "ann"))
    if kind == "hole":
        return ()
    # the inner frames are drawn before this frame's own argument
    body = _gen_nf(rng, depth - 1, atoms, agents)
    if kind == "know":
        return ((Know, rng.choice(agents)),) + body
    op = Imp if kind == "imp" else Ann
    return ((op, _gen(rng, Stratum.PAL, 2, atoms, agents)),) + body


# ---------------------------------------------------------------------------
# axiom schemas

_TAUT_TEMPLATES: tuple[Callable[[Formula, Formula, Formula], Formula], ...] = (
    lambda p, q, r: Imp(p, Imp(q, p)),
    lambda p, q, r: Imp(Imp(p, Imp(q, r)), Imp(Imp(p, q), Imp(p, r))),
    lambda p, q, r: Imp(Imp(Not(p), Not(q)), Imp(q, p)),
    lambda p, q, r: Or(p, Not(p)),
    lambda p, q, r: Iff(And(p, q), And(q, p)),
    lambda p, q, r: Iff(Not(Or(p, q)), And(Not(p), Not(q))),
)


def _reduction_step_axiom(f: Ann) -> Formula:
    return Iff(f, reduction_step(f))


def _reduction_axiom(
    f: Formula, psi_g: GroupKnowledgeFormula, all_agents: Iterable[str], axiom_id: str
) -> Formula:
    """f -> reduction(f, den): the group announces psi_g's denotation den
    in place of the quantifier f."""
    if psi_g.group != f.group:
        raise ValueError(f"{axiom_id}: psi_g bindings must cover exactly the group")
    return Imp(f, reduction(f, psi_g.denotation(), all_agents))


def _c5(
    group: frozenset[str], group2: frozenset[str], phi: Formula, psi: Formula
) -> Formula:
    if group & group2:
        raise DisjointnessViolation("C5 requires disjoint groups")
    return Imp(
        And(CoalDual(group, phi), CoalDual(group2, psi)),
        CoalDual(group | group2, And(phi, psi)),
    )


# Each schema's builder; its parameters without a default are the
# schema's metavariables, in the order MissingBinding reports them.
AXIOMS: dict[str, Callable[..., Formula]] = {
    "A0": lambda phi, psi, chi, taut=0: (
        _TAUT_TEMPLATES[taut % len(_TAUT_TEMPLATES)](phi, psi, chi)
    ),
    "A1": lambda agent, phi, psi: Imp(
        Know(agent, Imp(phi, psi)), Imp(Know(agent, phi), Know(agent, psi))
    ),
    "A2": lambda agent, phi: Imp(Know(agent, phi), phi),
    "A3": lambda agent, phi: Imp(Know(agent, phi), Know(agent, Know(agent, phi))),
    "A4": lambda agent, phi: Imp(Not(Know(agent, phi)), Know(agent, Not(Know(agent, phi)))),
    # [!phi] body <-> its reduction_step, one per shape of the core body
    "A5": lambda phi, atom: _reduction_step_axiom(Ann(phi, Atom(atom))),
    "A6": lambda phi, psi: _reduction_step_axiom(Ann(phi, Not(psi))),
    "A7": lambda phi, psi, chi: _reduction_step_axiom(Ann(phi, And(psi, chi))),
    "A8": lambda agent, phi, psi: _reduction_step_axiom(Ann(phi, Know(agent, psi))),
    "A9": lambda phi, psi, chi: _reduction_step_axiom(Ann(phi, Ann(psi, chi))),
    # the relativised operators' reduction reads no other agents
    "A10": lambda group, chi, phi, psi_g: _reduction_axiom(
        RelGroup(group, chi, phi), psi_g, (), "A10"
    ),
    "A11": lambda group, phi, psi_g, all_agents: _reduction_axiom(
        Coal(group, phi), psi_g, all_agents, "A11"
    ),
    "C1": lambda group: Not(CoalDual(group, BOT)),
    "C2": lambda group: CoalDual(group, TOP),
    "C3": lambda phi, all_agents: Imp(
        Not(CoalDual(frozenset(), Not(phi))), CoalDual(frozenset(all_agents), phi)
    ),
    "C4": lambda group, phi, psi: Imp(CoalDual(group, And(phi, psi)), CoalDual(group, phi)),
    "C5": _c5,
}

AXIOM_IDS: tuple[str, ...] = tuple(AXIOMS)


def _parameters(builder: Callable[..., Formula]) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """A builder's metavariables, then its parameters with a default."""
    parameters = inspect.signature(builder).parameters.values()
    return (
        tuple(p.name for p in parameters if p.default is p.empty),
        tuple(p.name for p in parameters if p.default is not p.empty),
    )


# worked out once, not on every instance
_PARAMETERS = {axiom_id: _parameters(builder) for axiom_id, builder in AXIOMS.items()}


def axiom_instance(axiom_id: str, bindings: Mapping[str, object]) -> Formula:
    """Close an axiom schema with the given metavariable bindings."""
    if axiom_id not in AXIOMS:
        raise ValueError(f"unknown axiom id {axiom_id!r}")
    required, optional = _PARAMETERS[axiom_id]
    missing = [k for k in required if k not in bindings]
    if missing:
        raise MissingBinding(f"{axiom_id} needs binding {missing[0]!r}")
    return AXIOMS[axiom_id](
        *[bindings[k] for k in required], **{k: bindings[k] for k in optional if k in bindings}
    )


# ---------------------------------------------------------------------------
# suite plumbing


def _models(cfg: SuiteConfig, rng: random.Random) -> Iterator[EpistemicModel]:
    for _ in range(cfg.model_count):
        n = max(rng.randint(1, cfg.max_states), rng.randint(1, cfg.max_states))
        yield random_model(rng.randrange(2**32), n, _N_AGENTS, _N_ATOMS)


def _random_bindings(rng: random.Random, model: EpistemicModel) -> dict[str, object]:
    atoms = model.atoms
    agents = model.agents

    def draw() -> Formula:
        target = rng.choices(
            (Stratum.EL, Stratum.PAL, Stratum.RGAL, Stratum.CORGAL),
            weights=(40, 30, 15, 15),
        )[0]
        return _gen(rng, target, rng.randint(1, _FORMULA_DEPTH), atoms, agents)

    group = _gen_group(rng, agents)
    rest = [a for a in agents if a not in group]
    group2 = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
    return {
        "phi": draw(),
        "psi": draw(),
        "chi": draw(),
        "agent": rng.choice(agents),
        "atom": rng.choice(atoms),
        "group": group,
        "group2": group2,
        "psi_g": _gen_group_knowledge(rng, group, atoms, agents),
        "all_agents": frozenset(agents),
        "taut": rng.randrange(len(_TAUT_TEMPLATES)),
    }


def _check_valid_on(
    ev: Evaluator,
    model: EpistemicModel,
    claim: str,
    instance: Formula,
    report: SuiteReport,
    context: str,
) -> None:
    report.cases += 1
    try:
        t = ev.truth_set(model, instance)
    except EnumerationCapExceeded as exc:
        report.skipped.append(f"{claim} ({context}): {exc}")
        return
    if t != model.full:
        state = model.states_in(model.full & ~t)[0]
        report.failures.append(
            Failure(claim, render_model(model), state, render_formula(instance))
        )


# ---------------------------------------------------------------------------
# suites


def run_axiom_suite(
    cfg: SuiteConfig,
    overrides: Mapping[str, Callable[[Mapping[str, object]], Formula]] | None = None,
) -> SuiteReport:
    """Every axiom instance must hold at every state of every sampled model."""
    report = SuiteReport("axioms", 0)
    rng = random.Random(cfg.seed)
    for index, model in enumerate(_models(cfg, rng)):
        ev = Evaluator(cap=cfg.enumeration_cap)
        for binding_no in range(_AXIOM_BINDINGS_PER_MODEL):
            bindings = _random_bindings(rng, model)
            for axiom_id in AXIOM_IDS:
                builder = overrides.get(axiom_id) if overrides else None
                instance = builder(bindings) if builder else axiom_instance(axiom_id, bindings)
                _check_valid_on(
                    ev, model, axiom_id, instance, report,
                    f"model {index}, binding {binding_no}",
                )
    return report


def run_rule_suite(
    cfg: SuiteConfig,
    premises: list[Formula] | None = None,
) -> SuiteReport:
    """Necessitation-style rules applied to premises that are valid by
    construction (axiom instances); conclusions must hold everywhere.

    The relativised-group conclusion draws its condition from the same
    valid pool: the operator conjoins its condition, so a rule conclusion
    with a falsifiable condition is itself falsifiable.
    """
    report = SuiteReport("rules", 0)
    rng = random.Random(cfg.seed)
    for index, model in enumerate(_models(cfg, rng)):
        ev = Evaluator(cap=cfg.enumeration_cap)
        for binding_no in range(_RULE_BINDINGS_PER_MODEL):
            bindings = _random_bindings(rng, model)
            if premises is None:
                pool = [
                    axiom_instance(x, bindings)
                    for x in ("A2", "A6", "A7", "A9", "A10", "A11")
                ]
            else:
                pool = list(premises)
            if not pool:
                continue
            valid_chi = rng.choice([TOP] + pool)
            conclusions = [
                ("R0", And(rng.choice(pool), rng.choice(pool))),
                ("R1", Know(bindings["agent"], rng.choice(pool))),
                ("R2", Ann(bindings["psi"], rng.choice(pool))),
                ("R3", RelGroup(bindings["group"], valid_chi, rng.choice(pool))),
                ("R4", Coal(bindings["group"], rng.choice(pool))),
            ]
            base = rng.choice(pool)
            variant = Not(Not(base)) if rng.random() < 0.5 else And(base, TOP)
            conclusions.append(
                ("CL-R1", Iff(CoalDual(bindings["group"], base), CoalDual(bindings["group"], variant)))
            )
            for claim, instance in conclusions:
                _check_valid_on(
                    ev, model, claim, instance, report,
                    f"model {index}, binding {binding_no}",
                )
    return report


def _silence(group: frozenset[str]) -> GroupKnowledgeFormula:
    return GroupKnowledgeFormula(tuple((a, TOP) for a in sorted(group)))


def _witness_through_form(
    ev: Evaluator,
    model: EpistemicModel,
    state: str,
    nf: NecessityForm,
    inner: Formula,
) -> GroupKnowledgeFormula:
    """Descend a refuted context to the hole's pointed model and synthesise
    the announcement that refutes the quantifier there."""
    for k, (op, arg) in enumerate(nf):
        if op is Know:
            point = 1 << model.state_index(state)
            block = next(b for b in model.blocks(arg) if b & point)
            failing = block & ~ev.truth_set(model, nf_instantiate(nf[k + 1:], inner))
            if not failing:
                raise AssertionError("knowledge context was not actually refuted")
            # the lowest failing state of the block
            state = model.states_in(failing & -failing)[0]
        elif op is Ann:
            model = update(model, ev.truth_set(model, arg))
        # an Imp frame leaves the point and the model as they are
    rep = evaluate_witness(model, state, inner, cap=ev.cap)
    if rep.witness is not None:
        return rep.witness
    # condition failed at the point, so any announcement refutes it
    return _silence(inner.group)


def run_quantifier_rule_suite(cfg: SuiteConfig) -> SuiteReport:
    """Contrapositive content of the infinitary rules: wherever a
    quantified conclusion fails inside a context, a concrete announcement
    must refute the corresponding premise, re-checked by direct evaluation.

    Also checks that contexts are monotone: valid implications stay valid
    under any context.
    """
    report = SuiteReport("quantifier-rules", 0)
    rng = random.Random(cfg.seed)
    witnessed = 0
    for index, model in enumerate(_models(cfg, rng)):
        ev = Evaluator(cap=cfg.enumeration_cap)
        for attempt in range(4):
            nf = _gen_nf(rng, rng.randint(0, 2), model.atoms, model.agents)
            group = _gen_group(rng, model.agents)
            chi = TOP if rng.random() < 0.5 else _gen(rng, Stratum.PAL, 2, model.atoms, model.agents)
            phi = _gen(rng, Stratum.PAL, 2, model.atoms, model.agents)
            for rule, inner in (("R5", RelGroup(group, chi, phi)), ("R6", Coal(group, phi))):
                conclusion = nf_instantiate(nf, inner)
                try:
                    t = ev.truth_set(model, conclusion)
                except EnumerationCapExceeded as exc:
                    report.skipped.append(f"{rule} (model {index}, attempt {attempt}): {exc}")
                    continue
                for state in model.states_in(model.full & ~t)[:2]:
                    report.cases += 1
                    try:
                        witness = _witness_through_form(ev, model, state, nf, inner)
                        premise = nf_instantiate(
                            nf, reduction(inner, witness.denotation(), model.agents)
                        )
                        if ev.holds(model, state, premise):
                            report.failures.append(
                                Failure(
                                    rule, render_model(model), state, render_formula(conclusion),
                                    detail="witness did not refute the premise: "
                                    + render_formula(premise),
                                )
                            )
                        else:
                            witnessed += 1
                    except EnumerationCapExceeded as exc:
                        report.skipped.append(
                            f"{rule} (model {index}, attempt {attempt}, state {state}): {exc}"
                        )
            # context monotonicity for a valid implication
            bindings = _random_bindings(rng, model)
            implication = axiom_instance(rng.choice(("A2", "A10", "C4")), bindings)
            check = Imp(
                nf_instantiate(nf, implication.left),
                nf_instantiate(nf, implication.right),
            )
            _check_valid_on(
                ev, model, "nf-monotone", check, report,
                f"model {index}, attempt {attempt}",
            )
    report.notes.append(f"witnessed-refutations: {witnessed}")
    return report


def run_theorem_suite(cfg: SuiteConfig) -> SuiteReport:
    """The proved interaction schemas between group and coalition
    announcements, instantiated at random."""
    report = SuiteReport("theorems", 0)
    rng = random.Random(cfg.seed)
    for index, model in enumerate(_models(cfg, rng)):
        ev = Evaluator(cap=cfg.enumeration_cap)
        all_agents = frozenset(model.agents)
        for binding_no in range(_THEOREM_BINDINGS_PER_MODEL):
            g = _gen_group(rng, model.agents)
            h = _gen_group(rng, model.agents)
            phi = _gen(rng, Stratum.PAL, 2, model.atoms, model.agents)
            schemas = [
                (
                    "P3",
                    Imp(
                        CoalDual(g, phi),
                        RelGroupDual(g, TOP, RelGroup(all_agents - g, TOP, phi)),
                    ),
                ),
                ("P4", Imp(CoalDual(g, phi), CoalDual(g | h, phi))),
                ("P5", Imp(CoalDual(g, CoalDual(g, phi)), Coal(all_agents - g, phi))),
                (
                    "P6",
                    Imp(
                        CoalDual(g, CoalDual(h, phi)),
                        Coal(all_agents - (g | h), phi),
                    ),
                ),
                (
                    "GAL-idem",
                    Iff(
                        RelGroupDual(g, TOP, phi),
                        RelGroupDual(g, TOP, RelGroupDual(g, TOP, phi)),
                    ),
                ),
                (
                    "GAL-union",
                    Imp(
                        RelGroupDual(g, TOP, RelGroupDual(h, TOP, phi)),
                        RelGroupDual(g | h, TOP, phi),
                    ),
                ),
            ]
            for claim, instance in schemas:
                _check_valid_on(
                    ev, model, claim, instance, report,
                    f"model {index}, binding {binding_no}",
                )
    return report


def run_counterexample_repro(counterexample_document: str | None = None) -> SuiteReport:
    """Exact verdicts on the bundled scenarios, witness included."""
    report = SuiteReport("repro", 0)
    train_doc = TRAIN_DOCUMENT
    counter_doc = (
        COUNTEREXAMPLE_DOCUMENT if counterexample_document is None else counterexample_document
    )
    train = parse_model(train_doc)
    counter = parse_model(counter_doc)
    goal = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"
    checks = [
        (train, train_doc, "w", "[! ~p] K c ~p", True),
        (train, train_doc, "w", "[{c}, top] (~K c ~p & ~K c p)", True),
        (train, train_doc, "w", "<[{a,b}]> (~K c ~p & ~K c p)", True),
        (train, train_doc, "w", "[<{a,c}>] (K c ~p | K c p)", True),
        (counter, counter_doc, "pqr", f"<[{{a,b}}]> ({goal})", True),
        (counter, counter_doc, "pqr", f"[<{{a}}>] [<{{b}}>] ~({goal})", True),
        (counter, counter_doc, "pqr", f"<[{{a}}]> <[{{b}}]> ({goal})", False),
        (counter, counter_doc, "pqr", f"[<{{c}}>] ({goal})", True),
    ]
    for model, document, state, text, expected in checks:
        report.cases += 1
        formula = parse_formula(text)
        if evaluate(model, state, formula) != expected:
            report.failures.append(
                Failure("repro", document, state, text, detail=f"expected {expected}")
            )

    # the winning coalition's joint announcement amounts to "a knows q"
    report.cases += 1
    witness_report = evaluate_witness(
        counter, "pqr", parse_formula(f"<[{{a,b}}]> ({goal})")
    )
    expected_extension = truth_set(counter, parse_formula("K a q & K b top"))
    if witness_report.witness is None:
        report.failures.append(
            Failure("repro-witness", counter_doc, "pqr", f"<[{{a,b}}]> ({goal})",
                    detail="no witness produced")
        )
    else:
        got = truth_set(counter, witness_report.witness.denotation())
        if got != expected_extension:
            report.failures.append(
                Failure(
                    "repro-witness", counter_doc, "pqr", f"<[{{a,b}}]> ({goal})",
                    detail=f"witness extension {counter.states_in(got)}",
                )
            )
        else:
            report.cases += 1  # the self-check that evaluate_witness made
    if report.passed:
        report.notes.append(
            "non-validity exhibited: a coalition's joint power does not split "
            "into consecutive announcements"
        )
        report.notes.append(
            "non-validity exhibited: the complement coalition's box does not "
            "imply the split announcements either"
        )
    return report


def run_translation_and_measure_suite(cfg: SuiteConfig) -> SuiteReport:
    """Announcement-elimination equivalence plus the measure inequalities
    behind the well-founded order."""
    report = SuiteReport("translation-measures", 0)
    rng = random.Random(cfg.seed)
    agents = tuple(f"a{i}" for i in range(_N_AGENTS))
    atoms = tuple(f"p{i}" for i in range(_N_ATOMS))
    triples = 0
    measure_instances = 0

    for i in range(cfg.model_count):
        if i % 5 == 0:
            model = next(_models(cfg, rng))
            ev = Evaluator(cap=cfg.enumeration_cap)
        f = _gen(rng, Stratum.PAL, rng.randint(1, _FORMULA_DEPTH), model.atoms, model.agents)
        translated = pal_to_el(f)
        report.cases += 1
        if stratum(translated) != Stratum.EL:
            report.failures.append(
                Failure("translation-stratum", "", "-", render_formula(f),
                        detail=render_formula(translated))
            )
            continue
        report.cases += model.n
        triples += model.n
        if ev.truth_set(model, f) != ev.truth_set(model, translated):
            diff = ev.truth_set(model, f) ^ ev.truth_set(model, translated)
            state = model.states_in(diff)[0]
            report.failures.append(
                Failure("translation-equivalence", render_model(model), state, render_formula(f),
                        detail=render_formula(translated))
            )

    for i in range(2 * cfg.model_count):
        tau = _gen(rng, Stratum.CORGAL, rng.randint(1, _FORMULA_DEPTH), atoms, agents)
        chi = _gen(rng, Stratum.CORGAL, rng.randint(1, _FORMULA_DEPTH), atoms, agents)
        phi = _gen(rng, Stratum.CORGAL, rng.randint(1, _FORMULA_DEPTH), atoms, agents)
        group = _gen_group(rng, agents)
        den = _gen_group_knowledge(rng, group, atoms, agents).denotation()
        group_box, coalition_box = RelGroup(group, chi, phi), Coal(group, phi)
        by_group = reduction(group_box, den, agents)
        by_others = reduction(coalition_box, den, agents)
        inequalities = [
            ("P7-1", by_group, group_box),
            ("P7-2", Ann(tau, by_group), Ann(tau, group_box)),
            ("P7-3", by_others, coalition_box),
            ("P7-4", Ann(tau, by_others), Ann(tau, coalition_box)),
        ]
        for claim, smaller, larger in inequalities:
            report.cases += 1
            measure_instances += 1
            if not order_lt(smaller, larger):
                report.failures.append(
                    Failure(claim, "", "-", render_formula(smaller),
                            detail=render_formula(larger))
                )
        report.cases += 1
        if order_lt(tau, tau):
            report.failures.append(
                Failure("order-irreflexive", "", "-", render_formula(tau))
            )
        if order_lt(tau, chi) and order_lt(chi, phi):
            report.cases += 1
            if not order_lt(tau, phi):
                report.failures.append(
                    Failure("order-transitive", "", "-", render_formula(tau),
                            detail=render_formula(phi))
                )
    report.notes.append(f"translation-triples: {triples}")
    report.notes.append(f"measure-instances: {measure_instances}")
    return report


def run_open_question_search(cfg: SuiteConfig) -> SuiteReport:
    """Countermodel search for the schemas the axiomatisation leaves open.

    Never asserts validity either way: countermodels are reported as
    notes, not failures.
    """
    report = SuiteReport("open-questions", 0)
    rng = random.Random(cfg.seed)
    for index, model in enumerate(_models(cfg, rng)):
        ev = Evaluator(cap=cfg.enumeration_cap)
        group = _gen_group(rng, model.agents)
        phi = _gen(rng, Stratum.PAL, 2, model.atoms, model.agents)
        others = frozenset(model.agents) - group
        targets = [
            ("OQ-coal-idem", CoalDual(group, CoalDual(group, phi)), CoalDual(group, phi)),
            (
                "OQ-prop3-converse",
                RelGroupDual(group, TOP, RelGroup(others, TOP, phi)),
                CoalDual(group, phi),
            ),
        ]
        for claim, antecedent, consequent in targets:
            report.cases += 1
            try:
                bad = ev.truth_set(model, antecedent) & ~ev.truth_set(model, consequent)
            except EnumerationCapExceeded as exc:
                report.skipped.append(f"{claim} (model {index}): {exc}")
                continue
            if bad & model.full:
                state = model.states_in(bad & model.full)[0]
                report.notes.append(
                    f"{claim}: countermodel at state {state} with "
                    f"{render_formula(phi)}; document: {json.dumps(render_model(model))}"
                )
    return report


SUITES: dict[str, Callable[[SuiteConfig], SuiteReport]] = {
    "axioms": run_axiom_suite,
    "rules": run_rule_suite,
    "quantifier-rules": run_quantifier_rule_suite,
    "theorems": run_theorem_suite,
    "repro": lambda cfg: run_counterexample_repro(),
    "translation-measures": run_translation_and_measure_suite,
    "open-questions": run_open_question_search,
}


# ---------------------------------------------------------------------------
# independent oracles


def evaluate_coalition_alt(
    model: EpistemicModel, state: str, f: Formula, cap: int = DEFAULT_ENUMERATION_CAP
) -> bool:
    """Coalition operators through their group-announcement reformulation.

    Each of the coalition's options on the contracted model is announced
    as the disjunctions of the characteristic formulas of its members'
    unions and handed to the relativised group operator of the remaining
    agents; an independent route that must agree with evaluate().
    """
    if not isinstance(f, (Coal, CoalDual)):
        raise NotQuantified("the outermost operator is not a coalition announcement")
    check_symbols(model, f)
    quotient, mapping = contract(model)
    model.state_index(state)  # rejects an unknown state
    v = mapping[state]
    chars = characteristic_formulas(quotient)
    options = choice_sets(quotient, f.group, cap=cap)
    ev = Evaluator(cap=cap)

    def announced(c: ChoiceSet) -> Formula:
        return GroupKnowledgeFormula(
            tuple(
                (a, reduce(Or, [chars[s] for s in quotient.states_in(mask)]))
                for a, mask in c.per_agent_union
            )
        ).denotation()

    verdicts = (ev.holds(quotient, v, reduction(f, announced(c), quotient.agents)) for c in options)
    return all(verdicts) if isinstance(f, Coal) else any(verdicts)


def el_definable_know_sets(model: EpistemicModel, agent: str) -> set[StateSet]:
    """Truth sets of "agent knows phi" over all epistemic phi, by semantic
    enumeration with truth-set dedup, one modal-depth level at a time
    until no new truth set appears (each new level adds a cell, so at most
    one level per state).

    Independent of the partition-subset enumeration it is checked against.
    """

    def know(a: str, s: StateSet) -> StateSet:
        mask = 0
        for block in model.blocks(a):
            if block & ~s == 0:
                mask |= block
        return mask

    level = _boolean_closure(
        {model.valuation_mask(p) for p in model.atoms} | {model.full}, model.full
    )
    for _ in range(model.n):
        grown = set(level)
        for a in model.agents:
            grown.update(know(a, s) for s in level)
        grown = _boolean_closure(grown, model.full)
        if grown == level:
            break
        level = grown
    return {know(agent, s) for s in level}


def _boolean_closure(seeds: set[StateSet], full: StateSet) -> set[StateSet]:
    """The closure of seeds and full under complement and intersection:
    every union of the cells the seeds cut full into."""
    cells = [full]
    for s in seeds:
        cells = [part for c in cells for part in (c & s, c & ~s) if part]
    unions = [0]
    for c in cells:
        unions += [u | c for u in unions]
    return set(unions)


def _all_set_partitions(items: list[str]) -> list[list[list[str]]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out: list[list[list[str]]] = []
    for part in _all_set_partitions(rest):
        for i in range(len(part)):
            out.append(part[:i] + [[first] + part[i]] + part[i + 1:])
        out.append([[first]] + part)
    return out


def enumerate_small_models(
    max_states: int, n_agents: int, n_atoms: int
) -> Iterator[EpistemicModel]:
    """Every model up to the given state count, fixed agent and atom sets."""
    agents = [f"a{i}" for i in range(n_agents)]
    atoms = [f"p{i}" for i in range(n_atoms)]
    for n in range(1, max_states + 1):
        states = [f"s{i}" for i in range(n)]
        partition_options = _all_set_partitions(states)
        for combo in product(partition_options, repeat=n_agents):
            partitions = dict(zip(agents, combo))
            for val_bits in product(range(1 << n), repeat=n_atoms):
                valuation = {
                    atom: [states[i] for i in range(n) if bits >> i & 1]
                    for atom, bits in zip(atoms, val_bits)
                }
                yield EpistemicModel(states, agents, atoms, partitions, valuation)
