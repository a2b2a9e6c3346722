"""Explicit-state model checking for group and coalition announcement
logic over finite multi-agent S5 models."""

from .formula import (
    And,
    Ann,
    AnnDual,
    Atom,
    Bot,
    BOT,
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
    Top,
    TOP,
    depth_box,
    depth_coal,
    desugar,
    nf_instantiate,
    order_lt,
    positive,
    size,
    stratum,
)
from .model import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapExceeded,
    EpistemicModel,
    characteristic_formulas,
    contract,
    definable_formula,
    random_model,
    smallest_formulas,
)
from .parser import (
    ModelDocument,
    ModelError,
    ParseError,
    parse_formula,
    parse_model,
    parse_model_document,
    render_formula,
    render_model,
)
from .checker import (
    Evaluator,
    NotQuantified,
    UndeclaredSymbol,
    WitnessReport,
    evaluate,
    evaluate_trace,
    evaluate_witness,
    truth_set,
)
from .translate import StratumError, pal_to_el
from .builtin import (
    COUNTEREXAMPLE_DOCUMENT,
    TRAIN_DOCUMENT,
    counterexample_model,
    train_model,
)
from .validity import (
    AXIOM_IDS,
    DisjointnessViolation,
    Failure,
    MissingBinding,
    SUITES,
    SuiteConfig,
    SuiteReport,
    axiom_instance,
    el_definable_know_sets,
    enumerate_small_models,
    evaluate_coalition_alt,
    gen_formula,
    run_axiom_suite,
    run_counterexample_repro,
    run_open_question_search,
    run_quantifier_rule_suite,
    run_rule_suite,
    run_theorem_suite,
    run_translation_and_measure_suite,
)

__version__ = "0.1.0"
