"""Command line front end.

Exit codes: 0 success or true verdict, 1 false verdict, 2 input error,
3 enumeration cap exceeded, 4 suite failure, 5 internal error (a bug:
an unexpected exception, or a witness that failed its self-check).
Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from functools import cache

from .checker import (
    NotQuantified,
    UndeclaredSymbol,
    WitnessCheckFailed,
    evaluate,
    evaluate_trace,
    evaluate_witness,
)
from .formula import _QUANTIFIED
from .model import DEFAULT_ENUMERATION_CAP, EnumerationCapExceeded, contract
from .parser import (
    MAX_NESTING,
    TOO_DEEP,
    ModelError,
    ParseError,
    parse_formula,
    parse_model_document,
    render_formula,
    render_model,
)
from .translate import StratumError, pal_to_el, translation_size
from .validity import SUITES, SuiteConfig

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_INPUT_ERROR = 2
EXIT_CAP_EXCEEDED = 3
EXIT_SUITE_FAILURE = 4
EXIT_INTERNAL_ERROR = 5

_CAP_HELP = (
    "most distinct group extensions one quantifier may enumerate; asked at "
    f"one state, it enumerates only those containing it (default {DEFAULT_ENUMERATION_CAP})"
)


@cache  # built on the first call, not at import; parsing leaves it unchanged
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corgal",
        description="model checking for group and coalition announcement logic",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the options of a query, which check and witness share
    query = argparse.ArgumentParser(add_help=False)
    query.add_argument("--model", required=True, help="path to a model document")
    query.add_argument("--state", help="evaluation state (default: the designated state)")
    query.add_argument("--formula", help="formula text (default: read from stdin)")
    query.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP, help=_CAP_HELP)

    check = sub.add_parser("check", parents=[query], help="evaluate a formula at a state")
    check.add_argument("--trace", action="store_true", help="print the quantifier trace")
    sub.add_parser(
        "witness", parents=[query], help="evaluate a quantified formula and print the witness"
    )

    contract_cmd = sub.add_parser("contract", help="write the bisimulation contraction")
    contract_cmd.add_argument("--model", required=True)
    contract_cmd.add_argument("--out", help="output path for the quotient document")

    translate_cmd = sub.add_parser("translate", help="rewrite announcements away")
    translate_cmd.add_argument("--formula")

    suite = sub.add_parser("suite", help="run a verification suite")
    suite.add_argument("name", choices=sorted(SUITES))
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--count", type=int, help="number of sampled models")
    suite.add_argument("--max-states", type=int, dest="max_states")
    suite.add_argument("--cap", type=int, help=_CAP_HELP)
    return parser


def _formula_text(args: argparse.Namespace) -> str:
    if args.formula is not None:
        return args.formula
    return sys.stdin.read()


def _load_model(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return parse_model_document(handle.read())


def _query(args: argparse.Namespace):
    """The model, state and formula that check and witness evaluate."""
    if args.cap < 1:
        raise ValueError(f"--cap must be at least 1, got {args.cap}")
    document = _load_model(args.model)
    state = args.state if args.state is not None else document.designated
    if state is None:
        raise ModelError("no state given and the document has no designated state")
    if state not in document.model.states:
        raise ModelError(f"unknown state {state!r}")
    return document.model, state, parse_formula(_formula_text(args))


def _cmd_check(args: argparse.Namespace) -> int:
    model, state, formula = _query(args)
    if args.trace and isinstance(formula, _QUANTIFIED):
        verdict, lines = evaluate_trace(model, state, formula, cap=args.cap)
    else:
        if args.trace:
            print("no quantified operator at the top level", file=sys.stderr)
        verdict, lines = evaluate(model, state, formula, cap=args.cap), []
    print("true" if verdict else "false")
    for line in lines:
        print(line)
    return EXIT_TRUE if verdict else EXIT_FALSE


def _cmd_witness(args: argparse.Namespace) -> int:
    model, state, formula = _query(args)
    report = evaluate_witness(model, state, formula, cap=args.cap)
    print("true" if report.verdict else "false")
    if report.witness is not None:
        print(f"witness: {render_formula(report.witness.denotation())}")
    else:
        print("witness: none")
    return EXIT_TRUE if report.verdict else EXIT_FALSE


def _cmd_contract(args: argparse.Namespace) -> int:
    document = _load_model(args.model)
    model = document.model
    quotient, mapping = contract(model)
    designated = mapping.get(document.designated) if document.designated else None
    text = render_model(quotient, designated=designated)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
        for old in model.states:
            print(f"{old} -> {mapping[old]}")
    else:
        sys.stdout.write(text)
        for old in model.states:
            print(f"{old} -> {mapping[old]}", file=sys.stderr)
    return EXIT_TRUE


def _cmd_translate(args: argparse.Namespace) -> int:
    formula = parse_formula(_formula_text(args))
    levels, nodes = translation_size(formula)
    # print only what check can parse back, and build nothing over the cap
    if levels > MAX_NESTING:
        raise ValueError(TOO_DEEP)
    if nodes > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapExceeded(nodes, DEFAULT_ENUMERATION_CAP, "translation nodes")
    print(render_formula(pal_to_el(formula)))
    return EXIT_TRUE


def _cmd_suite(args: argparse.Namespace) -> int:
    overrides = {}
    if args.count is not None:
        overrides["model_count"] = args.count
    if args.max_states is not None:
        overrides["max_states"] = args.max_states
    if args.cap is not None:
        overrides["enumeration_cap"] = args.cap
    cfg = SuiteConfig(seed=args.seed, **overrides)
    report = SUITES[args.name](cfg)
    print(report.summary())
    for failure in report.failures[:10]:
        print(f"failure [{failure.claim}] at {failure.state}: {failure.formula}")
    print(report.to_json())
    return EXIT_TRUE if report.passed else EXIT_SUITE_FAILURE


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = {
        "check": _cmd_check,
        "witness": _cmd_witness,
        "contract": _cmd_contract,
        "translate": _cmd_translate,
        "suite": _cmd_suite,
    }[args.command]
    try:
        return handler(args)
    except (
        ParseError, ModelError, UndeclaredSymbol, NotQuantified, StratumError, OSError, ValueError
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP_EXCEEDED
    except WitnessCheckFailed as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except Exception:  # a bug must not exit 1, which means "false"
        traceback.print_exc()
        print("internal error: unexpected exception (see the traceback above)", file=sys.stderr)
        return EXIT_INTERNAL_ERROR


if __name__ == "__main__":
    sys.exit(main())
