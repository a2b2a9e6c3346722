"""Concrete syntax: formula text and the JSON model document format.

Formula text is cut into tokens by one pattern, _TOKEN_RE: at each
position it matches a name, a symbol (the longer of `<->` and `->`
first), a newline, or any other white space, and any other character is
an error.  Only a newline starts a line; every other character is one
column wide.  The binary connectives bind & tighter than |, | tighter
than ->, and -> tighter than <->; -> associates to the right, the others
to the left, each through one loop, _Parser._chain.

The six bracketed operators are told apart by the token after the
opening bracket: `[!` announcement, `[{` group, `[<` coalition box, and
dually `<!`, `<{`, `<[`.  One table, _BRACKETS, maps each pair to its
operator; the parser and the renderer both read it.  Rendering is
canonical (binary connectives are parenthesised except at the root) so
that parse(render(f)) == f.

A model document is checked here only for what a model cannot check
itself: its JSON shape, name syntax and reserved words, the valuation's
states and atoms, and the designated state.  EpistemicModel checks the
structure (duplicate names, states, partitions) and is built once.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Callable

from .formula import (
    Ann,
    AnnDual,
    Atom,
    BOT,
    Bot,
    Coal,
    CoalDual,
    Formula,
    Iff,
    Imp,
    And,
    Know,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Top,
    TOP,
    height,
)
from .model import EpistemicModel

NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
RESERVED = frozenset({"top", "bot"})

# Operators and parentheses may nest this deep, and the tree a formula
# parses to may be this high, a chain of n operands of a binary
# connective counting n - 1 levels.  The parser, the evaluator and the
# walks over formulas recurse once or a few times per level, and this
# bound keeps them well inside Python's default recursion limit.
MAX_NESTING = 100
TOO_DEEP = f"formula nests deeper than {MAX_NESTING} levels"

# groups: 1 a name, 2 a symbol, 3 a newline; other white space has none
_TOKEN_RE = re.compile(rf"({NAME_RE.pattern})|(<->|->|[][<>{{}}(),~&|!K])|(\n)|\s")
_NAME, _NEWLINE = 1, 3

_CLOSE = {"[": "]", "<": ">"}

# (opening bracket, next token) -> operator; the parser and the renderer
# both read this table
_BRACKETS = {
    ("[", "!"): Ann,
    ("[", "{"): RelGroup,
    ("[", "<"): Coal,
    ("<", "!"): AnnDual,
    ("<", "{"): RelGroupDual,
    ("<", "["): CoalDual,
}
_SYNTAX = {op: key for key, op in _BRACKETS.items()}
_BINARY = {And: "&", Or: "|", Imp: "->", Iff: "<->"}


class ParseError(Exception):
    """Syntax error with a 1-based (line, column) position."""

    def __init__(self, message: str, line: int, column: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.column = column
        self.expected = expected
        detail = f"line {line}, column {column}: {message}"
        if expected:
            detail += " (expected " + ", ".join(expected) + ")"
        super().__init__(detail)


@dataclass
class _Token:
    text: str
    line: int
    column: int
    is_name: bool


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        column = pos - line_start + 1
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, column)
        pos = m.end()
        if m.lastindex == _NEWLINE:
            line, line_start = line + 1, pos
        elif m.lastindex is not None:
            tokens.append(_Token(m.group(), line, column, m.lastindex == _NAME))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0
        self.nesting = 0

    def _peek(self) -> _Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _here(self) -> tuple[int, int]:
        tok = self._peek()
        if tok is not None:
            return tok.line, tok.column
        if self.tokens:
            last = self.tokens[-1]
            return last.line, last.column + len(last.text)
        return 1, 1

    def _advance(self) -> _Token:
        tok = self._peek()
        if tok is None:
            line, col = self._here()
            raise ParseError("unexpected end of input", line, col)
        self.pos += 1
        return tok

    def _expect(self, text: str) -> _Token:
        tok = self._peek()
        if tok is None or tok.text != text:
            line, col = self._here()
            found = "end of input" if tok is None else repr(tok.text)
            raise ParseError(f"found {found}", line, col, expected=(repr(text),))
        return self._advance()

    def _at(self, text: str) -> bool:
        tok = self._peek()
        return tok is not None and tok.text == text

    def _too_deep(self, tok: _Token) -> ParseError:
        return ParseError(TOO_DEEP, tok.line, tok.column)

    def _build(self, tok: _Token, op: type[Formula], *fields: object) -> Formula:
        """op(*fields), unless the tree would grow higher than MAX_NESTING."""
        f = op(*fields)
        if height(f) > MAX_NESTING:
            raise self._too_deep(tok)
        return f

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok is not None:
            raise ParseError(
                f"trailing input {tok.text!r}", tok.line, tok.column,
                expected=("end of input",),
            )
        return f

    def _chain(self, symbol: str, op: type[Formula], operand: Callable[[], Formula]) -> Formula:
        """A left-associative chain of operands joined by symbol."""
        f = operand()
        while self._at(symbol):
            f = self._build(self._advance(), op, f, operand())
        return f

    def _iff(self) -> Formula:
        return self._chain("<->", Iff, self._imp)

    def _imp(self) -> Formula:
        operands = [self._or()]
        arrows: list[_Token] = []
        while self._at("->"):
            arrows.append(self._advance())
            operands.append(self._or())
        f = operands.pop()
        while operands:
            f = self._build(arrows.pop(), Imp, operands.pop(), f)
        return f

    def _or(self) -> Formula:
        return self._chain("|", Or, self._and)

    def _and(self) -> Formula:
        return self._chain("&", And, self._unary)

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok is None:
            line, col = self._here()
            raise ParseError("unexpected end of input", line, col, expected=("a formula",))
        if tok.is_name:
            self._advance()
            if tok.text == "top":
                return TOP
            if tok.text == "bot":
                return BOT
            return Atom(tok.text)
        self.nesting += 1
        if self.nesting > MAX_NESTING:
            raise self._too_deep(tok)
        f = self._operator(tok)
        self.nesting -= 1
        return f

    def _operator(self, tok: _Token) -> Formula:
        if tok.text == "~":
            self._advance()
            return self._build(tok, Not, self._unary())
        if tok.text == "K":
            self._advance()
            agent = self._agent()
            return self._build(tok, Know, agent, self._unary())
        if tok.text in _CLOSE:
            return self._bracket()
        if tok.text == "(":
            self._advance()
            f = self._iff()
            self._expect(")")
            return f
        raise ParseError(
            f"found {tok.text!r}", tok.line, tok.column,
            expected=("'~'", "'K'", "'['", "'<'", "'('", "an atom"),
        )

    def _bracket(self) -> Formula:
        tok = self._advance()
        opening = tok.text
        close = _CLOSE[opening]
        nxt = self._peek()
        op = _BRACKETS.get((opening, nxt.text if nxt is not None else None))
        if op is None:
            line, col = (nxt.line, nxt.column) if nxt is not None else self._here()
            raise ParseError(
                f"unknown operator after {opening!r}", line, col,
                expected=tuple(repr(token) for o, token in _BRACKETS if o == opening),
            )
        if nxt.text == "!":
            self._advance()
            ann = self._iff()
            self._expect(close)
            return self._build(tok, op, ann, self._unary())
        if nxt.text == "{":
            group = self._group()
            cond: Formula = TOP
            if self._at(","):
                self._advance()
                cond = self._iff()
            self._expect(close)
            return self._build(tok, op, group, cond, self._unary())
        self._advance()
        group = self._group()
        self._expect(_CLOSE[nxt.text])
        self._expect(close)
        return self._build(tok, op, group, self._unary())

    def _group(self) -> frozenset[str]:
        self._expect("{")
        agents: list[str] = []
        if not self._at("}"):
            agents.append(self._agent())
            while self._at(","):
                self._advance()
                agents.append(self._agent())
        self._expect("}")
        return frozenset(agents)

    def _agent(self) -> str:
        tok = self._peek()
        if tok is None or not tok.is_name or tok.text in RESERVED:
            line, col = self._here()
            found = "end of input" if tok is None else repr(tok.text)
            raise ParseError(f"found {found}", line, col, expected=("an agent name",))
        self._advance()
        return tok.text


def parse_formula(text: str) -> Formula:
    return _Parser(text).parse()


def render_formula(f: Formula) -> str:
    return _render(f, root=True)


def _render(f: Formula, root: bool = False) -> str:
    t = type(f)
    if t is Atom:
        return f.name
    if t is Top:
        return "top"
    if t is Bot:
        return "bot"
    if t is Not:
        return "~" + _render(f.sub)
    op = _BINARY.get(t)
    if op is not None:
        body = f"{_render(f.left)} {op} {_render(f.right)}"
        return body if root else f"({body})"
    if t is Know:
        return f"K {f.agent} {_render(f.sub)}"
    if t not in _SYNTAX:
        raise TypeError(f"not a formula: {f!r}")
    opening, token = _SYNTAX[t]
    if token == "!":
        head = f"! {_render(f.ann)}"
    elif token == "{":
        head = f"{_render_group(f.group)}, {_render(f.cond)}"
    else:
        head = token + _render_group(f.group) + _CLOSE[token]
    return f"{opening}{head}{_CLOSE[opening]} {_render(f.sub)}"


def _render_group(group: frozenset[str]) -> str:
    return "{" + ",".join(sorted(group)) + "}"


class ModelError(Exception):
    """A model document violates one of its invariants."""


@dataclass
class ModelDocument:
    """A parsed model file: the model and its designated state, if any."""

    model: EpistemicModel
    designated: str | None = None


def _check_names(agents, atoms, states) -> None:
    """Name syntax and reserved words; a model checks its own structure."""
    for kind, names in (("agent", agents), ("atom", atoms), ("state", states)):
        for name in names:
            if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                raise ModelError(f"bad {kind} name {name!r}")
            if kind != "state" and name in RESERVED:
                raise ModelError(f"reserved word used as {kind} name: {name!r}")


def _check_designated(model: EpistemicModel, designated) -> None:
    if designated is not None and designated not in model.states:
        raise ModelError(f"designated state {designated!r} is not declared")


def parse_model_document(text: str) -> ModelDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"line {exc.lineno}, column {exc.colno}: not valid JSON: {exc.msg}") from exc
    except RecursionError as exc:
        raise ModelError("JSON nests too deeply to read") from exc
    if not isinstance(raw, dict):
        raise ModelError("model document must be a JSON object")
    required = ("agents", "atoms", "states", "valuation", "partitions")
    for key in required:
        if key not in raw:
            raise ModelError(f"missing field {key!r}")
    unknown = set(raw) - set(required) - {"designated"}
    if unknown:
        raise ModelError(f"unknown field {sorted(unknown)[0]!r}")
    for key in ("agents", "atoms", "states"):
        if not isinstance(raw[key], list):
            raise ModelError(f"field {key!r} must be a list of names")
    valuation = raw["valuation"]
    if not isinstance(valuation, dict) or not all(
        isinstance(v, list) for v in valuation.values()
    ):
        raise ModelError("field 'valuation' must map states to lists of atoms")
    if not isinstance(raw["partitions"], dict) or not all(
        isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)
        for blocks in raw["partitions"].values()
    ):
        raise ModelError("field 'partitions' must map agents to lists of blocks")
    agents, atoms, states = raw["agents"], raw["atoms"], raw["states"]
    _check_names(agents, atoms, states)
    try:
        model = EpistemicModel(
            states, agents, atoms, raw["partitions"],
            {atom: [s for s in states if atom in valuation.get(s, ())] for atom in atoms},
        )
    except ValueError as exc:
        raise ModelError(str(exc)) from exc
    for state in states:
        if state not in valuation:
            raise ModelError(f"valuation missing for state {state!r}")
    declared = set(states)
    for state, true_atoms in valuation.items():
        if state not in declared:
            raise ModelError(f"valuation for unknown state {state!r}")
        for atom in true_atoms:
            if atom not in model.atoms:
                raise ModelError(f"undeclared atom {atom!r} in valuation of {state!r}")
    designated = raw.get("designated")
    _check_designated(model, designated)
    return ModelDocument(model, designated)


def parse_model(text: str) -> EpistemicModel:
    return parse_model_document(text).model


def render_model(model: EpistemicModel, designated: str | None = None) -> str:
    _check_names(model.agents, model.atoms, model.states)
    _check_designated(model, designated)
    payload: dict = {
        "agents": list(model.agents),
        "atoms": list(model.atoms),
        "states": list(model.states),
        "valuation": {
            s: [p for p in model.atoms if model.valuation_mask(p) >> i & 1]
            for i, s in enumerate(model.states)
        },
        "partitions": {
            a: [list(model.states_in(b)) for b in model.blocks(a)] for a in model.agents
        },
    }
    if designated is not None:
        payload["designated"] = designated
    return json.dumps(payload, indent=2) + "\n"
