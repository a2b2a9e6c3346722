"""Concrete syntax: formula text and the JSON model document format.

The four bracketed operators are told apart by the token after the
opening bracket: `[!` announcement, `[{` group, `[<` coalition box, and
dually `<!`, `<{`, `<[`.  Rendering is canonical (binary connectives are
parenthesised except at the root) so that parse(render(f)) == f.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

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
    KnowDual,
    Not,
    Or,
    RelGroup,
    RelGroupDual,
    Top,
    TOP,
)
from .model import EpistemicModel

NAME_RE = re.compile(r"[a-z][a-z0-9_]*")
RESERVED = frozenset({"top", "bot"})

# Operators and parentheses may nest this deep.  The parser and the
# evaluator recurse once or a few times per level, and this bound keeps
# them well inside Python's default recursion limit.
MAX_NESTING = 100

_SYMBOLS = ("<->", "->", "[", "]", "<", ">", "{", "}", "(", ")", ",", "~", "&", "|", "!")


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
    is_name: bool = False


def _lex(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = NAME_RE.match(text, i)
        if m:
            tokens.append(_Token(m.group(), line, col, is_name=True))
            col += len(m.group())
            i = m.end()
            continue
        if ch == "K":
            tokens.append(_Token("K", line, col))
            col += 1
            i += 1
            continue
        for sym in _SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token(sym, line, col))
                col += len(sym)
                i += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        self.nesting = 0

    def _peek(self, ahead: int = 0) -> _Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else None

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

    def _at(self, text: str, ahead: int = 0) -> bool:
        tok = self._peek(ahead)
        return tok is not None and tok.text == text

    def parse(self) -> Formula:
        f = self._iff()
        tok = self._peek()
        if tok is not None:
            raise ParseError(
                f"trailing input {tok.text!r}", tok.line, tok.column,
                expected=("end of input",),
            )
        return f

    def _iff(self) -> Formula:
        f = self._imp()
        while self._at("<->"):
            self._advance()
            f = Iff(f, self._imp())
        return f

    def _imp(self) -> Formula:
        operands = [self._or()]
        while self._at("->"):
            self._advance()
            operands.append(self._or())
        f = operands.pop()
        while operands:
            f = Imp(operands.pop(), f)
        return f

    def _or(self) -> Formula:
        f = self._and()
        while self._at("|"):
            self._advance()
            f = Or(f, self._and())
        return f

    def _and(self) -> Formula:
        f = self._unary()
        while self._at("&"):
            self._advance()
            f = And(f, self._unary())
        return f

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
            raise ParseError(
                f"formula nests deeper than {MAX_NESTING} levels", tok.line, tok.column
            )
        f = self._operator(tok)
        self.nesting -= 1
        return f

    def _operator(self, tok: _Token) -> Formula:
        if tok.text == "~":
            self._advance()
            return Not(self._unary())
        if tok.text == "K":
            self._advance()
            agent = self._agent()
            return Know(agent, self._unary())
        if tok.text == "[":
            return self._bracket_box()
        if tok.text == "<":
            return self._bracket_diamond()
        if tok.text == "(":
            self._advance()
            f = self._iff()
            self._expect(")")
            return f
        raise ParseError(
            f"found {tok.text!r}", tok.line, tok.column,
            expected=("'~'", "'K'", "'['", "'<'", "'('", "an atom"),
        )

    def _bracket_box(self) -> Formula:
        open_tok = self._expect("[")
        nxt = self._peek()
        if nxt is not None and nxt.text == "!":
            self._advance()
            ann = self._iff()
            self._expect("]")
            return Ann(ann, self._unary())
        if nxt is not None and nxt.text == "{":
            group = self._group()
            cond: Formula = TOP
            if self._at(","):
                self._advance()
                cond = self._iff()
            self._expect("]")
            return RelGroup(group, cond, self._unary())
        if nxt is not None and nxt.text == "<":
            self._advance()
            group = self._group()
            self._expect(">")
            self._expect("]")
            return Coal(group, self._unary())
        line, col = (nxt.line, nxt.column) if nxt is not None else self._here()
        raise ParseError(
            "unknown operator after '['", line, col,
            expected=("'!'", "'{'", "'<'"),
        )

    def _bracket_diamond(self) -> Formula:
        self._expect("<")
        nxt = self._peek()
        if nxt is not None and nxt.text == "!":
            self._advance()
            ann = self._iff()
            self._expect(">")
            return AnnDual(ann, self._unary())
        if nxt is not None and nxt.text == "{":
            group = self._group()
            cond: Formula = TOP
            if self._at(","):
                self._advance()
                cond = self._iff()
            self._expect(">")
            return RelGroupDual(group, cond, self._unary())
        if nxt is not None and nxt.text == "[":
            self._advance()
            group = self._group()
            self._expect("]")
            self._expect(">")
            return CoalDual(group, self._unary())
        line, col = (nxt.line, nxt.column) if nxt is not None else self._here()
        raise ParseError(
            "unknown operator after '<'", line, col,
            expected=("'!'", "'{'", "'['"),
        )

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
    if isinstance(f, Atom):
        return f.name
    if isinstance(f, Top):
        return "top"
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Not):
        return "~" + _render(f.sub)
    if isinstance(f, And):
        body = f"{_render(f.left)} & {_render(f.right)}"
        return body if root else f"({body})"
    if isinstance(f, Or):
        body = f"{_render(f.left)} | {_render(f.right)}"
        return body if root else f"({body})"
    if isinstance(f, Imp):
        body = f"{_render(f.left)} -> {_render(f.right)}"
        return body if root else f"({body})"
    if isinstance(f, Iff):
        body = f"{_render(f.left)} <-> {_render(f.right)}"
        return body if root else f"({body})"
    if isinstance(f, Know):
        return f"K {f.agent} {_render(f.sub)}"
    if isinstance(f, KnowDual):
        # no concrete syntax of its own; print the defining expansion
        return _render(Not(Know(f.agent, Not(f.sub))), root=root)
    if isinstance(f, Ann):
        return f"[! {_render(f.ann)}] {_render(f.sub)}"
    if isinstance(f, AnnDual):
        return f"<! {_render(f.ann)}> {_render(f.sub)}"
    if isinstance(f, RelGroup):
        return f"[{_render_group(f.group)}, {_render(f.cond)}] {_render(f.sub)}"
    if isinstance(f, RelGroupDual):
        return f"<{_render_group(f.group)}, {_render(f.cond)}> {_render(f.sub)}"
    if isinstance(f, Coal):
        return f"[<{_render_group(f.group)}>] {_render(f.sub)}"
    if isinstance(f, CoalDual):
        return f"<[{_render_group(f.group)}]> {_render(f.sub)}"
    raise TypeError(f"not a formula: {f!r}")


def _render_group(group: frozenset[str]) -> str:
    return "{" + ",".join(sorted(group)) + "}"


class ModelError(Exception):
    """A model document violates one of its invariants."""


@dataclass
class ModelDocument:
    """Validated shape of a model file, designated state included."""

    agents: list[str]
    atoms: list[str]
    states: list[str]
    valuation: dict[str, list[str]]
    partitions: dict[str, list[list[str]]]
    designated: str | None = None

    def validate(self) -> None:
        for kind, names in (("agent", self.agents), ("atom", self.atoms), ("state", self.states)):
            seen: set[str] = set()
            for name in names:
                if not isinstance(name, str) or not NAME_RE.fullmatch(name):
                    raise ModelError(f"bad {kind} name {name!r}")
                if kind in ("agent", "atom") and name in RESERVED:
                    raise ModelError(f"reserved word used as {kind} name: {name!r}")
                if name in seen:
                    raise ModelError(f"duplicate {kind} {name!r}")
                seen.add(name)
        if not self.states:
            raise ModelError("model has no states")
        states = set(self.states)
        for state in self.states:
            if state not in self.valuation:
                raise ModelError(f"valuation missing for state {state!r}")
        for state, atoms in self.valuation.items():
            if state not in states:
                raise ModelError(f"valuation for unknown state {state!r}")
            for atom in atoms:
                if atom not in self.atoms:
                    raise ModelError(f"undeclared atom {atom!r} in valuation of {state!r}")
        if set(self.partitions) != set(self.agents):
            missing = set(self.agents) - set(self.partitions)
            extra = set(self.partitions) - set(self.agents)
            if missing:
                raise ModelError(f"partition missing for agent {sorted(missing)[0]!r}")
            raise ModelError(f"partition for undeclared agent {sorted(extra)[0]!r}")
        for agent in self.agents:
            covered: set[str] = set()
            for block in self.partitions[agent]:
                if not block:
                    raise ModelError(f"agent {agent!r}: empty partition block")
                for state in block:
                    if state not in states:
                        raise ModelError(f"agent {agent!r}: unknown state {state!r} in partition")
                    if state in covered:
                        raise ModelError(f"agent {agent!r}: partition blocks overlap at {state!r}")
                    covered.add(state)
            if covered != states:
                missing_state = sorted(states - covered)[0]
                raise ModelError(
                    f"agent {agent!r}: partition does not cover state {missing_state!r}"
                )
        if self.designated is not None and self.designated not in states:
            raise ModelError(f"designated state {self.designated!r} is not declared")

    def to_model(self) -> EpistemicModel:
        return EpistemicModel(
            states=self.states,
            agents=self.agents,
            atoms=self.atoms,
            partitions=self.partitions,
            valuation={atom: [s for s in self.states if atom in self.valuation[s]] for atom in self.atoms},
        )


def parse_model_document(text: str) -> ModelDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ModelError(f"line {exc.lineno}, column {exc.colno}: not valid JSON: {exc.msg}") from exc
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
    if not isinstance(raw["valuation"], dict) or not all(
        isinstance(v, list) for v in raw["valuation"].values()
    ):
        raise ModelError("field 'valuation' must map states to lists of atoms")
    if not isinstance(raw["partitions"], dict) or not all(
        isinstance(blocks, list) and all(isinstance(b, list) for b in blocks)
        for blocks in raw["partitions"].values()
    ):
        raise ModelError("field 'partitions' must map agents to lists of blocks")
    doc = ModelDocument(
        agents=list(raw["agents"]),
        atoms=list(raw["atoms"]),
        states=list(raw["states"]),
        valuation={k: list(v) for k, v in raw["valuation"].items()},
        partitions={k: [list(b) for b in blocks] for k, blocks in raw["partitions"].items()},
        designated=raw.get("designated"),
    )
    doc.validate()
    return doc


def parse_model(text: str) -> EpistemicModel:
    return parse_model_document(text).to_model()


def document_from_model(model: EpistemicModel, designated: str | None = None) -> ModelDocument:
    doc = ModelDocument(
        agents=list(model.agents),
        atoms=list(model.atoms),
        states=list(model.states),
        valuation={
            s: [p for p in model.atoms if model.valuation_mask(p) >> model.state_index(s) & 1]
            for s in model.states
        },
        partitions={
            a: [list(model.states_in(b)) for b in model.blocks(a)] for a in model.agents
        },
        designated=designated,
    )
    doc.validate()
    return doc


def render_model(model: EpistemicModel, designated: str | None = None) -> str:
    doc = document_from_model(model, designated)
    payload: dict = {
        "agents": doc.agents,
        "atoms": doc.atoms,
        "states": doc.states,
        "valuation": doc.valuation,
        "partitions": doc.partitions,
    }
    if doc.designated is not None:
        payload["designated"] = doc.designated
    return json.dumps(payload, indent=2) + "\n"
