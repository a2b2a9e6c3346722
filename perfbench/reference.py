"""Plain-semantics reference evaluator, independent of the corgal package.

It reads formulas as text and models as JSON documents, and evaluates by
the definitions alone: an announcement restricts the model to its truth
set, and the group operators quantify over the truth sets of group
knowledge, recomputed from scratch on every restricted model.  There is
no contraction and nothing is cached between evaluations.

Truth sets are bitmasks over the states of the document (bit i = state
i); a restricted model is the document's model cut down to a domain mask.
The formulas "agent a knows phi", with phi purely epistemic, have as truth
sets exactly K_a(T) for T a union of bisimulation classes (on a finite
model every such union is definable), and K_a(T) is fixed by the union of
a's blocks it contains, so the sets are enumerated per subset of a's
blocks.
"""

from __future__ import annotations

import re
from itertools import combinations

_TOKEN = re.compile(r"\s+|<->|->|[\[\]<>{}(),~&|!]|K(?![a-z0-9_])|[a-z][a-z0-9_]*")
_EPISTEMIC = {"atom", "top", "bot", "not", "and", "or", "imp", "iff", "know"}


class BudgetExceeded(Exception):
    """The evaluation needed more restricted models than its budget."""


# ---------------------------------------------------------------------------
# formula text -> tuples


def tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    for m in _TOKEN.finditer(text):
        if m.start() != pos:
            break
        pos = m.end()
        if not m.group().isspace():
            tokens.append(m.group())
    if pos != len(text):
        raise ValueError(f"cannot tokenize formula at offset {pos}")
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.i = 0

    def peek(self, k: int = 0) -> str | None:
        j = self.i + k
        return self.toks[j] if j < len(self.toks) else None

    def take(self, expected: str | None = None) -> str:
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r} at token {self.i}, found {tok!r}")
        self.i += 1
        return tok

    def formula(self):
        f = self.imp()
        while self.peek() == "<->":
            self.take()
            f = ("iff", f, self.imp())
        return f

    def imp(self):
        f = self.disj()
        if self.peek() == "->":
            self.take()
            return ("imp", f, self.imp())
        return f

    def disj(self):
        f = self.conj()
        while self.peek() == "|":
            self.take()
            f = ("or", f, self.conj())
        return f

    def conj(self):
        f = self.unary()
        while self.peek() == "&":
            self.take()
            f = ("and", f, self.unary())
        return f

    def group(self) -> frozenset[str]:
        self.take("{")
        names = []
        while self.peek() != "}":
            if names:
                self.take(",")
            names.append(self.take())
        self.take("}")
        return frozenset(names)

    def unary(self):
        tok = self.take()
        if tok == "~":
            return ("not", self.unary())
        if tok == "K":
            return ("know", self.take(), self.unary())
        if tok == "(":
            f = self.formula()
            self.take(")")
            return f
        if tok in ("[", "<"):
            close = "]" if tok == "[" else ">"
            nxt = self.peek()
            if nxt == "!":
                self.take()
                ann = self.formula()
                self.take(close)
                return ("ann" if tok == "[" else "anndual", ann, self.unary())
            if nxt == "{":
                g = self.group()
                cond = ("top",)
                if self.peek() == ",":
                    self.take()
                    cond = self.formula()
                self.take(close)
                return ("group" if tok == "[" else "groupdual", g, cond, self.unary())
            inner, inner_close = ("<", ">") if tok == "[" else ("[", "]")
            self.take(inner)
            g = self.group()
            self.take(inner_close)
            self.take(close)
            return ("coal" if tok == "[" else "coaldual", g, self.unary())
        if tok == "top":
            return ("top",)
        if tok == "bot":
            return ("bot",)
        if re.fullmatch(r"[a-z][a-z0-9_]*", tok):
            return ("atom", tok)
        raise ValueError(f"unexpected token {tok!r}")


def parse(text: str):
    p = _Parser(text)
    f = p.formula()
    if p.peek() is not None:
        raise ValueError(f"trailing token {p.peek()!r}")
    return f


def is_epistemic(f) -> bool:
    stack = [f]
    while stack:
        g = stack.pop()
        if g[0] not in _EPISTEMIC:
            return False
        stack.extend(x for x in g[1:] if isinstance(x, tuple))
    return True


def conjuncts(f) -> list:
    """Top-level conjuncts, left to right."""
    out, stack = [], [f]
    while stack:
        g = stack.pop()
        if g[0] == "and":
            stack.extend((g[2], g[1]))
        else:
            out.append(g)
    return out


# ---------------------------------------------------------------------------
# models


class Model:
    """A model document as bitmasks over its states."""

    def __init__(self, doc: dict):
        self.states = list(doc["states"])
        self.agents = list(doc["agents"])
        index = {s: i for i, s in enumerate(self.states)}
        self.full = (1 << len(self.states)) - 1
        self.blocks = {
            a: [sum(1 << index[s] for s in block) for block in doc["partitions"][a]]
            for a in self.agents
        }
        self.val = {
            p: sum(1 << index[s] for s in self.states if p in doc["valuation"][s])
            for p in doc["atoms"]
        }
        self.index = index


def bits(mask: int):
    i = 0
    while mask:
        if mask & 1:
            yield i
        mask >>= 1
        i += 1


def refine(model: Model, domain: int) -> tuple[list[int], int]:
    """Bisimulation classes of the model restricted to `domain`, and the
    number of refinement steps that split a class."""
    states = list(bits(domain))
    label = {i: tuple((model.val[p] >> i) & 1 for p in sorted(model.val)) for i in states}
    label = _renumber(label)
    rounds = 0
    while True:
        sig = {}
        for i in states:
            parts = [label[i]]
            for a in model.agents:
                block = next(b for b in model.blocks[a] if b >> i & 1) & domain
                parts.append(frozenset(label[j] for j in bits(block)))
            sig[i] = tuple(parts)
        new = _renumber(sig)
        if len(set(new.values())) == len(set(label.values())):
            break
        label = new
        rounds += 1
    classes: dict[int, int] = {}
    for i in states:
        classes[label[i]] = classes.get(label[i], 0) | 1 << i
    return list(classes.values()), rounds


def _renumber(sig: dict) -> dict:
    ids: dict = {}
    return {i: ids.setdefault(s, len(ids)) for i, s in sig.items()}


# ---------------------------------------------------------------------------
# evaluation


class Reference:
    """Evaluator over one model; `budget` bounds the number of restricted
    models whose group-knowledge sets are computed."""

    def __init__(self, model: Model, budget: int | None = None):
        self.model = model
        self.budget = budget
        self.work = 0

    def holds(self, state: str, f) -> bool:
        return bool(self.truth(self.model.full, f) >> self.model.index[state] & 1)

    def know_sets(self, domain: int, agent: str, classes: list[int]) -> set[int]:
        """Truth sets in model|domain of "agent knows phi", phi epistemic."""
        blocks = [b & domain for b in self.model.blocks[agent] if b & domain]
        out = set()
        for k in range(len(blocks) + 1):
            for chosen in combinations(blocks, k):
                union = 0
                for b in chosen:
                    union |= b
                saturated = 0
                for c in classes:
                    if c & union:
                        saturated |= c
                out.add(_know(blocks, saturated))
        return out

    def group_sets(self, domain: int, group) -> set[int]:
        """Distinct truth sets of joint group knowledge in model|domain."""
        self.work += 1
        if self.budget is not None and self.work > self.budget:
            raise BudgetExceeded(self.budget)
        classes, _ = refine(self.model, domain)
        result = {domain}
        for agent in sorted(group):
            sets = self.know_sets(domain, agent, classes)
            result = {x & y for x in result for y in sets}
        return result

    def truth(self, domain: int, f) -> int:
        op = f[0]
        if op == "atom":
            return self.model.val[f[1]] & domain
        if op == "top":
            return domain
        if op == "bot":
            return 0
        if op == "not":
            return domain & ~self.truth(domain, f[1])
        if op == "and":
            return self.truth(domain, f[1]) & self.truth(domain, f[2])
        if op == "or":
            return self.truth(domain, f[1]) | self.truth(domain, f[2])
        if op == "imp":
            return domain & (~self.truth(domain, f[1]) | self.truth(domain, f[2]))
        if op == "iff":
            return domain & ~(self.truth(domain, f[1]) ^ self.truth(domain, f[2]))
        if op == "know":
            t = self.truth(domain, f[2])
            blocks = [b & domain for b in self.model.blocks[f[1]] if b & domain]
            return _know(blocks, t)
        if op in ("ann", "anndual"):
            s = self.truth(domain, f[1])
            after = self.truth(s, f[2]) if s else 0
            return (domain & ~s) | after if op == "ann" else after
        if op in ("group", "groupdual"):
            chi = self.truth(domain, f[2])
            if op == "group":
                res = chi
                for x in self.group_sets(domain, f[1]):
                    y = x & chi
                    if y:
                        res &= ~y | self.truth(y, f[3])
                return res
            some = 0
            for x in self.group_sets(domain, f[1]):
                y = x & chi
                if y:
                    some |= self.truth(y, f[3])
            return (domain & ~chi) | some
        if op in ("coal", "coaldual"):
            rest = frozenset(self.model.agents) - f[1]
            answers = self.group_sets(domain, rest)
            if op == "coal":
                res = domain
                for x in self.group_sets(domain, f[1]):
                    good = 0
                    for y in answers:
                        if x & y:
                            good |= self.truth(x & y, f[2])
                    res &= ~x | good
                return res
            res = 0
            for x in self.group_sets(domain, f[1]):
                acc = x
                for y in answers:
                    if x & y:
                        acc &= ~y | self.truth(x & y, f[2])
                res |= acc
            return res
        raise ValueError(f"unknown operator {op!r}")


def _know(blocks: list[int], t: int) -> int:
    mask = 0
    for b in blocks:
        if b & ~t == 0:
            mask |= b
    return mask


def dual(f):
    """The dual operator applied to the negated body: holds exactly where
    f fails."""
    op = f[0]
    flip = {"group": "groupdual", "groupdual": "group", "coal": "coaldual", "coaldual": "coal"}
    if op in ("group", "groupdual"):
        return (flip[op], f[1], f[2], ("not", f[3]))
    return (flip[op], f[1], ("not", f[2]))


def render(f) -> str:
    """Text of a tuple formula in the concrete syntax (fully bracketed)."""
    op = f[0]
    if op == "atom":
        return f[1]
    if op in ("top", "bot"):
        return op
    if op == "not":
        return "~" + render(f[1])
    if op in ("and", "or", "imp", "iff"):
        sym = {"and": "&", "or": "|", "imp": "->", "iff": "<->"}[op]
        return f"({render(f[1])} {sym} {render(f[2])})"
    if op == "know":
        return f"K {f[1]} {render(f[2])}"
    group = lambda g: "{" + ",".join(sorted(g)) + "}"  # noqa: E731
    if op == "ann":
        return f"[! {render(f[1])}] {render(f[2])}"
    if op == "anndual":
        return f"<! {render(f[1])}> {render(f[2])}"
    if op == "group":
        return f"[{group(f[1])}, {render(f[2])}] {render(f[3])}"
    if op == "groupdual":
        return f"<{group(f[1])}, {render(f[2])}> {render(f[3])}"
    if op == "coal":
        return f"[<{group(f[1])}>] {render(f[2])}"
    return f"<[{group(f[1])}]> {render(f[2])}"
