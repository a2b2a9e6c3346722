"""In-memory tracing of the package's layers, for the traced run.

The tracer replaces public functions by wrappers wherever a corgal module
holds them as an attribute, so calls between modules go through the
wrapper too.  A recursive function is timed at its outermost call only;
the functions with a `.calls` metric have every call counted.  A target
missing from the package (renamed or removed by a later change) is
recorded as absent and its metrics read 0.

Spans (name, start, end, parent) of the first traced round are kept in
memory and written out when the run ends; every round is folded into
per-layer totals as it goes.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

# metric prefix -> (module, attribute path); several targets may share a
# prefix, and then only the outermost of them is timed.
TARGETS = (
    ("parser.parse_model", "parser", "parse_model_document"),
    ("parser.parse_model", "parser", "parse_model"),
    ("parser.parse_formula", "parser", "parse_formula"),
    ("parser.render_formula", "parser", "render_formula"),
    ("model.update", "model", "update"),
    ("model.contract", "model", "contract"),
    ("model.choice_sets", "model", "choice_sets"),
    ("model.characteristic_formulas", "model", "characteristic_formulas"),
    ("model.definable_formula", "model", "definable_formula"),
    ("formula.stratum", "formula", "stratum"),
    ("checker.truth_set", "checker", "Evaluator.truth_set"),
    ("checker.check_symbols", "checker", "check_symbols"),
    ("checker.evaluate", "checker", "evaluate"),
    ("checker.evaluate_witness", "checker", "evaluate_witness"),
    ("translate.pal_to_el", "translate", "pal_to_el"),
)

SUITE_METRICS = ("axioms", "rules", "theorems", "quantifier-rules", "translation-measures")

# (name, unit) of every per-layer metric, in report order
METRICS = (
    [("traced_wall_s", "s"), ("checker.self_s", "s")]
    + [(f"{p}.calls", "count") for p in ("model.update", "model.contract", "model.choice_sets",
                                          "checker.truth_set", "translate.pal_to_el")]
    + [(f"{p}.s", "s") for p in ("model.update", "model.contract", "model.choice_sets",
                                  "model.characteristic_formulas", "model.definable_formula",
                                  "formula.stratum", "checker.check_symbols",
                                  "parser.render_formula", "parser.parse_model",
                                  "parser.parse_formula", "checker.evaluate_witness",
                                  "checker.recheck", "translate.pal_to_el")]
    + [("model.choice_sets.decompositions", "count"),
       ("model.choice_sets.distinct_extensions", "count"),
       ("model.choice_sets.distinct_ratio", "ratio"),
       ("checker.truth_set.misses", "count"),
       ("checker.truth_set.hit_ratio", "ratio"),
       ("parser.render_formula.chars", "chars"),
       ("witness_chars", "chars")]
    + [(f"validity.{s}.s", "s") for s in SUITE_METRICS]
)

_OUTSIDE_CHECKER = ("model.", "parser.")
_COUNTED = ("model.update", "model.contract", "model.choice_sets", "translate.pal_to_el")


class Tracer:
    def __init__(self):
        self.absent: list[str] = []
        self.round_spans: list[tuple] = []
        self.kept_spans: list[tuple] | None = None
        self._stack: list[int] = []       # indices into round_spans
        self._active: dict[str, list[bool]] = {}
        self._outside_depth = 0
        self._seen: set = set()
        self.query: str = ""
        self.reset_round()

    def reset_round(self) -> None:
        self.counts: Counter = Counter()
        self.seconds: Counter = Counter()
        self.outside_s = 0.0
        self.truth_calls = 0
        self.round_spans = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap every target in the imported corgal modules."""
        modules = [m for name, m in sys.modules.items()
                   if (name == "corgal" or name.startswith("corgal.")) and m is not None]
        for prefix, module_name, path in TARGETS:
            owner = sys.modules.get(f"corgal.{module_name}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(prefix, original)
            if len(parts) > 1:
                setattr(owner, parts[-1], wrapper)
                continue
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, prefix: str, fn):
        if prefix == "checker.truth_set":
            return self._wrap_truth_set(fn)
        tracer = self
        active = self._active.setdefault(prefix, [False])
        calls = prefix + ".calls" if prefix in _COUNTED else None
        outside = prefix.startswith(_OUTSIDE_CHECKER)

        def wrapper(*args, **kwargs):
            if calls:
                tracer.counts[calls] += 1
            if active[0]:
                return fn(*args, **kwargs)
            active[0] = True
            if outside:
                tracer._outside_depth += 1
            spans = tracer.round_spans
            parent = tracer._stack[-1] if tracer._stack else -1
            index = len(spans)
            spans.append(None)
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                active[0] = False
                name = prefix
                if prefix == "checker.evaluate" and tracer.query == "witness":
                    name = "checker.recheck"
                spans[index] = (name, start, end, parent)
                tracer.seconds[name + ".s"] += end - start
                if outside:
                    tracer._outside_depth -= 1
                    if tracer._outside_depth == 0:
                        tracer.outside_s += end - start
            tracer._observe(prefix, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_truth_set(self, fn):
        """Evaluator.truth_set is called up to millions of times a query,
        so its wrapper only counts calls and distinct arguments, and times
        the outermost call."""
        tracer = self
        active = [False]

        def truth_set(evaluator, model, f, *rest):
            tracer.truth_calls += 1
            tracer._seen.add((id(evaluator), id(model), id(f)))
            if active[0]:
                return fn(evaluator, model, f, *rest)
            active[0] = True
            start = time.perf_counter()
            try:
                return fn(evaluator, model, f, *rest)
            finally:
                tracer.seconds["checker.truth_set.s"] += time.perf_counter() - start
                active[0] = False

        truth_set.__wrapped__ = fn
        return truth_set

    def _observe(self, prefix: str, result) -> None:
        if prefix == "parser.render_formula" and isinstance(result, str):
            self.counts["parser.render_formula.chars"] += len(result)
        elif prefix == "model.choice_sets" and isinstance(result, list):
            self.counts["model.choice_sets.decompositions"] += len(result)
            self.counts["model.choice_sets.distinct_extensions"] += len(
                {getattr(c, "extension", id(c)) for c in result}
            )

    # -- query spans --------------------------------------------------------

    def run_query(self, label: str, call):
        """Time one case as a root span; returns (seconds, result)."""
        self.query = label
        self._seen = set()
        spans = self.round_spans
        index = len(spans)
        spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            result = call()
        finally:
            end = time.perf_counter()
            self._stack.pop()
            spans[index] = ("query", start, end, -1)
            self.counts["truth_misses"] += len(self._seen)
            self._seen = set()
        return end - start, result

    def end_round(self) -> dict:
        """Counts and seconds of the round just finished."""
        if self.kept_spans is None:
            self.kept_spans = self.round_spans
        out = dict(self.counts)
        out.update(self.seconds)
        out["outside_s"] = self.outside_s
        out["checker.truth_set.calls"] = self.truth_calls
        self.reset_round()
        return out

    def write_spans(self, path) -> None:
        spans = self.kept_spans or []
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"absent": self.absent,
                       "spans": [[n, round(s, 7), round(e, 7), p] for n, s, e, p in spans]},
                      handle)
