import json

import pytest
from hypothesis import given

from corgal import (
    BOT,
    TOP,
    And,
    Ann,
    AnnDual,
    Atom,
    Coal,
    CoalDual,
    EpistemicModel,
    Formula,
    Iff,
    Imp,
    Know,
    ModelError,
    Not,
    Or,
    ParseError,
    RelGroup,
    RelGroupDual,
    Top,
    TRAIN_DOCUMENT,
    COUNTEREXAMPLE_DOCUMENT,
    contract,
    parse_formula,
    parse_model,
    parse_model_document,
    random_model,
    render_formula,
    render_model,
)
from corgal.cli import main
from corgal.parser import MAX_NESTING, _lex

from conftest import formulas, models_equal

p = Atom("p")
q = Atom("q")


class TestParseFormula:
    def test_announcement(self):
        assert parse_formula("[! ~p] K c ~p") == Ann(Not(p), Know("c", Not(p)))

    def test_top(self):
        assert parse_formula("top") == Top()

    def test_coalition_diamond(self):
        f = parse_formula("<[{a,b}]> (~K c ~p & ~K c p)")
        assert f == CoalDual(
            {"a", "b"}, And(Not(Know("c", Not(p))), Not(Know("c", p)))
        )

    def test_group_sugar_defaults_to_top(self):
        assert parse_formula("[{a,b}] p") == parse_formula("[{a,b}, top] p")

    def test_precedence(self):
        from corgal import Iff, Imp, Or

        # unary binds tightest, then & then | then -> then <->
        f = parse_formula("~p & q | p -> q <-> p")
        assert f == Iff(Imp(Or(And(Not(p), q), p), q), p)

    def test_imp_right_associative(self):
        assert parse_formula("p -> q -> p") == parse_formula("p -> (q -> p)")

    def test_empty_group(self):
        assert parse_formula("[<{}>] p") == Coal(frozenset(), p)

    @given(formulas())
    def test_round_trip(self, f):
        assert parse_formula(render_formula(f)) == f

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as err:
            parse_formula("p &\n& q")
        assert err.value.line == 2
        assert err.value.column == 1
        assert err.value.expected

    def test_error_position_inside_input(self):
        for text in ("", "K", "[? p] q", "p @ q", "(p", "[{a} p", "p q"):
            with pytest.raises(ParseError) as err:
                parse_formula(text)
            lines = text.split("\n")
            assert 1 <= err.value.line <= len(lines)
            assert err.value.column >= 1

    def test_unknown_operator_token(self):
        with pytest.raises(ParseError) as err:
            parse_formula("[, p] q")
        assert "unknown operator" in str(err.value)
        assert "'!'" in str(err.value)


# (text, tokens as (text, line, column)); only "\n" starts a line, and every
# other character, white space included, is one column wide
TOKEN_POSITIONS = [
    ("p &\r\nq", [("p", 1, 1), ("&", 1, 3), ("q", 2, 1)]),
    ("\tK\ta p", [("K", 1, 2), ("a", 1, 4), ("p", 1, 6)]),
    ("p\x0b& q", [("p", 1, 1), ("&", 1, 3), ("q", 1, 5)]),
    ("p\u00a0|\u00a0q", [("p", 1, 1), ("|", 1, 3), ("q", 1, 5)]),
    ("p\u2028-> q", [("p", 1, 1), ("->", 1, 3), ("q", 1, 6)]),
    ("Ka p", [("K", 1, 1), ("a", 1, 2), ("p", 1, 4)]),
    ("Kab_1K", [("K", 1, 1), ("ab_1", 1, 2), ("K", 1, 6)]),
    ("<->->", [("<->", 1, 1), ("->", 1, 4)]),
    ("<[{a,b}]>~p", [("<", 1, 1), ("[", 1, 2), ("{", 1, 3), ("a", 1, 4), (",", 1, 5),
                     ("b", 1, 6), ("}", 1, 7), ("]", 1, 8), (">", 1, 9), ("~", 1, 10),
                     ("p", 1, 11)]),
    ("[!p]\n\n  (q)", [("[", 1, 1), ("!", 1, 2), ("p", 1, 3), ("]", 1, 4), ("(", 3, 3),
                       ("q", 3, 4), (")", 3, 5)]),
    (" \r\n\t\x0b\x0c\u00a0\u2028\u3000", []),
]

# (text, line, column, message) of the error parse_formula raises
ERROR_POSITIONS = [
    ("p - q", 1, 3, "unexpected character '-'"),
    ("p <- q", 1, 4, "unexpected character '-'"),
    ("p\r\n\t& #", 2, 4, "unexpected character '#'"),
    ("p\x0b\u2028Q", 1, 4, "unexpected character 'Q'"),
    ("p &\r\n\tq ->\n", 2, 6, "unexpected end of input"),
    ("K a\n  K\n", 2, 4, "found end of input"),
    ("\n\n", 1, 1, "unexpected end of input"),
    ("p\n\u00a0& & q", 2, 4, "found '&'"),
    ("p\u2028q", 1, 3, "trailing input 'q'"),
]


class TestLexerPositions:
    @pytest.mark.parametrize("text, tokens", TOKEN_POSITIONS,
                             ids=[repr(t) for t, _ in TOKEN_POSITIONS])
    def test_tokens(self, text, tokens):
        assert [(t.text, t.line, t.column) for t in _lex(text)] == tokens

    @pytest.mark.parametrize("text, line, column, message", ERROR_POSITIONS,
                             ids=[repr(t) for t, *_ in ERROR_POSITIONS])
    def test_errors(self, text, line, column, message):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert (err.value.line, err.value.column, err.value.message) == (line, column, message)


class TestNestingLimit:
    @pytest.mark.parametrize(
        "nest",
        [
            lambda k: "(" * k + "p" + ")" * k,
            lambda k: "~" * k + "p",
            lambda k: "K a " * k + "p",
            lambda k: "[! p] " * k + "p",
            lambda k: "<[{a}]> " * k + "p",
            # a chain of k + 1 operands is a tree of height k
            lambda k: " & ".join(["p"] * (k + 1)),
            lambda k: " | ".join(["p"] * (k + 1)),
            lambda k: " <-> ".join(["p"] * (k + 1)),
            lambda k: "~" * (k // 2) + "(" + " & ".join(["p"] * (k - k // 2 + 1)) + ")",
            lambda k: "K a (" * (k // 2) + " | ".join(["p"] * (k - k // 2 + 1)) + ")" * (k // 2),
            lambda k: "p & (" * (k // 2) + "~" * (k - k // 2) + "p" + ")" * (k // 2),
        ],
    )
    def test_both_sides_of_the_limit(self, nest):
        parse_formula(nest(MAX_NESTING))
        with pytest.raises(ParseError, match="nests deeper") as err:
            parse_formula(nest(MAX_NESTING + 1))
        assert err.value.line == 1

    def test_long_implication_chain_is_nesting(self):
        f = parse_formula(" -> ".join(["p"] * (MAX_NESTING + 1)))
        for _ in range(MAX_NESTING):
            assert f.left == p
            f = f.right
        assert f == p
        for n in (MAX_NESTING + 2, 520, 3000):
            with pytest.raises(ParseError, match="nests deeper"):
                parse_formula(" -> ".join(["p"] * n))


class TestRenderFormula:
    def test_knowledge(self):
        assert render_formula(Know("a", p)) == "K a p"

    def test_group_with_condition(self):
        assert render_formula(RelGroup({"a"}, Top(), q)) == "[{a}, top] q"

    def test_empty_coalition(self):
        assert render_formula(Coal(frozenset(), p)) == "[<{}>] p"


# every formula constructor and its canonical text
SYNTAX = [
    (p, "p"),
    (TOP, "top"),
    (BOT, "bot"),
    (Not(And(p, q)), "~(p & q)"),
    (And(p, Or(q, p)), "p & (q | p)"),
    (Or(p, q), "p | q"),
    (Imp(p, Imp(q, p)), "p -> (q -> p)"),
    (Iff(p, q), "p <-> q"),
    (Know("a", Not(p)), "K a ~p"),
    (Ann(And(p, q), p), "[! (p & q)] p"),
    (AnnDual(p, Know("b", q)), "<! p> K b q"),
    (RelGroup({"b", "a"}, Or(p, q), q), "[{a,b}, (p | q)] q"),
    (RelGroupDual(frozenset(), TOP, p), "<{}, top> p"),
    (Coal({"a", "c"}, p), "[<{a,c}>] p"),
    (CoalDual({"b"}, Iff(p, q)), "<[{b}]> (p <-> q)"),
]


class TestSyntaxTable:
    def test_every_constructor_is_listed(self):
        assert {type(f) for f, _ in SYNTAX} == set(Formula.__subclasses__())

    @pytest.mark.parametrize("f, text", SYNTAX, ids=[text for _, text in SYNTAX])
    def test_render_and_parse_back(self, f, text):
        assert render_formula(f) == text
        assert parse_formula(text) == f

    @pytest.mark.parametrize("text, column, opening, expected", [
        ("[, p] q", 2, "[", ("'!'", "'{'", "'<'")),
        ("[[{a}]> p", 2, "[", ("'!'", "'{'", "'<'")),
        ("p & [", 6, "[", ("'!'", "'{'", "'<'")),
        ("<, p> q", 2, "<", ("'!'", "'{'", "'['")),
        ("<<{a}>] p", 2, "<", ("'!'", "'{'", "'['")),
        ("p & <", 6, "<", ("'!'", "'{'", "'['")),
    ])
    def test_unknown_operator(self, text, column, opening, expected):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert err.value.message == f"unknown operator after {opening!r}"
        assert err.value.expected == expected
        assert (err.value.line, err.value.column) == (1, column)

    @pytest.mark.parametrize("text, expected", [
        ("[! p> q", "']'"), ("<! p] q", "'>'"), ("[{a}, p> q", "']'"), ("<{a}, p] q", "'>'"),
        ("[<{a}]] p", "'>'"), ("<[{a}>> p", "']'"), ("[<{a}>> p", "']'"), ("<[{a}]] p", "'>'"),
    ])
    def test_mismatched_closing_bracket(self, text, expected):
        with pytest.raises(ParseError) as err:
            parse_formula(text)
        assert err.value.expected == (expected,)


class TestModelDocuments:
    def test_train_document(self):
        m = parse_model(TRAIN_DOCUMENT)
        assert m.states == ("w", "v")
        assert m.agents == ("a", "b", "c")
        assert m.valuation_mask("p") == m.state_mask(["v"])

    def test_counterexample_document(self):
        m = parse_model(COUNTEREXAMPLE_DOCUMENT)
        assert len(m.states) == 4
        assert len(m.blocks("c")) == 2
        assert len(m.blocks("a")) == 3

    def test_designated_is_parsed(self):
        doc = parse_model_document(TRAIN_DOCUMENT)
        assert doc.designated == "w"

    def test_round_trip(self):
        m = parse_model(TRAIN_DOCUMENT)
        assert models_equal(parse_model(render_model(m)), m)

    def test_round_trip_random_models(self):
        for seed in range(25):
            m = random_model(seed, 1 + seed % 5, 3, 3)
            assert models_equal(parse_model(render_model(m)), m)

    def test_round_trip_contracted_model(self):
        m = random_model(11, 5, 2, 1)
        n, _ = contract(m)
        assert models_equal(parse_model(render_model(n)), n)

    def _doc(self, **overrides):
        base = json.loads(TRAIN_DOCUMENT)
        base.update(overrides)
        return json.dumps(base)

    def test_partition_must_cover(self):
        bad = self._doc(partitions={"a": [["w"]], "b": [["w"], ["v"]], "c": [["w", "v"]]})
        with pytest.raises(ModelError, match="does not cover"):
            parse_model(bad)

    def test_partition_must_not_overlap(self):
        bad = self._doc(partitions={"a": [["w", "v"], ["v"]], "b": [["w"], ["v"]], "c": [["w", "v"]]})
        with pytest.raises(ModelError, match="overlap"):
            parse_model(bad)

    def test_undeclared_atom(self):
        bad = self._doc(valuation={"w": ["z"], "v": ["p"]})
        with pytest.raises(ModelError, match="undeclared atom"):
            parse_model(bad)

    def test_unknown_state_in_partition(self):
        bad = self._doc(partitions={"a": [["w"], ["v"], ["u"]], "b": [["w"], ["v"]], "c": [["w", "v"]]})
        with pytest.raises(ModelError, match="unknown state"):
            parse_model(bad)

    def test_duplicate_state(self):
        bad = self._doc(states=["w", "w"])
        with pytest.raises(ModelError, match="duplicate state"):
            parse_model(bad)

    def test_valuation_must_cover_every_state(self):
        bad = self._doc(valuation={"w": []})
        with pytest.raises(ModelError, match="valuation missing"):
            parse_model(bad)

    def test_bad_designated(self):
        bad = self._doc(designated="zz")
        with pytest.raises(ModelError, match="designated"):
            parse_model(bad)

    def test_reserved_names_rejected(self):
        bad = self._doc(atoms=["top"])
        with pytest.raises(ModelError, match="reserved"):
            parse_model(bad)

    def test_json_error_carries_position(self):
        with pytest.raises(ModelError, match="line"):
            parse_model("{not json")


# (name, overrides of the train document or the whole text, message fragment);
# each document has exactly one defect
_TRAIN_PARTITIONS = {"a": [["w"], ["v"]], "b": [["w"], ["v"]], "c": [["w", "v"]]}
MODEL_DEFECTS = [
    ("bad name", {"atoms": ["p", "Q"]}, "bad atom name"),
    ("reserved word", {"atoms": ["p", "top"]}, "reserved"),
    ("duplicate agent", {"agents": ["a", "b", "c", "a"]}, "duplicate agent"),
    ("duplicate atom", {"atoms": ["p", "p"]}, "duplicate atom"),
    ("duplicate state", {"states": ["w", "v", "w"]}, "duplicate state"),
    ("no states", {"states": [], "valuation": {}, "partitions": {"a": [], "b": [], "c": []},
                   "designated": None}, "no states"),
    ("valuation missing", {"valuation": {"w": []}}, "valuation missing"),
    ("valuation for unknown state", {"valuation": {"w": [], "v": ["p"], "u": []}},
     "valuation for unknown state"),
    ("undeclared atom", {"valuation": {"w": ["z"], "v": ["p"]}}, "undeclared atom"),
    ("partition missing", {"partitions": {"a": [["w"], ["v"]], "b": [["w"], ["v"]]}},
     "partition missing"),
    ("partition for undeclared agent", {"partitions": {**_TRAIN_PARTITIONS, "d": [["w", "v"]]}},
     "undeclared agent"),
    ("empty block", {"partitions": {**_TRAIN_PARTITIONS, "a": [["w"], [], ["v"]]}},
     "empty partition block"),
    ("unknown state in partition", {"partitions": {**_TRAIN_PARTITIONS, "a": [["w"], ["v"], ["u"]]}},
     "unknown state"),
    ("overlap", {"partitions": {**_TRAIN_PARTITIONS, "a": [["w", "v"], ["v"]]}}, "overlap"),
    ("not covering", {"partitions": {**_TRAIN_PARTITIONS, "a": [["w"]]}}, "does not cover"),
    ("bad designated state", {"designated": "zz"}, "designated"),
    ("invalid JSON", "{not json", "not valid JSON"),
    ("unknown field", {"comment": "x"}, "unknown field"),
]


def _defective(overrides) -> str:
    if isinstance(overrides, str):
        return overrides
    doc = json.loads(TRAIN_DOCUMENT)
    doc.update(overrides)
    if doc["designated"] is None:
        del doc["designated"]
    return json.dumps(doc)


class TestModelDefects:
    @pytest.mark.parametrize("overrides, fragment",
                             [case[1:] for case in MODEL_DEFECTS], ids=[c[0] for c in MODEL_DEFECTS])
    def test_rejected(self, overrides, fragment, tmp_path, capsys):
        self._assert_rejected(_defective(overrides), fragment, tmp_path, capsys)

    # a JSON list where a state name belongs is an input error, not a crash
    @pytest.mark.parametrize("overrides, fragment", [
        ({"designated": ["w"]}, "designated state ['w'] is not declared"),
        ({"partitions": {**_TRAIN_PARTITIONS, "a": [[["w"]], ["v"]]}},
         "agent 'a': unknown state ['w'] in partition"),
    ])
    def test_unhashable_state_names_rejected(self, overrides, fragment, tmp_path, capsys):
        self._assert_rejected(_defective(overrides), fragment, tmp_path, capsys)

    def test_deeply_nested_json_rejected(self):
        # json.loads recurses once per level and overflows well before this
        with pytest.raises(ModelError, match="nests too deeply"):
            parse_model_document("[" * 100_000)

    @staticmethod
    def _assert_rejected(text, fragment, tmp_path, capsys):
        with pytest.raises(ModelError) as excinfo:
            parse_model(text)
        assert fragment in str(excinfo.value)
        path = tmp_path / "bad.model"
        path.write_text(text)
        assert main(["check", "--model", str(path), "--state", "w", "--formula", "p"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and fragment in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("states, agents, atoms", [
        (["W"], ["a"], ["p"]), (["w"], ["A"], ["p"]), (["w"], ["a"], ["top"]), (["w"], ["bot"], ["p"]),
    ])
    def test_render_rejects_names_outside_the_syntax(self, states, agents, atoms):
        model = EpistemicModel(states, agents, atoms, {a: [states] for a in agents},
                               {atom: [] for atom in atoms})
        with pytest.raises(ModelError):
            render_model(model)
