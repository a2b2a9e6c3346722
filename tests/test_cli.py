import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import corgal
from corgal import (
    COUNTEREXAMPLE_DOCUMENT,
    TRAIN_DOCUMENT,
    Stratum,
    pal_to_el,
    parse_formula,
    parse_model,
    render_formula,
)
from corgal.cli import main
from conftest import models_equal
from corgal.parser import MAX_NESTING
from corgal.validity import gen_formula

GOAL = "K b (p & q & r) & ~K a (p & q & r) & ~K c (p & q & r)"


@pytest.fixture()
def train_path(tmp_path):
    path = tmp_path / "train.model"
    path.write_text(TRAIN_DOCUMENT)
    return str(path)


@pytest.fixture()
def counter_path(tmp_path):
    path = tmp_path / "counter.model"
    path.write_text(COUNTEREXAMPLE_DOCUMENT)
    return str(path)


class TestCheck:
    def test_true_verdict(self, train_path, capsys):
        code = main(["check", "--model", train_path, "--state", "w",
                     "--formula", "[! ~p] K c ~p"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_false_verdict(self, counter_path, capsys):
        code = main(["check", "--model", counter_path, "--state", "pqr",
                     "--formula", f"<[{{a}}]> <[{{b}}]> ({GOAL})"])
        assert code == 1
        assert capsys.readouterr().out.strip() == "false"

    def test_state_defaults_to_designated(self, train_path, capsys):
        code = main(["check", "--model", train_path, "--formula", "~p"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    def test_malformed_formula(self, train_path, capsys):
        code = main(["check", "--model", train_path, "--state", "w",
                     "--formula", "[! ~p K c"])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 1" in err and "column" in err

    def test_unknown_state(self, train_path, capsys):
        code = main(["check", "--model", train_path, "--state", "zz",
                     "--formula", "p"])
        assert code == 2

    def test_cap_exceeded(self, counter_path, capsys):
        code = main(["check", "--model", counter_path, "--state", "pqr", "--cap", "5",
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 3

    @pytest.mark.parametrize("command", ["check", "witness"])
    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_cap_below_one_is_an_input_error(self, counter_path, capsys, command, cap):
        code = main([command, "--model", counter_path, "--state", "pqr", "--cap", cap,
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 2
        assert f"--cap must be at least 1, got {cap}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["check", "witness"])
    def test_cap_of_one_is_accepted(self, counter_path, capsys, command):
        code = main([command, "--model", counter_path, "--state", "pqr", "--cap", "1",
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 3
        assert "exceed the cap of 1" in capsys.readouterr().err
        code = main([command, "--model", counter_path, "--state", "pqr", "--cap", "1",
                     "--formula", "<{}, top> top"])
        assert code == 0

    @pytest.mark.parametrize("formula, verdict, code", [
        ("[{a,b,c}, p] ~K c p", "false", 1),
        ("<{a,b,c}, p> ~K c p", "true", 0),
    ])
    def test_condition_missing_the_point_enumerates_nothing(
        self, train_path, capsys, formula, verdict, code
    ):
        # p is false at w, so the condition alone gives the verdict there and
        # no extension of {a,b,c} is enumerated, not even under a cap of 1
        query = ["--model", train_path, "--state", "w", "--cap", "1", "--formula", formula]
        for command, lines in (
            (["check"], [verdict]),
            (["check", "--trace"], [verdict]),
            (["witness"], [verdict, "witness: none"]),
        ):
            assert main(command + query) == code
            assert capsys.readouterr().out.splitlines() == lines

    def test_trace(self, counter_path, capsys):
        # the extensions of {a,b} that contain pqr, silence first, up to
        # the fifth, "a knows q", which decides the verdict and is the
        # witness
        code = main(["check", "--model", counter_path, "--state", "pqr", "--trace",
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "true",
            "<[G]> a:{pqr,pq,qr,pr} b:{pqr,pq,qr,pr} -> {pqr,pq,qr,pr}: False",
            "<[G]> a:{pqr,qr,pr} b:{pqr,qr,pr} -> {pqr,qr,pr}: False",
            "<[G]> a:{pqr,pq,qr,pr} b:{pqr,pq,pr} -> {pqr,pq,pr}: False",
            "<[G]> a:{pqr,qr,pr} b:{pqr,pr} -> {pqr,pr}: False",
            "<[G]> a:{pqr,pq,qr} b:{pqr,pq,qr,pr} -> {pqr,pq,qr}: True",
        ]

    def test_formula_from_stdin(self, train_path, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("K a ~p"))
        code = main(["check", "--model", train_path, "--state", "w"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "true"

    @pytest.mark.parametrize("formula", ["(" * 300 + "p" + ")" * 300, "~" * 600 + "p"])
    def test_deep_nesting_is_an_input_error(self, train_path, capsys, formula):
        code = main(["check", "--model", train_path, "--formula", formula])
        assert code == 2
        assert "nests deeper" in capsys.readouterr().err

    def test_byte_identical_reruns(self, counter_path, capsys):
        args = ["check", "--model", counter_path, "--state", "pqr", "--trace",
                "--formula", f"<[{{a,b}}]> ({GOAL})"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second


def chain(connective: str, operands: list[str]) -> str:
    return f" {connective} ".join(operands)


class TestChains:
    """A chain of n operands is a tree of height n - 1; MAX_NESTING bounds
    the height, so chains at the bound answer and longer ones are input
    errors, not crashes."""

    def test_check_at_the_bound(self, train_path, capsys):
        # 100 conjuncts of height 1
        code = main(["check", "--model", train_path, "--state", "w",
                     "--formula", chain("&", ["~p"] * MAX_NESTING)])
        assert (code, capsys.readouterr().out) == (0, "true\n")

    def test_witness_at_the_bound(self, train_path, capsys):
        body = chain("&", ["~p"] * (MAX_NESTING - 2) + ["K c ~p"])
        code = main(["witness", "--model", train_path, "--state", "w",
                     "--formula", f"<[{{a}}]> ({body})"])
        assert (code, capsys.readouterr().out) == (0, "true\nwitness: K a ~p\n")

    def test_translate_at_the_bound(self, capsys):
        code = main(["translate", "--formula", f"[! p] ({chain('&', ['q'] * MAX_NESTING)})"])
        assert code == 0
        out = capsys.readouterr().out
        assert parse_formula(out) == parse_formula(chain("&", ["(p -> q)"] * MAX_NESTING))

    @pytest.mark.parametrize("command", ["check", "witness", "translate"])
    @pytest.mark.parametrize("operands", [MAX_NESTING + 2, 520, 2000])
    def test_longer_chains_are_input_errors(self, train_path, capsys, command, operands):
        formula = chain("&", ["p"] * operands)
        if command == "witness":
            formula = f"<[{{a}}]> ({formula})"
        argv = ["--formula", formula] if command == "translate" else [
            "--model", train_path, "--state", "w", "--formula", formula]
        assert main([command, *argv]) == 2
        assert "nests deeper" in capsys.readouterr().err


class TestWitness:
    def test_witness_printed_and_rechecked(self, counter_path, capsys):
        code = main(["witness", "--model", counter_path, "--state", "pqr",
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("true")
        assert "witness: " in out

    def test_counterexample_witness_is_the_papers_announcement(self, counter_path, capsys):
        code = main(["witness", "--model", counter_path, "--state", "pqr",
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 0
        assert capsys.readouterr().out == "true\nwitness: K a q & K b top\n"

    def test_silence_witness(self, train_path, capsys):
        code = main(["witness", "--model", train_path, "--state", "w",
                     "--formula", "<{a,b}, top> (~K c ~p & ~K c p)"])
        assert code == 0
        out = capsys.readouterr().out
        assert "witness: " in out and "none" not in out

    def test_not_quantified(self, train_path, capsys):
        code = main(["witness", "--model", train_path, "--state", "w",
                     "--formula", "K a ~p"])
        assert code == 2

    def test_fallback_witness_round_trips_through_check(self, tmp_path, capsys, monkeypatch):
        # the smallest-formula search gives up here; the characteristic-
        # formula witness is over 500,000 characters, and joined left-deep
        # it would nest deeper than check accepts; the body is not
        # positive, so the extension announced is not the cell of s0
        path = tmp_path / "model.json"
        path.write_text(corgal.render_model(corgal.random_model(20, 60, 3, 1)))
        body = "((K a1 p0 | K a2 ~p0) & ~K a0 p0)"
        query = ["--model", str(path), "--state", "s0"]
        assert main(["witness", *query, "--formula", f"<{{a0}}, top> {body}"]) == 0
        verdict, witness = capsys.readouterr().out.splitlines()
        assert verdict == "true" and witness.startswith("witness: ")
        witness = witness.removeprefix("witness: ")
        assert len(witness) > 500_000
        # formulas this long go through stdin
        for text in (witness, f"<! ({witness}) & top> {body}"):
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            assert main(["check", *query]) == 0
            assert capsys.readouterr().out == "true\n"


class TestInternalErrors:
    def test_unexpected_exception_exits_5(self, train_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("corgal.cli.evaluate", broken)
        code = main(["check", "--model", train_path, "--formula", "p"])
        assert code == 5
        err = capsys.readouterr().err
        assert "RuntimeError: boom" in err and "internal error" in err

    def test_failed_witness_self_check_exits_5(self, counter_path, capsys, monkeypatch):
        # the self-check inside evaluate_witness replays the witness through
        # the checker's evaluate
        monkeypatch.setattr("corgal.checker.evaluate", lambda *args, **kwargs: None)
        code = main(["witness", "--model", counter_path, "--state", "pqr",
                     "--formula", f"<[{{a,b}}]> ({GOAL})"])
        assert code == 5
        assert "witness self-check failed" in capsys.readouterr().err

    def test_failed_witness_self_check_in_a_suite_exits_5(self, capsys, monkeypatch):
        monkeypatch.setattr("corgal.checker.evaluate", lambda *args, **kwargs: None)
        assert main(["suite", "repro"]) == 5
        assert "witness self-check failed" in capsys.readouterr().err


class TestMalformedInputs:
    @pytest.mark.parametrize("command", ["check", "contract"])
    def test_deeply_nested_json_is_an_input_error(self, command, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000)
        argv = ["--model", str(path)]
        if command == "check":
            argv += ["--state", "w", "--formula", "p"]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


class TestContract:
    def test_writes_quotient_and_map(self, tmp_path, capsys):
        doc = {
            "agents": ["a"],
            "atoms": ["p"],
            "states": ["x", "y"],
            "valuation": {"x": [], "y": []},
            "partitions": {"a": [["x"], ["y"]]},
            "designated": "y",
        }
        src = tmp_path / "twin.model"
        src.write_text(json.dumps(doc))
        out = tmp_path / "contracted.model"
        code = main(["contract", "--model", str(src), "--out", str(out)])
        assert code == 0
        quotient = parse_model(out.read_text())
        assert quotient.states == ("x",)
        mapping = capsys.readouterr().out
        assert "y -> x" in mapping

    def test_contracted_model_round_trips(self, counter_path, tmp_path, capsys):
        out = tmp_path / "out.model"
        main(["contract", "--model", counter_path, "--out", str(out)])
        from corgal import counterexample_model

        assert models_equal(parse_model(out.read_text()), counterexample_model())

    def test_merged_quotient_prints_by_lowest_state(self, tmp_path, capsys):
        # s2 merges into s0 and s5 into s3; a1's blocks {s0,s5} and {s2,s3}
        # widen into one quotient block
        src = tmp_path / "merged.model"
        src.write_text(corgal.render_model(corgal.random_model(1, 6, 2, 1)))
        code = main(["contract", "--model", str(src)])
        assert (code, *capsys.readouterr()) == (0, MERGED_QUOTIENT, MERGED_MAP)


MERGED_QUOTIENT = """\
{
  "agents": [
    "a0",
    "a1"
  ],
  "atoms": [
    "p0"
  ],
  "states": [
    "s0",
    "s1",
    "s3",
    "s4"
  ],
  "valuation": {
    "s0": [
      "p0"
    ],
    "s1": [],
    "s3": [],
    "s4": []
  },
  "partitions": {
    "a0": [
      [
        "s0",
        "s4"
      ],
      [
        "s1",
        "s3"
      ]
    ],
    "a1": [
      [
        "s0",
        "s3"
      ],
      [
        "s1",
        "s4"
      ]
    ]
  }
}
"""

MERGED_MAP = """\
s0 -> s0
s1 -> s1
s2 -> s0
s3 -> s3
s4 -> s4
s5 -> s3
"""


class TestTranslate:
    def test_example(self, capsys):
        code = main(["translate", "--formula", "[! p] K a p"])
        assert code == 0
        assert capsys.readouterr().out.strip() == "p -> K a (p -> p)"

    def test_group_operator_rejected(self, capsys):
        code = main(["translate", "--formula", "[{a}] p"])
        assert code == 2

    def test_translation_higher_than_the_bound_is_an_input_error(self, capsys):
        # the input has height 61; each K under the announcement gains an
        # implication, so the translation is higher than the parser reads
        code = main(["translate", "--formula", "[! p] " + "K a " * 60 + "q"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "nests deeper" in err

    @pytest.mark.parametrize("text", ["[! p] K a p"] + [
        render_formula(gen_formula(seed, Stratum.PAL, 5, ("p", "q"), ("a", "b")))
        for seed in range(10)
    ], ids=["example"] + [f"gen-{seed}" for seed in range(10)])
    def test_output_parses_back(self, capsys, text):
        assert main(["translate", "--formula", text]) == 0
        assert parse_formula(capsys.readouterr().out) == pal_to_el(parse_formula(text))


class TestSuite:
    def test_repro_suite(self, capsys):
        code = main(["suite", "repro"])
        assert code == 0
        out = capsys.readouterr().out
        assert "suite repro" in out
        assert '"passed": true' in out

    def test_small_axiom_suite(self, capsys):
        code = main(["suite", "axioms", "--count", "3", "--seed", "1"])
        assert code == 0

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["suite", "nonsense"])


class TestSharedParser:
    def test_one_process_prints_what_fresh_processes_print(self, counter_path, capsys, monkeypatch):
        # main builds its parser once per process; every later call must
        # still behave as the first call of a fresh `python -m corgal`
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal
        query = ["--model", counter_path, "--state", "pqr", "--formula", f"<[{{a,b}}]> ({GOAL})"]
        calls = [
            (["check", *query], 0),
            (["check", "--trace", *query], 0),
            (["witness", *query], 0),
            (["check", "--no-such-option", *query], 2),
            (["check", "--cap", "0", *query], 2),
            (["translate", "--formula", "[! p] K a p"], 0),
            (["contract", "--model", counter_path], 0),
            (["suite", "repro"], 0),
            (["check", *query], 0),
        ]
        env = dict(os.environ, PYTHONPATH=str(Path(corgal.__file__).resolve().parents[1]))
        for argv, expected in calls:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            out, err = capsys.readouterr()
            fresh = subprocess.run([sys.executable, "-m", "corgal", *argv], env=env,
                                   capture_output=True, text=True, timeout=120)
            assert code == expected, argv
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
