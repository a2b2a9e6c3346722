"""One workload process: set up the corpus, then (for `measure`) time whole
rounds of its cases until the run length is reached and check every output.

    python3 perfbench/worker.py setup|measure --workload W --seed N --seconds S --trace 0|1

run.py starts it with a fixed PYTHONHASHSEED; `setup` prints "ready" once
the corpus is ready and exits, `measure` prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.setrecursionlimit(20_000)


def import_package():
    sys.path.insert(0, str(ROOT / "src"))
    import corgal
    import corgal.cli

    if Path(corgal.__file__).resolve().parent != (ROOT / "src" / "corgal").resolve():
        raise SystemExit(f"imported corgal from {corgal.__file__}, not from this checkout")
    return corgal


def call(corgal, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = corgal.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


OK_CODES = {"quantifier-wall": (0, 1), "witness-roundtrip": (0, 1), "harness": (0, 4)}


def peak_rss_kb() -> int:
    """This process's peak resident size.  VmHWM, unlike ru_maxrss on
    Linux, does not carry over the parent's peak through fork and exec."""
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("role", choices=("setup", "measure"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    corgal = import_package()
    import corpus

    cases = corpus.set_up(corgal, args.workload,
                          corpus.select(corpus.load_pool(), args.workload, args.seed),
                          HERE / "out" / args.workload)
    if args.role == "setup":
        print("ready", flush=True)
        return 0

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    label = {"quantifier-wall": "check", "witness-roundtrip": "witness"}.get(args.workload)

    outputs: list = [None] * len(cases)
    times: list[list[float]] = [[] for _ in cases]
    rounds: list[dict] = []
    attempted = 0
    failures: list[str] = []  # operations that crashed or exited with an error code
    problems: list[str] = []  # wrong outputs of operations that did not fail
    gc.collect()
    deadline = time.perf_counter() + args.seconds
    while not rounds or time.perf_counter() < deadline:
        layer: dict = {}
        wall = 0.0
        witness_chars = 0
        for i, case in enumerate(cases):
            gc.collect()
            attempted += 1
            run = lambda: call(corgal, case["argv"])  # noqa: E731
            try:
                if tracer:
                    dt, result = tracer.run_query(label or case["suite"], run)
                else:
                    start = time.perf_counter()
                    result = run()
                    dt = time.perf_counter() - start
            except Exception as exc:  # a crash is a failed operation, not a verdict
                failures.append(f"{case['id']}: {type(exc).__name__}: {exc}"[:200])
                continue
            wall += dt
            times[i].append(dt)
            if result[0] not in OK_CODES[args.workload]:
                failures.append(f"{case['id']}: exit {result[0]}")
                continue
            if outputs[i] is None:
                outputs[i] = result
            elif outputs[i] != result:
                problems.append(f"{case['id']}: output differs between rounds")
            if "suite" in case:
                key = f"validity.{case['suite']}.s"
                layer[key] = layer.get(key, 0.0) + dt
            if args.workload == "witness-roundtrip":
                witness_chars += sum(len(line) - len("witness: ")
                                     for line in result[1].splitlines()
                                     if line.startswith("witness: "))
        layer["wall"] = wall
        layer["witness_chars"] = witness_chars
        if tracer:
            layer.update(tracer.end_round())
        rounds.append(layer)
    peak_rss_mb = peak_rss_kb() / 1024

    if tracer:
        tracer.write_spans(HERE / "out" / f"spans-{args.workload}-{args.seed}.json")
        metrics = per_layer(rounds, tracer)
    else:
        per_case = [statistics.median(t) for t in times if t]
        metrics = {
            "wall_s": {"value": statistics.median(r["wall"] for r in rounds), "unit": "s"},
            "query_s_p50": {"value": statistics.median(per_case), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    problems += verify(corgal, args.workload, cases, outputs)
    for line in (failures + problems)[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": len(failures),
                      "round_walls": [round(r["wall"], 4) for r in rounds],
                      "metrics": metrics}))
    return 0


def per_layer(rounds: list[dict], tracer) -> dict:
    import tracing

    def med(key: str) -> float:
        return statistics.median(r.get(key, 0) for r in rounds)

    values = {}
    for name, unit in tracing.METRICS:
        values[name] = med(name)
    values["traced_wall_s"] = med("wall")
    values["checker.self_s"] = statistics.median(r["wall"] - r["outside_s"] for r in rounds)
    values["checker.truth_set.misses"] = med("truth_misses")
    calls = values["checker.truth_set.calls"]
    values["checker.truth_set.hit_ratio"] = 1 - values["checker.truth_set.misses"] / calls if calls else 0
    decompositions = values["model.choice_sets.decompositions"]
    values["model.choice_sets.distinct_ratio"] = (
        values["model.choice_sets.distinct_extensions"] / decompositions if decompositions else 0
    )
    if tracer.absent:
        print("absent from the package: " + ", ".join(tracer.absent), file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in tracing.METRICS}


def verify(corgal, workload: str, cases: list[dict], outputs: list) -> list[str]:
    """Check the first round's output of every case."""
    import corpus

    problems = []
    for case, result in zip(cases, outputs):
        if result is None:
            continue
        code, out = result
        if workload == "harness":
            reason = check_suite(code, out)
        else:
            reason = corpus.check_fingerprint(case)
        if reason is None and workload == "witness-roundtrip":
            reason = corpus.check_witness(case, code, out)
        elif reason is None and workload == "quantifier-wall":
            if case["expected"] is None:
                reason = check_properties(corgal, case, code, out)
            else:
                reason = corpus.check_verdict(case, code, out)
        if reason:
            problems.append(f"{case['id']}: {reason}")
    return problems


def check_suite(code: int, out: str) -> str | None:
    try:
        report = json.loads(out[out.index("{"):])
    except ValueError:
        return "no JSON report"
    if code != 0 or report["failures"] or report["skipped"] or not report["passed"]:
        return (f"suite reported {len(report['failures'])} failures and "
                f"{len(report['skipped'])} skipped cases")
    return None


def check_properties(corgal, case: dict, code: int, out: str) -> str | None:
    """For a case beyond the reference budget: the dual formula gets the
    opposite verdict, and a bisimilar state gets the same verdict."""
    import corpus
    import reference as ref

    verdict = code == 0
    if out.splitlines()[:1] != ["true" if verdict else "false"]:
        return f"verdict line does not match exit code {code}"
    dual = ref.render(ref.dual(ref.parse(case["formula"])))
    d_code, _ = call(corgal, ["check", "--model", case["path"], "--state", case["state"],
                              "--formula", dual])
    if d_code != (1 if verdict else 0):
        return f"dual formula {dual!r} gave exit {d_code}"
    doc = json.loads(case["document"])
    model = ref.Model(doc)
    classes, _ = ref.refine(model, model.full)
    point = 1 << model.index[case["state"]]
    mates = [model.states[i] for c in classes if c & point for i in ref.bits(c & ~point)]
    path, state = case["path"], mates[0] if mates else None
    if state is None:
        doc, state = corpus.clone_document(doc, case["state"])
        clone_model = ref.Model(doc)
        classes, _ = ref.refine(clone_model, clone_model.full)
        pair = clone_model.index[case["state"]], clone_model.index[state]
        if not any(c >> pair[0] & 1 and c >> pair[1] & 1 for c in classes):
            return "the cloned state is not bisimilar to the point"
        path = str(Path(case["path"]).with_suffix(".clone.json"))
        Path(path).write_text(json.dumps(doc), encoding="utf-8")
    b_code, _ = call(corgal, ["check", "--model", path, "--state", state,
                              "--formula", case["formula"]])
    if b_code != code:
        return f"bisimilar state {state} gave exit {b_code}, the point {code}"
    return None


if __name__ == "__main__":
    sys.exit(main())
