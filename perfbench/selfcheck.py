"""Fast self-check of the benchmark itself (a few seconds).

    python3 perfbench/selfcheck.py

Checks that a tampered report body, a wrong exit code and a crash each count
as a failed verdict while a changed elapsed footer does not; that the traced
self times plus the unattributed time add up to the root span, with every
layer exercised and the report bodies unchanged by tracing; and that
BENCHMARK.json names the metrics and workloads that run.py produces.
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import kirchhoff.cli  # noqa: E402
import kirchhoff.spectral  # noqa: E402
import kirchhoff.verify  # noqa: E402

import run  # noqa: E402
import spans  # noqa: E402
from verdicts import body_digest, run_round, run_verdict  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Small verdicts that together reach every traced function.
TRACE_VERDICTS = [
    "search --connected 6,7 --max --top 2 --jobs 1",
    "search --trees 7 --max --top 2 --jobs 1",
    "verify --theorem upper-bound --n 6 --p 2 --jobs 1",
    "verify --theorem tree-count-bound --n 6 --p 3 --jobs 1",
    "verify --theorem min-ordering --n 6 --jobs 1",
    "verify --theorem unicyclic-max --n 5 --jobs 1",
]


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck FAILED: {message}")


def check_failure_counting() -> None:
    with open(run.EXPECTED, encoding="utf-8") as fh:
        expected = json.load(fh)
    verdict = "verify --theorem upper-bound --n 6 --p 2 --jobs 2"
    good = run_verdict(kirchhoff.cli.main, verdict)
    check(run.failure(good, expected) is None, f"untampered verdict fails: {run.failure(good, expected)}")

    report = kirchhoff.verify.render_report(
        kirchhoff.verify.verify_theorem("upper-bound", {"n": 6, "p": 2})
    )
    check(body_digest(report) == good["digest"], "report digest depends on how the report was made")
    footer = report.replace("elapsed_seconds: ", "elapsed_seconds: 9")
    tampered = report.replace("status: PASS", "status: FAIL")
    check(tampered != report, "tampering changed nothing")
    cases = {
        "footer": dict(good, digest=body_digest(footer)),
        "body": dict(good, digest=body_digest(tampered)),
        "exit": dict(good, exit=1),
        "crash": {"verdict": verdict, "error": "RuntimeError: boom"},
    }
    check(run.failure(cases["footer"], expected) is None, "an elapsed footer change counts as a failure")
    for name in ("body", "exit", "crash"):
        check(run.failure(cases[name], expected) is not None, f"{name} change is not counted as failed")
    rounds = [{"results": [good, cases["body"], good]}, {"results": [cases["exit"], cases["crash"]]}]
    check(len(run.check_rounds(rounds, expected)) == 3, "failed verdicts miscounted")


def check_trace() -> None:
    original = kirchhoff.verify.tree_count
    untraced = run_round(kirchhoff.cli.main, TRACE_VERDICTS)
    tracer = spans.Tracer()
    with spans.installed(tracer) as traced_main:
        check(kirchhoff.verify.tree_count is not original, "wrapper missing from a by-name import")
        traced = run_round(traced_main, TRACE_VERDICTS)
    check(kirchhoff.verify.tree_count is original, "wrappers not removed after the traced round")
    check(kirchhoff.spectral.tree_count is original, "wrappers not removed after the traced round")
    for a, b in zip(untraced["results"], traced["results"]):
        check("digest" in a and a["digest"] == b.get("digest"), f"{a['verdict']}: tracing changed the report body")

    child = {
        "rounds": [untraced],
        "traced": [traced],
        "self_s": tracer.self_s,
        "counts": tracer.counts,
        "root_s": tracer.root_s,
    }
    values, problems = run.per_layer(child)
    check(not problems, f"trace problems: {problems}")
    layers = sum(values[f"{name}_s"] for name in run.LAYER_TIMES)
    total = layers + values["trace.unattributed_s"]
    check(abs(total - tracer.root_s) <= 1e-9 * tracer.root_s, f"self times sum to {total}, root is {tracer.root_s}")
    idle = [name for name in [f"{t}_s" for t in run.LAYER_TIMES] + run.LAYER_COUNTS if values[name] <= 0]
    check(not idle, f"layers never reached: {idle}")
    check(0 < values["enumeration.useful_ratio"] <= 1, "useful ratio out of range")


def check_benchmark_json() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    check({w["name"] for w in bench["workloads"]} == set(WORKLOADS), "workloads differ from workloads.py")
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    check(e2e == run.END_TO_END, "end_to_end metrics differ from run.py")
    check(layer == run.PER_LAYER, "per_layer metrics differ from run.py")


def main() -> int:
    check_failure_counting()
    check_trace()
    check_benchmark_json()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
