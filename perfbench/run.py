"""Benchmark of whole kirchhoff verdicts, end to end or traced layer by layer.

    python3 perfbench/run.py --workload subset-scan|tree-scan|per-graph \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; kirchhoff is imported from ./src.
Each run starts fresh Python processes. With --trace 0 it times the set-up
(interpreter start until kirchhoff.cli is imported) several times, then runs
whole rounds of the workload's verdicts for S seconds and reports the median
round. With --trace 1 it alternates untraced and traced rounds at --jobs 1
and reports the per-layer split. Every verdict's exit code and report body
are checked against perfbench/expected.json.

The last line of standard output is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}; the line
before it holds the samples, their quartiles and the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS, verdict_key

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED = os.path.join(HERE, "expected.json")

# One BLAS thread per process, so that --jobs 2 puts at most 2 threads on 2 cores.
CHILD_ENV = {"PYTHONPATH": os.path.join(ROOT, "src"), "OPENBLAS_NUM_THREADS": "1"}
SETUP_SAMPLES = 10
DEADLINE_S = 160  # the whole run, set-up probes included, ends before this

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "rows_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MiB",
}

# Self time of each span name (see spans.py); with trace.unattributed_s they
# add up to the traced rounds.
LAYER_TIMES = [
    "enumeration.generate",
    "enumeration.assemble",
    "enumeration.solve",
    "enumeration.kf",
    "enumeration.pool",
    "enumeration.wiener",
    "enumeration.hist",
    "spectral.tree_count",
    "spectral.crosscheck",
    "spectral.kf_spectral",
    "graphs.make_graph",
    "graphs.is_connected",
    "graphs.graph6",
    "verify.self",
    "verify.bound_eval",
    "verify.complement_shape",
    "verify.copy_count",
    "families.build",
    "families.closed_form",
    "cli.render",
    "cli.self",
]
LAYER_COUNTS = [
    "enumeration.rows",
    "enumeration.blocks",
    "enumeration.solved_rows",
    "enumeration.connected_rows",
    "enumeration.pooled_rows",
    "spectral.tree_count.calls",
    "spectral.kf_spectral.calls",
    "spectral.eigvalsh.calls",
]
PER_LAYER = {
    **{f"{name}_s": "s" for name in LAYER_TIMES},
    **{name: "count" for name in LAYER_COUNTS},
    "enumeration.useful_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.unattributed_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def run_child(args: list[str], deadline: float) -> dict:
    """Run verdicts.py in its own process group; parse its JSON line."""
    env = dict(os.environ, **CHILD_ENV)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "verdicts.py"), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        out = None
    if out is None or proc.returncode != 0:
        try:  # the child, and any fork workers it left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise BenchError(f"verdicts.py {' '.join(args)} " + ("did not finish in time" if out is None else f"exited with {proc.returncode}"))
    return json.loads(out.decode().strip().splitlines()[-1])


def setup_seconds(count: int, deadline: float) -> list[float]:
    """Interpreter start until kirchhoff.cli is imported, one fresh process each."""
    samples = []
    for _ in range(count):
        t0 = time.monotonic()
        samples.append(run_child(["--setup"], deadline)["imported"] - t0)
    return samples


def failure(result: dict, expected: dict) -> str | None:
    """Why a verdict counts as failed, or None when it matches its expectation."""
    want = expected.get(verdict_key(result["verdict"]))
    if want is None:
        return "no expected report for this verdict"
    if "error" in result:
        return result["error"]
    if result["exit"] != want["exit"]:
        return f"exit {result['exit']}, expected {want['exit']}"
    if result["digest"] != want["sha256"]:
        return "report body differs from the expected body"
    return None


def check_rounds(rounds: list[dict], expected: dict) -> list[str]:
    return [
        f"{r['verdict']}: {why}"
        for rnd in rounds
        for r in rnd["results"]
        if (why := failure(r, expected)) is not None
    ]


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q = [values[0]] * 3
    else:
        q = statistics.quantiles(values, n=4, method="inclusive")
    return {"p25": q[0], "median": q[1], "p75": q[2], "samples": len(values), "values": values}


def end_to_end(child: dict, setup: list[float], rows_per_round: int) -> tuple[dict, dict]:
    """Metric values, and the quartiles of the samples behind each median."""
    samples = {
        "setup_s": setup,
        "verdict_s": [r["wall_s"] for r in child["rounds"]],
        "rows_per_s": [rows_per_round / r["wall_s"] for r in child["rounds"]],
        "cpu_s": [r["cpu_s"] for r in child["rounds"]],
    }
    values = {name: statistics.median(s) for name, s in samples.items()}
    values["peak_rss_mb"] = max(child["max_rss_kib"], child["max_child_rss_kib"]) / 1024
    return values, {name: quartiles(s) for name, s in samples.items()}


def per_layer(child: dict) -> tuple[dict, list[str]]:
    """Per-round layer metrics, and the problems found in the trace itself."""
    rounds = len(child["traced"])
    self_s, counts = child["self_s"], child["counts"]
    problems = []
    unknown = set(self_s) - set(LAYER_TIMES) - {"trace.root"}
    if unknown:
        problems.append(f"spans without a metric: {sorted(unknown)}")
    total = sum(self_s.values())
    if abs(total - child["root_s"]) > 1e-6 * child["root_s"]:
        problems.append(f"self times add up to {total} s, root span is {child['root_s']} s")
    untraced = statistics.median(r["wall_s"] for r in child["rounds"])
    traced = statistics.median(r["wall_s"] for r in child["traced"])
    values = {f"{name}_s": self_s.get(name, 0.0) / rounds for name in LAYER_TIMES}
    values.update({name: counts.get(name, 0) / rounds for name in LAYER_COUNTS})
    solved = counts.get("enumeration.solved_rows", 0)
    values["enumeration.useful_ratio"] = counts.get("enumeration.connected_rows", 0) / solved if solved else 0.0
    values["trace.overhead_frac"] = traced / untraced - 1.0
    values["trace.unattributed_s"] = self_s.get("trace.root", 0.0) / rounds
    for first, second in zip(child["rounds"], child["traced"]):
        for a, b in zip(first["results"], second["results"]):
            if a.get("digest") != b.get("digest"):
                problems.append(f"{b['verdict']}: traced body differs from the untraced body")
    return values, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not os.path.isfile(os.path.join(ROOT, "src", "kirchhoff", "cli.py")):
            raise BenchError("no kirchhoff sources under src/ in this checkout")
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)
        env = {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "OPENBLAS_NUM_THREADS": CHILD_ENV["OPENBLAS_NUM_THREADS"],
            "loadavg_before": os.getloadavg(),
        }
        # A first, unrecorded process fills the bytecode caches. The samples
        # are split around the verdicts so that they span the whole run.
        setup_seconds(1, deadline)
        setup = [] if args.trace else setup_seconds(SETUP_SAMPLES // 2, deadline)
        child = run_child(
            ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            deadline,
        )
        if not args.trace:
            setup += setup_seconds(SETUP_SAMPLES - len(setup), deadline)
        env.update(child.pop("libraries"), loadavg_after=os.getloadavg())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = check_rounds(child["rounds"] + child["traced"], expected)
    # A traced body that differs from its untraced twin also differs from the
    # expected body, so the verdict failures are counted once, here.
    failed = len(problems)
    attempted = sum(len(r["results"]) for r in child["rounds"] + child["traced"])
    if args.trace:
        metrics, trace_problems = per_layer(child)
        problems += trace_problems
        units, spread = PER_LAYER, {}
    else:
        rows = sum(expected.get(verdict_key(v), {}).get("rows", 0) for v in WORKLOADS[args.workload])
        metrics, spread = end_to_end(child, setup, rows)
        units = END_TO_END
    detail = {
        "workload": args.workload,
        "verdicts": WORKLOADS[args.workload],
        "seed": args.seed,
        "rounds": len(child["rounds"]),
        "traced_rounds": len(child["traced"]),
        "spread": spread,
        "failed_frac": failed / attempted,
        "problems": problems,
        "environment": env,
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
