"""Child process of the benchmark: runs verdict rounds through kirchhoff.cli.main.

    python3 perfbench/verdicts.py --setup
        print the monotonic clock once kirchhoff.cli is imported, then exit
    python3 perfbench/verdicts.py --workload NAME --seed N --seconds S --trace 0|1
        run whole rounds of the workload's verdicts until S seconds have
        passed, then print one JSON object with the samples

Run from the checkout root with PYTHONPATH=src. A round is every verdict of
the workload once, in seed order. With --trace 1 the rounds alternate an
untraced and a traced round, both at --jobs 1, so that every span lands in
this process.
"""

import os
import sys
import time

import kirchhoff.cli

IMPORTED = time.monotonic()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import verdict_order, with_jobs  # noqa: E402


def body_digest(report: str) -> str:
    """sha256 of a report with its `elapsed_seconds:` footer line removed."""
    body = "".join(
        line for line in report.splitlines(keepends=True) if not line.startswith("elapsed_seconds:")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def run_verdict(main, verdict: str) -> dict:
    """Exit code, body digest and `checked:` count of one verdict, or its exception."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(verdict.split())
    except SystemExit as exc:
        code = exc.code
    except Exception as exc:  # a crash is a failed verdict, not a failed benchmark
        return {"verdict": verdict, "error": f"{type(exc).__name__}: {exc}"}
    report = out.getvalue()
    checked = [int(line.split()[1]) for line in report.splitlines() if line.startswith("checked: ")]
    return {
        "verdict": verdict,
        "exit": code,
        "digest": body_digest(report),
        "checked": checked[0] if checked else None,
    }


def cpu_seconds() -> float:
    """User plus system time of this process and of its reaped fork workers."""
    return sum(
        usage.ru_utime + usage.ru_stime
        for usage in (resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN))
    )


def run_round(main, verdicts: list[str]) -> dict:
    cpu0, t0 = cpu_seconds(), time.perf_counter()
    results = [run_verdict(main, v) for v in verdicts]
    t1, cpu1 = time.perf_counter(), cpu_seconds()
    return {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "results": results}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    source = os.path.abspath("src") + os.sep
    if not kirchhoff.cli.__file__.startswith(source):
        print(f"kirchhoff imported from {kirchhoff.cli.__file__}, not from {source}", file=sys.stderr)
        return 1
    if args.setup:
        print(json.dumps({"imported": IMPORTED}))
        return 0

    verdicts = verdict_order(args.workload, args.seed)
    rounds, traced = [], []
    tracer = spans.Tracer()
    start = time.perf_counter()
    if args.trace:
        verdicts = [with_jobs(v, 1) for v in verdicts]
        while not traced or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(kirchhoff.cli.main, verdicts))
            with spans.installed(tracer) as traced_main:
                traced.append(run_round(traced_main, verdicts))
    else:
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(kirchhoff.cli.main, verdicts))

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 2.0 has no mode="dicts"
        blas = "unknown"
    out = {
        "libraries": {"numpy": np.__version__, "blas": blas},
        "rounds": rounds,
        "traced": traced,
        "max_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "max_child_rss_kib": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if args.trace:
        out["self_s"] = dict(tracer.self_s)
        out["counts"] = dict(tracer.counts)
        out["root_s"] = tracer.root_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
