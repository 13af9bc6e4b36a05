"""Write perfbench/expected.json: each verdict's exit code and report digest.

    PYTHONPATH=src python3 perfbench/make_expected.py

The expectations were generated once, at the commit that introduced the
benchmark, and are compared against by every later run. Regenerate them only
when a change is meant to alter a report, and review the diff: rewriting them
so that a defect reads as a pass defeats the check. tree-scan is expected to
FAIL with exit 1 (criterion 5 is false at n=9).
"""

import json
import math
import sys

import kirchhoff.cli

from run import EXPECTED
from verdicts import run_verdict
from workloads import WORKLOADS, verdict_key


def rows(verdict: str, report_rows: int | None) -> int:
    """Rows a verdict checks: its `checked:` count, or the searched space's size."""
    if report_rows is not None:
        return report_rows
    words = verdict.split()
    n, m = (int(x) for x in words[words.index("--connected") + 1].split(","))
    return math.comb(n * (n - 1) // 2, m)


def main() -> int:
    expected = {}
    for verdicts in WORKLOADS.values():
        for verdict in verdicts:
            result = run_verdict(kirchhoff.cli.main, verdict)
            if "error" in result:
                print(f"{verdict}: {result['error']}", file=sys.stderr)
                return 1
            expected[verdict_key(verdict)] = {
                "exit": result["exit"],
                "sha256": result["digest"],
                "rows": rows(verdict, result["checked"]),
            }
            print(verdict, expected[verdict_key(verdict)], file=sys.stderr)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
