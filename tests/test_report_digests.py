"""The benchmark's verdicts keep their exit codes and report bodies byte for byte.

Every verdict in ``perfbench/expected.json`` that finishes within about
1.5 s at ``--jobs 2`` runs through the CLI here; its exit code and the
sha256 of its report without the ``elapsed_seconds:`` footer must match
the recorded ones.  The file is only read.
"""

import hashlib
import json
import os

import pytest

from kirchhoff.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "perfbench", "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)

# several seconds each; perfbench/run.py checks them
SLOW = {
    "verify --theorem upper-bound --n 8 --p 4",
    "verify --theorem tree-count-bound --n 8 --p 4",
    "verify --theorem tree-ordering --n 9",
}


def body_digest(report: str) -> str:
    lines = report.splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("elapsed_seconds:"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("verdict", sorted(set(EXPECTED) - SLOW))
def test_report_body_digest(verdict, capsys):
    code = main(verdict.split() + ["--jobs", "2"])
    report = capsys.readouterr().out
    assert code == EXPECTED[verdict]["exit"]
    assert body_digest(report) == EXPECTED[verdict]["sha256"]
