"""The benchmark's verdicts keep their exit codes and report bodies byte for byte.

Every verdict in ``perfbench/expected.json`` runs through the CLI here at
``--jobs 2`` and ``--jobs 1``, and the per-graph verdicts whose scans span
more than one block also at ``--jobs 3``; a scan of one block runs inline
at any ``--jobs``.  Its exit code and the sha256 of its report without the
``elapsed_seconds:`` footer must match the recorded ones.  The file is only
read.
"""

import hashlib
import json
import os

import pytest

from kirchhoff.cli import main

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "perfbench", "expected.json"), encoding="utf-8") as fh:
    EXPECTED = json.load(fh)


def body_digest(report: str) -> str:
    lines = report.splitlines(keepends=True)
    body = "".join(line for line in lines if not line.startswith("elapsed_seconds:"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


THREE_JOBS = {
    "verify --theorem upper-bound --n 8 --p 4",
    "verify --theorem tree-count-bound --n 8 --p 4",
    *(f"verify --theorem min-ordering --n {n}" for n in (11, 12, 13)),
}

# the --jobs 2 case of a verdict is named by its expected.json key alone
CASES = [
    pytest.param(verdict, jobs, id=verdict if jobs == 2 else f"{verdict} --jobs {jobs}")
    for verdict in sorted(EXPECTED)
    for jobs in (2, 1, 3)
    if jobs < 3 or verdict in THREE_JOBS
]


@pytest.mark.parametrize("verdict, jobs", CASES)
def test_report_body_digest(verdict, jobs, capsys):
    code = main(verdict.split() + ["--jobs", str(jobs)])
    report = capsys.readouterr().out
    assert code == EXPECTED[verdict]["exit"]
    assert body_digest(report) == EXPECTED[verdict]["sha256"]


def test_min_ordering_needs_no_eigensolver(capsys, monkeypatch):
    import numpy as np

    def fail(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    verdict = "verify --theorem min-ordering --n 13"
    assert main(verdict.split()) == 0
    assert body_digest(capsys.readouterr().out) == EXPECTED[verdict]["sha256"]
