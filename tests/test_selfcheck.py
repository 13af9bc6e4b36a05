"""The benchmark's self-check, run as a tier-1 test.

It fails when a traced layer goes unreached, so a renamed function or a
reference captured at import time cannot silently blind the per-layer trace.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_benchmark_selfcheck_passes():
    result = subprocess.run(
        [sys.executable, os.path.join("perfbench", "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip() == "selfcheck passed"
