"""The benchmark's workloads: each is a list of `kirchhoff` CLI verdicts.

Every input is an exhaustive, deterministic space, so a workload needs no
generated data. The seed only fixes the order in which a multi-verdict
workload runs its verdicts.
"""

from __future__ import annotations

import random

# Batched subset pipeline: subset_blocks -> batch_eigenvalues (assembly plus
# eigvalsh) -> batch_kf -> pooling and the fork-pool merge, 2 workers. The
# criterion-7 verdict (`verify --theorem bicyclic-max --n 8`, 6,906,900 rows)
# takes 25-30 s on 2 cores, too long to repeat inside one run, so this is the
# same pipeline on the 293,930 nine-edge graphs on 7 labeled vertices.
SUBSET_SCAN = ["search --connected 7,8 --max --top 3 --jobs 2"]

# Integer wiener_block kernel plus the histogram: no eigensolve, no fork. The
# expected verdict is FAIL with exit 1: the tree ordering is broken at n=9
# (criterion 5), and the report pins the counterexamples.
TREE_SCAN = ["verify --theorem tree-ordering --n 9 --jobs 1"]

# Per-graph Python loops through graphs, spectral and verify; these verifiers
# ignore --jobs today, and min-ordering touches the batched kernel lightly.
PER_GRAPH = [
    f"verify --theorem {theorem} --n {n} --p {p} --jobs 2"
    for n in (6, 7, 8)
    for p in range(2, n // 2 + 1)
    for theorem in ("upper-bound", "tree-count-bound")
] + [f"verify --theorem min-ordering --n {n} --jobs 2" for n in (11, 12, 13)]

WORKLOADS: dict[str, list[str]] = {
    "subset-scan": SUBSET_SCAN,
    "tree-scan": TREE_SCAN,
    "per-graph": PER_GRAPH,
}


def verdict_order(workload: str, seed: int) -> list[str]:
    """The workload's verdicts in the order the seed gives them."""
    verdicts = list(WORKLOADS[workload])
    random.Random(seed).shuffle(verdicts)
    return verdicts


def verdict_key(verdict: str) -> str:
    """The verdict without its --jobs option: the report body must not depend on it."""
    words = verdict.split()
    i = words.index("--jobs")
    return " ".join(words[:i] + words[i + 2 :])


def with_jobs(verdict: str, jobs: int) -> str:
    """The same verdict with its --jobs value replaced."""
    words = verdict.split()
    words[words.index("--jobs") + 1] = str(jobs)
    return " ".join(words)
