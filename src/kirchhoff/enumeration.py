"""Enumeration spaces for exhaustive verification, with bulk scan kernels.

Three labeled spaces are supported (no isomorphism reduction; universally
quantified claims are safe to check with duplicates):

* ``deleted-edges``: K_n minus every p-subset of its edges;
* ``labeled-trees``: the tree decoded from every length-(n-2) sequence over
  the vertex alphabet (smallest-leaf decoding rule);
* ``connected-with-edges``: every m-subset of E(K_n), filtered to connected.

An :class:`EnumerationSpec` is the only description of a space: the budget
check, the scan's block walk and the member at a rank (:func:`member`) all
derive from it.  Cardinalities are checked against a budget up front, so
large requests refuse gracefully.  Each space has one unranker, used by
both the scan's blocks and :func:`member` (:func:`unrank_rows` for subsets,
:func:`prufer_rows` for trees), and one map (:func:`row_graph`) turns a row
into its graph.  One smallest-leaf decoder (:func:`prufer_steps`) serves
both :func:`prufer_decode` and the Wiener kernel.  Every space is walked in
blocks of up to 2^15 rows (:func:`block_rows`); the subset Kf kernel
eigensolves only a block's connected rows, found by an exact bitmask test
(:func:`batch_connected`).  One scan engine (:func:`scan`) runs every
exhaustive scan: work splits into disjoint rank ranges, one per job, and
every block's partial result merges in rank order.  Every row is visited
once for any job count, but the block boundaries move with it; :func:`scan`
says what that can change.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .graphs import Graph, complete_edge_table, is_connected, make_graph
from .spectral import zero_tolerance

DEFAULT_BUDGET = 10**8

# The one tie rule (see tied): relative gap between two Kf values that makes them two values.
TIE_TOL = 1e-7


class BudgetExceededError(ValueError):
    """Requested space is larger than the enumeration budget."""

    def __init__(self, cardinality: int, budget: int):
        super().__init__(f"space has {cardinality} members, budget is {budget}")
        self.cardinality = cardinality
        self.budget = budget


@dataclass(frozen=True)
class EnumerationSpec:
    """A quantifier domain: mode and size parameters."""

    mode: str
    n: int
    count: int | None = None


def _check_n(n: int) -> None:
    """Every space holds 2..62 vertices: witnesses print as graph6, whose one size
    byte stops at 62, and batch_connected's int64 neighbour masks hold that many."""
    if not 2 <= n <= 62:
        raise ValueError(f"enumeration spaces need 2 <= n <= 62, got n={n}")


def deleted_edges(n: int, p: int) -> EnumerationSpec:
    _check_n(n)
    if not 0 <= p <= n * (n - 1) // 2:
        raise ValueError(f"cannot delete {p} edges from K_{n}")
    return EnumerationSpec("deleted-edges", n, p)


def labeled_trees(n: int) -> EnumerationSpec:
    _check_n(n)
    return EnumerationSpec("labeled-trees", n)


def connected_with_edges(n: int, m: int) -> EnumerationSpec:
    _check_n(n)
    if not 0 <= m <= n * (n - 1) // 2:
        raise ValueError(f"no {m}-edge graphs on {n} vertices")
    return EnumerationSpec("connected-with-edges", n, m)


def cardinality(spec: EnumerationSpec) -> int:
    """Exact number of raw members (before any connectivity filtering)."""
    full = spec.n * (spec.n - 1) // 2
    if spec.mode in ("deleted-edges", "connected-with-edges"):
        return math.comb(full, spec.count)
    if spec.mode == "labeled-trees":
        return spec.n ** (spec.n - 2)
    raise ValueError(f"unknown enumeration mode {spec.mode!r}")


def check_budget(spec: EnumerationSpec, budget: int = DEFAULT_BUDGET) -> int:
    size = cardinality(spec)
    if size > budget:
        raise BudgetExceededError(size, budget)
    return size


def prufer_decode(seq: tuple[int, ...], n: int) -> Graph:
    """Tree for a vertex sequence of length n-2, by the smallest-leaf rule."""
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be n-2={n - 2}")
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} outside [0,{n})")
    steps = prufer_steps(n, np.array(seq, dtype=np.int64).reshape(1, n - 2))
    return make_graph(n, [(int(leaf[0]), int(parent[0])) for leaf, parent in steps])


def member(spec: EnumerationSpec, rank: int) -> Graph:
    """The raw member at ``rank`` in the order the scans number it (possibly disconnected)."""
    total = cardinality(spec)
    if not 0 <= rank < total:
        raise ValueError(f"rank {rank} outside [0, {total})")
    n = spec.n
    if spec.mode == "labeled-trees":
        row = prufer_rows(n, [rank])[0]
    else:
        row = unrank_rows(n * (n - 1) // 2, spec.count, [rank])[0]
    return row_graph(spec, row.tolist())


def row_graph(spec: EnumerationSpec, row: list[int]) -> Graph:
    """The graph a row stands for: the tree a Prüfer row decodes to, or the
    edges of K_n a subset row selects (in ``deleted-edges`` mode, leaves)."""
    if spec.mode == "labeled-trees":
        return prufer_decode(row, spec.n)
    table = complete_edge_table(spec.n)
    chosen = {table[i] for i in row}
    return make_graph(spec.n, set(table) - chosen if spec.mode == "deleted-edges" else chosen)


def enumerate_space(
    spec: EnumerationSpec, budget: int = DEFAULT_BUDGET
) -> Iterator[Graph]:
    """Stream every member of the space exactly once, in rank order (labeled
    objects; ``connected-with-edges`` streams only its connected members)."""
    for _, rows in _blocks(spec, 0, check_budget(spec, budget)):
        for row in rows.tolist():
            g = row_graph(spec, row)
            if spec.mode != "connected-with-edges" or is_connected(g):
                yield g


# ---------------------------------------------------------------------------
# Bulk kernels


@lru_cache(maxsize=None)
def _colex_binomials(m: int, k: int) -> np.ndarray:
    """(k+1, m) table of C(t, i) for slot i and element t, capped at the int64 maximum."""
    cap = np.iinfo(np.int64).max
    return np.array([[min(math.comb(t, i), cap) for t in range(m)] for i in range(k + 1)], dtype=np.int64)


def unrank_rows(m: int, k: int, ranks) -> np.ndarray:
    """(B, k) index array: the lexicographically rank-th k-subset of range(m)
    for each rank in [0, C(m,k)).

    Lex rank r of S is colex rank C(m,k)-1-r of {m-1-x : x in S}, so all
    rows unrank at once, one ``searchsorted`` per slot.
    """
    total = math.comb(m, k)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"C({m},{k}) = {total} subsets do not fit int64 ranks")
    table = _colex_binomials(m, k)
    colex = total - 1 - np.asarray(ranks, dtype=np.int64)
    rows = np.empty((colex.size, k), dtype=np.int64)
    for i in range(k, 0, -1):
        t = np.searchsorted(table[i], colex, side="right") - 1
        colex -= table[i, t]
        rows[:, k - i] = m - 1 - t
    return rows


def subset_blocks(
    m: int, k: int, start: int, stop: int, block: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (first rank, (B,k) index array) over lexicographic k-subsets."""
    stop = min(stop, math.comb(m, k))
    for rank in range(start, stop, block):
        yield rank, unrank_rows(m, k, np.arange(rank, min(rank + block, stop), dtype=np.int64))


def prufer_rows(n: int, ranks) -> np.ndarray:
    """(B, n-2) digit array: the rank-th length-(n-2) sequence over range(n),
    most significant digit first, for each rank in [0, n^(n-2))."""
    if n ** (n - 2) > np.iinfo(np.int64).max:
        raise ValueError(f"{n}^{n - 2} sequences do not fit int64 ranks")
    powers = n ** np.arange(n - 3, -1, -1, dtype=np.int64)
    return np.asarray(ranks, dtype=np.int64)[:, None] // powers % n


def prufer_steps(n: int, rows: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(leaf, parent) arrays for each of the n-1 edges the smallest-leaf rule
    decodes from (B, n-2) Prüfer rows, in decoding order.

    Step k joins the smallest leaf to digit k and prunes the leaf; the last
    step joins the two vertices left.
    """
    B = rows.shape[0]
    degree = np.ones((B, n), dtype=np.int16)
    flat = (rows + n * np.arange(B, dtype=np.int64)[:, None]).ravel()
    degree += np.bincount(flat, minlength=B * n).reshape(B, n).astype(np.int16)
    idx = np.arange(B)
    for k in range(n - 2):
        leaf = np.argmax(degree == 1, axis=1)
        parent = rows[:, k]
        yield leaf, parent
        degree[idx, leaf] = 0
        degree[idx, parent] -= 1
    ends = degree == 1
    yield np.argmax(ends, axis=1), n - 1 - np.argmax(ends[:, ::-1], axis=1)


@lru_cache(maxsize=None)
def _edge_endpoints(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays (u, v) of E(K_n) in table order."""
    return tuple(np.array(complete_edge_table(n), dtype=np.int64).reshape(-1, 2).T)


@lru_cache(maxsize=None)
def _edge_bits(n: int) -> np.ndarray:
    """(n, m) int64: column e holds edge e's bit in each vertex's neighbour bitmask."""
    eu, ev = _edge_endpoints(n)
    bits = np.zeros((n, eu.size), dtype=np.int64)
    bits[eu, np.arange(eu.size)] = np.left_shift(1, ev)
    bits[ev, np.arange(eu.size)] = np.left_shift(1, eu)
    return bits


def batch_connected(n: int, subsets: np.ndarray, deleted: bool) -> np.ndarray:
    """Exact connectivity of each subset row's graph (n <= 62, one int64 bitmask per vertex).

    The set reached from vertex 0 grows by the neighbours of its members,
    one sweep over the vertices at a time, until no row changes.
    """
    bits = _edge_bits(n)
    masks = np.take(bits, subsets.T, axis=1).sum(axis=1)  # (n, B)
    if deleted:
        masks = bits.sum(axis=1)[:, None] - masks
    reach = np.ones(subsets.shape[0], dtype=np.int64)
    while True:
        before = reach.copy()
        for v in range(n):
            reach |= masks[v] & -((reach >> v) & 1)
        if np.array_equal(before, reach):
            return reach == (1 << n) - 1


def batch_adjacency(n: int, subsets: np.ndarray, dtype) -> np.ndarray:
    """(B, n, n) adjacency matrices of the graphs whose edges the subset rows select."""
    eu, ev = _edge_endpoints(n)
    A = np.zeros((subsets.shape[0], n, n), dtype=dtype)
    rows = np.arange(subsets.shape[0])[:, None]
    A[rows, eu[subsets], ev[subsets]] = 1
    A[rows, ev[subsets], eu[subsets]] = 1
    return A


def batch_degrees(n: int, subsets: np.ndarray) -> np.ndarray:
    """(B, n) vertex degrees of the graphs whose edges the subset rows select."""
    eu, ev = _edge_endpoints(n)
    B = subsets.shape[0]
    ends = np.hstack([eu[subsets], ev[subsets]]) + n * np.arange(B)[:, None]
    return np.bincount(ends.ravel(), minlength=B * n).reshape(B, n)


def batch_eigenvalues(n: int, subsets: np.ndarray, deleted: bool) -> np.ndarray:
    """Ascending Laplacian eigenvalues for each subset row.

    Rows select edges of K_n by index; ``deleted`` interprets the subset as
    removed from K_n rather than as the edge set itself.  Off-diagonal zeros
    are -0.0, as -A gives: LAPACK's Householder step reads the sign of zero.
    """
    deg = batch_degrees(n, subsets)
    eu, ev = _edge_endpoints(n)
    B = subsets.shape[0]
    u, v = eu[subsets], ev[subsets]
    rows = np.arange(B)[:, None]
    L = np.full((B, n, n), -1.0 if deleted else -0.0)
    L[rows, u, v] = L[rows, v, u] = -0.0 if deleted else -1.0
    diag = np.arange(n)
    L[:, diag, diag] = n - 1 - deg if deleted else deg
    return np.linalg.eigvalsh(L)


def batch_kf(n: int, eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(connected mask, Kirchhoff index) per row; Kf is NaN when disconnected."""
    connected = eigs[:, 1] > zero_tolerance(n - 1)  # n - 1 bounds every row's degree
    with np.errstate(divide="ignore"):
        kf = n * np.sum(1.0 / np.maximum(eigs[:, 1:], 1e-300), axis=1)
    kf[~connected] = np.nan
    return connected, kf


def batch_cycle_length(n: int, subsets: np.ndarray) -> np.ndarray:
    """Vertices left after iterated leaf removal (the cycle, for unicyclic rows)."""
    A = batch_adjacency(n, subsets, bool)
    for _ in range(n):
        deg = A.sum(axis=2)
        leaves = deg == 1
        if not leaves.any():
            break
        keep = ~leaves
        A &= keep[:, :, None] & keep[:, None, :]
    return (A.sum(axis=2) > 0).sum(axis=1)


def wiener_block(n: int, rows: np.ndarray) -> np.ndarray:
    """Exact Wiener index of the labeled tree behind each (B, n-2) Prüfer row.

    Each decoding step prunes a leaf whose side of the tree has s vertices,
    and s(n-s) vertex pairs cross that edge; their sum over the steps
    reproduces the per-tree BFS value.
    """
    B = rows.shape[0]
    size = np.ones((B, n), dtype=np.int16)
    W = np.zeros(B, dtype=np.int64)
    idx = np.arange(B)
    for leaf, parent in prufer_steps(n, rows):
        s = size[idx, leaf].astype(np.int64)
        W += s * (n - s)
        size[idx, parent] += s.astype(np.int16)
    return W


# ---------------------------------------------------------------------------
# Value-group pooling


def tied(a, b):
    """The one tie rule: ``|a - b| <= TIE_TOL * max(1, |b|)``, elementwise on arrays."""
    return np.abs(a - b) <= TIE_TOL * np.maximum(1.0, np.abs(b))


def _sorted_groups(vals: np.ndarray, objective: str) -> tuple[np.ndarray, np.ndarray]:
    """(preference order of nonempty ``vals``, value-group id of each sorted value);
    a group ends where a sorted value is not tied with the one before it."""
    sign = -1.0 if objective == "max" else 1.0
    order = np.argsort(sign * vals, kind="stable")
    ordered = vals[order]
    new_group = ~tied(ordered[1:], ordered[:-1])
    return order, np.concatenate([[0], np.cumsum(new_group)])


def _pool_top_groups(
    vals: np.ndarray, ranks: np.ndarray, objective: str, top: float
) -> tuple[np.ndarray, np.ndarray]:
    """Keep every member of the first ``top`` value groups (every row, unsorted, if infinite)."""
    if vals.size == 0 or top == math.inf:
        return vals, ranks
    order, groups = _sorted_groups(vals, objective)
    keep = order[groups < top]
    return vals[keep], ranks[keep]


def value_groups(
    vals: np.ndarray, ranks: np.ndarray, objective: str, top: int
) -> list[tuple[float, np.ndarray]]:
    """The first ``top`` value groups of a pool: (value of the lowest-rank member, sorted ranks)."""
    if vals.size == 0:
        return []
    order, ids = _sorted_groups(vals, objective)
    groups = []
    for gid in range(min(top, int(ids[-1]) + 1)):
        members = order[ids == gid]
        lead = vals[members[np.argmin(ranks[members])]]
        groups.append((float(lead), np.sort(ranks[members])))
    return groups


# ---------------------------------------------------------------------------
# The scan engine: one worker turns each block of a contiguous rank range
# into a partial result with a kernel; one driver splits [0, total) across
# jobs and merges every block's partial in rank order.


def block_rows(n: int) -> int:
    """Rows per scan block in every space: the largest power of two <= 2^15
    whose (rows, n, n) Laplacian stack has at most 3 * 2^20 entries, which
    keeps a fork worker's peak memory from growing with n."""
    rows = 1 << 15
    while rows * n * n > 3 << 20:
        rows >>= 1
    return rows


def _blocks(spec: EnumerationSpec, start: int, stop: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first rank, rows) for each block of the ranks [start, stop) of ``spec``."""
    n, block = spec.n, block_rows(spec.n)
    if spec.mode == "labeled-trees":
        ranks = range(start, stop, block)
        return ((r, prufer_rows(n, np.arange(r, min(r + block, stop)))) for r in ranks)
    return subset_blocks(n * (n - 1) // 2, spec.count, start, stop, block)


def _scan_worker(task) -> list:
    """``kernel(first rank, rows)`` for each block of one contiguous rank range:
    (B, k) subset index rows, or (B, n-2) Prüfer digit rows in a tree space."""
    spec, kernel, start, stop = task
    return [kernel(rank0, rows) for rank0, rows in _blocks(spec, start, stop)]


def scan(spec: EnumerationSpec, kernel, merge, jobs: int = 1, budget: int = DEFAULT_BUDGET):
    """``merge`` of every block's ``kernel(first rank, rows)`` over ``spec``, in rank order.

    A space larger than ``budget`` raises :class:`BudgetExceededError`
    before any block runs.  Its ranks [0, total) split into ``jobs``
    contiguous ranges, run inline at jobs=1 and otherwise in a fork pool
    of at most one worker per usable CPU, where ``kernel`` must pickle (a
    module-level function or a partial of one).  A range can start
    mid-block, so block boundaries depend on ``jobs``; per-row values,
    counts, failures and histograms do not.  Pooled value groups do when
    near-ties chain across more than TIE_TOL, since a block missing a
    middle value splits the chain; exact tie adjudication would remove
    that dependence.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    total = check_budget(spec, budget)
    jobs = min(jobs, total)
    bounds = [total * i // jobs for i in range(jobs + 1)]
    tasks = [(spec, kernel, bounds[i], bounds[i + 1]) for i in range(jobs)]
    if jobs == 1:
        return merge(_scan_worker(tasks[0]))
    workers = min(jobs, len(os.sched_getaffinity(0)))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return merge([part for parts in pool.map(_scan_worker, tasks) for part in parts])


@dataclass
class SubsetScan:
    """Partial or whole result of a scan over a subset space.

    ``checked`` counts every row and ``connected`` the connected ones;
    ``vals`` and ``ranks`` pool every member of the best value groups;
    ``failures`` holds per-row check failures in rank order; ``by_key``
    splits the rows by a kernel's key (cycle length, deletion pattern).
    """

    checked: int
    connected: int
    vals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ranks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    failures: list = field(default_factory=list)
    by_key: dict = field(default_factory=dict)


def merge_subset_scans(objective: str, top: float, parts: list[SubsetScan]) -> SubsetScan:
    """One result from rank-ordered partials, keeping the ``top`` value groups."""
    keys = sorted({key for p in parts for key in p.by_key})
    merge = partial(merge_subset_scans, objective, top)
    return SubsetScan(
        sum(p.checked for p in parts),
        sum(p.connected for p in parts),
        *_pool_top_groups(
            np.concatenate([p.vals for p in parts]),
            np.concatenate([p.ranks for p in parts]),
            objective, top,
        ),
        [f for p in parts for f in p.failures],
        {key: merge([p.by_key[key] for p in parts if key in p.by_key]) for key in keys},
    )


def _kf_kernel(n, deleted, objective, top, classify, rank0, subs) -> SubsetScan:
    idx = np.flatnonzero(batch_connected(n, subs, deleted))
    _, kf = batch_kf(n, batch_eigenvalues(n, subs[idx], deleted))
    if classify is None:
        pooled = _pool_top_groups(kf, rank0 + idx, objective, top)
        return SubsetScan(subs.shape[0], idx.size, *pooled)
    keys = classify(n, subs[idx])
    by_key = {}
    for key in np.unique(keys):
        sel = np.flatnonzero(keys == key)
        pooled = _pool_top_groups(kf[sel], rank0 + idx[sel], objective, top)
        by_key[int(key)] = SubsetScan(sel.size, sel.size, *pooled)
    return SubsetScan(subs.shape[0], idx.size, by_key=by_key)


def scan_subsets(
    spec: EnumerationSpec,
    objective: str,
    top: float,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    classify=None,
) -> SubsetScan:
    """Pooled members of the ``top`` best Kf value groups over a subset space.

    With ``classify(n, rows)``, which gives an integer key per connected
    row, the pools are kept per key in ``by_key`` instead.
    """
    return scan(
        spec,
        partial(_kf_kernel, spec.n, spec.mode == "deleted-edges", objective, top, classify),
        partial(merge_subset_scans, objective, top),
        jobs,
        budget,
    )


@dataclass
class TreeScan:
    count: int
    hist: np.ndarray
    first_rank: dict[int, int]


def _wiener_kernel(n, rank0, rows) -> TreeScan:
    W = wiener_block(n, rows)
    hist = np.bincount(W, minlength=n**3 // 6 + 2)
    first_rank = {int(w): rank0 + int(np.argmax(W == w)) for w in np.flatnonzero(hist)}
    return TreeScan(rows.shape[0], hist, first_rank)


def _merge_histograms(parts: list[TreeScan]) -> TreeScan:
    first_rank: dict[int, int] = {}
    for part in parts:  # rank order: the first sighting has the lowest rank
        for w, rank in part.first_rank.items():
            first_rank.setdefault(w, rank)
    return TreeScan(sum(p.count for p in parts), sum(p.hist for p in parts), first_rank)


def scan_labeled_trees(
    spec: EnumerationSpec, jobs: int = 1, budget: int = DEFAULT_BUDGET
) -> TreeScan:
    """Exact Wiener histogram over all labeled trees, with first-rank witnesses."""
    return scan(spec, partial(_wiener_kernel, spec.n), _merge_histograms, jobs, budget)
