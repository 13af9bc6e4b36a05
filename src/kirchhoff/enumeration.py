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
:func:`member` (:func:`unrank_rows` for subsets, which :func:`rank_rows`
inverts; :func:`prufer_rows` for trees, also in streaming), and one map
(:func:`row_graph`) turns a row into its graph.  A subset block
(:class:`SubsetBlock`, from :func:`subset_blocks`) splits each row into a
prefix, unranked once per run of rows that shares it, and its last L slots,
one row of a per-(m, L) lex table of L-subsets (:func:`subset_tail_length`).
One smallest-leaf decoder (:func:`prufer_steps`) serves both
:func:`prufer_decode` and the Wiener kernel (:func:`wiener_block`): each
leaf is the lowest zero bit of int64 vertex bitmasks, and the kernel packs
a tree's subtree sizes into 4-bit lanes of one int64.  The kernel takes a range of ranks, not digit rows:
the first n-2-L decoding steps depend only on a rank's prefix and the set
of its last L digits (:func:`tail_length`), so they run once per such
class, and the last L+1 steps run per rank from tables that repeat with
period n^L.  Every space is
walked in blocks of up to 2^14 rows (:func:`block_rows`).  A block's
connected ``connected-with-edges`` rows (:func:`block_connected`, by vertex
bitmasks in the narrowest lane that holds n bits, each row's masks its
prefix's OR its tail's) take Kf from the inverse of their reduced Laplacian, by a
Gauss-Jordan sweep across a rows-last stack of them, each its prefix's
with its tail's edges and degrees added (:func:`block_kf_sweep`), with no
eigensolve.
K_n is (n-1)-edge-connected, so every ``deleted-edges`` row with p <= n - 2
is connected; it is eigensolved once per distinct p x p Gram matrix of its
p deleted edges in a block
(:func:`gram_classes`, keyed from a per-n edge-pair table by
:func:`gram_keys`), and a space with p >= n - 1 scans as the
``connected-with-edges`` space of its complements (:func:`scan_subsets`).
Every p-edge set of K_n, n >= 2p,
falls into one exact class of :func:`deletion_classes`, with its labeled
count and lowest-rank member, found by one inline scan at 2p vertices, so
the deleted-edge verifiers scan no labeled space.  The tree scan
(:func:`scan_labeled_trees`) walks only a prefix of its space: its Wiener
histogram is counted by a rooted-forest recurrence (:func:`wiener_counts`),
and it decodes inline, from rank 0, only the blocks up to the last value's
first tree.  One scan engine (:func:`scan`) runs every other exhaustive
scan: blocks start at multiples of the block size, each job takes a run of
whole blocks, and every block's partial result merges in rank order, so
the job count changes no block and no result.  It forks only where each
worker gets at least ``FORK_BLOCKS`` blocks, and imports
:mod:`multiprocessing` only then, so inline scans never load it.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .graphs import Graph, complete_edge_table, is_connected, make_graph
from .spectral import batch_determinant, charpoly, check_tree_counts, zero_tolerance

DEFAULT_BUDGET = 10**8

# The one tie rule (see tied): relative gap between two Kf values that makes them two values.
TIE_TOL = 1e-7

# Rows per Gauss-Jordan sweep (block_kf_sweep) and per Gram-key pass of the class
# scan: every block's rows go through arrays of this one size, which the allocator
# reuses, where one array per block would vary in size and fragment the heap.  It
# also bounds the tail tables of the subset blocks (subset_tail_length), which
# hold at most SWEEP_ROWS rows each.
SWEEP_ROWS = 2048

# Fewest blocks a fork worker takes (scan).  No one count fits every space: a
# block's cost varies twenty-fold with its kernel and its share of connected
# rows.  On 2 cores a second worker cost 13 to 23 ms on the sparse and
# Gram-route spaces of 2 or 3 blocks at n = 7..12; it would save about 55 ms
# on the dense ones, connected_with_edges(11, 52) and (12, 63), which run
# inline.  A larger count would keep dense spaces of 4 and 5 blocks inline
# too: connected_with_edges(9, 32) took 171 ms inline and 136 ms on two
# workers, (13, 75) 880 and 465 ms.
FORK_BLOCKS = 2


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


def check_n(n: int) -> None:
    """Every space, Prüfer decode and verifier holds 2..62 vertices: witnesses print
    as graph6, whose one size byte stops at 62, and the vertex bitmasks of
    _neighbour_masks (int64 past 32 vertices) and prufer_steps (int64) hold that many."""
    if not 2 <= n <= 62:
        raise ValueError(f"enumeration spaces need 2 <= n <= 62, got n={n}")


def deleted_edges(n: int, p: int) -> EnumerationSpec:
    check_n(n)
    if not 0 <= p <= n * (n - 1) // 2:
        raise ValueError(f"cannot delete {p} edges from K_{n}")
    return EnumerationSpec("deleted-edges", n, p)


def labeled_trees(n: int) -> EnumerationSpec:
    check_n(n)
    return EnumerationSpec("labeled-trees", n)


def connected_with_edges(n: int, m: int) -> EnumerationSpec:
    check_n(n)
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
    check_n(n)
    if len(seq) != n - 2:
        raise ValueError(f"sequence length must be n-2={n - 2}")
    for x in seq:
        if not 0 <= x < n:
            raise ValueError(f"sequence entry {x} outside [0,{n})")
    digits = np.array(seq, dtype=np.int64).reshape(n - 2, 1)
    steps = prufer_steps(suffix_masks(digits), [*digits, [n - 1]], np.zeros(1, dtype=np.int64))
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
        rows = prufer_rows(spec.n, rows) if spec.mode == "labeled-trees" else rows.rows
        for row in rows.tolist():
            g = row_graph(spec, row)
            if spec.mode != "connected-with-edges" or is_connected(g):
                yield g


# ---------------------------------------------------------------------------
# Bulk kernels


@lru_cache(maxsize=None)
def _colex_binomials(m: int, k: int) -> np.ndarray:
    """(k+1, m) table of C(t, i) for slot i and element t, capped at the int64 maximum.

    Column t comes from column t-1 by Pascal's rule, saturated as
    min(a, cap - b) + b = min(a + b, cap), so every entry stays in int64.
    """
    cap = np.iinfo(np.int64).max
    table = np.zeros((k + 1, m), dtype=np.int64)
    table[0] = 1
    for t in range(1, m):
        above = table[:, t - 1]
        table[1:, t] = np.minimum(above[1:], cap - above[:-1]) + above[:-1]
    return table


def unrank_rows(m: int, k: int, ranks) -> np.ndarray:
    """(B, k) index array: the lexicographically rank-th k-subset of range(m)
    for each rank in [0, C(m,k)).

    Lex rank r of S is colex rank C(m,k)-1-r of {m-1-x : x in S}, so all
    rows unrank at once, one ``searchsorted`` per slot.  Past k = m/2 the
    rows are the complements of the (m-k)-subsets at rank C(m,k)-1-r, whose
    lex order is the reverse, so no row takes more than m/2 slot steps.
    """
    total = math.comb(m, k)
    if total > np.iinfo(np.int64).max:
        raise ValueError(f"C({m},{k}) = {total} subsets do not fit int64 ranks")
    colex = total - 1 - np.asarray(ranks, dtype=np.int64)
    if 2 * k > m:
        return _complements(m, unrank_rows(m, m - k, colex))
    table = _colex_binomials(m, k)
    rows = np.empty((colex.size, k), dtype=np.int64)
    for i in range(k, 0, -1):
        t = np.searchsorted(table[i], colex, side="right") - 1
        colex -= table[i, t]
        rows[:, k - i] = m - 1 - t
    return rows


def rank_rows(m: int, k: int, rows) -> np.ndarray:
    """(B,) lexicographic rank of each (B, k) row of increasing elements of range(m),
    the inverse of :func:`unrank_rows` by the same colex and complement identities."""
    rows = np.asarray(rows, dtype=np.int64)
    if 2 * k > m:
        return math.comb(m, k) - 1 - rank_rows(m, m - k, _complements(m, rows))
    colex = _colex_binomials(m, k)[np.arange(k, 0, -1), m - 1 - rows].sum(axis=1, dtype=np.int64)
    return math.comb(m, k) - 1 - colex


def _complements(m: int, rows: np.ndarray) -> np.ndarray:
    """(B, m-k) increasing elements of range(m) that each (B, k) row of distinct elements leaves out."""
    keep = np.ones((rows.shape[0], m), dtype=bool)
    keep[np.arange(rows.shape[0])[:, None], rows] = False
    return np.nonzero(keep)[1].reshape(rows.shape[0], m - rows.shape[1])


def subset_tail_length(m: int, k: int) -> int:
    """L, the last slots of a k-subset row, which a subset block reads from the lex
    table of L-subsets of range(m): the largest L <= k with C(m, j) <= SWEEP_ROWS
    for every j <= L."""
    L = 0
    while L < k and math.comb(m, L + 1) <= SWEEP_ROWS:
        L += 1
    return L


@lru_cache(maxsize=None)
def _tail_rows(m: int, L: int) -> np.ndarray:
    """(C(m, L), L) lex table of every L-subset of range(m), shared by every subset
    block at (m, L) and read-only."""
    rows = unrank_rows(m, L, np.arange(math.comb(m, L)))
    rows.flags.writeable = False
    return rows


@dataclass(frozen=True, eq=False)  # blocks hold arrays: equal only to themselves
class SubsetBlock:
    """Consecutive lexicographic k-subsets of range(m), each split into its first
    k - L slots, one of the block's ``prefixes``, and its last L, one row of
    ``tails``, the lex table of every L-subset of range(m)
    (:func:`subset_tail_length`): row i is ``prefixes[pid[i]]`` beside ``tails[tid[i]]``."""

    prefixes: np.ndarray
    tails: np.ndarray
    pid: np.ndarray
    tid: np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.pid.size, self.prefixes.shape[1] + self.tails.shape[1]

    def __len__(self) -> int:
        return self.pid.size

    @property
    def rows(self) -> np.ndarray:
        """The (B, k) index rows, built on each call."""
        prefixes, tails = np.take(self.prefixes, self.pid, axis=0), np.take(self.tails, self.tid, axis=0)
        return np.concatenate([prefixes, tails], axis=1)


def _subset_block(m: int, k: int, tails: np.ndarray, first: int, stop: int) -> SubsetBlock:
    """The block of the lex ranks [first, stop) of the k-subsets of range(m).

    A row's tail of L = ``tails.shape[1]`` slots lies above its prefix P, so
    the prefixes are the (k-L)-subsets of range(m-L) in lex order, and P owns
    the rows whose tails are the last C(m-1-max P, L) rows of the tail table.
    The block's prefixes run from its first row's to its last row's, and the
    first and last runs are cut at those rows' tails.
    """
    L = tails.shape[1]
    ends = unrank_rows(m, k, [first, stop - 1])
    lo, hi = rank_rows(m - L, k - L, ends[:, : k - L])
    prefixes = unrank_rows(m - L, k - L, np.arange(lo, hi + 1))
    top = prefixes.max(axis=1, initial=-1)
    start = tails.shape[0] - _colex_binomials(m + 1, L)[L, m - 1 - top]
    end = np.full(prefixes.shape[0], tails.shape[0])
    start[0], end[-1] = rank_rows(m, L, ends[:, k - L :]) + [0, 1]
    owned = end - start
    pid = np.repeat(np.arange(prefixes.shape[0]), owned)
    tid = np.arange(stop - first) + np.repeat(start - np.cumsum(owned) + owned, owned)
    return SubsetBlock(prefixes, tails, pid, tid)


def subset_blocks(
    m: int, k: int, start: int, stop: int, block: int
) -> Iterator[tuple[int, SubsetBlock]]:
    """Yield (first rank, :class:`SubsetBlock` of at most ``block`` rows) over lexicographic k-subsets."""
    stop = min(stop, math.comb(m, k))
    tails = _tail_rows(m, subset_tail_length(m, k))
    for rank in range(start, stop, block):
        yield rank, _subset_block(m, k, tails, rank, min(rank + block, stop))


def _digits(n: int, length: int, ranks) -> np.ndarray:
    """(length, B) base-n digits of each rank, most significant first; one divmod
    per digit fills a digit-major array, so each digit row is contiguous."""
    quotient = np.array(ranks, dtype=np.int64)
    digits = np.empty((length, quotient.size), dtype=np.int64)
    for k in range(length - 1, -1, -1):
        np.divmod(quotient, n, out=(quotient, digits[k]))
    return digits


def prufer_rows(n: int, ranks) -> np.ndarray:
    """(B, n-2) digit array: the rank-th length-(n-2) sequence over range(n),
    most significant digit first, for each rank in [0, n^(n-2))."""
    if n ** (n - 2) > np.iinfo(np.int64).max:
        raise ValueError(f"{n}^{n - 2} sequences do not fit int64 ranks")
    return _digits(n, n - 2, ranks).T


def suffix_masks(digits: np.ndarray) -> np.ndarray:
    """(k+1, B) int64 from (k, B) digit-major rows: row j is the bitmask of the
    digits ``digits[j:]``, and row k is 0."""
    masks = np.zeros((digits.shape[0] + 1, digits.shape[1]), dtype=np.int64)
    np.left_shift(1, digits, out=masks[:-1])
    for k in range(digits.shape[0] - 1, -1, -1):
        masks[k] |= masks[k + 1]
    return masks


def prufer_steps(suffix, parents, pruned: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(leaf, parent) for each step of the smallest-leaf rule, in decoding order.

    Leaf k is the smallest vertex neither in ``pruned`` nor among the digits
    still to come, whose bitmask is ``suffix[k]`` (:func:`suffix_masks`): the
    lowest zero bit of their union t, isolated as ``~t & (t + 1)`` and indexed
    by its float exponent (exact for n <= 62).  ``pruned`` starts as the
    vertices pruned before the first step and takes each leaf in place;
    ``parents[k]`` passes through.  A whole row's steps join each leaf to its
    digit, and the last joins the one vertex left to n-1, which the rule never
    prunes.
    """
    for t, parent in zip(suffix, parents):
        t = t | pruned
        low = ~t & (t + 1)
        pruned |= low
        yield (low.astype(float).view(np.int64) >> 52) - 1023, parent


@lru_cache(maxsize=None)
def _edge_table(n: int) -> np.ndarray:
    """(m, 2) endpoints of E(K_n) in table order."""
    return np.array(complete_edge_table(n), dtype=np.int64).reshape(-1, 2)


@lru_cache(maxsize=None)
def _edge_bits(n: int) -> np.ndarray:
    """(n, m): column e holds edge e's bit in each vertex's neighbour bitmask, in the
    narrowest lane that holds n bits: uint8, uint16 or uint32, else int64 (n <= 62)."""
    lane = next((t for t in (np.uint8, np.uint16, np.uint32) if n <= np.iinfo(t).bits), np.int64)
    eu, ev = _edge_table(n).T
    bits = np.zeros((n, eu.size), dtype=lane)
    bits[eu, np.arange(eu.size)] = np.left_shift(1, ev)
    bits[ev, np.arange(eu.size)] = np.left_shift(1, eu)
    return bits


def _neighbour_masks(n: int, subsets: np.ndarray) -> np.ndarray:
    """(n, B) neighbour bitmask of each vertex in the graph of each subset row's
    edges, in the narrowest lane that holds n bits (:func:`_edge_bits`)."""
    bits = _edge_bits(n)
    masks = np.zeros((n, subsets.shape[0]), dtype=bits.dtype)
    for column in subsets.T:  # one (n, B) gather per subset slot
        masks |= np.take(bits, column, axis=1)
    return masks


def _all_reached(n: int, masks: np.ndarray) -> np.ndarray:
    """Whether vertex 0 reaches every vertex, from (n, B) neighbour bitmasks.

    The set reached from vertex 0 grows by the neighbours of its members,
    one sweep over the vertices at a time, until no row changes.
    """
    reach = np.ones(masks.shape[1], dtype=masks.dtype)
    while True:
        before = reach.copy()
        for v in range(n):
            reach |= masks[v] & -((reach >> v) & 1)
        if np.array_equal(before, reach):
            return reach == (1 << n) - 1


def batch_ends(n: int, subsets: np.ndarray) -> np.ndarray:
    """(B, k, 2) endpoints of the edges each subset row selects: a block's one
    gather, from which its degrees and Laplacians are built."""
    return np.take(_edge_table(n), subsets, axis=0)


def batch_degrees(n: int, ends: np.ndarray) -> np.ndarray:
    """(B, n) vertex degrees of the selected edges, from a block's (B, k, 2) endpoints."""
    B = ends.shape[0]
    flat = ends.reshape(B, 2 * ends.shape[1]) + n * np.arange(B)[:, None]
    return np.bincount(flat.ravel(), minlength=B * n).reshape(B, n)


def batch_laplacian(n: int, ends: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """(B, n, n) Laplacians of the graphs whose edges a block's endpoints select, from their degrees.

    Off-diagonal zeros are -0.0, as -A gives: LAPACK's Householder step reads
    the sign of zero, which reaches the last bits of an eigenvalue.  The
    stack is stored rows-last: the result is a view of an (n, n, B) array,
    ``L.transpose(1, 2, 0)``, in which each entry of every row is one
    contiguous length-B vector (:func:`block_kf_sweep`).
    """
    B = ends.shape[0]
    rows = np.arange(B)[:, None]
    L = np.full((n, n, B), -0.0).transpose(2, 0, 1)
    L[rows, ends[..., 0], ends[..., 1]] = L[rows, ends[..., 1], ends[..., 0]] = -1.0
    diag = np.arange(n)
    L[:, diag, diag] = deg
    return L


def _edge_gram(ends: np.ndarray) -> np.ndarray:
    """(B, p, p) int64 Gram matrices N N^T of each row's edges, N its oriented incidence matrix."""
    u, v = ends[..., 0, None], ends[..., 1, None]  # (B, p, 1): edge e's ends down the rows
    uf, vf = u.transpose(0, 2, 1), v.transpose(0, 2, 1)  # edge f's ends along the columns
    return (u == uf).astype(np.int64) + (v == vf) - (u == vf) - (v == uf)


@lru_cache(maxsize=None)
def _gram_digits(n: int) -> np.ndarray:
    """(m * m,) int8: 1 + the Gram matrix of all of E(K_n), flattened, so entry
    e * m + f is the base-3 digit that edges e and f give a Gram key (:func:`gram_keys`)."""
    return (_edge_gram(_edge_table(n)[None])[0] + 1).astype(np.int8).ravel()


def gram_keys(n: int, subsets: np.ndarray) -> np.ndarray | None:
    """Each subset row's N N^T as one int64, its upper entries (each -1, 0 or 1; the diagonal
    is 2) in base 3, by one gather of the (m, m) pair table per edge pair; None where that
    overflows int64 (p >= 10)."""
    e, f = np.triu_indices(subsets.shape[1], 1)
    if 3**e.size > np.iinfo(np.int64).max:
        return None
    digits, m, slots = _gram_digits(n), n * (n - 1) // 2, subsets.T.copy()
    key = np.zeros(subsets.shape[0], dtype=np.int64)
    for i, j in zip(e[::-1], f[::-1]):  # Horner: pair k is digit 3^k
        key *= 3
        key += digits[slots[i] * m + slots[j]]
    return key


def gram_classes(n: int, subsets: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """(first row of each class, class of each row) of a deleted-edges block by N N^T
    (:func:`gram_keys`); None where the key overflows int64 (p >= 10)."""
    key = gram_keys(n, subsets)
    if key is None:
        return None
    return tuple(np.unique(key, return_index=True, return_inverse=True)[1:])


def batch_eigenvalues(n: int, ends: np.ndarray, classes=None) -> np.ndarray:
    """Ascending Laplacian eigenvalues of K_n - H for each row of a block, H the
    p < n edges the row's endpoints give.

    The spectrum comes from H alone: L(K_n - H) = nI - J - L(H), so it is 0,
    then n - lambda for each of L(H)'s eigenvalues but one zero (Kelmans and
    Chelnokov, J. Combin. Theory B 16, 1974).  L(H) = N^T N for H's oriented
    incidence matrix N, whose p x p Gram matrix N N^T has the same nonzero
    eigenvalues, so the solve is p x p, and p = 0 needs none.  With
    :func:`gram_classes`, one N N^T per class is solved, and as eigvalsh
    solves each matrix of a stack alone, every row gets the bits of a solve
    per row.  The scans send no row with p >= n here (see :func:`scan_subsets`).
    """
    B, p = ends.shape[:2]
    if p >= n:
        raise ValueError(f"the Gram route holds fewer than n = {n} deleted edges, got {p}")
    if p:
        first, which = classes or (slice(None), slice(None))
        lam = np.linalg.eigvalsh(_edge_gram(ends[first]).astype(float))[which]
    else:
        lam = np.zeros((B, 0))
    eigs = np.full((B, n), float(n))
    eigs[:, 0] = 0.0
    eigs[:, 1 : 1 + lam.shape[1]] = n - lam[:, ::-1]
    return eigs


def batch_tree_counts(n: int, ends: np.ndarray, eigs: np.ndarray) -> np.ndarray:
    """Exact spanning-tree count of K_n - H for each row of a block, H the p edges
    the row's endpoints give: the determinant of the reduced minor of
    nI - J - L(H) (int64, or Python ints where int64 could overflow),
    cross-checked on every row against its ascending eigenvalues ``eigs``
    (:func:`batch_eigenvalues`).  The minor is built from H's edges, not from
    N N^T, so the count stays independent of the Gram route.
    """
    minor = n * np.eye(n - 1) - 1 - batch_laplacian(n, ends, batch_degrees(n, ends))[:, 1:, 1:]
    counts = batch_determinant(minor)
    check_tree_counts(counts, np.prod(eigs[:, 1:], axis=1) / n)
    return counts


def batch_kf(n: int, eigs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(connected mask, Kirchhoff index) per row; Kf is NaN when disconnected."""
    connected = eigs[:, 1] > zero_tolerance(n - 1)  # n - 1 bounds every row's degree
    with np.errstate(divide="ignore"):
        kf = n * np.sum(1.0 / np.maximum(eigs[:, 1:], 1e-300), axis=1)
    kf[~connected] = np.nan
    return connected, kf


def _invert_rows_last(X: np.ndarray) -> None:
    """Invert an (m, m, B) stack of positive definite matrices in place, by an
    unpivoted Gauss-Jordan sweep: every step is a length-B vector operation."""
    update = np.empty(X.shape[1:])
    for k in range(X.shape[0]):
        inverse = 1.0 / X[k, k]
        X[k, k] = 1.0
        X[k] *= inverse
        for i in range(X.shape[0]):
            if i != k:
                np.multiply(X[k], X[i, k], out=update)
                X[i, k] = 0.0
                X[i] -= update


@lru_cache(maxsize=None)
def _tail_graphs(n: int, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(neighbour masks, degrees, offsets) of the graph of each of the T rows of
    the lex table of L-subsets of E(K_n) (:class:`SubsetBlock`), one column per
    row: the (n, T) masks :func:`_neighbour_masks` gives, the (n-1, T)
    degrees of vertices 1..n-1, and the (2L, T) flat offsets i (n-1) + j of
    the entries (i, j) and (j, i) each edge sets to -1 in the reduced
    Laplacian L_0.  An edge (0, v) has no entry off the diagonal of L_0, so
    both its offsets name v's diagonal entry, which the sweep sets after them
    (:func:`block_kf_sweep`).
    """
    rows = _tail_rows(n * (n - 1) // 2, L)
    ends = batch_ends(n, rows).transpose(2, 1, 0)
    u, v = ends[0], ends[1] - 1  # u < v in table order
    u = np.where(u == 0, v, u - 1)
    offsets = np.concatenate([u * (n - 1) + v, v * (n - 1) + u])
    tables = _neighbour_masks(n, rows), batch_degrees(n, ends.T)[:, 1:].T.copy(), offsets
    for table in tables:  # shared by every block at (n, L)
        table.flags.writeable = False
    return tables


def block_connected(n: int, block: SubsetBlock) -> np.ndarray:
    """Exact connectivity of the graph of each row of a scan block (n <= 62): each
    row's neighbour masks are its prefix's OR its tail's, two gathers in place of
    one per slot, and vertex 0 must reach every vertex (:func:`_all_reached`)."""
    masks = np.take(_neighbour_masks(n, block.prefixes), block.pid, axis=1)
    masks |= np.take(_tail_graphs(n, block.tails.shape[1])[0], block.tid, axis=1)
    return _all_reached(n, masks)


def block_kf_sweep(n: int, block: SubsetBlock, idx: np.ndarray) -> np.ndarray:
    """Kirchhoff index of each row ``idx`` of a subset block whose edges form a connected graph.

    With X the inverse of the reduced Laplacian L_0 (vertex 0 removed),
    R(u, v) = X_uu + X_vv - 2 X_uv and R(u, 0) = X_uu, so summing over the
    pairs gives Kf = n tr X - 1^T X 1.  L_0 of a connected row is positive
    definite, so X comes from an unpivoted Gauss-Jordan sweep in place over
    a contiguous rows-last stack of L_0, SWEEP_ROWS rows at a time.  A row's
    L_0 is its prefix's (:func:`batch_laplacian`, taken along the rows), with
    its tail edges' -1 set at their offsets (:func:`_tail_graphs`) and the
    sum of the prefix and tail degrees on the diagonal: the -0.0, -1.0 and
    integer entries the row's own Laplacian has.
    """
    ends = batch_ends(n, block.prefixes)
    deg = batch_degrees(n, ends)
    prefix_L0 = np.ascontiguousarray(batch_laplacian(n, ends, deg).transpose(1, 2, 0)[1:, 1:])
    prefix_deg = np.ascontiguousarray(deg[:, 1:].T)
    _, tail_deg, offsets = _tail_graphs(n, block.tails.shape[1])
    kf = np.empty(idx.size)
    for start in range(0, idx.size, SWEEP_ROWS):
        rows = idx[start : start + SWEEP_ROWS]
        pid, tid = block.pid[rows], block.tid[rows]
        X = np.take(prefix_L0, pid, axis=2)
        X.reshape(-1)[offsets[:, tid] * pid.size + np.arange(pid.size)] = -1.0
        X.reshape(-1, pid.size)[::n] = np.take(prefix_deg, pid, axis=1) + np.take(tail_deg, tid, axis=1)  # the diagonal
        _invert_rows_last(X)
        kf[start : start + SWEEP_ROWS] = n * np.einsum("iib->b", X) - X.sum(axis=(0, 1))
    return kf


def batch_cycle_length(n: int, subsets: np.ndarray) -> np.ndarray:
    """Vertices left after iterated leaf removal (the cycle, for unicyclic rows).

    Works on (B, n) degree counts: each pass cuts every live edge with a leaf
    end and takes both ends' degrees down by one ``bincount``.
    """
    ends = batch_ends(n, subsets)
    deg = batch_degrees(n, ends)
    B = ends.shape[0]
    flat = ends + n * np.arange(B)[:, None, None]
    live = np.ones(flat.shape[:2], dtype=bool)
    for _ in range(n):
        leaf = deg.ravel() == 1
        cut = live & (leaf[flat[..., 0]] | leaf[flat[..., 1]])
        if not cut.any():
            break
        live &= ~cut
        deg -= np.bincount(flat[cut].ravel(), minlength=B * n).reshape(B, n)
    return (deg > 0).sum(axis=1)


def tail_length(n: int) -> int:
    """L, the Prüfer digits a tree block decodes row by row: the largest L <= n-2
    with n^L <= block_rows(n).  The other n-2-L digits, the prefix, are constant
    over each run of n^L consecutive ranks."""
    return max(L for L in range(n - 1) if n**L <= block_rows(n))


@lru_cache(maxsize=None)
def _tail_tables(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(suffix masks, lane shifts, class, tail sets): what the last L+1 decoding
    steps of a rank read, in columns that repeat with period n^L.

    Column c holds the rank whose last L digits (:func:`tail_length`) are the
    number ``c mod n^L``, in the ``c // n^L``-th prefix run of a range: its
    (L+1,) suffix masks and lane shifts (4 x parent; the last parent is n-1),
    and its class, run x |tail sets| + its own set's index among the distinct
    sets.  A range of at most block_rows(n) ranks from rank r reads the
    columns from ``r mod n^L`` on.
    """
    L = tail_length(n)
    period = n**L
    cols = np.arange(min(period + block_rows(n) - 1, n ** (n - 2)))
    digits = _digits(n, L, cols % period)
    suffix = suffix_masks(digits)
    tail_sets, tail_class = np.unique(suffix[0, :period], return_inverse=True)
    shifts = np.vstack([4 * digits, np.full((1, cols.size), 4 * (n - 1))])
    tables = suffix, shifts, cols // period * tail_sets.size + tail_class[cols % period], tail_sets
    for table in tables:  # shared by every call at n
        table.flags.writeable = False
    return tables


def _add_wiener_steps(n: int, steps, lanes: np.ndarray, W: np.ndarray) -> None:
    """Add each step's pruned side s, s(n-s) to W and s to its parent's lane, in place."""
    for leaf, shift in steps:
        s = (lanes >> 4 * leaf & 15) + 1
        W += s * (n - s)
        lanes += s << shift


def wiener_block(n: int, start: int, stop: int) -> np.ndarray:
    """Exact Wiener index of the labeled tree at each rank in [start, stop), a
    range of at most block_rows(n) ranks.

    Each decoding step prunes a leaf whose side of the tree has s vertices,
    and s(n-s) vertex pairs cross that edge; their sum over the steps
    reproduces the per-tree BFS value.  A row's sizes sit in 4-bit lanes of
    one int64, lane v holding size(v) - 1 <= n-2 <= 15 for v < n-1 (n <= 17,
    as in :func:`prufer_rows`): a gather is a shift and a mask, a scatter a
    shifted add.  Lane n-1 is never read; at n = 17 numpy shifts it out.

    Step k < n-2-L (:func:`tail_length`) depends only on the prefix digits and
    the set of the L tail digits, so those steps run once per (prefix, tail
    set) class of the range, and each row starts from its class's pruned
    vertices, lanes and partial W.  The last L+1 steps run per row, from
    slices of the period tables (:func:`_tail_tables`).
    """
    if n > 17:
        raise ValueError(f"4-bit size lanes hold trees on at most 17 vertices, got n={n}")
    total, block = n ** (n - 2), block_rows(n)
    if not (0 <= start <= stop <= total and stop - start <= block):
        raise ValueError(f"[{start}, {stop}) is not a range of at most {block} ranks in [0, {total})")
    suffix, shifts, classes, tail_sets = _tail_tables(n)
    L = tail_length(n)
    period = n**L
    cols = slice(start % period, start % period + stop - start)
    runs = -(-cols.stop // period)
    prefixes = _digits(n, n - 2 - L, np.arange(start // period, start // period + runs))
    shape = (prefixes.shape[0], runs * tail_sets.size)
    class_suffix = (suffix_masks(prefixes)[:-1, :, None] | tail_sets).reshape(shape)
    class_shifts = np.repeat(4 * prefixes, tail_sets.size, axis=1)
    pruned, lanes, W = np.zeros((3, shape[1]), dtype=np.int64)
    _add_wiener_steps(n, prufer_steps(class_suffix, class_shifts, pruned), lanes, W)
    row_class = classes[cols]
    pruned, lanes, W = pruned[row_class], lanes[row_class], W[row_class]
    _add_wiener_steps(n, prufer_steps(suffix[:, cols], shifts[:, cols], pruned), lanes, W)
    return W


def wiener_counts(n: int) -> np.ndarray:
    """(n^3 // 6 + 2,) int64: the number of labeled trees on n <= 17 vertices at
    each Wiener index, counted without decoding a tree.

    Rooted at vertex n-1, a tree is that vertex over a rooted forest on the
    other n-1, and the edge above a vertex whose subtree has j vertices adds
    j(n-j) to W.  With F_k the generating polynomial in W of the rooted
    forests on k labeled vertices, take the tree of the forest's smallest
    vertex, with j vertices, root chosen j ways, a forest F_{j-1} below it:
    F_0 = 1 and F_k = sum_j C(k-1, j-1) x^{j(n-j)} j F_{j-1} F_{k-j}, and the
    counts are F_{n-1}.  Every term and partial sum counts some of the
    n^(n-2) <= 17^15 trees, so int64 holds it exactly.
    """
    if n > 17:
        raise ValueError(f"int64 tree counts hold trees on at most 17 vertices, got n={n}")
    size = n**3 // 6 + 2  # past C(n+1, 3), the path's W, the largest
    forests = [np.ones(1, dtype=np.int64)]
    for k in range(1, n):
        f = np.zeros(size, dtype=np.int64)
        for j in range(1, k + 1):
            below = np.convolve(forests[j - 1], forests[k - j])
            f[j * (n - j) : j * (n - j) + below.size] += math.comb(k - 1, j - 1) * j * below
        forests.append(np.trim_zeros(f, "b"))
    hist = np.zeros(size, dtype=np.int64)
    hist[: forests[-1].size] = forests[-1]
    return hist


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
    vals: np.ndarray, ranks: np.ndarray, objective: str, top: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep every member of the first ``top`` >= 1 value groups, in preference order.

    The groups are cut on the sorted values first: group top-1 ends at some
    value, and the next sorted value is not tied with it, so the members
    are exactly the rows at or before that value, and only they are
    argsorted.  No NaN reaches a pool: the scans pool only connected rows,
    whose Kf is finite.
    """
    if vals.size == 0:
        return vals, ranks
    keys = -vals if objective == "max" else vals
    ordered = np.sort(keys)
    last = ordered[np.searchsorted(np.cumsum(~tied(ordered[1:], ordered[:-1])), top)]
    keep = np.flatnonzero(keys <= last)
    keep = keep[np.argsort(keys[keep], kind="stable")]
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
# The scan engine: one worker turns each block of a contiguous run of blocks
# into a partial result with a kernel; scan splits the blocks of
# [0, total) across jobs and merges every block's partial in rank order.


def block_rows(n: int) -> int:
    """Rows per scan block in every space: the largest power of two <= 2^14
    whose (rows, n, n) Laplacian stack has at most 3 * 2^20 entries, which
    keeps the peak memory of the process that runs a block (a fork worker,
    or the main process for a one-block scan) from growing with n."""
    rows = 1 << 14
    while rows * n * n > 3 << 20:
        rows >>= 1
    return rows


def _blocks(spec: EnumerationSpec, start: int, stop: int) -> Iterator[tuple[int, SubsetBlock | range]]:
    """(first rank, rows) for each block of the ranks [start, stop) of ``spec``:
    a :class:`SubsetBlock`, or the block's range of ranks in a tree space."""
    n, block = spec.n, block_rows(spec.n)
    if spec.mode == "labeled-trees":
        return ((r, range(r, min(r + block, stop))) for r in range(start, stop, block))
    return subset_blocks(n * (n - 1) // 2, spec.count, start, stop, block)


def _scan_worker(task) -> list:
    """``kernel(first rank, rows)`` for each block of one contiguous rank range (see _blocks)."""
    spec, kernel, start, stop = task
    return [kernel(rank0, rows) for rank0, rows in _blocks(spec, start, stop)]


def scan(spec: EnumerationSpec, kernel, merge, jobs: int = 1, budget: int = DEFAULT_BUDGET):
    """``merge`` of every block's ``kernel(first rank, rows)`` over ``spec``, in rank order.

    A space larger than ``budget`` raises :class:`BudgetExceededError`
    before any block runs.  Blocks start at multiples of
    ``block_rows(n)``, so they depend on the space alone, and each of at
    most ``jobs`` contiguous runs of whole blocks goes to one worker.  A run
    takes at least FORK_BLOCKS blocks, so a space of fewer than twice that
    many, or jobs=1, runs inline; otherwise a
    fork pool of at most one worker per usable CPU runs the runs, and
    ``kernel`` must pickle (a module-level function or a partial of one).
    ``merge`` sees the same partials for any ``jobs``, so no result or report
    byte depends on it.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    total = check_budget(spec, budget)
    block = block_rows(spec.n)
    blocks = -(-total // block)
    jobs = min(jobs, max(1, blocks // FORK_BLOCKS))
    bounds = [min(total, block * (blocks * i // jobs)) for i in range(jobs + 1)]
    tasks = [(spec, kernel, bounds[i], bounds[i + 1]) for i in range(jobs)]
    if jobs == 1:
        return merge(_scan_worker(tasks[0]))
    import multiprocessing  # only here: inline scans never pay for its import

    workers = min(jobs, len(os.sched_getaffinity(0)))
    with multiprocessing.get_context("fork").Pool(workers) as pool:
        return merge([part for parts in pool.map(_scan_worker, tasks) for part in parts])


@dataclass
class SubsetScan:
    """Partial or whole result of a scan over a subset space.

    ``checked`` counts every row and ``connected`` the connected ones;
    ``vals`` and ``ranks`` pool every member of the best value groups;
    ``by_key`` splits the rows by a kernel's key (cycle length).
    """

    checked: int
    connected: int
    vals: np.ndarray = field(default_factory=lambda: np.zeros(0))
    ranks: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    by_key: dict = field(default_factory=dict)


def merge_subset_scans(objective: str, top: int, parts: list[SubsetScan]) -> SubsetScan:
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
        {key: merge([p.by_key[key] for p in parts if key in p.by_key]) for key in keys},
    )


def _kf_kernel(n, deleted, objective, top, classify, rank0, block) -> SubsetScan:
    if deleted:  # p <= n - 2 (scan_subsets): every row is connected
        subs = block.rows
        idx = np.arange(subs.shape[0])
        _, kf = batch_kf(n, batch_eigenvalues(n, batch_ends(n, subs), gram_classes(n, subs)))
    else:
        idx = np.flatnonzero(block_connected(n, block))
        kf = block_kf_sweep(n, block, idx)
    if classify is None:
        pooled = _pool_top_groups(kf, rank0 + idx, objective, top)
        return SubsetScan(block.shape[0], idx.size, *pooled)
    keys = classify(n, block.rows[idx])
    by_key = {}
    for key in np.unique(keys):
        sel = np.flatnonzero(keys == key)
        pooled = _pool_top_groups(kf[sel], rank0 + idx[sel], objective, top)
        by_key[int(key)] = SubsetScan(sel.size, sel.size, *pooled)
    return SubsetScan(block.shape[0], idx.size, by_key=by_key)


def scan_subsets(
    spec: EnumerationSpec,
    objective: str,
    top: int,
    jobs: int = 1,
    budget: int = DEFAULT_BUDGET,
    classify=None,
) -> SubsetScan:
    """Pooled members of the ``top`` best Kf value groups over a subset space.

    With ``classify(n, rows)``, which gives an integer key per connected
    row, the pools are kept per key in ``by_key`` instead.  A deleted space
    with p >= n - 1, the one kind whose rows can be disconnected, scans as
    the complements' ``connected_with_edges(n, C(n,2) - p)``, whose order is
    the reverse: its rank r is rank C(C(n,2), p) - 1 - r (not in ``by_key``).
    """
    n, deleted = spec.n, spec.mode == "deleted-edges"
    if deleted and spec.count >= n - 1:
        complements = connected_with_edges(n, n * (n - 1) // 2 - spec.count)
        flipped = scan_subsets(complements, objective, top, jobs, budget, classify)
        flipped.ranks = cardinality(spec) - 1 - flipped.ranks
        return flipped
    kernel = partial(_kf_kernel, n, deleted, objective, top, classify)
    return scan(spec, kernel, partial(merge_subset_scans, objective, top), jobs, budget)


def _class_kernel(n, classes, rank0, block) -> dict:
    """(Q, v, dmax) -> (rows, lowest rank) of a deleted-edges block.

    Rows are keyed by Gram matrix alone (:func:`gram_keys`), SWEEP_ROWS at a
    time to keep the heap of the process that runs the inline scan small;
    ``classes`` maps each key met so far to its class, read from one row.
    N N^T gives H's line graph, whose triangles' signs tell K_3 from K_{1,3},
    so it fixes H up to isomorphism (Whitney, Amer. J. Math. 54, 1932), and
    with it v and dmax.
    """
    subs = block.rows
    keys = np.concatenate([gram_keys(n, subs[i : i + SWEEP_ROWS]) for i in range(0, subs.shape[0], SWEEP_ROWS)])
    keys, first, counts = np.unique(keys, return_index=True, return_counts=True)
    keys = keys.tolist()
    new = [i for i, key in enumerate(keys) if key not in classes]
    ends = batch_ends(n, subs[first[new]])
    deg = batch_degrees(n, ends)
    rows = zip(charpoly(_edge_gram(ends)).tolist(), (deg > 0).sum(axis=1).tolist(), deg.max(axis=1).tolist())
    for i, (q, v, dmax) in zip(new, rows):
        classes[keys[i]] = (tuple(q), v, dmax)
    part: dict = {}
    for key, rank, count in zip(keys, (rank0 + first).tolist(), counts.tolist()):
        total, lowest = part.get(classes[key], (0, rank))
        part[classes[key]] = (total + count, min(lowest, rank))
    return part


def _merge_classes(parts: list[dict]) -> dict:
    """Summed row counts per class; a class keeps the lowest rank of its first part."""
    classes: dict = {}
    for part in parts:  # rank order
        for key, (count, rank) in part.items():
            total, lowest = classes.get(key, (0, rank))
            classes[key] = (total + count, lowest)
    return classes


def deletion_classes(p: int) -> dict[tuple[tuple[int, ...], int, int], tuple[int, np.ndarray]]:
    """Every p-edge set H of K_n, n >= 2p, by class: (Q, v, dmax) -> (q_v, one H's (p, 2) endpoints).

    Q(x) = det(xI - N N^T) is the characteristic polynomial of H's edge Gram
    matrix (:func:`charpoly`), v the number of vertices H touches and dmax
    its largest degree; q_v counts the labeled H of the class on the vertex
    set [v].  K_n - H has Kf = n - 1 - p + n Q'(n)/Q(n), t = n^(n-2-p) Q(n)
    spanning trees (see :func:`batch_eigenvalues`) and minimum degree
    n - 1 - dmax, and ``deleted_edges(n, p)`` holds C(n, v) q_v rows of the
    class.  One inline scan of ``deleted_edges(2p, p)`` (2 vertices for
    p < 2; refused past the default budget, p > 6) finds every class: its
    rows that touch v vertices number C(2p, v) q_v.  The classes come in the
    order of their endpoints, the class's lowest-rank row: a vertex
    relabelling that keeps order never raises a rank, so that row touches
    exactly [v] and is the class's lowest-rank row at every n >= 2p.
    """
    n0 = max(2, 2 * p)
    by_class = scan(deleted_edges(n0, p), partial(_class_kernel, n0, {}), _merge_classes)
    keys = sorted(by_class, key=lambda key: by_class[key][1])
    ranks = np.array([by_class[key][1] for key in keys], dtype=np.int64)
    ends = batch_ends(n0, unrank_rows(n0 * (n0 - 1) // 2, p, ranks))
    return {key: (by_class[key][0] // math.comb(n0, key[1]), h) for key, h in zip(keys, ends)}


@dataclass
class TreeScan:
    count: int
    hist: np.ndarray
    first_rank: dict[int, int]


def _wiener_kernel(n, rank0, ranks) -> TreeScan:
    W = wiener_block(n, ranks.start, ranks.stop)
    values, first, counts = np.unique(W, return_index=True, return_counts=True)
    hist = np.zeros(n**3 // 6 + 2, dtype=np.int64)
    hist[values] = counts
    return TreeScan(W.size, hist, dict(zip(values.tolist(), (rank0 + first).tolist())))


def scan_labeled_trees(spec: EnumerationSpec, budget: int = DEFAULT_BUDGET) -> TreeScan:
    """Exact Wiener histogram over all labeled trees, with first-rank witnesses.

    The histogram is counted (:func:`wiener_counts`); the lowest rank at each
    value comes from decoding blocks inline from rank 0 until every value has
    been seen, the prefix that holds each value's first tree.  A labeled
    scan that runs :func:`_wiener_kernel` on every block and merges the
    partials in rank order gives the same result; the tests keep it as the
    oracle.
    """
    total = check_budget(spec, budget)
    hist = wiener_counts(spec.n)
    values = np.count_nonzero(hist)
    first_rank: dict[int, int] = {}
    for rank0, ranks in _blocks(spec, 0, total):  # rank order: the first sighting has the lowest rank
        for w, rank in _wiener_kernel(spec.n, rank0, ranks).first_rank.items():
            first_rank.setdefault(w, rank)
        if len(first_rank) == values:
            break
    return TreeScan(int(hist.sum()), hist, first_rank)
