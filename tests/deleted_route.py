"""The route a deleted-edges scan took before its spaces with p >= n - 1 scanned as
their complements, kept as their oracle.

A block's connected rows come from a deleted-mode bitmask test: each vertex's
neighbours in K_n minus the row's edges.  Their Kf comes from the spectrum of
K_n - H: by one p x p Gram solve per class for p < n, as the library still
gives it, and from each row's own n x n L(H) eigensolve for p >= n.
"""

from functools import partial

import numpy as np

import kirchhoff.enumeration as enum


def deleted_connected(n, subsets):
    """Exact connectivity of K_n minus each subset row's edges (n <= 62, one int64 bitmask per vertex).

    The set reached from vertex 0 grows by the neighbours of its members,
    one sweep over the vertices at a time, until no row changes.
    """
    bits = enum._edge_bits(n).astype(np.int64)
    masks = np.zeros((n, subsets.shape[0]), dtype=np.int64)
    for column in subsets.T:  # one (n, B) gather per subset slot
        masks += bits[:, column]
    np.subtract(bits.sum(axis=1)[:, None], masks, out=masks)
    reach = np.ones(subsets.shape[0], dtype=np.int64)
    while True:
        before = reach.copy()
        for v in range(n):
            reach |= masks[v] & -((reach >> v) & 1)
        if np.array_equal(before, reach):
            return reach == (1 << n) - 1


def connected_rows(n, subsets):
    """A deleted block's connected rows: every row when at most n - 2 edges are deleted (K_n is (n-1)-edge-connected)."""
    if subsets.shape[1] <= n - 2:
        return np.arange(subsets.shape[0])
    return np.flatnonzero(deleted_connected(n, subsets))


def deleted_eigenvalues(n, ends, classes=None):
    """Ascending Laplacian eigenvalues of K_n - H for each row of a block: the library's
    Gram route for p < n, and 0, then n - lambda for each of L(H)'s eigenvalues but its
    lowest, from each row's n x n L(H), for p >= n."""
    if ends.shape[1] < n:
        return enum.batch_eigenvalues(n, ends, classes)
    lam = np.linalg.eigvalsh(enum.batch_laplacian(n, ends, enum.batch_degrees(n, ends)))[:, 1:]
    eigs = np.full((ends.shape[0], n), float(n))
    eigs[:, 0] = 0.0
    eigs[:, 1:] = n - lam[:, ::-1]
    return eigs


def on_rows(kernel, rank0, block):
    """``kernel(rank0, rows)`` of a scan block's materialised (B, k) rows."""
    return kernel(rank0, block.rows)


def kf_kernel(n, objective, top, rank0, subs):
    """A deleted-edges block's pooled Kf over its connected rows, every row in the deleted space's numbering."""
    idx = connected_rows(n, subs)
    ends = enum.batch_ends(n, subs[idx])
    _, kf = enum.batch_kf(n, deleted_eigenvalues(n, ends, enum.gram_classes(n, subs[idx])))
    return enum.SubsetScan(subs.shape[0], idx.size, *enum._pool_top_groups(kf, rank0 + idx, objective, top))


def scan_subsets(spec, objective, top, jobs=1, budget=enum.DEFAULT_BUDGET):
    """``enumeration.scan_subsets`` as it scanned a deleted-edges space: every row of the space itself."""
    assert spec.mode == "deleted-edges"
    kernel = partial(on_rows, partial(kf_kernel, spec.n, objective, top))
    return enum.scan(spec, kernel, partial(enum.merge_subset_scans, objective, top), jobs, budget)
