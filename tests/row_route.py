"""The per-row routes a connected-with-edges block took before its rows shared
their prefixes, kept as the oracles of ``block_connected`` and ``block_kf_sweep``.

Each row builds its own neighbour masks, one gather per subset slot, and its
own Laplacian from ``batch_ends``, ``batch_degrees`` and ``batch_laplacian``.
"""

import numpy as np

import kirchhoff.enumeration as enum


def batch_connected(n, subsets):
    """Exact connectivity of the graph of the edges each subset row selects (n <= 62),
    from the row's own neighbour bitmasks."""
    return enum._all_reached(n, enum._neighbour_masks(n, subsets))


def per_row_kf_sweep(n, ends):
    """The sweep on each row's own Laplacian, SWEEP_ROWS rows at a time."""
    kf = np.empty(ends.shape[0])
    for start in range(0, ends.shape[0], enum.SWEEP_ROWS):
        chunk = ends[start : start + enum.SWEEP_ROWS]
        X = enum.batch_laplacian(n, chunk, enum.batch_degrees(n, chunk)).transpose(1, 2, 0)[1:, 1:]
        enum._invert_rows_last(X)
        kf[start : start + enum.SWEEP_ROWS] = n * np.einsum("iib->b", X) - X.sum(axis=(0, 1))
    return kf
