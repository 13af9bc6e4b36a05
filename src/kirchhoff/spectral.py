"""Laplacian spectra, resistance distances, Kirchhoff and Wiener indices.

Two independent routes to the Kirchhoff index are kept side by side: the
spectral form n * sum(1/mu_i) over the nonzero Laplacian eigenvalues, and
the pairwise sum of effective resistances from the Laplacian pseudoinverse.
Spanning trees are counted exactly over arbitrary-precision integers and
cross-checked against the floating spectral product whenever that product
is small enough to round reliably.

All functions are pure; results are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .graphs import Graph, connected_components, shortest_paths


class DisconnectedGraphError(ValueError):
    """Kirchhoff-index machinery is defined for connected graphs only."""

    def __init__(self, components: int):
        super().__init__(f"graph is disconnected ({components} components)")
        self.components = components


class NoEdgesError(ValueError):
    """Operation needs at least one edge."""


class ConvergenceFailureError(RuntimeError):
    """The symmetric eigensolver failed to converge (numeric pathology)."""


@dataclass(frozen=True)
class Spectrum:
    """Laplacian eigenvalues sorted non-increasing, with a zero threshold.

    Eigenvalues at or below ``zero_tol`` are classified as zero; their count
    equals the number of connected components.
    """

    values: tuple[float, ...]
    zero_tol: float

    @property
    def zero_multiplicity(self) -> int:
        return sum(1 for v in self.values if v <= self.zero_tol)


@dataclass(frozen=True)
class ResistanceMatrix:
    """Symmetric matrix of pairwise effective resistances, zero diagonal."""

    n: int
    r: np.ndarray = field(repr=False)

    def pair_sum(self) -> float:
        return float(self.r.sum()) / 2.0


def laplacian_matrix(g: Graph) -> np.ndarray:
    """Dense Laplacian D - A as a float array: -1.0 on edges, +0.0 off them, degrees on the diagonal."""
    L = np.zeros((g.n, g.n))
    ends = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64, count=2 * g.m)
    L[ends[0::2], ends[1::2]] = L[ends[1::2], ends[0::2]] = -1.0
    L.flat[:: g.n + 1] = np.bincount(ends, minlength=g.n)
    return L


def zero_tolerance(max_degree: int) -> float:
    """Largest Laplacian eigenvalue classified as zero, for a given maximum degree.

    Eigensolver noise grows with the matrix norm, which the maximum degree
    bounds.  A connected graph's algebraic connectivity is at least
    2(1 - cos(pi/n)) (Fiedler, Czech. Math. J. 23, 1973), about 0.0026 at
    n = 62, many orders above this threshold.
    """
    return 1e-8 * max(1, max_degree)


def laplacian_spectrum(g: Graph) -> Spectrum:
    """Eigenvalues of D - A, sorted non-increasing."""
    if g.n < 1:
        raise ValueError("spectrum requires at least one vertex")
    try:
        w = np.linalg.eigvalsh(laplacian_matrix(g))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc
    max_degree = max(b.bit_count() for b in g.adjacency_bits)
    return Spectrum(tuple(float(x) for x in w[::-1]), zero_tolerance(max_degree))


def _eigendecomposition(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(laplacian_matrix(g))
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailureError(str(exc)) from exc


def _require_connected(g: Graph) -> None:
    comps = connected_components(g)
    if comps != 1:
        raise DisconnectedGraphError(comps)


def kf_spectral(g: Graph) -> float:
    """Kirchhoff index as n * sum of reciprocal nonzero Laplacian eigenvalues."""
    if g.n < 2:
        raise ValueError("Kirchhoff index requires at least two vertices")
    _require_connected(g)
    return g.n * sum(1.0 / v for v in laplacian_spectrum(g).values[:-1])


def resistance_matrix(g: Graph) -> ResistanceMatrix:
    """Effective resistances from the Laplacian pseudoinverse.

    The pseudoinverse is assembled from the eigendecomposition, inverting
    only eigenvalues above the zero threshold; r(i,j) = L+_ii + L+_jj - 2 L+_ij.
    """
    _require_connected(g)
    w, V = _eigendecomposition(g)
    keep = w > zero_tolerance(max(b.bit_count() for b in g.adjacency_bits))
    Vk = V[:, keep]
    Lplus = (Vk / w[keep]) @ Vk.T
    d = np.diag(Lplus)
    r = d[:, None] + d[None, :] - 2.0 * Lplus
    np.fill_diagonal(r, 0.0)
    return ResistanceMatrix(g.n, r)


def kf_resistance(g: Graph) -> float:
    """Kirchhoff index as the sum of resistances over unordered pairs."""
    return resistance_matrix(g).pair_sum()


def kf_vertex(g: Graph, x: int) -> float:
    """Sum of resistances from vertex ``x`` to every other vertex."""
    if not 0 <= x < g.n:
        raise ValueError(f"vertex {x} outside [0,{g.n})")
    return float(resistance_matrix(g).r[x].sum())


def wiener(g: Graph) -> int:
    """Sum of shortest-path distances over unordered pairs, exact integer."""
    total = 0
    for s in range(g.n):
        row = shortest_paths(g, s).dist
        for d in row:
            if d is None:
                raise DisconnectedGraphError(connected_components(g))
            total += d
    return total // 2


def batch_determinant(a: np.ndarray) -> np.ndarray:
    """Exact determinants of a (B, s, s) stack of integer positive semidefinite matrices.

    Fraction-free elimination (Bareiss, Math. Comp. 22, 1968) without
    pivoting: the k-th pivot is the leading k x k principal minor, and a
    PSD matrix with a zero leading minor is singular, so a zero pivot sets
    that row's determinant to 0.  Every entry at elimination step k is a
    (k+1)-minor, at most r^((k+1)/2) in size for a squared row norm bound
    r (Hadamard), so the step's products stay below 2 r^(k+1).  Steps run
    in int64 while that bound fits and in Python ints (object dtype) after,
    with the same code; an object-dtype input stays in Python ints.
    """
    B, s = a.shape[0], a.shape[-1]
    if s == 0:
        return np.ones(B, dtype=np.int64)
    big = a.dtype == object
    a = np.array(a, dtype=object if big else np.int64)
    r = int(np.einsum("bij,bij->bi", a, a).max(initial=0))
    prev = np.ones(B, dtype=a.dtype)
    for k in range(s - 1):
        if not big and 2 * r ** (k + 1) > np.iinfo(np.int64).max:
            big = True
            a, prev = a.astype(object), prev.astype(object)
        piv = a[:, k, k].copy()
        dead = piv == 0
        if dead.any():
            a[dead, k:, k:] = 0
            piv[dead] = 1
        rest = a[:, k + 1 :, k + 1 :]
        rest *= piv[:, None, None]
        rest -= a[:, k + 1 :, k, None] * a[:, k, None, k + 1 :]
        rest //= prev[:, None, None]
        prev = piv
    return a[:, -1, -1]


def charpoly(a: np.ndarray) -> np.ndarray:
    """(K, s+1) coefficients of det(xI - m), highest degree first, for each matrix m of
    a (K, s, s) integer stack, in its dtype: exact at any size for an object stack.

    Division-free (Berkowitz, Inf. Proc. Letters 18, 1984), every matrix of
    the stack at once: with a_r = m[r][r], row R and column C of m[r] beside
    the leading r x r block A, the characteristic polynomial of the leading
    (r+1) x (r+1) block is the lower-triangular Toeplitz matrix with first
    column (1, -a_r, -RC, -RAC, ..., -RA^(r-1)C) times that of A.
    """
    poly = np.ones((a.shape[0], 1), dtype=a.dtype)
    for r in range(a.shape[-1]):
        row, col, block = a[:, r, :r], a[:, :r, r], a[:, :r, :r]
        toeplitz = [np.ones_like(a[:, r, r]), -a[:, r, r]]
        for _ in range(r):
            toeplitz.append(-(row * col).sum(axis=1))
            col = (block * col[:, None, :]).sum(axis=2)
        toeplitz = np.stack(toeplitz, axis=1)
        poly, old = np.zeros((a.shape[0], r + 2), dtype=a.dtype), poly
        for j in range(r + 1):
            poly[:, j:] += old[:, j, None] * toeplitz[:, : r + 2 - j]
    return poly


# The spectral product accumulates ~n*eps relative error, so exact rounding
# agreement can only be demanded while the absolute error stays below 1/2.
_CROSSCHECK_EXACT = 2**44
_CROSSCHECK_LIMIT = 2**50


def check_tree_counts(counts: np.ndarray, products: np.ndarray) -> None:
    """The one matrix-tree cross-check: each exact spanning-tree count against
    its floating spectral product prod(mu_i)/n, with exact rounding agreement
    below 2**44, agreement within 1e-9 relative up to 2**50, none beyond.
    Raises ConvergenceFailureError at the first row that disagrees."""
    t = counts.astype(float)
    exact = products < _CROSSCHECK_EXACT
    band = ~exact & (products < _CROSSCHECK_LIMIT)
    mismatch = exact & (np.round(products) != t)
    mismatch |= band & (np.abs(products - t) > 1e-9 * np.maximum(1.0, t))
    if mismatch.any():
        i = int(np.argmax(mismatch))
        raise ConvergenceFailureError(
            f"matrix-tree cross-check failed: determinant {counts[i]}, "
            f"spectral product {float(products[i])!r}"
        )


def tree_count(g: Graph) -> int:
    """Number of spanning trees, exactly.

    The determinant of the reduced Laplacian (row/column 0 removed), from
    :func:`batch_determinant`; 0 for disconnected graphs.  The floating
    spectral product cross-checks it (:func:`check_tree_counts`).
    """
    if g.n == 0:
        raise ValueError("spanning trees need at least one vertex")
    if g.n == 1:
        return 1
    count = batch_determinant(laplacian_matrix(g)[None, 1:, 1:].astype(np.int64))
    spec = laplacian_spectrum(g)
    product = float(np.prod(spec.values[:-1])) / g.n if spec.zero_multiplicity == 1 else 0.0
    check_tree_counts(count, np.array([product]))
    return int(count[0])


def mu1_bounds(g: Graph) -> tuple[int, int]:
    """(max_degree + 1, max over edges of |N_u union N_v|) bracketing mu_1.

    The lower bound is tight for connected graphs exactly when some vertex
    is adjacent to all others; the upper bound never exceeds n.
    """
    if g.m == 0:
        raise NoEdgesError("mu_1 bounds need at least one edge")
    bits = g.adjacency_bits
    lower = max(b.bit_count() for b in bits) + 1
    upper = max((bits[u] | bits[v]).bit_count() for u, v in g.edges)
    return lower, upper
