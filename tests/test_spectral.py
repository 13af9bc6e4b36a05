import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deleted_route
import kirchhoff.enumeration as enum
from kirchhoff.enumeration import (
    batch_degrees,
    batch_ends,
    batch_kf,
    batch_laplacian,
    batch_tree_counts,
    complete_edge_table,
    connected_with_edges,
    deleted_edges,
    gram_classes,
    subset_blocks,
    unrank_rows,
)
from kirchhoff.families import FamilySpec, build
from kirchhoff.graphs import (
    combine,
    complement,
    connected_components,
    edit_edge,
    is_connected,
    make_graph,
)
from kirchhoff.spectral import (
    ConvergenceFailureError,
    DisconnectedGraphError,
    NoEdgesError,
    batch_determinant,
    charpoly,
    check_tree_counts,
    kf_resistance,
    kf_spectral,
    kf_vertex,
    laplacian_matrix,
    laplacian_spectrum,
    mu1_bounds,
    resistance_matrix,
    tree_count,
    wiener,
)
from kirchhoff.verify import random_connected_graph
from row_route import batch_connected


def fam(kind, *args):
    return build(FamilySpec(kind, args))


def spectra_close(values, expected, tol=1e-8):
    return all(abs(a - b) <= tol for a, b in zip(values, expected))


def _per_edge_laplacian(g):
    """The per-edge accumulation laplacian_matrix used to be: the bitwise reference."""
    L = np.zeros((g.n, g.n))
    for u, v in g.edges:
        L[u, v] -= 1.0
        L[v, u] -= 1.0
        L[u, u] += 1.0
        L[v, v] += 1.0
    return L


class TestLaplacianMatrix:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(complete_edge_table(n))))
        )
    )
    @example((1, set()))
    @example((7, set()))
    @example((9, {(0, 1)}))
    def test_bitwise_equal_to_per_edge_assembly(self, case):
        # +0.0 off the edges and on an isolated vertex's diagonal, as the sum of nothing gives
        n, edges = case
        g = make_graph(n, edges)
        assert (laplacian_matrix(g).view(np.int64) == _per_edge_laplacian(g).view(np.int64)).all()


class TestSpectrum:
    def test_complete_graph(self):
        spec = laplacian_spectrum(fam("complete", 4))
        assert spectra_close(spec.values, (4, 4, 4, 0))

    def test_k6_minus_matching(self):
        spec = laplacian_spectrum(fam("kn-minus-matching", 6, 2))
        assert spectra_close(spec.values, (6, 6, 6, 4, 4, 0))

    def test_k6_minus_star(self):
        spec = laplacian_spectrum(fam("kn-minus-star", 6, 2))
        assert spectra_close(spec.values, (6, 6, 6, 5, 3, 0))

    def test_zero_multiplicity_counts_components(self):
        g = combine(fam("cycle", 3), fam("path", 4), "union")
        assert laplacian_spectrum(g).zero_multiplicity == 2

    def test_eigen_residual(self):
        g = fam("lollipop", 12, 5)
        L = laplacian_matrix(g)
        w, V = np.linalg.eigh(L)
        residual = np.linalg.norm(L @ V - V * w) / np.linalg.norm(L)
        assert residual < 1e-12

    def test_trace_is_twice_edge_count(self):
        g = fam("dumbbell", 3, 4, 2)
        assert abs(sum(laplacian_spectrum(g).values) - 2 * g.m) < 1e-9


class TestKirchhoffIndex:
    def test_complete_graphs(self):
        assert abs(kf_spectral(fam("complete", 5)) - 4) < 1e-12

    def test_cycle4(self):
        assert abs(kf_spectral(fam("cycle", 4)) - 5) < 1e-12

    def test_k6_minus_star(self):
        assert abs(kf_spectral(fam("kn-minus-star", 6, 2)) - 31 / 5) < 1e-10

    def test_resistance_route_examples(self):
        assert abs(kf_resistance(fam("cycle", 3)) - 2) < 1e-12
        assert abs(kf_resistance(fam("path", 4)) - 10) < 1e-10
        assert abs(kf_resistance(fam("complete", 4)) - 3) < 1e-12

    def test_disconnected_rejected(self):
        g = combine(fam("complete", 2), fam("complete", 2), "union")
        with pytest.raises(DisconnectedGraphError):
            kf_spectral(g)
        with pytest.raises(DisconnectedGraphError):
            kf_resistance(g)


class TestResistance:
    def test_triangle_pairs(self):
        r = resistance_matrix(fam("cycle", 3)).r
        for i in range(3):
            for j in range(3):
                expected = 0 if i == j else 2 / 3
                assert abs(r[i, j] - expected) < 1e-12

    def test_tree_resistance_is_distance(self):
        r = resistance_matrix(fam("path", 4)).r
        assert abs(r[0, 3] - 3) < 1e-10

    def test_cycle4_adjacent(self):
        # one unit resistor in parallel with a three-edge detour
        r = resistance_matrix(fam("cycle", 4)).r
        assert abs(r[0, 1] - 3 / 4) < 1e-12

    def test_vertex_sums(self):
        g = fam("lollipop", 8, 4)
        total = sum(kf_vertex(g, x) for x in range(g.n))
        assert abs(total - 2 * kf_spectral(g)) < 1e-8

    def test_vertex_examples(self):
        assert abs(kf_vertex(fam("cycle", 3), 0) - 4 / 3) < 1e-12
        assert abs(kf_vertex(fam("path", 3), 0) - 3) < 1e-12
        assert abs(kf_vertex(fam("path", 3), 1) - 2) < 1e-12


class TestWiener:
    def test_examples(self):
        assert wiener(fam("path", 4)) == 10
        assert wiener(fam("complete", 5)) == 10
        assert wiener(fam("cycle", 4)) == 8

    def test_disconnected(self):
        with pytest.raises(DisconnectedGraphError):
            wiener(combine(fam("complete", 2), fam("complete", 2), "union"))


class TestTreeCount:
    def test_complete_graphs_cayley(self):
        for n in range(2, 9):
            assert tree_count(fam("complete", n)) == n ** (n - 2)

    def test_k6_minus_star(self):
        # spectrum route: 6*6*6*5*3 / 6
        assert tree_count(fam("kn-minus-star", 6, 2)) == 540

    def test_cycles(self):
        assert tree_count(fam("cycle", 5)) == 5

    def test_disconnected_zero(self):
        assert tree_count(combine(fam("complete", 3), fam("complete", 3), "union")) == 0

    def test_trees_have_one(self):
        assert tree_count(fam("starlike", 9, (4, 3, 1))) == 1

    def test_large_exact_value(self):
        # t(K_22) needs exact big-integer arithmetic (22^20 > 2^64)
        assert tree_count(fam("complete", 22)) == 22**20


def _fraction_determinant(rows):
    """Gaussian elimination over Fractions with row swaps: an oracle independent of Bareiss."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k] != 0), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            f = a[i][k] / a[k][k]
            a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return int(det)


def _reduced_laplacians(n, p, count, seed=0):
    """Reduced Laplacians of ``count`` random K_n minus p edges, as (B, n-1, n-1) int8."""
    rng = np.random.default_rng(seed)
    m = n * (n - 1) // 2
    subs = np.sort(np.array([rng.choice(m, p, replace=False) for _ in range(count)]), axis=1)
    ends = batch_ends(n, subs)
    minors = n * np.eye(n - 1) - 1 - batch_laplacian(n, ends, batch_degrees(n, ends))[:, 1:, 1:]
    return minors.astype(np.int8)  # nI - J - L(H), reduced


class TestBatchDeterminant:
    def test_matches_fraction_elimination(self):
        minors = _reduced_laplacians(7, 3, 40)
        assert batch_determinant(minors).tolist() == [_fraction_determinant(m.tolist()) for m in minors]

    @pytest.mark.parametrize("n", [11, 12])
    def test_int64_and_python_ints_agree_where_the_dtype_switches(self, n):
        # at n = 11 every elimination step provably fits int64; at n = 12 the
        # last steps run in Python ints
        minors = _reduced_laplacians(n, 3, 30, seed=n)
        fast = batch_determinant(minors)
        exact = batch_determinant(minors.astype(object))
        assert exact.dtype == object
        assert fast.dtype == (np.int64 if n == 11 else object)
        assert [int(x) for x in fast] == [int(x) for x in exact]
        assert int(fast[0]) == _fraction_determinant(minors[0].tolist())

    def test_cayley_beyond_int64(self):
        L = laplacian_matrix(fam("complete", 22)).astype(np.int64)
        assert int(batch_determinant(L[None, 1:, 1:])[0]) == 22**20

    def test_singular_psd_rows_give_zero(self):
        # vertex 1 isolated (zero first pivot); triangles on 1-3 and on 0,4,5
        # (the third pivot is zero); a connected row in the same block
        rows = [
            make_graph(4, [(0, 2), (0, 3), (2, 3)]),
            make_graph(6, [(1, 2), (2, 3), (1, 3), (0, 4), (4, 5), (0, 5)]),
            fam("cycle", 6),
        ]
        minors = [laplacian_matrix(g)[1:, 1:].astype(np.int64) for g in rows]
        assert batch_determinant(np.array(minors[1:])).tolist() == [0, 6]
        assert batch_determinant(minors[0][None]).tolist() == [0]
        assert batch_determinant(np.zeros((3, 0, 0), dtype=np.int64)).tolist() == [1, 1, 1]


class TestTreeCountCrossCheck:
    def test_exact_below_2_44(self):
        check_tree_counts(np.array([5, 0]), np.array([5.2, 0.3]))
        with pytest.raises(ConvergenceFailureError, match="determinant 6, spectral product 5.0"):
            check_tree_counts(np.array([5, 6]), np.array([5.0, 5.0]))

    def test_relative_band_up_to_2_50(self):
        big = 2**47
        check_tree_counts(np.array([big], dtype=object), np.array([float(big) * (1 + 1e-10)]))
        with pytest.raises(ConvergenceFailureError):
            check_tree_counts(np.array([big], dtype=object), np.array([float(big) * (1 + 1e-8)]))

    def test_no_check_beyond_2_50(self):
        check_tree_counts(np.array([2**60], dtype=object), np.array([2.0**51]))


class TestMu1Bounds:
    def test_complete_equality_case(self):
        lower, upper = mu1_bounds(fam("complete", 4))
        assert (lower, upper) == (4, 4)
        assert abs(laplacian_spectrum(fam("complete", 4)).values[0] - 4) < 1e-10

    def test_path_and_cycle(self):
        assert mu1_bounds(fam("path", 4)) == (3, 4)
        assert mu1_bounds(fam("cycle", 4)) == (3, 4)

    def test_no_edges(self):
        with pytest.raises(NoEdgesError):
            mu1_bounds(make_graph(3, []))

    def test_bracketing_random(self):
        rng = random.Random(11)
        for _ in range(50):
            n = rng.randint(3, 12)
            g = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            lower, upper = mu1_bounds(g)
            mu1 = laplacian_spectrum(g).values[0]
            assert lower - 1e-8 <= mu1 <= upper + 1e-8
            assert upper <= g.n


class TestIdentities:
    def test_dual_route_agreement(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(2, 16)
            m = rng.randint(n - 1, n * (n - 1) // 2)
            g = random_connected_graph(rng, n, m)
            a, b = kf_spectral(g), kf_resistance(g)
            assert abs(a - b) <= 1e-9 * max(1.0, a)

    def test_complement_spectrum_identity(self):
        g = fam("lollipop", 9, 4)
        mu = laplacian_spectrum(g).values
        predicted = sorted([g.n - v for v in mu[:-1]] + [0.0], reverse=True)
        actual = laplacian_spectrum(complement(g)).values
        assert spectra_close(actual, predicted)

    def test_interlacing_after_insertion(self):
        g = fam("path", 8)
        bigger = edit_edge(g, (0, 5), "add")
        mu = laplacian_spectrum(g).values
        nu = laplacian_spectrum(bigger).values
        for i in range(8):
            assert nu[i] >= mu[i] - 1e-8
            if i + 1 < 8:
                assert mu[i] >= nu[i + 1] - 1e-8

    def test_kf_monotonicity(self):
        g = fam("cycle", 4)
        assert kf_spectral(edit_edge(g, (0, 1), "remove")) > kf_spectral(g) + 1e-7
        assert kf_spectral(edit_edge(g, (0, 2), "add")) < kf_spectral(g) - 1e-7

    def test_resistance_below_distance_tree_equality(self):
        tree = fam("starlike", 8, (4, 2, 1))
        r = resistance_matrix(tree).r
        from kirchhoff.graphs import shortest_paths

        for u in range(8):
            dist = shortest_paths(tree, u).dist
            for v in range(8):
                assert r[u, v] <= dist[v] + 1e-9
        assert abs(kf_resistance(tree) - wiener(tree)) < 1e-8

    def test_metric_axioms(self):
        g = fam("dumbbell", 3, 4, 3)
        r = resistance_matrix(g).r
        n = g.n
        assert np.allclose(r, r.T, atol=1e-12)
        assert (r >= -1e-12).all()
        for k in range(n):
            assert (r <= r[:, [k]] + r[[k], :] + 1e-10).all()


class TestZeroThreshold:
    """The one zero-eigenvalue threshold separates components on its own."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(2, 9).flatmap(
            lambda n: st.tuples(st.just(n), st.sets(st.sampled_from(complete_edge_table(n))))
        )
    )
    def test_zero_eigenvalues_count_components(self, case):
        n, edges = case
        g = make_graph(n, edges)
        assert laplacian_spectrum(g).zero_multiplicity == connected_components(g)
        table = complete_edge_table(n)
        row = np.array([[table.index(e) for e in g.edges]], dtype=np.int64)
        connected, _ = batch_kf(n, _eigenvalues(n, row, False))
        assert bool(connected[0]) == is_connected(g)


def _eigenvalues(n, subs, deleted):
    """K_n minus each row's edges if ``deleted`` (by the Gram route for fewer than n
    edges, by L(H) for more: tests/deleted_route.py), else the full Laplacian of each row's edges."""
    ends = batch_ends(n, subs)
    if deleted:
        return deleted_route.deleted_eigenvalues(n, ends, gram_classes(n, subs))
    return np.linalg.eigvalsh(batch_laplacian(n, ends, batch_degrees(n, ends)))


def _complement_rows(n, subs):
    """Each row's complement in E(K_n): the edges whose deletion leaves the row's graph."""
    keep = np.ones((subs.shape[0], n * (n - 1) // 2), dtype=bool)
    keep[np.arange(subs.shape[0])[:, None], subs] = False
    return np.nonzero(keep)[1].reshape(subs.shape[0], -1)


def _subset_rows(n):
    """(n, deleted, rows): rows of k edge indices of K_n, k the same for every row."""
    m = n * (n - 1) // 2
    return st.tuples(st.booleans(), st.integers(0, m)).flatmap(
        lambda dk: st.tuples(
            st.just(n),
            st.just(dk[0]),
            st.lists(st.permutations(range(m)).map(lambda p: sorted(p[: dk[1]])), min_size=1, max_size=8),
        )
    )


def int64_connected(n, subsets):
    """``batch_connected`` as it was before its narrow lanes, kept as their oracle: one
    int64 bitmask per vertex, summed from fancy-indexed gathers."""
    bits = enum._edge_bits(n).astype(np.int64)
    masks = np.zeros((n, subsets.shape[0]), dtype=np.int64)
    for column in subsets.T:
        masks += bits[:, column]
    reach = np.ones(subsets.shape[0], dtype=np.int64)
    while True:
        before = reach.copy()
        for v in range(n):
            reach |= masks[v] & -((reach >> v) & 1)
        if np.array_equal(before, reach):
            return reach == (1 << n) - 1


def _spanning_tree_rows(n, rng, count):
    """(count, n-1) sorted edge-index rows of random spanning trees of K_n: each vertex
    of a random order joins one vertex before it."""
    index = {e: i for i, e in enumerate(complete_edge_table(n))}
    rows = []
    for _ in range(count):
        order = rng.permutation(n).tolist()
        edges = [tuple(sorted((order[v], order[int(rng.integers(v))]))) for v in range(1, n)]
        rows.append(sorted(index[e] for e in edges))
    return np.array(rows, dtype=np.int64).reshape(count, n - 1)


class TestBatchConnectivity:
    """The exact bitmask filter that decides which rows reach the eigensolver."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(2, 9).flatmap(_subset_rows))
    @example((6, True, [[]]))
    @example((6, False, [[]]))
    @example((2, True, [[0]]))
    def test_matches_graph_connectivity_and_eigen_mask(self, case):
        n, deleted, rows = case
        subs = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))
        table = complete_edge_table(n)
        graphs = [make_graph(n, {table[i] for i in row} ^ (set(table) if deleted else set())) for row in rows]
        mask = deleted_route.deleted_connected(n, subs) if deleted else batch_connected(n, subs)
        assert mask.tolist() == [is_connected(g) for g in graphs]
        # a deleted row's graph is its complement's, as a deleted scan with p >= n - 1 tests it
        assert (batch_connected(n, _complement_rows(n, subs) if deleted else subs) == mask).all()
        eigen_mask, _ = batch_kf(n, _eigenvalues(n, subs, deleted))
        assert (mask == eigen_mask).all()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 9).flatmap(_subset_rows))
    @example((6, True, [list(range(5))]))
    @example((6, False, [[0, 1, 14]]))
    def test_batched_tree_counts_match_per_graph_route(self, case):
        # disconnected rows, isolated vertices among them, count 0 trees
        n, deleted, rows = case
        subs = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))
        table = complete_edge_table(n)
        graphs = [make_graph(n, {table[i] for i in row} ^ (set(table) if deleted else set())) for row in rows]
        deleted_rows = subs if deleted else _complement_rows(n, subs)
        ends = batch_ends(n, deleted_rows)
        counts = batch_tree_counts(n, ends, deleted_route.deleted_eigenvalues(n, ends, gram_classes(n, deleted_rows)))
        assert [int(t) for t in counts] == [tree_count(g) for g in graphs]
        assert [bool(t) for t in counts] == [is_connected(g) for g in graphs]

    @pytest.mark.parametrize("n", [2, 8, 9, 16, 17, 32, 33, 62])
    def test_narrow_lanes_as_the_int64_route(self, n):
        # each lane's widest n puts a vertex on its top bit: bit 7 of a uint8, 31 of a uint32
        lane = np.uint8 if n <= 8 else np.uint16 if n <= 16 else np.uint32 if n <= 32 else np.int64
        assert enum._edge_bits(n).dtype == lane
        rng = np.random.default_rng(n)
        m = n * (n - 1) // 2
        assert not batch_connected(n, np.zeros((3, 0), dtype=np.int64)).any()
        trees = _spanning_tree_rows(n, rng, 40)
        cut = trees[rng.integers(n - 1, size=40)[:, None] != np.arange(n - 1)].reshape(40, n - 2)
        assert batch_connected(n, trees).all() and not batch_connected(n, cut).any()
        if m > n - 1:  # one more edge keeps a tree connected
            extra = [sorted(row + [int(rng.choice(np.setdiff1d(np.arange(m), row)))]) for row in trees.tolist()]
            assert batch_connected(n, np.array(extra, dtype=np.int64)).all()
        for k in range(max(0, n - 2), min(m, n + 1) + 1):
            rows = np.sort(np.array([rng.choice(m, k, replace=False) for _ in range(200)], dtype=np.int64), axis=1)
            rows = rows.reshape(200, k)
            assert (batch_connected(n, rows) == int64_connected(n, rows)).all()

    @pytest.mark.parametrize("n", range(2, 6))
    def test_every_small_graph_as_is_connected(self, n):
        m = n * (n - 1) // 2
        for k in range(m + 1):
            spec = connected_with_edges(n, k)
            subs = unrank_rows(m, k, np.arange(math.comb(m, k)))
            expected = [is_connected(enum.row_graph(spec, row)) for row in subs.tolist()]
            assert batch_connected(n, subs).tolist() == expected
            assert int64_connected(n, subs).tolist() == expected


def _fraction_det(m):
    """Exact determinant by Gaussian elimination over Fractions."""
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, len(a)):
            factor = a[i][k] / a[k][k]
            a[i] = [x - factor * y for x, y in zip(a[i], a[k])]
    return det


class TestCharpoly:
    """det(xI - M) by Berkowitz, over a stack of matrices, against exact elimination."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 6).flatmap(
            lambda s: st.lists(st.lists(st.integers(-9, 9), min_size=s, max_size=s), min_size=s, max_size=s)
        )
    )
    @example([])
    @example([[0]])
    @example([[2, 1, 0], [1, 2, -1], [0, -1, 2]])  # the Gram matrix of a 3-edge path
    def test_matches_exact_determinants(self, m):
        s = len(m)
        for dtype in (object, np.int64):
            stack = np.array([m, [[-x for x in row] for row in m]], dtype=dtype).reshape(2, s, s)
            for q, a in zip(charpoly(stack).tolist(), stack.tolist()):
                assert len(q) == s + 1 and q[0] == 1
                for x in (-3, 0, 1, 2, 7, 13):
                    shifted = [[x * (i == j) - a[i][j] for j in range(s)] for i in range(s)]
                    assert sum(c * x ** (s - k) for k, c in enumerate(q)) == _fraction_det(shifted)

    def test_coefficients_are_python_ints(self):
        # 2^62 entries overflow any int64 product: an object stack stays exact
        big = 1 << 62
        assert charpoly(np.array([[[big, big], [big, big]]], dtype=object)).tolist() == [[1, -2 * big, 0]]
