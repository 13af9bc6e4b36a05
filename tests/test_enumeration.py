import math
import multiprocessing
from collections import Counter
from functools import partial
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import deleted_route
import kirchhoff.enumeration as enum
import kirchhoff.verify as verify
import labeled_bounds
from kirchhoff.cli import main
from kirchhoff.enumeration import (
    BudgetExceededError,
    batch_cycle_length,
    batch_degrees,
    batch_eigenvalues,
    batch_ends,
    batch_kf,
    batch_laplacian,
    batch_tree_counts,
    block_connected,
    block_kf_sweep,
    block_rows,
    cardinality,
    check_budget,
    complete_edge_table,
    connected_with_edges,
    deleted_edges,
    deletion_classes,
    enumerate_space,
    gram_classes,
    gram_keys,
    labeled_trees,
    member,
    prufer_decode,
    prufer_rows,
    prufer_steps,
    rank_rows,
    row_graph,
    scan_labeled_trees,
    scan_subsets,
    subset_blocks,
    subset_tail_length,
    suffix_masks,
    tail_length,
    wiener_block,
    wiener_counts,
)
from kirchhoff.families import GI_PATTERNS, FamilySpec, build, closed_form_kf
from kirchhoff.graphs import is_connected, make_graph
from kirchhoff.spectral import batch_determinant, charpoly, kf_resistance, kf_spectral, wiener
from row_route import batch_connected, per_row_kf_sweep


def batch_adjacency(n, subsets, dtype):
    """(B, n, n) adjacency matrices of the graphs whose edges the subset rows select."""
    ends = batch_ends(n, subsets)
    A = np.zeros((subsets.shape[0], n, n), dtype=dtype)
    rows = np.arange(subsets.shape[0])[:, None]
    A[rows, ends[..., 0], ends[..., 1]] = 1
    A[rows, ends[..., 1], ends[..., 0]] = 1
    return A


def adjacency_cycle_length(n, subsets):
    """The leaf stripping batch_cycle_length replaced, on a (B, n, n) bool adjacency stack."""
    A = batch_adjacency(n, subsets, bool)
    for _ in range(n):
        leaves = A.sum(axis=2) == 1
        if not leaves.any():
            break
        keep = ~leaves
        A &= keep[:, :, None] & keep[:, None, :]
    return (A.sum(axis=2) > 0).sum(axis=1)


@pytest.fixture
def inline_pool(monkeypatch):
    """The size of each fork pool ``scan`` opens, with the pool's tasks run in this process."""
    sizes = []

    class InlinePool:
        def __init__(self, size):
            sizes.append(size)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return [fn(task) for task in tasks]

    class Context:
        Pool = InlinePool

    monkeypatch.setattr(multiprocessing, "get_context", lambda method: Context)
    return sizes


def block_extent(rank0, rows):
    """A scan kernel that records the block it was given: (first rank, rows)."""
    return rank0, len(rows)


def merge_histograms(parts):
    """One TreeScan from rank-ordered block partials: summed histograms, first ranks."""
    first_rank = {}
    for part in parts:  # rank order: the first sighting has the lowest rank
        for w, rank in part.first_rank.items():
            first_rank.setdefault(w, rank)
    return enum.TreeScan(sum(p.count for p in parts), sum(p.hist for p in parts), first_rank)


def labeled_tree_scan(n, jobs=1):
    """The labeled tree scan scan_labeled_trees replaced: every tree decoded, at ``jobs``."""
    return enum.scan(labeled_trees(n), partial(enum._wiener_kernel, n), merge_histograms, jobs)


# Wiener index -> (labeled trees on 9 vertices, lowest rank), from the row-by-row decoder
N9_WIENER = {
    64: (9, 0), 70: (504, 1), 74: (1512, 10), 76: (10080, 83), 80: (33264, 11), 82: (75600, 92),
    84: (22680, 7310), 86: (189000, 101), 88: (231840, 903), 90: (136080, 7311), 92: (529200, 102),
    94: (241920, 912), 96: (362880, 7482), 98: (665280, 921), 100: (181440, 60781), 102: (544320, 7483),
    104: (423360, 922), 108: (408240, 8302), 110: (362880, 60791), 114: (181440, 8303), 120: (181440, 74733),
}


class TestCardinalityAndBudget:
    def test_deleted_edges_count(self):
        assert cardinality(deleted_edges(5, 2)) == 45
        assert len(list(enumerate_space(deleted_edges(5, 2)))) == 45

    def test_labeled_tree_count(self):
        assert cardinality(labeled_trees(5)) == 125
        trees = list(enumerate_space(labeled_trees(5)))
        assert len(trees) == 125 and len(set(trees)) == 125
        assert all(t.m == 4 and is_connected(t) for t in trees)

    @pytest.mark.parametrize(
        "make",
        [lambda n: deleted_edges(n, 1), labeled_trees, lambda n: connected_with_edges(n, n - 1)],
        ids=["deleted-edges", "labeled-trees", "connected-with-edges"],
    )
    def test_every_space_holds_2_to_62_vertices(self, make):
        assert make(2).n == 2 and make(62).n == 62
        for n in (1, 63):
            with pytest.raises(ValueError, match=rf"^enumeration spaces need 2 <= n <= 62, got n={n}$"):
                make(n)

    def test_budget_refusal_carries_cardinality(self):
        with pytest.raises(BudgetExceededError) as err:
            check_budget(deleted_edges(40, 20))
        assert err.value.cardinality == math.comb(780, 20)

    def test_scans_refuse_before_scanning(self, monkeypatch):
        def no_block(*args):
            raise AssertionError("a block ran")

        monkeypatch.setattr(enum, "_scan_worker", no_block)
        monkeypatch.setattr(enum, "wiener_block", no_block)
        monkeypatch.setattr(enum, "wiener_counts", no_block)
        with pytest.raises(BudgetExceededError):
            scan_subsets(deleted_edges(40, 20), "max", 1)
        with pytest.raises(BudgetExceededError):
            scan_labeled_trees(labeled_trees(12))

    def test_block_rows_from_n(self):
        assert [block_rows(n) for n in range(2, 14)] == [1 << 14] * 12
        assert block_rows(14) == 1 << 13

    def test_tail_length_from_n(self):
        # the largest L <= n-2 with n^L <= block_rows(n): the prefix is empty up to n = 6
        tails = {n: tail_length(n) for n in range(2, 18)}
        assert tails == {
            2: 0, 3: 1, 4: 2, 5: 3, 6: 4, **dict.fromkeys(range(7, 12), 4), **dict.fromkeys(range(12, 18), 3)
        }
        assert [n**L for n, L in tails.items()] == [
            1, 3, 16, 125, 1296, 2401, 4096, 6561, 10000, 14641, 1728, 2197, 2744, 3375, 4096, 4913
        ]

    def test_budget_boundary_allows_equality(self):
        spec = deleted_edges(5, 2)
        assert check_budget(spec, budget=45) == 45
        with pytest.raises(BudgetExceededError):
            check_budget(spec, budget=44)


class TestConnectedWithEdges:
    def test_count_against_subset_filter_oracle(self):
        # independent oracle: filter all 6-edge subsets by BFS connectivity
        table = complete_edge_table(6)
        expected = sum(
            1 for sub in combinations(table, 6) if is_connected(make_graph(6, sub))
        )
        got = list(enumerate_space(connected_with_edges(6, 6)))
        assert len(got) == expected
        assert all(is_connected(g) and g.m == 6 for g in got)


class TestUnranking:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_prufer_rows_match_mixed_radix(self, n):
        rows = prufer_rows(n, np.arange(n ** (n - 2)))
        assert rows.shape == (n ** (n - 2), n - 2)
        assert [tuple(row) for row in rows.tolist()] == list(product(range(n), repeat=n - 2))

    def test_subset_blocks_cover_range(self):
        blocks = list(subset_blocks(10, 4, 30, 150, 32))
        ranks = [r for r, _ in blocks]
        assert ranks[0] == 30
        rows = np.concatenate([b.rows for _, b in blocks])
        assert rows.tolist() == [list(c) for c in islice(combinations(range(10), 4), 30, 150)]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 12).flatmap(
            lambda m: st.tuples(
                st.just(m), st.integers(0, m), st.integers(0, 1000), st.integers(0, 1000), st.integers(1, 50)
            )
        )
    )
    @example((12, 0, 0, 5, 3))
    @example((12, 12, 0, 5, 3))
    @example((12, 5, 37, 700, 64))
    @example((78, 76, 1000, 40, 16))  # C(77, 38) overflows int64; C(78, 76) does not
    def test_subset_blocks_are_chunked_combinations(self, case):
        m, k, start, length, block = case
        stop = start + length
        expected = list(islice(combinations(range(m), k), start, stop))
        blocks = list(subset_blocks(m, k, start, stop, block))
        assert [r for r, _ in blocks] == list(range(start, start + len(expected), block))
        assert all(rows.shape == (min(block, start + len(expected) - r), k) for r, rows in blocks)
        got = [tuple(int(x) for x in row) for _, rows in blocks for row in rows.rows]
        assert got == expected

    def test_colex_binomials_saturate_at_int64(self):
        cap = np.iinfo(np.int64).max
        for m in range(40):
            full = [[min(math.comb(t, i), cap) for t in range(m)] for i in range(m + 1)]
            for k in range(m + 1):
                assert enum._colex_binomials(m, k).tolist() == full[: k + 1]
        for m, k in [(70, 35), (100, 50)]:  # from C(67, 33) on, entries saturate at the cap
            expected = [[min(math.comb(t, i), cap) for t in range(m)] for i in range(k + 1)]
            assert enum._colex_binomials(m, k).tolist() == expected

    def test_subset_ranks_beyond_int64_refused(self):
        with pytest.raises(ValueError, match=r"C\(200,100\)"):
            next(subset_blocks(200, 100, 0, 1, 1))


def _block_rows_as_unranked(m, k, block, start=0, stop=None):
    """Whether every subset block of [start, stop) holds the rows unrank_rows gives its ranks."""
    stop = math.comb(m, k) if stop is None else stop
    want = enum.unrank_rows(m, k, np.arange(start, stop))
    for rank0, b in subset_blocks(m, k, start, stop, block):
        rows = b.rows
        if not (b.shape == rows.shape and len(b) == rows.shape[0]):
            return False
        if rows.tolist() != want[rank0 - start : rank0 - start + block].tolist():
            return False
    return rank0 == start + block * ((stop - start - 1) // block)


class TestSubsetBlocks:
    """Blocks built from shared prefixes and a lex table of tails, against unrank_rows."""

    @pytest.mark.parametrize("m", range(16))
    def test_every_block_as_unrank_rows(self, m):
        # blocks of 1, 7 and 32 rows cut the runs of rows that share a prefix mid-way
        for k in range(m + 1):
            for block in (1, 7, 32, 1 << 14):
                assert _block_rows_as_unranked(m, k, block), (m, k, block)

    @pytest.mark.parametrize(
        "m,k,start,stop,block",
        [
            (21, 0, 0, 1, 1 << 14),  # one empty row
            (21, 3, 0, 1330, 1 << 14),  # L = k: the prefix is empty, the rows are the tail table
            (21, 3, 5, 1000, 7),
            (21, 21, 0, 1, 1 << 14),  # k = m
            (28, 9, 0, 3 * (1 << 14), 1 << 14),
            (28, 9, math.comb(28, 9) - 40000, math.comb(28, 9), 1 << 14),
            (66, 14, 10**12, 10**12 + 5000, 2048),  # one-slot tails, prefix ranks past 2^32
            (1891, 1890, 0, 1891, 512),
        ],
    )
    def test_edge_cases_as_unrank_rows(self, m, k, start, stop, block):
        assert _block_rows_as_unranked(m, k, block, start, stop)

    def test_tail_length_from_the_edge_count(self):
        # C(m, L) <= SWEEP_ROWS: three slots at n = 7, two at n = 8..11, one up to n = 62
        lengths = {n: subset_tail_length(n * (n - 1) // 2, n + 1) for n in range(4, 63)}
        assert lengths == {4: 5, 5: 6, 6: 4, 7: 3, **dict.fromkeys(range(8, 12), 2), **dict.fromkeys(range(12, 63), 1)}
        assert [subset_tail_length(21, k) for k in range(6)] == [0, 1, 2, 3, 3, 3]
        assert subset_tail_length(10, 10) == 10 and subset_tail_length(0, 0) == 0

    @pytest.mark.parametrize("m", range(13))
    def test_rank_rows_inverts_unrank_rows(self, m):
        for k in range(m + 1):
            ranks = np.arange(math.comb(m, k))
            rows = enum.unrank_rows(m, k, ranks)
            assert rank_rows(m, k, rows).tolist() == ranks.tolist()
            assert rows.tolist() == [list(c) for c in combinations(range(m), k)]

    def test_rank_rows_at_large_ranks(self):
        for m, k in [(1891, 1890), (66, 14), (78, 76), (190, 188)]:
            total = math.comb(m, k)
            ranks = np.array(sorted({0, 1, total // 3, total // 2, total - 2, total - 1}), dtype=np.int64)
            assert rank_rows(m, k, enum.unrank_rows(m, k, ranks)).tolist() == ranks.tolist()


class TestMember:
    def test_member_matches_lexicographic_combinations(self):
        # rank r is the r-th k-subset of E(K_n) in itertools order: the edges kept, or deleted
        table = complete_edge_table(5)
        for k in (0, 2, 5, 10):
            for rank, combo in enumerate(combinations(table, k)):
                assert member(connected_with_edges(5, k), rank) == make_graph(5, combo)
                assert member(deleted_edges(5, k), rank) == make_graph(5, set(table) - set(combo))

    @pytest.mark.parametrize(
        "spec", [deleted_edges(5, 2), labeled_trees(4), connected_with_edges(5, 5)], ids=lambda s: s.mode
    )
    def test_member_rejects_ranks_outside_the_space(self, spec):
        for rank in (-1, cardinality(spec)):
            with pytest.raises(ValueError, match=rf"rank {rank} outside \[0, {cardinality(spec)}\)"):
                member(spec, rank)

    def test_member_at_each_rank_is_the_streamed_member(self):
        for spec in (deleted_edges(5, 2), labeled_trees(5)):
            members = [member(spec, r) for r in range(cardinality(spec))]
            assert members == list(enumerate_space(spec))
        spec = connected_with_edges(5, 5)
        members = [member(spec, r) for r in range(cardinality(spec))]
        assert [g for g in members if is_connected(g)] == list(enumerate_space(spec))

    def test_tree_members_across_a_block_boundary(self):
        # 7^5 = 16,807 trees: one block of 2^14 and a short one of 423
        spec, start, stop = labeled_trees(7), block_rows(7) - 5, block_rows(7) + 5
        expected = [scalar_prufer_decode(seq, 7) for seq in islice(product(range(7), repeat=5), start, stop)]
        assert list(islice(enumerate_space(spec), start, stop)) == expected
        assert [member(spec, rank) for rank in range(start, stop)] == expected

    def test_tree_ranks_are_int64(self):
        # 17^15 < 2^63 - 1 < 18^16; the last sequence, all 16s, is the star at 16
        last = cardinality(labeled_trees(17)) - 1
        assert prufer_rows(17, [last]).tolist() == [[16] * 15]
        assert member(labeled_trees(17), last) == make_graph(17, [(v, 16) for v in range(16)])
        with pytest.raises(ValueError, match="do not fit int64"):
            member(labeled_trees(18), 0)


def scalar_prufer_decode(seq, n):
    """Reference smallest-leaf decoder, one vertex scan per step."""
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    for x in seq:
        leaf = min(v for v in range(n) if degree[v] == 1)
        edges.append((leaf, x))
        degree[leaf] = 0
        degree[x] -= 1
    u, v = (v for v in range(n) if degree[v] == 1)
    edges.append((u, v))
    return make_graph(n, edges)


def tree_ranges(n):
    """(n, first rank, length) draws: anywhere in the space, or within 64 ranks
    of the start of a run of n^L ranks that share a prefix."""
    total, period = n ** (n - 2), n ** tail_length(n)
    near_run = st.tuples(st.integers(0, total // period), st.integers(-64, 64)).map(lambda t: t[0] * period + t[1])
    start = st.one_of(st.integers(0, total - 1), near_run).map(lambda r: min(max(r, 0), total - 1))
    return st.tuples(st.just(n), start, st.integers(1, 64))


class TestPrufer:
    def test_decode_star_and_path(self):
        assert prufer_decode((0, 0), 4).edges == ((0, 1), (0, 2), (0, 3))
        path = prufer_decode((1, 2), 4)
        assert sorted(path.degree(v) for v in range(4)) == [1, 1, 2, 2]

    def test_all_sequences_distinct_trees(self):
        n = 5
        trees = {prufer_decode(tuple(row), n) for row in prufer_rows(n, np.arange(125)).tolist()}
        assert len(trees) == 125

    def check_decoders(self, n, seqs):
        trees = [scalar_prufer_decode(seq, n) for seq in seqs]
        assert [prufer_decode(seq, n) for seq in seqs] == trees
        digits = np.array(seqs, dtype=np.int64).reshape(len(seqs), n - 2).T
        last = np.full(len(seqs), n - 1)
        steps = list(prufer_steps(suffix_masks(digits), [*digits, last], np.zeros(len(seqs), dtype=np.int64)))
        batch = [make_graph(n, [(int(leaf[i]), int(parent[i])) for leaf, parent in steps]) for i in range(len(seqs))]
        assert batch == trees
        if n <= 17:
            ranks = [sum(x * n ** (n - 3 - k) for k, x in enumerate(seq)) for seq in seqs]
            assert [int(wiener_block(n, r, r + 1)[0]) for r in ranks] == [wiener(t) for t in trees]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_decoders_match_scalar_loop_on_every_sequence(self, n):
        self.check_decoders(n, list(product(range(n), repeat=n - 2)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 17).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2), min_size=1, max_size=8),
            )
        )
    )
    @example((17, [tuple(range(1, 16)), (0,) * 15, (16,) * 15]))  # the widest size lanes, by their sequences
    def test_decoders_match_scalar_loop(self, case):
        n, seqs = case
        self.check_decoders(n, [tuple(seq) for seq in seqs])

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(18, 62).flatmap(
            lambda n: st.tuples(st.just(n), st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2))
        )
    )
    @example((62, list(range(1, 61))))  # the pruned mask reaches vertex 60, the bitmask's top leaf
    @example((62, [0] * 60))
    @example((62, [61] * 60))
    def test_decoder_matches_scalar_loop_up_to_62_vertices(self, case):
        n, seq = case
        self.check_decoders(n, [tuple(seq)])

    @staticmethod
    def decoded_wiener(n, start, stop):
        """The Wiener index of each tree at the ranks [start, stop), decoded one at a time."""
        return [wiener(prufer_decode(row, n)) for row in prufer_rows(n, np.arange(start, stop)).tolist()]

    @pytest.mark.parametrize("n", range(2, 8))
    def test_wiener_ranges_on_every_tree(self, n):
        # cut at the scan's blocks (at n = 7, 2^14 ranks and a short 423) and at each
        # run of n^L ranks that share a prefix, which the blocks cross
        total, period = n ** (n - 2), n ** tail_length(n)
        expected = self.decoded_wiener(n, 0, total)
        for step in (block_rows(n), period):
            got = [wiener_block(n, r, min(r + step, total)) for r in range(0, total, step)]
            assert np.concatenate(got).tolist() == expected

    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 17).flatmap(tree_ranges))
    # size lanes at their widest: the star at 0, the path into 16 (a 16-vertex side), the star at 16
    @example((17, 0, 1))
    @example((17, sum(v * 17 ** (15 - v) for v in range(1, 16)), 1))
    @example((17, 17**15 - 1, 1))
    @example((9, 5 * 9**4 - 10, 20))  # across a prefix boundary
    @example((9, 9**7 - 40, 64))  # the end of the space's short last block
    def test_wiener_ranges_match_decoded_trees(self, case):
        n, start, length = case
        stop = min(start + length, n ** (n - 2))
        assert wiener_block(n, start, stop).tolist() == self.decoded_wiener(n, start, stop)

    def test_wiener_lanes_refuse_18_vertices(self):
        with pytest.raises(ValueError, match="at most 17 vertices, got n=18"):
            wiener_block(18, 0, 1)

    def test_wiener_block_refuses_ranges_outside_one_block(self):
        for start, stop in ((-1, 5), (5, 4), (124, 126), (0, block_rows(5) + 1)):
            with pytest.raises(ValueError, match="is not a range of at most"):
                wiener_block(5, start, stop)

    def test_decode_refuses_63_vertices(self):
        with pytest.raises(ValueError, match=r"^enumeration spaces need 2 <= n <= 62, got n=63$"):
            prufer_decode((0,) * 61, 63)

    def test_decode_rejects_malformed_sequences(self):
        with pytest.raises(ValueError, match="length must be n-2=3"):
            prufer_decode((0, 1), 5)
        with pytest.raises(ValueError, match=r"entry 5 outside \[0,5\)"):
            prufer_decode((0, 5, 1), 5)


class TestBulkKernels:
    def test_batch_eigs_match_single_graph_route(self):
        table = complete_edge_table(6)
        subs = np.array(list(combinations(range(15), 2))[:40], dtype=np.int64)
        ends = batch_ends(6, subs)
        eigs = batch_eigenvalues(6, ends, gram_classes(6, subs))
        conn, kf = batch_kf(6, eigs)
        for row in range(40):
            g = make_graph(6, set(table) - {table[i] for i in subs[row]})
            assert conn[row] == is_connected(g)
            if conn[row]:
                assert abs(kf[row] - kf_spectral(g)) < 1e-9

    @pytest.mark.parametrize("n,k", [(6, 6), (7, 8)])
    def test_batch_laplacian_bitwise_as_negated_adjacency(self, n, k):
        # reference assembly: L = -A with the degrees on the diagonal, so every
        # off-diagonal zero is -0.0; LAPACK reads that sign into Kf's last bits.
        subs = np.array(list(islice(combinations(range(n * (n - 1) // 2), k), 6000)), dtype=np.int64)
        A = batch_adjacency(n, subs, float)
        deg = A.sum(axis=2)
        L = -A
        L[:, range(n), range(n)] = deg
        reference = np.linalg.eigvalsh(L)
        eigs = _full_spectrum(n, batch_ends(n, subs))
        assert (eigs.view(np.int64) == reference.view(np.int64)).all()

    def test_wiener_scan_matches_streamed_trees(self):
        scan = scan_labeled_trees(labeled_trees(6))
        by_value = Counter(wiener(t) for t in enumerate_space(labeled_trees(6)))
        assert scan.count == 6**4
        assert {w: int(c) for w, c in enumerate(scan.hist) if c} == dict(by_value)

    def test_n9_histogram_and_first_ranks_pinned(self):
        # recorded from the row-by-row decoder: W -> (trees, lowest rank)
        scan = scan_labeled_trees(labeled_trees(9))
        assert scan.count == 9**7
        assert {w: (int(scan.hist[w]), rank) for w, rank in scan.first_rank.items()} == N9_WIENER
        assert int(scan.hist.sum()) == 9**7

    def test_wiener_scan_first_rank_witnesses(self):
        scan = scan_labeled_trees(labeled_trees(5))
        for w, rank in scan.first_rank.items():
            assert wiener(member(labeled_trees(5), rank)) == w

    @staticmethod
    def assert_same_tree_scan(got, want):
        assert type(got.count) is int and got.count == want.count
        assert got.hist.dtype == want.hist.dtype and got.hist.tolist() == want.hist.tolist()
        assert list(got.first_rank.items()) == list(want.first_rank.items())

    @pytest.mark.parametrize("n", range(2, 10))
    def test_counted_tree_scan_as_the_labeled_scan(self, n):
        self.assert_same_tree_scan(scan_labeled_trees(labeled_trees(n)), labeled_tree_scan(n))

    def test_counted_tree_scan_as_the_labeled_scan_at_10(self):
        # 10^8 trees in 6,104 blocks, all decoded by the labeled scan
        self.assert_same_tree_scan(scan_labeled_trees(labeled_trees(10)), labeled_tree_scan(10, jobs=2))

    @pytest.mark.parametrize("n", range(2, 18))
    def test_tree_counts_sum_to_cayley(self, n):
        hist = wiener_counts(n)
        assert hist.dtype == np.int64 and hist.size == n**3 // 6 + 2 and (hist >= 0).all()
        assert int(hist.sum()) == n ** (n - 2)

    @pytest.mark.parametrize("n", range(3, 18))
    def test_tree_counts_of_stars_and_paths(self, n):
        # the n labeled stars have the least W, (n-1)^2, and the n!/2 labeled paths the most, C(n+1, 3)
        hist = wiener_counts(n)
        star, path = (n - 1) ** 2, math.comb(n + 1, 3)
        assert hist[star] == n and hist[path] == math.factorial(n) // 2
        assert np.flatnonzero(hist)[[0, -1]].tolist() == [star, path]

    def test_tree_counts_refuse_18_vertices(self):
        with pytest.raises(ValueError, match="at most 17 vertices"):
            wiener_counts(18)
        with pytest.raises(ValueError, match="at most 17 vertices"):
            scan_labeled_trees(labeled_trees(18), budget=18**16)

    def test_tree_scan_decodes_the_first_rank_prefix(self, monkeypatch):
        # at n = 9 the last value's first tree, W = 120, sits at rank 74,733, in block 4 of 292
        starts = []

        def counted(n, start, stop):
            starts.append(start)
            return wiener_block(n, start, stop)

        monkeypatch.setattr(enum, "wiener_block", counted)
        scan_labeled_trees(labeled_trees(9))
        assert starts == [block * block_rows(9) for block in range(5)]

    def test_subset_scan_matches_bruteforce_extremes(self):
        table = complete_edge_table(6)
        vals = [
            kf_spectral(make_graph(6, sub))
            for sub in combinations(table, 6)
            if is_connected(make_graph(6, sub))
        ]
        scan = scan_subsets(connected_with_edges(6, 6), objective="max", top=1)
        assert abs(scan.vals.max() - max(vals)) < 1e-9
        assert scan.connected == len(vals)

    def test_scan_jobs_do_not_change_results(self):
        one = scan_subsets(connected_with_edges(6, 6), objective="max", top=2, jobs=1)
        two = scan_subsets(connected_with_edges(6, 6), objective="max", top=2, jobs=2)
        assert one.checked == two.checked and one.connected == two.connected
        assert sorted(one.ranks) == sorted(two.ranks)
        t_one = labeled_tree_scan(6, jobs=1)
        t_two = labeled_tree_scan(6, jobs=2)
        assert (t_one.hist == t_two.hist).all()
        assert t_one.first_rank == t_two.first_rank

    @pytest.mark.parametrize("spec", [connected_with_edges(7, 9), labeled_trees(8)], ids=["subsets", "trees"])
    def test_blocks_sit_on_a_fixed_grid(self, spec):
        # 293,930 subsets in 18 blocks of 2^14 rows, 8^6 trees in 16; no job's run starts mid-block
        block, total = block_rows(spec.n), cardinality(spec)
        grid = [(rank, min(block, total - rank)) for rank in range(0, total, block)]
        assert [enum.scan(spec, block_extent, list, jobs) for jobs in (1, 2, 3)] == [grid] * 3

    def test_tree_scan_same_at_any_jobs(self):
        # 8^6 = 262,144 trees in 16 blocks of 2^14; jobs 3 runs 5, 5 and 6 of them
        one = labeled_tree_scan(8, jobs=1)
        three = labeled_tree_scan(8, jobs=3)
        assert one.count == three.count == 8**6
        assert one.hist.tolist() == three.hist.tolist()
        assert one.first_rank == three.first_rank

    def test_pool_is_capped_at_the_usable_cpus(self, inline_pool, monkeypatch):
        monkeypatch.setattr(enum.os, "sched_getaffinity", lambda pid: {0, 1})
        many = labeled_tree_scan(8, jobs=100000)
        one = labeled_tree_scan(8, jobs=1)
        labeled_tree_scan(6, jobs=2)  # one block runs inline
        assert inline_pool == [2]
        assert many.hist.tolist() == one.hist.tolist() and many.first_rank == one.first_rank

    def test_a_worker_takes_at_least_two_blocks(self, inline_pool, monkeypatch):
        runs = []
        monkeypatch.setattr(enum, "_scan_worker", lambda task: runs.append(task[2:]) or [])

        def workers(spec, jobs):
            runs.clear()
            enum.scan(spec, block_extent, list, jobs)
            return len(runs)

        # 2, 3, 4, 8 and 13 blocks of 2^14 rows; then 5 of 4,096 rows at n = 20
        spaces = [(7, 5), (12, 63), (9, 32), (7, 7), (7, 8), (20, 188)]
        assert [workers(connected_with_edges(n, k), 4) for n, k in spaces] == [1, 1, 2, 4, 4, 2]
        assert [workers(deleted_edges(8, p), 2) for p in (4, 5)] == [1, 2]
        assert workers(labeled_trees(8), 100000) == 8  # 16 blocks

    def test_unicyclic_girth_split(self):
        scan = scan_subsets(connected_with_edges(6, 6), "max", 1, classify=batch_cycle_length)
        by_girth = scan.by_key
        assert scan.checked == math.comb(15, 6)
        assert set(by_girth) == {3, 4, 5, 6}
        assert sum(s.connected for s in by_girth.values()) == scan.connected
        # the one cycle-length-6 graph class is the 6-cycle itself
        vals6 = by_girth[6].vals
        assert abs(vals6.max() - kf_spectral(make_graph(6, [(i, (i + 1) % 6) for i in range(6)]))) < 1e-9


def _full_spectrum(n, ends):
    """Ascending eigenvalues of each row's full n x n Laplacian, the sweep's oracle."""
    return np.linalg.eigvalsh(batch_laplacian(n, ends, batch_degrees(n, ends)))


def _eigvalsh_kf(n, ends):
    """The route the sweep replaced: Kf from each connected row's full Laplacian spectrum."""
    return batch_kf(n, _full_spectrum(n, ends))[1]


def _eigvalsh_block_kf(n, block, idx):
    """``block_kf_sweep`` by the eigvalsh route, on the block's materialised rows."""
    return _eigvalsh_kf(n, batch_ends(n, block.rows[idx]))


def _connected_ends(n, m):
    """Endpoints of every connected m-edge graph on n labeled vertices."""
    subs = _all_subsets(n, m)
    return batch_ends(n, subs[batch_connected(n, subs)])


def _sweep_kf(n, m):
    """``block_kf_sweep`` of every connected row of connected_with_edges(n, m), in rank order."""
    spec = connected_with_edges(n, m)
    parts = [np.zeros(0)]
    for _, block in enum._blocks(spec, 0, cardinality(spec)):
        parts.append(block_kf_sweep(n, block, np.flatnonzero(block_connected(n, block))))
    return np.concatenate(parts)


def argsort_pool(vals, ranks, objective, top):
    """``_pool_top_groups`` as it was before it cut first, kept as its oracle: a stable
    argsort of every row, then the first ``top`` groups."""
    if vals.size == 0:
        return vals, ranks
    order, groups = enum._sorted_groups(vals, objective)
    keep = order[groups < top]
    return vals[keep], ranks[keep]


def _chain(start, links, step):
    """``links`` values from ``start``, each ``step`` * TIE_TOL relative above the one before."""
    return [start * (1 + step * enum.TIE_TOL) ** i for i in range(links)]


class TestPool:
    """The cut-first pool against the full-argsort pool: the same arrays, bit for bit."""

    # each chain's neighbours are tied, its ends are not: one group that the cut must not split
    POOLS = {
        "empty": [],
        "one": [5.0],
        "all-equal": [7.0] * 6,
        "all-tied-chain": _chain(3.0, 8, 0.6),
        "two-groups": [2.0, 9.0, 2.0, 9.0],
        "chain-at-each-end": _chain(10.0, 4, 0.9) + [20.0, 30.0, 20.0] + _chain(40.0, 5, 0.7)[::-1],
        "chains-straddling": [11.0, 12.0, 13.0, 14.0] + _chain(12.0, 3, 0.8) + _chain(13.0, 3, -0.8)
        + _chain(14.0, 2, 1.5),  # 1.5 TIE_TOL apart: two groups, the cut falls between them
        "near-misses": [1.0, 1.0 + 1.01e-7, 1.0 + 2.02e-7, 2.0, 2.0 * (1 + 0.99e-7), 3.0],
    }

    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("top", [1, 2, 3, 4])
    @pytest.mark.parametrize("pool", POOLS, ids=str)
    def test_planted_values_as_the_argsort_pool(self, pool, top, objective):
        vals = np.array(self.POOLS[pool], dtype=float)
        for seed in range(4):  # shuffled, with ranks in several orders
            rng = np.random.default_rng(seed)
            order = rng.permutation(vals.size)
            ranks = rng.permutation(10 * vals.size)[: vals.size].astype(np.int64)
            got = enum._pool_top_groups(vals[order], ranks, objective, top)
            want = argsort_pool(vals[order], ranks, objective, top)
            assert got[0].dtype == want[0].dtype and got[0].tobytes() == want[0].tobytes()
            assert got[1].dtype == want[1].dtype and got[1].tolist() == want[1].tolist()

    @pytest.mark.parametrize("objective", ["max", "min"])
    @pytest.mark.parametrize("top", [1, 3])
    def test_scan_blocks_as_the_argsort_pool(self, objective, top):
        # Kf of a block's connected rows: thousands of exact and near ties
        spec = connected_with_edges(7, 8)
        for rank0, block in islice(enum._blocks(spec, 0, cardinality(spec)), 3):
            idx = np.flatnonzero(block_connected(7, block))
            kf = block_kf_sweep(7, block, idx)
            got = enum._pool_top_groups(kf, rank0 + idx, objective, top)
            want = argsort_pool(kf, rank0 + idx, objective, top)
            assert got[0].tobytes() == want[0].tobytes() and got[1].tolist() == want[1].tolist()


def _block_results(spec, top, classify, monkeypatch, route):
    """Each block's pooled (first rank, ranks, value groups with formatted leads), by key."""
    monkeypatch.setattr(enum, "block_kf_sweep", route)
    results = []
    for rank0, rows in enum._blocks(spec, 0, cardinality(spec)):
        part = enum._kf_kernel(spec.n, False, "max", top, classify, rank0, rows)
        for key, pool in sorted(part.by_key.items()) or [(None, part)]:
            groups = enum.value_groups(pool.vals, pool.ranks, "max", top)
            leads = [(verify.format_real(lead), ranks.tolist()) for lead, ranks in groups]
            results.append((rank0, key, part.connected, sorted(pool.ranks.tolist()), leads))
    return results


class TestSweepKf:
    """Connected-with-edges Kf = n tr X - 1^T X 1, X the inverse of the reduced
    Laplacian, against Kf from the eigvalsh spectrum and, on trees, the Wiener index."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_every_connected_row_as_its_spectrum(self, n):
        for m in range(n * (n - 1) // 2 + 1):
            exact = _eigvalsh_kf(n, _connected_ends(n, m))
            assert (np.abs(_sweep_kf(n, m) - exact) <= 1e-12 * exact).all()

    @pytest.mark.parametrize("n", range(2, 8))
    def test_tree_rows_as_their_wiener_index(self, n):
        spec = connected_with_edges(n, n - 1)
        subs = _all_subsets(n, n - 1)
        idx = np.flatnonzero(batch_connected(n, subs))
        assert idx.size == n ** (n - 2)  # Cayley: every connected n-1 edge graph is a tree
        W = np.array([wiener(row_graph(spec, row)) for row in subs[idx].tolist()], dtype=float)
        assert (np.abs(_sweep_kf(n, n - 1) - W) <= 1e-12 * W).all()

    @pytest.mark.parametrize(
        "spec,top,classify",
        [(connected_with_edges(7, 8), 3, None), (connected_with_edges(7, 7), 1, batch_cycle_length)],
        ids=["top-3", "unicyclic"],
    )
    def test_every_block_pools_as_the_eigvalsh_route(self, spec, top, classify, monkeypatch):
        sweep = _block_results(spec, top, classify, monkeypatch, block_kf_sweep)
        reference = _block_results(spec, top, classify, monkeypatch, _eigvalsh_block_kf)
        assert sweep == reference

    @pytest.mark.parametrize(
        "n,m,blocks",
        [(7, 8, None), (7, 7, None), (8, 9, 1), (12, 14, 1), (20, 188, 1), (62, 1890, None)],
        ids=str,
    )
    def test_blocks_as_the_per_row_sweep(self, n, m, blocks):
        # the same connected rows and the same Kf bits as each row's own Laplacian gives
        spec = connected_with_edges(n, m)
        for rank0, block in islice(enum._blocks(spec, 0, cardinality(spec)), blocks):
            rows = enum.unrank_rows(n * (n - 1) // 2, m, np.arange(rank0, rank0 + block.shape[0]))
            idx = np.flatnonzero(block_connected(n, block))
            assert idx.tolist() == np.flatnonzero(batch_connected(n, rows)).tolist()
            kf = block_kf_sweep(n, block, idx)
            assert kf.tobytes() == per_row_kf_sweep(n, batch_ends(n, rows[idx])).tobytes()

    def test_connected_scans_call_no_eigensolver(self, monkeypatch):
        def fail(*args):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        spec = connected_with_edges(6, 7)
        scan = scan_subsets(spec, "max", 1)
        assert scan.connected == sum(1 for _ in enumerate_space(spec)) and scan.vals.size > 0


def _full_deleted_spectrum(n, subs):
    """The n x n route the deleted-edge kernel replaced: eigvalsh of K_n - H's Laplacian."""
    A = (1.0 - np.eye(n)) - batch_adjacency(n, subs, float)
    L = -A
    L[:, range(n), range(n)] = A.sum(axis=2)
    return np.linalg.eigvalsh(L)


def _deleted_eigenvalues(n, subs):
    """The Gram route, or each row's L(H) where p >= n (tests/deleted_route.py)."""
    return deleted_route.deleted_eigenvalues(n, batch_ends(n, subs), gram_classes(n, subs))


def _all_subsets(n, p):
    m = n * (n - 1) // 2
    return np.array(list(combinations(range(m), p)), dtype=np.int64).reshape(math.comb(m, p), p)


def _deleted_rows(n):
    """1..4 rows of p sorted edge indices of K_n, p <= n + 3, the same p for every row."""
    m = n * (n - 1) // 2
    return st.integers(0, min(n + 3, m)).flatmap(
        lambda p: st.lists(st.sets(st.integers(0, m - 1), min_size=p, max_size=p).map(sorted), min_size=1, max_size=4)
    )


# Every row of these spaces: p = 0 (no solve), p = 1, the perfect matchings at
# n = 8, p = 4, and more deleted edges than vertices at n = 6.
SMALL_DELETED = [(n, p) for n in range(2, 9) for p in range(min(4, n * (n - 1) // 2) + 1)]
SMALL_DELETED += [(6, p) for p in range(6, 10)]


def _max_error(n, subs):
    return np.abs(_deleted_eigenvalues(n, subs) - _full_deleted_spectrum(n, subs)).max()


class TestDeletedSpectrum:
    """K_n - H's spectrum from H's p x p edge Gram matrix (or, when p >= n, from
    L(H) in tests/deleted_route.py) against the full n x n eigensolve, which
    stays as the oracle, to n * 1e-13."""

    @pytest.mark.parametrize("n,p", SMALL_DELETED)
    def test_every_row_of_small_spaces(self, n, p):
        subs = _all_subsets(n, p)
        assert _deleted_eigenvalues(n, subs).shape == (subs.shape[0], n)
        assert _max_error(n, subs) <= n * 1e-13

    def test_no_deleted_edge_calls_no_eigensolver(self, monkeypatch):
        def fail(matrix):
            raise AssertionError("eigensolver called")

        monkeypatch.setattr(np.linalg, "eigvalsh", fail)
        eigs = _deleted_eigenvalues(7, np.zeros((3, 0), dtype=np.int64))
        assert eigs.tolist() == [[0.0] + [7.0] * 6] * 3

    def test_library_refuses_n_or_more_deleted_edges(self):
        ends = batch_ends(6, _all_subsets(6, 6)[:3])
        with pytest.raises(ValueError, match=r"^the Gram route holds fewer than n = 6 deleted edges, got 6$"):
            batch_eigenvalues(6, ends)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 62).flatmap(lambda n: st.tuples(st.just(n), _deleted_rows(n))))
    @example((62, [[i * (123 - i) // 2 for i in range(0, 62, 2)]]))  # the perfect matching (0,1), (2,3), ...
    @example((62, [list(range(31))]))  # a 31-star at vertex 0
    @example((62, [list(range(65))]))  # p >= n
    def test_random_rows_up_to_62_vertices(self, case):
        n, rows = case
        subs = np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))
        assert _max_error(n, subs) <= n * 1e-13

    def test_named_deletion_patterns_match_closed_forms(self):
        # g6, g7 and g8 have no catalogued form; the resistance route stands in
        for n in range(6, 41):
            index = {e: i for i, e in enumerate(complete_edge_table(n))}
            for i, edges in GI_PATTERNS.items():
                spec = FamilySpec("gi", (n, i))
                subs = np.array([[index[e] for e in edges]], dtype=np.int64).reshape(1, len(edges))
                connected, kf = batch_kf(n, _deleted_eigenvalues(n, subs))
                form = closed_form_kf(spec)
                exact = float(form) if form is not None else kf_resistance(build(spec))
                assert connected[0] and abs(kf[0] - exact) <= 1e-12 * exact


def _incidence_grams(n, subs):
    """(B, p, p) int64 Gram matrices N N^T, N each row's (p, n) oriented incidence matrix."""
    ends = np.array(complete_edge_table(n), dtype=np.int64).reshape(-1, 2)[subs]
    B, p = subs.shape
    N = np.zeros((B, p, n), dtype=np.int64)
    rows, edges = np.arange(B)[:, None], np.arange(p)
    N[rows, edges, ends[..., 0]] = 1
    N[rows, edges, ends[..., 1]] = -1
    return N @ N.transpose(0, 2, 1)


def _per_row_gram_spectrum(n, subs):
    """Each row's deleted-edges spectrum (0 < p < n) from an eigensolve of its own N N^T."""
    lam = np.linalg.eigvalsh(_incidence_grams(n, subs).astype(float))
    eigs = np.full((subs.shape[0], n), float(n))
    eigs[:, 0] = 0.0
    eigs[:, 1 : 1 + subs.shape[1]] = n - lam[:, ::-1]
    return eigs


def _grouped_counts(n, subs):
    """One count per Gram class, on its first row, as labeled_bounds.deletion_block takes them."""
    ends = batch_ends(n, subs)
    first, which = gram_classes(n, subs)
    eigs = deleted_route.deleted_eigenvalues(n, ends, (first, which))
    return batch_tree_counts(n, ends[first], eigs[first])[which]


def _per_row_counts(n, subs):
    """Bareiss on each row's own full (n-1)-minor of L(K_n - H), assembled as
    batch_tree_counts once did: an int8 K_n Laplacian with H's edges zeroed
    and n - 1 - deg_H on the diagonal."""
    ends = batch_ends(n, subs)
    rows = np.arange(subs.shape[0])[:, None]
    L = np.full((subs.shape[0], n, n), -1, dtype=np.int8)
    L[rows, ends[..., 0], ends[..., 1]] = L[rows, ends[..., 1], ends[..., 0]] = 0
    L[:, range(n), range(n)] = n - 1 - batch_degrees(n, ends)
    return batch_determinant(L[:, 1:, 1:])


def _repeated_rows(n, max_p, min_p=1):
    """(n, rows): 1..12 rows of p sorted edge indices of K_n, drawn with repeats
    from 1..4 distinct rows, min_p <= p <= max_p, the same p for every row."""
    m = n * (n - 1) // 2
    return (
        st.integers(min(min_p, max_p, m), min(max_p, m))
        .flatmap(lambda p: st.lists(st.sets(st.integers(0, m - 1), min_size=p, max_size=p).map(sorted), min_size=1, max_size=4))
        .flatmap(lambda pool: st.lists(st.sampled_from(pool), min_size=1, max_size=12))
        .map(lambda rows: (n, rows))
    )


def _subs(rows):
    return np.array(rows, dtype=np.int64).reshape(len(rows), len(rows[0]))


GRAM_SPACES = [(n, p) for n in range(2, 9) for p in range(1, min(4, n - 1) + 1)]
COUNT_SPACES = [(n, p) for n in range(2, 9) for p in range(min(4, n * (n - 1) // 2) + 1)]


class TestGramClasses:
    """A deleted-edges block eigensolves and counts one row per distinct Gram
    matrix N N^T; every row must get exactly what a per-row solve gives it."""

    @staticmethod
    def _assert_classes_and_spectra(n, subs):
        grams = _incidence_grams(n, subs).reshape(subs.shape[0], -1)
        first, which = gram_classes(n, subs)
        assert (grams[first][which] == grams).all()  # a class holds one Gram matrix ...
        assert first.size == np.unique(grams, axis=0).shape[0]  # ... and no two classes share one
        got, want = _deleted_eigenvalues(n, subs), _per_row_gram_spectrum(n, subs)
        assert (got.view(np.int64) == want.view(np.int64)).all()
        assert (batch_kf(n, got)[1].view(np.int64) == batch_kf(n, want)[1].view(np.int64)).all()

    @pytest.mark.parametrize("n,p", GRAM_SPACES)
    def test_every_row_bitwise_as_its_own_gram_solve(self, n, p):
        self._assert_classes_and_spectra(n, _all_subsets(n, p))

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 62).flatmap(lambda n: _repeated_rows(n, min(9, n - 1))))
    @example((62, [list(range(9))] * 5))  # one class: a 9-star, repeated
    @example((62, [[0], [7], [1000], [0]]))  # one class: every single edge has N N^T = [2]
    @example((9, [[0, 1, 2], [0, 1, 8], [0, 1, 2], [0, 8, 15]]))  # a star, a triangle, a star, a path
    def test_random_blocks_up_to_62_vertices(self, case):
        n, rows = case
        self._assert_classes_and_spectra(n, _subs(rows))

    @pytest.mark.parametrize("n,p", COUNT_SPACES)
    def test_every_row_counts_as_its_own_minor(self, n, p):
        subs = _all_subsets(n, p)
        assert _grouped_counts(n, subs).tolist() == _per_row_counts(n, subs).tolist()

    @pytest.mark.parametrize("n,p", COUNT_SPACES)
    def test_every_row_counts_as_the_int8_deleted_minor(self, n, p):
        # batch_tree_counts on every row, no classes: the minor of nI - J - L(H)
        subs = _all_subsets(n, p)
        ends = batch_ends(n, subs)
        counts = batch_tree_counts(n, ends, deleted_route.deleted_eigenvalues(n, ends))
        assert counts.tolist() == _per_row_counts(n, subs).tolist()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 21).flatmap(lambda n: _repeated_rows(n, 9, 0)))
    @example((21, [[0, 1], [0, 19], [0, 1], [0, 209]]))  # counts near 10^25: Python-int steps
    def test_random_counts_up_to_21_vertices(self, case):
        n, rows = case
        subs = _subs(rows)
        counts = _grouped_counts(n, subs)
        assert counts.tolist() == _per_row_counts(n, subs).tolist()
        p = subs.shape[1]
        if p <= n - 2:  # t(K_n - H) = n^(n-2-p) det(nI - N N^T)
            gram_det = batch_determinant(n * np.eye(p, dtype=np.int64) - _incidence_grams(n, subs))
            assert counts.tolist() == [n ** (n - 2 - p) * int(d) for d in gram_det]

    @pytest.mark.parametrize("n", range(2, 9))
    def test_at_most_n_minus_2_deletions_leave_every_row_connected(self, n):
        m = n * (n - 1) // 2
        for p in range(n - 1):
            for _, block in subset_blocks(m, p, 0, math.comb(m, p), block_rows(n)):
                subs = block.rows
                assert deleted_route.deleted_connected(n, subs).all()
                assert deleted_route.connected_rows(n, subs).tolist() == list(range(subs.shape[0]))

    def test_connectivity_untested_below_n_minus_1_deletions(self, monkeypatch):
        def fail(*args):
            raise AssertionError("connectivity tested")

        monkeypatch.setattr(enum, "_all_reached", fail)
        monkeypatch.setattr(enum, "block_connected", fail)
        monkeypatch.setattr(deleted_route, "deleted_connected", fail)
        assert scan_subsets(deleted_edges(6, 4), "max", 1).connected == math.comb(15, 4)
        idx, _, _, _ = labeled_bounds.deletion_block(deleted_edges(8, 4), _all_subsets(8, 4)[:100])
        assert idx.tolist() == list(range(100))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_n_minus_1_deletions_still_skip_the_stars(self, n):
        scan = scan_subsets(deleted_edges(n, n - 1), "min", 1)
        assert scan.checked - scan.connected == n  # the n stars that isolate a vertex

    def test_keys_past_int64_solve_every_row(self):
        # p = 10 at n = 22, reachable with a raised --budget: 3^45 keys overflow int64
        n, index = 22, {e: i for i, e in enumerate(complete_edge_table(22))}
        star = [(0, v) for v in range(1, 11)]
        matching = [(2 * i, 2 * i + 1) for i in range(10)]
        path = [(i, i + 1) for i in range(10)]
        subs = _subs([sorted(index[e] for e in edges) for edges in (star, matching, path, star, path)])
        assert gram_classes(n, subs) is None
        assert _max_error(n, subs) <= n * 1e-13
        idx, kf, t, dmax = labeled_bounds.deletion_block(deleted_edges(n, 10), subs)
        exact = batch_kf(n, _full_deleted_spectrum(n, subs))[1]
        assert idx.tolist() == list(range(5)) and (np.abs(kf - exact) <= 1e-12 * exact).all()
        assert t.tolist() == _per_row_counts(n, subs).tolist()
        assert dmax.tolist() == [10, 1, 2, 10, 2]


# Every deleted-edges space on n <= 11 vertices whose rows can be disconnected (p >= n - 1), up to 2e5 rows.
# Past n = 11 these spaces keep fewer than n - 1 edges, so no row is connected, and the labeled route
# takes seconds to minutes on each: its (p + 1, C(n,2)) binomial table and p gathers per block.
COMPLEMENT_SPACES = [
    (n, p) for n in range(2, 12) for p in range(n - 1, n * (n - 1) // 2 + 1) if math.comb(n * (n - 1) // 2, p) <= 2 * 10**5
]


def _search_lines(capsys, n, p, objective, jobs):
    code = main(["search", "--deleted-edges", f"{n},{p}", f"--{objective}", "--top", "50", "--jobs", str(jobs)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestComplementRoute:
    """A deleted space with p >= n - 1 scans as connected_with_edges(n, C(n,2) - p),
    its ranks reversed, against the labeled deleted route it replaced
    (tests/deleted_route.py): bitmask connectivity of K_n minus each row's
    edges, and each connected row's L(H) eigensolve where p >= n."""

    @pytest.mark.parametrize("n", range(2, 7))
    def test_complement_reverses_every_rank(self, n):
        m = n * (n - 1) // 2
        for p in range(m + 1):
            ranks = np.arange(math.comb(m, p))
            keep = np.ones((ranks.size, m), dtype=bool)
            keep[ranks[:, None], enum.unrank_rows(m, p, ranks)] = False
            complements = np.nonzero(keep)[1].reshape(ranks.size, m - p)
            assert (complements == enum.unrank_rows(m, m - p, ranks.size - 1 - ranks)).all()

    @pytest.mark.parametrize("n,p", COMPLEMENT_SPACES)
    def test_search_lines_as_the_deleted_route(self, n, p, capsys, monkeypatch):
        for objective in ("min", "max"):
            got = _search_lines(capsys, n, p, objective, 1)
            with monkeypatch.context() as patch:
                patch.setattr(enum, "scan_subsets", deleted_route.scan_subsets)
                want = _search_lines(capsys, n, p, objective, 1)
            assert got == want

    def test_multi_block_space_for_any_job_count(self, capsys, monkeypatch):
        n, p = 7, 8  # 203,490 rows: 13 blocks
        for objective in ("min", "max"):
            with monkeypatch.context() as patch:
                patch.setattr(enum, "scan_subsets", deleted_route.scan_subsets)
                want = _search_lines(capsys, n, p, objective, 1)
            assert want[0] == 0
            for jobs in (1, 2, 3):
                assert _search_lines(capsys, n, p, objective, jobs) == want

    def test_scan_counts_as_the_deleted_route(self):
        for n, p in [(5, 4), (6, 7), (7, 6)]:
            got = scan_subsets(deleted_edges(n, p), "max", 3)
            want = deleted_route.scan_subsets(deleted_edges(n, p), "max", 3)
            assert (got.checked, got.connected) == (want.checked, want.connected)
            assert sorted(got.ranks.tolist()) == sorted(want.ranks.tolist())


class TestCycleLength:
    """Leaf stripping on (B, n) degree counts against the (B, n, n) adjacency stack."""

    @pytest.mark.parametrize("m", range(16))
    def test_every_row_at_six_vertices(self, m):
        subs = _all_subsets(6, m)
        assert batch_cycle_length(6, subs).tolist() == adjacency_cycle_length(6, subs).tolist()

    @pytest.mark.parametrize("m", [7, 8, 9])
    def test_sampled_blocks_at_eight_vertices(self, m):
        spec = connected_with_edges(8, m)
        total, block = cardinality(spec), block_rows(8)
        for rank0 in (0, block * (total // block // 2), block * (total // block)):
            (_, rows), = subset_blocks(28, m, rank0, rank0 + block, block)
            subs = rows.rows[block_connected(8, rows)]
            assert batch_cycle_length(8, subs).tolist() == adjacency_cycle_length(8, subs).tolist()

    def test_empty_block(self):
        assert batch_cycle_length(7, np.zeros((0, 7), dtype=np.int64)).tolist() == []


# (Q, v, dmax) -> (q_v, the lowest-rank H) for p <= 4, from the labeled scan at 2p vertices
PINNED_CLASSES = {
    ((1,), 0, 0): (1, []),
    ((1, -2), 2, 1): (1, [[0, 1]]),
    ((1, -4, 3), 3, 2): (3, [[0, 1], [0, 2]]),
    ((1, -4, 4), 4, 1): (3, [[0, 1], [2, 3]]),
    ((1, -6, 9, -4), 4, 3): (4, [[0, 1], [0, 2], [0, 3]]),
    ((1, -6, 9, 0), 3, 2): (1, [[0, 1], [0, 2], [1, 2]]),
    ((1, -6, 10, -4), 4, 2): (12, [[0, 1], [0, 2], [1, 3]]),
    ((1, -6, 11, -6), 5, 2): (30, [[0, 1], [0, 2], [3, 4]]),
    ((1, -6, 12, -8), 6, 1): (15, [[0, 1], [2, 3], [4, 5]]),
    ((1, -8, 18, -16, 5), 5, 4): (5, [[0, 1], [0, 2], [0, 3], [0, 4]]),
    ((1, -8, 19, -12, 0), 4, 3): (12, [[0, 1], [0, 2], [0, 3], [1, 2]]),
    ((1, -8, 20, -18, 5), 5, 3): (60, [[0, 1], [0, 2], [0, 3], [1, 4]]),
    ((1, -8, 21, -22, 8), 6, 3): (60, [[0, 1], [0, 2], [0, 3], [4, 5]]),
    ((1, -8, 21, -18, 0), 5, 2): (10, [[0, 1], [0, 2], [1, 2], [3, 4]]),
    ((1, -8, 20, -16, 0), 4, 2): (3, [[0, 1], [0, 2], [1, 3], [2, 3]]),
    ((1, -8, 21, -20, 5), 5, 2): (60, [[0, 1], [0, 2], [1, 3], [2, 4]]),
    ((1, -8, 22, -24, 8), 6, 2): (180, [[0, 1], [0, 2], [1, 3], [4, 5]]),
    ((1, -8, 22, -24, 9), 6, 2): (90, [[0, 1], [0, 2], [3, 4], [3, 5]]),
    ((1, -8, 23, -28, 12), 7, 2): (315, [[0, 1], [0, 2], [3, 4], [5, 6]]),
    ((1, -8, 24, -32, 16), 8, 1): (105, [[0, 1], [2, 3], [4, 5], [6, 7]]),
}


def _edge_gram_keys(n, subs):
    """Gram keys from each row's whole (p, p) N N^T, as the pair table replaced."""
    e, f = np.triu_indices(subs.shape[1], 1)
    return (enum._edge_gram(batch_ends(n, subs))[:, e, f] + 1) @ 3 ** np.arange(e.size)


class TestGramKeys:
    """One gather of the (m, m) pair table per edge pair against the keys read off N N^T."""

    @pytest.mark.parametrize("n,p", SMALL_DELETED + [(6, 10)])
    def test_every_row_of_small_spaces(self, n, p):
        subs = _all_subsets(n, p)
        if p >= 10:
            assert gram_keys(n, subs) is None
        else:
            assert gram_keys(n, subs).tolist() == _edge_gram_keys(n, subs).tolist()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 12).flatmap(lambda n: _repeated_rows(n, 10, 0)))
    def test_random_rows_up_to_12_vertices(self, case):
        n, rows = case
        subs = _subs(rows)
        if subs.shape[1] >= 10:
            assert gram_keys(n, subs) is None
        else:
            assert gram_keys(n, subs).tolist() == _edge_gram_keys(n, subs).tolist()


class TestDeletionClasses:
    """Every p-edge set by (characteristic polynomial of N N^T, touched vertices,
    max degree), from one scan at 2p vertices."""

    @pytest.mark.parametrize("p", range(5))
    def test_weights_count_every_labeled_deletion(self, p):
        classes = deletion_classes(p)
        for n in range(max(6, 2 * p), 63):
            weights = sum(math.comb(n, v) * q_v for (_, v, _), (q_v, _) in classes.items())
            assert weights == math.comb(n * (n - 1) // 2, p)

    def test_class_counts_are_the_a000664_counts(self):
        # p-edge graphs without isolated vertices, up to isomorphism: 1, 1, 2, 5, 11
        assert [len(deletion_classes(p)) for p in range(5)] == [1, 1, 2, 5, 11]

    @pytest.mark.parametrize("n,p", [(6, 3), (7, 3), (8, 4)])
    def test_every_row_has_its_class(self, n, p):
        # each labeled row's (Q, v, dmax) is a class, each class holds C(n, v) q_v rows,
        # and its representative is its lowest-rank row at n as at 2p
        classes = deletion_classes(p)
        subs = _all_subsets(n, p)
        ends = batch_ends(n, subs)
        deg = batch_degrees(n, ends)
        q = map(tuple, charpoly(enum._edge_gram(ends)).tolist())
        rows = zip(q, (deg > 0).sum(axis=1).tolist(), deg.max(axis=1).tolist())
        seen, first = Counter(), {}
        for rank, key in enumerate(rows):
            seen[key] += 1
            first.setdefault(key, rank)
        assert seen == {key: math.comb(n, key[1]) * q_v for key, (q_v, _) in classes.items()}
        assert {key: ends[rank].tolist() for key, rank in first.items()} == {
            key: h.tolist() for key, (_, h) in classes.items()
        }
        assert list(classes) == sorted(first, key=first.get)  # in representative-rank order

    def test_class_tables_are_pinned(self):
        got = {key: (q_v, h.tolist()) for p in range(5) for key, (q_v, h) in deletion_classes(p).items()}
        assert got == PINNED_CLASSES

    def test_representatives_touch_their_vertices(self):
        for p in range(5):
            for (q, v, dmax), (_, ends) in deletion_classes(p).items():
                degrees = Counter(ends.ravel().tolist())
                assert ends.shape == (p, 2) and len(degrees) == v and max(degrees.values(), default=0) == dmax
                assert len(q) == p + 1 and q[0] == 1
