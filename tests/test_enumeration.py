import math
from collections import Counter
from itertools import combinations, islice, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kirchhoff.enumeration as enum
from kirchhoff.enumeration import (
    BudgetExceededError,
    batch_adjacency,
    batch_cycle_length,
    batch_eigenvalues,
    batch_kf,
    block_rows,
    cardinality,
    check_budget,
    complete_edge_table,
    connected_with_edges,
    deleted_edges,
    enumerate_space,
    labeled_trees,
    member,
    prufer_decode,
    prufer_rows,
    scan_labeled_trees,
    scan_subsets,
    subset_blocks,
    wiener_block,
)
from kirchhoff.graphs import is_connected, make_graph
from kirchhoff.spectral import kf_spectral, wiener


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
        with pytest.raises(BudgetExceededError):
            scan_subsets(deleted_edges(40, 20), "max", 1)
        with pytest.raises(BudgetExceededError):
            scan_labeled_trees(labeled_trees(12))

    def test_block_rows_from_n(self):
        assert [block_rows(n) for n in range(2, 10)] == [1 << 15] * 8
        assert [block_rows(n) for n in range(10, 14)] == [1 << 14] * 4

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
        rows = np.concatenate([b for _, b in blocks])
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
        got = [tuple(int(x) for x in row) for _, rows in blocks for row in rows]
        assert got == expected

    def test_subset_ranks_beyond_int64_refused(self):
        with pytest.raises(ValueError, match=r"C\(200,100\)"):
            next(subset_blocks(200, 100, 0, 1, 1))


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
        W = wiener_block(n, np.array(seqs, dtype=np.int64).reshape(len(seqs), n - 2))
        assert W.tolist() == [wiener(t) for t in trees]

    @pytest.mark.parametrize("n", range(2, 7))
    def test_decoders_match_scalar_loop_on_every_sequence(self, n):
        self.check_decoders(n, list(product(range(n), repeat=n - 2)))

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 12).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(st.lists(st.integers(0, n - 1), min_size=n - 2, max_size=n - 2), min_size=1, max_size=8),
            )
        )
    )
    def test_decoders_match_scalar_loop(self, case):
        n, seqs = case
        self.check_decoders(n, [tuple(seq) for seq in seqs])

    def test_decode_rejects_malformed_sequences(self):
        with pytest.raises(ValueError, match="length must be n-2=3"):
            prufer_decode((0, 1), 5)
        with pytest.raises(ValueError, match=r"entry 5 outside \[0,5\)"):
            prufer_decode((0, 5, 1), 5)


class TestBulkKernels:
    def test_batch_eigs_match_single_graph_route(self):
        table = complete_edge_table(6)
        subs = np.array(list(combinations(range(15), 2))[:40], dtype=np.int64)
        eigs = batch_eigenvalues(6, subs, deleted=True)
        conn, kf = batch_kf(6, eigs)
        for row in range(40):
            g = make_graph(6, set(table) - {table[i] for i in subs[row]})
            assert conn[row] == is_connected(g)
            if conn[row]:
                assert abs(kf[row] - kf_spectral(g)) < 1e-9

    @pytest.mark.parametrize("n,k,deleted", [(6, 6, False), (7, 8, False), (7, 3, True), (8, 0, True)])
    def test_batch_eigenvalues_bitwise_as_negated_adjacency(self, n, k, deleted):
        # reference assembly: L = -A with the degrees on the diagonal, so every
        # off-diagonal zero is -0.0; LAPACK reads that sign into Kf's last bits
        subs = np.array(list(islice(combinations(range(n * (n - 1) // 2), k), 6000)), dtype=np.int64)
        A = batch_adjacency(n, subs, float)
        if deleted:
            A = (1.0 - np.eye(n)) - A
        deg = A.sum(axis=2)
        L = -A
        L[:, range(n), range(n)] = deg
        reference = np.linalg.eigvalsh(L)
        assert (batch_eigenvalues(n, subs, deleted).view(np.int64) == reference.view(np.int64)).all()

    def test_wiener_scan_matches_streamed_trees(self):
        scan = scan_labeled_trees(labeled_trees(6))
        by_value = Counter(wiener(t) for t in enumerate_space(labeled_trees(6)))
        assert scan.count == 6**4
        assert {w: int(c) for w, c in enumerate(scan.hist) if c} == dict(by_value)

    def test_wiener_scan_first_rank_witnesses(self):
        scan = scan_labeled_trees(labeled_trees(5))
        for w, rank in scan.first_rank.items():
            assert wiener(member(labeled_trees(5), rank)) == w

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
        t_one = scan_labeled_trees(labeled_trees(6), jobs=1)
        t_two = scan_labeled_trees(labeled_trees(6), jobs=2)
        assert (t_one.hist == t_two.hist).all()
        assert t_one.first_rank == t_two.first_rank

    def test_tree_scan_jobs_split_mid_block(self):
        # 8^6 = 262,144 trees in 8 blocks of 2^15; three ranges start mid-block
        one = scan_labeled_trees(labeled_trees(8), jobs=1)
        three = scan_labeled_trees(labeled_trees(8), jobs=3)
        assert one.count == three.count == 8**6
        assert one.hist.tolist() == three.hist.tolist()
        assert one.first_rank == three.first_rank

    def test_pool_is_capped_at_the_usable_cpus(self, monkeypatch):
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

        monkeypatch.setattr(enum.multiprocessing, "get_context", lambda method: Context)
        monkeypatch.setattr(enum.os, "sched_getaffinity", lambda pid: {0, 1})
        many = scan_labeled_trees(labeled_trees(6), jobs=100000)
        one = scan_labeled_trees(labeled_trees(6), jobs=1)
        assert sizes == [2]
        assert many.hist.tolist() == one.hist.tolist() and many.first_rank == one.first_rank

    def test_unicyclic_girth_split(self):
        scan = scan_subsets(connected_with_edges(6, 6), "max", 1, classify=batch_cycle_length)
        by_girth = scan.by_key
        assert scan.checked == math.comb(15, 6)
        assert set(by_girth) == {3, 4, 5, 6}
        assert sum(s.connected for s in by_girth.values()) == scan.connected
        # the one cycle-length-6 graph class is the 6-cycle itself
        vals6 = by_girth[6].vals
        assert abs(vals6.max() - kf_spectral(make_graph(6, [(i, (i + 1) % 6) for i in range(6)]))) < 1e-9
