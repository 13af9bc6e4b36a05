import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kirchhoff.graphs import (
    EdgeAbsentError,
    EdgeAlreadyPresentError,
    EdgeListFormatError,
    Graph6FormatError,
    Graph6SizeError,
    LoopEdgeError,
    VertexOutOfRangeError,
    combine,
    complement,
    connected_components,
    degree_stats,
    edit_edge,
    format_edge_list,
    graph6_decode,
    graph6_encode,
    is_connected,
    make_graph,
    merge_at,
    parse_edge_list,
    shortest_paths,
)


def path(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return make_graph(n, [(i, i + 1) for i in range(n - 1)] + [(0, n - 1)])


def complete(n):
    return make_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestMakeGraph:
    def test_path_definition(self):
        g = make_graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.n == 4 and g.m == 3

    def test_dedup_and_normalization(self):
        g = make_graph(4, [(1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_loop_rejected(self):
        with pytest.raises(LoopEdgeError):
            make_graph(3, [(0, 0)])

    def test_out_of_range_rejected(self):
        with pytest.raises(VertexOutOfRangeError):
            make_graph(3, [(0, 3)])


class TestEditing:
    def test_cycle_minus_edge_is_path(self):
        g = edit_edge(cycle(4), (1, 2), "remove")
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 2, 2]
        assert is_connected(g)

    def test_close_path_to_triangle(self):
        g = edit_edge(path(3), (0, 2), "add")
        assert g == cycle(3)

    def test_double_remove_raises(self):
        g = edit_edge(path(4), (0, 1), "remove")
        with pytest.raises(EdgeAbsentError):
            edit_edge(g, (0, 1), "remove")

    def test_add_present_raises(self):
        with pytest.raises(EdgeAlreadyPresentError):
            edit_edge(path(4), (1, 2), "add")


class TestComplement:
    def test_complete_goes_empty(self):
        assert complement(complete(4)).m == 0

    def test_involution(self):
        g = make_graph(6, [(0, 1), (1, 4), (2, 3), (0, 5)])
        assert complement(complement(g)) == g

    def test_edge_count_partition(self):
        g = make_graph(7, [(0, 1), (2, 5), (3, 6), (1, 4)])
        assert g.m + complement(g).m == 7 * 6 // 2

    def test_k6_minus_two_disjoint_edges(self):
        g = make_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                           if (u, v) not in {(0, 1), (2, 3)}])
        comp = complement(g)
        assert comp.edges == ((0, 1), (2, 3))
        assert connected_components(comp) == 4  # two edges plus two isolated vertices


class TestCombine:
    def test_union_two_edges(self):
        g = combine(complete(2), complete(2), "union")
        assert g.n == 4 and g.m == 2 and connected_components(g) == 2

    def test_star_as_join(self):
        g = combine(complete(1), make_graph(3, []), "join")
        assert sorted(g.degree(v) for v in range(4)) == [1, 1, 1, 3]

    def test_join_of_cliques(self):
        assert combine(complete(2), complete(2), "join") == complete(4)

    def test_join_edge_count(self):
        g1, g2 = path(3), cycle(4)
        assert combine(g1, g2, "join").m == g1.m + g2.m + g1.n * g2.n


class TestTraversal:
    def test_path_distances(self):
        assert shortest_paths(path(4), 0).dist == (0, 1, 2, 3)

    def test_disconnected_marker(self):
        g = combine(complete(2), complete(2), "union")
        assert shortest_paths(g, 0).dist == (0, 1, None, None)

    def test_cycle_distances(self):
        assert shortest_paths(cycle(4), 0).dist == (0, 1, 2, 1)

    def test_symmetry(self):
        g = make_graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5), (5, 6), (0, 6)])
        for u in range(7):
            du = shortest_paths(g, u).dist
            for v in range(7):
                assert du[v] == shortest_paths(g, v).dist[u]


class TestDegreeStats:
    def test_path(self):
        stats = degree_stats(path(4))
        assert stats.degrees == (1, 2, 2, 1)
        assert stats.max_degree == 2 and stats.min_degree == 1 and stats.connected

    def test_k6_minus_small_star(self):
        g = make_graph(6, [(u, v) for u in range(6) for v in range(u + 1, 6)
                           if (u, v) not in {(0, 1), (0, 2)}])
        stats = degree_stats(g)
        assert stats.max_degree == 5 and stats.min_degree == 3

    def test_disconnected(self):
        assert not degree_stats(combine(complete(2), complete(2), "union")).connected

    def test_degree_sum(self):
        g = make_graph(8, [(0, 1), (0, 2), (3, 4), (4, 5), (6, 7), (2, 6)])
        assert sum(degree_stats(g).degrees) == 2 * g.m


class TestMergeAt:
    def test_two_paths_make_a_path(self):
        g = merge_at(path(3), 2, path(3), 0)
        assert g.n == 5 and sorted(g.degree(v) for v in range(5)) == [1, 1, 2, 2, 2]


class TestGraph6:
    # hand-packed vectors: bits x(0,1) x(0,2) x(1,2) x(0,3) x(1,3) x(2,3)
    def test_k4(self):
        assert graph6_encode(complete(4)) == "C~"  # 111111 -> 63+63

    def test_p4(self):
        assert graph6_encode(path(4)) == "Ch"  # 101001 -> 41+63

    def test_c4(self):
        assert graph6_encode(cycle(4)) == "Cl"  # 101101 -> 45+63

    def test_decode_examples(self):
        assert graph6_decode("C~") == complete(4)
        assert graph6_decode("Ch") == path(4)
        assert graph6_decode("Cl") == cycle(4)

    def test_byte_below_range(self):
        with pytest.raises(Graph6FormatError) as err:
            graph6_decode("C\x01")
        assert err.value.offset == 1

    def test_non_ascii_rejected(self):
        # read as '?' (value 0), U+00E9 would give the empty graph on 4 vertices
        with pytest.raises(Graph6FormatError, match="byte offset 1") as err:
            graph6_decode("C\u00e9")
        assert err.value.offset == 1

    def test_truncated(self):
        with pytest.raises(Graph6FormatError):
            graph6_decode("C")

    def test_too_large(self):
        with pytest.raises(Graph6SizeError):
            graph6_encode(make_graph(63, []))

    def test_nonzero_padding_rejected(self):
        # n=2: one data bit, five padding bits must be zero
        assert graph6_decode("A_") == make_graph(2, [(0, 1)])
        with pytest.raises(Graph6FormatError):
            graph6_decode("A`")  # sets a padding bit

    @given(
        st.integers(min_value=0, max_value=20).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.sets(
                    st.tuples(
                        st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
                    ).filter(lambda e: e[0] != e[1]),
                    max_size=40,
                ),
            )
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_roundtrip(self, payload):
        n, edges = payload
        g = make_graph(n, edges)
        assert graph6_decode(graph6_encode(g)) == g

    def test_roundtrip_at_62(self):
        import random

        rng = random.Random(7)
        edges = {(rng.randrange(62), rng.randrange(62)) for _ in range(300)}
        g = make_graph(62, [e for e in edges if e[0] != e[1]])
        assert graph6_decode(graph6_encode(g)) == g


class TestEdgeList:
    def test_roundtrip(self):
        g = make_graph(5, [(0, 1), (1, 2), (3, 4)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n4 2\n\n0 1  # trailing\n2 3\n"
        assert parse_edge_list(text) == make_graph(4, [(0, 1), (2, 3)])

    def test_count_mismatch(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("3 2\n0 1\n")

    def test_bad_header(self):
        with pytest.raises(EdgeListFormatError) as err:
            parse_edge_list("x y\n")
        assert err.value.line == 1
