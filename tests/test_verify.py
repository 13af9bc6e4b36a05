import math
import random
from collections import Counter
from fractions import Fraction
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

import kirchhoff.verify as verify
import labeled_bounds
from kirchhoff.enumeration import (
    BudgetExceededError,
    batch_degrees,
    batch_ends,
    block_rows,
    cardinality,
    complete_edge_table,
    deleted_edges,
    deletion_classes,
    labeled_trees,
    member,
    row_graph,
    scan_subsets,
    subset_blocks,
    tied,
)
from kirchhoff.families import FamilySpec, build, edge_shape
from kirchhoff.graphs import is_connected, make_graph
from kirchhoff.spectral import ConvergenceFailureError, DisconnectedGraphError, kf_spectral, tree_count
from kirchhoff.verify import (
    ComplementShape,
    Counterexample,
    MalformedInputError,
    ParamOutOfRangeError,
    automorphism_count,
    bound_eval,
    check_identity,
    complement_shape,
    count_labeled_matchings,
    count_labeled_stars,
    extremal_search,
    format_exact,
    graph6_encode,
    is_isomorphic,
    labeled_copy_count,
    random_connected_graph,
    render_report,
    verify_theorem,
)


def fam(kind, *args):
    return build(FamilySpec(kind, args))


def _deletion_key(n, subs):
    """Max degree and touched-vertex count of each row's deleted edges, as one integer."""
    deg = batch_degrees(n, batch_ends(n, subs))
    return deg.max(axis=1) * (n + 1) + (deg > 0).sum(axis=1)


class TestComplementShape:
    def test_examples(self):
        assert complement_shape(fam("kn-minus-matching", 6, 3)) == ComplementShape("matching", 3)
        assert complement_shape(fam("kn-minus-star", 6, 2)) == ComplementShape("star", 2)
        assert complement_shape(fam("complete", 5)) == ComplementShape("empty", None)

    def test_other(self):
        assert complement_shape(fam("path", 5)).kind == "other"

    @pytest.mark.parametrize("n,p", [(7, 3), (8, 4)])
    def test_block_star_mask_and_deletion_key_match_per_row(self, n, p):
        m = n * (n - 1) // 2
        (_, block), = subset_blocks(m, p, 0, cardinality(deleted_edges(n, p)), 1 << 15)
        subs = block.rows
        table = complete_edge_table(n)
        stars = [edge_shape([table[i] for i in row]) == ComplementShape("star", p) for row in subs.tolist()]
        assert (batch_degrees(n, batch_ends(n, subs)).max(axis=1) == p).tolist() == stars
        assert sum(stars) == count_labeled_stars(n, p)
        key = []
        for row in subs.tolist():
            deg = Counter(v for i in row for v in table[i])
            key.append(max(deg.values()) * (n + 1) + len(deg))
        assert _deletion_key(n, subs).tolist() == key


class TestBoundEval:
    def test_lower_bound_values(self):
        assert bound_eval(6, 2).lower_kf == 6
        assert bound_eval(6, 3).lower_kf == Fraction(13, 2)
        assert bound_eval(7, 3).lower_kf == Fraction(36, 5)

    def test_tree_count_lower(self):
        # n^(n-p-2) (n-1)^(p-1) (n-p-1) at n=6, p=2
        assert bound_eval(6, 2).tree_count_lower == 6**2 * 5 * 3 == 540

    def test_full_bound_attained_on_star(self):
        rec = bound_eval(6, 2, fam("kn-minus-star", 6, 2))
        assert rec.upper_kf_full == Fraction(31, 5)
        assert rec.upper_kf_simple == Fraction(31, 5)
        assert abs(kf_spectral(fam("kn-minus-star", 6, 2)) - 31 / 5) < 1e-10

    def test_full_below_simple_elsewhere(self):
        rec = bound_eval(6, 2, fam("kn-minus-matching", 6, 2))
        assert rec.upper_kf_full < rec.upper_kf_simple
        assert kf_spectral(fam("kn-minus-matching", 6, 2)) < float(rec.upper_kf_full)

    def test_disconnected_graph_reports_its_components(self):
        # triangles on 0-2 and 3-5, vertices 6 and 7 isolated
        g = make_graph(8, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(DisconnectedGraphError) as err:
            bound_eval(8, 2, g)
        assert err.value.components == 4

    def test_connectivity_is_tested_before_tree_count(self, monkeypatch):
        def unreachable(g):
            raise AssertionError("tree_count ran on a disconnected graph")

        monkeypatch.setattr(verify, "tree_count", unreachable)
        with pytest.raises(DisconnectedGraphError):
            bound_eval(6, 2, make_graph(6, [(0, 1), (2, 3), (3, 4), (4, 5), (2, 5)]))

    def test_param_range(self):
        with pytest.raises(ParamOutOfRangeError):
            bound_eval(6, 1)
        with pytest.raises(ParamOutOfRangeError):
            bound_eval(6, 4)


def _blocks(n, p):
    """(spec, first rank, rows) of every scan block of K_n minus p edges."""
    spec = deleted_edges(n, p)
    m = n * (n - 1) // 2
    for rank0, block in subset_blocks(m, p, 0, cardinality(spec), block_rows(n)):
        yield spec, rank0, block.rows


def _per_row_tree_count_failures(spec, bound, subs):
    """The per-graph route the block kernel replaced: its failures, in rank order."""
    n, p = spec.n, spec.count
    out = []
    for i, row in enumerate(subs.tolist()):
        g = row_graph(spec, row)
        if not is_connected(g):
            continue
        t = tree_count(g)
        star = complement_shape(g) == ComplementShape("star", p)
        if t < bound:
            out.append(labeled_bounds.failure(g, f"t={t}", f"t >= {bound}"))
        if (t == bound) != star:
            out.append(labeled_bounds.failure(
                g, f"t={t}, star-complement={star}", f"t == {bound} exactly on star complements"
            ))
    return out


SMALL_DELETIONS = [(n, p) for n in range(4, 8) for p in range(2, min(3, n // 2) + 1)]


class TestBlockKernels:
    """The labeled route's batched Kf, spanning-tree count, minimum degree and
    star mask (the class route's oracle, tests/labeled_bounds.py) against the
    per-graph route."""

    @pytest.mark.parametrize("n,p", SMALL_DELETIONS)
    def test_block_values_match_per_row_route(self, n, p):
        for spec, _, subs in _blocks(n, p):
            idx, kf, t, dmax = labeled_bounds.deletion_block(spec, subs)
            graphs = [row_graph(spec, row) for row in subs.tolist()]
            assert idx.tolist() == [i for i, g in enumerate(graphs) if is_connected(g)]
            for i, value, count, top in zip(idx.tolist(), kf, t, dmax):
                g = graphs[i]
                delta = n - 1 - int(top)
                assert abs(value - kf_spectral(g)) <= 1e-9 * kf_spectral(g)
                assert int(count) == tree_count(g)
                assert delta == min(g.degree(v) for v in range(n))
                assert (top == p) == (complement_shape(g) == ComplementShape("star", p))
                rec = bound_eval(n, p, g)
                assert (rec.upper_kf_full, rec.upper_kf_simple) == verify._upper_bounds(n, p, delta, int(count))

    @pytest.mark.parametrize("n,p", [(6, 3), (7, 2), (7, 3)])
    def test_forced_tree_count_failures_match_per_row_oracle(self, n, p):
        bound = bound_eval(n, p).tree_count_lower + 1
        for spec, rank0, subs in _blocks(n, p):
            got = labeled_bounds.tree_count_kernel(spec, bound, rank0, subs)
            expected = _per_row_tree_count_failures(spec, bound, subs)
            assert got.failures == expected
            assert len(expected) >= count_labeled_stars(n, p)

    def test_block_without_connected_rows(self):
        spec = deleted_edges(6, 5)
        subs = np.array([[0, 1, 2, 3, 4], [0, 5, 6, 7, 8]], dtype=np.int64)  # vertex 0, then vertex 1 isolated
        for kernel in (labeled_bounds.upper_bound_kernel, partial(labeled_bounds.tree_count_kernel, bound=1)):
            scan = kernel(spec, rank0=10, subs=subs)
            assert (scan.checked, scan.connected, scan.ranks.size, scan.failures) == (2, 0, 0, [])


    @pytest.mark.parametrize("n,p", [(6, 2), (6, 3), (7, 3)])
    @pytest.mark.parametrize("kind", ["matching", "star"])
    def test_deleted_shape_check_matches_per_rank_loop(self, n, p, kind):
        # every rank of the space, so most fail: the per-rank loop it replaced is the oracle
        spec = deleted_edges(n, p)
        ranks = np.arange(cardinality(spec))
        got = verify.VerificationReport("t", {})
        labeled_bounds.check_deleted_shape(got, spec, ranks, kind)
        expected = []
        for rank in ranks.tolist():
            g = verify.member(spec, rank)
            shape = complement_shape(g)
            if shape != ComplementShape(kind, p):
                expected.append(labeled_bounds.failure(g, f"complement {shape.kind}", f"{kind}({p})"))
        assert got.counterexamples == expected
        assert len(expected) == cardinality(spec) - (
            count_labeled_matchings(n, p) if kind == "matching" else count_labeled_stars(n, p)
        )


def _body(report):
    return render_report(report).splitlines()[:-1]


def _lex_rank(n, edges):
    """Rank of a set of edges of K_n in ``deleted_edges(n, len(edges))``, by the colex identity of unrank_rows."""
    index = {e: i for i, e in enumerate(complete_edge_table(n))}
    m, k = n * (n - 1) // 2, len(edges)
    flipped = sorted(m - 1 - index[e] for e in edges)
    return math.comb(m, k) - 1 - sum(math.comb(t, i + 1) for i, t in enumerate(flipped))


# Every labeled space the tier-1 tests and the benchmark verify, and every one of at most 2e5 rows.
ORACLE_SPACES = [
    (n, p) for n in range(4, 37) for p in range(2, n // 2 + 1) if math.comb(n * (n - 1) // 2, p) <= 2 * 10**5
]


class TestClassRoute:
    """The three bound verdicts from the exact deletion classes against the labeled
    route they replaced (tests/labeled_bounds.py): the same report bytes, status,
    checked count, witness and equality counts."""

    @pytest.mark.parametrize("n,p", ORACLE_SPACES)
    def test_reports_match_the_labeled_route(self, n, p):
        for theorem, labeled in labeled_bounds.LABELED.items():
            want, ranks = labeled(n, p, jobs=2)
            got = verify_theorem(theorem, {"n": n, "p": p})
            assert _body(got) == _body(want)
            assert (got.status, got.checked_count) == ("PASS", cardinality(deleted_edges(n, p)))
            if theorem == "tree-count-bound":
                bound = bound_eval(n, p).tree_count_lower
                classes = verify._deletion_classes(got, n, p)
                assert sum(c.weight for c in classes if c.t == bound) == ranks.size
            else:
                assert got.extremal_witnesses[0].count == ranks.size
            if theorem == "lower-bound":
                # the witness is the lowest-rank matching (0,1), (2,3), ..., ranked without a scan
                assert _lex_rank(n, [(2 * i, 2 * i + 1) for i in range(p)]) == ranks[0]

    @pytest.mark.parametrize("theorem", list(labeled_bounds.LABELED))
    def test_refused_past_the_class_table_before_the_budget_or_any_class(self, theorem, monkeypatch):
        # deleted_edges(40, 20) is over the budget too: the class-table limit, which no budget raises, comes first
        def fail(p):
            raise AssertionError("classes built")

        monkeypatch.setattr(verify.enum, "deletion_classes", fail)
        with pytest.raises(ParamOutOfRangeError, match=r"^deletion classes are built only up to p = 6, .* \(\d+ rows at p = 20\)"):
            verify_theorem(theorem, {"n": 40, "p": 20})

    @pytest.mark.parametrize("theorem", list(labeled_bounds.LABELED))
    def test_refused_over_budget_before_any_class(self, theorem, monkeypatch):
        def fail(p):
            raise AssertionError("classes built")

        monkeypatch.setattr(verify.enum, "deletion_classes", fail)
        with pytest.raises(BudgetExceededError) as refusal:
            verify_theorem(theorem, {"n": 40, "p": 6})
        assert refusal.value.cardinality == math.comb(780, 6)


def _patched_classes(monkeypatch, p, change):
    """deletion_classes with ``change(key, q_v)`` -> (key, q_v) applied to every class at p."""
    real = verify.enum.deletion_classes

    def patched(q):
        if q != p:
            return real(q)
        changed = {}
        for key, (q_v, ends) in real(q).items():
            key, q_v = change(key, q_v)
            changed[key] = (q_v, ends)
        return changed

    monkeypatch.setattr(verify.enum, "deletion_classes", patched)


class TestClassFailures:
    """A violating class fails its verdict once, by K_n minus its representative."""

    @pytest.mark.parametrize("theorem", list(labeled_bounds.LABELED))
    def test_one_violating_class_is_one_counterexample(self, theorem, monkeypatch):
        # the 3-matching, marked as a 3-star: no bound is tight on it, and it is no matching
        n, p = 8, 3
        _patched_classes(monkeypatch, p, lambda key, q_v: ((key[0], key[1], p) if key[2] == 1 else key, q_v))
        rep = verify_theorem(theorem, {"n": n, "p": p})
        assert rep.status == "FAIL" and rep.checked_count == math.comb(28, 3)
        matching = make_graph(n, set(complete_edge_table(n)) - {(0, 1), (2, 3), (4, 5)})
        assert [ce.graph6 for ce in rep.counterexamples] == [graph6_encode(matching)]
        lines = [line for line in render_report(rep).splitlines() if line.startswith("counterexample: ")]
        assert len(lines) == 1 and graph6_encode(matching) in lines[0]

    @pytest.mark.parametrize("theorem", list(labeled_bounds.LABELED))
    def test_a_wrong_class_weight_fails_the_weight_sum(self, theorem, monkeypatch):
        # one more P3 + K2 on [5]: C(8, 5) weight too many, no extremal class touched
        n, p = 8, 3
        _patched_classes(monkeypatch, p, lambda key, q_v: (key, q_v + (key[1:] == (5, 2))))
        rep = verify_theorem(theorem, {"n": n, "p": p})
        total = math.comb(28, 3)
        assert rep.status == "FAIL" and rep.checked_count == total + 56
        assert rep.counterexamples == [
            Counterexample("-", f"class weights sum to {total + 56}", f"{total} graphs with 3 deletions")
        ]

    def test_a_wrong_polynomial_fails_the_cross_check(self, monkeypatch):
        # the 3-matching's class given the 3-star's Q: t and Kf no longer match its spectrum
        _patched_classes(monkeypatch, 3, lambda key, q_v: (((1, -6, 9, -4), *key[1:]) if key[2] == 1 else key, q_v))
        with pytest.raises(ConvergenceFailureError, match="class cross-check failed"):
            verify_theorem("upper-bound", {"n": 8, "p": 3})


class TestCheckIdentity:
    def test_cut_vertex_path_composition(self):
        # two 3-vertex paths glued end to end make a 5-vertex path, Kf = 20
        r = check_identity(
            "cut-vertex-additivity",
            left=fam("path", 3), left_vertex=2,
            right=fam("path", 3), right_vertex=0,
        )
        assert r.ok and r.residual < 1e-10
        assert abs(kf_spectral(fam("path", 5)) - 20) < 1e-9

    def test_wiener_equality_on_trees(self):
        assert check_identity("wiener-dominates-kf", graph=fam("starlike", 9, (4, 3, 1))).ok
        assert check_identity("wiener-dominates-kf", graph=fam("cycle", 7)).ok

    def test_monotonicity_on_cycle(self):
        r = check_identity("kf-edge-removal", graph=fam("cycle", 4), edge=(0, 1))
        assert r.ok and abs(r.residual - 5.0) < 1e-9  # Kf rises from 5 to 10

    def test_insertion_decreases(self):
        assert check_identity("kf-edge-insertion", graph=fam("path", 6), edge=(0, 5)).ok

    def test_interlacing(self):
        assert check_identity("spectrum-interlacing", graph=fam("path", 7), edge=(0, 4)).ok

    def test_complement_spectrum(self):
        assert check_identity("complement-spectrum", graph=fam("lollipop", 8, 3)).ok

    def test_pendant_tree_vs_path(self):
        r = check_identity(
            "pendant-tree-vs-path",
            base=fam("cycle", 4), attach_at=0,
            tree=fam("star", 4), tree_vertex=0,
        )
        assert r.ok and r.residual > 0

    def test_malformed(self):
        with pytest.raises(MalformedInputError):
            check_identity("no-such-identity", graph=fam("path", 3))
        with pytest.raises(MalformedInputError):
            check_identity("kf-edge-removal", graph=fam("path", 3), edge=(0, 1))


class TestIsomorphism:
    def test_counts_against_bruteforce(self):
        from itertools import permutations

        rng = random.Random(3)
        for _ in range(12):
            n = rng.randint(2, 6)
            g = random_connected_graph(rng, n, rng.randint(n - 1, n * (n - 1) // 2))
            brute = 0
            for perm in permutations(range(n)):
                if all((perm[u], perm[v]) in g.edge_set or (perm[v], perm[u]) in g.edge_set
                       for u, v in g.edges):
                    brute += 1
            assert automorphism_count(g) == brute

    def test_known_aut_sizes(self):
        assert automorphism_count(fam("path", 6)) == 2
        assert automorphism_count(fam("cycle", 5)) == 10
        assert automorphism_count(fam("star", 6)) == 120
        assert automorphism_count(fam("lollipop", 8, 3)) == 2
        assert automorphism_count(fam("dumbbell", 3, 3, 3)) == 8

    def test_isomorphic_relabelings(self):
        g = fam("lollipop", 7, 4)
        relabeled = make_graph(7, [(6 - u, 6 - v) for u, v in g.edges])
        assert is_isomorphic(g, relabeled)
        assert not is_isomorphic(g, fam("tripath", 7, (1, 3)))

    def test_labeled_copy_count(self):
        assert labeled_copy_count(fam("path", 4)) == 12
        assert labeled_copy_count(fam("star", 4)) == 4


class TestCounting:
    def test_matching_and_star_counts(self):
        assert count_labeled_matchings(6, 2) == 45
        assert count_labeled_stars(6, 2) == 60
        assert count_labeled_matchings(6, 2) + count_labeled_stars(6, 2) == math.comb(15, 2)


class TestExtremalSearch:
    def test_deleted_edges_min_and_max(self):
        got = extremal_search(deleted_edges(6, 2), "min", 2)
        assert abs(got[0].kf - 6.0) < 1e-9 and got[0].count == 45
        assert abs(got[1].kf - 6.2) < 1e-9 and got[1].count == 60
        assert complement_shape(_decode(got[0].graph6)) == ComplementShape("matching", 2)
        assert complement_shape(_decode(got[1].graph6)) == ComplementShape("star", 2)

    def test_tree_space_exact_ranks(self):
        got = extremal_search(labeled_trees(9), "max", 2)
        assert got[0].kf == 120.0 and got[1].kf == 114.0
        assert got[0].count == math.factorial(9) // 2  # labeled paths

    def test_bad_params(self):
        with pytest.raises(ParamOutOfRangeError):
            extremal_search(deleted_edges(6, 2), "best", 1)


def _decode(text):
    from kirchhoff.graphs import graph6_decode

    return graph6_decode(text)


class TestVerifyTheorem:
    def test_lower_bound_example(self):
        rep = verify_theorem("lower-bound", {"n": 7, "p": 3})
        assert rep.status == "PASS" and rep.checked_count == 1330
        assert rep.extremal_witnesses[0].count == count_labeled_matchings(7, 3)

    def test_upper_bound_small(self):
        rep = verify_theorem("upper-bound", {"n": 6, "p": 2})
        assert rep.status == "PASS"
        assert rep.extremal_witnesses[0].count == count_labeled_stars(6, 2)

    def test_tree_count_bound_small(self):
        assert verify_theorem("tree-count-bound", {"n": 6, "p": 2}).status == "PASS"

    def test_min_ordering_small(self):
        rep = verify_theorem("min-ordering", {"n": 11})
        assert rep.status == "PASS"
        assert len(rep.extremal_witnesses) == 9

    def test_unicyclic_max_small(self):
        rep = verify_theorem("unicyclic-max", {"n": 6, "girths": (3, 4)})
        assert rep.status == "PASS"

    def test_edge_trim(self):
        rep = verify_theorem("edge-trim", {"n": 9, "m": 14, "trials": 4, "seed": 1})
        assert rep.status == "PASS" and rep.checked_count == 4 * (14 - 10)

    def test_max_ordering_reports_tie_and_chain(self):
        rep = verify_theorem("max-ordering", {"n": 30})
        # one known counterexample: the short-pendant triangle-path family
        # sits above the two-triangle dumbbell, see test_acceptance notes
        assert [ce for ce in rep.counterexamples if "C3(1,n-4)" in ce.observed]
        assert len([ce for ce in rep.counterexamples if "C3(1,n-4)" not in ce.observed]) == 0

    def test_tree_ordering_counts_each_named_tree_once(self, monkeypatch):
        calls = []

        def counted(g):
            calls.append(graph6_encode(g))
            return labeled_copy_count(g)

        monkeypatch.setattr(verify, "labeled_copy_count", counted)
        rep = verify_theorem("tree-ordering", {"n": 9})
        # eight named trees, seven shapes: T(n-5,3,1) and T(n-6,4,1) are one tree at n = 9
        assert len(calls) == 8 and len(set(calls)) == 7
        trees = [build(verify.NAMED_FAMILIES[label].spec(9)) for label in verify._TREE_CHAIN]
        assert [w.count for w in rep.extremal_witnesses] == [labeled_copy_count(g) for g in trees]
        assert rep.status == "FAIL"

    def test_budget_refusal(self):
        from kirchhoff.enumeration import BudgetExceededError

        with pytest.raises(BudgetExceededError):
            verify_theorem("lower-bound", {"n": 40, "p": 6})  # p <= 6: within the class table

    def test_unknown_theorem(self):
        with pytest.raises(ParamOutOfRangeError):
            verify_theorem("no-such-claim", {})

    def test_parameter_not_taken_is_rejected(self):
        with pytest.raises(ParamOutOfRangeError, match="max-ordering does not take parameter.s. p; it takes n"):
            verify_theorem("max-ordering", {"n": 10, "p": 3})

    @pytest.mark.parametrize("trials", [0, -1])
    def test_edge_trim_needs_a_trial(self, trials):
        with pytest.raises(ParamOutOfRangeError, match=f"trials >= 1, got {trials}"):
            verify_theorem("edge-trim", {"n": 8, "m": 12, "trials": trials})

    def test_report_rendering_deterministic(self):
        a = verify_theorem("lower-bound", {"n": 6, "p": 2})
        b = verify_theorem("lower-bound", {"n": 6, "p": 2})
        body_a = render_report(a).splitlines()[:-1]
        body_b = render_report(b).splitlines()[:-1]
        assert body_a == body_b
        assert render_report(a).splitlines()[-1].startswith("elapsed_seconds:")

    @pytest.mark.parametrize(
        "theorem, params",
        [
            pytest.param("lower-bound", {"n": 7, "p": 2}, id="lower-bound"),
            pytest.param("upper-bound", {"n": 7, "p": 3}, id="upper-bound"),
            pytest.param("tree-count-bound", {"n": 7, "p": 3}, id="tree-count-bound"),
            pytest.param("min-ordering", {"n": 7}, id="min-ordering"),
            pytest.param("unicyclic-max", {"n": 6}, id="unicyclic-max"),
        ],
    )
    def test_jobs_do_not_change_report_body(self, theorem, params):
        a = verify_theorem(theorem, params, jobs=1)
        b = verify_theorem(theorem, params, jobs=2)
        assert render_report(a).splitlines()[:-1] == render_report(b).splitlines()[:-1]

    def test_max_ordering_ceiling_is_exact(self, monkeypatch):
        # a float Kf that reads below the dumbbell must not hide the exact excess
        import kirchhoff.verify as verify

        n = 30
        tripath = build(FamilySpec("tripath", (n, (1, n - 4))))
        real = verify.kf_spectral
        monkeypatch.setattr(
            verify, "kf_spectral", lambda g: 0.0 if g == tripath else real(g)
        )
        rep = verify_theorem("max-ordering", {"n": n})
        below = [
            ce for ce in rep.counterexamples
            if ce.observed == "Kf(C3(1,n-4))=0" and ce.expected.startswith("strictly below")
        ]
        assert len(below) == 1


class TestMinOrderingClasses:
    """min-ordering from exact deleted-edge classes, against the labeled keyed scan
    it replaced: every row of K_n minus at most three edges, keyed by (max deleted
    degree, touched vertices)."""

    @pytest.mark.parametrize("n", range(6, 14))
    def test_classes_match_the_labeled_keyed_scan(self, n):
        table = set(complete_edge_table(n))
        for p in range(4):
            spec = deleted_edges(n, p)
            labeled = scan_subsets(spec, "max", cardinality(spec), classify=_deletion_key).by_key
            by_key = {}
            for (q, v, dmax), (q_v, ends) in deletion_classes(p).items():
                g = make_graph(n, table - set(map(tuple, ends.tolist())))
                shape, count, kfs = by_key.setdefault(dmax * (n + 1) + v, (complement_shape(g), [0], []))
                count[0] += math.comb(n, v) * q_v
                kfs.append(verify._deletion_values(n, p, q)[0])
            assert sorted(by_key) == sorted(labeled)
            for key, (shape, (count,), kfs) in by_key.items():
                rows = labeled[key]
                assert complement_shape(member(spec, int(rows.ranks.min()))) == shape
                assert rows.ranks.size == count
                assert all(tied(float(kf), rows.vals).all() for kf in kfs)

    def test_refused_over_budget_before_any_work(self, monkeypatch):
        def fail(p):
            raise AssertionError("classes built")

        monkeypatch.setattr(verify.enum, "deletion_classes", fail)
        with pytest.raises(BudgetExceededError) as refusal:
            verify_theorem("min-ordering", {"n": 42})  # C(861, 3) > 10^8
        assert refusal.value.cardinality == math.comb(861, 3)
        with pytest.raises(BudgetExceededError) as refusal:
            verify_theorem("min-ordering", {"n": 13}, budget=1000)
        assert refusal.value.cardinality == math.comb(78, 2)

    def test_g9_at_or_above_the_four_deletion_bound_fails(self, monkeypatch):
        real = verify.bound_eval

        def lowered(n, p, g=None):
            record = real(n, p, g)
            return replace(record, lower_kf=Fraction(n - 1)) if p == 4 else record

        monkeypatch.setattr(verify, "bound_eval", lowered)
        rep = verify_theorem("min-ordering", {"n": 13})
        g9 = fam("gi", 13, 9)
        kf, _ = verify._deletion_values(13, 3, (1, -6, 9, -4))  # the 3-star's Gram polynomial
        assert abs(float(kf) - kf_spectral(g9)) <= 1e-9 * kf
        assert rep.status == "FAIL"
        assert rep.counterexamples == [
            Counterexample(graph6_encode(g9), f"Kf(g9)={format_exact(kf)}", "< 12, the lower bound at four deletions")
        ]

    def test_class_weights_that_miss_the_labeled_count_fail(self, monkeypatch):
        real = verify.enum.deletion_classes

        def doubled(p):
            classes = real(p)
            return {key: (2 * q_v, ends) for key, (q_v, ends) in classes.items()} if p == 2 else classes

        monkeypatch.setattr(verify.enum, "deletion_classes", doubled)
        rep = verify_theorem("min-ordering", {"n": 13})
        assert rep.status == "FAIL" and rep.checked_count == 79158
        assert rep.counterexamples == [
            Counterexample("-", f"class weights sum to {2 * math.comb(78, 2)}", f"{math.comb(78, 2)} graphs with 2 deletions")
        ]

    @pytest.mark.parametrize("n", [6, 7])
    def test_no_four_deletion_bound_below_eight_vertices(self, n, monkeypatch):
        def fail(*args):
            raise AssertionError("bound evaluated")

        monkeypatch.setattr(verify, "bound_eval", fail)
        assert verify_theorem("min-ordering", {"n": n}).status == "PASS"
