import itertools
from fractions import Fraction

import pytest

import kirchhoff.families as families
from kirchhoff.families import (
    FamilyParameterError,
    FamilySpec,
    NoClosedFormSpectrumError,
    build,
    closed_form_kf,
    closed_form_spectrum,
    parse_family,
)
from kirchhoff.graphs import degree_stats
from kirchhoff.spectral import kf_spectral, laplacian_spectrum, wiener
from kirchhoff.verify import ComplementShape, complement_shape


def kf_exact(kind, *args):
    return closed_form_kf(FamilySpec(kind, args))


class TestBuild:
    def test_starlike_figure_tree(self):
        g = build(FamilySpec("starlike", (10, (5, 3, 1))))
        degs = sorted(degree_stats(g).degrees)
        assert g.n == 10 and g.m == 9
        assert degs.count(3) == 1 and degs.count(1) == 3

    def test_double_branch_figure_tree(self):
        g = build(FamilySpec("doublebranch", (9, (1, 1), (1, 1))))
        degs = sorted(degree_stats(g).degrees)
        assert g.n == 9 and g.m == 8
        assert degs.count(3) == 2 and degs.count(1) == 4

    def test_dumbbell_edge_count(self):
        for l in (1, 2, 5):
            g = build(FamilySpec("dumbbell", (3, 3, l)))
            assert g.n == 5 + l and g.m == g.n + 1

    def test_unicyclic_kinds_have_n_edges(self):
        for spec in (
            FamilySpec("lollipop", (9, 4)),
            FamilySpec("q3", (9,)),
            FamilySpec("r3", (9,)),
            FamilySpec("cq3", (9,)),
            FamilySpec("tripath", (9, (2, 4))),
            FamilySpec("tripath3", (9, (3, 2, 1))),
            FamilySpec("cycle", (9,)),
        ):
            g = build(spec)
            assert g.n == 9 and g.m == 9, spec

    def test_tree_kinds_have_n_minus_1_edges(self):
        for spec in (
            FamilySpec("path", (9,)),
            FamilySpec("star", (9,)),
            FamilySpec("starlike", (9, (5, 2, 1))),
            FamilySpec("doublebranch", (9, (2, 1), (1, 1))),
        ):
            g = build(spec)
            assert g.m == g.n - 1

    def test_q3_shape(self):
        # triangle plus a path whose second-to-last vertex carries two pendants
        g = build(FamilySpec("q3", (8,)))
        degs = sorted(degree_stats(g).degrees)
        assert degs == [1, 1, 2, 2, 2, 2, 3, 3]

    def test_r3_shape(self):
        g = build(FamilySpec("r3", (8,)))
        degs = sorted(degree_stats(g).degrees)
        assert degs == [1, 1, 2, 2, 2, 2, 3, 3]

    def test_gi_complement_patterns(self):
        expected = {
            1: ComplementShape("empty", None),
            2: ComplementShape("matching", 1),
            3: ComplementShape("matching", 2),
            4: ComplementShape("star", 2),
            5: ComplementShape("matching", 3),
            6: ComplementShape("pattern", "k12+k2"),
            7: ComplementShape("pattern", "p4"),
            8: ComplementShape("pattern", "c3"),
            9: ComplementShape("star", 3),
        }
        for i, shape in expected.items():
            assert complement_shape(build(FamilySpec("gi", (12, i)))) == shape

    def test_validation_errors(self):
        bad = [
            FamilySpec("starlike", (10, (3, 5, 1))),  # not non-increasing
            FamilySpec("starlike", (10, (5, 4))),  # needs >= 3 branches
            FamilySpec("starlike", (10, (5, 3, 2))),  # sums to n, not n-1
            FamilySpec("doublebranch", (6, (1, 1), (1, 1))),  # no interior vertex
            FamilySpec("lollipop", (5, 6)),
            FamilySpec("lollipop", (5, 2)),
            FamilySpec("dumbbell", (2, 3, 1)),
            FamilySpec("kn-minus-matching", (6, 4)),
            FamilySpec("kn-minus-star", (6, 5)),
            FamilySpec("tripath", (9, (2, 3))),
            FamilySpec("gi", (4, 5)),
        ]
        smallest = {"path": 1, "cycle": 3, "complete": 1, "star": 2, "q3": 6, "r3": 7, "cq3": 7}
        bad += [FamilySpec(kind, (n - 1,)) for kind, n in smallest.items()]
        for spec in bad:
            with pytest.raises(FamilyParameterError):
                build(spec)
        for kind, n in smallest.items():
            assert build(FamilySpec(kind, (n,))).n == n

    def test_tripath_labelings(self):
        # path k1 hangs at triangle vertex 0, k2 at 1, k3 at 2, labels in that order
        assert build(parse_family("tripath:9,(1,5)")).edges == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (4, 5), (5, 6), (6, 7), (7, 8),
        )
        assert build(parse_family("tripath3:9,(3,2,1)")).edges == (
            (0, 1), (0, 2), (0, 3), (1, 2), (1, 6), (2, 8), (3, 4), (4, 5), (6, 7),
        )


class TestClosedFormKf:
    def test_path(self):
        assert kf_exact("path", 4) == 10

    def test_matching_family(self):
        assert kf_exact("kn-minus-matching", 6, 3) == Fraction(13, 2)
        assert kf_exact("kn-minus-matching", 6, 2) == 6

    def test_dumbbell(self):
        assert kf_exact("dumbbell", 3, 3, 5) == Fraction(413, 3)

    def test_lollipop_formula_consistency(self):
        # cycle-length-3 case collapses to the cubic form
        for n in (5, 9, 20):
            assert kf_exact("lollipop", n, 3) == Fraction(n**3 - 11 * n + 18, 6)
        # the full-cycle case is the cycle value
        for n in (5, 9, 20):
            assert kf_exact("lollipop", n, n) == kf_exact("cycle", n)

    def test_uncatalogued_kinds_return_none(self):
        assert kf_exact("star", 7) is None
        assert kf_exact("starlike", 9, (3, 3, 2)) is None
        assert kf_exact("tripath3", 9, (3, 2, 1)) is None
        assert kf_exact("dumbbell", 3, 4, 2) is None
        for i in (6, 7, 8):
            assert kf_exact("gi", 12, i) is None

    def test_gi_values_match_pattern_families(self):
        assert kf_exact("gi", 12, 3) == kf_exact("kn-minus-matching", 12, 2)
        assert kf_exact("gi", 12, 9) == kf_exact("kn-minus-star", 12, 3)

    def test_gi_tables_derived_from_patterns(self):
        # the values these tables held when they were listed by hand
        shapes = families.GI_SHAPES
        assert {i: p for i, (kind, p) in shapes.items() if kind == "matching"} == {2: 1, 3: 2, 5: 3}
        assert {i: p for i, (kind, p) in shapes.items() if kind == "star"} == {4: 2, 9: 3}
        assert shapes[1] == ComplementShape("empty", None)
        assert families._GI_MIN_N == {1: 2, 2: 3, 3: 4, 4: 4, 5: 6, 6: 5, 7: 4, 8: 4, 9: 5}

    def test_tree_catalog_equals_wiener_exactly(self):
        for spec in (
            FamilySpec("path", (11,)),
            FamilySpec("starlike", (11, (7, 2, 1))),
            FamilySpec("starlike", (11, (6, 3, 1))),
            FamilySpec("starlike", (11, (5, 4, 1))),
            FamilySpec("doublebranch", (11, (1, 1), (2, 1))),
        ):
            exact = closed_form_kf(spec)
            assert exact.denominator == 1
            assert exact == wiener(build(spec))

    def test_catalog_against_numeric_sample(self):
        specs = [
            FamilySpec("path", (17,)),
            FamilySpec("cycle", (18,)),
            FamilySpec("complete", (15,)),
            FamilySpec("lollipop", (14, 6)),
            FamilySpec("q3", (13,)),
            FamilySpec("r3", (13,)),
            FamilySpec("tripath", (13, (1, 9))),
            FamilySpec("tripath", (13, (2, 8))),
            FamilySpec("dumbbell", (3, 3, 8)),
            FamilySpec("kn-minus-matching", (11, 5)),
            FamilySpec("kn-minus-star", (11, 6)),
            FamilySpec("starlike", (13, (9, 2, 1))),
            FamilySpec("doublebranch", (13, (1, 1), (2, 1))),
            FamilySpec("gi", (11, 4)),
        ]
        for spec in specs:
            exact = float(closed_form_kf(spec))
            numeric = kf_spectral(build(spec))
            assert abs(numeric - exact) <= 1e-9 * max(1.0, exact), spec

    def test_cq3_cut_vertex_oracle(self):
        # pendant-at-cycle composition gives Kf(cq3 on n) = (n^3 - 25n + 68)/6;
        # derived independently from the cut-vertex formula, checked numerically
        for n in (8, 12, 20):
            numeric = kf_spectral(build(FamilySpec("cq3", (n,))))
            assert abs(numeric - (n**3 - 25 * n + 68) / 6) < 1e-8
        for n in range(7, 19):
            assert kf_exact("cq3", n) == Fraction(n**3 - 25 * n + 68, 6)

    def test_tripath_order_insensitive(self):
        assert kf_exact("tripath", 9, (1, 5)) == kf_exact("tripath", 9, (5, 1))

    def test_matching_family_needs_three_vertices(self):
        # K_2 minus its one edge is disconnected
        with pytest.raises(FamilyParameterError):
            kf_exact("kn-minus-matching", 2, 1)
        assert kf_exact("kn-minus-matching", 3, 1) == kf_exact("path", 3)

    def test_cubics_sit_in_the_named_table(self):
        cubic = {label: f.cubic for label, f in families.NAMED_FAMILIES.items() if f.cubic}
        assert cubic == {
            "path": (-1, 0), "T(n-4,2,1)": (-13, 48), "T(1,1;2,1)": (-19, 66), "T(n-5,3,1)": (-19, 90),
            "T(n-6,4,1)": (-25, 144), "Q3": (-17, 36), "C33-dumbbell": (-21, 36), "R3": (-23, 66),
            "C3(1,n-4)": (-19, 50), "C3(2,n-5)": (-27, 98), "CQ3": (-25, 68),
        }
        for label in ("T(n-3,1,1)", "T(1,1;1,1)", "T(n-4,1,1,1)", "P3-lollipop", "cycle", "complete"):
            assert families.NAMED_FAMILIES[label].cubic is None


def _pattern_kf(spec):
    """The catalog as it recognised the cubic families by patterns in their arguments,
    kept as the reference for the lookup in NAMED_FAMILIES."""

    def cubic(n, linear, constant):
        return Fraction(n**3 + linear * n + constant, 6)

    kind = spec.kind
    if kind == "path":
        return Fraction(spec.args[0] ** 3 - spec.args[0], 6)
    cubics = {"q3": (-17, 36), "r3": (-23, 66), "cq3": (-25, 68)}
    if kind in cubics:
        return cubic(spec.args[0], *cubics[kind])
    if kind == "starlike":
        n, branches = spec.args
        key = tuple(sorted(branches, reverse=True))
        for pattern, (lin, const) in (
            ((n - 4, 2, 1), (-13, 48)),
            ((n - 5, 3, 1), (-19, 90)),
            ((n - 6, 4, 1), (-25, 144)),
        ):
            if min(pattern) >= 1 and key == tuple(sorted(pattern, reverse=True)):
                return cubic(n, lin, const)
        return None
    if kind == "doublebranch":
        n, ps, qs = spec.args
        tails = {tuple(sorted(ps)), tuple(sorted(qs))}
        if tails == {(1, 1), (1, 2)} and n - 2 - sum(ps) - sum(qs) >= 1:
            return cubic(n, -19, 66)
        return None
    if kind == "tripath":
        n, ks = spec.args
        key = tuple(sorted(ks))
        if n - 4 >= 1 and key == tuple(sorted((1, n - 4))):
            return cubic(n, -19, 50)
        if n - 5 >= 2 and key == tuple(sorted((2, n - 5))):
            return cubic(n, -27, 98)
        return None
    if kind == "dumbbell":
        p, q, l = spec.args
        if p == 3 and q == 3:
            return cubic(l + 5, -21, 36)
        return None
    raise AssertionError(kind)


def _tails(total, parts, largest):
    """Non-increasing tuples of ``parts`` positive integers at most ``largest`` summing to ``total``."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(total, largest), 0, -1):
        for rest in _tails(total - first, parts - 1, first):
            yield (first,) + rest


def _valid(specs):
    for spec in specs:
        try:
            families.validate(spec)
        except FamilyParameterError:
            continue
        yield spec


def _cubic_kind_specs(top=30):
    """Every valid spec of the kinds the pattern catalog read, n <= top, both orders of the
    two-ended kinds.  Double-branch trees number 2.5 million at n <= 30, so they are taken
    whole for n <= 16 and, above, with two or three tails of length <= 3 on each side."""
    for n in range(1, top + 1):
        yield from (FamilySpec(kind, (n,)) for kind in ("path", "q3", "r3", "cq3"))
        for parts in range(3, n):
            yield from (FamilySpec("starlike", (n, b)) for b in _tails(n - 1, parts, n))
        yield from (FamilySpec("tripath", (n, (k, n - 3 - k))) for k in range(1, n - 3))
        for l in range(1, n - 5):
            yield from (FamilySpec("dumbbell", (p, n + 1 - l - p, l)) for p in range(3, n - l - 1))
        sides = {
            total: [t for parts in range(2, total + 1) if n <= 16 or parts <= 3
                    for t in _tails(total, parts, n if n <= 16 else 3)]
            for total in range(2, n - 4)
        }
        for first, second in itertools.product(sides, repeat=2):
            if first + second <= n - 3:
                for ps, qs in itertools.product(sides[first], sides[second]):
                    yield FamilySpec("doublebranch", (n, ps, qs))


class TestCatalogLookup:
    def test_lookup_equals_the_pattern_catalog(self):
        specs = list(_valid(_cubic_kind_specs()))
        kinds = {spec.kind for spec in specs}
        assert kinds == {"path", "q3", "r3", "cq3", "starlike", "tripath", "dumbbell", "doublebranch"}
        found = 0
        for spec in specs:
            want = _pattern_kf(spec)
            assert closed_form_kf(spec) == want, spec
            found += want is not None
        # both readings of C3(1,n-4), C3(2,n-5) and T(1,1;2,1) are among the hits
        assert FamilySpec("tripath", (20, (16, 1))) in specs and kf_exact("tripath", 20, (16, 1)) is not None
        assert kf_exact("doublebranch", 20, (2, 1), (1, 1)) == kf_exact("doublebranch", 20, (1, 1), (2, 1))
        assert found == 319


class TestClosedFormSpectrum:
    def test_examples(self):
        assert closed_form_spectrum(FamilySpec("kn-minus-matching", (6, 2))) == (6, 6, 6, 4, 4, 0)
        assert closed_form_spectrum(FamilySpec("kn-minus-star", (6, 2))) == (6, 6, 6, 5, 3, 0)
        assert closed_form_spectrum(FamilySpec("complete", (5,))) == (5, 5, 5, 5, 0)

    def test_matches_numeric_spectrum(self):
        for spec in (
            FamilySpec("complete", (9,)),
            FamilySpec("kn-minus-matching", (9, 4)),
            FamilySpec("kn-minus-star", (9, 5)),
            FamilySpec("kn-minus-star", (9, 1)),
        ):
            exact = closed_form_spectrum(spec)
            numeric = laplacian_spectrum(build(spec))
            assert all(abs(a - b) <= numeric.zero_tol for a, b in zip(exact, numeric.values))

    def test_other_kinds_raise(self):
        with pytest.raises(NoClosedFormSpectrumError):
            closed_form_spectrum(FamilySpec("path", (6,)))


class TestParseFamily:
    def test_examples(self):
        assert parse_family("starlike:10,(5,3,1)") == FamilySpec("starlike", (10, (5, 3, 1)))
        assert parse_family("dumbbell:3,3,5") == FamilySpec("dumbbell", (3, 3, 5))
        assert parse_family("kn-minus-matching:6,3") == FamilySpec("kn-minus-matching", (6, 3))
        assert parse_family("g7:12") == FamilySpec("gi", (12, 7))
        assert parse_family("doublebranch:9,(1,1),(1,1)") == FamilySpec(
            "doublebranch", (9, (1, 1), (1, 1))
        )

    def test_rejects_malformed(self):
        for text in ("path", "path:x", "starlike:10,(5,3", "nosuch:4", "path:4,5"):
            with pytest.raises(FamilyParameterError):
                parse_family(text)

    def test_str_roundtrip(self):
        spec = FamilySpec("starlike", (10, (5, 3, 1)))
        assert parse_family(str(spec)) == spec
