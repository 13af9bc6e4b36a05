"""Bound evaluators, structural predicates, and theorem verdict generation.

Each verifier exhaustively (or, where stated, on seeded random inputs)
checks one claim over an enumeration space and produces a machine-readable
report: status, counterexamples, extremal witnesses.  Equality cases are
decided structurally, by classifying the complement as a matching, a star,
or one of the small named deletion patterns, never by a general
isomorphism routine; where a witness must be matched against a named
family, edge sets are compared under a relabeling found by backtracking
permutation search (small n only).

Floating Kf values are clustered, and floating strict inequalities decided,
by the enumeration module's one tie rule (``tied``, relative tolerance
``TIE_TOL``); ties inside tree spaces are re-adjudicated
exactly through the integer Wiener index, which equals the Kirchhoff index
on trees.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import Iterator, NamedTuple

import numpy as np

from . import enumeration as enum
from .enumeration import (
    DEFAULT_BUDGET,
    EnumerationSpec,
    cardinality,
    member,
    prufer_decode,
    tied,
)
from .families import GI_PATTERNS, NAMED_FAMILIES, FamilySpec, build, closed_form_kf
from .graphs import (
    Graph,
    complement,
    complete_edge_table,
    connected_components,
    edit_edge,
    graph6_encode,
    is_connected,
    make_graph,
    merge_at,
)
from .spectral import (
    DisconnectedGraphError,
    kf_spectral,
    kf_vertex,
    laplacian_spectrum,
    tree_count,
    wiener,
)

VALUE_TOL = 1e-9


def _reproduces(x: float, exact: Fraction | float) -> bool:
    """Whether a float reproduces an exact value, to VALUE_TOL relative (absolute below 1)."""
    e = float(exact)
    return abs(x - e) <= VALUE_TOL * max(1.0, e)


class ParamOutOfRangeError(ValueError):
    """Verifier parameters outside the supported range."""


class MalformedInputError(ValueError):
    """Identity-check inputs do not fit the requested kind."""


# ---------------------------------------------------------------------------
# Structural classification


class ComplementShape(NamedTuple):
    kind: str  # empty | matching | star | pattern | other
    detail: int | str | None


def _shape_of_edges(edges: list[tuple[int, int]]) -> ComplementShape:
    m = len(edges)
    if m == 0:
        return ComplementShape("empty", None)
    deg: dict[int, int] = {}
    for u, v in edges:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    degs = sorted(deg.values(), reverse=True)
    if degs[0] == 1:
        return ComplementShape("matching", m)
    if degs[0] == m and all(d == 1 for d in degs[1:]):
        return ComplementShape("star", m)
    if m == 3:
        if degs == [2, 2, 2]:
            return ComplementShape("pattern", "c3")
        if degs == [2, 2, 1, 1]:
            return ComplementShape("pattern", "p4")
        if degs == [2, 1, 1, 1, 1]:
            return ComplementShape("pattern", "k12+k2")
    return ComplementShape("other", None)


def complement_shape(g: Graph) -> ComplementShape:
    """Classify the complement restricted to its non-isolated vertices."""
    return _shape_of_edges(list(complement(g).edges))


# Which of the nine named small deletion patterns g1..g9 has each shape.
_PATTERN_INDEX = {_shape_of_edges(list(edges)): i for i, edges in GI_PATTERNS.items()}


def count_labeled_matchings(n: int, p: int) -> int:
    out = 1
    for i in range(p):
        out *= math.comb(n - 2 * i, 2)
    return out // math.factorial(p)


def count_labeled_stars(n: int, p: int) -> int:
    if p == 1:
        return math.comb(n, 2)
    return n * math.comb(n - 1, p)


# ---------------------------------------------------------------------------
# Isomorphism by backtracking permutation search (small n)


def _iso_count(g1: Graph, g2: Graph, stop_at: int | None = None) -> int:
    """Number of adjacency-preserving bijections g1 -> g2 (early exit option)."""
    if g1.n != g2.n or g1.m != g2.m:
        return 0
    n = g1.n
    deg1 = [g1.degree(v) for v in range(n)]
    deg2 = [g2.degree(v) for v in range(n)]
    if sorted(deg1) != sorted(deg2):
        return 0
    # order g1's vertices so each (after the first) touches a placed one
    order: list[int] = []
    placed = set()
    pending = sorted(range(n), key=lambda v: -deg1[v])
    while len(order) < n:
        nxt = None
        for v in pending:
            if v in placed:
                continue
            if not order or any(u in placed for u in g1.neighbors(v)):
                nxt = v
                break
        if nxt is None:
            nxt = next(v for v in pending if v not in placed)
        order.append(nxt)
        placed.add(nxt)
    bits2 = g2.adjacency_bits
    count = 0
    image = [-1] * n
    used = [False] * n

    def extend(k: int) -> bool:
        nonlocal count
        if k == n:
            count += 1
            return stop_at is not None and count >= stop_at
        v = order[k]
        nv = g1.neighbors(v)
        for u in range(n):
            if used[u] or deg2[u] != deg1[v]:
                continue
            ok = True
            for w in nv:
                iw = image[w]
                if iw >= 0 and not bits2[u] >> iw & 1:
                    ok = False
                    break
            if ok:
                # non-neighbors must also map to non-neighbors
                for w in order[:k]:
                    if w not in nv and bits2[u] >> image[w] & 1:
                        ok = False
                        break
            if ok:
                image[v] = u
                used[u] = True
                if extend(k + 1):
                    return True
                image[v] = -1
                used[u] = False
        return False

    extend(0)
    return count


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return _iso_count(g1, g2, stop_at=1) > 0


def automorphism_count(g: Graph) -> int:
    return _iso_count(g, g)


def labeled_copy_count(g: Graph) -> int:
    """Number of labeled graphs on g.n vertices isomorphic to g."""
    return math.factorial(g.n) // automorphism_count(g)


# ---------------------------------------------------------------------------
# Bound records


@dataclass(frozen=True)
class BoundRecord:
    n: int
    p: int
    lower_kf: Fraction
    tree_count_lower: int
    upper_kf_full: Fraction | None
    upper_kf_simple: Fraction | None


def bound_eval(n: int, p: int, g: Graph | None = None) -> BoundRecord:
    """Exact bound values for p deletions from K_n.

    The two upper bounds need the graph itself (its spanning-tree count and
    minimum degree) and are None when no graph is supplied.
    """
    if not 2 <= p <= n // 2:
        raise ParamOutOfRangeError(f"bounds need 2 <= p <= n/2, got n={n} p={p}")
    lower = Fraction(n - 1) + Fraction(2 * p, n - 2)
    t_lower = n ** (n - p - 2) * (n - 1) ** (p - 1) * (n - p - 1)
    full = simple = None
    if g is not None:
        if g.n != n:
            raise ParamOutOfRangeError(f"graph has {g.n} vertices, expected {n}")
        t = tree_count(g)
        if t == 0:
            raise DisconnectedGraphError(connected_components(g))
        delta = min(g.degree(v) for v in range(n))
        base = Fraction(n - 1 - p) + Fraction(n, n - p - 1)
        full = base + Fraction((p - 1) * delta * n ** (n - p - 1) * (n - 1) ** (p - 2), t)
        simple = base + Fraction(n * (p - 1) * delta, (n - 1) * (n - p - 1))
    return BoundRecord(n, p, lower, t_lower, full, simple)


# ---------------------------------------------------------------------------
# Pointwise identity checks


@dataclass(frozen=True)
class IdentityResult:
    kind: str
    ok: bool
    residual: float
    detail: str


def _need(inputs: dict, *names):
    try:
        return tuple(inputs[name] for name in names)
    except KeyError as exc:
        raise MalformedInputError(f"missing input {exc.args[0]!r}") from exc


def check_identity(kind: str, **inputs) -> IdentityResult:
    """Evaluate one pointwise identity or inequality numerically.

    Kinds: ``kf-edge-removal``, ``kf-edge-insertion``, ``spectrum-interlacing``,
    ``complement-spectrum``, ``wiener-dominates-kf``, ``cut-vertex-additivity``,
    ``pendant-tree-vs-path``.  A strict inequality holds only when its two
    sides are not tied under the one tie rule (``enumeration.tied``).
    """
    if kind == "kf-edge-removal":
        (g, edge) = _need(inputs, "graph", "edge")
        smaller = edit_edge(g, edge, "remove")
        if not is_connected(smaller):
            raise MalformedInputError(f"removing {edge} disconnects the graph")
        before, after = kf_spectral(g), kf_spectral(smaller)
        margin = after - before
        ok = after > before and not tied(after, before)
        return IdentityResult(kind, ok, margin, f"Kf rise {margin:.3e}")
    if kind == "kf-edge-insertion":
        (g, edge) = _need(inputs, "graph", "edge")
        larger = edit_edge(g, edge, "add")
        before, after = kf_spectral(g), kf_spectral(larger)
        margin = before - after
        ok = before > after and not tied(before, after)
        return IdentityResult(kind, ok, margin, f"Kf drop {margin:.3e}")
    if kind == "spectrum-interlacing":
        (g, edge) = _need(inputs, "graph", "edge")
        larger = edit_edge(g, edge, "add")
        mu = laplacian_spectrum(g).values
        mu_plus = laplacian_spectrum(larger).values
        worst = 0.0
        for i in range(g.n):
            worst = max(worst, mu[i] - mu_plus[i])
            if i + 1 < g.n:
                worst = max(worst, mu_plus[i + 1] - mu[i])
        return IdentityResult(kind, worst <= 1e-8, worst, f"interlacing slack {worst:.3e}")
    if kind == "complement-spectrum":
        (g,) = _need(inputs, "graph")
        mu = laplacian_spectrum(g).values
        predicted = sorted([g.n - v for v in mu[: g.n - 1]] + [0.0], reverse=True)
        actual = laplacian_spectrum(complement(g)).values
        worst = max(abs(a - b) for a, b in zip(predicted, actual)) if g.n else 0.0
        return IdentityResult(kind, worst <= 1e-8, worst, f"multiset gap {worst:.3e}")
    if kind == "wiener-dominates-kf":
        (g,) = _need(inputs, "graph")
        w = wiener(g)
        kf = kf_spectral(g)
        gap = w - kf
        is_tree = g.m == g.n - 1
        tight = tied(kf, w)
        ok = gap >= -VALUE_TOL * max(1.0, w) and (tight == is_tree)
        return IdentityResult(kind, ok, gap, f"W-Kf gap {gap:.3e}, tree={is_tree}")
    if kind == "cut-vertex-additivity":
        (g1, x1, g2, x2) = _need(inputs, "left", "left_vertex", "right", "right_vertex")
        glued = merge_at(g1, x1, g2, x2)
        predicted = (
            kf_spectral(g1)
            + kf_spectral(g2)
            + (g1.n - 1) * kf_vertex(g2, x2)
            + (g2.n - 1) * kf_vertex(g1, x1)
        )
        actual = kf_spectral(glued)
        residual = abs(actual - predicted)
        ok = residual <= 1e-8 * max(1.0, actual)
        return IdentityResult(kind, ok, residual, f"cut-vertex residual {residual:.3e}")
    if kind == "pendant-tree-vs-path":
        (g0, v0, tree, x) = _need(inputs, "base", "attach_at", "tree", "tree_vertex")
        if tree.m != tree.n - 1 or not is_connected(tree):
            raise MalformedInputError("attachment graph must be a tree")
        attached = merge_at(g0, v0, tree, x)
        path = build(FamilySpec("path", (tree.n,)))
        straightened = merge_at(g0, v0, path, 0)
        margin = kf_spectral(straightened) - kf_spectral(attached)
        ok = margin >= -VALUE_TOL * max(1.0, kf_spectral(straightened))
        return IdentityResult(kind, ok, margin, f"path attachment gain {margin:.3e}")
    raise MalformedInputError(f"unknown identity kind {kind!r}")


# ---------------------------------------------------------------------------
# Extremal search


class Witness(NamedTuple):
    rank: int
    graph6: str
    kf: float
    count: int


def extremal_search(
    spec: EnumerationSpec,
    objective: str,
    k: int,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> list[Witness]:
    """Top-k Kirchhoff value groups over the connected members of a space.

    Ties group together (one row per distinct value, with the group's
    labeled-member count); the reported graph comes first in enumeration
    order.  Tree spaces rank by the exact integer Wiener index.
    """
    if objective not in ("min", "max"):
        raise ParamOutOfRangeError(f"objective must be min or max, got {objective!r}")
    if k < 1:
        raise ParamOutOfRangeError("witness count must be >= 1")
    if jobs < 1:
        raise ParamOutOfRangeError(f"jobs must be >= 1, got {jobs}")
    if spec.mode == "labeled-trees":
        trees = enum.scan_labeled_trees(spec, jobs, budget)
        values = sorted(map(int, np.flatnonzero(trees.hist)), reverse=objective == "max")[:k]
        groups = [(float(w), trees.first_rank[w], int(trees.hist[w])) for w in values]
    else:
        scan = enum.scan_subsets(spec, objective, k, jobs, budget)
        groups = [
            (lead, int(ranks[0]), int(ranks.size))
            for lead, ranks in enum.value_groups(scan.vals, scan.ranks, objective, k)
        ]
    return [
        Witness(i, graph6_encode(member(spec, rank)), value, count)
        for i, (value, rank, count) in enumerate(groups, start=1)
    ]


# ---------------------------------------------------------------------------
# Verification reports


class Counterexample(NamedTuple):
    graph6: str
    observed: str
    expected: str


@dataclass
class VerificationReport:
    theorem_id: str
    params: dict
    status: str = "PASS"
    checked_count: int = 0
    counterexamples: list[Counterexample] = field(default_factory=list)
    extremal_witnesses: list[Witness] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def fail(self, graph6: str, observed: str, expected: str) -> None:
        self.counterexamples.append(Counterexample(graph6, observed, expected))

    def finalize(self, partial: bool = False) -> "VerificationReport":
        if self.counterexamples:
            self.status = "FAIL"
        elif partial or self.checked_count == 0:
            self.status = "PARTIAL"
        else:
            self.status = "PASS"
        return self


REPORT_VERSION = "kirchhoff-report v1"


def format_real(x: float) -> str:
    return f"{x:.12g}"


def format_exact(x: Fraction | int) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def render_report(report: VerificationReport) -> str:
    """Serialize to the versioned line format; elapsed time is the footer."""
    lines = [REPORT_VERSION, f"theorem: {report.theorem_id}"]
    for key in sorted(report.params):
        lines.append(f"param: {key} = {report.params[key]}")
    lines.append(f"status: {report.status}")
    lines.append(f"checked: {report.checked_count}")
    lines.append(f"counterexamples: {len(report.counterexamples)}")
    for ce in report.counterexamples:
        lines.append(f"counterexample: {ce.graph6} observed={ce.observed} expected={ce.expected}")
    lines.append(f"witnesses: {len(report.extremal_witnesses)}")
    for w in report.extremal_witnesses:
        lines.append(
            f"witness: rank={w.rank} graph6={w.graph6} kf={format_real(w.kf)} count={w.count}"
        )
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(f"elapsed_seconds: {report.elapsed_seconds:.3f}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Theorem verifiers


def _require_params(params: dict, *names) -> tuple:
    missing = [name for name in names if name not in params]
    if missing:
        raise ParamOutOfRangeError(f"missing parameter(s): {', '.join(missing)}")
    return tuple(params[name] for name in names)


def _deleted_space_params(params: dict) -> tuple[int, int]:
    n, p = _require_params(params, "n", "p")
    if not 2 <= p <= n // 2:
        raise ParamOutOfRangeError(f"need 2 <= p <= n/2, got n={n} p={p}")
    return n, p


def _connected_deletions(spec: EnumerationSpec, subs: np.ndarray) -> Iterator[tuple[int, Graph]]:
    """(row index, K_n minus the row's edges) for each connected row of a block."""
    for i, row in enumerate(subs.tolist()):
        g = enum.row_graph(spec, row)
        if is_connected(g):
            yield i, g


def _star_rows(n: int, p: int, subs: np.ndarray) -> np.ndarray:
    """Which rows delete a star: for p >= 2 edges, exactly when one vertex meets all p."""
    return enum.batch_degrees(n, subs).max(axis=1) == p


def _verify_lower_bound(params, budget, jobs) -> VerificationReport:
    n, p = _deleted_space_params(params)
    report = VerificationReport("lower-bound", {"n": n, "p": p})
    spec = enum.deleted_edges(n, p)
    bound = bound_eval(n, p).lower_kf
    scan = enum.scan_subsets(spec, "min", 1, jobs, budget)
    report.checked_count = scan.checked
    groups = enum.value_groups(scan.vals, scan.ranks, "min", 1)
    lead, member_ranks = groups[0]
    if not _reproduces(lead, bound):
        report.fail("-", f"min Kf {format_real(lead)}", f"bound {format_exact(bound)}")
    expected_count = count_labeled_matchings(n, p)
    if member_ranks.size != expected_count:
        report.fail(
            "-",
            f"{member_ranks.size} minimizers",
            f"{expected_count} labeled {p}-matchings",
        )
    for rank in member_ranks:
        g = member(spec, int(rank))
        shape = complement_shape(g)
        if shape != ComplementShape("matching", p):
            report.fail(
                graph6_encode(g),
                f"complement {shape.kind}",
                f"matching({p})",
            )
    rep = member(spec, int(member_ranks[0]))
    report.extremal_witnesses.append(
        Witness(1, graph6_encode(rep), lead, int(member_ranks.size))
    )
    report.notes.append(f"lower bound {format_exact(bound)} attained by every minimizer")
    if scan.connected != scan.checked:
        report.notes.append(f"skipped {scan.checked - scan.connected} disconnected graphs")
    return report.finalize()


def _failure(g: Graph, observed: str, expected: str) -> Counterexample:
    return Counterexample(graph6_encode(g), observed, expected)


def _upper_bound_kernel(spec: EnumerationSpec, rank0: int, subs: np.ndarray) -> enum.SubsetScan:
    """Per-row checks of the full and simple upper bounds and their equality case;
    the Kf of every connected row goes to the pool, which keeps the maximal group."""
    n, p = spec.n, spec.count
    stars = _star_rows(n, p, subs)
    failures: list[Counterexample] = []
    vals, ranks = [], []
    for i, g in _connected_deletions(spec, subs):
        kf = kf_spectral(g)
        rec = bound_eval(n, p, g)
        full_f = float(rec.upper_kf_full)
        is_star = bool(stars[i])
        if kf > full_f + VALUE_TOL * max(1.0, full_f):
            failures.append(
                _failure(g, f"Kf {format_real(kf)}", f"<= full bound {format_real(full_f)}")
            )
        if rec.upper_kf_full > rec.upper_kf_simple:
            failures.append(_failure(
                g,
                f"full {format_exact(rec.upper_kf_full)}",
                f"<= simple {format_exact(rec.upper_kf_simple)}",
            ))
        tight = _reproduces(kf, full_f)
        if tight != is_star:
            failures.append(_failure(
                g,
                f"equality-with-bound={tight}, star-complement={is_star}",
                "equality exactly on star complements",
            ))
        vals.append(kf)
        ranks.append(rank0 + i)
    pool = np.array(vals), np.array(ranks, dtype=np.int64)
    return enum.SubsetScan(subs.shape[0], len(vals), *pool, failures)


def _verify_upper_bound(params, budget, jobs) -> VerificationReport:
    n, p = _deleted_space_params(params)
    report = VerificationReport("upper-bound", {"n": n, "p": p})
    spec = enum.deleted_edges(n, p)
    merge = partial(enum.merge_subset_scans, "max", 1)
    scan = enum.scan(spec, partial(_upper_bound_kernel, spec), merge, jobs, budget)
    report.checked_count = scan.connected
    report.counterexamples.extend(scan.failures)
    star = build(FamilySpec("kn-minus-star", (n, p)))
    star_kf = closed_form_kf(FamilySpec("kn-minus-star", (n, p)))
    max_kf = float(scan.vals.max())
    if not _reproduces(max_kf, star_kf):
        report.fail("-", f"max Kf {format_real(max_kf)}", f"Kf of star deletion {format_exact(star_kf)}")
    expected = count_labeled_stars(n, p)
    if scan.ranks.size != expected:
        report.fail("-", f"{scan.ranks.size} maximizers", f"{expected} labeled stars")
    for rank in np.sort(scan.ranks):
        g = member(spec, int(rank))
        shape = complement_shape(g)
        if shape != ComplementShape("star", p):
            report.fail(graph6_encode(g), f"complement {shape.kind}", f"star({p})")
    report.extremal_witnesses.append(
        Witness(1, graph6_encode(star), max_kf, int(scan.ranks.size))
    )
    report.notes.append(
        f"maximum {format_exact(star_kf)} attained exactly on star complements"
    )
    return report.finalize()


def _tree_count_kernel(spec: EnumerationSpec, bound: int, rank0: int, subs: np.ndarray) -> enum.SubsetScan:
    """Per-row spanning-tree bound checks; pools the rows with t == bound."""
    stars = _star_rows(spec.n, spec.count, subs)
    failures: list[Counterexample] = []
    connected, equal = 0, []
    for i, g in _connected_deletions(spec, subs):
        connected += 1
        t = tree_count(g)
        is_star = bool(stars[i])
        if t < bound:
            failures.append(_failure(g, f"t={t}", f"t >= {bound}"))
        if (t == bound) != is_star:
            failures.append(_failure(
                g, f"t={t}, star-complement={is_star}", f"t == {bound} exactly on star complements"
            ))
        if t == bound:
            equal.append(rank0 + i)
    vals, ranks = np.full(len(equal), float(bound)), np.array(equal, dtype=np.int64)
    return enum.SubsetScan(subs.shape[0], connected, vals, ranks, failures)


def _verify_tree_count_bound(params, budget, jobs) -> VerificationReport:
    n, p = _deleted_space_params(params)
    report = VerificationReport("tree-count-bound", {"n": n, "p": p})
    bound = bound_eval(n, p).tree_count_lower
    spec = enum.deleted_edges(n, p)
    merge = partial(enum.merge_subset_scans, "max", 1)
    scan = enum.scan(spec, partial(_tree_count_kernel, spec, bound), merge, jobs, budget)
    report.checked_count = scan.connected
    report.counterexamples.extend(scan.failures)
    equality_count = scan.ranks.size  # one value group: every row with t == bound
    expected = count_labeled_stars(n, p)
    if equality_count != expected:
        report.fail("-", f"{equality_count} equality cases", f"{expected} labeled stars")
    report.notes.append(f"spanning-tree lower bound {bound}")
    return report.finalize()


def _deletion_key(n: int, subs: np.ndarray) -> np.ndarray:
    """Max degree and touched-vertex count of each row's deleted edges, as one integer."""
    deg = enum.batch_degrees(n, subs)
    return deg.max(axis=1) * (n + 1) + (deg > 0).sum(axis=1)


def _verify_min_ordering(params, budget, jobs) -> VerificationReport:
    (n,) = _require_params(params, "n")
    if n < 6:
        raise ParamOutOfRangeError("min-ordering needs n >= 6 (all nine deletions defined)")
    report = VerificationReport("min-ordering", {"n": n})
    # (p, deletion key) tells the nine patterns apart at p <= 3, so one member
    # classifies its key's rows; a wrong key shows as a Kf spread.  Every key
    # keeps the Kf of each of its rows.
    per_pattern = {}
    for p in range(4):
        spec = enum.deleted_edges(n, p)
        scan = enum.scan_subsets(spec, "max", math.inf, jobs, budget, classify=_deletion_key)
        report.checked_count += scan.checked
        for rows in scan.by_key.values():
            ranks = np.sort(rows.ranks)
            pattern = _PATTERN_INDEX.get(complement_shape(member(spec, int(ranks[0]))))
            if pattern is not None:
                per_pattern[pattern] = rows.vals
                continue
            for rank in ranks:
                report.fail(
                    graph6_encode(member(spec, int(rank))),
                    "unclassified deletion pattern",
                    "one of the nine named patterns",
                )
    values = {}
    for i in range(1, 10):
        vals = per_pattern[i]
        spread = float(vals.max() - vals.min())
        if not tied(vals.max(), vals.min()):
            report.fail("-", f"g{i} Kf spread {spread:.2e}", "identical across labelings")
        values[i] = float(vals.min())
        form = closed_form_kf(FamilySpec("gi", (n, i)))
        if form is not None and not _reproduces(values[i], form):
            report.fail("-", f"g{i} Kf {format_real(values[i])}", f"closed form {format_exact(form)}")
        g = build(FamilySpec("gi", (n, i)))
        report.extremal_witnesses.append(
            Witness(i, graph6_encode(g), values[i], int(vals.size))
        )
    for i in range(1, 9):
        if not (values[i + 1] > values[i] and not tied(values[i + 1], values[i])):
            report.fail(
                "-",
                f"Kf(g{i + 1})={format_real(values[i + 1])} vs Kf(g{i})={format_real(values[i])}",
                f"Kf(g{i + 1}) > Kf(g{i}) strictly",
            )
    report.notes.append(
        "every graph within three deletions realizes one of the nine named patterns"
    )
    if n < 11:
        report.notes.append("ordering claimed for n >= 11; smaller n reported as observed")
    return report.finalize()


_TREE_CHAIN = (
    "path", "T(n-3,1,1)", "T(n-4,2,1)", "T(1,1;1,1)", "T(n-5,3,1)", "T(n-4,1,1,1)", "T(1,1;2,1)", "T(n-6,4,1)",
)
# Max-ordering: the ten top families in claimed order, then six claimed below the last.
_MAX_CHAIN = (
    "path", "T(n-3,1,1)", "P3-lollipop", "T(n-4,2,1)", "T(1,1;1,1)",
    "Q3", "T(n-5,3,1)", "T(n-4,1,1,1)", "T(1,1;2,1)", "C33-dumbbell",
)
_MAX_BELOW = ("R3", "P4-lollipop", "cycle", "C3(1,n-4)", "C3(2,n-5)", "CQ3")


def _verify_tree_ordering(params, budget, jobs) -> VerificationReport:
    (n,) = _require_params(params, "n")
    if n < 9:
        raise ParamOutOfRangeError("tree ordering is stated for n >= 9")
    report = VerificationReport("tree-ordering", {"n": n})
    graphs = [(label, build(NAMED_FAMILIES[label].spec(n))) for label in _TREE_CHAIN]
    w_vals = [wiener(g) for _, g in graphs]
    for i, ((label, g), w) in enumerate(zip(graphs, w_vals), start=1):
        report.extremal_witnesses.append(
            Witness(i, graph6_encode(g), float(w), labeled_copy_count(g))
        )
    # the one stated tie, exact through integer Wiener
    if w_vals[5] != w_vals[6]:
        report.fail(
            graph6_encode(graphs[5][1]),
            f"W={w_vals[5]} vs W={w_vals[6]}",
            "exact tie between T(n-4,1,1,1) and T(1,1;2,1)",
        )
    strict_links = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (6, 7)]
    for a, b in strict_links:
        if not w_vals[a] > w_vals[b]:
            report.fail(
                graph6_encode(graphs[b][1]),
                f"W({_TREE_CHAIN[a]})={w_vals[a]}, W({_TREE_CHAIN[b]})={w_vals[b]}",
                f"W({_TREE_CHAIN[a]}) > W({_TREE_CHAIN[b]}) strictly",
            )
    spec = enum.labeled_trees(n)
    size = cardinality(spec)
    partial = False
    if size > budget:
        partial = True
        report.checked_count = len(_TREE_CHAIN)
        report.notes.append(
            f"exhaustive saturation skipped: {size} trees exceed budget {budget}"
        )
    else:
        scan = enum.scan_labeled_trees(spec, jobs, budget)
        report.checked_count = scan.count
        if scan.count != size:
            report.fail("-", f"scanned {scan.count}", f"{size} labeled trees")
        # every tree at or above W(T(n-6,4,1)) must be one of the named shapes
        cutoff = w_vals[7]
        named_hist: dict[int, int] = {}
        seen: dict[str, int] = {}
        for (_, g), w in zip(graphs, w_vals):
            key = graph6_encode(g)
            if key in seen:
                continue
            seen[key] = w
            named_hist[w] = named_hist.get(w, 0) + labeled_copy_count(g)
        for w in range(cutoff, len(scan.hist)):
            observed = int(scan.hist[w])
            expected = named_hist.get(w, 0)
            if observed != expected:
                rank = scan.first_rank.get(w)
                g6 = graph6_encode(member(spec, rank)) if rank is not None else "-"
                report.fail(
                    g6,
                    f"{observed} trees at W={w}",
                    f"{expected} labeled copies of named shapes",
                )
        unnamed_max = 0
        for w in range(len(scan.hist) - 1, -1, -1):
            if int(scan.hist[w]) > named_hist.get(w, 0):
                unnamed_max = w
                break
        if unnamed_max >= cutoff:
            report.fail(
                "-",
                f"unnamed tree at W={unnamed_max}",
                f"all unnamed trees below W(T(n-6,4,1))={cutoff}",
            )
        else:
            report.notes.append(
                f"largest unnamed-tree Wiener value {unnamed_max} < cutoff {cutoff}"
            )
    return report.finalize(partial=partial)


def _witness_family_check(
    report: VerificationReport,
    rank: int,
    lead: float,
    member_ranks: np.ndarray,
    spec: EnumerationSpec,
    family: FamilySpec,
    label: str,
) -> None:
    """Shared witness adjudication: value, uniqueness count, and isomorphism."""
    expected = closed_form_kf(family)
    model = build(family)
    rep = member(spec, int(member_ranks[0]))
    if not _reproduces(lead, expected):
        report.fail(
            graph6_encode(rep),
            f"max Kf {format_real(lead)}",
            f"{label} Kf {format_exact(expected)}",
        )
    expected_count = labeled_copy_count(model)
    if member_ranks.size != expected_count:
        report.fail(
            graph6_encode(rep),
            f"{member_ranks.size} maximizers",
            f"{expected_count} labelings of {label} (uniqueness)",
        )
    if spec.n <= 9 and not is_isomorphic(rep, model):
        report.fail(graph6_encode(rep), "maximizer shape", f"isomorphic to {label}")
    report.extremal_witnesses.append(
        Witness(rank, graph6_encode(rep), lead, int(member_ranks.size))
    )


def _verify_unicyclic_max(params, budget, jobs) -> VerificationReport:
    (n,) = _require_params(params, "n")
    girths = params.get("girths", (3, 4, 5))
    if n < 5:
        raise ParamOutOfRangeError("unicyclic check needs n >= 5")
    if any(not 3 <= k <= n for k in girths):
        raise ParamOutOfRangeError(f"girths must lie in 3..{n}")
    if len(set(girths)) != len(girths):
        raise ParamOutOfRangeError(f"girths must be distinct, got {tuple(girths)}")
    report = VerificationReport("unicyclic-max", {"n": n, "girths": tuple(girths)})
    spec = enum.connected_with_edges(n, n)
    scan = enum.scan_subsets(spec, "max", 1, jobs, budget, classify=enum.batch_cycle_length)
    by_girth = scan.by_key
    report.checked_count = scan.checked
    report.notes.append(f"{scan.connected} connected graphs with n edges")
    global_best = max(float(s.vals.max()) for s in by_girth.values())
    if not tied(global_best, float(by_girth[3].vals.max())):
        report.fail("-", f"overall max {format_real(global_best)} not at cycle length 3",
                    "overall maximizer has cycle length 3")
    for rank_pos, k in enumerate(sorted(girths), start=1):
        if k not in by_girth:
            report.fail("-", f"no connected graphs with cycle length {k}", "nonempty class")
            continue
        groups = enum.value_groups(by_girth[k].vals, by_girth[k].ranks, "max", 1)
        lead, member_ranks = groups[0]
        _witness_family_check(
            report, rank_pos, lead, member_ranks, spec,
            FamilySpec("lollipop", (n, k)), f"lollipop({n},{k})",
        )
    return report.finalize()


def _verify_bicyclic_max(params, budget, jobs) -> VerificationReport:
    (n,) = _require_params(params, "n")
    if n < 8:
        raise ParamOutOfRangeError("bicyclic maximum is stated for n >= 8")
    report = VerificationReport("bicyclic-max", {"n": n})
    spec = enum.connected_with_edges(n, n + 1)
    scan = enum.scan_subsets(spec, "max", 1, jobs, budget)
    report.checked_count = scan.checked
    report.notes.append(f"{scan.connected} connected graphs with n+1 edges")
    groups = enum.value_groups(scan.vals, scan.ranks, "max", 1)
    lead, member_ranks = groups[0]
    _witness_family_check(
        report, 1, lead, member_ranks, spec,
        NAMED_FAMILIES["C33-dumbbell"].spec(n), f"dumbbell(3,3,{n - 5})",
    )
    return report.finalize()


def _checked_family_kf(report: VerificationReport, label: str, spec: FamilySpec) -> tuple[Graph, Fraction, float]:
    """A named family's graph, exact Kf (trees via integer Wiener) and ``kf_spectral``;
    a failure when the two values disagree."""
    g = build(spec)
    exact = closed_form_kf(spec)
    if exact is None:
        exact = Fraction(wiener(g))  # trees: Kf equals the Wiener index
    numeric = kf_spectral(g)
    if not _reproduces(numeric, exact):
        report.fail(
            graph6_encode(g),
            f"{label} numeric {format_real(numeric)}",
            f"closed form {format_exact(exact)}",
        )
    return g, exact, numeric


def _verify_max_ordering(params, budget, jobs) -> VerificationReport:
    (n,) = _require_params(params, "n")
    if n < 10:
        raise ParamOutOfRangeError("max-ordering chain needs n >= 10 (distinct families)")
    report = VerificationReport("max-ordering", {"n": n})
    values, labels = [], _MAX_CHAIN
    for rank, label in enumerate(labels, start=1):
        g, exact, _ = _checked_family_kf(report, label, NAMED_FAMILIES[label].spec(n))
        values.append(exact)
        report.extremal_witnesses.append(Witness(rank, graph6_encode(g), float(exact), 1))
    checked = len(labels)
    tie = (7, 8)
    if values[tie[0]] != values[tie[1]]:
        report.fail("-", f"{labels[tie[0]]}={format_exact(values[tie[0]])}, "
                         f"{labels[tie[1]]}={format_exact(values[tie[1]])}",
                    "stated exact tie")
    for a in range(9):
        b = a + 1
        checked += 1
        if (a, b) == tie:
            continue
        if not values[a] > values[b]:
            report.fail(
                "-",
                f"Kf({labels[a]})={format_exact(values[a])}, Kf({labels[b]})={format_exact(values[b])}",
                f"Kf({labels[a]}) > Kf({labels[b]}) strictly",
            )
    ceiling = values[-1]  # dumbbell(3,3,n-5)
    for label in _MAX_BELOW:
        g, exact, numeric = _checked_family_kf(report, label, NAMED_FAMILIES[label].spec(n))
        checked += 1
        if not exact < ceiling:
            report.fail(
                graph6_encode(g),
                f"Kf({label})={format_real(numeric)}",
                f"strictly below Kf(C33-dumbbell)={format_exact(ceiling)}",
            )
    report.checked_count = checked
    return report.finalize()


def random_connected_graph(rng: random.Random, n: int, m: int) -> Graph:
    """Uniform random labeled tree plus random extra edges; connected by build."""
    if m < n - 1 or m > n * (n - 1) // 2:
        raise ParamOutOfRangeError(f"no connected graph with n={n}, m={m}")
    if n == 1:
        return make_graph(1, [])
    seq = tuple(rng.randrange(n) for _ in range(n - 2))
    g = prufer_decode(seq, n)
    edges = set(g.edges)
    missing = [e for e in complete_edge_table(n) if e not in edges]
    rng.shuffle(missing)
    edges.update(missing[: m - (n - 1)])
    return make_graph(n, edges)


def _verify_edge_trim(params, budget, jobs) -> VerificationReport:
    (n, m) = _require_params(params, "n", "m")
    trials = params.get("trials", 20)
    seed = params.get("seed", 0)
    if m <= n + 1:
        raise ParamOutOfRangeError("edge trimming needs m > n+1")
    if trials < 1:
        raise ParamOutOfRangeError(f"edge trimming needs trials >= 1, got {trials}")
    if m > n * (n - 1) // 2:
        raise ParamOutOfRangeError(f"no graph with n={n}, m={m}")
    report = VerificationReport(
        "edge-trim", {"n": n, "m": m, "trials": trials, "seed": seed}
    )
    rng = random.Random(seed)
    checked = 0
    for _ in range(trials):
        g = random_connected_graph(rng, n, m)
        current = g
        kf = kf_spectral(current)
        for _ in range(m - (n + 1)):
            non_cut = [
                e
                for e in current.edges
                if is_connected(edit_edge(current, e, "remove"))
            ]
            edge = non_cut[rng.randrange(len(non_cut))]
            nxt = edit_edge(current, edge, "remove")
            nxt_kf = kf_spectral(nxt)
            checked += 1
            if not (nxt_kf > kf and not tied(nxt_kf, kf)):
                report.fail(
                    graph6_encode(current),
                    f"Kf {format_real(kf)} -> {format_real(nxt_kf)} removing {edge}",
                    "strict increase",
                )
            current, kf = nxt, nxt_kf
    report.checked_count = checked
    report.notes.append("each trial trims a random connected graph down to n+1 edges")
    return report.finalize()


# theorem id -> (verifier, the parameter names it takes)
_VERIFIERS = {
    "min-ordering": (_verify_min_ordering, ("n",)),
    "lower-bound": (_verify_lower_bound, ("n", "p")),
    "upper-bound": (_verify_upper_bound, ("n", "p")),
    "tree-count-bound": (_verify_tree_count_bound, ("n", "p")),
    "tree-ordering": (_verify_tree_ordering, ("n",)),
    "unicyclic-max": (_verify_unicyclic_max, ("n", "girths")),
    "bicyclic-max": (_verify_bicyclic_max, ("n",)),
    "max-ordering": (_verify_max_ordering, ("n",)),
    "edge-trim": (_verify_edge_trim, ("n", "m", "trials", "seed")),
}
THEOREM_IDS = tuple(_VERIFIERS)


def verify_theorem(
    theorem_id: str,
    params: dict,
    budget: int = DEFAULT_BUDGET,
    jobs: int = 1,
) -> VerificationReport:
    """Run one theorem verifier and return its report."""
    if theorem_id not in _VERIFIERS:
        raise ParamOutOfRangeError(
            f"unknown theorem id {theorem_id!r}; expected one of {', '.join(THEOREM_IDS)}"
        )
    if jobs < 1:
        raise ParamOutOfRangeError(f"jobs must be >= 1, got {jobs}")
    verifier, takes = _VERIFIERS[theorem_id]
    extra = sorted(set(params) - set(takes))
    if extra:
        raise ParamOutOfRangeError(
            f"{theorem_id} does not take parameter(s) {', '.join(extra)}; it takes {', '.join(takes)}"
        )
    start = time.perf_counter()
    report = verifier(params, budget, jobs)
    report.elapsed_seconds = time.perf_counter() - start
    return report
