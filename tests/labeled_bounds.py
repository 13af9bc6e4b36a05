"""The labeled route the deleted-edge bound verdicts replaced, kept as their oracle.

Each verdict scans every row of ``deleted_edges(n, p)`` in blocks: one
endpoint gather, one eigensolve and one Bareiss count per distinct Gram
matrix of a block, floating Kf against the exact bounds to ``VALUE_TOL``,
and one failure line per failing row.  The verdict functions return the
report the verifier gave before its class route, with the same ``jobs``
behaviour, so the class route must reproduce their bytes.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

import deleted_route
import kirchhoff.enumeration as enum
from kirchhoff.enumeration import member
from kirchhoff.families import FamilySpec, build
from kirchhoff.graphs import graph6_encode
from kirchhoff.spectral import tree_count
from kirchhoff.verify import (
    VALUE_TOL,
    Counterexample,
    VerificationReport,
    Witness,
    _checked_family_kf,
    _reproduces,
    _upper_bounds,
    bound_eval,
    complement_shape,
    count_labeled_matchings,
    count_labeled_stars,
    format_exact,
    format_real,
)


@dataclass
class LabeledScan(enum.SubsetScan):
    """A block's or a scan's SubsetScan with its per-row failures, in rank order."""

    failures: list = field(default_factory=list)


def merge(parts):
    """The max-pool merge of the scan engine, failures concatenated in rank order."""
    pooled = enum.merge_subset_scans("max", 1, parts)
    return LabeledScan(**vars(pooled), failures=[f for p in parts for f in p.failures])


def failure(g, observed, expected):
    return Counterexample(graph6_encode(g), observed, expected)


def check_deleted_shape(report, spec, ranks, kind):
    """Fail each of the sorted ``ranks`` whose p deleted edges are not a p-matching
    (max deleted degree 1) or a p-star (max deleted degree p), as ``kind`` says."""
    n, p = spec.n, spec.count
    ends = enum.batch_ends(n, enum.unrank_rows(n * (n - 1) // 2, p, ranks))
    dmax = enum.batch_degrees(n, ends).max(axis=1)
    for rank in ranks[dmax != (1 if kind == "matching" else p)]:
        g = member(spec, int(rank))
        report.fail(graph6_encode(g), f"complement {complement_shape(g).kind}", f"{kind}({p})")


def deletion_block(spec, subs):
    """(row indices, Kf, spanning-tree count, max deleted degree) of a block's
    connected rows, from one eigensolve and determinant per Gram class."""
    n = spec.n
    idx = deleted_route.connected_rows(n, subs)
    ends = enum.batch_ends(n, subs[idx])
    classes = enum.gram_classes(n, subs[idx])
    eigs = deleted_route.deleted_eigenvalues(n, ends, classes)
    _, kf = enum.batch_kf(n, eigs)
    first, which = classes or (slice(None), slice(None))
    t = enum.batch_tree_counts(n, ends[first], eigs[first])[which]
    return idx, kf, t, enum.batch_degrees(n, ends).max(axis=1)


def distinct_pairs(n, delta, t):
    """The distinct (delta, t) pairs of a block, 0 <= delta < n, and each row's index among them."""
    t_vals, t_which = np.unique(t, return_inverse=True)
    keys, which = np.unique(t_which * n + delta, return_inverse=True)
    return [(k % n, int(t_vals[k // n])) for k in keys.tolist()], which


def upper_bound_kernel(spec, rank0, subs):
    n, p = spec.n, spec.count
    idx, kf, t, dmax = deletion_block(spec, subs)
    pairs, which = distinct_pairs(n, n - 1 - dmax, t)
    bounds = [_upper_bounds(n, p, delta, count) for delta, count in pairs]
    full = np.array([float(f) for f, _ in bounds])[which]
    loose = np.array([f > s for f, s in bounds], dtype=bool)[which]
    over = kf > full + VALUE_TOL * np.maximum(1.0, full)
    tight = _reproduces(kf, full)
    stars = dmax == p
    failures = []
    for i in np.flatnonzero(over | loose | (tight != stars)):
        g = enum.row_graph(spec, subs[idx[i]].tolist())
        exact_full, exact_simple = bounds[which[i]]
        if over[i]:
            failures.append(failure(g, f"Kf {format_real(kf[i])}", f"<= full bound {format_real(full[i])}"))
        if loose[i]:
            failures.append(failure(g, f"full {format_exact(exact_full)}", f"<= simple {format_exact(exact_simple)}"))
        if tight[i] != stars[i]:
            failures.append(failure(
                g,
                f"equality-with-bound={bool(tight[i])}, star-complement={bool(stars[i])}",
                "equality exactly on star complements",
            ))
    return LabeledScan(subs.shape[0], idx.size, kf, rank0 + idx, failures=failures)


def tree_count_kernel(spec, bound, rank0, subs):
    idx, _, t, dmax = deletion_block(spec, subs)
    stars = dmax == spec.count
    below, equal = t < bound, t == bound
    failures = []
    for i in np.flatnonzero(below | (equal != stars)):
        g = enum.row_graph(spec, subs[idx[i]].tolist())
        count = int(t[i])
        if below[i]:
            failures.append(failure(g, f"t={count}", f"t >= {bound}"))
        if equal[i] != stars[i]:
            failures.append(failure(
                g, f"t={count}, star-complement={bool(stars[i])}", f"t == {bound} exactly on star complements"
            ))
    ranks = rank0 + idx[equal]
    return LabeledScan(subs.shape[0], idx.size, np.full(ranks.size, float(bound)), ranks, failures=failures)


def lower_bound(n, p, jobs=1):
    """(report, minimizer ranks) of the labeled lower-bound verdict."""
    report = VerificationReport("lower-bound", {"n": n, "p": p})
    spec = enum.deleted_edges(n, p)
    bound = bound_eval(n, p).lower_kf
    scan = enum.scan_subsets(spec, "min", 1, jobs)
    report.checked_count = scan.checked
    lead, member_ranks = enum.value_groups(scan.vals, scan.ranks, "min", 1)[0]
    if not _reproduces(lead, bound):
        report.fail("-", f"min Kf {format_real(lead)}", f"bound {format_exact(bound)}")
    expected_count = count_labeled_matchings(n, p)
    if member_ranks.size != expected_count:
        report.fail("-", f"{member_ranks.size} minimizers", f"{expected_count} labeled {p}-matchings")
    check_deleted_shape(report, spec, member_ranks, "matching")
    rep = member(spec, int(member_ranks[0]))
    report.extremal_witnesses.append(Witness(1, graph6_encode(rep), lead, int(member_ranks.size)))
    report.notes.append(f"lower bound {format_exact(bound)} attained by every minimizer")
    if scan.connected != scan.checked:
        report.notes.append(f"skipped {scan.checked - scan.connected} disconnected graphs")
    return report.finalize(), member_ranks


def upper_bound(n, p, jobs=1):
    """(report, maximizer ranks) of the labeled upper-bound verdict."""
    report = VerificationReport("upper-bound", {"n": n, "p": p})
    spec = enum.deleted_edges(n, p)
    scan = enum.scan(spec, partial(deleted_route.on_rows, partial(upper_bound_kernel, spec)), merge, jobs)
    report.checked_count = scan.connected
    report.counterexamples.extend(scan.failures)
    star, star_kf, _ = _checked_family_kf(report, "star deletion", FamilySpec("kn-minus-star", (n, p)))
    sharp = bound_eval(n, p, star).upper_kf_full
    if sharp != star_kf:
        report.fail(
            graph6_encode(star), f"full bound {format_exact(sharp)}", f"Kf of star deletion {format_exact(star_kf)}"
        )
    max_kf = float(scan.vals.max())
    if not _reproduces(max_kf, star_kf):
        report.fail("-", f"max Kf {format_real(max_kf)}", f"Kf of star deletion {format_exact(star_kf)}")
    expected = count_labeled_stars(n, p)
    if scan.ranks.size != expected:
        report.fail("-", f"{scan.ranks.size} maximizers", f"{expected} labeled stars")
    check_deleted_shape(report, spec, np.sort(scan.ranks), "star")
    report.extremal_witnesses.append(Witness(1, graph6_encode(star), max_kf, int(scan.ranks.size)))
    report.notes.append(f"maximum {format_exact(star_kf)} attained exactly on star complements")
    return report.finalize(), np.sort(scan.ranks)


def tree_count_bound(n, p, jobs=1):
    """(report, equality-case ranks) of the labeled tree-count-bound verdict."""
    report = VerificationReport("tree-count-bound", {"n": n, "p": p})
    bound = bound_eval(n, p).tree_count_lower
    spec = enum.deleted_edges(n, p)
    scan = enum.scan(spec, partial(deleted_route.on_rows, partial(tree_count_kernel, spec, bound)), merge, jobs)
    report.checked_count = scan.connected
    report.counterexamples.extend(scan.failures)
    star = build(FamilySpec("kn-minus-star", (n, p)))
    star_t = tree_count(star)
    if star_t != bound:
        report.fail(graph6_encode(star), f"t={star_t}", f"t == {bound} at the star deletion")
    expected = count_labeled_stars(n, p)
    if scan.ranks.size != expected:
        report.fail("-", f"{scan.ranks.size} equality cases", f"{expected} labeled stars")
    report.notes.append(f"spanning-tree lower bound {bound}")
    return report.finalize(), np.sort(scan.ranks)


LABELED = {"lower-bound": lower_bound, "upper-bound": upper_bound, "tree-count-bound": tree_count_bound}

