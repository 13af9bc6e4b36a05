"""Constructors and exact closed-form catalog for the named graph families.

Each family has a documented canonical labeling so that builds are
deterministic and graph6 output is reproducible:

* paths label 0..n-1 along the path; cycles 0..k-1 around the cycle;
* lollipop graphs place the cycle first, with the path appended at cycle
  vertex 0;
* starlike trees put the branch vertex at 0 and lay branches out in the
  given (non-increasing) length order;
* double-branch trees put the first branch vertex at 0, then its pendant
  paths, then the interior of the central path, the second branch vertex,
  and finally its pendant paths;
* complete-minus-pattern families delete the pattern from the lowest
  labels of K_n; the nine patterns of g1..g9 are ``GI_PATTERNS``.

``NAMED_FAMILIES`` is the one table of the families the paper names, by
report label, for the ordering verifiers and the ``table`` command.

The closed-form Kirchhoff catalog is a ground-truth table of exact
rationals.  Every entry follows from the cut-vertex decomposition
Kf(G) = Kf(G1) + Kf(G2) + (n1-1) Kf_x(G2) + (n2-1) Kf_x(G1) or from the
spectrum, and every entry is pinned against the numeric engine by the
regression tests; kinds without a catalogued form return None rather than
falling back to numerics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

from .graphs import Graph, complement, complete_edge_table, make_graph


class FamilyParameterError(ValueError):
    """Family parameters violate the kind's constraints."""


class NoClosedFormSpectrumError(ValueError):
    """The kind has no exact closed-form spectrum."""


# Edge patterns deleted from K_n for the g1..g9 family, on lowest labels.
GI_PATTERNS: dict[int, tuple[tuple[int, int], ...]] = {
    1: (),
    2: ((0, 1),),
    3: ((0, 1), (2, 3)),
    4: ((0, 1), (0, 2)),
    5: ((0, 1), (2, 3), (4, 5)),
    6: ((0, 1), (0, 2), (3, 4)),
    7: ((0, 1), (1, 2), (2, 3)),
    8: ((0, 1), (1, 2), (0, 2)),
    9: ((0, 1), (0, 2), (0, 3)),
}


@dataclass(frozen=True)
class FamilySpec:
    """Tagged description of a named parametric family.

    ``args`` holds the kind's parameters in order, with branch-length lists
    as tuples, e.g. ``FamilySpec("starlike", (10, (5, 3, 1)))``.
    """

    kind: str
    args: tuple

    def __str__(self) -> str:
        parts = []
        for a in self.args:
            if isinstance(a, tuple):
                parts.append("(" + ",".join(str(x) for x in a) + ")")
            else:
                parts.append(str(a))
        return f"{self.kind}:{','.join(parts)}"


def _fail(spec: FamilySpec, constraint: str) -> FamilyParameterError:
    return FamilyParameterError(f"{spec}: {constraint}")


def _ints(spec: FamilySpec, count: int) -> tuple[int, ...]:
    if len(spec.args) != count or not all(isinstance(a, int) for a in spec.args):
        raise _fail(spec, f"expected {count} integer parameter(s)")
    return spec.args


def _branches(spec: FamilySpec, value, name: str) -> tuple[int, ...]:
    if not isinstance(value, tuple) or not value or not all(
        isinstance(b, int) and b >= 1 for b in value
    ):
        raise _fail(spec, f"{name} must be a non-empty tuple of positive integers")
    if any(value[i] < value[i + 1] for i in range(len(value) - 1)):
        raise _fail(spec, f"{name} must be non-increasing")
    return value


# The kinds whose one parameter is n, with the smallest n each is defined at.
_MIN_N = {"path": 1, "cycle": 3, "complete": 1, "star": 2, "q3": 6, "r3": 7, "cq3": 7}

# Triangle-with-paths kinds, with how many triangle vertices carry a path.
_PATH_COUNT = {"tripath": 2, "tripath3": 3}

# Smallest n keeping K_n minus the pattern defined and connected (no vertex
# of K_n may lose all its incident edges).
_GI_MIN_N = {1: 2, 2: 3, 3: 4, 4: 4, 5: 6, 6: 5, 7: 4, 8: 4, 9: 5}


def validate(spec: FamilySpec) -> None:
    """Check the kind's parameter constraints; raise FamilyParameterError."""
    kind = spec.kind
    if kind in _MIN_N:
        (n,) = _ints(spec, 1)
        if n < _MIN_N[kind]:
            raise _fail(spec, f"{kind} needs n >= {_MIN_N[kind]}")
    elif kind == "starlike":
        if len(spec.args) != 2 or not isinstance(spec.args[0], int):
            raise _fail(spec, "expected (n, branch lengths)")
        n = spec.args[0]
        branches = _branches(spec, spec.args[1], "branch lengths")
        if len(branches) < 3:
            raise _fail(spec, "starlike tree needs at least 3 branches")
        if sum(branches) + 1 != n:
            raise _fail(spec, f"branch lengths must sum to n-1={n - 1}")
    elif kind == "doublebranch":
        if len(spec.args) != 3 or not isinstance(spec.args[0], int):
            raise _fail(spec, "expected (n, first tails, second tails)")
        n = spec.args[0]
        ps = _branches(spec, spec.args[1], "first tails")
        qs = _branches(spec, spec.args[2], "second tails")
        if len(ps) < 2 or len(qs) < 2:
            raise _fail(spec, "each branch vertex needs degree >= 3 (>= 2 tails)")
        if n - 2 - sum(ps) - sum(qs) < 1:
            raise _fail(spec, "central path needs at least one interior vertex")
    elif kind == "lollipop":
        n, k = _ints(spec, 2)
        if not 3 <= k <= n:
            raise _fail(spec, "lollipop needs 3 <= cycle length <= n")
    elif kind in _PATH_COUNT:
        count = _PATH_COUNT[kind]
        if len(spec.args) != 2 or not isinstance(spec.args[0], int):
            raise _fail(spec, f"expected (n, {count} path lengths)")
        n, ks = spec.args
        if not (isinstance(ks, tuple) and len(ks) == count and all(isinstance(k, int) and k >= 1 for k in ks)):
            raise _fail(spec, f"path lengths must be {count} positive integers")
        if 3 + sum(ks) != n:
            raise _fail(spec, f"path lengths must sum to n-3={n - 3}")
    elif kind == "dumbbell":
        p, q, l = _ints(spec, 3)
        if p < 3 or q < 3:
            raise _fail(spec, "dumbbell cycles need p, q >= 3")
        if l < 1:
            raise _fail(spec, "dumbbell linking path needs length >= 1")
    elif kind == "kn-minus-matching":
        n, p = _ints(spec, 2)
        if not 1 <= p <= n // 2:
            raise _fail(spec, "matching size must satisfy 1 <= p <= n/2")
    elif kind == "kn-minus-star":
        n, p = _ints(spec, 2)
        if not 1 <= p <= n - 2:
            raise _fail(spec, "star size must satisfy 1 <= p <= n-2 (connectivity)")
    elif kind == "gi":
        n, i = _ints(spec, 2)
        if not 1 <= i <= 9:
            raise _fail(spec, "index must be in 1..9")
        if n < _GI_MIN_N[i]:
            raise _fail(spec, f"g{i} needs n >= {_GI_MIN_N[i]}")
    else:
        raise _fail(spec, f"unknown family kind {kind!r}")


def _path_edges(vertices: list[int]) -> list[tuple[int, int]]:
    return [(vertices[i], vertices[i + 1]) for i in range(len(vertices) - 1)]


def _attach_path(edges: list[tuple[int, int]], at: int, length: int, start: int) -> int:
    """Append a pendant path of ``length`` edges at vertex ``at``; labels from ``start``."""
    prev = at
    for c in range(start, start + length):
        edges.append((prev, c))
        prev = c
    return start + length


def build(spec: FamilySpec) -> Graph:
    """Construct the family member under its canonical labeling."""
    validate(spec)
    kind = spec.kind
    if kind == "path":
        (n,) = spec.args
        return make_graph(n, _path_edges(list(range(n))))
    if kind == "cycle":
        (n,) = spec.args
        return make_graph(n, _path_edges(list(range(n))) + [(0, n - 1)])
    if kind == "complete":
        (n,) = spec.args
        return make_graph(n, complete_edge_table(n))
    if kind == "star":
        (n,) = spec.args
        return make_graph(n, [(0, v) for v in range(1, n)])
    if kind == "starlike":
        n, branches = spec.args
        edges: list[tuple[int, int]] = []
        nxt = 1
        for b in branches:
            nxt = _attach_path(edges, 0, b, nxt)
        return make_graph(n, edges)
    if kind == "doublebranch":
        n, ps, qs = spec.args
        edges = []
        nxt = 1
        for b in ps:
            nxt = _attach_path(edges, 0, b, nxt)
        interior = n - 2 - sum(ps) - sum(qs)
        nxt = _attach_path(edges, 0, interior + 1, nxt)
        v2 = nxt - 1
        for b in qs:
            nxt = _attach_path(edges, v2, b, nxt)
        return make_graph(n, edges)
    if kind == "lollipop":
        n, k = spec.args
        edges = _path_edges(list(range(k))) + [(0, k - 1)]
        _attach_path(edges, 0, n - k, k)
        return make_graph(n, edges)
    if kind in ("q3", "r3", "cq3"):
        (n,) = spec.args
        # one pendant n-1 more than the base on n-1 vertices: q3 hangs it at the
        # neighbor of the lollipop's pendant vertex n-2, r3 two steps from that
        # vertex, cq3 at q3's degree-2 cycle vertex 1 (vertex 2 is isomorphic)
        base = FamilySpec("q3", (n - 1,)) if kind == "cq3" else FamilySpec("lollipop", (n - 1, 3))
        at = {"q3": n - 3, "r3": n - 4, "cq3": 1}[kind]
        return make_graph(n, list(build(base).edges) + [(at, n - 1)])
    if kind in _PATH_COUNT:
        n, ks = spec.args
        edges = [(0, 1), (1, 2), (0, 2)]
        nxt = 3
        for at, k in enumerate(ks):
            nxt = _attach_path(edges, at, k, nxt)
        return make_graph(n, edges)
    if kind == "dumbbell":
        p, q, l = spec.args
        n = p + q + l - 1
        edges = _path_edges(list(range(p))) + [(0, p - 1)]
        edges += _path_edges(list(range(p, p + q))) + [(p, p + q - 1)]
        prev = 0
        for c in range(p + q, p + q + l - 1):
            edges.append((prev, c))
            prev = c
        edges.append((prev, p))
        return make_graph(n, edges)
    if kind == "kn-minus-matching":
        n, p = spec.args
        return complement(make_graph(n, [(2 * i, 2 * i + 1) for i in range(p)]))
    if kind == "kn-minus-star":
        n, p = spec.args
        return complement(make_graph(n, [(0, v) for v in range(1, p + 1)]))
    if kind == "gi":
        n, i = spec.args
        return complement(make_graph(n, GI_PATTERNS[i]))
    raise _fail(spec, f"unknown family kind {kind!r}")


def _kf_path(n: int) -> Fraction:
    return Fraction(n**3 - n, 6)


def _kf_cycle(n: int) -> Fraction:
    return Fraction(n**3 - n, 12)


def _kf_lollipop(n: int, l: int) -> Fraction:
    return (
        Fraction(n**3 - 2 * n, 6)
        + Fraction((1 + 2 * n) * l, 4)
        + Fraction(l**3, 4)
        - Fraction((3 + 2 * n) * l**2, 6)
    )


def _kf_kn_minus_matching(n: int, p: int) -> Fraction:
    return Fraction(n - 1) + Fraction(2 * p, n - 2)


def _kf_kn_minus_star(n: int, p: int) -> Fraction:
    return Fraction(n - p - 1) + Fraction(n * (p - 1), n - 1) + Fraction(n, n - p - 1)


def _cubic(n: int, linear: int, constant: int) -> Fraction:
    return Fraction(n**3 + linear * n + constant, 6)


# The triangle-with-pendants kinds, each with Kf = (n^3 + linear n + constant)/6.
_CUBICS = {"q3": (-17, 36), "r3": (-23, 66), "cq3": (-25, 68)}


def closed_form_kf(spec: FamilySpec) -> Fraction | None:
    """Exact Kirchhoff index from the catalog, or None when uncatalogued."""
    validate(spec)
    kind = spec.kind
    if kind == "path":
        return _kf_path(spec.args[0])
    if kind == "cycle":
        return _kf_cycle(spec.args[0])
    if kind == "complete":
        return Fraction(spec.args[0] - 1)
    if kind == "lollipop":
        return _kf_lollipop(*spec.args)
    if kind in _CUBICS:
        return _cubic(spec.args[0], *_CUBICS[kind])
    if kind == "starlike":
        n, branches = spec.args
        key = tuple(sorted(branches, reverse=True))
        for pattern, (lin, const) in (
            ((n - 4, 2, 1), (-13, 48)),
            ((n - 5, 3, 1), (-19, 90)),
            ((n - 6, 4, 1), (-25, 144)),
        ):
            if min(pattern) >= 1 and key == tuple(sorted(pattern, reverse=True)):
                return _cubic(n, lin, const)
        return None
    if kind == "doublebranch":
        n, ps, qs = spec.args
        tails = {tuple(sorted(ps)), tuple(sorted(qs))}
        if tails == {(1, 1), (1, 2)} and n - 2 - sum(ps) - sum(qs) >= 1:
            return _cubic(n, -19, 66)
        return None
    if kind == "tripath":
        n, ks = spec.args
        key = tuple(sorted(ks))
        if n - 4 >= 1 and key == tuple(sorted((1, n - 4))):
            return _cubic(n, -19, 50)
        if n - 5 >= 2 and key == tuple(sorted((2, n - 5))):
            return _cubic(n, -27, 98)
        return None
    if kind == "dumbbell":
        p, q, l = spec.args
        if p == 3 and q == 3:
            return _cubic(l + 5, -21, 36)
        return None
    if kind == "kn-minus-matching":
        return _kf_kn_minus_matching(*spec.args)
    if kind == "kn-minus-star":
        return _kf_kn_minus_star(*spec.args)
    if kind == "gi":
        n, i = spec.args
        if i == 1:
            return Fraction(n - 1)
        if i in (2, 3, 5):
            return _kf_kn_minus_matching(n, {2: 1, 3: 2, 5: 3}[i])
        if i in (4, 9):
            return _kf_kn_minus_star(n, {4: 2, 9: 3}[i])
        return None
    return None


def closed_form_spectrum(spec: FamilySpec) -> tuple[int, ...]:
    """Exact Laplacian eigenvalue multiset, sorted non-increasing.

    Available for the complete graph and the complete-minus-matching /
    complete-minus-star families only.
    """
    validate(spec)
    kind = spec.kind
    if kind == "complete":
        (n,) = spec.args
        return tuple([n] * (n - 1) + [0])
    if kind == "kn-minus-matching":
        n, p = spec.args
        return tuple([n] * (n - p - 1) + [n - 2] * p + [0])
    if kind == "kn-minus-star":
        n, p = spec.args
        return tuple(
            sorted([n] * (n - p - 1) + [n - 1] * (p - 1) + [n - p - 1], reverse=True) + [0]
        )
    raise NoClosedFormSpectrumError(f"{spec}: no closed-form spectrum for kind {kind!r}")


def parse_family(text: str) -> FamilySpec:
    """Parse the CLI family syntax, e.g. ``starlike:10,(5,3,1)`` or ``g7:12``.

    Parameters are comma separated; parenthesized groups become tuples.
    ``g1``..``g9`` are shorthand for the two-parameter ``gi`` kind.
    """
    text = text.strip()
    if ":" not in text:
        raise FamilyParameterError(f"family spec {text!r} needs 'kind:params'")
    kind, _, rest = text.partition(":")
    kind = kind.strip().lower()
    args: list = []
    token = ""
    depth = 0
    for ch in rest + ",":
        if ch == "," and depth == 0:
            token = token.strip()
            if not token:
                raise FamilyParameterError(f"family spec {text!r} has an empty parameter")
            if token.startswith("(") and token.endswith(")"):
                try:
                    args.append(tuple(int(x) for x in token[1:-1].split(",")))
                except ValueError:
                    raise FamilyParameterError(f"bad parameter list {token!r} in {text!r}")
            else:
                try:
                    args.append(int(token))
                except ValueError:
                    raise FamilyParameterError(f"bad integer {token!r} in {text!r}")
            token = ""
        else:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
                if depth < 0:
                    raise FamilyParameterError(f"unbalanced parentheses in {text!r}")
            token += ch
    if depth != 0:
        raise FamilyParameterError(f"unbalanced parentheses in {text!r}")
    if len(kind) == 2 and kind[0] == "g" and kind[1].isdigit():
        args.append(int(kind[1]))
        kind = "gi"
    spec = FamilySpec(kind, tuple(args))
    validate(spec)
    return spec


class NamedFamily(NamedTuple):
    table: str | None
    spec: Callable[[int], FamilySpec]


def _starlike(n: int, *branches: int) -> FamilySpec:
    return FamilySpec("starlike", (n, tuple(sorted(branches, reverse=True))))


# Every named family, by report label, with its ``table`` command name (None
# when the command does not sweep it) and its member at n.  The tree and
# max-ordering chains and the table command all read this one table.
NAMED_FAMILIES: dict[str, NamedFamily] = {
    "path": NamedFamily("path", lambda n: FamilySpec("path", (n,))),
    "T(n-3,1,1)": NamedFamily(None, lambda n: _starlike(n, n - 3, 1, 1)),
    "T(n-4,2,1)": NamedFamily("t421", lambda n: _starlike(n, n - 4, 2, 1)),
    "T(1,1;1,1)": NamedFamily(None, lambda n: FamilySpec("doublebranch", (n, (1, 1), (1, 1)))),
    "T(n-5,3,1)": NamedFamily("t531", lambda n: _starlike(n, n - 5, 3, 1)),
    "T(n-4,1,1,1)": NamedFamily(None, lambda n: _starlike(n, n - 4, 1, 1, 1)),
    "T(1,1;2,1)": NamedFamily("b1221", lambda n: FamilySpec("doublebranch", (n, (1, 1), (2, 1)))),
    "T(n-6,4,1)": NamedFamily("t641", lambda n: _starlike(n, n - 6, 4, 1)),
    "P3-lollipop": NamedFamily("p3", lambda n: FamilySpec("lollipop", (n, 3))),
    "Q3": NamedFamily("q3", lambda n: FamilySpec("q3", (n,))),
    "C33-dumbbell": NamedFamily("c33", lambda n: FamilySpec("dumbbell", (3, 3, n - 5))),
    "R3": NamedFamily("r3", lambda n: FamilySpec("r3", (n,))),
    "P4-lollipop": NamedFamily("p4", lambda n: FamilySpec("lollipop", (n, 4))),
    "P5-lollipop": NamedFamily("p5", lambda n: FamilySpec("lollipop", (n, 5))),
    "cycle": NamedFamily("cycle", lambda n: FamilySpec("cycle", (n,))),
    "complete": NamedFamily("complete", lambda n: FamilySpec("complete", (n,))),
    "C3(1,n-4)": NamedFamily("c31", lambda n: FamilySpec("tripath", (n, (1, n - 4)))),
    "C3(2,n-5)": NamedFamily("c32", lambda n: FamilySpec("tripath", (n, (2, n - 5)))),
    "CQ3": NamedFamily(None, lambda n: FamilySpec("cq3", (n,))),
}
