"""Simple undirected graphs: construction, editing, traversal and codecs.

Graphs are immutable value objects (vertex count plus a sorted tuple of
normalized edges), so they can be shared freely across workers.  Vertices
are dense 0-based integers; formats that want anything else convert at the
codec boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple


class GraphError(ValueError):
    """Base class for graph construction and codec errors."""


class LoopEdgeError(GraphError):
    """An edge joins a vertex to itself."""


class VertexOutOfRangeError(GraphError):
    """An edge endpoint lies outside [0, n)."""


class EdgeAlreadyPresentError(GraphError):
    """Attempt to add an edge that is already in the graph."""


class EdgeAbsentError(GraphError):
    """Attempt to remove an edge that is not in the graph."""


class Graph6SizeError(GraphError):
    """Graph too large for the single-byte graph6 size form (n > 62)."""


class Graph6FormatError(GraphError):
    """Malformed graph6 text; carries the offending byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class EdgeListFormatError(GraphError):
    """Malformed edge-list text; carries the offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"{message} (line {line})")
        self.line = line


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 0..n-1 with a sorted edge tuple.

    Invariants (enforced by :func:`make_graph`): no loops, no duplicates,
    endpoints in range, every pair stored as (u, v) with u < v.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency_bits(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as integer bitmasks, built on demand."""
        bits = [0] * self.n
        for u, v in self.edges:
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        return tuple(bits)

    @cached_property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def degree(self, v: int) -> int:
        return self.adjacency_bits[v].bit_count()

    def neighbors(self, v: int) -> list[int]:
        bits = self.adjacency_bits[v]
        return [u for u in range(self.n) if bits >> u & 1]


class DistanceRow(NamedTuple):
    """BFS distances from one source; unreachable vertices hold ``None``."""

    source: int
    dist: tuple[int | None, ...]


class DegreeStats(NamedTuple):
    degrees: tuple[int, ...]
    max_degree: int
    min_degree: int
    connected: bool


def make_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a canonical Graph: endpoints validated, edges deduplicated, u < v."""
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    seen: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise LoopEdgeError(f"loop edge ({u},{v}) not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise VertexOutOfRangeError(f"edge ({u},{v}) outside vertex range [0,{n})")
        seen.add((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(seen)))


@lru_cache(maxsize=None)
def complete_edge_table(n: int) -> tuple[tuple[int, int], ...]:
    """Edges of K_n in the fixed enumeration order (by u, then v)."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g."""
    present = g.edge_set
    return Graph(g.n, tuple(e for e in complete_edge_table(g.n) if e not in present))


def edit_edge(g: Graph, pair: tuple[int, int], mode: str) -> Graph:
    """Return a new graph with one edge added or removed.

    ``mode`` is ``"add"`` (pair must be absent) or ``"remove"`` (pair must be
    present).
    """
    u, v = pair
    if u == v:
        raise LoopEdgeError(f"loop edge ({u},{v}) not allowed")
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise VertexOutOfRangeError(f"edge ({u},{v}) outside vertex range [0,{g.n})")
    if u > v:
        u, v = v, u
    if mode == "add":
        if (u, v) in g.edge_set:
            raise EdgeAlreadyPresentError(f"edge ({u},{v}) already present")
        return Graph(g.n, tuple(sorted(g.edges + ((u, v),))))
    if mode == "remove":
        if (u, v) not in g.edge_set:
            raise EdgeAbsentError(f"edge ({u},{v}) not present")
        return Graph(g.n, tuple(e for e in g.edges if e != (u, v)))
    raise GraphError(f"unknown edit mode {mode!r}, expected 'add' or 'remove'")


def combine(g1: Graph, g2: Graph, mode: str) -> Graph:
    """Disjoint union, or join (union plus all cross edges).

    The second graph's labels are shifted by ``g1.n``.
    """
    shifted = [(u + g1.n, v + g1.n) for u, v in g2.edges]
    edges = list(g1.edges) + shifted
    if mode == "join":
        edges += [(u, v) for u in range(g1.n) for v in range(g1.n, g1.n + g2.n)]
    elif mode != "union":
        raise GraphError(f"unknown combine mode {mode!r}, expected 'union' or 'join'")
    return make_graph(g1.n + g2.n, edges)


def merge_at(g1: Graph, x1: int, g2: Graph, x2: int) -> Graph:
    """Glue two graphs by identifying vertex ``x1`` of g1 with ``x2`` of g2.

    g1 keeps its labels; g2's remaining vertices follow in their own order.
    The merged vertex keeps the label ``x1``.
    """
    if not 0 <= x1 < g1.n:
        raise VertexOutOfRangeError(f"vertex {x1} outside [0,{g1.n})")
    if not 0 <= x2 < g2.n:
        raise VertexOutOfRangeError(f"vertex {x2} outside [0,{g2.n})")
    relabel = {}
    nxt = g1.n
    for v in range(g2.n):
        if v == x2:
            relabel[v] = x1
        else:
            relabel[v] = nxt
            nxt += 1
    edges = list(g1.edges) + [(relabel[u], relabel[v]) for u, v in g2.edges]
    return make_graph(g1.n + g2.n - 1, edges)


def _neighbours(bits: tuple[int, ...], frontier: int) -> int:
    """The union of the neighbour bitmasks ``bits[v]`` of the vertices v in ``frontier``."""
    nxt = 0
    while frontier:
        nxt |= bits[(frontier & -frontier).bit_length() - 1]
        frontier &= frontier - 1
    return nxt


def shortest_paths(g: Graph, source: int) -> DistanceRow:
    """Breadth-first distances from ``source``; None marks other components."""
    if not 0 <= source < g.n:
        raise VertexOutOfRangeError(f"source {source} outside [0,{g.n})")
    bits = g.adjacency_bits
    dist: list[int | None] = [None] * g.n
    dist[source] = 0
    frontier = 1 << source
    seen = frontier
    d = 0
    while frontier:
        d += 1
        frontier = _neighbours(bits, frontier) & ~seen
        seen |= frontier
        f = frontier
        while f:
            v = (f & -f).bit_length() - 1
            f &= f - 1
            dist[v] = d
    return DistanceRow(source, tuple(dist))


def degree_stats(g: Graph) -> DegreeStats:
    """Degree sequence, max/min degree (0 without vertices), and connectivity."""
    degrees = tuple(b.bit_count() for b in g.adjacency_bits)
    return DegreeStats(
        degrees, max(degrees, default=0), min(degrees, default=0), connected_components(g) <= 1
    )


def is_connected(g: Graph) -> bool:
    """At most one connected component (the empty graph counts as connected)."""
    return connected_components(g) <= 1


def connected_components(g: Graph) -> int:
    """Number of connected components."""
    remaining = (1 << g.n) - 1
    bits = g.adjacency_bits
    count = 0
    while remaining:
        start = (remaining & -remaining).bit_length() - 1
        comp = 1 << start
        frontier = comp
        while frontier:
            frontier = _neighbours(bits, frontier) & ~comp
            comp |= frontier
        remaining &= ~comp
        count += 1
    return count


# graph6 codec (header-less, single size byte, n <= 62).
#
# Layout: byte n+63, then the upper-triangle bits in column order
# x(0,1), x(0,2), x(1,2), x(0,3), ... packed into 6-bit groups, most
# significant bit first, zero padded, each group offset by 63.

_G6_MIN, _G6_MAX = 63, 126


def graph6_encode(g: Graph) -> str:
    if g.n > 62:
        raise Graph6SizeError(f"graph6 single-byte form requires n <= 62, got {g.n}")
    present = g.edge_set
    bits = []
    for j in range(1, g.n):
        for i in range(j):
            bits.append(1 if (i, j) in present else 0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        group = bits[k : k + 6]
        group += [0] * (6 - len(group))
        value = 0
        for b in group:
            value = (value << 1) | b
        out.append(chr(value + 63))
    return "".join(out)


def graph6_decode(text: str) -> Graph:
    """Inverse of :func:`graph6_encode`; strict about range, length and padding."""
    if not text:
        raise Graph6FormatError("empty graph6 string", 0)
    for off, char in enumerate(text):
        if not _G6_MIN <= ord(char) <= _G6_MAX:
            raise Graph6FormatError(f"character {char!r} outside graph6 range [63,126]", off)
    raw = text.encode("ascii")
    n = raw[0] - 63
    if n > 62:
        raise Graph6FormatError(f"size byte encodes n={n} > 62", 0)
    nbits = n * (n - 1) // 2
    ngroups = (nbits + 5) // 6
    if len(raw) - 1 != ngroups:
        raise Graph6FormatError(
            f"expected {ngroups} data bytes for n={n}, got {len(raw) - 1}", len(raw)
        )
    bits = []
    for byte in raw[1:]:
        value = byte - 63
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    for off, b in enumerate(bits[nbits:]):
        if b:
            raise Graph6FormatError("nonzero padding bit", 1 + (nbits + off) // 6)
    edges = []
    k = 0
    for j in range(1, n):
        for i in range(j):
            if bits[k]:
                edges.append((i, j))
            k += 1
    return Graph(n, tuple(sorted(edges)))


def format_edge_list(g: Graph) -> str:
    """Edge-list text: first line ``n m``, then one ``u v`` line per edge."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> Graph:
    """Parse edge-list text; ``#`` starts a comment, blank lines are skipped."""
    rows = []
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise EdgeListFormatError("missing 'n m' header line", 1)
    lineno, header = rows[0]
    parts = header.split()
    if len(parts) != 2:
        raise EdgeListFormatError(f"header must be 'n m', got {header!r}", lineno)
    try:
        n, m = int(parts[0]), int(parts[1])
    except ValueError:
        raise EdgeListFormatError(f"header must be two integers, got {header!r}", lineno)
    if len(rows) - 1 != m:
        raise EdgeListFormatError(
            f"header declares {m} edges but {len(rows) - 1} edge lines found", lineno
        )
    edges = []
    for lineno, line in rows[1:]:
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListFormatError(f"edge line must be 'u v', got {line!r}", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise EdgeListFormatError(f"edge line must be two integers, got {line!r}", lineno)
        edges.append((u, v))
    try:
        return make_graph(n, edges)
    except GraphError as exc:
        raise EdgeListFormatError(str(exc), rows[0][0]) from exc
