"""Simple undirected graphs with bitmask adjacency.

Vertices are ``0..n-1`` and each adjacency set is a single int bitmask, which
keeps neighborhood unions, coverage tests, and the solver inner loops
branch-free. Graphs are immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import EdgeListFormatError, OutOfRange, RejectedEdge
from .vertexset import MAX_CAPACITY, VertexSet, members

# Diameter of a disconnected graph / girth of an acyclic one. A distinct
# non-integer value so that applicability gates can compare freely.
INFINITE = math.inf


def check_vertex_count(n: int) -> None:
    """Raise OutOfRange unless a graph on n vertices fits the packed word."""
    if not 1 <= n <= MAX_CAPACITY:
        raise OutOfRange(f"vertex count {n} outside 1..{MAX_CAPACITY}")


class Graph:
    """Immutable simple undirected graph on vertices ``0..n-1``.

    ``adj_masks[v]`` is the open neighborhood N(v) as a bitmask. Duplicate
    edges in the input collapse silently; self-loops and out-of-range
    endpoints are rejected.
    """

    __slots__ = ("n", "adj_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        check_vertex_count(n)
        adj = [0] * n
        for u, v in edges:
            if u == v:
                raise RejectedEdge(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise OutOfRange(f"edge ({u}, {v}) outside 0..{n - 1}")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj_masks = tuple(adj)

    @classmethod
    def from_masks(cls, adj: Sequence[int]) -> Graph:
        """The graph with rows ``adj``, unchecked but for their number n: the
        caller must supply symmetric, loop-free masks of n bits."""
        g = cls(len(adj))
        g.adj_masks = tuple(adj)
        return g

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @property
    def m(self) -> int:
        return sum(a.bit_count() for a in self.adj_masks) // 2

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj_masks[v].bit_count()

    def degrees(self) -> list[int]:
        return [a.bit_count() for a in self.adj_masks]

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return self.adj_masks[u] >> v & 1 == 1

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as (u, v) with u < v, in lexicographic order."""
        for u in range(self.n):
            for v in members(self.adj_masks[u] >> (u + 1) << (u + 1)):
                yield u, v

    def neighborhood(self, v: int) -> VertexSet:
        """Open neighborhood N(v)."""
        self._check_vertex(v)
        return VertexSet(self.n, self.adj_masks[v])

    def closed_neighborhood(self, v: int) -> VertexSet:
        """Closed neighborhood N(v) plus v itself."""
        self._check_vertex(v)
        return VertexSet(self.n, self.adj_masks[v] | (1 << v))

    def set_neighborhood(self, s: VertexSet) -> VertexSet:
        """Union of N(x) over the members of s."""
        if s.capacity != self.n:
            raise ValueError(f"set capacity {s.capacity} != vertex count {self.n}")
        out = 0
        for v in members(s.mask):
            out |= self.adj_masks[v]
        return VertexSet(self.n, out)

    def isolated_mask(self) -> int:
        mask = 0
        for v, a in enumerate(self.adj_masks):
            if a == 0:
                mask |= 1 << v
        return mask

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise OutOfRange(f"vertex {v} outside 0..{self.n - 1}")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self.n == other.n
            and self.adj_masks == other.adj_masks
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj_masks))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def new_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Build a graph from an edge list; alias for the Graph constructor."""
    return Graph(n, edges)


class StructuralProfile(NamedTuple):
    """Degree extremes and the structural facts gating each bound."""

    max_degree: int
    min_degree: int
    diameter: float  # int, or INFINITE when disconnected
    girth: float  # int >= 3, or INFINITE when acyclic
    is_connected: bool
    isolated: VertexSet
    bipartition: tuple[VertexSet, VertexSet] | None


# -- mask-level helpers (shared with bounds, families and verify) ------------


def _adjacency(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> list[int]:
    """The adjacency masks of the graph on n vertices whose edges are the
    ``pairs[t]`` with bit t of ``mask`` set: an edge mask decoded."""
    adj = [0] * n
    for t in members(mask):
        u, v = pairs[t]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def _walk(adj: Sequence[int], root: int, best: float, full: bool = True) -> tuple[int, int, float]:
    """Breadth-first walk from ``root``: (the vertices it reaches, the depth of
    its last layer, the shorter of ``best`` and the cycles it finds). With
    ``full`` false it stops once no cycle shorter than ``best`` can be found.

    Two events are read at depth d while 2d+1 < best: an edge inside layer d
    closes a cycle of length at most 2d+1, and a new vertex reached from two
    layer-d vertices closes one of length at most 2d+2 (each event closes a
    walk that uses one edge once, so the walk holds a cycle no longer than
    itself). From a root on a shortest cycle, BFS distances along that cycle
    equal the cycle distances, since a shortcut would close a shorter cycle;
    so that root's first event has exactly the girth, and the minimum over
    all roots is exact. After that the walk is a plain frontier loop, which
    ``two_coloring_masks`` runs inline too.
    """
    seen = frontier = 1 << root
    d = 0
    while frontier and 2 * d + 1 < best:
        nxt = twice = 0
        m = frontier
        while m:
            low = m & -m
            a = adj[low.bit_length() - 1]
            twice |= nxt & a  # also a neighbour of an earlier frontier vertex
            nxt |= a
            m ^= low
        if nxt & frontier:
            best = 2 * d + 1
        elif twice & ~seen:
            best = 2 * d + 2
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    while full and frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            nxt |= adj[low.bit_length() - 1]
            m ^= low
        frontier = nxt & ~seen
        seen |= frontier
        d += 1
    return seen, d - 1, best


def is_connected_masks(adj: Sequence[int], n: int) -> bool:
    return _walk(adj, 0, 0)[0] == (1 << n) - 1


def two_coloring_masks(adj: Sequence[int], n: int) -> tuple[int, int] | None:
    """2-coloring as (mask_a, mask_b), or None if an odd cycle exists.

    The lowest-indexed vertex of every component (isolated vertices included)
    lands in side a, which makes the partition deterministic. Sides alternate
    by BFS layer, and an edge inside a layer closes an odd cycle. The frontier
    loop of ``_walk`` runs inline here, so that the check reads the layer's
    neighbourhood as it is built and stops at the first such layer.
    """
    sides = [0, 0]
    remaining = (1 << n) - 1
    while remaining:
        seen = frontier = remaining & -remaining
        depth = 0
        while frontier:
            sides[depth & 1] |= frontier
            nxt = 0
            m = frontier
            while m:
                low = m & -m
                nxt |= adj[low.bit_length() - 1]
                m ^= low
            if nxt & frontier:
                return None
            frontier = nxt & ~seen
            seen |= frontier
            depth += 1
        remaining &= ~seen
    return sides[0], sides[1]


def girth_masks(adj: Sequence[int], n: int) -> float:
    """Length of a shortest cycle; INFINITE when acyclic."""
    best = INFINITE
    for root in range(n):
        best = _walk(adj, root, best, full=False)[2]
        if best == 3:
            return 3
    return best


def profile(g: Graph) -> StructuralProfile:
    """Compute the full structural profile of ``g``, with one walk per root:
    the walk from vertex 0 decides connectivity, and on a connected graph the
    deepest layer of all n walks is the diameter."""
    adj = g.adj_masks
    n = g.n
    degs = g.degrees()
    coloring = two_coloring_masks(adj, n)
    bipartition = None
    if coloring is not None:
        bipartition = (VertexSet(n, coloring[0]), VertexSet(n, coloring[1]))
    reach, diameter, girth = _walk(adj, 0, INFINITE)
    connected = reach == g.full_mask
    for root in range(1, n):
        _, depth, girth = _walk(adj, root, girth, connected)
        diameter = max(diameter, depth)
    return StructuralProfile(
        max_degree=max(degs),
        min_degree=min(degs),
        diameter=diameter if connected else INFINITE,
        girth=girth,
        is_connected=connected,
        isolated=VertexSet(n, g.isolated_mask()),
        bipartition=bipartition,
    )


# -- edge-list text format ----------------------------------------------------
#
# First non-comment line: "n m"; then m lines "u v" (0-based). Anything from
# '#' to end of line is ignored.


def parse_edge_list(text: str) -> Graph:
    """Parse the canonical on-disk edge-list format."""
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            a, b = map(int, line.split())
        except ValueError:
            raise EdgeListFormatError(
                f"line {line_no}: expected two integers, got {raw!r}", line_no
            ) from None
        if header is None:
            header = (a, b)
        else:
            edges.append((a, b))
    if header is None:
        raise EdgeListFormatError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise EdgeListFormatError(
            f"header declares {m} edges but {len(edges)} were given"
        )
    try:
        return Graph(n, edges)
    except (RejectedEdge, OutOfRange) as exc:
        raise EdgeListFormatError(str(exc)) from exc


def format_edge_list(g: Graph) -> str:
    """Serialize ``g`` in the canonical edge-list format (sorted edges)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def read_edge_list(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise EdgeListFormatError(f"{path}: {exc}") from exc
    return parse_edge_list(text)


def write_edge_list(g: Graph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
