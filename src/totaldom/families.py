"""Deterministic graph family generators and small-graph enumeration:
labeled, and one graph per isomorphism class with its number of labelings.

Every random family is a pure function of its seed: draws come from a
splitmix64 stream, so identical specs reproduce bit-identical graphs across
runs and across ports. The canonical string form ("cycle:n=8",
"circular:n=10,d=3", "random:n=12,p=0.3,seed=42") is what the CLI consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from typing import Callable, Iterator, Sequence

from .errors import DomainTooLarge, InvalidFamily
from .graph import Graph, is_connected_masks, two_coloring_masks

MASK64 = (1 << 64) - 1

ENUMERATION_MAX_N = 7

# most instances one sweep may run
SWEEP_BUDGET = 10_000


class FamilyKind(str, Enum):
    PATH = "path"
    CYCLE = "cycle"
    COMPLETE = "complete"
    STAR = "star"
    STAR_PLUS_MATCHING = "star+matching"
    CIRCULAR_COMPLETE = "circular"
    RANDOM_GRAPH = "random"
    RANDOM_TREE = "random-tree"
    RANDOM_BIPARTITE = "random-bipartite"


# canonical parameter order per kind, used for spec strings and sweeps
_PARAMS: dict[FamilyKind, tuple[str, ...]] = {
    FamilyKind.PATH: ("n",),
    FamilyKind.CYCLE: ("n",),
    FamilyKind.COMPLETE: ("n",),
    FamilyKind.STAR: ("t",),
    FamilyKind.STAR_PLUS_MATCHING: ("t", "r"),
    FamilyKind.CIRCULAR_COMPLETE: ("n", "d"),
    FamilyKind.RANDOM_GRAPH: ("n", "p", "seed"),
    FamilyKind.RANDOM_TREE: ("n", "seed"),
    FamilyKind.RANDOM_BIPARTITE: ("n", "p", "seed"),
}


class SplitMix64:
    """splitmix64: the 64-bit PRNG behind every seeded family."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        return self.next_u64() % bound

    def next_bernoulli(self, p: Fraction) -> bool:
        # exact integer comparison: true with probability p
        return self.next_u64() * p.denominator < p.numerator << 64


@dataclass(frozen=True)
class FamilySpec:
    """A graph family plus its parameters; the unit of CLI input and sweeps."""

    kind: FamilyKind
    n: int | None = None
    d: int | None = None
    t: int | None = None
    r: int | None = None
    p: Fraction | None = None
    seed: int | None = None

    def __post_init__(self):
        params = _PARAMS[self.kind]
        for name in ("n", "d", "t", "r", "p", "seed"):
            have = getattr(self, name) is not None
            if have != (name in params):
                raise InvalidFamily(
                    f"{self.kind.value}: parameter {name!r} "
                    + ("missing" if name in params else "not accepted")
                )
        k, n, d, t, r, p = self.kind, self.n, self.d, self.t, self.r, self.p
        if n is not None and n < 1:
            raise InvalidFamily(f"{k.value}: n must be >= 1")
        if k is FamilyKind.CIRCULAR_COMPLETE and (d < 1 or n < 2 * d):
            raise InvalidFamily(f"circular: requires d >= 1 and n >= 2d, got n={n}, d={d}")
        if k is FamilyKind.STAR and t < 1:
            raise InvalidFamily("star: requires t >= 1")
        if k is FamilyKind.STAR_PLUS_MATCHING and (t < 1 or r < 0):
            raise InvalidFamily(f"star+matching: requires t >= 1 and r >= 0, got t={t}, r={r}")
        if p is not None and not 0 <= p <= 1:
            raise InvalidFamily(f"{k.value}: p must be in [0, 1]")

    def __str__(self) -> str:
        parts = []
        for name in _PARAMS[self.kind]:
            value = getattr(self, name)
            parts.append(f"{name}={_format_fraction(value) if name == 'p' else value}")
        return f"{self.kind.value}:{','.join(parts)}"

    @classmethod
    def parse(cls, text: str) -> "FamilySpec":
        kind, raw = _parse_kind_params(text)
        return cls(kind=kind, **{k: _parse_value(k, v) for k, v in raw.items()})


def _format_fraction(p: Fraction) -> str:
    for digits in range(1, 7):
        scaled = p * 10**digits
        if scaled.denominator == 1:
            s = f"{p.numerator / p.denominator:.{digits}f}"
            return s
    return f"{p.numerator}/{p.denominator}"


def _parse_value(name: str, raw: str):
    if name == "p":
        try:
            return Fraction(raw)
        except (ValueError, ZeroDivisionError):
            raise InvalidFamily(f"cannot parse probability {raw!r}") from None
    try:
        return int(raw)
    except ValueError:
        raise InvalidFamily(f"cannot parse integer {name}={raw!r}") from None


def _parse_kind_params(text: str) -> tuple[FamilyKind, dict[str, str]]:
    """Split 'kind:key=value,...' into the kind and the raw value strings."""
    head, sep, tail = text.partition(":")
    try:
        kind = FamilyKind(head.strip())
    except ValueError:
        raise InvalidFamily(f"unknown family kind {head.strip()!r}") from None
    params: dict[str, str] = {}
    if sep and tail.strip():
        for item in tail.split(","):
            key, eq, raw = item.partition("=")
            key = key.strip()
            if not eq or key not in _PARAMS[kind]:
                raise InvalidFamily(
                    f"{kind.value}: unexpected parameter {item.strip()!r}"
                )
            params[key] = raw.strip()
    return kind, params


def parse_family_range(text: str) -> list[FamilySpec]:
    """Parse a spec whose integer parameters may be 'a..b' ranges.

    Ranges expand as a cartesian product in canonical parameter order with
    the last parameter varying fastest. Combinations that violate the
    family's constraints are skipped. Raises DomainTooLarge, before any spec
    is built, when there are more than SWEEP_BUDGET combinations, valid or
    not.
    """
    kind, raw = _parse_kind_params(text)
    axes: dict[str, Sequence] = {}
    for key, value in raw.items():
        if ".." in value and key != "p":
            lo_s, _, hi_s = value.partition("..")
            lo, hi = _parse_value(key, lo_s), _parse_value(key, hi_s)
            if hi < lo:
                raise InvalidFamily(f"empty range {value!r} for {key}")
            axes[key] = range(lo, hi + 1)
        else:
            axes[key] = (_parse_value(key, value),)
    missing = [name for name in _PARAMS[kind] if name not in axes]
    if missing:
        raise InvalidFamily(f"{kind.value}: parameter(s) {', '.join(missing)} missing")
    names = _PARAMS[kind]
    if math.prod(len(axes[name]) for name in names) > SWEEP_BUDGET:
        raise DomainTooLarge(
            f"family range {text!r} expands past the sweep budget of "
            f"{SWEEP_BUDGET} instances"
        )
    specs: list[FamilySpec] = []
    for values in product(*(axes[name] for name in names)):
        try:
            specs.append(FamilySpec(kind=kind, **dict(zip(names, values))))
        except InvalidFamily:
            pass
    return specs


# -- generators ---------------------------------------------------------------


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a spec describes."""
    return _GENERATORS[spec.kind](spec)


def _gen_path(spec: FamilySpec) -> Graph:
    return Graph(spec.n, [(i, i + 1) for i in range(spec.n - 1)])


def _gen_cycle(spec: FamilySpec) -> Graph:
    if spec.n < 3:
        raise InvalidFamily(f"cycle: requires n >= 3, got {spec.n}")
    edges = [(i, i + 1) for i in range(spec.n - 1)] + [(spec.n - 1, 0)]
    return Graph(spec.n, edges)


def _gen_complete(spec: FamilySpec) -> Graph:
    return Graph(spec.n, combinations(range(spec.n), 2))


def _gen_star(spec: FamilySpec) -> Graph:
    # center is always vertex 0
    return Graph(spec.t + 1, [(0, i) for i in range(1, spec.t + 1)])


def _gen_star_plus_matching(spec: FamilySpec) -> Graph:
    t, r = spec.t, spec.r
    edges = [(0, i) for i in range(1, t + 1)]
    edges += [(t + 1 + 2 * i, t + 2 + 2 * i) for i in range(r)]
    return Graph(t + 1 + 2 * r, edges)


def _gen_circular_complete(spec: FamilySpec) -> Graph:
    # edge {i, j} iff d <= |i - j| <= n - d: N(i) is N(0) = {d, ..., n - d} rotated by i
    n, d = spec.n, spec.d
    full = (1 << n) - 1
    base = ((1 << (n - 2 * d + 1)) - 1) << d
    return Graph.from_masks([(base << i | base >> (n - i)) & full for i in range(n)])


def _gen_random_graph(spec: FamilySpec) -> Graph:
    rng = SplitMix64(spec.seed)
    edges = [
        (u, v)
        for u, v in combinations(range(spec.n), 2)
        if rng.next_bernoulli(spec.p)
    ]
    return Graph(spec.n, edges)


def _gen_random_bipartite(spec: FamilySpec) -> Graph:
    # side a = 0..ceil(n/2)-1, side b = the rest; one draw per cross pair
    rng = SplitMix64(spec.seed)
    split = (spec.n + 1) // 2
    edges = [
        (a, b)
        for a in range(split)
        for b in range(split, spec.n)
        if rng.next_bernoulli(spec.p)
    ]
    return Graph(spec.n, edges)


def prufer_decode(seq: Sequence[int], n: int) -> list[tuple[int, int]]:
    """Edges of the labeled tree on n vertices encoded by ``seq``."""
    if n < 2:
        if seq:
            raise InvalidFamily("sequence must be empty for n < 2")
        return []
    if len(seq) != n - 2:
        raise InvalidFamily(f"sequence length {len(seq)} != n - 2 = {n - 2}")
    degree = [1] * n
    for x in seq:
        if not 0 <= x < n:
            raise InvalidFamily(f"sequence entry {x} outside 0..{n - 1}")
        degree[x] += 1
    edges: list[tuple[int, int]] = []
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf == -1:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    u = degree.index(1)
    w = degree.index(1, u + 1)
    edges.append((u, w))
    return edges


def _gen_random_tree(spec: FamilySpec) -> Graph:
    n = spec.n
    if n == 1:
        return Graph(1, [])
    rng = SplitMix64(spec.seed)
    seq = [rng.next_below(n) for _ in range(n - 2)]
    return Graph(n, prufer_decode(seq, n))


_GENERATORS: dict[FamilyKind, Callable[[FamilySpec], Graph]] = {
    FamilyKind.PATH: _gen_path,
    FamilyKind.CYCLE: _gen_cycle,
    FamilyKind.COMPLETE: _gen_complete,
    FamilyKind.STAR: _gen_star,
    FamilyKind.STAR_PLUS_MATCHING: _gen_star_plus_matching,
    FamilyKind.CIRCULAR_COMPLETE: _gen_circular_complete,
    FamilyKind.RANDOM_GRAPH: _gen_random_graph,
    FamilyKind.RANDOM_TREE: _gen_random_tree,
    FamilyKind.RANDOM_BIPARTITE: _gen_random_bipartite,
}


# -- exhaustive labeled enumeration -------------------------------------------


def vertex_pairs(n: int) -> list[tuple[int, int]]:
    """All vertex pairs (u, v), u < v, in lexicographic order.

    Bit k of an edge mask refers to pair k of this list.
    """
    return list(combinations(range(n), 2))


def adj_from_edge_mask(n: int, pairs: Sequence[tuple[int, int]], mask: int) -> list[int]:
    adj = [0] * n
    m = mask
    while m:
        low = m & -m
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        m ^= low
    return adj


def _filter_all(adj: list[int], n: int) -> bool:
    return True


def _filter_connected(adj: list[int], n: int) -> bool:
    return is_connected_masks(adj, n)


def _filter_bipartite(adj: list[int], n: int) -> bool:
    return two_coloring_masks(adj, n) is not None


def _filter_no_isolated(adj: list[int], n: int) -> bool:
    return 0 not in adj


GRAPH_FILTERS: dict[str, Callable[[list[int], int], bool]] = {
    "all": _filter_all,
    "connected": _filter_connected,
    "bipartite": _filter_bipartite,
    "no-isolated": _filter_no_isolated,
}


def _neighbour_lists(adj: Sequence[int]) -> list[list[int]]:
    return [[u for u in range(len(adj)) if a >> u & 1] for a in adj]


def _relabel(nbrs: list[list[int]], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the graph with neighbour lists ``nbrs``, relabelled
    so that new vertex i is old vertex ``order[i]``."""
    new_bit = [0] * len(order)
    for i, v in enumerate(order):
        new_bit[v] = 1 << i
    return tuple([sum([new_bit[u] for u in nbrs[v]]) for v in order])


def _refined_cells(nbrs: list[list[int]]) -> list[list[int]]:
    """The vertices grouped by colour refinement from the degrees, cells in
    colour order. A colour is the rank of (own colour, sorted neighbour
    colours) among the distinct such pairs, so cells and their order are
    isomorphism invariants."""
    n = len(nbrs)
    colour = [len(members) for members in nbrs]
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [rank[s] for s in sig]
        if len(rank) == len(set(colour)):
            break
        colour = refined
    cells: list[list[int]] = [[] for _ in rank]
    for v in range(n):
        cells[refined[v]].append(v)
    return cells


def _cell_orders(cells: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every vertex order that lists the cells in turn, each cell in any
    order; generated lazily (``itertools.product`` would hold every
    permutation of a cell at once: 5,040 for the leaves of an 8-vertex
    star)."""
    if not cells:
        yield ()
        return
    for head in permutations(cells[0]):
        for rest in _cell_orders(cells[1:]):
            yield head + rest


def _canonical_form(adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The canonical adjacency of the graph and the order of its
    automorphism group.

    The form is the least relabelling over the vertex orders that list the
    refined cells in turn. Isomorphic graphs have the same set of such
    relabellings, so the same least one; an automorphism preserves the
    cells, so the orders reaching the least form are one orbit of the
    automorphism group, and their number is |Aut|.
    """
    nbrs = _neighbour_lists(adj)
    best, hits = None, 0
    for order in _cell_orders(_refined_cells(nbrs)):
        form = _relabel(nbrs, order)
        if best is None or form < best:
            best, hits = form, 1
        elif form == best:
            hits += 1
    return best, hits


# vertex counts the class tables stop at: graphs as for labeled enumeration;
# trees one further (the canonical form tries (n-1)! orders on a star)
_CLASS_MAX_N = {False: ENUMERATION_MAX_N, True: ENUMERATION_MAX_N + 1}


def isomorphism_classes(
    n: int, trees: bool = False
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One ``(adjacency masks, n!/|Aut|)`` entry per isomorphism class of
    graphs, or of trees, on n vertices. The weight is the number of labeled
    graphs in the class.

    Level n grows level n - 1 by augmentation: a new vertex joined to every
    subset of the old ones, or for trees a new leaf, with duplicates decided
    by ``_canonical_form`` (McKay, J. Algorithms 26, 1998). Each level checks
    that its weights sum to 2^C(n,2), or to n^(n-2) for trees (Cayley), and
    raises otherwise. Tables are built on first use and kept for the life of
    the process.
    """
    if not 1 <= n <= _CLASS_MAX_N[trees]:
        raise DomainTooLarge(
            f"isomorphism classes of {'trees' if trees else 'graphs'} "
            f"supported for 1 <= n <= {_CLASS_MAX_N[trees]}, got {n}"
        )
    return _class_table(n, bool(trees))


@lru_cache(maxsize=None)
def _class_table(n: int, trees: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
    if n == 1:
        return (((0,), 1),)
    new = 1 << (n - 1)
    found: dict[tuple[int, ...], int] = {}
    for adj, _ in _class_table(n - 1, trees):
        joins = [1 << v for v in range(n - 1)] if trees else range(new)
        for s in joins:
            grown = [a | new if s >> v & 1 else a for v, a in enumerate(adj)]
            grown.append(s)
            form, aut = _canonical_form(grown)
            if form not in found:
                found[form] = math.factorial(n) // aut
    expected = n ** (n - 2) if trees else 1 << (n * (n - 1) // 2)
    if sum(found.values()) != expected:
        raise RuntimeError(
            f"class weights on n={n} sum to {sum(found.values())}, expected {expected}"
        )
    return tuple(found.items())


def labelings(adj: Sequence[int]) -> list[tuple[int, ...]]:
    """Every distinct labeling of the graph, as adjacency masks, in sorted
    order: n!/|Aut| of them."""
    nbrs = _neighbour_lists(adj)
    return sorted({_relabel(nbrs, order) for order in permutations(range(len(adj)))})


def enumerate_labeled_graphs(n: int, graph_filter: str = "all") -> Iterator[Graph]:
    """Every labeled simple graph on n vertices, in lexicographic edge-mask order.

    Enumeration is labeled, not isomorphism-reduced: 2^(n(n-1)/2) candidate
    masks, which caps n at 7.
    """
    if n > ENUMERATION_MAX_N:
        raise DomainTooLarge(
            f"labeled enumeration supports n <= {ENUMERATION_MAX_N}, got {n}"
        )
    if n < 1:
        raise DomainTooLarge(f"need n >= 1, got {n}")
    try:
        accept = GRAPH_FILTERS[graph_filter]
    except KeyError:
        raise ValueError(
            f"unknown filter {graph_filter!r}; expected one of {sorted(GRAPH_FILTERS)}"
        ) from None
    pairs = vertex_pairs(n)
    for mask in range(1 << len(pairs)):
        adj = adj_from_edge_mask(n, pairs, mask)
        if accept(adj, n):
            yield Graph.from_masks(adj)
