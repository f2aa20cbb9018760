"""Deterministic graph family generators, and the small graphs one per
isomorphism class with its number of labelings.

Every random family is a pure function of its seed: draws come from a
splitmix64 stream, taken in one batch per graph, so identical specs
reproduce bit-identical graphs across runs and across ports. The canonical
string form ("cycle:n=8", "circular:n=10,d=3", "random:n=12,p=0.3,seed=42")
is what the CLI consumes.
"""

from __future__ import annotations

import math
import os
import sys
from array import array
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, compress, permutations, product
from typing import Callable, Sequence

from .errors import DomainTooLarge, InvalidFamily
from .graph import Graph, _adjacency, check_vertex_count

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


_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# step that lists the low 64-bit word of each 128-bit lane, lane 0 first, of
# an int written out in native byte order and read as array("Q")
_LOW_WORDS = 2 if sys.byteorder == "little" else -2


# bounded: a domain draws a few counts, but the public batch takes any count
@lru_cache(maxsize=64)
def _lane_constants(count: int) -> tuple[int, int, int]:
    """The ints holding 1, 2^64 - 1 and k * gamma in 128-bit lane k - 1,
    for k = 1..count."""
    lanes = array("Q", bytes(16 * count))
    lanes[::_LOW_WORDS] = array("Q", [1]) * count
    ones = int.from_bytes(lanes, sys.byteorder)
    lanes[::_LOW_WORDS] = array("Q", range(1, count + 1))
    return ones, ones * MASK64, int.from_bytes(lanes, sys.byteorder) * _GAMMA


def _low_words(lanes: int, count: int) -> array:
    return array("Q", lanes.to_bytes(16 * count, sys.byteorder))[::_LOW_WORDS]


class SplitMix64:
    """splitmix64 (Steele, Lea and Flood, OOPSLA 2014): the 64-bit PRNG
    behind every seeded family.

    The generator is counter-based: output k is mix(seed + k * gamma mod
    2^64). So a batch of draws is mixed at once in one int, draw k in
    128-bit lane k - 1, where a product with a 64-bit constant stays inside
    its lane. ``next_u64s(c)`` equals c calls of ``next_u64``.
    """

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * _MIX1) & MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & MASK64
        return z ^ (z >> 31)

    def next_u64s(self, count: int) -> list[int]:
        """The next ``count`` outputs of ``next_u64``, drawn in one batch."""
        return _low_words(self._next_lanes(count), count).tolist()

    def _next_lanes(self, count: int) -> int:
        """The next ``count`` outputs, output k in the low 64 bits of lane k - 1."""
        ones, low, steps = _lane_constants(count)
        z = (self._state * ones + steps) & low
        self._state = (self._state + count * _GAMMA) & MASK64
        z = (z ^ z >> 30 & low) * _MIX1 & low
        z = (z ^ z >> 27 & low) * _MIX2 & low
        return z ^ z >> 31 & low

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
        if k is FamilyKind.CYCLE and n < 3:
            raise InvalidFamily(f"cycle: requires n >= 3, got {n}")
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
            if key in params:
                raise InvalidFamily(f"{kind.value}: parameter {key!r} repeated")
            params[key] = raw.strip()
    return kind, params


def parse_family_range(text: str) -> list[FamilySpec]:
    """Parse a spec whose integer parameters may be 'a..b' ranges.

    Ranges expand as a cartesian product in canonical parameter order with
    the last parameter varying fastest. Combinations that violate the
    family's constraints are skipped; when none is left, the first one's
    InvalidFamily is raised. Raises DomainTooLarge, before any spec is
    built, when there are more than SWEEP_BUDGET combinations, valid or not.
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
    first_error = None
    for values in product(*(axes[name] for name in names)):
        try:
            specs.append(FamilySpec(kind=kind, **dict(zip(names, values))))
        except InvalidFamily as exc:
            first_error = first_error or exc
    if not specs:
        raise first_error
    return specs


# -- generators ---------------------------------------------------------------


def generate(spec: FamilySpec) -> Graph:
    """Build the graph a spec describes. A spec of more than MAX_CAPACITY
    vertices raises OutOfRange before anything is built or drawn."""
    # only star (no r) and star+matching leave n unset
    check_vertex_count(spec.n if spec.n is not None else spec.t + 1 + 2 * (spec.r or 0))
    return _GENERATORS[spec.kind](spec)


def _gen_path(spec: FamilySpec) -> Graph:
    return Graph(spec.n, [(i, i + 1) for i in range(spec.n - 1)])


def _gen_cycle(spec: FamilySpec) -> Graph:
    edges = [(i, i + 1) for i in range(spec.n - 1)] + [(spec.n - 1, 0)]
    return Graph(spec.n, edges)


def _gen_complete(spec: FamilySpec) -> Graph:
    return Graph(spec.n, combinations(range(spec.n), 2))


def _gen_star_plus_matching(spec: FamilySpec) -> Graph:
    # center is always vertex 0; a star is the case r = 0
    t, r = spec.t, spec.r or 0
    edges = [(0, i) for i in range(1, t + 1)]
    edges += [(t + 1 + 2 * i, t + 2 + 2 * i) for i in range(r)]
    return Graph(t + 1 + 2 * r, edges)


def _gen_circular_complete(spec: FamilySpec) -> Graph:
    # edge {i, j} iff d <= |i - j| <= n - d: N(i) is N(0) = {d, ..., n - d} rotated by i
    n, d = spec.n, spec.d
    full = (1 << n) - 1
    base = ((1 << (n - 2 * d + 1)) - 1) << d
    return Graph.from_masks([(base << i | base >> (n - i)) & full for i in range(n)])


def _bernoulli_graph(spec: FamilySpec, pairs: list[tuple[int, int]]) -> Graph:
    """The graph on spec.n vertices with each of ``pairs`` an edge with
    probability spec.p: the pairs in order take the seed's draws in turn,
    exactly as ``next_bernoulli`` would."""
    count, p = len(pairs), spec.p
    # z * den < num * 2^64 iff z < t iff (2^64 + t - 1) - z >= 2^64, read
    # off bit 64 of each lane; no lane borrows from the next, as z < 2^64
    t = -(-(p.numerator << 64) // p.denominator)
    ones = _lane_constants(count)[0]
    z = SplitMix64(spec.seed)._next_lanes(count)
    kept = (((1 << 64) + t - 1) * ones - z) >> 64 & ones
    return Graph(spec.n, compress(pairs, _low_words(kept, count)))


def _gen_random_graph(spec: FamilySpec) -> Graph:
    return _bernoulli_graph(spec, list(combinations(range(spec.n), 2)))


def _gen_random_bipartite(spec: FamilySpec) -> Graph:
    # side a = 0..ceil(n/2)-1, side b = the rest; one draw per cross pair
    split = (spec.n + 1) // 2
    return _bernoulli_graph(spec, list(product(range(split), range(split, spec.n))))


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
    seq = list(map(n.__rmod__, SplitMix64(spec.seed).next_u64s(n - 2)))
    return Graph(n, prufer_decode(seq, n))


_GENERATORS: dict[FamilyKind, Callable[[FamilySpec], Graph]] = {
    FamilyKind.PATH: _gen_path,
    FamilyKind.CYCLE: _gen_cycle,
    FamilyKind.COMPLETE: _gen_complete,
    FamilyKind.STAR: _gen_star_plus_matching,
    FamilyKind.STAR_PLUS_MATCHING: _gen_star_plus_matching,
    FamilyKind.CIRCULAR_COMPLETE: _gen_circular_complete,
    FamilyKind.RANDOM_GRAPH: _gen_random_graph,
    FamilyKind.RANDOM_TREE: _gen_random_tree,
    FamilyKind.RANDOM_BIPARTITE: _gen_random_bipartite,
}


# -- isomorphism classes ------------------------------------------------------


def _neighbour_lists(adj: Sequence[int]) -> list[list[int]]:
    return [[u for u in range(len(adj)) if a >> u & 1] for a in adj]


def _relabel(nbrs: list[list[int]], order: Sequence[int]) -> tuple[int, ...]:
    """Adjacency masks of the graph with neighbour lists ``nbrs``, relabelled
    so that new vertex i is old vertex ``order[i]``."""
    new_bit = [0] * len(order)
    for i, v in enumerate(order):
        new_bit[v] = 1 << i
    return tuple([sum([new_bit[u] for u in nbrs[v]]) for v in order])


# the class tables, one line per class in table order: g (graph) or t
# (tree), n, the edge mask in combinations(range(n), 2) bit order in hex, and
# the weight. tests/class_tables.py generates it
_CLASS_TABLE_PATH = os.path.join(os.path.dirname(__file__), "isomorphism_classes.txt")


def isomorphism_classes(
    n: int, trees: bool = False
) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One ``(adjacency masks, n!/|Aut|)`` entry per isomorphism class of
    graphs, or of trees, on n vertices. The weight is the number of labeled
    graphs in the class.

    The tables cover graphs on n <= 7 and trees on n <= 8; any other n
    raises DomainTooLarge. Each table is read from the package's data file
    on first use and kept for the life of the process.
    """
    return _class_table(bool(trees), n)


@lru_cache(maxsize=None)
def _class_table(trees: bool, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One level of the data file, decoded on its first request: the other
    levels are not decoded. Its weights must sum to 2^C(n,2), or to n^(n-2)
    for trees (Cayley)."""
    prefix, table = f"{'t' if trees else 'g'} {n} ", []
    pairs = list(combinations(range(n), 2))
    with open(_CLASS_TABLE_PATH, encoding="ascii") as lines:
        for line in lines:
            if not line.startswith(prefix):
                continue
            _, _, mask, weight = line.split()
            table.append((tuple(_adjacency(n, pairs, int(mask, 16))), int(weight)))
        if not table:
            lines.seek(0)
            top = max(int(line.split()[1]) for line in lines if line[0] == prefix[0])
            raise DomainTooLarge(
                f"isomorphism classes of {'trees' if trees else 'graphs'} "
                f"supported for 1 <= n <= {top}, got {n}"
            )
    total = sum(weight for _, weight in table)
    expected = n ** max(n - 2, 0) if trees else 1 << (n * (n - 1) // 2)
    if total != expected:
        raise RuntimeError(f"class weights on n={n} sum to {total}, expected {expected}")
    return tuple(table)


def labelings(adj: Sequence[int]) -> list[tuple[int, ...]]:
    """Every distinct labeling of the graph, as adjacency masks, in sorted
    order: n!/|Aut| of them."""
    nbrs = _neighbour_lists(adj)
    return sorted({_relabel(nbrs, order) for order in permutations(range(len(adj)))})
