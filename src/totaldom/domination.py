"""Exact minimum dominating-set and total-dominating-set solvers.

Both problems reduce to minimum cover by neighborhoods: a set S dominates
when the closed neighborhoods of its members cover V, and totally dominates
when the open neighborhoods do. ``gamma`` and ``gamma_t`` hand their covers
and a lower bound to one solve body, ``_min_cover``, which owns the
strategy, the limits and the counters; a solve with no node or time limit
never raises ``ResourceExhausted``. The two strategies are

* exhaustive: subsets in (cardinality, lexicographic) order, so the first
  hit is minimum and the reported witness is canonical, and
* branch and bound, seeded with a greedy incumbent. A candidate is live
  when it is neither chosen nor banned: once the branch that picks u has
  returned, its later siblings ban u, since every cover holding u was
  searched there. An uncovered vertex with no live candidate ends the
  branch, and one with a single live candidate forces it. The search
  branches on the uncovered vertex with the fewest live candidates (lowest
  index on ties), over those candidates by decreasing gain, and prunes
  where |S| + lower bound reaches the incumbent, with three lower bounds:
  one more pick while anything is uncovered; the packing bound, a greedy
  set of uncovered vertices with pairwise disjoint live candidate sets,
  each of which needs its own pick (for gamma_t, the open-packing bound
  rho_o(G) <= gamma_t(G)); and the counting bound, ceil(uncovered / the
  largest number of uncovered vertices one live candidate covers), applied
  per child. A child's live and uncovered sets are subsets of its parent's,
  so no candidate of the child gains more than that largest gain g of its
  parent: the parent cuts the child that picks u once |S| + 1 +
  ceil((uncovered - gain(u)) / g) reaches the incumbent, before recursing
  into it, and since the bound only grows along the decreasing gains, that
  cut ends the parent's loop. A node needs no counting check of its own:
  its first child gains at most g, so the node's bound implies that child's
  cut. When at most two picks can still beat the incumbent, one walk
  finishes the node exactly instead of scanning and branching. Some pick
  covers the lowest uncovered vertex r, and u covers v iff v covers u, so
  that pick is a live candidate of r: the walk takes these candidates a in
  ascending order and returns the first a that covers everything alone,
  or else, with two picks left, the first a whose rest is covered by a
  live common neighbour, found by intersecting masks; a rest larger than
  the parent's largest gain g fits no single pick. A node takes the gains
  of all vertices in one comprehension over the covers, with the banned
  ones set to 0, and reads the covers of its uncovered vertices through
  ``itertools.compress``, so that neither walks a mask bit by bit. None of
  these cuts drops a strictly better cover, so values are exact; a witness
  is canonical only under the exhaustive strategy.

A solve is pure: same graph and config, same result, bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, compress
from typing import NamedTuple, Sequence

from .errors import ResourceExhausted
from .graph import Graph
from .vertexset import VertexSet


class Strategy(str, Enum):
    EXHAUSTIVE = "exhaustive"
    BRANCH_AND_BOUND = "bnb"


@dataclass(frozen=True)
class SolverConfig:
    strategy: Strategy = Strategy.BRANCH_AND_BOUND
    node_limit: int | None = None
    time_limit: float | None = None  # seconds

    def __post_init__(self):
        if self.node_limit is not None and self.node_limit <= 0:
            raise ValueError("node_limit must be positive")
        if self.time_limit is not None and not self.time_limit > 0:
            raise ValueError("time_limit must be positive")


class SolverStats(NamedTuple):
    """Work done by one solve. The exhaustive strategy counts only subsets;
    branch and bound counts nodes, forced picks, its prunes by reason and
    the times it improved on its incumbent. Once at most two more picks
    could beat the incumbent, a ``branch_node`` is finished exactly by one
    walk, without the rest of its scan and without recursing: a finish that
    finds no cover counts once as ``prunes_counting``, and the dead vertex,
    packing or forced pick that the scan might have met is not tallied under
    ``prunes_dead``, ``prunes_packing`` or ``forced_picks``. The counting
    bound is applied per child: a child that its parent cuts by it counts
    once as ``prunes_counting`` (for it and its later siblings) and is not a
    ``branch_node``; a node whose own counting bound holds has its first
    child cut so."""

    subsets_examined: int = 0
    branch_nodes: int = 0
    forced_picks: int = 0
    prunes_dead: int = 0
    prunes_incumbent: int = 0
    prunes_packing: int = 0
    prunes_counting: int = 0
    incumbent_updates: int = 0
    elapsed_seconds: float = 0.0


class DominationResult(NamedTuple):
    value: int
    witness: VertexSet
    stats: SolverStats


DEFAULT_CONFIG = SolverConfig()


# -- predicates ----------------------------------------------------------------


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex is in s or adjacent to a member of s."""
    return (s.mask | g.set_neighborhood(s).mask) == g.full_mask


def is_total_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex (members of s included) has a neighbor in s."""
    return g.set_neighborhood(s).mask == g.full_mask


# -- cover-search core ---------------------------------------------------------


def _exhaustive_min_cover(
    cover: Sequence[int],
    n: int,
    node_limit: int | None,
    deadline: float | None,
) -> tuple[int, int, int]:
    """Minimum k and lexicographically least k-subset whose covers union to V.

    Returns (value, witness_mask, subsets_examined). Requires a cover to
    exist (the n-subset must work).
    """
    full = (1 << n) - 1
    examined = 0
    for k in range(1, n + 1):
        for subset in combinations(range(n), k):
            examined += 1
            if node_limit is not None and examined > node_limit:
                raise ResourceExhausted(f"subset limit {node_limit} exceeded")
            if deadline is not None and examined % 4096 == 0:
                if time.perf_counter() > deadline:
                    raise ResourceExhausted("time limit exceeded")
            u = 0
            for v in subset:
                u |= cover[v]
            if u == full:
                mask = 0
                for v in subset:
                    mask |= 1 << v
                return k, mask, examined
    raise AssertionError("no cover exists; caller must pre-check coverability")


def _greedy_cover(cover: Sequence[int], n: int) -> int:
    """Greedy cover mask: repeatedly take the lowest-indexed vertex covering
    the most still-uncovered vertices."""
    full = (1 << n) - 1
    chosen = 0
    covered = 0
    while covered != full:
        best_v = -1
        best_gain = 0
        for v in range(n):
            if chosen >> v & 1:
                continue
            gain = (cover[v] & ~covered).bit_count()
            if gain > best_gain:
                best_gain = gain
                best_v = v
        if best_v < 0:
            raise AssertionError("uncoverable vertex; caller must pre-check")
        chosen |= 1 << best_v
        covered |= cover[best_v]
    return chosen


_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


def _bit_flags(mask: int) -> bytes:
    """One byte per bit of ``mask`` from bit 0 up to its highest set bit, 1
    where the bit is set and 0 where not: ``compress(cover, _bit_flags(m))``
    yields the covers of the members of m in ascending order, at C speed."""
    return bin(mask)[:1:-1].encode().translate(_BIT_BYTES)


def _two_picks(cover: Sequence[int], unc: int, live: int, cap: int) -> int:
    """One or two picks of ``live`` that cover the non-empty ``unc``: the
    lowest single pick if there is one, otherwise the first pair found, or 0
    when no one or two picks do, given that no live vertex covers more than
    ``cap`` of ``unc``. One pick a covers the lowest vertex r of ``unc``;
    the other covers the rest, so it is a live common neighbour of that
    rest, which it cannot be when the rest is larger than ``cap``. With
    symmetric covers, the live common neighbours of a set are ``live`` and
    the covers of its members intersected. With ``cap`` 0 only a single
    pick is sought: the lowest live vertex covering ``unc``, or 0."""
    low = unc & -unc
    m = cover[low.bit_length() - 1] & live
    pair = 0
    while m:
        a = m & -m
        m ^= a
        rest = unc & ~cover[a.bit_length() - 1]
        if not rest:
            return a
        if not pair and rest.bit_count() <= cap:
            common = live
            while rest and common:
                r = rest & -rest
                common &= cover[r.bit_length() - 1]
                rest ^= r
            if common:
                pair = a | (common & -common)
    return pair


def _bnb_min_cover(
    cover: Sequence[int],
    n: int,
    seed_mask: int,
    lower_bound: int,
    node_limit: int | None,
    deadline: float | None,
) -> tuple[int, int, dict[str, int]]:
    """Branch-and-bound minimum cover.

    Returns (value, witness_mask, counters), the counters named as the
    ``SolverStats`` fields they fill. ``seed_mask`` must be a valid cover
    (the incumbent); ``lower_bound`` a proven global lower bound, used only
    for an early exit. Covers must be symmetric (u in ``cover[v]`` iff v in
    ``cover[u]``), as closed and open neighbourhoods are: the exact finish
    of the last picks takes the vertices covering a set R to be the
    intersection of the covers of R's members.
    """
    full = (1 << n) - 1
    best_mask = seed_mask
    best_value = seed_mask.bit_count()
    nodes = forced_picks = dead = incumbent = packing = counting = updates = 0
    if best_value <= lower_bound:
        return best_value, best_mask, {}

    def recurse(chosen: int, covered: int, size: int, banned: int, cap: int) -> None:
        nonlocal best_mask, best_value, nodes, forced_picks
        nonlocal dead, incumbent, packing, counting, updates
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise ResourceExhausted(f"node limit {node_limit} exceeded")
        if deadline is not None and nodes % 256 == 0:
            if time.perf_counter() > deadline:
                raise ResourceExhausted("time limit exceeded")

        live = full & ~(chosen | banned)
        # one scan of the uncovered vertices over their live candidates
        # (neither chosen nor banned): a vertex with none is dead, one with
        # a single candidate forces it, and the rest give the branching
        # vertex and a packing of disjoint candidate sets
        while True:
            if covered == full:
                if size < best_value:
                    best_value = size
                    best_mask = chosen
                    updates += 1
                return
            if size + 1 >= best_value:
                incumbent += 1
                return
            unc = full & ~covered
            if size + 3 >= best_value:
                # one or two picks left: finish exactly, without the scan;
                # with one left, cap 0 lets the walk seek no pair
                picks = _two_picks(cover, unc, live, cap if size + 3 == best_value else 0)
                if picks:
                    best_value = size + picks.bit_count()
                    best_mask = chosen | picks
                    updates += 1
                else:
                    counting += 1
                return
            forced = -1
            fewest = n + 1
            used = packed = 0
            for c in compress(cover, _bit_flags(unc)):
                cands = c & live
                if cands == 0:
                    dead += 1
                    return
                if cands & (cands - 1) == 0:
                    forced = cands.bit_length() - 1
                    break
                if not cands & used:
                    used |= cands
                    packed += 1
                k = cands.bit_count()
                if k < fewest:
                    fewest = k
                    branch = cands
            if forced < 0:
                break
            forced_picks += 1
            chosen |= 1 << forced
            live ^= 1 << forced
            covered |= cover[forced]
            size += 1
        if size + packed >= best_value:
            packing += 1
            return

        # the gains of all vertices at once. A chosen vertex gains 0, since
        # ``covered`` holds its cover; a banned one may not, so it is zeroed,
        # and max_gain is then the largest gain of a live vertex, as the
        # counting cut below needs
        gains = [(c & unc).bit_count() for c in cover]
        m = banned
        while m:
            low = m & -m
            gains[low.bit_length() - 1] = 0
            m ^= low
        max_gain = max(gains)
        order = []
        m = branch
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            order.append((-gains[u], u))

        # every cover holding u was searched in u's branch, so the later
        # siblings leave u out. No candidate of a child gains more than
        # max_gain, so the counting bound of a child is known here; it only
        # grows along the order, so the first child it cuts ends the loop.
        # The first child's cut implies this node's own counting bound
        order.sort()
        left = unc.bit_count()
        for neg_gain, u in order:
            if size + 1 >= best_value:
                break
            if size + 1 + -(-(left + neg_gain) // max_gain) >= best_value:
                counting += 1
                break
            recurse(chosen | (1 << u), covered | cover[u], size + 1, banned, max_gain)
            banned |= 1 << u

    recurse(0, 0, 0, 0, n)
    return best_value, best_mask, {
        "branch_nodes": nodes,
        "forced_picks": forced_picks,
        "prunes_dead": dead,
        "prunes_incumbent": incumbent,
        "prunes_packing": packing,
        "prunes_counting": counting,
        "incumbent_updates": updates,
    }


def _min_cover(
    g: Graph, cover: Sequence[int], lower_bound: int, config: SolverConfig | None
) -> DominationResult:
    """A minimum set of vertices whose ``cover`` masks (coverable and
    symmetric) union to V, given a proven ``lower_bound`` on its size."""
    config = config or DEFAULT_CONFIG
    t0 = time.perf_counter()
    deadline = None if config.time_limit is None else t0 + config.time_limit
    if config.strategy is Strategy.EXHAUSTIVE:
        value, mask, examined = _exhaustive_min_cover(
            cover, g.n, config.node_limit, deadline
        )
        counters = {"subsets_examined": examined}
    else:
        seed = _greedy_cover(cover, g.n)
        value, mask, counters = _bnb_min_cover(
            cover, g.n, seed, lower_bound, config.node_limit, deadline
        )
    stats = SolverStats(**counters, elapsed_seconds=time.perf_counter() - t0)
    return DominationResult(value, VertexSet(g.n, mask), stats)


# -- public solvers ------------------------------------------------------------


def gamma(g: Graph, config: SolverConfig | None = None) -> DominationResult:
    """Exact domination number with an optimal witness (canonical under the
    exhaustive strategy)."""
    closed = [a | (1 << v) for v, a in enumerate(g.adj_masks)]
    return _min_cover(g, closed, -(-g.n // (max(g.degrees()) + 1)), config)


def gamma_t(g: Graph, config: SolverConfig | None = None) -> DominationResult | None:
    """Exact total domination number, or None if an isolated vertex makes it
    undefined."""
    if g.isolated_mask():
        return None
    # without isolated vertices Delta <= n - 1 < n, so ceil(n / Delta) >= 2
    return _min_cover(g, g.adj_masks, -(-g.n // max(g.degrees())), config)


def greedy_total_dominating(g: Graph) -> VertexSet | None:
    """Valid (not necessarily minimum) total dominating set, greedily built.

    None when an isolated vertex exists. Takes the vertex with most
    uncovered open-neighborhood gain (lowest index on ties) until the open
    neighborhoods cover V.
    """
    if g.isolated_mask():
        return None
    return VertexSet(g.n, _greedy_cover(g.adj_masks, g.n))
