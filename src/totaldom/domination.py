"""Exact minimum dominating-set and total-dominating-set solvers.

Both problems reduce to minimum cover by neighborhoods: a set S dominates
when the closed neighborhoods of its members cover V, and totally dominates
when the open neighborhoods do. The two strategies are

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
  largest number of uncovered vertices one live candidate covers). When
  at most two picks can still beat the incumbent, the search finishes
  exactly instead of branching: u covers v iff v covers u, so the one
  pick that covers a set R is a live common neighbour of R, found by
  intersecting masks. With one pick left it takes the lowest such vertex
  of the uncovered set; with two, it walks the branching candidates in
  the search's order and pairs the first that leaves a coverable rest
  with the lowest live common neighbour of that rest. Values and
  witnesses are those the branching would find.

A solve is pure: same graph and config, same result, bit for bit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from typing import Sequence

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
        if self.time_limit is not None and self.time_limit <= 0:
            raise ValueError("time_limit must be positive")


@dataclass(frozen=True)
class SolverStats:
    """Work done by one solve. The exhaustive strategy counts only subsets;
    branch and bound counts nodes, forced picks, its prunes by reason and
    the times it improved on its incumbent. The last one or two picks that
    could still beat the incumbent are finished without recursing, so they
    are not ``branch_nodes`` (nor forced picks); a finish that finds no cover
    counts as ``prunes_counting``, which with one pick left is exactly the
    counting bound."""

    subsets_examined: int = 0
    branch_nodes: int = 0
    forced_picks: int = 0
    prunes_dead: int = 0
    prunes_incumbent: int = 0
    prunes_packing: int = 0
    prunes_counting: int = 0
    incumbent_updates: int = 0
    elapsed_seconds: float = 0.0


@dataclass(frozen=True)
class DominationResult:
    value: int
    witness: VertexSet
    stats: SolverStats


DEFAULT_CONFIG = SolverConfig()


# -- predicates ----------------------------------------------------------------


def is_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex is in s or adjacent to a member of s."""
    covered = s.mask
    m = s.mask
    while m:
        low = m & -m
        covered |= g.adj_masks[low.bit_length() - 1]
        m ^= low
    return covered == g.full_mask


def is_total_dominating(g: Graph, s: VertexSet) -> bool:
    """True iff every vertex (members of s included) has a neighbor in s."""
    covered = 0
    m = s.mask
    while m:
        low = m & -m
        covered |= g.adj_masks[low.bit_length() - 1]
        m ^= low
    return covered == g.full_mask


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


def _common_cover(cover: Sequence[int], targets: int, live: int) -> int:
    """The vertices of ``live`` that cover every vertex of ``targets``: with
    symmetric covers, ``live`` and the covers of the targets intersected."""
    while targets and live:
        low = targets & -targets
        live &= cover[low.bit_length() - 1]
        targets ^= low
    return live


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

    def recurse(chosen: int, covered: int, size: int, banned: int) -> None:
        nonlocal best_mask, best_value, nodes, forced_picks
        nonlocal dead, incumbent, packing, counting, updates
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            raise ResourceExhausted(f"node limit {node_limit} exceeded")
        if deadline is not None and nodes % 256 == 0:
            if time.perf_counter() > deadline:
                raise ResourceExhausted("time limit exceeded")

        # one scan of the uncovered vertices over their live candidates
        # (neither chosen nor banned): a vertex with none is dead, one with
        # a single candidate forces it, and the rest give the branching
        # vertex and a packing of disjoint candidate sets
        live = full & ~(chosen | banned)
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
            if size + 2 == best_value:
                # one pick left: it must cover every uncovered vertex, so it
                # is a live common neighbour of them all
                common = _common_cover(cover, unc, live)
                if common:
                    best_value = size + 1
                    best_mask = chosen | (common & -common)
                    updates += 1
                else:
                    counting += 1
                return
            forced = -1
            fewest = n + 1
            used = packed = 0
            m = unc
            while m:
                low = m & -m
                v = low.bit_length() - 1
                m ^= low
                cands = cover[v] & live
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

        if size + 3 == best_value:
            # two picks left: walk the branching candidates in the search's
            # order, each banning the earlier ones. If any candidate covers
            # everything alone, the first (of the highest gain) does, so the
            # first pair found is optimal
            order = []
            m = branch
            while m:
                low = m & -m
                u = low.bit_length() - 1
                m ^= low
                order.append((-(cover[u] & unc).bit_count(), u))
            order.sort()
            for _, u in order:
                rest = unc & ~cover[u]
                if not rest:
                    best_value = size + 1
                    best_mask = chosen | (1 << u)
                    updates += 1
                    return
                live ^= 1 << u
                common = _common_cover(cover, rest, live)
                if common:
                    best_value = size + 2
                    best_mask = chosen | (1 << u) | (common & -common)
                    updates += 1
                    return
            counting += 1
            return

        order = []
        max_gain = 0
        m = live
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            gain = (cover[u] & unc).bit_count()
            if gain > max_gain:
                max_gain = gain
            if branch >> u & 1:
                order.append((-gain, u))
        if size + -(-unc.bit_count() // max_gain) >= best_value:
            counting += 1
            return

        # every cover holding u was searched in u's branch, so the later
        # siblings leave u out
        order.sort()
        for _, u in order:
            if size + 1 >= best_value:
                break
            recurse(chosen | (1 << u), covered | cover[u], size + 1, banned)
            banned |= 1 << u

    recurse(0, 0, 0, 0)
    return best_value, best_mask, {
        "branch_nodes": nodes,
        "forced_picks": forced_picks,
        "prunes_dead": dead,
        "prunes_incumbent": incumbent,
        "prunes_packing": packing,
        "prunes_counting": counting,
        "incumbent_updates": updates,
    }


def _solve_min_cover(
    cover: Sequence[int],
    n: int,
    config: SolverConfig,
    greedy_seed: int,
    lower_bound: int,
) -> tuple[int, int, SolverStats]:
    deadline = None
    if config.time_limit is not None:
        deadline = time.perf_counter() + config.time_limit
    t0 = time.perf_counter()
    if config.strategy is Strategy.EXHAUSTIVE:
        value, mask, examined = _exhaustive_min_cover(
            cover, n, config.node_limit, deadline
        )
        stats = SolverStats(
            subsets_examined=examined,
            elapsed_seconds=time.perf_counter() - t0,
        )
    else:
        value, mask, counters = _bnb_min_cover(
            cover, n, greedy_seed, lower_bound, config.node_limit, deadline
        )
        stats = SolverStats(**counters, elapsed_seconds=time.perf_counter() - t0)
    return value, mask, stats


# -- public solvers ------------------------------------------------------------


def gamma(g: Graph, config: SolverConfig | None = None) -> DominationResult:
    """Exact domination number with a canonical optimal witness."""
    config = config or DEFAULT_CONFIG
    closed = [a | (1 << v) for v, a in enumerate(g.adj_masks)]
    seed = _greedy_cover(closed, g.n)
    lb = -(-g.n // (max(g.degrees()) + 1))
    value, mask, stats = _solve_min_cover(closed, g.n, config, seed, lb)
    return DominationResult(value, VertexSet(g.n, mask), stats)


def gamma_t(g: Graph, config: SolverConfig | None = None) -> DominationResult | None:
    """Exact total domination number, or None if an isolated vertex makes it
    undefined."""
    config = config or DEFAULT_CONFIG
    if g.isolated_mask():
        return None
    seed = greedy_total_dominating(g)
    assert seed is not None
    # n >= 2 here: a 1-vertex graph is all isolated
    lb = max(2, -(-g.n // max(g.degrees())))
    value, mask, stats = _solve_min_cover(
        g.adj_masks, g.n, config, seed.mask, lb
    )
    return DominationResult(value, VertexSet(g.n, mask), stats)


def greedy_total_dominating(g: Graph) -> VertexSet | None:
    """Valid (not necessarily minimum) total dominating set, greedily built.

    None when an isolated vertex exists. Takes the vertex with most
    uncovered open-neighborhood gain (lowest index on ties) until the open
    neighborhoods cover V.
    """
    if g.isolated_mask():
        return None
    return VertexSet(g.n, _greedy_cover(g.adj_masks, g.n))
