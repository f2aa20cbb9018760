"""Claim-verification harness and family sweeps.

Each verifiable claim gets an exhaustive or swept domain; the harness runs
the exact solver over every instance and reports counterexamples (expected
none). Reports are deterministic: fixed seeds, canonical counterexample
order, and worker-count independence.

The graph claims have two routes, by design:

* the class route, which ``verify`` runs: each claim is invariant under
  relabelling, so it is evaluated once per isomorphism class
  (``families.isomorphism_classes``) through the public API (``profile``,
  ``all_bounds``, ``gamma_t``, ``gamma``, ``recognize_star_plus_matching``)
  and counted n!/|Aut| times, in one pass per verify run (``shared_domains``);
  a failing class expands into every labeling;
* the labeled scan, ``scan_bound_claims``: every labeled graph is an index
  whose bits are its edges, and the scan takes the indices a chunk at a
  time. It works out degrees, gates, the star-plus-matching shape, gamma
  and gamma_t for a whole chunk at once, bit-sliced: as bitmaps over the
  chunk's graphs, one bit per graph. It checks the claims with bitmap
  algebra and inline bound formulas; only girth is looked at graph by
  graph. It uses no solver, ``profile`` or isomorphism code: it is the
  independent oracle the tests and the acceptance criteria compare
  against. The bound formulas therefore sit in two places,
  ``bounds.all_bounds`` and ``_scan_labeled_chunk``; that is the point of
  the second route, not a duplicate to fold away.

Every pass of either route checks all seven graph claims (``SCAN_CLAIMS``):
the claims a caller names only choose what is reported. The other domains
are evaluated for what their claim reads: ``tree_star`` only Delta and
gamma_t of each tree, the closed forms a formula against the exact solver.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial, reduce
from itertools import combinations
from operator import and_, or_
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bounds import (
    achieves_extremal,
    all_bounds,
    circular_gamma_t,
    path_cycle_formula,
    recognize_star_plus_matching,
)
from .domination import SolverConfig, gamma, gamma_t, is_total_dominating
from .errors import DomainTooLarge, ResourceExhausted, ToolkitError
# prufer_decode, is_connected_masks and two_coloring_masks are not called
# here (the scan works out connectivity and 2-colourings as bitmaps): they
# stay importable from this module because perfbench's traced run wraps them
# here, as it wraps recognize_star_plus_matching, and a wrap fails on a
# missing name
from .families import (
    ENUMERATION_MAX_N,
    SWEEP_BUDGET,
    FamilyKind,
    FamilySpec,
    _format_fraction,
    adj_from_edge_mask,
    generate,
    isomorphism_classes,
    labelings,
    prufer_decode,
    vertex_pairs,
)
from .graph import (
    Graph,
    girth_masks,
    is_connected_masks,
    profile,
    two_coloring_masks,
)


class TheoremId(str, Enum):
    COCKAYNE_UPPER = "cockayne_upper"
    CONNECTED_UPPER = "connected_upper"
    N_OVER_DELTA_LOWER = "n_over_delta_lower"
    DIAM2_UPPER = "diam2_upper"
    GIRTH_UPPER = "girth_upper"
    SANDWICH = "sandwich"
    PATH_CYCLE_FORMULA = "path_cycle_formula"
    BIPARTITE_EXTREMAL = "bipartite_extremal"
    TREE_STAR = "tree_star"
    CIRCULAR_TWO = "circular_two"
    CIRCULAR_THREE = "circular_three"


SCALES = ("quick", "full")

# fixed seeds for the random verification domains; changing them changes the
# domains, so they are part of the harness configuration
RANDOM_GRAPH_BASE_SEED = 0x5EED_0001
RANDOM_TREE_BASE_SEED = 0x5EED_0002
_RANDOM_EDGE_PROBS = (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))


@dataclass
class VerificationReport:
    theorem: TheoremId
    domain: str
    instances_checked: int
    counterexamples: list[dict]
    elapsed_seconds: float
    # claims checked per isomorphism class: the classes passing the
    # hypothesis, and the weighted instances at which the bound is attained
    classes: int | None = None
    tight: int | None = None

    @property
    def verdict(self) -> str:
        return "PASS" if not self.counterexamples else "FAIL"

    def stats(self) -> dict:
        """The fields ``--stats`` adds: elapsed milliseconds (a domain that claims
        share is charged to the first that needs it), and class and tightness counts."""
        out = {"elapsed_ms": int(self.elapsed_seconds * 1000)}
        if self.classes is not None:
            out["classes"] = self.classes
            out["tight"] = self.tight
        return out

    def to_json_dict(self, include_stats: bool = False) -> dict:
        out = {
            "theorem": self.theorem.value,
            "verdict": self.verdict,
            "instances": self.instances_checked,
            "counterexamples": self.counterexamples,
        }
        if include_stats:
            out.update(self.stats())
        return out


def random_graph_specs(
    count: int = 500, base_seed: int = RANDOM_GRAPH_BASE_SEED, n_max: int = 16
) -> list[FamilySpec]:
    """The committed random-graph domain: n cycles 2..n_max, p cycles over
    three densities, consecutive seeds."""
    return [
        FamilySpec(
            kind=FamilyKind.RANDOM_GRAPH,
            n=2 + i % (n_max - 1),
            p=_RANDOM_EDGE_PROBS[i % len(_RANDOM_EDGE_PROBS)],
            seed=base_seed + i,
        )
        for i in range(count)
    ]


def random_tree_specs(
    count: int = 200, base_seed: int = RANDOM_TREE_BASE_SEED, n_max: int = 16
) -> list[FamilySpec]:
    return [
        FamilySpec(
            kind=FamilyKind.RANDOM_TREE,
            n=2 + i % (n_max - 1),
            seed=base_seed + i,
        )
        for i in range(count)
    ]


# -- bit-sliced kernel of the labeled scan -------------------------------------
#
# Graph i on n vertices has the edge of pair t of ``_index_pairs(n)`` iff bit t
# of i is set: first the pairs (v, w) of the last vertex w = n - 1, so that the
# low n - 1 bits are its neighbourhood S, then the pairs of the graph H on the
# vertices below w in ``vertex_pairs(n - 1)`` order. The scan takes the graphs
# a chunk [lo, hi) at a time and works out each property for the whole chunk
# at once, as a bitmap over it: bit j stands for graph lo + j.


def _index_pairs(n: int) -> list[tuple[int, int]]:
    """The vertex pair of each bit of a graph index on n vertices."""
    return [(v, n - 1) for v in range(n - 1)] + vertex_pairs(n - 1)


@lru_cache(maxsize=None)
def _bit_patterns(width: int) -> tuple[int, ...]:
    """Bitmaps over the j < ``width``, a power of two: [t] holds the j with
    bit t set, for each t with 2^t < width."""
    patterns, run = [], 1
    while run < width:
        # ``run`` zeros then ``run`` ones, repeated up to the width
        repeat = ((1 << width) - 1) // ((1 << 2 * run) - 1)
        patterns.append(((1 << run) - 1 << run) * repeat)
        run *= 2
    return tuple(patterns)


def _cover_layers(covers: Sequence[int]) -> list[int]:
    """Cover layers over the n vertices: [k] holds the graphs with a cover of
    at most k vertices, k = 0..n, given ``covers[D]``, the graphs that the
    vertex set D covers. A superset of a cover is a cover, so the sets of
    exactly k vertices suffice."""
    layers = [0] * len(covers).bit_length()
    for d, bits in enumerate(covers):
        layers[d.bit_count()] |= bits
    return layers


def _total_cover_layers(covers: Sequence[int]) -> list[int]:
    """gamma_t's cover layers, by a name of their own so that they can be replaced."""
    return _cover_layers(covers)


def _members(bits: int) -> Iterator[int]:
    """The set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Bitmaps(NamedTuple):
    """The graphs of one chunk, as bitmaps over it, bit j set when graph
    lo + j has the property:

    * ``ok``: no isolated vertex;
    * ``max_degree[d]``, ``min_degree[d]``: Delta = d, delta = d, d = 0..n - 1;
    * ``triangle``: a triangle;
    * ``within_2``: every two vertices at distance <= 2;
    * ``connected``;
    * ``bipartite``;
    * ``star_plus_matching``: one star plus disjoint edges, no isolated vertex;
    * ``gamma_t[k]``, ``gamma[k]``: gamma_t (where defined), gamma at most k,
      k = 0..n."""

    ok: int
    max_degree: list[int]
    min_degree: list[int]
    triangle: int
    within_2: int
    connected: int
    bipartite: int
    star_plus_matching: int
    gamma_t: list[int]
    gamma: list[int]


def _chunk_bitmaps(n: int, lo: int, hi: int) -> _Bitmaps:
    """The ``_Bitmaps`` of the graphs on n vertices with index in [lo, hi),
    a width that is a power of two and divides lo."""
    width = hi - lo
    full = (1 << width) - 1
    patterns = _bit_patterns(width)
    edge = [[0] * n for _ in range(n)]  # edge[u][v]: u and v are adjacent
    for t, (u, v) in enumerate(_index_pairs(n)):
        # a pattern for an index bit inside the chunk, all or none above it
        edge[u][v] = edge[v][u] = patterns[t] if t < len(patterns) else full * (lo >> t & 1)

    # at_least[v][k]: v has at least k neighbours, k = 0..n, counted edge by edge
    at_least = []
    for v in range(n):
        counts = [full]
        for u in range(n):
            if u != v:
                x = edge[u][v]
                counts.append(counts[-1] & x)
                for k in range(len(counts) - 2, 0, -1):
                    counts[k] |= counts[k - 1] & x
        at_least.append(counts + [0])
    max_at_least = [reduce(or_, c) for c in zip(*at_least)]  # Delta >= d
    min_at_least = [reduce(and_, c) for c in zip(*at_least)]  # delta >= d
    ok = min_at_least[1]

    # by doubling over the vertex sets D: meets[D] holds the graphs where D
    # meets N(v). D totally dominates where it meets every N(v), and dominates
    # where it meets N(v) for every v outside D. inside[X] holds the graphs
    # with an edge inside X, built over the vertices so far.
    total, dom, inside = [full] * (1 << n), [full] * (1 << n), [0]
    for v in range(n):
        meets = [0]
        for u in range(n):
            meets += meets if u == v else [x | edge[u][v] for x in meets]
        inside += [a | b for a, b in zip(inside, meets)]
        total = [a & b for a, b in zip(total, meets)]
        dom = [a if d >> v & 1 else a & b for d, (a, b) in enumerate(zip(dom, meets))]
    # a 2-colouring has vertex 0 on a side X with no edge inside X or V - X
    rest = (1 << n) - 1
    odd = reduce(and_, [inside[x] | inside[rest ^ x] for x in range(1, 1 << n, 2)])

    reach = [full] + [0] * (n - 1)  # reach[v]: a path joins v to vertex 0
    for _ in range(n - 1):  # such a path has at most n - 1 edges
        for v in range(1, n):
            reach[v] |= reduce(or_, [reach[u] & edge[u][v] for u in range(n) if u != v])

    within_2, triangle, centres = full, 0, 0
    for u, v in combinations(range(n), 2):
        common = reduce(or_, [edge[u][x] & edge[x][v] for x in range(n) if x not in (u, v)], 0)
        within_2 &= edge[u][v] | common
        triangle |= edge[u][v] & common
        centres |= at_least[u][2] & at_least[v][2]  # two vertices of degree >= 2
    # no vertex of degree 0 and at most one of degree >= 2: every component
    # is a star, and all of them but that vertex's are single edges
    return _Bitmaps(
        ok,
        [a ^ b for a, b in zip(max_at_least, max_at_least[1:])],
        [a ^ b for a, b in zip(min_at_least, min_at_least[1:])],
        triangle,
        within_2,
        reduce(and_, reach),
        full ^ odd,
        ok & ~centres,
        _total_cover_layers(total),
        _cover_layers(dom),
    )


def _girth_if_at_least_5(adj: Sequence[int], n: int) -> int | None:
    """Girth when >= 5, else None, of a triangle-free graph with minimum
    degree >= 2, which has a cycle: None exactly when two vertices have two
    common neighbours, a 4-cycle."""
    for u in range(n):
        for v in range(u + 1, n):
            common = adj[u] & adj[v]
            if common & (common - 1):
                return None
    return int(girth_masks(adj, n))


def _labeled_instance(adj: Sequence[int]) -> dict:
    return {"n": len(adj), "edges": [list(e) for e in Graph.from_masks(adj).edges()]}


def _cex_sort_key(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


# -- labeled-graph scan (the oracle of the tests and the acceptance gate) ------

SCAN_CLAIMS = (
    "cockayne_upper",
    "connected_upper",
    "n_over_delta_lower",
    "diam2_upper",
    "girth_upper",
    "sandwich",
    "bipartite_extremal",
)


# graphs per bitmap: narrower bitmaps pay more per-operation overhead, wider
# ones raise the peak memory of the pool's workers
_BITMAP_WIDTH = 1 << 13


def _scan_labeled_chunk(args) -> tuple[dict[str, int], dict[str, list[dict]]]:
    """Evaluate ``SCAN_CLAIMS`` on the labeled graphs on n vertices with index
    in [lo, hi), ``_BITMAP_WIDTH`` graphs at a time. Graphs with an isolated
    vertex are skipped, as every claim excludes them."""
    n, lo, hi = args
    checked = dict.fromkeys(SCAN_CLAIMS, 0)
    cex: dict[str, list[dict]] = {c: [] for c in SCAN_CLAIMS}
    for start in range(lo, hi, _BITMAP_WIDTH):
        _check_bitmaps(n, start, min(start + _BITMAP_WIDTH, hi), checked, cex)
    return checked, cex


def _check_bitmaps(n: int, lo: int, hi: int, checked: dict, cex: dict) -> None:
    """Add the claims' checked counts and counterexamples on the graphs with
    index in [lo, hi) to ``checked`` and ``cex``, from their ``_chunk_bitmaps``."""
    ok, max_degree, min_degree, triangle, within_2, connected, bipartite, star, gts, gams = (
        _chunk_bitmaps(n, lo, hi)
    )
    if not ok:  # n = 1: the one graph is a single isolated vertex
        return
    pairs = _index_pairs(n)

    def fail(claim, j, detail):
        instance = _labeled_instance(adj_from_edge_mask(n, pairs, lo + j))
        cex[claim].append({"instance": instance, "detail": detail})

    def value(layers, j):  # the least k whose layer holds graph j: Delta, delta, gamma_t or gamma
        return next(k for k, layer in enumerate(layers) if layer >> j & 1)

    # the last layer holds every graph with a cover: repeat it, so that any
    # bound up to 2n (sandwich) has a layer, whatever the list's length
    gts = gts + gts[-1:] * (2 * n + 1 - len(gts))
    joined = ok & connected & ~max_degree[n - 1]  # connected, Delta < n - 1
    diam2 = ok & within_2 & ~min_degree[n - 1]  # diameter exactly 2: not complete
    # the claims whose hypothesis is only "no isolated vertex"
    for claim in ("cockayne_upper", "n_over_delta_lower", "sandwich"):
        checked[claim] += ok.bit_count()
    checked["connected_upper"] += joined.bit_count()
    checked["diam2_upper"] += diam2.bit_count()
    # the graphs where each claim fails, an OR over Delta (or delta) = d
    cockayne = connected_fail = lower = diam2_fail = extremal = 0
    for d in range(1, n):
        top, low = max_degree[d], min_degree[d]  # Delta = d, delta = d
        cockayne |= top & ~gts[n - d + 1]
        connected_fail |= top & ~gts[n - d]
        lower |= top & gts[-(-n // d) - 1]  # gamma_t < ceil(n / Delta)
        diam2_fail |= low & ~gts[d + 1]
        extremal |= top & gts[n - d + 1] & ~gts[n - d]  # gamma_t = n - Delta + 1
    sandwich = 0
    for k in range(n + 1):  # gamma_t <= k < gamma, or gamma <= k, 2k < gamma_t
        sandwich |= gts[k] & ~gams[k] | gams[k] & ~gts[2 * k]
    for claim, bits, degrees, bound in (
        ("cockayne_upper", ok & cockayne, max_degree, lambda d: n - d + 1),
        ("connected_upper", joined & connected_fail, max_degree, lambda d: n - d),
        ("n_over_delta_lower", ok & lower, max_degree, lambda d: -(-n // d)),
        ("diam2_upper", diam2 & diam2_fail, min_degree, lambda d: d + 1),
    ):
        for j in _members(bits):
            fail(claim, j, {"gamma_t": value(gts, j), "bound": bound(value(degrees, j))})
    for j in _members(ok & sandwich):
        fail("sandwich", j, {"gamma": value(gams, j), "gamma_t": value(gts, j)})
    for j in _members(ok & ~triangle & ~min_degree[1]):  # delta >= 2, no triangle
        girth = _girth_if_at_least_5(adj_from_edge_mask(n, pairs, lo + j), n)
        if girth is not None:
            checked["girth_upper"] += 1
            b = n - (girth + 1) // 2 + 1
            if not gts[b] >> j & 1:
                fail("girth_upper", j, {"gamma_t": value(gts, j), "girth": girth, "bound": b})
    bipartite &= ok
    checked["bipartite_extremal"] += bipartite.bit_count()
    for j in _members(bipartite & (extremal ^ star)):
        tight, shape = extremal >> j & 1 == 1, star >> j & 1 == 1
        detail = {"gamma_t": value(gts, j), "extremal": tight, "star_plus_matching": shape}
        fail("bipartite_extremal", j, detail)


def _run_chunked(worker: Callable, items: list, jobs: int) -> list:
    """``[worker(x) for x in items]``, in order, on at most
    min(jobs, len(items), cpu count) forked workers."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        return pool.map(worker, items)


# graphs per pool task: several bitmaps each, so that the parent process
# gathers few results
_SCAN_CHUNK = 1 << 15


def scan_bound_claims(
    n_values: Iterable[int], claims: Sequence[str], jobs: int = 1
) -> dict[str, tuple[int, list[dict]]]:
    """Evaluate ``SCAN_CLAIMS`` over every labeled graph on each n. Returns
    {claim: (instances_checked, sorted counterexamples)} for ``claims``, in
    their order. Raises DomainTooLarge, before any chunk is built, for an n
    outside 1..ENUMERATION_MAX_N."""
    for c in claims:
        if c not in SCAN_CLAIMS:
            raise ValueError(f"unknown claim {c!r}")
    n_values = list(n_values)
    if not all(1 <= n <= ENUMERATION_MAX_N for n in n_values):
        raise DomainTooLarge(f"labeled scan supports 1 <= n <= {ENUMERATION_MAX_N}: {n_values}")
    chunks = []
    for n in n_values:
        total = 1 << (n * (n - 1) // 2)
        for lo in range(0, total, _SCAN_CHUNK):
            chunks.append((n, lo, min(lo + _SCAN_CHUNK, total)))
    results = _run_chunked(_scan_labeled_chunk, chunks, jobs)
    merged: dict[str, tuple[int, list[dict]]] = {}
    for claim in claims:
        count = sum(r[0][claim] for r in results)
        cex = [record for r in results for record in r[1][claim]]
        cex.sort(key=_cex_sort_key)
        merged[claim] = (count, cex)
    return merged


# -- the claim table ----------------------------------------------------------
#
# Each claim is one row of _ROWS, a function of (claim, scale). A class part
# counts each isomorphism class n!/|Aut| times, the number of its labelings.


class _Tally(NamedTuple):
    """One claim over one domain."""

    instances: int  # weighted: labelings of the graphs passing the hypothesis
    graphs: int  # graphs passing it: isomorphism classes on the class route
    tight: int  # weighted instances at which the claim's bound is attained
    failures: tuple[tuple[Graph, FamilySpec | None, dict], ...]  # (graph, spec, detail)

    @property
    def counterexamples(self) -> list[dict]:
        """One record per failing instance, sorted by _cex_sort_key: its family, or
        every labeling of a class (spec None). Built on reading, not in the pass."""
        records = []
        for g, spec, detail in self.failures:
            if spec is None:
                instances = map(_labeled_instance, labelings(g.adj_masks))
            else:
                instances = [{"family": str(spec)}]
            records.extend({"instance": i, "detail": dict(detail)} for i in instances)
        return sorted(records, key=_cex_sort_key)


# what a check returns: claim -> (bound attained, counterexample detail or None)
_Results = dict[str, tuple[bool, dict | None]]
# what a row returns: domain text, class-part tally (None for closed forms), other tallies
_Row = tuple[str, _Tally | None, list[_Tally]]


def _evaluate(g: Graph, claims: Sequence[str], spec: FamilySpec | None) -> _Results:
    """The results of the ``claims`` whose hypothesis ``g`` meets. ``spec``
    is not read: these claims depend on the graph alone.

    Gates and bounds come from ``profile`` and ``all_bounds``, values from
    ``gamma_t`` and ``gamma``. The attained bound is the Cockayne bound for
    bipartite_extremal (the extremal graphs) and gamma_t = 2 gamma for
    sandwich."""
    prof = profile(g)
    if prof.isolated:  # every claim's hypothesis excludes isolated vertices
        return {}
    reports = {r.bound: r for r in all_bounds(g, prof=prof)}
    applies = {c: r.applicable for c, r in reports.items()}
    applies["bipartite_extremal"] = prof.bipartition is not None
    claims = [c for c in claims if applies.get(c, True)]
    if not claims:
        return {}
    try:
        gt = gamma_t(g).value
    except ToolkitError as exc:
        return {c: (False, {"kind": "unverified", "error": str(exc)}) for c in claims}
    out = {}
    for claim in claims:
        if claim in reports:
            r = reports[claim]
            holds = gt >= r.value if claim == "n_over_delta_lower" else gt <= r.value
            detail = None
            if not holds:
                detail = {"gamma_t": gt}
                if claim == "girth_upper":
                    detail["girth"] = int(prof.girth)
                detail["bound"] = r.value
            out[claim] = (gt == r.value, detail)
        elif claim == "sandwich":
            gam = gamma(g).value
            ok = gam <= gt <= 2 * gam
            out[claim] = (gt == 2 * gam, None if ok else {"gamma": gam, "gamma_t": gt})
        else:  # bipartite_extremal
            extremal = gt == reports["cockayne_upper"].value
            shape = recognize_star_plus_matching(g) is not None
            detail = {"gamma_t": gt, "extremal": extremal, "star_plus_matching": shape}
            out[claim] = (extremal, None if extremal == shape else detail)
    return out


def _tree_star(g: Graph, claims: Sequence[str], spec: FamilySpec | None) -> _Results:
    """tree_star on the tree ``g``, from Delta and gamma_t alone: it attains the
    Cockayne bound, the bound counted as attained, iff it is a star."""
    (claim,) = claims
    try:
        gt = gamma_t(g).value
    except ToolkitError as exc:
        return {claim: (False, {"kind": "unverified", "error": str(exc)})}
    extremal, star = achieves_extremal(g, gt), max(g.degrees()) == g.n - 1
    detail = {"gamma_t": gt, "extremal": extremal, "star": star}
    return {claim: (extremal, None if extremal == star else detail)}


# the value each circular claim asserts on its part of the grid
_CIRCULAR_VALUE = {"circular_two": 2, "circular_three": 3}


def _closed_form(g: Graph, claims: Sequence[str], spec: FamilySpec) -> _Results:
    """The closed-form claim on ``g = generate(spec)`` against the exact
    solver: the path/cycle formula, or a circular value with the formula
    and witness of ``circular_gamma_t``. There is no bound to attain."""
    (claim,) = claims
    if claim == "path_cycle_formula":
        formula = path_cycle_formula(spec.kind.value, spec.n)
        got = gamma_t(g).value
        detail = None if got == formula else {"formula": formula, "solver": got}
        return {claim: (False, detail)}
    expected = _CIRCULAR_VALUE[claim]
    cv = circular_gamma_t(spec.n, spec.d)
    detail = {}
    if cv.value != expected:
        detail["formula"] = cv.value
    if not is_total_dominating(g, cv.witness):
        detail["witness_valid"] = False
    try:
        solved = gamma_t(g).value
        if solved != expected:
            detail["solver"] = solved
    except ToolkitError as exc:
        detail["kind"] = "unverified"
        detail["error"] = str(exc)
    return {claim: (False, {**detail, "expected": expected} if detail else None)}


def _tally(domain: Iterable, claims: Sequence[str], check=_evaluate) -> dict[str, _Tally]:
    """Evaluate ``claims`` with ``check`` on every ``(graph, weight, spec)``
    of ``domain``."""
    acc = {c: [0, 0, 0, []] for c in claims}  # the fields of _Tally
    for g, weight, spec in domain:
        for claim, (tight, detail) in check(g, claims, spec).items():
            a = acc[claim]
            a[0] += weight
            a[1] += 1
            a[2] += weight if tight else 0
            if detail is not None:
                a[3].append((g, spec, detail))
    return {c: _Tally(a[0], a[1], a[2], tuple(a[3])) for c, a in acc.items()}


def _class_domain(n_values: Iterable[int], trees: bool = False) -> Iterator:
    """Each isomorphism class of graphs (or trees) on each n, weighted by its labelings."""
    for n in n_values:
        for adj, weight in isomorphism_classes(n, trees):
            yield Graph.from_masks(adj), weight, None


def _spec_domain(specs: Iterable[FamilySpec]) -> Iterator:
    for spec in specs:
        yield generate(spec), 1, spec


# One evaluation per domain, for all the claims that read it. The random graphs'
# tallies are kept for the process, filled on first use, so that a warm pass does
# not solve them again; the classes' are kept by n_max for one verify run.
_RANDOM_GRAPH_CLAIMS = ("connected_upper", "diam2_upper", "girth_upper")
_random_graph_tallies: dict[str, _Tally] = {}
_shared: list[dict[int, dict[str, _Tally]]] = []  # the open runs' class stores


@contextmanager
def shared_domains() -> Iterator[None]:
    """A verify run: within the block, the graph claims share one evaluation
    of each class domain, charged to the first that needs it."""
    _shared.append({})
    try:
        yield
    finally:
        _shared.pop()


def _graph_row(graphs: str, claim: str, scale: str) -> _Row:
    n_max = 6 if scale == "quick" else 7
    domain = graphs.format(n_max)
    domain += ", one isomorphism class at a time, weighted by its labelings"
    tallies = _shared[-1] if _shared else {}
    if n_max not in tallies:
        tallies[n_max] = _tally(_class_domain(range(1, n_max + 1)), SCAN_CLAIMS)
    extra = []
    if claim in _RANDOM_GRAPH_CLAIMS:
        domain += ", plus 500 seeded random graphs on n <= 16"
        if not _random_graph_tallies:
            specs = random_graph_specs()
            _random_graph_tallies.update(_tally(_spec_domain(specs), _RANDOM_GRAPH_CLAIMS))
        extra.append(_random_graph_tallies[claim])
    return domain, tallies[n_max][claim], extra


def _tree_star_row(claim: str, scale: str) -> _Row:
    return (
        "all free trees on 2 <= n <= 8, each weighted by its labelings, "
        "plus 200 seeded random trees on n <= 16",
        _tally(_class_domain(range(2, 9), trees=True), [claim], _tree_star)[claim],
        [_tally(_spec_domain(random_tree_specs()), [claim], _tree_star)[claim]],
    )


def _path_cycle_row(claim: str, scale: str) -> _Row:
    n_max = 20 if scale == "quick" else 24
    kinds = (FamilyKind.PATH, FamilyKind.CYCLE)
    specs = [FamilySpec(kind=k, n=n) for n in range(3, n_max + 1) for k in kinds]
    domain = f"paths and cycles, 3 <= n <= {n_max}, closed form vs exact solver"
    return domain, None, [_tally(_spec_domain(specs), [claim], _closed_form)[claim]]


def _circular_row(claim: str, scale: str) -> _Row:
    d_max, n_cap = (6, 36) if scale == "quick" else (8, 48)
    two = _CIRCULAR_VALUE[claim] == 2
    specs = [
        FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d)
        for d in range(3, d_max + 1)
        for n in range(3 * d, n_cap + 1)
        if (n >= 4 * d - 2) == two
    ]
    regime = "n >= 4d-2" if two else "3d <= n <= 4d-3"
    domain = (
        f"circular complete grid, d in 3..{d_max}, {regime}, n <= {n_cap}; "
        "closed form and witness vs exact solver"
    )
    return domain, None, [_tally(_spec_domain(specs), [claim], _closed_form)[claim]]


_ALL_GRAPHS = partial(_graph_row, "all graphs on n <= {} passing the hypothesis")
_ROWS = {
    "cockayne_upper": _ALL_GRAPHS,
    "connected_upper": _ALL_GRAPHS,
    "n_over_delta_lower": _ALL_GRAPHS,
    "diam2_upper": _ALL_GRAPHS,
    "girth_upper": _ALL_GRAPHS,
    "sandwich": _ALL_GRAPHS,
    "path_cycle_formula": _path_cycle_row,
    "bipartite_extremal": partial(
        _graph_row,
        "all bipartite graphs without isolated vertices on n <= {}, "
        "both directions of the extremal characterization",
    ),
    "tree_star": _tree_star_row,
    "circular_two": _circular_row,
    "circular_three": _circular_row,
}


def verify(theorem: TheoremId, scale: str = "quick", jobs: int = 1) -> VerificationReport:
    """Run one claim over its verification domain, sharing the class tallies
    of the open run. Every domain is evaluated in-process: ``jobs`` is unused."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    t0 = time.perf_counter()
    domain, by_class, extra = _ROWS[theorem.value](theorem.value, scale)
    parts = extra if by_class is None else [by_class, *extra]
    cex = sorted((record for p in parts for record in p.counterexamples), key=_cex_sort_key)
    return VerificationReport(
        theorem=theorem,
        domain=domain,
        instances_checked=sum(p.instances for p in parts),
        counterexamples=cex,
        elapsed_seconds=time.perf_counter() - t0,
        classes=None if by_class is None else by_class.graphs,
        tight=None if by_class is None else sum(p.tight for p in parts),
    )


def verify_all(scale: str = "quick", jobs: int = 1) -> list[VerificationReport]:
    with shared_domains():
        return [verify(t, scale, jobs) for t in TheoremId]


# -- sweeps ---------------------------------------------------------------------

SWEEP_COLUMNS = (
    "family",
    "n",
    "d",
    "t",
    "r",
    "p",
    "seed",
    "gamma",
    "gamma_t",
    "cockayne_upper",
    "cockayne_upper_tight",
    "connected_upper",
    "connected_upper_tight",
    "n_over_delta_lower",
    "n_over_delta_lower_tight",
    "diam2_upper",
    "diam2_upper_tight",
    "girth_upper",
    "girth_upper_tight",
    "extremal",
)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


# the cell of a solve that hit the configured node or time limit
REFUSED = "refused"


def _solve_cell(solver: Callable, g: Graph, config: SolverConfig | None) -> int | str | None:
    """The solver's value (None where undefined), or REFUSED when the solve
    hits a limit of ``config``."""
    try:
        res = solver(g, config)
    except ResourceExhausted:
        return REFUSED
    return None if res is None else res.value


def _sweep_row(spec: FamilySpec, config: SolverConfig | None = None) -> dict[str, str]:
    g = generate(spec)
    gt = _solve_cell(gamma_t, g, config)
    exact = None if gt is REFUSED else gt
    row = {
        "family": spec.kind.value,
        "n": str(g.n),
        "d": _fmt(spec.d),
        "t": _fmt(spec.t),
        "r": _fmt(spec.r),
        "p": "" if spec.p is None else _format_fraction(spec.p),
        "seed": _fmt(spec.seed),
        "gamma": _fmt(_solve_cell(gamma, g, config)),
        "gamma_t": _fmt(gt),
    }
    for report in all_bounds(g, exact=exact):
        row[report.bound] = _fmt(report.value)
        row[f"{report.bound}_tight"] = _fmt(report.tight)
    # extremal means gamma_t == n - Delta + 1: the Cockayne bound is tight
    row["extremal"] = row["cockayne_upper_tight"]
    return row


def sweep(
    specs: Sequence[FamilySpec], jobs: int = 1, config: SolverConfig | None = None
) -> list[dict[str, str]]:
    """One row per instance, in spec order; raises on budget overrun. A
    solve that hits a limit of ``config`` fills its cell with ``refused``."""
    if len(specs) > SWEEP_BUDGET:
        raise DomainTooLarge(
            f"sweep of {len(specs)} instances exceeds budget {SWEEP_BUDGET}"
        )
    return _run_chunked(partial(_sweep_row, config=config), list(specs), jobs)


def sweep_csv(rows: Iterable[dict[str, str]]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(row.get(col, "") for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
