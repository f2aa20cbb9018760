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
* the labeled scan, ``scan_bound_claims``: every labeled graph is a graph H
  on the first n - 1 vertices plus the neighbourhood S of the last one.
  For each H the scan works out its own gates, degrees, gamma and gamma_t
  for all S at once, as bitmaps over S, and checks the claims with bitmap
  algebra and inline bound formulas; only girth and the star-plus-matching
  shape are looked at graph by graph. It is the independent oracle the
  tests and the acceptance criteria compare against. The bound formulas
  therefore sit in two places, ``bounds.all_bounds`` and
  ``_scan_labeled_chunk``; that is the point of the second route, not a
  duplicate to fold away.

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
from operator import or_
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
# prufer_decode and is_connected_masks are not called here: they stay
# importable from this module, where perfbench's traced run wraps them and
# counts their calls
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
    component_masks,
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


# -- bitmap kernels of the labeled scan ----------------------------------------
#
# The scan builds every labeled graph G on n vertices once, as H + (w, S): a
# graph H on the m = n - 1 vertices below w = n - 1, joined to w by the
# neighbourhood S. Everything is worked out once per H, as bitmaps over S: bit
# S stands for the graph H + (w, S).


class _SubsetTables(NamedTuple):
    """Bitmaps over the vertex sets S of m vertices, one bit per S: bit S of
    ``meets[a]`` is set when S meets the mask a, of ``contains[a]`` when S
    holds a, and of ``at_most[k]`` when S has at most k members. ``sizes[k]``
    lists the sets of k members."""

    meets: tuple[int, ...]
    contains: tuple[int, ...]
    at_most: tuple[int, ...]
    sizes: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _subset_tables(m: int) -> _SubsetTables:
    subsets = range(1 << m)

    def bitmap(test) -> int:
        return sum(1 << s for s in subsets if test(s))

    return _SubsetTables(
        tuple(bitmap(lambda s: s & a) for a in subsets),
        tuple(bitmap(lambda s: s & a == a) for a in subsets),
        tuple(bitmap(lambda s: s.bit_count() <= k) for k in range(m + 1)),
        tuple(tuple(s for s in subsets if s.bit_count() == k) for k in range(m + 1)),
    )


def _neighbourhoods(adj: Sequence[int]) -> list[int]:
    """N_H(D') for every set D' of the vertices of H, indexed by D'."""
    table = [0]
    for a in adj:  # by doubling: bit j of the index says whether vertex j is in D'
        table += [x | a for x in table]
    return table


def _cover_layers(nbrs: Sequence[int], sub: _SubsetTables, total: bool = False) -> list[int]:
    """Cover layers of gamma, or of gamma_t if ``total``: [k] is the bitmap of
    the S for which it is at most k on H + (w, S), k = 0..n.

    A cover is D' or D' + w, D' a set of H's vertices (``nbrs[D']`` its
    neighbourhood). With U the vertices of H that D' does not dominate, D' + w
    covers iff S holds U and, for gamma_t, meets D'; D' alone iff U is empty
    and S meets D'. The sets D' are taken by size up to k, the size of the
    least D' with U empty: one vertex more joins any S != 0 to it, so every
    S with a cover is in the layers from k + 1 on."""
    full = len(nbrs) - 1
    meets, contains = sub.meets, sub.contains
    layers = [0]
    for k, group in enumerate(sub.sizes):
        reach = [nbrs[d] if total else nbrs[d] | d for d in group]
        if full in reach:
            layers[k] |= reduce(or_, [meets[d] for d, r in zip(group, reach) if r == full])
            return layers + [meets[full] if total else contains[0]] * (len(sub.sizes) - k)
        with_w = [contains[full ^ r] & (meets[d] if total else -1) for d, r in zip(group, reach)]
        layers.append(layers[k] | reduce(or_, with_w))
    return layers


def _total_cover_layers(nbrs: Sequence[int], sub: _SubsetTables) -> list[int]:
    """gamma_t's cover layers, by a name of their own so that they can be replaced."""
    return _cover_layers(nbrs, sub, total=True)


def _members(bits: int) -> Iterator[int]:
    """The set bits of ``bits``, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Extensions(NamedTuple):
    """What the graphs G = H + (w, S) share, for one graph H on the m = n - 1
    vertices below w, as bitmaps over S, bit S set when G has the property:

    * ``ok``: no isolated vertex;
    * ``max_degree[d]``, ``min_degree[d]``: Delta(G) = d, delta(G) = d,
      d = 0..m;
    * ``triangle``: H has a triangle, or S holds an edge of H;
    * ``within_2``, every two vertices at distance <= 2: S dominates H and
      holds every non-adjacent pair of H without a common neighbour;
    * ``connected``: S meets every component of H;
    * ``bipartite``: H is bipartite and, in each component, S lies inside
      one side."""

    ok: int
    max_degree: list[int]
    min_degree: list[int]
    triangle: int
    within_2: int
    connected: int
    bipartite: int


def _extensions(adj: Sequence[int], sub: _SubsetTables) -> _Extensions:
    """The ``_Extensions`` of the graph H with rows ``adj``, from the subset
    tables ``sub`` of len(adj) vertices."""
    m = len(adj)
    meets, contains = sub.meets, sub.contains
    every = contains[0]
    deg = [a.bit_count() for a in adj]
    dmax, dmin = max(deg, default=0), min(deg, default=0)

    def having(degree: int) -> int:
        return sum([1 << v for v, d in enumerate(deg) if d == degree])

    # Delta(G) is |S| or, if larger, dmax + 1 when S meets the vertices of degree dmax
    # and dmax when not; delta(G) is |S| or, if smaller, dmin + 1 when S holds the
    # vertices of degree dmin and dmin when not
    rises, stays = meets[having(dmax)], contains[having(dmin)]
    at_most = sub.at_most
    max_at_most = (0,) * dmax + (at_most[dmax] & ~rises,) + at_most[dmax + 1 :]  # Delta(G) <= d
    min_at_most = at_most[:dmin] + (every ^ (stays & ~at_most[dmin]),) + (every,) * (m - dmin)
    max_degree = [b ^ a for a, b in zip((0, *max_at_most), max_at_most)]
    min_degree = [b ^ a for a, b in zip((0, *min_at_most), min_at_most)]

    triangle, within_2 = 0, every
    for v in range(m):
        within_2 &= meets[adj[v] | 1 << v]  # v within distance 2 of w
        for u in range(v):
            pair = contains[1 << u | 1 << v]
            if adj[v] >> u & 1:  # an edge: a triangle of H, or one with w if S holds it
                triangle = every if adj[u] & adj[v] else triangle | pair
            elif not adj[u] & adj[v]:  # within distance 2 through w only
                within_2 &= pair
    components = component_masks(adj, m)
    connected = every
    for c in components:
        connected &= meets[c]
    sides = two_coloring_masks(adj, m)
    bipartite = 0
    if sides is not None:
        bipartite = every
        for c in components:  # S does not meet both sides of c
            bipartite &= ~(meets[sides[0] & c] & meets[sides[1] & c])
    ok = contains[having(0)] & ~1  # S holds H's isolated vertices, and S != 0 for w
    return _Extensions(ok, max_degree, min_degree, triangle, within_2, connected, bipartite)


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


def _extend(adj: Sequence[int], s: int) -> list[int]:
    """The rows of H + (w, S), for H with rows ``adj`` and S = ``s``."""
    w = 1 << len(adj)
    return [a | w if s >> v & 1 else a for v, a in enumerate(adj)] + [s]


def _scan_labeled_chunk(args) -> tuple[dict[str, int], dict[str, list[dict]]]:
    """Evaluate ``SCAN_CLAIMS`` on the labeled graphs on n vertices with index
    i in [lo, hi): the graph H + (w, S) for the graph H with edge mask
    i >> (n - 1) over ``vertex_pairs(n - 1)`` and S = i & (2^(n-1) - 1).
    Graphs with an isolated vertex are skipped, as every claim excludes them."""
    n, lo, hi = args
    m = n - 1
    pairs = vertex_pairs(m)
    sub = _subset_tables(m)
    checked = dict.fromkeys(SCAN_CLAIMS, 0)
    cex: dict[str, list[dict]] = {c: [] for c in SCAN_CLAIMS}

    def fail(claim, s, detail):
        instance = _labeled_instance(_extend(adj, s))
        cex[claim].append({"instance": instance, "detail": detail})

    def value(layers, s):  # the least k whose layer holds S: Delta, delta, gamma_t or gamma
        return next(k for k, layer in enumerate(layers) if layer >> s & 1)

    for h in range(lo >> m, hi >> m):
        adj = adj_from_edge_mask(m, pairs, h)
        ok, max_degree, min_degree, triangle, within_2, connected, bipartite = (
            _extensions(adj, sub)
        )
        if not ok:  # n = 1: the one graph is a single isolated vertex
            continue
        nbrs = _neighbourhoods(adj)
        gts, gams = _total_cover_layers(nbrs, sub), _cover_layers(nbrs, sub)
        # the last layer holds every S with a cover: repeat it, so that any
        # bound up to 2n (sandwich) has a layer, whatever the list's length
        gts += gts[-1:] * (2 * n + 1 - len(gts))

        joined = ok & connected & ~max_degree[m]  # connected, Delta < n - 1
        diam2 = ok & within_2 & ~min_degree[m]  # diameter exactly 2: not complete
        # the claims whose hypothesis is only "no isolated vertex"
        for claim in ("cockayne_upper", "n_over_delta_lower", "sandwich"):
            checked[claim] += ok.bit_count()
        checked["connected_upper"] += joined.bit_count()
        checked["diam2_upper"] += diam2.bit_count()
        # the S where each claim fails, an OR over Delta (or delta) = d
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
        if ok & (cockayne | lower | sandwich) | joined & connected_fail | diam2 & diam2_fail:
            for claim, bits, degrees, bound in (
                ("cockayne_upper", ok & cockayne, max_degree, lambda d: n - d + 1),
                ("connected_upper", joined & connected_fail, max_degree, lambda d: n - d),
                ("n_over_delta_lower", ok & lower, max_degree, lambda d: -(-n // d)),
                ("diam2_upper", diam2 & diam2_fail, min_degree, lambda d: d + 1),
            ):
                for s in _members(bits):
                    detail = {"gamma_t": value(gts, s), "bound": bound(value(degrees, s))}
                    fail(claim, s, detail)
            for s in _members(ok & sandwich):
                fail("sandwich", s, {"gamma": value(gams, s), "gamma_t": value(gts, s)})
        for s in _members(ok & ~triangle & ~min_degree[1]):  # delta >= 2, no triangle
            girth = _girth_if_at_least_5(_extend(adj, s), n)
            if girth is not None:
                checked["girth_upper"] += 1
                b = n - (girth + 1) // 2 + 1
                if not gts[b] >> s & 1:
                    fail("girth_upper", s, {"gamma_t": value(gts, s), "girth": girth, "bound": b})
        bipartite &= ok
        checked["bipartite_extremal"] += bipartite.bit_count()
        for s in _members(bipartite):
            tight = extremal >> s & 1 == 1
            star = recognize_star_plus_matching(Graph.from_masks(_extend(adj, s))) is not None
            if tight != star:
                detail = {"gamma_t": value(gts, s), "extremal": tight, "star_plus_matching": star}
                fail("bipartite_extremal", s, detail)
    return checked, cex


def _run_chunked(worker: Callable, items: list, jobs: int) -> list:
    """``[worker(x) for x in items]``, in order, on at most
    min(jobs, len(items), cpu count) forked workers."""
    workers = min(jobs, len(items), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(x) for x in items]
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(workers) as pool:
        return pool.map(worker, items)


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
