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
  and counted n!/|Aut| times; a failing class expands into every labeling;
* the labeled scan, ``scan_bound_claims``: a walk over every labeled graph
  as a graph H on the first n - 1 vertices plus the neighbourhood of the
  last one, with its own gates and covers, worked out once per H as
  bitmaps, and inline bound formulas. It is the independent oracle the
  tests and the acceptance criteria compare against. The bound formulas
  therefore sit in two places, ``bounds.all_bounds`` and
  ``_scan_labeled_chunk``; that is the point of the second route, not a
  duplicate to fold away.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .bounds import (
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
        """The fields ``--stats`` adds: elapsed milliseconds, and the class
        and tightness counts where the claim has them."""
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
# graph H on the vertices below w = n - 1, joined to w by the neighbourhood S.
# What depends on H alone is worked out once per H, as bitmaps over S (bit S
# stands for the graph H + (w, S)) and as cover tables over the vertex sets D
# of G (bit D stands for D), so that each graph costs a few bit tests and ANDs.


class _SubsetTables(NamedTuple):
    """Bitmaps over the vertex sets S of n vertices, one bit per S: bit S of
    ``meets[a]`` is set when S meets the mask a, of ``contains[a]`` when S
    holds a, of ``inside[a]`` when S lies inside a, and of ``layers[k]``
    when S has k members."""

    meets: tuple[int, ...]
    contains: tuple[int, ...]
    inside: tuple[int, ...]
    layers: tuple[int, ...]


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> _SubsetTables:
    subsets = range(1 << n)

    def bitmap(test) -> int:
        return sum(1 << s for s in subsets if test(s))

    return _SubsetTables(
        tuple(bitmap(lambda s: s & a) for a in subsets),
        tuple(bitmap(lambda s: s & a == a) for a in subsets),
        tuple(bitmap(lambda s: s & ~a == 0) for a in subsets),
        tuple(bitmap(lambda s: s.bit_count() == k) for k in range(n + 1)),
    )


def _min_hitting_set(sets: int, layers: Sequence[int]) -> int:
    """Size of the smallest vertex set among ``sets``, the bitmap of the sets
    meeting every (closed) neighbourhood: gamma, or gamma_t from the open
    neighbourhoods. The search runs upward from 1, never from a bound the
    scan checks."""
    k = 1
    while not layers[k] & sets:  # IndexError when no set meets every mask
        k += 1
    return k


# gamma_t, under a name of its own so that it can be replaced apart from gamma
_total_cover_value = _min_hitting_set


class _Extensions(NamedTuple):
    """What the graphs G = H + (w, S) share, for one graph H on the m = n - 1
    vertices below w. G has no isolated vertex when S != 0 holds
    ``isolated``; Delta(G) = max(|S|, ``dmax`` + [S meets ``top``]) and
    delta(G) = min(|S|, ``dmin`` + [S holds ``bottom``]).

    Covers: ``hits[S] & open_low[S & low] & open_high[S >> half]`` is the
    bitmap of the vertex sets of G meeting every open neighbourhood, the
    same with ``hits[S | w]`` and the closed tables every closed one, where
    ``hits`` is ``_subset_tables(n).meets``, ``half = m // 2`` and ``low``
    its mask: the open and closed neighbourhoods of the vertices below
    ``half`` in G depend on S & low only, the others on S >> half only.

    Gates, bit S set when G = H + (w, S) has the property:

    * ``triangle``: H has a triangle, or S holds an edge of H;
    * ``within_2``, every two vertices at distance <= 2: S dominates H and
      holds every non-adjacent pair of H without a common neighbour;
    * ``connected``: S meets every component of H;
    * ``bipartite``: H is bipartite and, in each component, S lies inside
      one side."""

    isolated: int
    dmax: int
    top: int
    dmin: int
    bottom: int
    open_low: list[int]
    open_high: list[int]
    closed_low: list[int]
    closed_high: list[int]
    triangle: int
    within_2: int
    connected: int
    bipartite: int


def _extensions(adj: Sequence[int], hits: Sequence[int], sub: _SubsetTables) -> _Extensions:
    """The ``_Extensions`` of the graph H with rows ``adj``, from the cover
    table ``hits`` of n = len(adj) + 1 vertices and the subset tables
    ``sub`` of len(adj)."""
    m = len(adj)
    w = 1 << m
    deg = [a.bit_count() for a in adj]
    dmax, dmin = max(deg, default=0), min(deg, default=0)

    def having(degree: int) -> int:
        return sum(1 << v for v, d in enumerate(deg) if d == degree)

    def table(rows: Sequence[int]) -> list[int]:
        # by doubling: bit j of the index says whether the vertex of rows[j] is in S
        out = [-1]
        for a in rows:
            without, with_w = hits[a], hits[a | w]
            out = [x & without for x in out] + [x & with_w for x in out]
        return out

    closed = [a | 1 << v for v, a in enumerate(adj)]
    half = m // 2

    meets, contains, inside = sub.meets, sub.contains, sub.inside
    every = contains[0]
    triangle, within_2 = 0, every
    for v in range(m):
        within_2 &= meets[closed[v]]  # v within distance 2 of w
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
        for c in components:
            rest = (w - 1) & ~c
            bipartite &= inside[rest | sides[0] & c] | inside[rest | sides[1] & c]
    return _Extensions(
        having(0), dmax, having(dmax), dmin, having(dmin),
        table(adj[:half]), table(adj[half:]), table(closed[:half]), table(closed[half:]),
        triangle, within_2, connected, bipartite,
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


def _graph(adj: Sequence[int]) -> Graph:
    g = Graph.__new__(Graph)
    g.n = len(adj)
    g.adj_masks = tuple(adj)
    return g


def _labeled_instance(adj: Sequence[int]) -> dict:
    return {"n": len(adj), "edges": [list(e) for e in _graph(adj).edges()]}


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


def _scan_labeled_chunk(args) -> dict[str, tuple[int, list[dict]]]:
    """Evaluate the requested claims on the labeled graphs on n vertices with
    index i in [lo, hi): the graph H + (w, S) for the graph H with edge mask
    i >> (n - 1) over ``vertex_pairs(n - 1)`` and S = i & (2^(n-1) - 1).
    Graphs with an isolated vertex are skipped, as every claim excludes them."""
    n, lo, hi, claims = args
    m = n - 1
    w = 1 << m
    pairs = vertex_pairs(m)
    hits, _, _, layers = _subset_tables(n)
    sub = _subset_tables(m)
    half, low = m // 2, (1 << m // 2) - 1
    # the neighbourhoods S of w, nonempty, holding each mask of H's isolated vertices
    holding = [[s for s in range(1, w) if s & iso == iso] for iso in range(w)]
    checked = {c: 0 for c in claims}
    cex: dict[str, list[dict]] = {c: [] for c in claims}

    want_a = "cockayne_upper" in claims
    want_b = "connected_upper" in claims
    want_low = "n_over_delta_lower" in claims
    want_d2 = "diam2_upper" in claims
    want_gi = "girth_upper" in claims
    want_sw = "sandwich" in claims
    want_bip = "bipartite_extremal" in claims
    # the claims whose hypothesis is only "no isolated vertex"
    always = [c for c in ("cockayne_upper", "n_over_delta_lower", "sandwich") if c in claims]
    need_gt = bool(always)
    want_dmin = want_d2 or want_gi

    def total_cover(s):  # gamma_t of H + (w, S)
        return _total_cover_value(hits[s] & open_low[s & low] & open_high[s >> half], layers)

    def fail(claim, s, detail):
        instance = _labeled_instance(_extend(adj, s))
        cex[claim].append({"instance": instance, "detail": detail})

    for h in range(lo >> m, hi >> m):
        adj = adj_from_edge_mask(m, pairs, h)
        (
            isolated, dmax, top, dmin, bottom,
            open_low, open_high, closed_low, closed_high,
            triangle, within_2, connected, bipartite,
        ) = _extensions(adj, hits, sub)
        neighbourhoods = holding[isolated]
        for claim in always:
            checked[claim] += len(neighbourhoods)
        for s in neighbourhoods:
            size = s.bit_count()
            delta_max = dmax + 1 if s & top else dmax
            if size > delta_max:
                delta_max = size
            gt = total_cover(s) if need_gt else -1

            if want_a and gt > n - delta_max + 1:
                fail("cockayne_upper", s, {"gamma_t": gt, "bound": n - delta_max + 1})
            if want_low and gt * delta_max < n:  # gt < ceil(n / delta_max)
                fail("n_over_delta_lower", s, {"gamma_t": gt, "bound": -(-n // delta_max)})
            if want_sw:
                sets = hits[s | w] & closed_low[s & low] & closed_high[s >> half]
                gam = _min_hitting_set(sets, layers)
                if not gam <= gt <= 2 * gam:
                    fail("sandwich", s, {"gamma": gam, "gamma_t": gt})
            if want_bip and bipartite >> s & 1:
                checked["bipartite_extremal"] += 1
                if gt == -1:
                    gt = total_cover(s)
                extremal = gt == n - delta_max + 1
                star = recognize_star_plus_matching(_graph(_extend(adj, s))) is not None
                if extremal != star:
                    detail = {"gamma_t": gt, "extremal": extremal, "star_plus_matching": star}
                    fail("bipartite_extremal", s, detail)
            if want_b and delta_max < m and connected >> s & 1:
                checked["connected_upper"] += 1
                if gt == -1:
                    gt = total_cover(s)
                if gt > n - delta_max:
                    fail("connected_upper", s, {"gamma_t": gt, "bound": n - delta_max})
            if not want_dmin:
                continue
            delta_min = dmin + 1 if s & bottom == bottom else dmin
            if size < delta_min:
                delta_min = size
            # diameter exactly 2: within distance 2 and not complete
            if want_d2 and delta_min < m and within_2 >> s & 1:
                checked["diam2_upper"] += 1
                if gt == -1:
                    gt = total_cover(s)
                if gt > delta_min + 1:
                    fail("diam2_upper", s, {"gamma_t": gt, "bound": delta_min + 1})
            if want_gi and delta_min >= 2 and not triangle >> s & 1:
                girth = _girth_if_at_least_5(_extend(adj, s), n)
                if girth is not None:
                    checked["girth_upper"] += 1
                    if gt == -1:
                        gt = total_cover(s)
                    bound = n - (girth + 1) // 2 + 1
                    if gt > bound:
                        fail("girth_upper", s, {"gamma_t": gt, "girth": girth, "bound": bound})
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
    """Evaluate bound claims over every labeled graph on each n. Returns
    {claim: (instances_checked, sorted counterexamples)}. Raises
    DomainTooLarge, before any chunk is built, for an n outside
    1..ENUMERATION_MAX_N."""
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
            chunks.append((n, lo, min(lo + _SCAN_CHUNK, total), tuple(claims)))
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
    counterexamples: tuple[dict, ...]  # sorted by _cex_sort_key


# what a check returns: claim -> (bound attained, counterexample detail or None)
_Results = dict[str, tuple[bool, dict | None]]
# what a row returns: domain text, class-part tally (None for closed forms), other tallies
_Row = tuple[str, _Tally | None, list[_Tally]]


def _evaluate(g: Graph, claims: Sequence[str], spec: FamilySpec | None) -> _Results:
    """The results of the ``claims`` whose hypothesis ``g`` meets. ``spec``
    is not read: these claims depend on the graph alone.

    Gates and bounds come from ``profile`` and ``all_bounds``, values from
    ``gamma_t`` and ``gamma``. The attained bound is the Cockayne bound for
    bipartite_extremal and tree_star (the extremal graphs) and
    gamma_t = 2 gamma for sandwich. tree_star assumes ``g`` is a tree."""
    prof = profile(g)
    if prof.isolated:  # every claim's hypothesis excludes isolated vertices
        return {}
    reports = {r.bound: r for r in all_bounds(g, prof=prof)}
    claims = [
        c
        for c in claims
        if (
            reports[c].applicable
            if c in reports
            else c != "bipartite_extremal" or prof.bipartition is not None
        )
    ]
    if not claims:
        return {}
    try:
        gt = gamma_t(g).value
    except ToolkitError as exc:
        return {c: (False, {"kind": "unverified", "error": str(exc)}) for c in claims}
    extremal = gt == reports["cockayne_upper"].value
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
        else:
            if claim == "bipartite_extremal":
                key, shape = "star_plus_matching", recognize_star_plus_matching(g) is not None
            else:
                key, shape = "star", prof.max_degree == g.n - 1
            detail = {"gamma_t": gt, "extremal": extremal, key: shape}
            out[claim] = (extremal, None if extremal == shape else detail)
    return out


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
    of ``domain``. A failing graph adds one record per instance: its family,
    or every labeling of an isomorphism class (spec None)."""
    acc = {c: [0, 0, 0, []] for c in claims}  # the fields of _Tally
    for g, weight, spec in domain:
        for claim, (tight, detail) in check(g, claims, spec).items():
            a = acc[claim]
            a[0] += weight
            a[1] += 1
            a[2] += weight if tight else 0
            if detail is not None:
                if spec is None:
                    instances = map(_labeled_instance, labelings(g.adj_masks))
                else:
                    instances = [{"family": str(spec)}]
                a[3].extend({"instance": i, "detail": dict(detail)} for i in instances)
    return {
        c: _Tally(a[0], a[1], a[2], tuple(sorted(a[3], key=_cex_sort_key)))
        for c, a in acc.items()
    }


def _class_domain(n_values: Iterable[int], trees: bool = False) -> Iterator:
    """Each isomorphism class of graphs (or trees) on each n, weighted by its labelings."""
    for n in n_values:
        for adj, weight in isomorphism_classes(n, trees):
            yield _graph(adj), weight, None


def _spec_domain(specs: Iterable[FamilySpec]) -> Iterator:
    for spec in specs:
        yield generate(spec), 1, spec


# claims whose class domain is extended by the seeded random graphs
_RANDOM_GRAPH_CLAIMS = ("connected_upper", "diam2_upper", "girth_upper")


@lru_cache(maxsize=1)
def _random_graph_results(specs: tuple[FamilySpec, ...]) -> dict[str, _Tally]:
    """The random-graph claims over ``specs``: one pass generates, profiles
    and solves each graph once for all three rows, and keeps only the results."""
    return _tally(_spec_domain(specs), _RANDOM_GRAPH_CLAIMS)


def _graph_row(graphs: str, claim: str, scale: str) -> _Row:
    n_max = 6 if scale == "quick" else 7
    domain = graphs.format(n_max)
    domain += ", one isomorphism class at a time, weighted by its labelings"
    extra = []
    if claim in _RANDOM_GRAPH_CLAIMS:
        domain += ", plus 500 seeded random graphs on n <= 16"
        extra.append(_random_graph_results(tuple(random_graph_specs()))[claim])
    return domain, _tally(_class_domain(range(1, n_max + 1)), [claim])[claim], extra


def _tree_star_row(claim: str, scale: str) -> _Row:
    return (
        "all free trees on 2 <= n <= 8, each weighted by its labelings, "
        "plus 200 seeded random trees on n <= 16",
        _tally(_class_domain(range(2, 9), trees=True), [claim])[claim],
        [_tally(_spec_domain(random_tree_specs()), [claim])[claim]],
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
    """Run one claim over its verification domain. Every domain is
    evaluated in-process, so ``jobs`` is accepted and not used."""
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
