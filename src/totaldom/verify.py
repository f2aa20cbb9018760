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
* the labeled scan, ``scan_bound_claims``: a Gray-code walk over every
  labeled graph with its own fast gates, bitmap covers and inline bound
  formulas. It is the independent oracle the tests and the acceptance
  criteria compare against. The bound formulas therefore sit in two places,
  ``bounds.all_bounds`` and ``_scan_labeled_chunk``; that is the point of
  the second route, not a duplicate to fold away.
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
# prufer_decode is not called here: it stays importable from this module,
# where perfbench's traced run wraps it and counts its calls
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
# Bit S of a 2^n-bit int stands for the vertex set S, so a cover search is a
# few ANDs; a graph's rows packed n bits per vertex give its square in one int.


@lru_cache(maxsize=None)
def _subset_tables(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``(hits, layers)``: bit S of ``hits[a]`` is set when the vertex set S
    meets the mask a, and of ``layers[k]`` when S has k members."""
    subsets = range(1 << n)
    hits = tuple(sum(1 << s for s in subsets if s & a) for a in subsets)
    return hits, tuple(sum(1 << s for s in subsets if s.bit_count() == k) for k in range(n + 1))


def _min_hitting_set(masks, hits, layers) -> int:
    """Size of the smallest vertex set meeting every mask: gamma from the
    closed neighbourhoods, gamma_t from the open ones. The search runs
    upward from 1, never from a bound the scan checks."""
    sets = -1
    for m in masks:
        sets &= hits[m]
    k = 1
    while not layers[k] & sets:  # IndexError when no set meets every mask
        k += 1
    return k


# gamma_t from the open neighbourhoods, under a name of its own so that it can
# be replaced apart from gamma
_total_cover_value = _min_hitting_set


@lru_cache(maxsize=None)
def _square_tables(n: int) -> tuple[tuple[int, ...], int, int]:
    """``(spread, rep, all_ones)`` for n-bit blocks, one per vertex:
    ``spread[m]`` fills the blocks of the vertices of m, ``m * rep`` puts m
    in every block and ``all_ones`` fills them all."""
    block, rep = (1 << n) - 1, sum(1 << (n * v) for v in range(n))
    spread = tuple(sum(block << (n * v) for v in range(n) if m >> v & 1) for m in range(1 << n))
    return spread, rep, block * rep


def _square_gates(adj, packed, spread, rep, all_ones) -> tuple[bool, bool]:
    """``(diameter <= 2, has a triangle)`` of a graph without isolated
    vertices, from ``packed``, its rows one block per vertex.

    Block u of ``spread[a] & a * rep`` is a = N(v) when u is in N(v), so the
    OR over v is the square, N(N(u)) in block u, which holds u. Every vertex
    is within distance 2 of u when N(u) | N(N(u)) fills block u, and a
    neighbour of u in N(N(u)) closes a triangle."""
    sq = 0
    for a in adj:
        sq |= spread[a] & a * rep
    return (sq | packed) == all_ones, sq & packed != 0


def _girth_if_at_least_5(adj, n, deg) -> int | None:
    """Girth when finite and >= 5, else None (triangle, C4, or acyclic)."""
    for v in range(n):
        m = adj[v]
        while m:
            low = m & -m
            u = low.bit_length() - 1
            m ^= low
            if u > v and adj[u] & adj[v]:
                return None  # triangle
    for u in range(n):
        for v in range(u + 1, n):
            common = adj[u] & adj[v]
            if common & (common - 1):
                return None  # two common neighbors: a 4-cycle
    edges = sum(deg) // 2
    if edges < n - len(component_masks(adj, n)) + 1:
        return None  # forest
    g = girth_masks(adj, n)
    assert g >= 5
    return int(g)


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


def _scan_labeled_chunk(args) -> dict[str, tuple[int, list[dict]]]:
    """Walk labeled graphs on n vertices for edge-mask Gray-code indices
    [lo, hi) and evaluate the requested claims on each."""
    n, lo, hi, claims = args
    pairs = vertex_pairs(n)
    hits, layers = _subset_tables(n)
    spread, rep, all_ones = _square_tables(n)
    # the two packed bits of each pair, toggled with its edge
    pair_bits = [1 << (n * u + v) | 1 << (n * v + u) for u, v in pairs]
    checked = {c: 0 for c in claims}
    cex: dict[str, list[dict]] = {c: [] for c in claims}

    want_a = "cockayne_upper" in claims
    want_b = "connected_upper" in claims
    want_low = "n_over_delta_lower" in claims
    want_d2 = "diam2_upper" in claims
    want_gi = "girth_upper" in claims
    want_sw = "sandwich" in claims
    want_bip = "bipartite_extremal" in claims
    need_gt_if_no_iso = want_a or want_low or want_sw
    need_square = want_b or want_d2 or want_bip

    gray = lo ^ (lo >> 1)
    adj = adj_from_edge_mask(n, pairs, gray)
    closed = [a | 1 << v for v, a in enumerate(adj)]
    packed = sum(a << (n * v) for v, a in enumerate(adj))
    deg = [a.bit_count() for a in adj]
    zero_deg = deg.count(0)

    def fail(claim, detail):
        cex[claim].append({"instance": _labeled_instance(adj), "detail": detail})

    prev = gray
    for i in range(lo, hi):
        if i != lo:
            gray = i ^ (i >> 1)
            b = (gray ^ prev).bit_length() - 1
            prev = gray
            u, v = pairs[b]
            bit_u, bit_v = 1 << u, 1 << v
            packed ^= pair_bits[b]
            if gray >> b & 1:
                if deg[u] == 0:
                    zero_deg -= 1
                if deg[v] == 0:
                    zero_deg -= 1
                adj[u] |= bit_v
                adj[v] |= bit_u
                deg[u] += 1
                deg[v] += 1
            else:
                adj[u] &= ~bit_v
                adj[v] &= ~bit_u
                deg[u] -= 1
                deg[v] -= 1
                if deg[u] == 0:
                    zero_deg += 1
                if deg[v] == 0:
                    zero_deg += 1
            closed[u] ^= bit_v
            closed[v] ^= bit_u

        no_iso = zero_deg == 0
        delta_max = max(deg)
        gt = -1
        if no_iso and need_gt_if_no_iso:
            gt = _total_cover_value(adj, hits, layers)
        if no_iso and need_square:
            within_2, triangle = _square_gates(adj, packed, spread, rep, all_ones)

        if want_a and no_iso:
            checked["cockayne_upper"] += 1
            if gt > n - delta_max + 1:
                fail("cockayne_upper", {"gamma_t": gt, "bound": n - delta_max + 1})
        if want_low and no_iso:
            checked["n_over_delta_lower"] += 1
            lower = -(-n // delta_max)
            if gt < lower:
                fail("n_over_delta_lower", {"gamma_t": gt, "bound": lower})
        if want_sw and no_iso:
            checked["sandwich"] += 1
            gam = _min_hitting_set(closed, hits, layers)
            if not gam <= gt <= 2 * gam:
                fail("sandwich", {"gamma": gam, "gamma_t": gt})
        if want_bip and no_iso and not triangle and two_coloring_masks(adj, n) is not None:
            checked["bipartite_extremal"] += 1
            if gt == -1:
                gt = _total_cover_value(adj, hits, layers)
            extremal = gt == n - delta_max + 1
            star = recognize_star_plus_matching(_graph(adj)) is not None
            if extremal != star:
                detail = {"gamma_t": gt, "extremal": extremal, "star_plus_matching": star}
                fail("bipartite_extremal", detail)
        if want_b and delta_max < n - 1 and no_iso and (within_2 or is_connected_masks(adj, n)):
            checked["connected_upper"] += 1
            if gt == -1:
                gt = _total_cover_value(adj, hits, layers)
            if gt > n - delta_max:
                fail("connected_upper", {"gamma_t": gt, "bound": n - delta_max})
        # diameter exactly 2: within distance 2 and not complete
        if want_d2 and no_iso and within_2 and min(deg) < n - 1:
            checked["diam2_upper"] += 1
            if gt == -1:
                gt = _total_cover_value(adj, hits, layers)
            if gt > min(deg) + 1:
                fail("diam2_upper", {"gamma_t": gt, "bound": min(deg) + 1})
        if want_gi and no_iso and min(deg) >= 2:
            girth = _girth_if_at_least_5(adj, n, deg)
            if girth is not None:
                checked["girth_upper"] += 1
                if gt == -1:
                    gt = _total_cover_value(adj, hits, layers)
                bound = n - (girth + 1) // 2 + 1
                if gt > bound:
                    fail("girth_upper", {"gamma_t": gt, "girth": girth, "bound": bound})
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
