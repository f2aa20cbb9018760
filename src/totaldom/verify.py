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
  labeled graph with its own fast gates, value-only covers and inline bound
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
from itertools import combinations
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
    SWEEP_BUDGET,
    FamilyKind,
    FamilySpec,
    _format_fraction,
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


# -- fast value-only solver for enumeration hot paths --------------------------


@lru_cache(maxsize=None)
def _combos(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    return tuple(
        tuple(combinations(range(n), k)) for k in range(1, n + 1)
    )


def _cover_value(cover, full, combos, covered=0) -> int:
    """Minimum number of cover sets whose union with the start mask
    ``covered`` is full (0 when ``covered`` already is); same subset order
    as the exhaustive solver strategy."""
    if covered == full:
        return 0
    for group in combos:
        for c in group:
            u = covered
            for v in c:
                u |= cover[v]
            if u == full:
                return len(c)
    raise AssertionError("input not coverable")


def _total_cover_value(adj, full, combos) -> int:
    """gamma_t of a graph without isolated vertices, from its open
    neighbourhoods ``adj``.

    Support-vertex rule: the only neighbour of a degree-1 vertex is in every
    total dominating set, so those supports are taken first and the subset
    search covers what they leave. gamma does not use the rule: in K2 both
    vertices are leaves, and forcing both is right for gamma_t(K2) = 2 but
    wrong for gamma(K2) = 1."""
    forced = covered = 0
    for a in adj:
        if not a & (a - 1):
            forced |= a
            covered |= adj[a.bit_length() - 1]
    return forced.bit_count() + _cover_value(adj, full, combos, covered)


def _diameter_is_2(adj, n, full) -> bool:
    saw_non_complete = False
    for v in range(n):
        reach = adj[v] | (1 << v)
        if reach != full:
            saw_non_complete = True
        m = adj[v]
        while m:
            low = m & -m
            reach |= adj[low.bit_length() - 1]
            m ^= low
        if reach != full:
            return False
    return saw_non_complete


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


def _edge_list(adj, n) -> list[list[int]]:
    out = []
    for u in range(n):
        rest = adj[u] >> (u + 1) << (u + 1)
        while rest:
            low = rest & -rest
            out.append([u, low.bit_length() - 1])
            rest ^= low
    return out


def _cex_sort_key(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


# -- labeled-graph scan (shared by the bound arms and the acceptance gate) -----

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
    full = (1 << n) - 1
    combos = _combos(n)
    checked = {c: 0 for c in claims}
    cex: dict[str, list[dict]] = {c: [] for c in claims}

    want_a = "cockayne_upper" in claims
    want_b = "connected_upper" in claims
    want_low = "n_over_delta_lower" in claims
    want_d2 = "diam2_upper" in claims
    want_gi = "girth_upper" in claims
    want_sw = "sandwich" in claims
    want_bip = "bipartite_extremal" in claims
    need_gt_if_no_iso = want_a or want_low or want_sw or want_bip

    adj = [0] * n
    deg = [0] * n
    gray = lo ^ (lo >> 1)
    m = gray
    while m:
        low = m & -m
        u, v = pairs[low.bit_length() - 1]
        adj[u] |= 1 << v
        adj[v] |= 1 << u
        deg[u] += 1
        deg[v] += 1
        m ^= low
    zero_deg = deg.count(0)

    def fail(claim, detail):
        cex[claim].append(
            {"instance": {"n": n, "edges": _edge_list(adj, n)}, "detail": detail}
        )

    prev = gray
    for i in range(lo, hi):
        if i != lo:
            gray = i ^ (i >> 1)
            b = (gray ^ prev).bit_length() - 1
            prev = gray
            u, v = pairs[b]
            bit_u, bit_v = 1 << u, 1 << v
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

        no_iso = zero_deg == 0
        delta_max = max(deg)
        gt = -1
        if no_iso and need_gt_if_no_iso:
            gt = _total_cover_value(adj, full, combos)

        if want_a and no_iso:
            checked["cockayne_upper"] += 1
            if gt > n - delta_max + 1:
                fail(
                    "cockayne_upper",
                    {"gamma_t": gt, "bound": n - delta_max + 1},
                )
        if want_low and no_iso:
            checked["n_over_delta_lower"] += 1
            lower = -(-n // delta_max)
            if gt < lower:
                fail("n_over_delta_lower", {"gamma_t": gt, "bound": lower})
        if want_sw and no_iso:
            checked["sandwich"] += 1
            closed = [adj[v2] | (1 << v2) for v2 in range(n)]
            gam = _cover_value(closed, full, combos)
            if not gam <= gt <= 2 * gam:
                fail("sandwich", {"gamma": gam, "gamma_t": gt})
        if want_bip and no_iso:
            coloring = two_coloring_masks(adj, n)
            if coloring is not None:
                checked["bipartite_extremal"] += 1
                extremal = gt == n - delta_max + 1
                g = Graph.__new__(Graph)
                g.n = n
                g.adj_masks = tuple(adj)
                shape = recognize_star_plus_matching(g)
                if extremal != (shape is not None):
                    fail(
                        "bipartite_extremal",
                        {
                            "gamma_t": gt,
                            "extremal": extremal,
                            "star_plus_matching": shape is not None,
                        },
                    )
        if want_b:
            if delta_max < n - 1 and no_iso and is_connected_masks(adj, n):
                checked["connected_upper"] += 1
                if gt == -1:
                    gt = _total_cover_value(adj, full, combos)
                if gt > n - delta_max:
                    fail(
                        "connected_upper", {"gamma_t": gt, "bound": n - delta_max}
                    )
        if want_d2:
            if no_iso and _diameter_is_2(adj, n, full):
                checked["diam2_upper"] += 1
                if gt == -1:
                    gt = _total_cover_value(adj, full, combos)
                if gt > min(deg) + 1:
                    fail("diam2_upper", {"gamma_t": gt, "bound": min(deg) + 1})
        if want_gi:
            if no_iso and min(deg) >= 2:
                girth = _girth_if_at_least_5(adj, n, deg)
                if girth is not None:
                    checked["girth_upper"] += 1
                    if gt == -1:
                        gt = _total_cover_value(adj, full, combos)
                    bound = n - (girth + 1) // 2 + 1
                    if gt > bound:
                        fail(
                            "girth_upper",
                            {"gamma_t": gt, "girth": girth, "bound": bound},
                        )
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
    {claim: (instances_checked, sorted counterexamples)}."""
    for c in claims:
        if c not in SCAN_CLAIMS:
            raise ValueError(f"unknown claim {c!r}")
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


# -- per-theorem arms -----------------------------------------------------------
#
# The class route: the scan claims and tree_star are invariant under
# relabelling, so each is evaluated once per isomorphism class through the
# public API and counted n!/|Aut| times (the class's labelings). The seeded
# random graphs and trees go through the same evaluator with weight 1.


class _Tally(NamedTuple):
    """One claim over one domain."""

    instances: int  # weighted: labelings of the graphs passing the hypothesis
    graphs: int  # graphs passing it: isomorphism classes on the class route
    tight: int  # weighted instances at which the claim's bound is attained
    counterexamples: tuple[dict, ...]  # sorted by _cex_sort_key


def _graph(adj: Sequence[int]) -> Graph:
    g = Graph.__new__(Graph)
    g.n = len(adj)
    g.adj_masks = tuple(adj)
    return g


def _evaluate(g: Graph, claims: Sequence[str]) -> dict[str, tuple[bool, dict | None]]:
    """For each of ``claims`` whose hypothesis ``g`` meets: whether the bound
    is attained, and the counterexample detail (None when the claim holds).

    Gates, bounds and tightness come from ``profile`` and ``all_bounds``,
    values from ``gamma_t`` and ``gamma``. The attained bound is the
    Cockayne bound for bipartite_extremal and tree_star (the extremal
    graphs) and gamma_t = 2 gamma for sandwich. tree_star assumes ``g`` is
    a tree."""
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
    reports = {r.bound: r for r in all_bounds(g, exact=gt, prof=prof)}
    extremal = reports["cockayne_upper"].tight
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
            out[claim] = (r.tight, detail)
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


def _tally(domain: Iterable, claims: Sequence[str]) -> dict[str, _Tally]:
    """Evaluate ``claims`` on every ``(graph, weight, instances)`` of
    ``domain``. A failing graph adds one record per instance that
    ``instances()`` lists."""
    acc = {c: [0, 0, 0, []] for c in claims}  # the fields of _Tally
    for g, weight, instances in domain:
        for claim, (tight, detail) in _evaluate(g, claims).items():
            a = acc[claim]
            a[0] += weight
            a[1] += 1
            a[2] += weight if tight else 0
            if detail is not None:
                a[3].extend(
                    {"instance": inst, "detail": dict(detail)} for inst in instances()
                )
    return {
        c: _Tally(a[0], a[1], a[2], tuple(sorted(a[3], key=_cex_sort_key)))
        for c, a in acc.items()
    }


def _labeled_instances(adj: tuple[int, ...]) -> list[dict]:
    n = len(adj)
    return [{"n": n, "edges": _edge_list(a, n)} for a in labelings(adj)]


def _class_domain(n_values: Iterable[int], trees: bool = False) -> Iterator:
    """Every isomorphism class of graphs (or trees) on each n, weighted by
    its labelings; a counterexample lists every labeling."""
    for n in n_values:
        for adj, weight in isomorphism_classes(n, trees):
            yield _graph(adj), weight, partial(_labeled_instances, adj)


def _spec_domain(specs: Iterable[FamilySpec]) -> Iterator:
    for spec in specs:
        yield generate(spec), 1, lambda name=str(spec): [{"family": name}]


# claims whose class domain is extended by the seeded random graphs
_RANDOM_GRAPH_CLAIMS = ("connected_upper", "diam2_upper", "girth_upper")


@lru_cache(maxsize=1)
def _random_graph_results(specs: tuple[FamilySpec, ...]) -> dict[str, _Tally]:
    """The random-graph claims over ``specs``. One pass generates, profiles
    and solves each graph once for all three arms, and only the results are
    kept."""
    return _tally(_spec_domain(specs), _RANDOM_GRAPH_CLAIMS)


def _verify_class_arm(theorem: TheoremId, scale: str) -> tuple[str, _Tally]:
    """Domain text and the claim's tally over the isomorphism classes plus
    the seeded random instances; ``graphs`` counts the classes alone."""
    claim = theorem.value
    if theorem is TheoremId.TREE_STAR:
        tally = _tally(_class_domain(range(2, 9), trees=True), (claim,))[claim]
        extra = _tally(_spec_domain(random_tree_specs()), (claim,))[claim]
        domain = (
            "all free trees on 2 <= n <= 8, each weighted by its labelings, "
            "plus 200 seeded random trees on n <= 16"
        )
    else:
        n_max = 6 if scale == "quick" else 7
        tally = _tally(_class_domain(range(1, n_max + 1)), (claim,))[claim]
        extra = None
        if theorem is TheoremId.BIPARTITE_EXTREMAL:
            domain = (
                f"all bipartite graphs without isolated vertices on n <= {n_max}, "
                "both directions of the extremal characterization"
            )
        else:
            domain = f"all graphs on n <= {n_max} passing the hypothesis"
        domain += ", one isomorphism class at a time, weighted by its labelings"
        if claim in _RANDOM_GRAPH_CLAIMS:
            extra = _random_graph_results(tuple(random_graph_specs()))[claim]
            domain += ", plus 500 seeded random graphs on n <= 16"
    if extra is not None:
        tally = _Tally(
            tally.instances + extra.instances,
            tally.graphs,
            tally.tight + extra.tight,
            tuple(sorted(tally.counterexamples + extra.counterexamples, key=_cex_sort_key)),
        )
    return domain, tally


def _verify_path_cycle(scale: str) -> tuple[str, int, list[dict]]:
    n_max = 20 if scale == "quick" else 24
    count = 0
    cex = []
    for n in range(3, n_max + 1):
        for kind in ("path", "cycle"):
            spec = FamilySpec(kind=FamilyKind(kind), n=n)
            g = generate(spec)
            expected = path_cycle_formula(kind, n)
            got = gamma_t(g).value
            count += 1
            if got != expected:
                cex.append(
                    {
                        "instance": {"family": str(spec)},
                        "detail": {"formula": expected, "solver": got},
                    }
                )
    cex.sort(key=_cex_sort_key)
    return f"paths and cycles, 3 <= n <= {n_max}, closed form vs exact solver", count, cex


def _verify_circular(theorem: TheoremId, scale: str) -> tuple[str, int, list[dict]]:
    d_max = 6 if scale == "quick" else 8
    n_cap = 36 if scale == "quick" else 48
    expected = 2 if theorem is TheoremId.CIRCULAR_TWO else 3
    count = 0
    cex = []
    for d in range(3, d_max + 1):
        if theorem is TheoremId.CIRCULAR_TWO:
            n_range = range(4 * d - 2, n_cap + 1)
        else:
            n_range = range(3 * d, min(4 * d - 3, n_cap) + 1)
        for n in n_range:
            count += 1
            spec = FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d)
            g = generate(spec)
            cv = circular_gamma_t(n, d)
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
            if detail:
                detail["expected"] = expected
                cex.append({"instance": {"family": str(spec)}, "detail": detail})
    cex.sort(key=_cex_sort_key)
    domain = (
        f"circular complete grid, d in 3..{d_max}, "
        + ("n >= 4d-2" if expected == 2 else "3d <= n <= 4d-3")
        + f", n <= {n_cap}; closed form and witness vs exact solver"
    )
    return domain, count, cex


def verify(theorem: TheoremId, scale: str = "quick", jobs: int = 1) -> VerificationReport:
    """Run one claim over its verification domain. Every domain is
    evaluated in-process, so ``jobs`` is accepted and not used."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    t0 = time.perf_counter()
    classes = tight = None
    if theorem.value in SCAN_CLAIMS or theorem is TheoremId.TREE_STAR:
        domain, tally = _verify_class_arm(theorem, scale)
        count, cex = tally.instances, list(tally.counterexamples)
        classes, tight = tally.graphs, tally.tight
    elif theorem is TheoremId.PATH_CYCLE_FORMULA:
        domain, count, cex = _verify_path_cycle(scale)
    else:
        domain, count, cex = _verify_circular(theorem, scale)
    return VerificationReport(
        theorem=theorem,
        domain=domain,
        instances_checked=count,
        counterexamples=cex,
        elapsed_seconds=time.perf_counter() - t0,
        classes=classes,
        tight=tight,
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
