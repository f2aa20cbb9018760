"""Claim-verification harness and family sweeps.

Each verifiable claim gets an exhaustive or swept domain; the harness runs
the exact solver over every instance and reports counterexamples (expected
none). Reports are deterministic: fixed seeds, canonical counterexample
order, and worker-count independence.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, islice, product
from typing import Callable, Iterable, Sequence

from .bounds import (
    all_bounds,
    circular_gamma_t,
    path_cycle_formula,
    recognize_star_plus_matching,
)
from .domination import gamma, gamma_t, is_total_dominating
from .errors import DomainTooLarge, ToolkitError
from .families import (
    SWEEP_BUDGET,
    FamilyKind,
    FamilySpec,
    _format_fraction,
    generate,
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

    @property
    def verdict(self) -> str:
        return "PASS" if not self.counterexamples else "FAIL"

    def to_json_dict(self, include_elapsed: bool = False) -> dict:
        out = {
            "theorem": self.theorem.value,
            "verdict": self.verdict,
            "instances": self.instances_checked,
            "counterexamples": self.counterexamples,
        }
        if include_elapsed:
            out["elapsed_ms"] = int(self.elapsed_seconds * 1000)
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


# claims whose scan domain is extended by the seeded random graphs
_RANDOM_GRAPH_CLAIMS = ("connected_upper", "diam2_upper", "girth_upper")


@lru_cache(maxsize=1)
def _random_graph_results(
    specs: tuple[FamilySpec, ...],
) -> dict[str, tuple[int, tuple[dict, ...]]]:
    """Instances checked and counterexamples of each random-graph claim over
    ``specs``. The public bound's gate and formula are evaluated on the
    structural profile: a route independent of the scan's fast gates. One
    pass generates, profiles and solves each graph once for all three arms,
    and only the results are kept."""
    counts = dict.fromkeys(_RANDOM_GRAPH_CLAIMS, 0)
    cex: dict[str, list[dict]] = {claim: [] for claim in _RANDOM_GRAPH_CLAIMS}
    for spec in specs:
        g = generate(spec)
        prof = profile(g)
        reports = [
            r for r in all_bounds(g, prof=prof) if r.bound in counts and r.applicable
        ]
        if not reports:
            continue
        try:
            gt = gamma_t(g).value
        except ToolkitError as exc:
            gt, error = None, str(exc)
        for report in reports:
            counts[report.bound] += 1
            if gt is None:
                detail = {"kind": "unverified", "error": error}
            elif gt <= report.value:
                continue
            else:
                detail = {"gamma_t": gt}
                if report.bound == "girth_upper":
                    detail["girth"] = int(prof.girth)
                detail["bound"] = report.value
            record = {"instance": {"family": str(spec)}, "detail": detail}
            cex[report.bound].append(record)
    return {claim: (counts[claim], tuple(cex[claim])) for claim in counts}


def _verify_bound_arm(
    theorem: TheoremId, scale: str, jobs: int
) -> tuple[str, int, list[dict]]:
    n_max = 6 if scale == "quick" else 7
    claim = theorem.value
    merged = scan_bound_claims(range(1, n_max + 1), (claim,), jobs)
    count, cex = merged[claim]
    if theorem is TheoremId.BIPARTITE_EXTREMAL:
        domain = (
            f"all labeled bipartite graphs without isolated vertices on n <= {n_max}, "
            "both directions of the extremal characterization"
        )
    else:
        domain = f"all labeled graphs on n <= {n_max} passing the hypothesis"
    if claim in _RANDOM_GRAPH_CLAIMS:
        extra, extra_cex = _random_graph_results(tuple(random_graph_specs()))[claim]
        count += extra
        cex = sorted(cex + list(extra_cex), key=_cex_sort_key)
        domain += ", plus 500 seeded random graphs on n <= 16"
    return domain, count, cex


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


def _scan_tree_chunk(args) -> tuple[int, list[dict]]:
    n, lo, hi = args
    full = (1 << n) - 1
    combos = _combos(n)
    checked = 0
    cex = []
    for seq in islice(product(range(n), repeat=n - 2), lo, hi):
        edges = prufer_decode(seq, n)
        adj = [0] * n
        for u, v in edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        delta_max = max(map(int.bit_count, adj))
        star = delta_max == n - 1
        gt = _total_cover_value(adj, full, combos)
        extremal = gt == n - delta_max + 1
        checked += 1
        if extremal != star:
            cex.append(
                {
                    "instance": {"n": n, "edges": _edge_list(adj, n)},
                    "detail": {"gamma_t": gt, "extremal": extremal, "star": star},
                }
            )
    return checked, cex


_TREE_CHUNK = 1 << 15


def _verify_tree_star(scale: str, jobs: int) -> tuple[str, int, list[dict]]:
    chunks = []
    for n in range(2, 9):
        total = n ** (n - 2)
        for lo in range(0, total, _TREE_CHUNK):
            chunks.append((n, lo, min(lo + _TREE_CHUNK, total)))
    results = _run_chunked(_scan_tree_chunk, chunks, jobs)
    count = sum(r[0] for r in results)
    cex = [record for r in results for record in r[1]]
    for spec in random_tree_specs():
        g = generate(spec)
        res = gamma_t(g)
        star = max(g.degrees()) == g.n - 1
        extremal = res.value == g.n - max(g.degrees()) + 1
        count += 1
        if extremal != star:
            cex.append(
                {
                    "instance": {"family": str(spec)},
                    "detail": {
                        "gamma_t": res.value,
                        "extremal": extremal,
                        "star": star,
                    },
                }
            )
    cex.sort(key=_cex_sort_key)
    domain = (
        "all labeled trees on 2 <= n <= 8 via exhaustive sequence decoding, "
        "plus 200 seeded random trees on n <= 16"
    )
    return domain, count, cex


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
            if cv.witness is None or not is_total_dominating(g, cv.witness):
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
    """Run one claim over its verification domain."""
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    t0 = time.perf_counter()
    if theorem.value in SCAN_CLAIMS:
        domain, count, cex = _verify_bound_arm(theorem, scale, jobs)
    elif theorem is TheoremId.PATH_CYCLE_FORMULA:
        domain, count, cex = _verify_path_cycle(scale)
    elif theorem is TheoremId.TREE_STAR:
        domain, count, cex = _verify_tree_star(scale, jobs)
    else:
        domain, count, cex = _verify_circular(theorem, scale)
    return VerificationReport(
        theorem=theorem,
        domain=domain,
        instances_checked=count,
        counterexamples=cex,
        elapsed_seconds=time.perf_counter() - t0,
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


def _sweep_row(spec: FamilySpec) -> dict[str, str]:
    g = generate(spec)
    res_t = gamma_t(g)
    exact = res_t.value if res_t is not None else None
    row = {
        "family": spec.kind.value,
        "n": str(g.n),
        "d": _fmt(spec.d),
        "t": _fmt(spec.t),
        "r": _fmt(spec.r),
        "p": "" if spec.p is None else _format_fraction(spec.p),
        "seed": _fmt(spec.seed),
        "gamma": str(gamma(g).value),
        "gamma_t": _fmt(exact),
    }
    for report in all_bounds(g, exact=exact):
        row[report.bound] = _fmt(report.value)
        row[f"{report.bound}_tight"] = _fmt(report.tight)
    # extremal means gamma_t == n - Delta + 1: the Cockayne bound is tight
    row["extremal"] = row["cockayne_upper_tight"]
    return row


def sweep(specs: Sequence[FamilySpec], jobs: int = 1) -> list[dict[str, str]]:
    """One row per instance, in spec order; raises on budget overrun."""
    if len(specs) > SWEEP_BUDGET:
        raise DomainTooLarge(
            f"sweep of {len(specs)} instances exceeds budget {SWEEP_BUDGET}"
        )
    return _run_chunked(_sweep_row, list(specs), jobs)


def sweep_csv(rows: Iterable[dict[str, str]]) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        lines.append(",".join(row.get(col, "") for col in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
