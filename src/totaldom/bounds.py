"""Total-domination bounds, closed forms, and extremal-graph recognizers.

Each bound carries its applicability gate verbatim: a report for a graph
violating the gate is marked not applicable and never carries a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidFamily, NotATree, OutOfDomain, UndefinedValue
from .graph import Graph, StructuralProfile, component_masks, profile
from .vertexset import VertexSet

BOUND_IDS = (
    "cockayne_upper",
    "connected_upper",
    "n_over_delta_lower",
    "diam2_upper",
    "girth_upper",
)

_LOWER_BOUNDS = {"n_over_delta_lower"}


@dataclass(frozen=True)
class BoundReport:
    bound: str
    applicable: bool
    value: int | None
    tight: bool | None

    def to_json_dict(self) -> dict:
        return {
            "bound": self.bound,
            "applicable": self.applicable,
            "value": self.value,
            "tight": self.tight,
        }


def _report(bound: str, applicable: bool, value: int | None, exact: int | None) -> BoundReport:
    if not applicable:
        return BoundReport(bound, False, None, None)
    tight = None if exact is None else value == exact
    return BoundReport(bound, True, value, tight)


def all_bounds(
    g: Graph,
    exact: int | None = None,
    prof: StructuralProfile | None = None,
) -> list[BoundReport]:
    """Evaluate every bound on ``g``; ``exact`` (the true total domination
    number) switches on tightness flags."""
    prof = prof or profile(g)
    n = g.n
    max_deg, min_deg = prof.max_degree, prof.min_degree
    no_isolated = not prof.isolated
    reports = [
        _report(
            "cockayne_upper", no_isolated, n - max_deg + 1 if no_isolated else None, exact
        ),
        _report(
            "connected_upper",
            prof.is_connected and max_deg < n - 1,
            n - max_deg if prof.is_connected and max_deg < n - 1 else None,
            exact,
        ),
        _report(
            "n_over_delta_lower",
            no_isolated,
            -(-n // max_deg) if no_isolated else None,
            exact,
        ),
        _report(
            "diam2_upper",
            prof.diameter == 2,
            min_deg + 1 if prof.diameter == 2 else None,
            exact,
        ),
    ]
    girth_ok = math.isfinite(prof.girth) and prof.girth >= 5 and min_deg >= 2
    reports.append(
        _report(
            "girth_upper",
            girth_ok,
            n - math.ceil(prof.girth / 2) + 1 if girth_ok else None,
            exact,
        )
    )
    return reports


def path_cycle_formula(kind: str, n: int) -> int:
    """Closed-form total domination number of the path or cycle on n >= 3
    vertices: n/2 when n is divisible by 4, floor(n/2) + 1 otherwise."""
    if kind not in ("path", "cycle"):
        raise ValueError(f"kind must be 'path' or 'cycle', got {kind!r}")
    if n < 3:
        raise OutOfDomain(f"formula needs n >= 3, got {n}")
    return n // 2 if n % 4 == 0 else n // 2 + 1


@dataclass(frozen=True)
class CircularValue:
    """Total domination number of a circular complete graph, with a
    minimum total dominating set as witness."""

    n: int
    d: int
    value: int
    witness: VertexSet


def circular_gamma_t(n: int, d: int) -> CircularValue:
    """gamma_t of the circular complete graph on (n, d): ceil(n / Delta)
    with Delta = n - 2d + 1, for every n >= 2d.

    N(i) is the cyclic interval i+d .. i+n-d, of length Delta, so the graph
    is Delta-regular and gamma_t >= ceil(n / Delta). The k = ceil(n / Delta)
    vertices (j Delta - d) mod n, j < k, have neighbourhoods that tile Z_n,
    so k is reached. The witness is {0, 2d-1} when k = 2, {0, d, 2d-1} when
    k = 3 and n >= 3d, and that tiling set otherwise.
    """
    if d < 1 or n < 2 * d:
        raise InvalidFamily(f"requires d >= 1 and n >= 2d, got n={n}, d={d}")
    delta = n - 2 * d + 1
    k = -(-n // delta)
    if k == 2:
        members = [0, 2 * d - 1]
    elif k == 3 and n >= 3 * d:
        members = [0, d, 2 * d - 1]
    else:
        members = [(j * delta - d) % n for j in range(k)]
    return CircularValue(n, d, k, VertexSet.from_members(n, members))


@dataclass(frozen=True)
class StarMatchingShape:
    """Shape parameters of a star-plus-matching graph: one star with t leaves
    and r disjoint edges."""

    t: int
    r: int

    @property
    def n(self) -> int:
        return self.t + 1 + 2 * self.r


def _star_leaves(g: Graph, comp: int) -> int | None:
    """Leaf count if the component induces a star, else None."""
    size = comp.bit_count()
    if size < 2:
        return None
    center_seen = 0
    m = comp
    while m:
        low = m & -m
        v = low.bit_length() - 1
        m ^= low
        deg = g.adj_masks[v].bit_count()
        if deg == size - 1:
            center_seen += 1
        elif deg != 1:
            return None
    # size == 2 gives two degree-1 "centers"; larger stars exactly one
    if size == 2:
        return 1 if center_seen == 2 else None
    return size - 1 if center_seen == 1 else None


def recognize_star_plus_matching(g: Graph) -> StarMatchingShape | None:
    """Recognize graphs that are one star plus r disjoint edges.

    All-matching graphs (every component a single edge) canonicalize to
    t=1 with r = component count - 1. Any isolated vertex disqualifies.
    """
    shapes = []
    for comp in component_masks(g.adj_masks, g.n):
        leaves = _star_leaves(g, comp)
        if leaves is None:
            return None
        shapes.append(leaves)
    big = [t for t in shapes if t >= 2]
    if len(big) > 1:
        return None
    if big:
        return StarMatchingShape(t=big[0], r=len(shapes) - 1)
    return StarMatchingShape(t=1, r=len(shapes) - 1)


def achieves_extremal(g: Graph, exact: int) -> bool:
    """True iff the exact total domination number meets n - max_degree + 1."""
    if g.isolated_mask():
        raise UndefinedValue("total domination undefined: isolated vertex")
    return exact == g.n - max(g.degrees()) + 1


def is_extremal_tree(g: Graph, exact: int) -> bool:
    """Extremality test restricted to trees; coincides with being a star."""
    if g.m != g.n - 1 or not profile(g).is_connected:
        raise NotATree(f"graph with n={g.n}, m={g.m} is not a tree")
    return achieves_extremal(g, exact)
