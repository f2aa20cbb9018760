"""Total-domination bounds, closed forms, and extremal-graph recognizers.

Each bound is stated once, in ``_FORMULAS``: the class route (``all_bounds``,
``achieves_extremal``) and the labeled scan of ``verify`` both read it, and
``tests/test_bounds.py`` pins every formula to the paper's values. Each bound
carries its applicability gate verbatim: a report for a graph violating the
gate is marked not applicable and never carries a value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from .errors import InvalidFamily, NotATree, OutOfDomain, UndefinedValue
from .graph import Graph, StructuralProfile, is_connected_masks, profile
from .vertexset import VertexSet


class _Formula(NamedTuple):
    """A bound on gamma_t: the ``StructuralProfile`` field p it reads, its
    value as a function of (n, p), and whether it bounds from above. The
    first is Cockayne et al.'s n - Delta + 1; -(-n // d) is ceil(n / d) and
    (g + 1) // 2 is ceil(g / 2). ``all_bounds`` states where each applies."""

    parameter: str
    formula: Callable[[int, int], int]
    upper: bool


_FORMULAS = {
    "cockayne_upper": _Formula("max_degree", lambda n, d: n - d + 1, True),
    "connected_upper": _Formula("max_degree", lambda n, d: n - d, True),
    "n_over_delta_lower": _Formula("max_degree", lambda n, d: -(-n // d), False),
    "diam2_upper": _Formula("min_degree", lambda n, d: d + 1, True),
    "girth_upper": _Formula("girth", lambda n, g: n - (g + 1) // 2 + 1, True),
}

BOUND_IDS = tuple(_FORMULAS)


class BoundReport(NamedTuple):
    bound: str
    applicable: bool
    value: int | None
    tight: bool | None

    def to_json_dict(self) -> dict:
        return self._asdict()


def all_bounds(
    g: Graph,
    exact: int | None = None,
    prof: StructuralProfile | None = None,
) -> list[BoundReport]:
    """Evaluate every bound on ``g``, in ``BOUND_IDS`` order; ``exact`` (the
    true total domination number) switches on tightness flags."""
    prof = prof or profile(g)
    applies = {
        "cockayne_upper": not prof.isolated,
        "connected_upper": prof.is_connected and prof.max_degree < g.n - 1,
        "n_over_delta_lower": not prof.isolated,
        "diam2_upper": prof.diameter == 2,
        "girth_upper": math.isfinite(prof.girth) and prof.girth >= 5 and prof.min_degree >= 2,
    }
    reports = []
    for bound, (parameter, formula, _) in _FORMULAS.items():
        value = formula(g.n, getattr(prof, parameter)) if applies[bound] else None
        tight = None if value is None or exact is None else value == exact
        reports.append(BoundReport(bound, applies[bound], value, tight))
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


def recognize_star_plus_matching(g: Graph) -> StarMatchingShape | None:
    """Recognize graphs that are one star plus r disjoint edges, by degrees.

    The shape holds exactly when no vertex has degree 0 and at most one has
    degree >= 2: every neighbour of that centre is then a leaf, and every
    other vertex is a leaf whose neighbour is a leaf too, so the rest is a
    perfect matching. All-matching graphs (every degree 1) canonicalize to
    t=1 with r = component count - 1.
    """
    degs = g.degrees()
    if min(degs) == 0 or sum(d >= 2 for d in degs) > 1:
        return None
    t = max(degs)
    return StarMatchingShape(t=t, r=(g.n - t - 1) // 2)


def achieves_extremal(g: Graph, exact: int) -> bool:
    """True iff the exact total domination number meets n - max_degree + 1."""
    if g.isolated_mask():
        raise UndefinedValue("total domination undefined: isolated vertex")
    return exact == _FORMULAS["cockayne_upper"].formula(g.n, max(g.degrees()))


def is_extremal_tree(g: Graph, exact: int) -> bool:
    """Extremality test restricted to trees; coincides with being a star."""
    if g.m != g.n - 1 or not is_connected_masks(g.adj_masks, g.n):
        raise NotATree(f"graph with n={g.n}, m={g.m} is not a tree")
    return achieves_extremal(g, exact)
