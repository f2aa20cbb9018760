"""The reference generator of the isomorphism-class tables that
``totaldom.families.isomorphism_classes`` reads from its data file.

Level n grows level n - 1 by augmentation: a new vertex joined to every
subset of the old ones, or for trees a new leaf, with duplicates decided by a
canonical form over a colour-refined vertex partition (McKay, J. Algorithms
26, 1998). The tests compare ``table_lines()`` with the committed file line
for line. After a change to the generator, rewrite the file with

    PYTHONPATH=src python tests/class_tables.py

and never edit it by hand.
"""

import math
from functools import lru_cache
from itertools import combinations, permutations
from typing import Iterator, Sequence

from totaldom.families import _CLASS_TABLE_PATH, _neighbour_lists, _relabel

# the vertex counts the file holds, per kind: graphs as far as the labeled
# scan, trees one further
MAX_N = {False: 7, True: 8}


def _refined_cells(nbrs: list[list[int]]) -> list[list[int]]:
    """The vertices grouped by colour refinement from the degrees, cells in
    colour order. A colour is the rank of (own colour, sorted neighbour
    colours) among the distinct such pairs, so cells and their order are
    isomorphism invariants."""
    n = len(nbrs)
    colour = [len(members) for members in nbrs]
    while True:
        sig = [(colour[v], tuple(sorted(colour[u] for u in nbrs[v]))) for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sig)))}
        refined = [rank[s] for s in sig]
        if len(rank) == len(set(colour)):
            break
        colour = refined
    cells: list[list[int]] = [[] for _ in rank]
    for v in range(n):
        cells[refined[v]].append(v)
    return cells


def _cell_orders(cells: list[list[int]]) -> Iterator[tuple[int, ...]]:
    """Every vertex order that lists the cells in turn, each cell in any
    order; generated lazily (``itertools.product`` would hold every
    permutation of a cell at once: 5,040 for the leaves of an 8-vertex
    star)."""
    if not cells:
        yield ()
        return
    for head in permutations(cells[0]):
        for rest in _cell_orders(cells[1:]):
            yield head + rest


def canonical_form(adj: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The canonical adjacency of the graph and the order of its
    automorphism group.

    The form is the least relabelling over the vertex orders that list the
    refined cells in turn. Isomorphic graphs have the same set of such
    relabellings, so the same least one; an automorphism preserves the
    cells, so the orders reaching the least form are one orbit of the
    automorphism group, and their number is |Aut|.
    """
    nbrs = _neighbour_lists(adj)
    best, hits = None, 0
    for order in _cell_orders(_refined_cells(nbrs)):
        form = _relabel(nbrs, order)
        if best is None or form < best:
            best, hits = form, 1
        elif form == best:
            hits += 1
    return best, hits


@lru_cache(maxsize=None)
def class_table(n: int, trees: bool) -> tuple[tuple[tuple[int, ...], int], ...]:
    """One ``(canonical form, n!/|Aut|)`` entry per class, in the order
    augmentation first reaches them."""
    if n == 1:
        return (((0,), 1),)
    new = 1 << (n - 1)
    found: dict[tuple[int, ...], int] = {}
    for adj, _ in class_table(n - 1, trees):
        joins = [1 << v for v in range(n - 1)] if trees else range(new)
        for s in joins:
            grown = [a | new if s >> v & 1 else a for v, a in enumerate(adj)]
            grown.append(s)
            form, aut = canonical_form(grown)
            if form not in found:
                found[form] = math.factorial(n) // aut
    return tuple(found.items())


def table_lines() -> list[str]:
    """The data file's lines: kind (g or t), n, the edge mask in
    ``combinations(range(n), 2)`` bit order in hex, and the weight."""
    lines = []
    for trees, kind in ((False, "g"), (True, "t")):
        for n in range(1, MAX_N[trees] + 1):
            pairs = list(combinations(range(n), 2))
            for adj, weight in class_table(n, trees):
                mask = sum(1 << i for i, (u, v) in enumerate(pairs) if adj[u] >> v & 1)
                lines.append(f"{kind} {n} {mask:x} {weight}")
    return lines


if __name__ == "__main__":
    with open(_CLASS_TABLE_PATH, "w", encoding="ascii", newline="\n") as out:
        out.writelines(line + "\n" for line in table_lines())
