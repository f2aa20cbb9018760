"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's bitmask machinery: they
work on plain Python sets so that solver results are checked against a
second, unrelated code path.
"""

import os
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import strategies as st

import totaldom
from totaldom import Graph

# the tests that run `python -m totaldom` in a child process run the package
# under test, also where only pytest's own `pythonpath` setting finds it
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(totaldom.__file__).parents[1]), os.environ.get("PYTHONPATH")])
)


def adjacency_sets(n, edges):
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def brute_force_min_dominating(n, edges):
    """(value, witness) by plain subset enumeration over closed neighborhoods."""
    adj = adjacency_sets(n, edges)
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            covered = set(sub)
            for v in sub:
                covered |= adj[v]
            if len(covered) == n:
                return k, set(sub)
    raise AssertionError("unreachable: V always dominates")


def brute_force_min_total_dominating(n, edges):
    """(value, witness) over open neighborhoods, or None if no set exists."""
    adj = adjacency_sets(n, edges)
    for k in range(n + 1):
        for sub in combinations(range(n), k):
            covered = set()
            for v in sub:
                covered |= adj[v]
            if len(covered) == n:
                return k, set(sub)
    return None


def edge_mask_graphs(n):
    """Every labeled graph on n vertices as (n, edges), built without the
    package's code."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1]


@pytest.fixture
def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    return Graph(10, outer + inner + spokes)


@st.composite
def graph_inputs(draw, min_n=1, max_n=8):
    """(n, edges) pairs drawn from the full labeled-graph space."""
    n = draw(st.integers(min_n, max_n))
    pairs = list(combinations(range(n), 2))
    mask = draw(st.integers(0, (1 << len(pairs)) - 1))
    edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
    return n, edges
