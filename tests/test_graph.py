import math
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from totaldom import (
    EdgeListFormatError,
    Graph,
    INFINITE,
    OutOfRange,
    RejectedEdge,
    VertexSet,
    format_edge_list,
    new_graph,
    parse_edge_list,
    profile,
)
from totaldom.families import FamilyKind, FamilySpec, generate

from conftest import edge_mask_graphs, graph_inputs


def to_networkx(g):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return h


class TestConstruction:
    def test_path_adjacency(self):
        g = new_graph(3, [(0, 1), (1, 2)])
        assert list(g.neighborhood(1)) == [0, 2]
        assert g.m == 2

    def test_single_vertex(self):
        g = new_graph(1, [])
        assert list(g.neighborhood(0)) == []
        assert g.isolated_mask() == 1

    def test_self_loop_rejected(self):
        with pytest.raises(RejectedEdge):
            new_graph(3, [(0, 0)])

    def test_index_out_of_range(self):
        with pytest.raises(OutOfRange):
            new_graph(3, [(0, 3)])
        with pytest.raises(OutOfRange):
            new_graph(0, [])
        with pytest.raises(OutOfRange):
            new_graph(65, [])

    def test_from_masks_equals_the_edge_list_graph_up_to_5(self):
        for n in range(1, 6):
            for _, edges in edge_mask_graphs(n):
                rows = [0] * n
                for u, v in edges:
                    rows[u] |= 1 << v
                    rows[v] |= 1 << u
                g, built = Graph(n, edges), Graph.from_masks(rows)
                assert built == g and hash(built) == hash(g), edges
                assert list(built.edges()) == list(g.edges()) == edges

    def test_from_masks_checks_the_vertex_count(self):
        with pytest.raises(OutOfRange):
            Graph.from_masks([])
        with pytest.raises(OutOfRange):
            Graph.from_masks([0] * 65)
        assert Graph.from_masks([0] * 64) == Graph(64)

    def test_duplicate_edges_collapse(self):
        g = new_graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.m == 1


class TestNeighborhoods:
    def test_cycle(self):
        c4 = generate(FamilySpec(kind=FamilyKind.CYCLE, n=4))
        assert list(c4.neighborhood(0)) == [1, 3]
        assert list(c4.closed_neighborhood(0)) == [0, 1, 3]

    def test_complete(self):
        k4 = generate(FamilySpec(kind=FamilyKind.COMPLETE, n=4))
        assert list(k4.closed_neighborhood(2)) == [0, 1, 2, 3]

    def test_isolated(self):
        g = Graph(2, [])
        assert list(g.neighborhood(0)) == []
        assert list(g.closed_neighborhood(0)) == [0]

    def test_vertex_out_of_range(self):
        with pytest.raises(OutOfRange):
            Graph(3, []).neighborhood(3)

    def test_set_neighborhood_path(self):
        p4 = generate(FamilySpec(kind=FamilyKind.PATH, n=4))
        s = VertexSet.from_members(4, [1, 2])
        assert list(p4.set_neighborhood(s)) == [0, 1, 2, 3]

    def test_set_neighborhood_empty(self):
        g = Graph(5, [(0, 1)])
        assert list(g.set_neighborhood(VertexSet(5))) == []

    def test_set_neighborhood_cycle(self):
        c5 = generate(FamilySpec(kind=FamilyKind.CYCLE, n=5))
        assert list(c5.set_neighborhood(VertexSet.from_members(5, [0]))) == [1, 4]


class TestProfile:
    def test_cycle5(self):
        p = profile(generate(FamilySpec(kind=FamilyKind.CYCLE, n=5)))
        assert (p.max_degree, p.min_degree) == (2, 2)
        assert p.diameter == 2
        assert p.girth == 5
        assert p.is_connected

    def test_star(self):
        p = profile(generate(FamilySpec(kind=FamilyKind.STAR, t=4)))
        assert (p.max_degree, p.min_degree) == (4, 1)
        assert p.diameter == 2
        assert p.girth == INFINITE
        assert p.bipartition is not None
        a, b = p.bipartition
        assert {tuple(a), tuple(b)} == {(0,), (1, 2, 3, 4)}

    def test_petersen_against_networkx(self, petersen):
        p = profile(petersen)
        h = to_networkx(petersen)
        assert p.girth == nx.girth(h) == 5
        assert p.min_degree == 3
        assert p.diameter == nx.diameter(h) == 2
        assert p.is_connected
        assert (p.bipartition is not None) == nx.is_bipartite(h)

    def test_disconnected_diameter_infinite(self):
        p = profile(Graph(4, [(0, 1), (2, 3)]))
        assert p.diameter == INFINITE
        assert not p.is_connected

    def test_acyclic_girth_infinite(self):
        p = profile(generate(FamilySpec(kind=FamilyKind.PATH, n=6)))
        assert p.girth == INFINITE

    def test_single_vertex(self):
        p = profile(Graph(1, []))
        assert p.diameter == 0
        assert p.is_connected
        assert list(p.isolated) == [0]


def test_profile_matches_networkx_on_every_graph_up_to_6():
    # 33,867 labeled graphs: diameter, girth and bipartiteness against an
    # implementation that shares no code with the bitmask traversal
    count = 0
    for n in range(1, 7):
        for _, edges in edge_mask_graphs(n):
            g = Graph(n, edges)
            h = to_networkx(g)
            p = profile(g)
            diameter = nx.diameter(h) if nx.is_connected(h) else INFINITE
            assert p.diameter == diameter, (n, edges)
            assert p.girth == nx.girth(h), (n, edges)
            assert (p.bipartition is not None) == nx.is_bipartite(h), (n, edges)
            count += 1
    assert count == 33_867


@given(graph_inputs())
def test_handshake(inp):
    n, edges = inp
    g = Graph(n, edges)
    assert sum(g.degrees()) % 2 == 0
    assert sum(g.degrees()) == 2 * g.m


@given(graph_inputs(max_n=7), st.randoms(use_true_random=False))
def test_profile_relabel_invariant(inp, rng):
    n, edges = inp
    perm = list(range(n))
    rng.shuffle(perm)
    g = Graph(n, edges)
    h = Graph(n, [(perm[u], perm[v]) for u, v in edges])
    pg, ph = profile(g), profile(h)
    assert (pg.max_degree, pg.min_degree) == (ph.max_degree, ph.min_degree)
    assert pg.diameter == ph.diameter
    assert pg.girth == ph.girth
    assert pg.is_connected == ph.is_connected


# non-bipartite with even girth: the 4-cycle 0-3-2-4 is shortest, and the
# 5-cycle 0-1-5-2-3 is odd
@example((7, [(0, 1), (0, 3), (0, 4), (1, 5), (2, 3), (2, 4), (2, 5)]))
@given(graph_inputs(max_n=7))
def test_bipartite_girth_odd_cycle_consistency(inp):
    n, edges = inp
    g = Graph(n, edges)
    p = profile(g)
    has_bipartition = p.bipartition is not None
    assert has_bipartition == nx.is_bipartite(to_networkx(g))
    if has_bipartition:
        a, b = p.bipartition
        assert (a | b) == VertexSet.full(n)
        assert not (a & b)
        for u, v in g.edges():
            assert (u in a) != (v in a)
    # a shortest cycle of odd length is an odd cycle; the converse does not
    # hold, since an odd cycle can sit beside a shorter even one
    if p.girth != INFINITE and p.girth % 2 == 1:
        assert not has_bipartition


@given(graph_inputs(min_n=2, max_n=7))
def test_diameter_one_iff_complete(inp):
    n, edges = inp
    g = Graph(n, edges)
    complete = g.m == n * (n - 1) // 2
    assert (profile(g).diameter == 1) == complete


@given(graph_inputs(max_n=7))
def test_girth_matches_networkx(inp):
    n, edges = inp
    g = Graph(n, edges)
    ours = profile(g).girth
    reference = nx.girth(to_networkx(g))
    assert (ours == INFINITE) == math.isinf(reference) or ours == reference
    if not math.isinf(reference):
        assert ours == reference


class TestEdgeListFormat:
    def test_round_trip(self):
        g = Graph(5, [(0, 1), (1, 2), (3, 4), (0, 4)])
        assert parse_edge_list(format_edge_list(g)) == g

    def test_comments_and_blanks(self):
        text = "# a comment\n3 2\n0 1  # trailing\n\n1 2\n"
        g = parse_edge_list(text)
        assert g.n == 3 and g.m == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(EdgeListFormatError) as exc:
            parse_edge_list("3 1\n0 x\n")
        assert exc.value.line_no == 2

    def test_edge_count_mismatch(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("3 2\n0 1\n")

    def test_self_loop_in_file(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("3 1\n1 1\n")

    def test_missing_header(self):
        with pytest.raises(EdgeListFormatError):
            parse_edge_list("# nothing\n")
