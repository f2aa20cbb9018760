from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from totaldom import (
    DomainTooLarge,
    FamilyKind,
    FamilySpec,
    Graph,
    InvalidFamily,
    OutOfRange,
    SplitMix64,
    enumerate_labeled_graphs,
    generate,
    parse_family_range,
    profile,
    prufer_decode,
)
from totaldom import families
from totaldom.families import SWEEP_BUDGET


def spec(text):
    return FamilySpec.parse(text)


class TestSplitMix64:
    def test_reference_vectors_seed_zero(self):
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in range(3)] == [
            0xE220A8397B1DCDAF,
            0x6E789E6AA1B965F4,
            0x06C45D188009454F,
        ]

    def test_streams_reproducible(self):
        a = SplitMix64(42)
        b = SplitMix64(42)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_bernoulli_extremes(self):
        rng = SplitMix64(7)
        assert all(not rng.next_bernoulli(Fraction(0)) for _ in range(50))
        assert all(rng.next_bernoulli(Fraction(1)) for _ in range(50))


class TestSpecStrings:
    @pytest.mark.parametrize(
        "text",
        [
            "path:n=8",
            "cycle:n=5",
            "complete:n=4",
            "star:t=6",
            "star+matching:t=3,r=2",
            "circular:n=10,d=3",
            "random:n=12,p=0.3,seed=42",
            "random-tree:n=12,seed=7",
            "random-bipartite:n=9,p=0.5,seed=3",
        ],
    )
    def test_round_trip(self, text):
        assert str(spec(text)) == text

    def test_param_order_normalized(self):
        assert str(spec("circular:d=3,n=10")) == "circular:n=10,d=3"

    def test_fraction_probability(self):
        s = spec("random:n=5,p=1/3,seed=1")
        assert s.p == Fraction(1, 3)
        assert str(s) == "random:n=5,p=1/3,seed=1"

    @pytest.mark.parametrize(
        "text",
        [
            "hypercube:n=4",
            "path",
            "path:t=3",
            "circular:n=5,d=3",  # n < 2d
            "star:t=0",
            "star+matching:t=0,r=1",
            "random:n=5,p=1.5,seed=1",
        ],
    )
    def test_invalid(self, text):
        with pytest.raises(InvalidFamily):
            spec(text)


class TestGenerators:
    def test_circular_d1_equals_complete(self):
        for n in (2, 5, 9):
            assert generate(spec(f"circular:n={n},d=1")) == generate(
                spec(f"complete:n={n}")
            )

    def test_circular_52_is_five_cycle(self):
        g = generate(spec("circular:n=5,d=2"))
        p = profile(g)
        assert g.degrees() == [2] * 5 and p.is_connected and p.girth == 5

    def test_circular_73_is_seven_cycle(self):
        g = generate(spec("circular:n=7,d=3"))
        assert g.degrees() == [2] * 7 and profile(g).is_connected
        # trace the single cycle: 0,3,6,2,5,1,4
        order = [0, 3, 6, 2, 5, 1, 4]
        for a, b in zip(order, order[1:] + order[:1]):
            assert g.has_edge(a, b)

    def test_circular_masks_equal_the_edge_list_up_to_48(self):
        # the rotated-interval rows against the definition, on every d and
        # 2d <= n <= 48: both verify grids and circular:n=10,d=3
        for d in range(1, 25):
            for n in range(2 * d, 49):
                edges = [(i, j) for i, j in combinations(range(n), 2) if d <= j - i <= n - d]
                got = generate(FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d))
                assert got == Graph(n, edges), (n, d)

    def test_circular_vertex_count_is_checked(self):
        with pytest.raises(OutOfRange):
            generate(spec("circular:n=65,d=3"))

    @pytest.mark.parametrize("n,d", [(n, d) for d in (1, 2, 3, 4, 5) for n in range(2 * d, 4 * d + 3)])
    def test_circular_regular_degree(self, n, d):
        g = generate(FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d))
        assert g.degrees() == [n - 2 * d + 1] * n

    def test_star_plus_matching_shape(self):
        g = generate(spec("star+matching:t=3,r=2"))
        assert g.n == 8
        assert max(g.degrees()) == 3
        # one star component plus r matching edges
        assert not nx_components_differ(g, 3)

    def test_cycle_and_path_degrees(self):
        for n in range(3, 12):
            c = generate(FamilySpec(kind=FamilyKind.CYCLE, n=n))
            assert c.degrees() == [2] * n
        for n in range(2, 12):
            p = generate(FamilySpec(kind=FamilyKind.PATH, n=n))
            assert sorted(p.degrees())[:2] == [1, 1]
            assert all(d == 2 for d in sorted(p.degrees())[2:])

    def test_cycle_too_small(self):
        with pytest.raises(InvalidFamily):
            generate(FamilySpec(kind=FamilyKind.CYCLE, n=2))

    def test_star_center_is_zero(self):
        g = generate(spec("star:t=5"))
        assert g.degree(0) == 5

    def test_random_graph_reproducible(self):
        a = generate(spec("random:n=12,p=0.3,seed=42"))
        b = generate(spec("random:n=12,p=0.3,seed=42"))
        c = generate(spec("random:n=12,p=0.3,seed=43"))
        assert a == b
        assert a != c  # overwhelmingly likely; fixed seeds make it stable

    def test_random_bipartite_is_bipartite(self):
        for seed in range(5):
            g = generate(FamilySpec(
                kind=FamilyKind.RANDOM_BIPARTITE, n=9, p=Fraction(1, 2), seed=seed
            ))
            split = (g.n + 1) // 2
            for u, v in g.edges():
                assert u < split <= v

    def test_random_tree_connected_with_n_minus_1_edges(self):
        for n in range(1, 17):
            for seed in range(3):
                g = generate(FamilySpec(kind=FamilyKind.RANDOM_TREE, n=n, seed=seed))
                assert g.m == n - 1 if n > 1 else g.m == 0
                assert profile(g).is_connected


def nx_components_differ(g, expected):
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges())
    return nx.number_connected_components(h) != expected


class TestPrufer:
    def test_known_star(self):
        assert sorted(prufer_decode((1, 1), 4)) == [(0, 1), (1, 3), (2, 1)]
        edges = prufer_decode((1, 1), 4)
        g = Graph(4, edges)
        assert g.degree(1) == 3  # Prufer sequence (1,1) encodes the star at 1

    def test_two_vertices(self):
        assert prufer_decode((), 2) == [(0, 1)]

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_bijection_on_all_sequences(self, n):
        seen = set()
        for seq in product(range(n), repeat=n - 2):
            g = Graph(n, prufer_decode(seq, n))
            assert g.m == n - 1
            assert profile(g).is_connected
            seen.add(g.adj_masks)
        assert len(seen) == n ** (n - 2)  # Cayley count: decoding is a bijection

    def test_bad_sequences(self):
        with pytest.raises(InvalidFamily):
            prufer_decode((5,), 4)
        with pytest.raises(InvalidFamily):
            prufer_decode((0,), 4)


class TestEnumeration:
    def test_counts_all(self):
        assert sum(1 for _ in enumerate_labeled_graphs(3, "all")) == 8

    def test_no_isolated_n2(self):
        graphs = list(enumerate_labeled_graphs(2, "no-isolated"))
        assert len(graphs) == 1 and graphs[0].m == 1

    def test_connected_count_n4_against_oracle(self):
        # independent oracle: test connectivity of all 64 masks via networkx
        pairs = list(combinations(range(4), 2))
        expected = 0
        for mask in range(1 << 6):
            h = nx.Graph()
            h.add_nodes_from(range(4))
            h.add_edges_from(pairs[i] for i in range(6) if mask >> i & 1)
            if nx.is_connected(h):
                expected += 1
        assert expected == 38
        assert sum(1 for _ in enumerate_labeled_graphs(4, "connected")) == 38

    def test_lexicographic_mask_order(self):
        graphs = list(enumerate_labeled_graphs(3, "all"))
        assert graphs[0].m == 0
        assert graphs[1].edges().__next__() == (0, 1)
        masks = [g.adj_masks for g in graphs]
        assert len(set(masks)) == 8

    def test_bipartite_filter(self):
        for g in enumerate_labeled_graphs(4, "bipartite"):
            assert profile(g).bipartition is not None

    def test_too_large(self):
        with pytest.raises(DomainTooLarge):
            next(enumerate_labeled_graphs(8))

    def test_unknown_filter(self):
        with pytest.raises(ValueError):
            next(enumerate_labeled_graphs(3, "planar"))


class TestRanges:
    def test_expansion_order(self):
        specs = parse_family_range("circular:d=3,n=6..14")
        assert len(specs) == 9
        assert [s.n for s in specs] == list(range(6, 15))

    def test_cartesian_product_last_fastest(self):
        specs = parse_family_range("star+matching:t=2..4,r=0..2")
        assert [(s.t, s.r) for s in specs[:4]] == [(2, 0), (2, 1), (2, 2), (3, 0)]
        assert len(specs) == 9

    def test_invalid_combos_skipped(self):
        # n < 2d combinations drop out instead of erroring
        specs = parse_family_range("circular:d=3,n=4..8")
        assert [s.n for s in specs] == [6, 7, 8]

    def test_single_values_allowed(self):
        assert len(parse_family_range("path:n=5")) == 1

    def test_missing_param(self):
        with pytest.raises(InvalidFamily):
            parse_family_range("circular:d=3")

    def test_budget_refused_before_expanding(self, monkeypatch):
        # 15 x 20,000 = 300,000 valid specs; building stops one past the budget
        built = []

        class CountingSpec(FamilySpec):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(families, "FamilySpec", CountingSpec)
        with pytest.raises(DomainTooLarge, match="budget"):
            parse_family_range("random:n=2..16,p=0.3,seed=1..20000")
        assert len(built) <= SWEEP_BUDGET + 1

    def test_budget_counts_invalid_combinations(self, monkeypatch):
        # d = 10^6 makes every one of the 10^6 combinations invalid
        built = []

        class CountingSpec(FamilySpec):
            def __post_init__(self):
                built.append(self)
                super().__post_init__()

        monkeypatch.setattr(families, "FamilySpec", CountingSpec)
        with pytest.raises(DomainTooLarge, match="budget"):
            parse_family_range("circular:d=1000000,n=1..1000000")
        assert len(built) <= SWEEP_BUDGET + 1
