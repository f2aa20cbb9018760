from fractions import Fraction
from itertools import combinations, product

import networkx as nx
import pytest

from totaldom import (
    DomainTooLarge,
    FamilyKind,
    FamilySpec,
    Graph,
    InvalidFamily,
    OutOfRange,
    SplitMix64,
    generate,
    parse_family_range,
    profile,
    prufer_decode,
)
from totaldom import families
from totaldom.families import SWEEP_BUDGET


def spec(text):
    return FamilySpec.parse(text)


SEEDS = (0, 1, 2**64 - 1, -3, 2**64 + 5)


def per_draw_graph(s):
    """A seeded graph rebuilt one draw at a time: a Bernoulli draw per pair in
    combinations order (cross pairs in order for bipartite), next_below for
    each Prufer entry."""
    rng, n = SplitMix64(s.seed), s.n
    if s.kind is FamilyKind.RANDOM_TREE:
        return Graph(n, prufer_decode([rng.next_below(n) for _ in range(n - 2)], n))
    if s.kind is FamilyKind.RANDOM_GRAPH:
        pairs = combinations(range(n), 2)
    else:
        split = (n + 1) // 2
        pairs = [(a, b) for a in range(split) for b in range(split, n)]
    return Graph(n, [pair for pair in pairs if rng.next_bernoulli(s.p)])


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

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 2016])
    def test_batch_equals_per_call_draws(self, seed, count):
        batch, calls = SplitMix64(seed), SplitMix64(seed)
        assert batch.next_u64s(count) == [calls.next_u64() for _ in range(count)]
        assert batch.next_u64() == calls.next_u64()

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
            "random:n=5,p=0.5,seed=1,seed=2",  # a repeated key
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

    @pytest.mark.parametrize("t", range(1, 7))
    def test_star_is_star_plus_matching_with_no_matching(self, t):
        star = spec(f"star:t={t}")
        assert generate(star) == generate(spec(f"star+matching:t={t},r=0"))
        assert str(star) == f"star:t={t}"

    @pytest.mark.parametrize(
        "text,n",
        [
            ("random:n=3000,p=0.5,seed=1", 3000),
            ("random-bipartite:n=3000,p=0.5,seed=1", 3000),
            ("random-tree:n=65,seed=1", 65),
            ("circular:n=20000,d=3", 20000),
            ("star:t=64", 65),
            ("star+matching:t=1,r=32", 66),
        ],
    )
    def test_oversized_refused_before_generating(self, text, n, monkeypatch):
        s = spec(text)
        monkeypatch.setitem(families._GENERATORS, s.kind, None)  # calling it would fail
        with pytest.raises(OutOfRange) as exc:
            generate(s)
        assert str(exc.value) == f"vertex count {n} outside 1..64"

    @pytest.mark.parametrize("kind", [FamilyKind.RANDOM_GRAPH, FamilyKind.RANDOM_BIPARTITE])
    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    @pytest.mark.parametrize(
        "p", [Fraction(0), Fraction(1), Fraction(3, 20), Fraction(1, 3), Fraction(2**64 - 1, 2**64)]
    )
    def test_seeded_graphs_equal_per_draw_generation(self, kind, n, p):
        for seed in SEEDS:
            s = FamilySpec(kind=kind, n=n, p=p, seed=seed)
            assert generate(s) == per_draw_graph(s), s

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_seeded_trees_equal_per_draw_generation(self, n):
        for seed in SEEDS:
            s = FamilySpec(kind=FamilyKind.RANDOM_TREE, n=n, seed=seed)
            assert generate(s) == per_draw_graph(s), s

    @pytest.mark.parametrize("kind", [FamilyKind.RANDOM_GRAPH, FamilyKind.RANDOM_BIPARTITE])
    def test_first_draw_at_the_threshold(self, kind):
        # the first pair is present iff its draw z0 < p * 2^64: absent at
        # p = z0 / 2^64, present at (z0 + 1) / 2^64, and a third either side
        first = (0, 1) if kind is FamilyKind.RANDOM_GRAPH else (0, 9)
        for seed in SEEDS:
            z0 = SplitMix64(seed).next_u64()
            for num, den, present in (
                (z0, 1, False), (z0 + 1, 1, True), (3 * z0 - 1, 3, False), (3 * z0 + 1, 3, True)
            ):
                s = FamilySpec(kind=kind, n=17, p=Fraction(num, den << 64), seed=seed)
                g = generate(s)
                assert g.has_edge(*first) is present
                assert g == per_draw_graph(s)

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
        assert [s.n for s in parse_family_range("cycle:n=1..5")] == [3, 4, 5]

    def test_no_valid_combination_raises(self):
        # the first combination's error, as FamilySpec.parse gives for it
        with pytest.raises(InvalidFamily, match="n >= 3, got 1"):
            parse_family_range("cycle:n=1..2")
        with pytest.raises(InvalidFamily, match="got n=4, d=3"):
            parse_family_range("circular:d=3,n=4..5")

    def test_single_values_allowed(self):
        assert len(parse_family_range("path:n=5")) == 1

    def test_missing_param(self):
        with pytest.raises(InvalidFamily):
            parse_family_range("circular:d=3")

    def test_repeated_param(self):
        with pytest.raises(InvalidFamily, match="'n' repeated"):
            parse_family_range("cycle:n=3..5,n=7")

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
