import random
from fractions import Fraction
from itertools import combinations, compress

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from totaldom import (
    FamilyKind,
    FamilySpec,
    Graph,
    ResourceExhausted,
    SolverConfig,
    Strategy,
    VertexSet,
    gamma,
    gamma_t,
    generate,
    greedy_total_dominating,
    is_dominating,
    is_total_dominating,
)
from totaldom.domination import _bit_flags, _two_picks

from conftest import (
    brute_force_min_dominating,
    brute_force_min_total_dominating,
    edge_mask_graphs,
    graph_inputs,
)

EXHAUSTIVE = SolverConfig(strategy=Strategy.EXHAUSTIVE)
BNB = SolverConfig(strategy=Strategy.BRANCH_AND_BOUND)


def family(text):
    return generate(FamilySpec.parse(text))


# a graph on which the greedy total dominating set is not minimum
FORCED_PICK_EDGES = [
    (0, 2), (0, 7), (1, 3), (1, 7), (2, 3), (2, 4), (4, 5), (4, 8), (5, 9), (6, 9),
]


class TestPredicates:
    def test_star_center_dominates(self):
        g = family("star:t=4")
        assert is_dominating(g, VertexSet.from_members(5, [0]))

    def test_cycle_single_vertex_does_not(self):
        g = family("cycle:n=5")
        assert not is_dominating(g, VertexSet.from_members(5, [0]))

    def test_everything_dominates(self):
        g = family("random:n=7,p=0.3,seed=5")
        assert is_dominating(g, VertexSet.full(7))

    def test_star_center_alone_not_total(self):
        g = family("star:t=4")
        assert not is_total_dominating(g, VertexSet.from_members(5, [0]))

    def test_star_center_plus_leaf_total(self):
        g = family("star:t=4")
        assert is_total_dominating(g, VertexSet.from_members(5, [0, 1]))

    def test_circular_pair_witness(self):
        g = family("circular:n=10,d=3")
        assert is_total_dominating(g, VertexSet.from_members(10, [0, 5]))

    @pytest.mark.parametrize("predicate", [is_dominating, is_total_dominating])
    @pytest.mark.parametrize("capacity", [4, 6])
    def test_set_of_another_capacity_refused(self, predicate, capacity):
        # a set is over the graph's vertices: capacity 4 would drop vertex
        # 4 of the 5-cycle, capacity 6 name a vertex it lacks
        with pytest.raises(ValueError):
            predicate(family("cycle:n=5"), VertexSet.full(capacity))

    @given(graph_inputs(max_n=8), st.data())
    def test_superset_monotonicity(self, inp, data):
        n, edges = inp
        g = Graph(n, edges)
        base_mask = data.draw(st.integers(0, (1 << n) - 1))
        extra_mask = data.draw(st.integers(0, (1 << n) - 1))
        s = VertexSet(n, base_mask)
        sup = VertexSet(n, base_mask | extra_mask)
        if is_dominating(g, s):
            assert is_dominating(g, sup)
        if is_total_dominating(g, s):
            assert is_total_dominating(g, sup)


class TestGamma:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_complete(self, n):
        assert gamma(family(f"complete:n={n}") if n > 1 else Graph(1)).value == 1

    def test_cycle5_oracle(self):
        value, _ = brute_force_min_dominating(5, [(i, (i + 1) % 5) for i in range(5)])
        assert value == 2
        assert gamma(family("cycle:n=5")).value == 2

    def test_path4_oracle(self):
        value, _ = brute_force_min_dominating(4, [(0, 1), (1, 2), (2, 3)])
        assert value == 2
        assert gamma(family("path:n=4")).value == 2

    def test_empty_graph(self):
        for n in (1, 3, 6):
            res = gamma(Graph(n, []))
            assert res.value == n

    def test_witness_is_lexicographically_least(self):
        g = family("cycle:n=6")
        res = gamma(g, EXHAUSTIVE)
        # first dominating pair in (cardinality, lex) order
        assert list(res.witness) == [0, 3]

    def test_witness_valid(self):
        for text in ("cycle:n=7", "path:n=9", "random:n=10,p=0.3,seed=3"):
            g = family(text)
            for cfg in (EXHAUSTIVE, BNB):
                res = gamma(g, cfg)
                assert is_dominating(g, res.witness)
                assert len(res.witness) == res.value


class TestGammaT:
    def test_cycle5(self):
        assert gamma_t(family("cycle:n=5")).value == 3

    @pytest.mark.parametrize("n", range(2, 13))
    def test_complete(self, n):
        assert gamma_t(family(f"complete:n={n}")).value == 2

    def test_path8(self):
        assert gamma_t(family("path:n=8")).value == 4

    def test_isolated_vertex_undefined(self):
        assert gamma_t(Graph(3, [(0, 1)])) is None
        assert gamma_t(Graph(1, [])) is None

    def test_exhaustive_witness_canonical(self):
        res = gamma_t(family("cycle:n=6"), EXHAUSTIVE)
        oracle = brute_force_min_total_dominating(
            6, [(i, (i + 1) % 6) for i in range(6)]
        )
        assert res.value == oracle[0]
        assert list(res.witness) == sorted(oracle[1])  # same subset order

    def test_stats_shapes(self):
        res = gamma_t(family("cycle:n=8"), EXHAUSTIVE)
        assert res.stats.subsets_examined > 0
        assert res.stats.branch_nodes == 0
        res = gamma_t(family("cycle:n=8"), BNB)
        assert res.stats.subsets_examined == 0
        assert res.stats.elapsed_seconds >= 0

    def test_bnb_counters(self):
        # the greedy seed of C_10 has gamma_t = 6 vertices, above the counting
        # bound 5, so a search runs to prove it; on a cycle, a chosen or
        # banned vertex leaves a neighbour with one live candidate, forced
        res = gamma_t(family("cycle:n=10"), BNB)
        assert res.stats.branch_nodes > 0
        assert res.stats.forced_picks > 0
        assert res.stats.prunes_packing > 0
        res = gamma_t(family("cycle:n=10"), EXHAUSTIVE)
        assert (
            res.stats.branch_nodes,
            res.stats.forced_picks,
            res.stats.prunes_dead,
            res.stats.prunes_incumbent,
            res.stats.prunes_packing,
            res.stats.prunes_counting,
            res.stats.incumbent_updates,
        ) == (0, 0, 0, 0, 0, 0, 0)

    def test_incumbent_updates(self):
        # the greedy seed of this graph has 6 vertices and gamma_t is 5, so the
        # search improves on it; on C_10 the seed is already optimal
        g = Graph(10, FORCED_PICK_EDGES)
        assert len(greedy_total_dominating(g)) == 6
        res = gamma_t(g, BNB)
        assert res.value == 5
        assert res.stats.incumbent_updates >= 1
        assert gamma_t(family("cycle:n=10"), BNB).stats.incumbent_updates == 0


class TestOracleAgreement:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_all_graphs_small(self, n):
        for _, edges in edge_mask_graphs(n):
            g = Graph(n, edges)
            dom = brute_force_min_dominating(n, edges)
            assert gamma(g, EXHAUSTIVE).value == dom[0]
            assert gamma(g, BNB).value == dom[0]
            tot = brute_force_min_total_dominating(n, edges)
            res_ex = gamma_t(g, EXHAUSTIVE)
            res_bb = gamma_t(g, BNB)
            if tot is None:
                assert res_ex is None and res_bb is None
            else:
                assert res_ex.value == tot[0] == res_bb.value
                assert is_total_dominating(g, res_ex.witness)
                assert is_total_dominating(g, res_bb.witness)

    def test_all_graphs_n5(self):
        for _, edges in edge_mask_graphs(5):
            g = Graph(5, edges)
            tot = brute_force_min_total_dominating(5, edges)
            res = gamma_t(g, BNB)
            if tot is None:
                assert res is None
            else:
                assert res.value == tot[0]

    def test_all_graphs_n6_strategies_agree(self):
        # full enumeration domain: both strategies, identical values,
        # witnesses valid
        for _, edges in edge_mask_graphs(6):
            g = Graph(6, edges)
            if g.isolated_mask():
                continue
            a = gamma_t(g, EXHAUSTIVE)
            b = gamma_t(g, BNB)
            assert a.value == b.value, edges
            assert is_total_dominating(g, b.witness)

    @settings(max_examples=60)
    @given(graph_inputs(min_n=2, max_n=8))
    def test_strategies_agree(self, inp):
        n, edges = inp
        g = Graph(n, edges)
        a = gamma_t(g, EXHAUSTIVE)
        b = gamma_t(g, BNB)
        assert (a is None) == (b is None)
        if a is not None:
            assert a.value == b.value
        assert gamma(g, EXHAUSTIVE).value == gamma(g, BNB).value


class TestWitnessMinimality:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_no_smaller_set_exists(self, n):
        # exhaustive already proves minimality by construction: spot-check by
        # dropping each witness vertex and requiring the predicate to fail
        # for *some* vertex, or the brute-force value to equal the result
        for _, edges in [(n, e) for k, e in list(edge_mask_graphs(n))[:: max(1, n)]]:
            g = Graph(n, edges)
            res = gamma_t(g, EXHAUSTIVE)
            if res is None:
                continue
            tot = brute_force_min_total_dominating(n, edges)
            assert tot[0] == res.value


class TestSandwich:
    @settings(max_examples=80)
    @given(graph_inputs(min_n=2, max_n=8))
    def test_gamma_le_gamma_t_le_2gamma(self, inp):
        n, edges = inp
        g = Graph(n, edges)
        res_t = gamma_t(g)
        if res_t is None:
            return
        res_g = gamma(g)
        assert res_g.value <= res_t.value <= 2 * res_g.value


class TestGreedy:
    def test_complete5(self):
        s = greedy_total_dominating(family("complete:n=5"))
        assert len(s) == 2

    def test_cycle8_valid(self):
        g = family("cycle:n=8")
        s = greedy_total_dominating(g)
        assert is_total_dominating(g, s)
        assert len(s) >= 4  # exact value for the 8-cycle

    def test_star_picks_center_and_leaf(self):
        s = greedy_total_dominating(family("star:t=6"))
        assert list(s) == [0, 1]

    def test_isolated_undefined(self):
        assert greedy_total_dominating(Graph(4, [(0, 1)])) is None

    @settings(max_examples=60)
    @given(graph_inputs(min_n=2, max_n=8))
    def test_always_valid_when_defined(self, inp):
        n, edges = inp
        g = Graph(n, edges)
        s = greedy_total_dominating(g)
        if g.isolated_mask():
            assert s is None
        else:
            assert is_total_dominating(g, s)


class TestPruningSoundness:
    def test_bnb_matches_exhaustive_on_200_seeded_graphs(self):
        # the exhaustive strategy never prunes, so it checks every prune
        # the branch and bound makes
        for i in range(200):
            spec = FamilySpec(
                kind=FamilyKind.RANDOM_GRAPH,
                n=2 + i % 15,
                p=(Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))[i % 3],
                seed=0xACCE55 + i,
            )
            g = generate(spec)
            assert gamma(g).value == gamma(g, EXHAUSTIVE).value, str(spec)
            if g.isolated_mask():
                continue
            assert gamma_t(g).value == gamma_t(g, EXHAUSTIVE).value, str(spec)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_bnb_matches_exhaustive_on_every_graph_up_to_6(self, n):
        for _, edges in edge_mask_graphs(n):
            g = Graph(n, edges)
            for solve, valid in ((gamma, is_dominating), (gamma_t, is_total_dominating)):
                want = solve(g, EXHAUSTIVE)
                got = solve(g, BNB)
                if want is None:
                    assert got is None, edges
                    continue
                assert got.value == want.value, (solve.__name__, edges)
                assert valid(g, got.witness), (solve.__name__, edges)
                assert len(got.witness) == got.value, (solve.__name__, edges)

    def test_forced_pick_is_the_live_candidate(self):
        # on these graphs, forcing a banned candidate of a vertex instead of
        # its one live candidate skips the only subtree holding an optimum
        g = Graph(10, FORCED_PICK_EDGES)
        assert gamma_t(g).value == gamma_t(g, EXHAUSTIVE).value == 5
        h = Graph(14, [
            (0, 4), (1, 13), (2, 3), (5, 9), (5, 12), (7, 10), (7, 12),
            (8, 9), (8, 11), (10, 11), (10, 13),
        ])
        assert gamma(h).value == gamma(h, EXHAUSTIVE).value == 6

    def test_two_picks_left_one_candidate_covers_all(self):
        # with two picks left, the first branching candidate of these graphs
        # covers every uncovered vertex alone; finishing it with a second
        # pick anyway answers one more than the optimum
        g = family("random:n=12,p=0.2,seed=2278")
        assert gamma_t(g).value == gamma_t(g, EXHAUSTIVE).value == 4
        h = family("random:n=12,p=0.2,seed=2385")
        assert gamma(h).value == gamma(h, EXHAUSTIVE).value == 3

    def test_sparse_envelope_within_node_limit(self):
        # random:n=64,p=0.1 was the slowest class at the envelope; values
        # computed without a limit. The slowest of these solves takes about
        # 7,000 nodes
        cfg = SolverConfig(node_limit=10_000)
        graphs = [family(f"random:n=64,p=0.1,seed={s}") for s in range(5)]
        assert [gamma(g, cfg).value for g in graphs] == [11, 11, 10, 11, 11]
        assert [gamma_t(g, cfg).value for g in graphs] == [11, 11, 11, 13, 11]

    @pytest.mark.parametrize(
        "spec, solve, value, mask",
        [
            ("random:n=64,p=0.15,seed=4262941488", gamma_t, 9, 5188430720816676868),
            ("random:n=64,p=0.15,seed=3276568223", gamma, 8, 9367781932701597696),
            ("random:n=64,p=0.1,seed=1824181489", gamma, 10, 4623529958755666048),
            ("random:n=64,p=0.1,seed=1824181489", gamma_t, 12, 4720924972616269954),
        ],
    )
    def test_child_counting_cut_keeps_unlimited_answer(self, spec, solve, value, mask):
        # envelope solves that need more than 10,000 nodes unless a child is
        # cut at its parent by the counting bound; value and witness are those
        # of the search without that cut and without a limit
        res = solve(family(spec), SolverConfig(node_limit=10_000))
        assert (res.value, res.witness.mask) == (value, mask)


class TestSearchPins:
    # value, witness and every counter but the time of branch-and-bound
    # solves at and near the envelope, so that a change meant to make nodes
    # cheaper is seen to visit the same nodes. Counters in SolverStats field
    # order: subsets_examined, branch_nodes, forced_picks, prunes_dead,
    # prunes_incumbent, prunes_packing, prunes_counting, incumbent_updates
    @pytest.mark.parametrize(
        "spec, solve, value, mask, counters",
        [
            ("random:n=40,p=0.15,seed=1", gamma, 7, 202399778, (0, 133, 0, 0, 0, 1, 110, 1)),
            ("random:n=40,p=0.15,seed=1", gamma_t, 8, 2215796770, (0, 162, 0, 0, 0, 11, 111, 1)),
            ("random:n=40,p=0.15,seed=2", gamma, 7, 687264104992, (0, 110, 0, 0, 0, 24, 63, 1)),
            ("random:n=40,p=0.15,seed=2", gamma_t, 7, 962073853988, (0, 29, 0, 0, 0, 8, 14, 0)),
            ("random:n=64,p=0.3,seed=1", gamma, 5, 549823062272, (0, 190, 0, 0, 0, 0, 175, 0)),
            ("random:n=64,p=0.3,seed=1", gamma_t, 5, 549823062272, (0, 166, 0, 0, 0, 0, 152, 0)),
            ("random:n=64,p=0.2,seed=2", gamma, 6, 216463053184303104,
             (0, 1919, 0, 0, 0, 0, 1776, 1)),
            ("random:n=64,p=0.2,seed=2", gamma_t, 6, 216463053184303104,
             (0, 1013, 0, 0, 0, 0, 945, 1)),
            ("random:n=50,p=0.15,seed=3", gamma, 7, 281784348623360, (0, 91, 0, 0, 0, 0, 77, 1)),
            ("random:n=50,p=0.15,seed=3", gamma_t, 8, 288072050713120,
             (0, 175, 0, 0, 0, 6, 132, 0)),
        ],
    )
    def test_bnb_search_is_pinned(self, spec, solve, value, mask, counters):
        res = solve(family(spec), BNB)
        stats = tuple(res.stats)
        assert (res.value, res.witness.mask, stats[:-1]) == (value, mask, counters)


class TestBitFlags:
    def test_compress_picks_the_members(self):
        # against the bit loop the scan of uncovered vertices replaced
        rng = random.Random(0xF1A6)
        masks = [0, 1, 1 << 63, (1 << 64) - 1] + [rng.getrandbits(64) for _ in range(20)]
        for mask in masks:
            members = []
            m = mask
            while m:
                low = m & -m
                members.append(low.bit_length() - 1)
                m ^= low
            assert list(compress(range(64), _bit_flags(mask))) == members, mask


class TestTwoPicksRefutation:
    # the exact finish of a node with two picks left, against every pair of
    # live picks; covers of seeded random graphs, closed (gamma) and open
    # (gamma_t), with cap the largest cover of the uncovered set by one live
    # pick, so that a rest of exactly cap vertices occurs; and with one pick
    # left, cap 0, against every single live pick
    def test_matches_all_pairs(self):
        rng = random.Random(0x2F1C5)
        for _ in range(200):
            n = rng.randint(2, 10)
            adj = [0] * n
            for u, v in combinations(range(n), 2):
                if rng.random() < 0.3:
                    adj[u] |= 1 << v
                    adj[v] |= 1 << u
            closed = [a | (1 << v) for v, a in enumerate(adj)]
            for cover in (closed, adj):
                for _ in range(10):
                    unc = rng.randrange(1, 1 << n)
                    live = rng.randrange(1 << n)
                    members = [b for b in range(n) if live >> b & 1]
                    cap = max(((cover[b] & unc).bit_count() for b in members), default=0)
                    singles = [a for a in members if unc & ~cover[a] == 0]
                    pairs = any(
                        unc & ~(cover[a] | cover[b]) == 0 for a in members for b in members
                    )
                    picks = _two_picks(cover, unc, live, cap)
                    where = (cover, unc, live, picks)
                    assert picks & ~live == 0, where
                    assert picks.bit_count() == (1 if singles else 2 if pairs else 0), where
                    if singles:
                        assert picks == 1 << singles[0], where
                    covered = 0
                    for b in members:
                        if picks >> b & 1:
                            covered |= cover[b]
                    assert not picks or unc & ~covered == 0, where
                    # cap 0, the one-pick finish: the lowest single, never a pair
                    single = _two_picks(cover, unc, live, 0)
                    where = (cover, unc, live, single)
                    assert single == (1 << singles[0] if singles else 0), where


class TestLimits:
    def test_node_limit_exhaustive(self):
        with pytest.raises(ResourceExhausted):
            gamma_t(family("cycle:n=12"), SolverConfig(
                strategy=Strategy.EXHAUSTIVE, node_limit=10
            ))

    def test_node_limit_bnb(self):
        # gamma_t(C_10) = 6 sits strictly above the counting bound 5, so the
        # greedy seed cannot trigger the early exit and branching must start
        with pytest.raises(ResourceExhausted):
            gamma_t(family("cycle:n=10"), SolverConfig(
                strategy=Strategy.BRANCH_AND_BOUND, node_limit=1
            ))

    def test_time_limit_exhaustive(self):
        with pytest.raises(ResourceExhausted):
            gamma_t(family("cycle:n=22"), SolverConfig(
                strategy=Strategy.EXHAUSTIVE, time_limit=1e-9
            ))

    def test_limits_validated(self):
        with pytest.raises(ValueError):
            SolverConfig(node_limit=0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=-1.0)
        with pytest.raises(ValueError):
            SolverConfig(time_limit=float("nan"))

    def test_within_limit_succeeds(self):
        res = gamma_t(family("cycle:n=8"), SolverConfig(time_limit=30.0))
        assert res.value == 4


class TestDeterminism:
    def test_repeat_solves_identical(self):
        g = family("random:n=14,p=0.3,seed=92")  # seed chosen isolated-free
        a = gamma_t(g, BNB)
        b = gamma_t(g, BNB)
        assert a.value == b.value and a.witness == b.witness
        a = gamma_t(g, EXHAUSTIVE)
        b = gamma_t(g, EXHAUSTIVE)
        assert a.witness == b.witness
