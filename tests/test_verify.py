import dataclasses
import importlib
import json
from itertools import permutations, product
from math import comb, factorial
from typing import NamedTuple

import pytest

from totaldom import (
    DomainTooLarge,
    FamilySpec,
    Graph,
    SolverConfig,
    Strategy,
    TheoremId,
    VerificationReport,
    VertexSet,
    gamma,
    gamma_t,
    generate,
    parse_family_range,
    profile,
    scan_bound_claims,
    sweep,
    sweep_csv,
    verify,
    verify_all,
)
from totaldom.bounds import path_cycle_formula
from totaldom.cli import main as cli_main
from totaldom.families import isomorphism_classes, labelings, prufer_decode
from totaldom.verify import (
    SCAN_CLAIMS,
    SWEEP_COLUMNS,
    _cex_sort_key,
    _class_domain,
    _cover_layers,
    _extensions,
    _girth_if_at_least_5,
    _neighbourhoods,
    _subset_tables,
    _tally,
    _total_cover_layers,
    _tree_star,
    random_graph_specs,
    random_tree_specs,
    shared_domains,
)

from conftest import edge_mask_graphs

EXHAUSTIVE = SolverConfig(strategy=Strategy.EXHAUSTIVE)

# the package re-exports the function verify under the module's name
verify_mod = importlib.import_module("totaldom.verify")


def test_theorem_ids_closed_enumeration():
    assert [t.value for t in TheoremId] == [
        "cockayne_upper",
        "connected_upper",
        "n_over_delta_lower",
        "diam2_upper",
        "girth_upper",
        "sandwich",
        "path_cycle_formula",
        "bipartite_extremal",
        "tree_star",
        "circular_two",
        "circular_three",
    ]


class _PerH(NamedTuple):
    """What the scan works out once per graph H: its ``_Extensions`` and
    the cover layers of gamma_t and gamma over S."""

    ext: object
    gamma_t: list
    gamma: list


def _per_h(n, edges):
    """The scan's ``_PerH`` of the graph with ``edges`` on the vertices
    below w = n - 1."""
    rows = Graph(n, edges).adj_masks[: n - 1]
    sub = _subset_tables(n - 1)
    nbrs = _neighbourhoods(rows)
    return _PerH(_extensions(rows, sub), _total_cover_layers(nbrs, sub), _cover_layers(nbrs, sub))


def _every_extension(n_max):
    """Every labeled graph G with n <= n_max as (G, S, ``_PerH`` of H), where
    G = H + (w, S): H on the vertices below w = n - 1, and S the
    neighbourhood of w."""
    for n in range(1, n_max + 1):
        for _, edges in edge_mask_graphs(n - 1):
            per_h = _per_h(n, edges)
            for s in range(1 << (n - 1)):
                w_edges = [(v, n - 1) for v in range(n - 1) if s >> v & 1]
                yield Graph(n, edges + w_edges), s, per_h


def _least_layer(layers, s):
    """The least k whose cover layer holds S, None if none does."""
    return next((k for k, layer in enumerate(layers) if layer >> s & 1), None)


class TestScanAgreesWithSolvers:
    # the scan's cover layers against the exhaustive strategy, which shares
    # no code with them
    def test_cover_layers_give_gamma_on_every_graph_up_to_6(self):
        for g, s, per_h in _every_extension(6):
            assert _least_layer(per_h.gamma, s) == gamma(g, EXHAUSTIVE).value, list(g.edges())

    def test_total_cover_layers_give_gamma_t_on_every_graph_up_to_6(self):
        for g, s, per_h in _every_extension(6):
            expected = None if g.isolated_mask() else gamma_t(g, EXHAUSTIVE).value
            assert _least_layer(per_h.gamma_t, s) == expected, list(g.edges())

    def test_total_cover_layers_give_gamma_t_on_every_tree_up_to_7(self):
        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                g = Graph(n, prufer_decode(seq, n))
                h_rows = [a & ~(1 << n - 1) for a in g.adj_masks[: n - 1]]
                layers = _total_cover_layers(_neighbourhoods(h_rows), _subset_tables(n - 1))
                got = _least_layer(layers, g.adj_masks[n - 1])
                assert got == gamma_t(g, EXHAUSTIVE).value, seq

    def test_cover_layers_are_nested_up_to_n(self):
        # layer n of gamma_t holds the S that leave no isolated vertex, that
        # of gamma every S
        for n in range(1, 7):
            for _, edges in edge_mask_graphs(n - 1):
                per_h = _per_h(n, edges)
                for layers in (per_h.gamma_t, per_h.gamma):
                    assert len(layers) == n + 1
                    assert all(a & ~b == 0 for a, b in zip(layers, layers[1:])), edges
                no_isolated = sum(
                    1 << s
                    for s in range(1 << (n - 1))
                    if not Graph(n, edges + [(v, n - 1) for v in range(n - 1) if s >> v & 1])
                    .isolated_mask()
                )
                assert per_h.gamma_t[n] == no_isolated, edges
                assert per_h.gamma[n] == 2 ** 2 ** (n - 1) - 1, edges

    def test_subset_tables_count_their_subsets(self):
        # 2^(n - |a|) subsets avoid a and the others meet it; 2^(n - |a|)
        # hold a
        for n in range(0, 8):
            tables = _subset_tables(n)
            for a in range(1 << n):
                k = a.bit_count()
                assert tables.meets[a].bit_count() == 2**n - 2 ** (n - k), (n, a)
                assert tables.contains[a].bit_count() == 2 ** (n - k), (n, a)
                assert tables.contains[a] >> a & 1, (n, a)
            assert [bits.bit_count() for bits in tables.at_most] == [
                sum(comb(n, j) for j in range(k + 1)) for k in range(n + 1)
            ]
            assert [list(group) for group in tables.sizes] == [
                [a for a in range(1 << n) if a.bit_count() == k] for k in range(n + 1)
            ]


def _shift_gamma_t(monkeypatch, shift):
    """Make both routes see gamma_t + shift: the scan's cover layers, where
    layer k of gamma_t + shift is layer k - shift of gamma_t, and the public
    solver as the class route calls it."""
    real_layers, real_gamma_t = verify_mod._total_cover_layers, verify_mod.gamma_t

    def layers(nbrs, sub):
        real = real_layers(nbrs, sub)
        return [0] * shift + real if shift >= 0 else real[-shift:]

    def solver(g, config=None):
        res = real_gamma_t(g, config)
        return None if res is None else dataclasses.replace(res, value=res.value + shift)

    monkeypatch.setattr(verify_mod, "_total_cover_layers", layers)
    monkeypatch.setattr(verify_mod, "gamma_t", solver)
    # the random-graph tallies are kept by their specs alone: the shifted
    # solver fills a store of its own, empty on entry and dropped on teardown
    monkeypatch.setattr(verify_mod, "_random_graph_tallies", {})


class TestIsomorphismClasses:
    def test_graph_class_counts(self):
        # OEIS A000088
        counts = [len(isomorphism_classes(n)) for n in range(1, 8)]
        assert counts == [1, 2, 4, 11, 34, 156, 1044]

    def test_tree_class_counts(self):
        # OEIS A000055, n = 2..8
        counts = [len(isomorphism_classes(n, trees=True)) for n in range(2, 9)]
        assert counts == [1, 1, 2, 3, 6, 11, 23]

    def test_weights_count_the_labelings(self):
        for n in range(1, 8):
            assert sum(w for _, w in isomorphism_classes(n)) == 2 ** (n * (n - 1) // 2)
        for n in range(2, 9):
            assert sum(w for _, w in isomorphism_classes(n, trees=True)) == n ** (n - 2)

    def test_weights_count_the_automorphisms_up_to_6(self):
        # n!/weight is |Aut|: the vertex orders that map every edge to an edge
        for n in range(1, 7):
            for adj, weight in isomorphism_classes(n):
                edges = [(u, v) for v in range(n) for u in range(v) if adj[v] >> u & 1]
                automorphisms = sum(
                    all(adj[p[u]] >> p[v] & 1 for u, v in edges) for p in permutations(range(n))
                )
                assert automorphisms * weight == factorial(n), adj

    def test_labelings_partition_every_labeled_graph_up_to_5(self):
        for n in range(1, 6):
            seen = []
            for adj, weight in isomorphism_classes(n):
                labeled = labelings(adj)
                assert len(labeled) == weight
                seen.extend(labeled)
            expected = [Graph(n, edges).adj_masks for _, edges in edge_mask_graphs(n)]
            assert sorted(seen) == sorted(expected)

    def test_tree_labelings_are_the_pruefer_trees_up_to_7(self):
        for n in range(2, 8):
            seen = [lab for adj, _ in isomorphism_classes(n, trees=True) for lab in labelings(adj)]
            expected = {
                Graph(n, prufer_decode(seq, n)).adj_masks
                for seq in product(range(n), repeat=n - 2)
            }
            assert len(seen) == len(expected) and set(seen) == expected

    @pytest.mark.parametrize("n, trees", [(0, False), (8, False), (0, True), (9, True)])
    def test_outside_the_tables(self, n, trees):
        with pytest.raises(DomainTooLarge):
            isomorphism_classes(n, trees)


class TestClassRouteAgreesWithScan:
    # the class route against the labeled scan, claim by claim, in count and
    # the full sorted counterexample list; shifting gamma_t in both routes
    # makes every claim fail somewhere, so the expansion of a failing class
    # into its labelings is checked on real failures
    @pytest.mark.parametrize(
        "shift, failing",
        [
            (0, set()),
            (1, set(SCAN_CLAIMS) - {"n_over_delta_lower"}),
            (-1, {"n_over_delta_lower", "sandwich", "bipartite_extremal"}),
        ],
    )
    def test_every_scan_claim_up_to_6(self, monkeypatch, shift, failing):
        _shift_gamma_t(monkeypatch, shift)
        scan = scan_bound_claims(range(1, 7), SCAN_CLAIMS, jobs=1)
        classes = _tally(_class_domain(range(1, 7)), SCAN_CLAIMS)
        for claim in SCAN_CLAIMS:
            tally = classes[claim]
            assert (tally.instances, list(tally.counterexamples)) == scan[claim], claim
        assert {c for c in SCAN_CLAIMS if scan[c][1]} == failing

    def test_shifted_scan_reads_its_details_off_the_layers(self, monkeypatch):
        # under a +1 shift, cockayne_upper fails on the graphs with n <= 5
        # that attain its bound; each record gives the shifted gamma_t of its
        # own graph and the bound n - Delta + 1
        _shift_gamma_t(monkeypatch, 1)
        count, records = scan_bound_claims(range(1, 6), ("cockayne_upper",))["cockayne_upper"]
        assert 0 < len(records) < count
        for record in records:
            g = Graph(record["instance"]["n"], record["instance"]["edges"])
            assert record["detail"] == {
                "gamma_t": gamma_t(g, EXHAUSTIVE).value + 1,
                "bound": g.n - max(g.degrees()) + 1,
            }

    @pytest.mark.parametrize("shift", [0, 1, -1])
    def test_tree_star_against_a_labeled_pruefer_walk_up_to_7(self, monkeypatch, shift):
        _shift_gamma_t(monkeypatch, shift)
        count, stars, cex = 0, 0, []
        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                g = Graph(n, prufer_decode(seq, n))
                gt = verify_mod.gamma_t(g).value
                delta = max(g.degrees())
                extremal, star = gt == n - delta + 1, delta == n - 1
                count += 1
                stars += star
                if extremal != star:
                    edges = [list(e) for e in g.edges()]
                    cex.append(
                        {
                            "instance": {"n": n, "edges": edges},
                            "detail": {"gamma_t": gt, "extremal": extremal, "star": star},
                        }
                    )
        trees = _class_domain(range(2, 8), trees=True)
        tally = _tally(trees, ("tree_star",), _tree_star)["tree_star"]
        assert tally.instances == count
        assert list(tally.counterexamples) == sorted(cex, key=_cex_sort_key)
        assert bool(cex) == bool(shift)
        if shift == -1:  # a star's gamma_t of 1 misses its bound of 2: every star fails
            assert len(cex) == stars and all(c["detail"]["star"] for c in cex)

    @pytest.mark.parametrize("shift", [0, 1, -1])
    def test_tree_star_random_trees_against_their_specs(self, monkeypatch, shift):
        # the random-tree half of the claim, against a loop of its own
        _shift_gamma_t(monkeypatch, shift)
        cex = []
        for spec in random_tree_specs():
            g = generate(spec)
            gt = verify_mod.gamma_t(g).value
            delta = max(g.degrees())
            extremal, star = gt == g.n - delta + 1, delta == g.n - 1
            if extremal != star:
                detail = {"gamma_t": gt, "extremal": extremal, "star": star}
                cex.append({"instance": {"family": str(spec)}, "detail": detail})
        _, _, (random_trees,) = verify_mod._tree_star_row("tree_star", "quick")
        assert random_trees.instances == len(random_tree_specs())
        assert random_trees.counterexamples == sorted(cex, key=_cex_sort_key)
        assert bool(cex) == bool(shift)


@pytest.fixture(scope="class")
def profiled_graphs_up_to_6() -> list:
    """Every labeled graph G = H + (w, S) with n <= 6 as (G, its structural
    profile, S, the scan's ``_Extensions`` of H)."""
    return [(g, profile(g), s, per_h.ext) for g, s, per_h in _every_extension(6)]


class TestScanGates:
    # the scan's per-H gates against the structural profile of every labeled
    # graph with n <= 6, isolated vertices included
    def test_degrees_match_profile(self, profiled_graphs_up_to_6):
        for g, prof, s, ext in profiled_graphs_up_to_6:
            assert ext.ok >> s & 1 == (not prof.isolated), list(g.edges())
            assert len(ext.max_degree) == len(ext.min_degree) == g.n
            for d in range(g.n):
                assert ext.max_degree[d] >> s & 1 == (prof.max_degree == d), (d, list(g.edges()))
                assert ext.min_degree[d] >> s & 1 == (prof.min_degree == d), (d, list(g.edges()))

    def test_diameter_is_2_matches_profile(self, profiled_graphs_up_to_6):
        for g, prof, s, ext in profiled_graphs_up_to_6:
            gate = ext.within_2 >> s & 1 and prof.min_degree < g.n - 1
            assert gate == (prof.diameter == 2), list(g.edges())

    def test_triangle_matches_profile(self, profiled_graphs_up_to_6):
        for g, prof, s, ext in profiled_graphs_up_to_6:
            assert ext.triangle >> s & 1 == (prof.girth == 3), list(g.edges())

    def test_within_distance_2_proves_connected(self, profiled_graphs_up_to_6):
        for g, prof, s, ext in profiled_graphs_up_to_6:
            assert not ext.within_2 >> s & 1 or prof.is_connected, list(g.edges())

    def test_connected_matches_profile(self, profiled_graphs_up_to_6):
        for g, prof, s, ext in profiled_graphs_up_to_6:
            assert ext.connected >> s & 1 == prof.is_connected, list(g.edges())

    def test_bipartite_matches_profile(self, profiled_graphs_up_to_6):
        for g, prof, s, ext in profiled_graphs_up_to_6:
            assert ext.bipartite >> s & 1 == (prof.bipartition is not None), list(g.edges())

    def test_girth_if_at_least_5_matches_profile(self, profiled_graphs_up_to_6):
        for g, prof, _, _ in profiled_graphs_up_to_6:
            if prof.min_degree < 2 or prof.girth == 3:
                continue
            expected = prof.girth if prof.girth >= 5 else None
            assert _girth_if_at_least_5(g.adj_masks, g.n) == expected, list(g.edges())


class TestScan:
    def test_jobs_do_not_change_results(self):
        claims = ("cockayne_upper", "sandwich")
        a = scan_bound_claims(range(1, 6), claims, jobs=1)
        b = scan_bound_claims(range(1, 6), claims, jobs=2)
        assert a == b

    def test_claims_only_select_what_is_reported(self):
        full = scan_bound_claims(range(1, 6), SCAN_CLAIMS, jobs=1)
        for claim in SCAN_CLAIMS:
            assert scan_bound_claims(range(1, 6), (claim,), jobs=1) == {claim: full[claim]}
        reordered = ("sandwich", "girth_upper", "cockayne_upper")
        got = scan_bound_claims(range(1, 6), reordered, jobs=1)
        assert list(got.items()) == [(c, full[c]) for c in reordered]

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            scan_bound_claims([3], ("unheard_of",))

    # n = 0 has no graph to walk, and n = 8 would walk 2^28 of them
    @pytest.mark.parametrize("n", [0, 8])
    def test_n_outside_the_enumeration_range(self, n):
        with pytest.raises(DomainTooLarge):
            scan_bound_claims([3, n], SCAN_CLAIMS)

    def test_counts_match_filterless_expectations(self):
        res = scan_bound_claims([4], ("cockayne_upper",), jobs=1)
        count, cex = res["cockayne_upper"]
        # graphs on 4 vertices without isolated vertices
        expected = sum(
            1 for _, edges in edge_mask_graphs(4)
            if all(any(v in e for e in edges) for v in range(4))
        )
        assert count == expected
        assert cex == []


class TestVerifyArms:
    def test_path_cycle_quick(self):
        r = verify(TheoremId.PATH_CYCLE_FORMULA, "quick")
        assert r.verdict == "PASS"
        assert r.instances_checked == 36

    def test_circular_two_quick_grid_size(self):
        r = verify(TheoremId.CIRCULAR_TWO, "quick")
        assert r.verdict == "PASS"
        assert r.instances_checked == sum(
            36 - (4 * d - 2) + 1 for d in range(3, 7)
        ) == 84

    def test_circular_three_quick(self):
        r = verify(TheoremId.CIRCULAR_THREE, "quick")
        assert r.verdict == "PASS"
        assert r.instances_checked == sum(
            (4 * d - 3) - 3 * d + 1 for d in range(3, 7)
        ) == 10

    # instances / classes / tight of every claim at quick scale; a row that
    # loses a part of its domain, such as the random graphs, moves a count
    @pytest.mark.parametrize(
        "theorem, instances, classes, tight",
        [
            (TheoremId.COCKAYNE_UPPER, 28_263, 155, 6_006),
            (TheoremId.CONNECTED_UPPER, 22_129, 90, 19_248),
            (TheoremId.N_OVER_DELTA_LOWER, 28_263, 155, 22_633),
            (TheoremId.DIAM2_UPPER, 11_393, 78, 2_054),
            (TheoremId.GIRTH_UPPER, 72, 2, 72),
            (TheoremId.SANDWICH, 28_263, 155, 6_586),
            (TheoremId.PATH_CYCLE_FORMULA, 36, None, None),
            (TheoremId.BIPARTITE_EXTREMAL, 3_672, 34, 127),
            (TheoremId.TREE_STAR, 280_592, 47, 68),
            (TheoremId.CIRCULAR_TWO, 84, None, None),
            (TheoremId.CIRCULAR_THREE, 10, None, None),
        ],
    )
    def test_quick_counts(self, theorem, instances, classes, tight):
        r = verify(theorem, "quick")
        assert (r.verdict, r.instances_checked, r.classes, r.tight) == (
            "PASS", instances, classes, tight
        )

    @pytest.mark.parametrize(
        "theorem, records, family, detail",
        [
            (TheoremId.PATH_CYCLE_FORMULA, 36, "cycle:n=18", {"formula": 10, "solver": 11}),
            (TheoremId.CIRCULAR_THREE, 10, "circular:n=12,d=4", {"solver": 4, "expected": 3}),
        ],
    )
    def test_closed_form_records_a_wrong_solver(
        self, monkeypatch, theorem, records, family, detail
    ):
        _shift_gamma_t(monkeypatch, 1)
        r = verify(theorem, "quick")
        assert r.instances_checked == len(r.counterexamples) == records
        assert r.counterexamples == sorted(r.counterexamples, key=_cex_sort_key)
        [got] = [c for c in r.counterexamples if c["instance"] == {"family": family}]
        # key order is part of the JSON output
        assert json.dumps(got["detail"]) == json.dumps(detail)

    def test_circular_records_an_invalid_witness(self, monkeypatch):
        real = verify_mod.circular_gamma_t

        def one_vertex_witness(n, d):
            return dataclasses.replace(real(n, d), witness=VertexSet(n, 1))

        monkeypatch.setattr(verify_mod, "circular_gamma_t", one_vertex_witness)
        r = verify(TheoremId.CIRCULAR_TWO, "quick")
        assert len(r.counterexamples) == 84
        assert {json.dumps(c["detail"]) for c in r.counterexamples} == {
            '{"witness_valid": false, "expected": 2}'
        }

    def test_girth_arm_quick(self):
        r = verify(TheoremId.GIRTH_UPPER, "quick")
        assert r.verdict == "PASS"
        # labeled 5-cycles and 6-cycles are the only qualifying graphs at n <= 6
        assert r.instances_checked >= 72

    def test_reports_deterministic(self):
        a = verify(TheoremId.DIAM2_UPPER, "quick", jobs=2)
        b = verify(TheoremId.DIAM2_UPPER, "quick", jobs=1)
        assert a.to_json_dict() == b.to_json_dict()

    def test_invalid_scale(self):
        with pytest.raises(ValueError):
            verify(TheoremId.SANDWICH, "huge")

    def test_json_schema(self):
        r = verify(TheoremId.PATH_CYCLE_FORMULA, "quick")
        payload = r.to_json_dict()
        assert set(payload) == {"theorem", "verdict", "instances", "counterexamples"}
        assert payload["verdict"] == "PASS"
        with_elapsed = r.to_json_dict(include_stats=True)
        assert "elapsed_ms" in with_elapsed
        json.dumps(with_elapsed)

    def test_verify_all_runs_every_claim_in_order(self):
        reports = verify_all("quick", jobs=2)
        assert [r.theorem for r in reports] == list(TheoremId)
        assert all(r.verdict == "PASS" for r in reports)

    @pytest.mark.parametrize(
        "theorem, detail",
        [
            (TheoremId.CONNECTED_UPPER, {"gamma_t": 3, "bound": 2}),
            (TheoremId.DIAM2_UPPER, {"gamma_t": 3, "bound": 2}),
            (TheoremId.GIRTH_UPPER, {"gamma_t": 3, "girth": 5, "bound": 2}),
        ],
    )
    def test_random_graph_arm_reports_violated_bound(self, monkeypatch, theorem, detail):
        # C5 passes all three gates and meets each bound with equality, so
        # lowering every bound by one makes the random-graph route fail
        real_all_bounds = verify_mod.all_bounds

        def lowered(g, exact=None, prof=None):
            return [
                dataclasses.replace(r, value=r.value - 1) if r.applicable else r
                for r in real_all_bounds(g, exact, prof)
            ]

        monkeypatch.setattr(verify_mod, "all_bounds", lowered)
        monkeypatch.setattr(
            verify_mod, "random_graph_specs", lambda: [FamilySpec.parse("cycle:n=5")]
        )
        # the random-graph tallies of the lowered bounds are not kept
        monkeypatch.setattr(verify_mod, "_random_graph_tallies", {})
        r = verify(theorem, "quick")
        # the class route reads the same lowered bounds and fails too; the
        # random-graph records are the ones naming a family
        random_cex = [c for c in r.counterexamples if "family" in c["instance"]]
        assert random_cex == [{"instance": {"family": "cycle:n=5"}, "detail": detail}]
        assert list(random_cex[0]["detail"]) == list(detail)

    def test_verdict_fail_on_counterexamples(self):
        r = VerificationReport(
            theorem=TheoremId.SANDWICH,
            domain="synthetic",
            instances_checked=1,
            counterexamples=[{"instance": {"n": 2, "edges": []}, "detail": {}}],
            elapsed_seconds=0.0,
        )
        assert r.verdict == "FAIL"


def _without_time(reports):
    return [dataclasses.replace(r, elapsed_seconds=0.0) for r in reports]


class TestSharedDomains:
    graph_claims = [TheoremId(c) for c in SCAN_CLAIMS]

    @pytest.mark.parametrize("shift", [0, 1])
    def test_shared_run_equals_per_claim_runs(self, monkeypatch, shift):
        # an unshifted run first: had its class tallies outlived it, the
        # shifted run below would read them and report no failure
        with shared_domains():
            assert all(verify(t, "quick").verdict == "PASS" for t in self.graph_claims)
        _shift_gamma_t(monkeypatch, shift)
        alone = [verify(t, "quick") for t in self.graph_claims]
        with shared_domains():
            shared = [verify(t, "quick") for t in self.graph_claims]
        # every field but the time, the counterexamples of +1 included
        assert _without_time(shared) == _without_time(alone)
        failing = {r.theorem.value for r in shared if r.counterexamples}
        assert failing == (set(SCAN_CLAIMS) - {"n_over_delta_lower"} if shift else set())
        # the random graphs, solved unshifted by the first run, are solved shifted
        random_failing = {
            r.theorem.value
            for r in shared
            if any("family" in c["instance"] for c in r.counterexamples)
        }
        assert random_failing == ({"connected_upper", "diam2_upper"} if shift else set())

    def test_each_run_evaluates_each_class_domain_once(self, monkeypatch):
        real, calls = verify_mod._class_domain, []

        def counted(n_values, trees=False):
            calls.append((list(n_values), trees))
            return real(n_values, trees)

        monkeypatch.setattr(verify_mod, "_class_domain", counted)
        graphs, trees = (list(range(1, 7)), False), (list(range(2, 9)), True)
        verify_all("quick")
        assert cli_main(["verify", "--theorem", "all", "--format", "json"]) == 0
        assert calls == [graphs, trees] * 2
        # any two graph claims share the run's one pass; outside a run, each makes its own
        calls.clear()
        with shared_domains():
            verify(TheoremId.SANDWICH, "quick")
            verify(TheoremId.GIRTH_UPPER, "quick")
        assert calls == [graphs]
        calls.clear()
        verify(TheoremId.SANDWICH, "quick")
        verify(TheoremId.GIRTH_UPPER, "quick")
        assert calls == [graphs] * 2


class TestRandomDomains:
    def test_specs_are_committed_and_stable(self):
        specs = random_graph_specs(5)
        assert [str(s) for s in specs] == [
            "random:n=2,p=0.2,seed=1592590337",
            "random:n=3,p=0.3,seed=1592590338",
            "random:n=4,p=0.5,seed=1592590339",
            "random:n=5,p=0.2,seed=1592590340",
            "random:n=6,p=0.3,seed=1592590341",
        ]

    def test_sizes_capped(self):
        assert all(s.n <= 16 for s in random_graph_specs(500))


class TestSweep:
    def test_circular_case_split(self):
        rows = sweep(parse_family_range("circular:d=3,n=6..14"))
        assert len(rows) == 9
        got = {row["n"]: row["gamma_t"] for row in rows}
        assert got["9"] == "3"
        for n in range(10, 15):
            assert got[str(n)] == "2"

    def test_cycle_column_matches_formula(self):
        rows = sweep(parse_family_range("cycle:n=3..10"))
        for row in rows:
            assert int(row["gamma_t"]) == path_cycle_formula("cycle", int(row["n"]))

    def test_star_matching_always_extremal(self):
        rows = sweep(parse_family_range("star+matching:t=2..4,r=0..2"))
        assert len(rows) == 9
        assert all(row["extremal"] == "true" for row in rows)

    def test_budget(self):
        specs = [FamilySpec.parse("path:n=4")] * 10_001
        with pytest.raises(DomainTooLarge):
            sweep(specs)

    def test_jobs_preserve_order(self):
        specs = parse_family_range("cycle:n=3..12")
        assert sweep(specs, jobs=2) == sweep(specs, jobs=1)

    def test_csv_fixed_header(self):
        text = sweep_csv(sweep(parse_family_range("path:n=4")))
        lines = text.splitlines()
        assert lines[0] == ",".join(SWEEP_COLUMNS)
        assert len(lines) == 2

    def test_undefined_gamma_t_left_blank(self):
        # a random spec drawing no edges: p=0
        rows = sweep([FamilySpec.parse("random:n=4,p=0,seed=1")])
        assert rows[0]["gamma_t"] == ""
        assert rows[0]["extremal"] == ""
        assert rows[0]["gamma"] == "4"
