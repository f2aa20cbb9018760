import json

import networkx as nx
import pytest

from totaldom import (
    BOUND_IDS,
    Graph,
    InvalidFamily,
    NotATree,
    OutOfDomain,
    UndefinedValue,
    achieves_extremal,
    all_bounds,
    circular_gamma_t,
    gamma,
    gamma_t,
    generate,
    is_extremal_tree,
    is_total_dominating,
    isomorphism_classes,
    path_cycle_formula,
    profile,
    recognize_star_plus_matching,
)
from totaldom.bounds import _FORMULAS
from totaldom.families import FamilyKind, FamilySpec

from conftest import brute_force_min_total_dominating, edge_mask_graphs


def family(text):
    return generate(FamilySpec.parse(text))


def by_id(reports):
    return {r.bound: r for r in reports}


class TestAllBounds:
    def test_cycle5_diam2_tight(self):
        reports = by_id(all_bounds(family("cycle:n=5"), exact=3))
        r = reports["diam2_upper"]
        assert r.applicable and r.value == 3 and r.tight

    def test_cycle8_lower_tight(self):
        reports = by_id(all_bounds(family("cycle:n=8"), exact=4))
        r = reports["n_over_delta_lower"]
        assert r.applicable and r.value == 4 and r.tight

    def test_star_cockayne_tight_connected_na(self):
        reports = by_id(all_bounds(family("star:t=4"), exact=2))
        assert reports["cockayne_upper"].value == 2
        assert reports["cockayne_upper"].tight
        assert not reports["connected_upper"].applicable

    def test_petersen_girth_not_tight(self, petersen):
        exact = brute_force_min_total_dominating(
            10, list(petersen.edges())
        )
        assert exact[0] == 4
        reports = by_id(all_bounds(petersen, exact=exact[0]))
        r = reports["girth_upper"]
        assert r.applicable and r.value == 10 - 3 + 1 == 8 and not r.tight

    def test_isolated_vertex_gates(self):
        reports = by_id(all_bounds(Graph(3, [(0, 1)])))
        assert not reports["cockayne_upper"].applicable
        assert not reports["n_over_delta_lower"].applicable
        assert reports["cockayne_upper"].value is None

    def test_disconnected_gates(self):
        reports = by_id(all_bounds(Graph(4, [(0, 1), (2, 3)])))
        assert not reports["connected_upper"].applicable
        assert reports["cockayne_upper"].applicable

    def test_girth_gate_requires_min_degree_2(self):
        # a 5-cycle with a pendant vertex: girth 5 but delta = 1
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 5)])
        assert not by_id(all_bounds(g))["girth_upper"].applicable

    def test_no_exact_leaves_tight_unset(self):
        for r in all_bounds(family("cycle:n=6")):
            assert r.tight is None

    def test_report_order_and_ids(self):
        assert tuple(r.bound for r in all_bounds(family("path:n=4"))) == BOUND_IDS

    def test_formulas_give_the_papers_values(self):
        # both verify routes read these formulas, so a wrong one cannot show as
        # the routes disagreeing: pin each to values worked out by hand
        expected = {
            "cockayne_upper": ("max_degree", True, {(7, 3): 5, (5, 4): 2}),  # K_1,4
            "connected_upper": ("max_degree", True, {(7, 3): 4}),
            "n_over_delta_lower": ("max_degree", False, {(7, 3): 3, (8, 2): 4}),  # C_8
            "diam2_upper": ("min_degree", True, {(5, 2): 3}),  # C_5
            # Petersen and C_6: the odd girth tells ceil(g / 2) from floor(g / 2)
            "girth_upper": ("girth", True, {(10, 5): 8, (6, 6): 4}),
        }
        assert tuple(expected) == BOUND_IDS == tuple(_FORMULAS)
        for bound, (parameter, upper, values) in expected.items():
            entry = _FORMULAS[bound]
            assert (entry.parameter, entry.upper) == (parameter, upper), bound
            assert {args: entry.formula(*args) for args in values} == values, bound

    def test_json_schema(self):
        reports = by_id(all_bounds(family("star:t=4"), exact=2))
        payload = reports["cockayne_upper"].to_json_dict()
        assert payload == {
            "bound": "cockayne_upper",
            "applicable": True,
            "value": 2,
            "tight": True,
        }
        assert json.dumps(payload)  # serializable

    def test_soundness_exhaustively_small(self):
        # every applicable upper bound >= gamma_t, lower bound <= gamma_t
        for n in range(2, 6):
            for _, edges in edge_mask_graphs(n):
                g = Graph(n, edges)
                res = gamma_t(g)
                if res is None:
                    continue
                for r in all_bounds(g, exact=res.value):
                    if not r.applicable:
                        continue
                    if r.bound in ("n_over_delta_lower",):
                        assert r.value <= res.value, (n, list(g.edges()), r)
                    else:
                        assert r.value >= res.value, (n, list(g.edges()), r)

    def test_theorem_b_consequence(self):
        # extremal connected graphs must have a dominating-star degree
        for n in range(2, 6):
            for _, edges in edge_mask_graphs(n):
                g = Graph(n, edges)
                if not profile(g).is_connected:
                    continue
                res = gamma_t(g)
                if res is None:
                    continue
                if res.value == g.n - max(g.degrees()) + 1:
                    assert max(g.degrees()) >= g.n - 1


class TestPathCycleFormula:
    @pytest.mark.parametrize(
        "kind,n,expected",
        [("cycle", 8, 4), ("path", 5, 3), ("cycle", 6, 4), ("path", 3, 2), ("cycle", 4, 2)],
    )
    def test_values(self, kind, n, expected):
        assert path_cycle_formula(kind, n) == expected

    def test_out_of_domain(self):
        with pytest.raises(OutOfDomain):
            path_cycle_formula("path", 2)
        with pytest.raises(ValueError):
            path_cycle_formula("clique", 5)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_matches_solver(self, n):
        assert path_cycle_formula("path", n) == gamma_t(family(f"path:n={n}")).value
        assert path_cycle_formula("cycle", n) == gamma_t(family(f"cycle:n={n}")).value


class TestCircularGammaT:
    def test_two_regime(self):
        cv = circular_gamma_t(10, 3)
        assert cv.value == 2 and list(cv.witness) == [0, 5]

    def test_three_regime(self):
        cv = circular_gamma_t(9, 3)
        assert cv.value == 3 and list(cv.witness) == [0, 3, 5]

    def test_gap_regime(self):
        # 2d <= n < 3d: n = 7, d = 3 has Delta = 2, so ceil(7/2) = 4, with
        # the tiling witness (2j - 3) mod 7
        cv = circular_gamma_t(7, 3)
        assert cv.value == 4 and list(cv.witness) == [1, 3, 4, 6]
        g = family("circular:n=7,d=3")
        assert gamma_t(g).value == 4 and is_total_dominating(g, cv.witness)
        cv = circular_gamma_t(8, 3)  # n = 3d - 1: value 3, tiling witness
        assert cv.value == 3 and list(cv.witness) == [0, 3, 5]

    def test_d1_complete(self):
        cv = circular_gamma_t(8, 1)
        assert cv.value == 2 and list(cv.witness) == [0, 1]
        assert is_total_dominating(family("circular:n=8,d=1"), cv.witness)

    def test_d2_is_the_complement_of_the_cycle(self):
        # K_{n/2} is the complement of C_n, not C_n: gamma_t is 4 on n = 4
        # (a perfect matching), 3 on n = 5 (C_5 again) and 2 from n = 6 on
        for n, value in ((4, 4), (5, 3), (6, 2), (12, 2)):
            cv = circular_gamma_t(n, 2)
            g = family(f"circular:n={n},d=2")
            assert cv.value == value == gamma_t(g).value, n
            assert is_total_dominating(g, cv.witness)
        assert list(circular_gamma_t(12, 2).witness) == [0, 3]

    def test_invalid(self):
        with pytest.raises(InvalidFamily):
            circular_gamma_t(5, 3)

    def test_witness_validity_grid(self):
        for d in range(1, 11):
            for n in range(2 * d, 6 * d + 1):
                cv = circular_gamma_t(n, d)
                g = generate(FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d))
                assert len(cv.witness) == cv.value, (n, d)
                assert is_total_dominating(g, cv.witness), (n, d)

    def test_formula_never_contradicts_solver(self):
        # exact cross-check over d in 1..6, every n from 2d (the 2d <= n < 3d
        # gap included) to 36
        for d in range(1, 7):
            for n in range(2 * d, 37):
                cv = circular_gamma_t(n, d)
                g = generate(FamilySpec(kind=FamilyKind.CIRCULAR_COMPLETE, n=n, d=d))
                assert gamma_t(g).value == cv.value, (n, d)


class TestRecognizer:
    @pytest.mark.parametrize("t", range(2, 9))
    @pytest.mark.parametrize("r", range(0, 5))
    def test_generated_shapes_round_trip(self, t, r):
        g = generate(FamilySpec(kind=FamilyKind.STAR_PLUS_MATCHING, t=t, r=r))
        shape = recognize_star_plus_matching(g)
        assert shape is not None and (shape.t, shape.r) == (t, r)
        assert shape.n == g.n

    def test_path4_rejected(self):
        assert recognize_star_plus_matching(family("path:n=4")) is None

    def test_all_matchings_canonicalize(self):
        g = Graph(6, [(0, 1), (2, 3), (4, 5)])
        shape = recognize_star_plus_matching(g)
        assert (shape.t, shape.r) == (1, 2)

    def test_t1_spec_collapses(self):
        g = generate(FamilySpec(kind=FamilyKind.STAR_PLUS_MATCHING, t=1, r=2))
        assert recognize_star_plus_matching(g) == recognize_star_plus_matching(
            Graph(6, [(0, 1), (2, 3), (4, 5)])
        )

    def test_isolated_vertex_rejected(self):
        assert recognize_star_plus_matching(Graph(5, [(0, 1), (0, 2), (0, 3)])) is None

    def test_two_big_stars_rejected(self):
        g = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        assert recognize_star_plus_matching(g) is None

    def test_triangle_rejected(self):
        assert recognize_star_plus_matching(Graph(3, [(0, 1), (1, 2), (0, 2)])) is None

    def test_star_with_extra_edge_rejected(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2)])
        assert recognize_star_plus_matching(g) is None

    def test_matches_components_on_every_class_up_to_7(self):
        # a second route to the shape: networkx components, each a star (a
        # tree with a vertex adjacent to all the others), at most one of them
        # on three or more vertices
        checked = 0
        for n in range(1, 8):
            for adj, _ in isomorphism_classes(n):
                g = Graph.from_masks(adj)
                h = nx.Graph(list(g.edges()))
                h.add_nodes_from(range(n))
                comps = [h.subgraph(c) for c in nx.connected_components(h)]
                stars = all(
                    c.number_of_nodes() >= 2
                    and nx.is_tree(c)
                    and max(d for _, d in c.degree()) == c.number_of_nodes() - 1
                    for c in comps
                )
                big = sum(c.number_of_nodes() >= 3 for c in comps)
                shape = recognize_star_plus_matching(g)
                assert (shape is not None) == (stars and big <= 1), adj
                if shape is not None:
                    largest = max(c.number_of_nodes() for c in comps)
                    assert (shape.t, shape.r) == (largest - 1, len(comps) - 1), adj
                checked += 1
        assert checked == 1252


class TestExtremal:
    def test_star_extremal(self):
        assert achieves_extremal(family("star:t=5"), exact=2)

    def test_cycle6_not_extremal(self):
        assert not achieves_extremal(family("cycle:n=6"), exact=4)

    def test_star_plus_matching_extremal(self):
        g = generate(FamilySpec(kind=FamilyKind.STAR_PLUS_MATCHING, t=2, r=1))
        oracle = brute_force_min_total_dominating(5, list(g.edges()))
        assert oracle[0] == 4
        assert achieves_extremal(g, exact=4)

    def test_isolated_undefined(self):
        with pytest.raises(UndefinedValue):
            achieves_extremal(Graph(2, []), exact=1)

    def test_tree_star_directions(self):
        assert is_extremal_tree(family("star:t=7"), exact=2)
        assert not is_extremal_tree(family("path:n=5"), exact=3)
        assert is_extremal_tree(family("path:n=2"), exact=2)

    def test_not_a_tree(self):
        with pytest.raises(NotATree):
            is_extremal_tree(family("cycle:n=4"), exact=2)
        with pytest.raises(NotATree):
            is_extremal_tree(Graph(4, [(0, 1), (2, 3)]), exact=4)

    def test_coincides_with_star_on_trees(self):
        from itertools import product

        from totaldom import prufer_decode

        for n in range(2, 8):
            for seq in product(range(n), repeat=n - 2):
                g = Graph(n, prufer_decode(seq, n))
                exact = gamma_t(g).value
                assert is_extremal_tree(g, exact) == (max(g.degrees()) == n - 1)


class TestSandwichOnFamilies:
    @pytest.mark.parametrize(
        "text", ["cycle:n=9", "path:n=7", "complete:n=6", "star:t=5", "circular:n=12,d=3"]
    )
    def test_gamma_vs_gamma_t(self, text):
        g = family(text)
        res_g, res_t = gamma(g), gamma_t(g)
        assert res_g.value <= res_t.value <= 2 * res_g.value
