import math
from fractions import Fraction

import pytest

from isdd_lab.bounds import (
    REL_TOL,
    BoundId,
    BoundReport,
    SkippedBound,
    approx_eq,
    approx_ge,
    approx_tol,
    claim1_chain,
    edge_min_term,
    edge_second_min_term,
    evaluate_all,
    ga_lower_simple,
    ga_m2_lower,
    lower_bound_ell,
    m1_f_lower,
    remark_ordering,
    tree_edge_lower,
    upper_bound_k,
    upper_bound_n_delta,
)
from isdd_lab.graphs import Graph, GraphError
from helpers import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    path_graph,
    star_graph,
)


class TestEdgeMinTerms:
    def test_equal_extremes(self):
        assert edge_min_term(4, 4) == Fraction(1, 2)

    def test_three_one(self):
        assert edge_min_term(3, 1) == Fraction(3, 10)

    def test_ratio_three(self):
        assert edge_min_term(18, 6) == Fraction(3, 10)

    def test_domain(self):
        with pytest.raises(GraphError):
            edge_min_term(3, 0)
        with pytest.raises(GraphError):
            edge_min_term(2, 3)

    def test_second_min_two_one(self):
        assert edge_second_min_term(2, 1) == Fraction(1, 2)

    def test_second_min_four_two(self):
        assert edge_second_min_term(4, 2) == Fraction(6, 13)

    def test_second_min_star_context(self):
        # n=5 tree with hub degree 4: the non-hub bound is 3/10
        assert edge_second_min_term(4, 1) == Fraction(3, 10)

    def test_second_min_domain(self):
        with pytest.raises(GraphError):
            edge_second_min_term(1, 1)
        with pytest.raises(GraphError):
            edge_second_min_term(3, 3)

    def test_terms_written_out_on_a_grid(self):
        # t(a, b) = ab/(a^2 + b^2) at (max, min) and (max-1, min), written
        # out here rather than read from indices.edge_term_isdd
        for dmax in range(1, 61):
            for dmin in range(1, dmax + 1):
                first = edge_min_term(dmax, dmin)
                assert first == Fraction(dmax * dmin, dmax * dmax + dmin * dmin)
                if dmin < dmax:
                    a = dmax - 1
                    second = edge_second_min_term(dmax, dmin)
                    assert second == Fraction(a * dmin, a * a + dmin * dmin)


class TestClaim1:
    def test_three_one(self):
        assert edge_second_min_term(3, 1) == Fraction(2, 5)
        assert claim1_chain(3, 1)

    def test_equality_when_gap_is_one(self):
        assert edge_second_min_term(2, 1) == Fraction(1, 2)
        assert claim1_chain(2, 1)

    def test_five_two(self):
        assert edge_second_min_term(5, 2) == Fraction(2, 5)
        assert claim1_chain(5, 2)

    def test_domain(self):
        with pytest.raises(GraphError):
            claim1_chain(3, 3)
        with pytest.raises(GraphError):
            claim1_chain(2, 0)

    def test_exhaustive_up_to_200(self):
        assert all(
            claim1_chain(dmax, dmin)
            for dmax in range(2, 201)
            for dmin in range(1, dmax)
        )


class TestTreeEdgeLower:
    def test_n4_tight_pair(self):
        rep = tree_edge_lower(4, 2, 1)
        assert rep.lhs == Fraction(2, 5) and rep.rhs == Fraction(2, 5)
        assert rep.holds and rep.equality

    def test_n4_middle_edge(self):
        rep = tree_edge_lower(4, 2, 2)
        assert rep.lhs == Fraction(1, 2) and rep.holds and not rep.equality

    def test_n5_tight_pair(self):
        rep = tree_edge_lower(5, 3, 1)
        assert rep.lhs == Fraction(3, 10) and rep.rhs == Fraction(3, 10) and rep.equality

    def test_excluded_pair_rejected(self):
        with pytest.raises(GraphError):
            tree_edge_lower(5, 4, 1)
        with pytest.raises(GraphError):
            tree_edge_lower(5, 1, 4)

    def test_small_order_rejected(self):
        with pytest.raises(GraphError):
            tree_edge_lower(3, 1, 1)

    def test_rhs_written_out_for_every_order(self):
        # t(n-2, 1) = (n-2)/((n-2)^2 + 1), whichever allowed pair is checked
        for n in range(4, 61):
            for hi, lo in ((2, 1), (n - 2, 1), (2, 2)):
                rep = tree_edge_lower(n, hi, lo)
                assert rep.rhs == Fraction(n - 2, (n - 2) * (n - 2) + 1)


class TestLowerEll:
    def test_c5_equality(self):
        rep = lower_bound_ell(cycle_graph(5))
        assert rep.lhs == rep.rhs == Fraction(5, 2)
        assert rep.equality
        assert rep.context["ell"] == 5

    def test_k23_equality(self):
        rep = lower_bound_ell(complete_bipartite(2, 3))
        assert rep.lhs == rep.rhs == Fraction(36, 13)
        assert rep.equality

    def test_p4_equality_outside_named_classes(self):
        rep = lower_bound_ell(path_graph(4))
        assert rep.context["ell"] == 2
        assert rep.rhs == Fraction(2, 5) * 2 + Fraction(1, 2)
        assert rep.lhs == Fraction(13, 10)
        assert rep.equality

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            lower_bound_ell(Graph(3))

    def test_isolated_vertex_rejected(self):
        with pytest.raises(GraphError):
            lower_bound_ell(Graph.from_edges(3, [(0, 1)]))

    def test_single_edge_graph(self):
        rep = lower_bound_ell(Graph.from_edges(2, [(0, 1)]))
        assert rep.lhs == rep.rhs == Fraction(1, 2)
        assert rep.equality


# max degree 1, where UPPER_K's coefficient t(max, max-1) is taken as 0:
# K2, 2K2 and K2 + K1, each with rhs m/2
MAX_DEGREE_ONE = [
    (Graph.from_edges(2, [(0, 1)]), Fraction(1, 2)),
    (Graph.from_edges(4, [(0, 1), (2, 3)]), Fraction(1)),
    (Graph.from_edges(3, [(0, 1)]), Fraction(1, 2)),
]


class TestUpperK:
    def test_k4(self):
        rep = upper_bound_k(complete_graph(4))
        assert rep.lhs == rep.rhs == 3 and rep.equality
        assert rep.context["k"] == 6

    def test_p4(self):
        rep = upper_bound_k(path_graph(4))
        assert rep.context["k"] == 1
        assert rep.rhs == Fraction(1, 2) + Fraction(2, 5) * 2
        assert rep.equality

    def test_star_strict(self):
        rep = upper_bound_k(star_graph(3))
        assert rep.context["k"] == 0
        assert rep.rhs == Fraction(18, 13)
        assert rep.lhs == Fraction(9, 10)
        assert rep.holds and not rep.equality

    @pytest.mark.parametrize("g, rhs", MAX_DEGREE_ONE)
    def test_max_degree_one(self, g, rhs):
        rep = upper_bound_k(g)
        assert type(rep.rhs) is Fraction and rep.rhs == rhs
        assert rep.equality


class TestUpperNDelta:
    def test_k4(self):
        rep = upper_bound_n_delta(complete_graph(4))
        assert rep.lhs == rep.rhs == 3 and rep.equality

    def test_p4(self):
        rep = upper_bound_n_delta(path_graph(4))
        assert rep.rhs == Fraction(17, 10)
        assert rep.holds and not rep.equality

    def test_c6(self):
        rep = upper_bound_n_delta(cycle_graph(6))
        assert rep.lhs == rep.rhs == 3 and rep.equality

    def test_half_integer_rhs(self):
        # K_{1,2}: n=3, max degree 2 -> n*max/2 = 3 is integral; use P3 plus a
        # pendant-heavy star to hit a half-integer bound instead
        rep = upper_bound_n_delta(star_graph(4))  # n=5, max=4 -> 10 - k
        assert rep.holds

    @pytest.mark.parametrize("g, rhs", MAX_DEGREE_ONE)
    def test_max_degree_one(self, g, rhs):
        rep = upper_bound_n_delta(g)
        assert type(rep.rhs) is Fraction and rep.rhs == rhs
        assert rep.equality


class TestGaBounds:
    def test_ga_simple_c5(self):
        rep = ga_lower_simple(cycle_graph(5))
        assert rep.lhs == pytest.approx(2.5, abs=1e-9)
        assert rep.rhs == pytest.approx(1.25, abs=1e-9)
        assert rep.holds and not rep.equality

    def test_ga_simple_p4(self):
        rep = ga_lower_simple(path_graph(4))
        assert rep.rhs == pytest.approx(0.693899, abs=1e-6)
        assert rep.holds

    def test_ga_simple_single_edge(self):
        rep = ga_lower_simple(Graph.from_edges(2, [(0, 1)]))
        assert rep.lhs == pytest.approx(0.5) and rep.rhs == pytest.approx(0.25)
        assert rep.holds

    def test_ga_m2_regular_equality(self):
        for g in (cycle_graph(5), complete_graph(4), cycle_graph(6)):
            rep = ga_m2_lower(g)
            assert rep.equality, f"regular graph must attain the bound: {g}"
            assert rep.lhs == pytest.approx(g.m / 2, abs=1e-9)

    def test_ga_m2_p4(self):
        rep = ga_m2_lower(path_graph(4))
        assert rep.rhs == pytest.approx(1.040849, abs=1e-6)
        assert rep.holds and not rep.equality

    def test_ga_m2_star(self):
        rep = ga_m2_lower(star_graph(3))
        assert rep.rhs == pytest.approx(0.675, abs=1e-9)
        assert rep.lhs == pytest.approx(0.9, abs=1e-9)
        assert rep.holds

    def test_remark_ordering(self):
        for g, lo, hi in (
            (path_graph(4), 0.693899, 1.040849),
            (cycle_graph(5), 1.25, 2.5),
            (Graph.from_edges(2, [(0, 1)]), 0.25, 0.5),
        ):
            rep = remark_ordering(g)
            assert rep.holds
            assert rep.rhs == pytest.approx(lo, abs=1e-6)
            assert rep.lhs == pytest.approx(hi, abs=1e-6)


def _ulps_around(x: float, k: int) -> list[float]:
    """x and the k floats on either side of it."""
    below = above = x
    out = [x]
    for _ in range(k):
        below = math.nextafter(below, -math.inf)
        above = math.nextafter(above, math.inf)
        out += [below, above]
    return out


class TestTolerance:
    """The GA checks' tolerance, REL_TOL relative and absolute below 1, which
    check_pair_stats writes out on approx_tol: every bit must be that of the
    written-out forms."""

    RHS = [0.0, -0.0, 1e-300, 5e-10, 0.25, 0.5, 1.0 - 2 ** -53, 1.0, 1.0 + 2 ** -52, 1.5,
           2.885618083164127, 1e3, 7.5e8, 1e9, 1e12, 1e300]

    def test_tolerance_written_out(self):
        for r in self.RHS + [-r for r in self.RHS]:
            assert approx_tol(r).hex() == (REL_TOL * max(1.0, abs(r))).hex(), r

    def test_checks_written_out_on_a_grid(self):
        cases = 0
        for r in self.RHS + [-r for r in self.RHS]:
            tol = REL_TOL * max(1.0, abs(r))
            # lhs at rhs, and at either edge of the band the tolerance
            # allows, each with a few ulps either side
            for lhs in _ulps_around(r, 4) + _ulps_around(r - tol, 4) + _ulps_around(r + tol, 4):
                assert approx_ge(lhs, r) is (lhs >= r - tol), (lhs, r)
                assert approx_eq(lhs, r) is (abs(lhs - r) <= tol), (lhs, r)
                cases += 1
        assert cases == 2 * len(self.RHS) * 27

    def test_both_verdicts_come_up(self):
        # the grid crosses each check's threshold, so the forms above are
        # compared on both sides of it
        for r in (0.5, -0.5, 1e3, -1e3):
            tol = approx_tol(r)
            below = math.nextafter(r - tol, -math.inf)
            assert approx_ge(r - tol, r) and not approx_ge(below, r)
            assert approx_eq(r, r) and not approx_eq(r + 4 * tol, r)


class TestM1F:
    def test_c5_equality(self):
        rep = m1_f_lower(cycle_graph(5))
        assert rep.rhs == Fraction(400, 80) - Fraction(5, 2) == Fraction(5, 2)
        assert rep.equality

    def test_k23_equality(self):
        rep = m1_f_lower(complete_bipartite(2, 3))
        assert rep.rhs == Fraction(36, 13)
        assert rep.equality

    def test_p4_strict(self):
        rep = m1_f_lower(path_graph(4))
        assert rep.rhs == Fraction(23, 18)
        assert rep.holds and not rep.equality


class TestEvaluateAll:
    def order(self, entries):
        return [e.bound_id for e in entries]

    def test_fixed_order_and_types(self):
        entries = evaluate_all(path_graph(4))
        assert self.order(entries) == list(BoundId)

    def test_c5_all_hold_with_equalities(self):
        entries = evaluate_all(cycle_graph(5))
        by_id = {e.bound_id: e for e in entries}
        for bid in (BoundId.LOWER_ELL, BoundId.UPPER_K, BoundId.UPPER_NDELTA, BoundId.M1_F,
                    BoundId.GA_M2):
            assert by_id[bid].equality
        assert isinstance(by_id[BoundId.EDGE_SECOND_MIN], SkippedBound)
        assert isinstance(by_id[BoundId.CLAIM1], SkippedBound)
        assert isinstance(by_id[BoundId.TREE_EDGE], SkippedBound)
        assert all(e.holds for e in entries if isinstance(e, BoundReport))

    def test_p4_equalities(self):
        by_id = {e.bound_id: e for e in evaluate_all(path_graph(4))}
        assert by_id[BoundId.LOWER_ELL].equality
        assert by_id[BoundId.UPPER_K].equality
        assert not by_id[BoundId.M1_F].equality
        assert isinstance(by_id[BoundId.TREE_EDGE], BoundReport)
        assert by_id[BoundId.TREE_EDGE].equality

    def test_star_all_hold(self):
        entries = evaluate_all(star_graph(3))
        assert all(e.holds for e in entries if isinstance(e, BoundReport))
        by_id = {e.bound_id: e for e in entries}
        # every edge of a star is the excluded extreme pair
        assert isinstance(by_id[BoundId.EDGE_SECOND_MIN], SkippedBound)
        assert isinstance(by_id[BoundId.TREE_EDGE], SkippedBound)

    def test_diamond_second_min_equality_gap(self):
        # the (3,3) edge attains the second minimum 1/2 when max = min + 1
        by_id = {e.bound_id: e for e in evaluate_all(diamond_graph())}
        rep = by_id[BoundId.EDGE_SECOND_MIN]
        assert rep.equality and rep.rhs == Fraction(1, 2)

    def test_isolated_vertex_skips_min_degree_bounds(self):
        g = Graph.from_edges(3, [(0, 1)])
        by_id = {e.bound_id: e for e in evaluate_all(g)}
        for bid in (BoundId.EDGE_MIN, BoundId.EDGE_SECOND_MIN, BoundId.LOWER_ELL,
                    BoundId.CLAIM1):
            assert isinstance(by_id[bid], SkippedBound)
        for bid in (BoundId.UPPER_K, BoundId.UPPER_NDELTA, BoundId.GA_SIMPLE,
                    BoundId.GA_M2, BoundId.M1_F, BoundId.REMARK_ORDER):
            assert isinstance(by_id[bid], BoundReport)
            assert by_id[bid].holds

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            evaluate_all(Graph(2))
