from fractions import Fraction

import pytest

from isdd_lab.classify import (
    classify,
    edge_ratio_constant,
    in_gamma1,
    in_gamma2,
    in_gamma3,
    is_regular,
    is_semiregular_bipartite,
)
from isdd_lab.graphs import Graph, GraphError, degrees
from helpers import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    diamond_graph,
    h1_graph,
    h2_graph,
    h3_graph,
    oracle_is_semiregular_bipartite,
    path_graph,
    star_graph,
)


def _union(*graphs: Graph) -> Graph:
    """The disjoint union, each graph's vertices numbered after the ones before."""
    edges, n = [], 0
    for g in graphs:
        edges += [(n + i, n + j) for i, j in g.edges]
        n += g.n
    return Graph(n, tuple(edges))


class TestRegular:
    def test_cycle(self):
        assert is_regular(cycle_graph(5)) == 2

    def test_path(self):
        assert is_regular(path_graph(4)) is None

    def test_complete(self):
        assert is_regular(complete_graph(4)) == 3

    def test_edgeless(self):
        assert is_regular(Graph(3)) == 0


class TestSemiregular:
    def test_k23(self):
        assert is_semiregular_bipartite(complete_bipartite(2, 3)) == (3, 2)

    def test_star(self):
        assert is_semiregular_bipartite(star_graph(3)) == (3, 1)

    def test_triangle(self):
        assert is_semiregular_bipartite(complete_graph(3)) is None

    def test_regular_bipartite_reports_equal_pair(self):
        assert is_semiregular_bipartite(cycle_graph(6)) == (2, 2)

    def test_p4_is_not(self):
        assert is_semiregular_bipartite(path_graph(4)) is None

    def test_disconnected_components_merge(self):
        # two stars: orientation must flip per component to line up (2, 1)
        g = Graph.from_edges(6, [(0, 1), (0, 2), (4, 3), (4, 5)])
        assert is_semiregular_bipartite(g) == (2, 1)

    def test_disconnected_mismatch(self):
        # a (2,1) star and a (3,1) star cannot share a degree pair
        g = Graph.from_edges(7, [(0, 1), (0, 2), (3, 4), (3, 5), (3, 6)])
        assert is_semiregular_bipartite(g) is None

    def test_isolated_vertex_blocks(self):
        g = Graph.from_edges(6, [(i, 2 + j) for i in range(2) for j in range(3)])
        assert is_semiregular_bipartite(g) is None

    @pytest.mark.parametrize("g, want", [
        # 2-regular, but the triangle is an odd cycle
        (_union(cycle_graph(4), complete_graph(3)), None),
        (_union(cycle_graph(4), cycle_graph(6)), (2, 2)),
        # the two centres at opposite ends of the labels
        (Graph.from_edges(8, [(0, 1), (0, 2), (0, 3), (7, 4), (7, 5), (7, 6)]), (3, 1)),
        # the isolated vertex first
        (_union(Graph(1), complete_bipartite(2, 3)), None),
    ], ids=["c4_k3", "c4_c6", "two_k13", "k23_isolated"])
    def test_disjoint_unions(self, g, want):
        assert is_semiregular_bipartite(g) == want
        assert oracle_is_semiregular_bipartite(g) == want


class TestGammaFamilies:
    def test_h1_in_gamma1(self):
        assert in_gamma1(h1_graph())

    def test_p4_not_gamma1(self):
        assert not in_gamma1(path_graph(4))

    def test_c5_not_gamma1(self):
        assert not in_gamma1(cycle_graph(5))

    def test_h2_in_gamma2(self):
        assert in_gamma2(h2_graph())

    def test_k4_not_gamma2(self):
        assert not in_gamma2(complete_graph(4))

    def test_star_not_gamma2(self):
        assert not in_gamma2(star_graph(3))

    def test_p4_and_diamond_are_gamma2(self):
        # literal reading: equal-degree edges have common degree max or max-1
        assert in_gamma2(path_graph(4))
        assert in_gamma2(diamond_graph())

    def test_h3_in_gamma3(self):
        assert in_gamma3(h3_graph())

    def test_k23_not_gamma3(self):
        assert not in_gamma3(complete_bipartite(2, 3))

    def test_c6_not_gamma3(self):
        assert not in_gamma3(cycle_graph(6))

    def test_disconnected_never_gamma(self):
        g = Graph.from_edges(8, tuple((i, i + 1) for i in range(3)) + ((4, 5), (5, 6), (6, 7)))
        assert not (in_gamma1(g) or in_gamma2(g) or in_gamma3(g))


class TestH3Structure:
    def test_degree_profile(self):
        deg = degrees(h3_graph())
        assert sorted(set(deg)) == [6, 9, 18]
        assert deg.count(18) == 9
        assert deg.count(6) == 9
        assert deg.count(9) == 12

    def test_middle_degree_formula(self):
        # 18*(18-6)/(18+6) = 9
        assert 18 * (18 - 6) // (18 + 6) == 9

    def test_ratio(self):
        assert edge_ratio_constant(h3_graph()) == Fraction(1, 15)


class TestEdgeRatio:
    def test_c5(self):
        assert edge_ratio_constant(cycle_graph(5)) == Fraction(1, 2)

    def test_k23(self):
        assert edge_ratio_constant(complete_bipartite(2, 3)) == Fraction(5, 13)

    def test_p4_absent(self):
        assert edge_ratio_constant(path_graph(4)) is None

    def test_edgeless_rejected(self):
        with pytest.raises(GraphError):
            edge_ratio_constant(Graph(2))


class TestClassify:
    def test_c5(self):
        label = classify(cycle_graph(5))
        assert label.regular and label.regular_degree == 2
        assert label.edge_ratio == Fraction(1, 2)
        assert not (label.gamma1 or label.gamma2 or label.gamma3)

    def test_k23(self):
        label = classify(complete_bipartite(2, 3))
        assert label.semiregular_bipartite and label.semiregular_pair == (3, 2)
        assert label.edge_ratio == Fraction(5, 13)

    def test_h3(self):
        label = classify(h3_graph())
        assert label.gamma3 and label.edge_ratio == Fraction(1, 15)
        assert not (label.regular or label.semiregular_bipartite)

    def test_p4(self):
        label = classify(path_graph(4))
        assert not label.regular
        assert not label.semiregular_bipartite
        assert not label.gamma1
        assert not label.constant_edge_ratio and label.edge_ratio is None

    def test_empty_graph(self):
        label = classify(Graph(0))
        assert not label.regular and label.edge_ratio is None

    def test_h1_h2(self):
        assert classify(h1_graph()).gamma1
        assert classify(h2_graph()).gamma2
