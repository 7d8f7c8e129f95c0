"""Differential tests: the shared degree-pair helpers, the index sums over
them and the classification predicates against edge-by-edge and side-by-side
definitions (``helpers``)."""

import random

import pytest

from isdd_lab import _kernel
from isdd_lab.classify import (edge_ratio_constant, in_gamma1, in_gamma2, in_gamma3, is_regular,
                               is_semiregular_bipartite)
from isdd_lab.enumeration import labeled_graphs
from isdd_lab.graphs import (SLOT_TABLE_MAX_N, Graph, count_degree_pair_edges,
                             degree_pair_counts, degrees, is_connected, parse_graph6)
from isdd_lab.indices import (forgotten, geometric_arithmetic, index_vector, isdd, sdd, zagreb1,
                              zagreb2)
from helpers import (
    complete_bipartite,
    h1_graph,
    h2_graph,
    h3_graph,
    oracle_degree_pair_counts,
    oracle_edge_ratio_constant,
    oracle_in_gamma1,
    oracle_in_gamma2,
    oracle_in_gamma3,
    oracle_index_vector,
    oracle_is_regular,
    oracle_is_semiregular_bipartite,
)


def _random_graphs():
    rng = random.Random(20261018)
    out = [h1_graph(), h2_graph(), h3_graph()]
    for n in range(8, 31):
        for _ in range(12):
            density = rng.uniform(0.05, 0.9)
            edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
            out.append(Graph(n, tuple(sorted(edges))))
    return out


def _isolated_vertex_graphs():
    """Seeded graphs, each with 1 + n // 8 isolated vertices, on orders up
    to and past ``SLOT_TABLE_MAX_N``, where ``degree_pair_counts`` stops
    reading its keys from ready rows; each vertex draws its edges at its
    own density, so the degrees and pairs spread."""
    rng = random.Random(20261020)
    out = []
    for n in [*range(5, 13), *range(SLOT_TABLE_MAX_N - 2, SLOT_TABLE_MAX_N + 3), 80, 100]:
        w = [rng.uniform(0.3, 1.0) for _ in range(n)]
        for v in rng.sample(range(n), 1 + n // 8):
            w[v] = 0.0
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < w[i] * w[j]]
        out.append(Graph(n, tuple(edges)))
    return out


def _gamma3_realization(sides: int, neighbourhoods) -> Graph:
    """The bipartite graph joining W vertex ``sides + t`` to the U vertices
    0..sides-1 in ``neighbourhoods[t]``."""
    return Graph.from_edges(sides + len(neighbourhoods),
                            [(u, sides + t) for t, nb in enumerate(neighbourhoods) for u in nb])


def _one_edge_off(g: Graph):
    """Every graph one edge toggled away from ``g``."""
    edges = set(g.edges)
    for j in range(g.n):
        for i in range(j):
            yield Graph(g.n, tuple(sorted(edges ^ {(i, j)})))


SMALL = [g for n in range(1, 7) for g in labeled_graphs(n)]
# gamma3 members with (max, min, middle degree) = (6, 2, 3) and (12, 4, 6):
# U all at the largest degree, W at the two others
GAMMA3 = [
    _gamma3_realization(3, [(0, 1, 2)] * 4 + [(0, 1), (1, 2), (0, 2)]),
    _gamma3_realization(6, [range(6)] * 4 + [[(t + k) % 6 for k in range(4)] for t in range(12)]),
]
# every graph one edge away from a gamma3 member
NEAR_GAMMA3 = [h for g in GAMMA3 for h in _one_edge_off(g)]
RANDOM = _random_graphs()
ISOLATED = _isolated_vertex_graphs()
# every graph on n <= 6 vertices, the figure graphs and a gamma3 graph on 10
NAMED = SMALL + [h1_graph(), h2_graph(), h3_graph(), parse_graph6("IBjFFB_w?")]


def assert_pairs_match(graphs):
    for g in graphs:
        want = oracle_degree_pair_counts(g)
        got = degree_pair_counts(g)
        # keys in first-edge order, which the GA float sum depends on
        assert list(got.items()) == list(want.items()), g
        assert list(degree_pair_counts(g, degrees(g)).items()) == list(want.items()), g
        for a, b in list(want) + [(g.n, g.n)]:
            assert count_degree_pair_edges(g, a, b) == want.get((a, b), 0), (g, a, b)
            assert count_degree_pair_edges(g, b, a) == want.get((a, b), 0), (g, a, b)


def assert_classes_match(graphs):
    for g in graphs:
        assert in_gamma1(g) == oracle_in_gamma1(g), g
        assert in_gamma2(g) == oracle_in_gamma2(g), g
        if g.m:
            assert edge_ratio_constant(g) == oracle_edge_ratio_constant(g), g


@pytest.mark.parametrize("graphs", [SMALL, RANDOM, ISOLATED],
                         ids=["every_graph_n6", "random_n8_30", "isolated_vertices"])
def test_degree_pair_counts_match_edge_by_edge(graphs):
    assert_pairs_match(graphs)


@pytest.mark.parametrize("graphs", [SMALL, RANDOM], ids=["every_graph_n6", "random_n8_30"])
def test_index_sums_match_edge_by_edge(graphs):
    # the exact sums over the pair counts equal the edge-by-edge ones, and GA,
    # still summed edge by edge, is the same float to the last bit
    for g in graphs:
        singles = (isdd(g), sdd(g), zagreb1(g), zagreb2(g), forgotten(g), geometric_arithmetic(g))
        assert singles == oracle_index_vector(g), g
        assert index_vector(g) == singles, g


@pytest.mark.parametrize("graphs", [SMALL, RANDOM], ids=["every_graph_n6", "random_n8_30"])
def test_classes_match_edge_by_edge(graphs):
    assert_classes_match(graphs)


@pytest.mark.parametrize("graphs", [NAMED, RANDOM], ids=["named", "random_n8_30"])
def test_regular_and_semiregular_match_definition(graphs):
    for g in graphs:
        assert is_regular(g) == oracle_is_regular(g), g
        if g.n >= 2:
            assert is_semiregular_bipartite(g) == oracle_is_semiregular_bipartite(g), g


def test_gamma3_matches_definition():
    for g in NAMED + RANDOM + GAMMA3 + NEAR_GAMMA3:
        assert in_gamma3(g) == oracle_in_gamma3(g), g


def test_bipartite_twins_reach_every_verdict():
    assert {oracle_is_regular(g) is None for g in NAMED} == {True, False}
    assert {oracle_is_semiregular_bipartite(g) is None for g in NAMED if g.n >= 2} == {
        True, False}
    assert {oracle_in_gamma3(g) for g in NAMED} == {True, False}


def test_small_graphs_reach_every_verdict():
    """The exhaustive set holds members and non-members of each predicate."""
    assert {oracle_in_gamma1(g) for g in SMALL} == {True, False}
    assert {oracle_in_gamma2(g) for g in SMALL} == {True, False}
    assert {oracle_edge_ratio_constant(g) is None for g in SMALL if g.m} == {True, False}
    # a single cross pair with no equal-degree edge is not gamma2
    assert not in_gamma2(complete_bipartite(2, 3))


def test_gamma3_from_pair_counts():
    """The kernel's gamma3 rule, on degree-pair counts alone, agrees with the
    side-by-side definition on every connected graph with edges: exhaustively
    on n <= 6 (no member there), on random graphs and on members with their
    one-edge near misses."""
    graphs = SMALL + RANDOM + [parse_graph6("IBjFFB_w?")] + GAMMA3 + NEAR_GAMMA3
    verdicts = []
    for g in graphs:
        if g.m == 0 or not is_connected(g):
            continue
        deg = degrees(g)
        verdict = _kernel._lazy_gamma3(degree_pair_counts(g, deg), max(deg), min(deg))
        assert verdict == oracle_in_gamma3(g), g
        verdicts.append(verdict)
    assert all(map(oracle_in_gamma3, GAMMA3))
    assert set(verdicts) == {True, False}


def test_signature_degrees_match_degrees():
    """Degrees rebuilt from the pair counts alone, disconnected graphs and
    isolated vertices included."""
    for g in SMALL:
        deg = degrees(g)
        assert _kernel.signature_degrees(g.n, degree_pair_counts(g, deg)) == sorted(deg), g
