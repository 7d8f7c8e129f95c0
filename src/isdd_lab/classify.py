"""Structural detection of the extremal graph families.

The families: regular graphs, (r, s)-semiregular bipartite graphs, and three
classes of connected graphs defined by their edge degree-pair composition
(gamma1, gamma2) or by a bipartite degree pattern that fixes it (gamma3, see
:func:`gamma3_from_pairs`).  The constant-edge-ratio predicate tests whether
(di+dj)/(di^2+dj^2) takes a single value over all edges; for connected
graphs that is equivalent to membership in regular / semiregular bipartite /
gamma3.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .graphs import Graph, GraphError, bipartition, graph_connected, graph_profile
from .graphs import degrees as _degrees  # unused here; perfbench/layers.py wraps this name


class GraphClassLabel(namedtuple("GraphClassLabel", (
        "regular regular_degree semiregular_bipartite semiregular_pair "
        "gamma1 gamma2 gamma3 constant_edge_ratio edge_ratio"))):
    """Family verdicts of one graph; ``regular_degree``, ``semiregular_pair``
    (r, s) and ``edge_ratio`` (a Fraction) are None outside their family."""

    __slots__ = ()


def is_regular(g: Graph) -> int | None:
    """The common degree when all degrees are equal, else None."""
    deg, _ = graph_profile(g)
    if not deg:
        raise GraphError("degree data undefined for the empty vertex set")
    return deg[0] if max(deg) == min(deg) else None


def is_semiregular_bipartite(g: Graph) -> tuple[int, int] | None:
    """The degree pair (r, s), r >= s, of a semiregular bipartite graph.

    Every side-U vertex must have degree r >= 1 and every side-W vertex
    degree s >= 1 under some bipartition.  Regular bipartite graphs report
    (r, r); edgeless graphs and graphs with an isolated vertex report None.
    Such a graph has the single degree pair (r, s) of its degree-pair counts.
    Conversely, with no isolated vertex, a single pair (r, s) gives every
    vertex degree r or s; for r > s the two degrees are the two sides, and
    for r = s the graph is r-regular, so it needs a :func:`bipartition`.
    """
    if g.n < 2:
        raise GraphError(f"semiregular test needs at least 2 vertices, got {g.n}")
    deg, pc = graph_profile(g)
    if 0 in deg or len(pc) != 1:
        return None
    (r, s), = pc
    return (r, s) if r > s or bipartition(g) is not None else None


def in_gamma1(g: Graph) -> bool:
    """Connected, with ell > 0 extreme-pair edges, m-ell > 0 edges on the
    (max_degree-1, min_degree) pair, and nothing else."""
    deg, pc = graph_profile(g)
    return g.m > 0 and graph_connected(g) and _gamma1_pairs(pc, max(deg), min(deg))


def _gamma1_pairs(pc, dmax: int, dmin: int) -> bool:
    """Gamma1 membership of a connected graph, from its degree-pair counts."""
    second = (dmax - 1, dmin) if dmax - 1 >= dmin else (dmin, dmax - 1)
    return pc.keys() == {(dmax, dmin), second}


def in_gamma2(g: Graph) -> bool:
    """Connected, with k > 0 equal-degree edges of common degree max_degree or
    max_degree-1, m-k > 0 edges on the (max_degree, max_degree-1) pair, and
    nothing else."""
    deg, pc = graph_profile(g)
    return g.m > 0 and graph_connected(g) and _gamma2_pairs(pc, max(deg))


def _gamma2_pairs(pc, dmax: int) -> bool:
    """Gamma2 membership of a connected graph, from its degree-pair counts."""
    cross = (dmax, dmax - 1)
    pairs = pc.keys()
    return (cross in pairs and any(a == b for a, b in pairs)
            and pairs <= {(dmax, dmax), (dmax - 1, dmax - 1), cross})


def in_gamma3(g: Graph) -> bool:
    """Connected bipartite, one side all max_degree, other side split between
    min_degree and the derived middle degree max*(max-min)/(max+min).

    Both W-side values must occur (a single value is the semiregular case),
    and the middle degree must be a positive integer; decided from the
    degree-pair counts by :func:`gamma3_from_pairs`.
    """
    deg, pc = graph_profile(g)
    return g.m > 0 and graph_connected(g) and gamma3_from_pairs(pc, max(deg), min(deg))


def gamma3_from_pairs(pc: dict[tuple[int, int], int], dmax: int, dmin: int) -> bool:
    """Gamma3 membership of a connected graph with edges from its degree-pair
    counts ``pc`` and its largest and smallest degrees.

    Gamma3 asks for a bipartition with every vertex of one side at degree
    dmax and the degrees of the other side exactly dmin and the middle
    degree dmax(dmax - dmin)/(dmax + dmin), so its pairs are (dmax, dmin) and
    (dmax, mid).  Conversely, when those are the pairs, every edge joins a
    dmax-vertex to a smaller one: the two vertex sets are the bipartition,
    the only one of a connected graph, and the small side's degrees are the
    second entries of the pairs.  (mid never equals dmin, since
    dmax/dmin = 1 + sqrt(2) would, and a regular graph has mid = 0, which no
    pair holds.)
    """
    mid, rem = divmod(dmax * (dmax - dmin), dmax + dmin)
    return not rem and pc.keys() == {(dmax, dmin), (dmax, mid)}


def edge_ratio_constant(g: Graph) -> Fraction | None:
    """The common value of (di+dj)/(di^2+dj^2) over all edges, if constant."""
    if g.m == 0:
        raise GraphError("edge ratio undefined for an edgeless graph")
    pairs = iter(graph_profile(g)[1])
    a0, b0 = next(pairs)
    num0, den0 = a0 + b0, a0 * a0 + b0 * b0
    for a, b in pairs:
        if (a + b) * den0 != num0 * (a * a + b * b):
            return None
    return Fraction(num0, den0)


def classify(g: Graph) -> GraphClassLabel:
    """All membership verdicts for one graph, with consistency asserted.

    Each family test reads the degrees, degree-pair counts and connectivity
    from :func:`graphs.graph_profile` and :func:`graphs.graph_connected`.
    """
    if g.n == 0:
        return GraphClassLabel(False, None, False, None, False, False, False, False, None)
    deg, pc = graph_profile(g)
    dmax, dmin = max(deg), min(deg)
    connected = g.m > 0 and graph_connected(g)
    r = dmax if dmax == dmin else None
    pair = is_semiregular_bipartite(g) if g.n >= 2 else None
    g1 = connected and _gamma1_pairs(pc, dmax, dmin)
    g2 = connected and _gamma2_pairs(pc, dmax)
    g3 = connected and gamma3_from_pairs(pc, dmax, dmin)
    ratio = edge_ratio_constant(g) if g.m >= 1 else None

    if r is not None and g.m >= 1:
        assert ratio == Fraction(1, r), "regular graphs have constant ratio 1/r"
        assert not (g1 or g2 or g3), "regular graphs are outside the gamma families"
    if pair is not None:
        assert ratio == Fraction(pair[0] + pair[1], pair[0] ** 2 + pair[1] ** 2), (
            "semiregular graphs have constant ratio (r+s)/(r^2+s^2)"
        )
    return GraphClassLabel(
        regular=r is not None,
        regular_degree=r,
        semiregular_bipartite=pair is not None,
        semiregular_pair=pair,
        gamma1=g1,
        gamma2=g2,
        gamma3=g3,
        constant_edge_ratio=ratio is not None,
        edge_ratio=ratio,
    )
