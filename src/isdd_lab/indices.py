"""Degree-based topological indices.

Five of the six indices are computed in exact arithmetic (``fractions.Fraction``
for the two rational ones, plain integers for the Zagreb and forgotten
indices); only the geometric-arithmetic index uses floating point, since its
edge terms are irrational.  Exactness is what makes downstream equality
detection trustworthy.  Each index reads a graph's degrees and degree-pair
counts from :func:`graphs.graph_profile`, once per graph.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from math import sqrt

from .graphs import Graph, GraphError, graph_profile

GA_ABS_TOL = 1e-9


def fraction_str(x: Fraction) -> str:
    """Lossless "p/q" text (plain "p" when q is 1); lowest terms by construction."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@lru_cache(maxsize=None)
def _term(a: int, b: int) -> Fraction:
    return Fraction(a * b, a * a + b * b)


def edge_term_isdd(di: int, dj: int) -> Fraction:
    """Per-edge contribution di*dj/(di^2+dj^2); symmetric and ratio-invariant."""
    if di < 1 or dj < 1:
        raise GraphError(f"edge endpoint degrees must be >= 1, got ({di}, {dj})")
    return _term(di, dj) if di <= dj else _term(dj, di)


def isdd(g: Graph) -> Fraction:
    """Inverse symmetric division deg index, exact; 0 for edgeless graphs."""
    _, pc = graph_profile(g)
    return sum((cnt * edge_term_isdd(a, b) for (a, b), cnt in pc.items()), Fraction(0))


def sdd(g: Graph) -> Fraction:
    """Symmetric division deg index: sum of (di^2+dj^2)/(di*dj), exact."""
    _, pc = graph_profile(g)
    return sum((cnt * Fraction(a * a + b * b, a * b) for (a, b), cnt in pc.items()), Fraction(0))


def zagreb1(g: Graph) -> int:
    """First Zagreb index: sum of squared degrees.

    Both the vertex-sum and edge-sum forms are evaluated; a mismatch would
    mean a degree-bookkeeping bug, so it is asserted.
    """
    deg, pc = graph_profile(g)
    by_vertex = sum(d * d for d in deg)
    by_edge = sum(cnt * (a + b) for (a, b), cnt in pc.items())
    assert by_vertex == by_edge, "zagreb1 vertex/edge sums disagree"
    return by_vertex


def zagreb2(g: Graph) -> int:
    """Second Zagreb index: sum of di*dj over edges."""
    _, pc = graph_profile(g)
    return sum(cnt * a * b for (a, b), cnt in pc.items())


def forgotten(g: Graph) -> int:
    """Forgotten index: sum of cubed degrees (edge-sum form asserted equal)."""
    deg, pc = graph_profile(g)
    by_vertex = sum(d ** 3 for d in deg)
    by_edge = sum(cnt * (a * a + b * b) for (a, b), cnt in pc.items())
    assert by_vertex == by_edge, "forgotten vertex/edge sums disagree"
    return by_vertex


def geometric_arithmetic(g: Graph) -> float:
    """Geometric-arithmetic index: sum of 2*sqrt(di*dj)/(di+dj), double precision.

    The one index summed edge by edge, not over :func:`graphs.degree_pair_counts`:
    summed in pair order, the float changes in its last bits on 10,517 of the
    33,867 graphs on n <= 6 vertices, and ``check`` prints it with ``repr``.
    """
    deg, _ = graph_profile(g)
    total = 0.0
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        total += 2.0 * sqrt(a * b) / (a + b)
    return total


class IndexVector(namedtuple("IndexVector", "isdd sdd m1 m2 forgotten ga")):
    """The six index values of one graph (five exact, ga approximate)."""

    __slots__ = ()


def index_vector(g: Graph) -> IndexVector:
    """All six indices, each from its own function, with their ranges asserted."""
    m = g.m
    iv = IndexVector(isdd(g), sdd(g), zagreb1(g), zagreb2(g), forgotten(g),
                     geometric_arithmetic(g))
    assert iv.isdd <= Fraction(m, 2), "each edge term is at most 1/2"
    assert iv.sdd >= 2 * m, "each edge term is at least 2"
    assert -GA_ABS_TOL <= iv.ga <= m + GA_ABS_TOL, "ga must lie in [0, m]"
    return iv
