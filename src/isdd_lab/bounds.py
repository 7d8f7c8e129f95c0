"""Bound and relation checks for the inverse symmetric division deg index.

Each operation evaluates one inequality and returns a :class:`BoundReport`
with both sides, a holds flag and an equality flag.  Bounds whose two sides
are rational are decided in exact arithmetic; the three involving the
geometric-arithmetic index are decided in floating point under a relative
1e-9 tolerance.

Every per-edge quantity is the edge term t(a, b) = ab/(a^2+b^2) of
:func:`indices.edge_term_isdd`, taken at the degree pair each bound names.

Identifiers:

* EDGE_MIN          every edge term >= t(max_deg, min_deg)
* EDGE_SECOND_MIN   every edge term off the extreme pair >= t(max_deg-1, min_deg)
* TREE_EDGE         tree edges off the (n-1, 1) pair >= t(n-2, 1)
* LOWER_ELL         index >= min_term*ell + second_min_term*(m-ell)
* UPPER_K           index <= k/2 + top_pair_term*(m-k), top_pair_term = t(max_deg, max_deg-1)
* UPPER_NDELTA      UPPER_K with m replaced by n*max_deg/2
* GA_SIMPLE         index >= ga^2/(4m)
* GA_M2             index >= max_deg^2*ga^2/(4m*max_deg^2 - 2*m2)
* M1_F              index >= m1^2/(2f) - m/2
* CLAIM1            two-link chain between candidate second-minimum terms
* REMARK_ORDER      the GA_M2 right side strictly improves on GA_SIMPLE's
"""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from fractions import Fraction

from .graphs import Graph, GraphError, graph_connected, graph_profile, last_graph_memo
from .indices import (edge_term_isdd, fraction_str, geometric_arithmetic, isdd, zagreb1, zagreb2,
                      forgotten)

REL_TOL = 1e-9
STRICT_MARGIN = 1e-9


class BoundId(str, Enum):
    EDGE_MIN = "EDGE_MIN"
    EDGE_SECOND_MIN = "EDGE_SECOND_MIN"
    TREE_EDGE = "TREE_EDGE"
    LOWER_ELL = "LOWER_ELL"
    UPPER_K = "UPPER_K"
    UPPER_NDELTA = "UPPER_NDELTA"
    GA_SIMPLE = "GA_SIMPLE"
    GA_M2 = "GA_M2"
    M1_F = "M1_F"
    CLAIM1 = "CLAIM1"
    REMARK_ORDER = "REMARK_ORDER"


ALL_BOUND_IDS: tuple[str, ...] = tuple(b.value for b in BoundId)


class BoundReport(namedtuple("BoundReport",
                             "bound_id lhs rhs holds equality arithmetic context")):
    """One evaluated bound: its BoundId, both sides (Fraction, or float when
    ``arithmetic`` is "approximate" rather than "exact"), the verdict and the
    graph's context dict."""

    __slots__ = ()


class SkippedBound(namedtuple("SkippedBound", "bound_id reason")):
    """Precondition of one bound not met; carried instead of a report."""

    __slots__ = ()


def side_text(x: Fraction | float) -> str:
    """The text of one side of a bound: ``repr`` of a float, "p/q" of a Fraction."""
    return repr(x) if isinstance(x, float) else fraction_str(x)


def approx_tol(rhs: float) -> float:
    """The tolerance of a GA check against ``rhs``: ``REL_TOL`` relative,
    absolute below 1."""
    return REL_TOL * max(1.0, abs(rhs))


def approx_ge(lhs: float, rhs: float) -> bool:
    return lhs >= rhs - approx_tol(rhs)


def approx_eq(lhs: float, rhs: float) -> bool:
    return abs(lhs - rhs) <= approx_tol(rhs)


def ga_simple_rhs(ga: float, m: int) -> float:
    return ga * ga / (4.0 * m)


def ga_m2_rhs(ga: float, m: int, dmax: int, m2: int) -> float:
    return (dmax * dmax) * ga * ga / (4.0 * m * dmax * dmax - 2.0 * m2)


def edge_min_term(delta_max: int, delta_min: int) -> Fraction:
    """Smallest possible edge term for a graph with the given degree extremes:
    t(max, min)."""
    if not 1 <= delta_min <= delta_max:
        raise GraphError(f"need 1 <= min <= max, got ({delta_max}, {delta_min})")
    return edge_term_isdd(delta_max, delta_min)


def edge_second_min_term(delta_max: int, delta_min: int) -> Fraction:
    """Lower bound for edge terms whose degree pair is not the extreme pair:
    t(max-1, min)."""
    if delta_max < 2:
        raise GraphError(f"second minimum needs max degree >= 2, got {delta_max}")
    if not 1 <= delta_min <= delta_max - 1:
        raise GraphError(f"need 1 <= min <= max-1, got ({delta_max}, {delta_min})")
    return edge_term_isdd(delta_max - 1, delta_min)


def claim1_chain(delta_max: int, delta_min: int) -> bool:
    """Exact check of the chain ordering the three candidate second minima.

    Left link: second_min(max, min) <= term(max, min+1); checked whenever
    max >= min+1.  Right link: term(max, min+1) <= term(max-1, min+1); only
    asserted for max >= min+2 (it can fail at max = min+1).
    """
    dmax, dmin = delta_max, delta_min
    if dmin < 1 or dmax < dmin + 1:
        raise GraphError(f"need max >= min+1 >= 2, got ({dmax}, {dmin})")
    left = edge_second_min_term(dmax, dmin)
    mid = edge_term_isdd(dmax, dmin + 1)
    if left > mid:
        return False
    if dmax >= dmin + 2:
        right = edge_term_isdd(dmax - 1, dmin + 1)
        if mid > right:
            return False
    return True


def _empty_context(n: int | None = None) -> dict:
    return {"n": n, "m": None, "max_degree": None, "min_degree": None, "ell": None, "k": None}


class _Params:
    """Shared per-graph quantities for the graph-level bound operations,
    found once per graph through :func:`_params`."""

    def __init__(self, g: Graph):
        deg, pc = graph_profile(g)
        self.g = g
        self.m = g.m
        self.dmax = max(deg) if deg else 0
        self.dmin = min(deg) if deg else 0
        self.pair_counts = pc
        self.ell = pc.get((self.dmax, self.dmin), 0)
        self.k = sum(c for (a, b), c in pc.items() if a == b)
        # t(max, max-1); 0 when max <= 1, where no edge has unequal degrees
        # and edge_term_isdd(1, 0) would raise
        self.top_pair_term = (edge_term_isdd(self.dmax, self.dmax - 1) if self.dmax >= 2
                              else Fraction(0))
        self.isdd = isdd(g)
        self.ga = geometric_arithmetic(g)
        self.m2 = zagreb2(g)

    def context(self) -> dict:
        return {
            "n": self.g.n,
            "m": self.m,
            "max_degree": self.dmax,
            "min_degree": self.dmin,
            "ell": self.ell,
            "k": self.k,
        }

    def require_edges(self):
        if self.m == 0:
            raise GraphError("operation requires at least one edge")

    def require_min_degree(self):
        if self.dmin < 1:
            raise GraphError("operation requires minimum degree >= 1 (isolated vertex present)")


@last_graph_memo
def _params(g: Graph) -> _Params:
    return _Params(g)


def tree_edge_lower(n: int, di: int, dj: int) -> BoundReport:
    """Tree-specific per-edge lower bound for edges off the (n-1, 1) pair:
    t(n-2, 1), which beats the all-pairs form t(n-1, 1)."""
    if n <= 3:
        raise GraphError(f"tree bound needs order >= 4, got {n}")
    hi, lo = (di, dj) if di >= dj else (dj, di)
    if not 1 <= lo <= hi <= n - 1:
        raise GraphError(f"degrees ({di}, {dj}) impossible in a tree of order {n}")
    if (hi, lo) == (n - 1, 1):
        raise GraphError("the (n-1, 1) degree pair is excluded from the tree bound")
    rhs = edge_term_isdd(n - 2, 1)
    weaker = edge_term_isdd(n - 1, 1)
    assert rhs > weaker, "the tree bound must strictly beat the all-pairs form"
    lhs = edge_term_isdd(hi, lo)
    ctx = _empty_context(n)
    ctx["di"], ctx["dj"] = hi, lo
    return BoundReport(BoundId.TREE_EDGE, lhs, rhs, lhs >= rhs, lhs == rhs, "exact", ctx)


def lower_bound_ell(g: Graph) -> BoundReport:
    """Lower bound from the edge minimum t(max, min), weighted by ell, and the
    second minimum t(max-1, min) on the other m - ell edges."""
    p = _params(g)
    p.require_edges()
    p.require_min_degree()
    first = edge_min_term(p.dmax, p.dmin)
    rhs = first * p.ell
    if p.m > p.ell:
        # some edge is off the extreme pair, which forces max degree >= 2
        rhs += edge_second_min_term(p.dmax, p.dmin) * (p.m - p.ell)
    lhs = p.isdd
    return BoundReport(BoundId.LOWER_ELL, lhs, rhs, lhs >= rhs, lhs == rhs, "exact", p.context())


def upper_bound_k(g: Graph) -> BoundReport:
    """Upper bound from the equal-degree edge count k: each of the k edges
    gives 1/2, each other edge at most t(max, max-1)."""
    p = _params(g)
    p.require_edges()
    rhs = Fraction(p.k, 2) + p.top_pair_term * (p.m - p.k)
    lhs = p.isdd
    return BoundReport(BoundId.UPPER_K, lhs, rhs, lhs <= rhs, lhs == rhs, "exact", p.context())


def upper_bound_n_delta(g: Graph) -> BoundReport:
    """Coarser upper bound with m replaced by n*max_degree/2; its
    coefficient is UPPER_K's t(max, max-1)."""
    p = _params(g)
    p.require_edges()
    rhs = Fraction(p.k, 2) + p.top_pair_term * (Fraction(g.n * p.dmax, 2) - p.k)
    lhs = p.isdd
    return BoundReport(BoundId.UPPER_NDELTA, lhs, rhs, lhs <= rhs, lhs == rhs, "exact", p.context())


def ga_lower_simple(g: Graph) -> BoundReport:
    """Lower bound ga^2/(4m), floating point."""
    p = _params(g)
    p.require_edges()
    lhs = float(p.isdd)
    rhs = ga_simple_rhs(p.ga, p.m)
    return BoundReport(
        BoundId.GA_SIMPLE, lhs, rhs, approx_ge(lhs, rhs), approx_eq(lhs, rhs), "approximate", p.context()
    )


def ga_m2_lower(g: Graph) -> BoundReport:
    """Sharper lower bound mixing ga with the second Zagreb index."""
    p = _params(g)
    p.require_edges()
    lhs = float(p.isdd)
    rhs = ga_m2_rhs(p.ga, p.m, p.dmax, p.m2)
    return BoundReport(
        BoundId.GA_M2, lhs, rhs, approx_ge(lhs, rhs), approx_eq(lhs, rhs), "approximate", p.context()
    )


def remark_ordering(g: Graph) -> BoundReport:
    """Strict comparison: the GA_M2 right side beats the GA_SIMPLE right side."""
    p = _params(g)
    p.require_edges()
    lhs = ga_m2_rhs(p.ga, p.m, p.dmax, p.m2)
    rhs = ga_simple_rhs(p.ga, p.m)
    return BoundReport(
        BoundId.REMARK_ORDER, lhs, rhs, lhs - rhs > STRICT_MARGIN, False, "approximate", p.context()
    )


def m1_f_lower(g: Graph) -> BoundReport:
    """Exact lower bound m1^2/(2f) - m/2."""
    p = _params(g)
    p.require_edges()
    m1 = zagreb1(g)
    f = forgotten(g)
    rhs = Fraction(m1 * m1, 2 * f) - Fraction(p.m, 2)
    lhs = p.isdd
    return BoundReport(BoundId.M1_F, lhs, rhs, lhs >= rhs, lhs == rhs, "exact", p.context())


def _edge_min_report(p: _Params) -> BoundReport:
    rhs = edge_min_term(p.dmax, p.dmin)
    lhs = min(edge_term_isdd(a, b) for (a, b) in p.pair_counts)
    return BoundReport(BoundId.EDGE_MIN, lhs, rhs, lhs >= rhs, lhs == rhs, "exact", p.context())


def _edge_second_min_report(p: _Params) -> BoundReport:
    rhs = edge_second_min_term(p.dmax, p.dmin)
    lhs = min(
        edge_term_isdd(a, b) for (a, b) in p.pair_counts if (a, b) != (p.dmax, p.dmin)
    )
    return BoundReport(BoundId.EDGE_SECOND_MIN, lhs, rhs, lhs >= rhs, lhs == rhs, "exact", p.context())


def _tree_edge_report(g: Graph, p: _Params) -> BoundReport | SkippedBound:
    if g.n < 4 or p.m != g.n - 1 or not graph_connected(g):
        return SkippedBound(BoundId.TREE_EDGE, "not a tree of order >= 4")
    pairs = [pq for pq in p.pair_counts if pq != (g.n - 1, 1)]
    if not pairs:
        return SkippedBound(BoundId.TREE_EDGE, "every edge has the excluded (n-1, 1) pair")
    rhs = edge_term_isdd(g.n - 2, 1)
    lhs = min(edge_term_isdd(a, b) for (a, b) in pairs)
    return BoundReport(BoundId.TREE_EDGE, lhs, rhs, lhs >= rhs, lhs == rhs, "exact", p.context())


def _claim1_report(p: _Params) -> BoundReport:
    lhs = edge_second_min_term(p.dmax, p.dmin)
    rhs = edge_term_isdd(p.dmax, p.dmin + 1)
    return BoundReport(
        BoundId.CLAIM1, lhs, rhs, claim1_chain(p.dmax, p.dmin), lhs == rhs, "exact", p.context()
    )


def evaluate_all(g: Graph) -> list[BoundReport | SkippedBound]:
    """Every applicable bound for one graph, in the fixed BoundId order.

    Bounds whose preconditions are not met come back as SkippedBound entries
    rather than raising, so sweeps over mixed inputs stay total.
    """
    p = _params(g)
    p.require_edges()
    out: list[BoundReport | SkippedBound] = []

    if p.dmin >= 1:
        out.append(_edge_min_report(p))
    else:
        out.append(SkippedBound(BoundId.EDGE_MIN, "isolated vertex (min degree 0)"))

    if p.dmin < 1:
        out.append(SkippedBound(BoundId.EDGE_SECOND_MIN, "isolated vertex (min degree 0)"))
    elif p.m == p.ell:
        out.append(SkippedBound(BoundId.EDGE_SECOND_MIN, "every edge has the extreme degree pair"))
    else:
        out.append(_edge_second_min_report(p))

    out.append(_tree_edge_report(g, p))

    if p.dmin >= 1:
        out.append(lower_bound_ell(g))
    else:
        out.append(SkippedBound(BoundId.LOWER_ELL, "isolated vertex (min degree 0)"))

    out.append(upper_bound_k(g))
    out.append(upper_bound_n_delta(g))
    out.append(ga_lower_simple(g))
    out.append(ga_m2_lower(g))
    out.append(m1_f_lower(g))

    if p.dmin >= 1 and p.dmax >= p.dmin + 1:
        out.append(_claim1_report(p))
    elif p.dmin < 1:
        out.append(SkippedBound(BoundId.CLAIM1, "isolated vertex (min degree 0)"))
    else:
        out.append(SkippedBound(BoundId.CLAIM1, "regular graph (max degree = min degree)"))

    out.append(remark_ordering(g))
    return out
