"""Acceptance suite: every exit criterion, one pass/fail line each.

The two exhaustive sweeps (all connected graphs on 2..7 vertices; all labeled
trees on 4..9 vertices) are session fixtures shared by the criteria that read
them.  Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
from contextlib import contextmanager
from fractions import Fraction

import pytest

from isdd_lab.bounds import BoundId, BoundReport, claim1_chain, evaluate_all
from isdd_lab.classify import classify, edge_ratio_constant, in_gamma1, in_gamma2, in_gamma3
from isdd_lab.enumeration import SweepConfig, labeled_graphs, run_sweep
from isdd_lab.graphs import Graph, is_connected, parse_graph6, write_graph6
from isdd_lab.indices import index_vector, isdd
from helpers import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    h1_graph,
    h2_graph,
    h3_graph,
    path_graph,
    star_graph,
    tree_scan_report,
)

GA_TOL = 1e-9
# worker processes of the test-side pools: the CPUs this process may run on
JOBS = len(os.sched_getaffinity(0))

CONNECTED_LABELED_COUNTS = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704, 7: 1866256}
EQUALITY_BOUNDS = (BoundId.LOWER_ELL, BoundId.UPPER_K, BoundId.UPPER_NDELTA, BoundId.M1_F)


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {title}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {title}: PASS")


@pytest.fixture(scope="session")
def full_sweep():
    return run_sweep(SweepConfig(n_min=2, n_max=7))


TREE_SWEEP = SweepConfig(n_min=4, n_max=9, trees=True, bounds=("TREE_EDGE",))


@pytest.fixture(scope="session")
def tree_sweep():
    return run_sweep(TREE_SWEEP)


def test_criterion_1_index_fixtures():
    with criterion(1, "index fixtures on the five named graphs"):
        cases = {
            "P4": (path_graph(4), Fraction(13, 10), Fraction(7), 10, 8, 18, 2.8856180831641267),
            "C5": (cycle_graph(5), Fraction(5, 2), Fraction(10), 20, 20, 40, 5.0),
            "K4": (complete_graph(4), Fraction(3), Fraction(12), 36, 54, 108, 6.0),
            "K_1_3": (star_graph(3), Fraction(9, 10), Fraction(10), 12, 9, 30, 2.598076211353316),
            "K_2_3": (complete_bipartite(2, 3), Fraction(36, 13), Fraction(6 * 13, 6), 30, 36, 78,
                      5.878775382679628),
        }
        for name, (g, e_isdd, e_sdd, e_m1, e_m2, e_f, e_ga) in cases.items():
            iv = index_vector(g)
            assert iv.isdd == e_isdd, name
            assert iv.sdd == e_sdd, name
            assert iv.m1 == e_m1, name
            assert iv.m2 == e_m2, name
            assert iv.forgotten == e_f, name
            assert abs(iv.ga - e_ga) <= GA_TOL, name


def test_criterion_2_regular_saturation(full_sweep):
    with criterion(2, "regular graphs saturate every equality-capable bound"):
        # negative direction from the sweep: a regular graph missing an
        # equality would appear as a discrepancy naming the regular class
        for d in full_sweep.equality_discrepancies:
            assert "regular" not in d.actual_classification, d
        # positive direction: direct verification on every connected regular
        # graph with n <= 6 plus three regular graphs at n = 7
        regulars = []
        for n in range(2, 7):
            for g in labeled_graphs(n):
                if g.m and is_connected(g):
                    deg = {len(nb) for nb in g.neighbors()}
                    if len(deg) == 1:
                        regulars.append(g)
        c7 = cycle_graph(7)
        c7_sq = Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)]
                                 + [(i, (i + 2) % 7) for i in range(7)])
        regulars += [c7, c7_sq, complete_graph(7)]
        assert len(regulars) > 50
        for g in regulars:
            assert isdd(g) == Fraction(g.m, 2)
            by_id = {r.bound_id: r for r in evaluate_all(g) if isinstance(r, BoundReport)}
            for bid in EQUALITY_BOUNDS:
                assert by_id[bid].equality, (g, bid)
            assert by_id[BoundId.GA_M2].equality, g


def test_criterion_3_full_bound_soundness(full_sweep):
    with criterion(3, "zero violations over all connected graphs, 2 <= n <= 7"):
        assert full_sweep.graphs_seen == sum(1 << (n * (n - 1) // 2) for n in range(2, 8))
        assert full_sweep.graphs_checked == sum(CONNECTED_LABELED_COUNTS.values())
        assert full_sweep.violations == []


def test_criterion_4_tree_edge_sweep(tree_sweep):
    with criterion(4, "zero violations over all labeled trees, 4 <= n <= 9"):
        assert tree_sweep.graphs_seen == sum(n ** (n - 2) for n in range(4, 10))
        assert tree_sweep.graphs_checked == tree_sweep.graphs_seen
        assert tree_sweep.violations == []
        # the sweep decides these orders from their free trees; the witness
        # decodes and checks every one of the 5,063,357 labeled trees
        witness = tree_scan_report(TREE_SWEEP, jobs=JOBS)
        assert witness.to_dict(include_timing=False) == tree_sweep.to_dict(include_timing=False)


def test_criterion_5_claim1_chain():
    with criterion(5, "second-minimum chain for all degree pairs up to 200"):
        checked = 0
        for dmax in range(2, 201):
            for dmin in range(1, dmax):
                assert claim1_chain(dmax, dmin), (dmax, dmin)
                checked += 1
        assert checked == 199 * 200 // 2


def test_criterion_6_equivalences(full_sweep):
    with criterion(6, "ratio-constancy equivalences have no counterexamples"):
        m1f = [d for d in full_sweep.equality_discrepancies if d.bound_id == "M1_F"]
        ratio = [d for d in full_sweep.equality_discrepancies if d.bound_id == "RATIO_CONSTANT"]
        assert m1f == []
        assert ratio == []


def test_criterion_7_documented_necessity_gap(full_sweep):
    with criterion(7, "the path-on-4-vertices equality gap is recorded, not fatal"):
        gap = {
            d.graph6: d for d in full_sweep.equality_discrepancies
            if d.bound_id == "LOWER_ELL"
        }
        paths = set()
        for perm in itertools.permutations(range(4)):
            paths.add(write_graph6(Graph.from_edges(4, list(zip(perm, perm[1:])))))
        assert len(paths) == 12
        assert paths <= set(gap)
        for g6 in paths:
            d = gap[g6]
            assert d.equality is True
            assert "regular" not in d.actual_classification
            assert "semiregular_bipartite" not in d.actual_classification
            assert "gamma1" not in d.actual_classification
        # the gap never counts as a violation
        assert full_sweep.violations == []


def test_criterion_8_remark_strictness(full_sweep):
    with criterion(8, "strict improvement margin above 1e-9 everywhere"):
        assert [v for v in full_sweep.violations if v.bound_id == "REMARK_ORDER"] == []


def test_criterion_9_figure_constructions():
    with criterion(9, "the three figure graphs land in their families"):
        h1, h2, h3 = h1_graph(), h2_graph(), h3_graph()
        assert in_gamma1(h1)
        assert in_gamma2(h2)
        assert in_gamma3(h3)
        assert edge_ratio_constant(h3) == Fraction(24, 360) == Fraction(1, 15)
        label = classify(h3)
        assert label.gamma3 and not (label.regular or label.semiregular_bipartite)
        # the gap lower bound is attained with equality by every graph whose
        # edges all sit on the extreme pair; H1 attains it as a gamma1 member
        from isdd_lab.bounds import lower_bound_ell, upper_bound_k
        assert lower_bound_ell(h1).equality
        assert upper_bound_k(h2).equality


def _roundtrip_chunk(args):
    n, lo, hi = args
    # vertex pairs in lexicographic order, each with its mask bit (slot j(j-1)/2 + i),
    # so that the set bits give a sorted edge tuple
    pairs = [((i, j), 1 << (j * (j - 1) // 2 + i)) for i in range(n) for j in range(i + 1, n)]
    bad = 0
    for mask in range(lo, hi):
        edges = tuple([pair for pair, bit in pairs if mask & bit])
        g = Graph(n, edges)
        if parse_graph6(write_graph6(g)) != g:
            bad += 1
    return hi - lo, bad


def test_criterion_10_graph6_round_trip():
    with criterion(10, "graph6 round-trip over every swept graph"):
        chunks = []
        for n in range(2, 8):
            total = 1 << (n * (n - 1) // 2)
            step = 1 << 15
            for lo in range(0, total, step):
                chunks.append((n, lo, min(lo + step, total)))
        total_checked = 0
        total_bad = 0
        if JOBS > 1:
            with multiprocessing.Pool(JOBS) as pool:
                for count, bad in pool.imap_unordered(_roundtrip_chunk, chunks):
                    total_checked += count
                    total_bad += bad
        else:
            for chunk in chunks:
                count, bad = _roundtrip_chunk(chunk)
                total_checked += count
                total_bad += bad
        assert total_checked == sum(1 << (n * (n - 1) // 2) for n in range(2, 8))
        assert total_bad == 0
