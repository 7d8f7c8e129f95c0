"""``_kernel.check_pair_stats`` beyond what real graphs reach.

No graph violates a bound, so the kernel-vs-reference tests never see the
violation branches (their ``Fraction`` sides and GA floats).  Inputs that no
graph has do: a digest pins the records of a seeded set of them, and on
them a selection of bounds must give the records of all bounds, filtered.
Graphs with widely spread degrees, and so many degree pairs, are held to
the reference path.  The float enclosure of the index must leave every
near-tie to the exact fold, and graphs that attain exact bounds at long
graph6 orders must get the reference path's records.
"""

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

from helpers import equality_cases, flat_partial, per_graph_partial
from isdd_lab import _kernel
from isdd_lab.bounds import ALL_BOUND_IDS, approx_eq, approx_ge, claim1_chain
from isdd_lab.enumeration import _first_of_each_class, check_graph_reference, labeled_graphs
from isdd_lab.graphs import Graph, degree_pair_counts, degrees

# sha256 of the sorted records of _unrealizable_inputs() under every bound,
# recorded with the kernel that walked the pairs once per sum and minimum
PINNED_DIGEST = "610d15c5d71e1f64b86894757d834b4c4f88504998ac4057c37277773c1304ff"


@functools.cache
def _unrealizable_inputs(count=50_000, seed=14):
    """``count`` seeded (n, m, deg, pc, connected) inputs that no graph has.

    The degree list, the pair counts and m are drawn apart: pairs (a, b),
    Delta >= a >= b >= 1, and 1 <= m <= the sum of the counts, with n = m + 1
    one time in five (a would-be tree) and Delta up to 10^6 one time in ten.
    Inputs whose GA_M2 denominator 4 m Delta^2 - 2 M2 is 0 are left out.
    Built once per test run and shared, so no caller may change them; the
    first k inputs of a larger count are the inputs of count k.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        tree = rng.random() < 0.2
        big = rng.random() < 0.1
        dmax = rng.randint(1, 12) if not big else rng.randint(10**4, 10**6)
        top = min(dmax, 12)
        pairs = {}
        for _ in range(rng.randint(1, 4)):
            a = rng.randint(1, top)
            b = rng.randint(1, a)
            pairs[(a, b)] = rng.randint(1, 6)
        if rng.random() < 0.3:
            pairs[(dmax, dmax - 1 if dmax > 1 else 1)] = rng.randint(1, 3)
        total = sum(pairs.values())
        m = total if rng.random() < 0.5 else rng.randint(1, total)
        n = m + 1 if tree else rng.randint(2, 14)
        deg = [rng.randint(0 if rng.random() < 0.2 else 1, dmax) for _ in range(max(n - 1, 1))]
        deg.append(dmax)
        rng.shuffle(deg)
        if 4 * m * dmax * dmax == 2 * sum(c * a * b for (a, b), c in pairs.items()):
            continue
        connected = tree or rng.random() < 0.7
        out.append((n, m, deg, pairs, connected))
    return tuple(out)


def test_violation_branches_pinned():
    sel = frozenset(ALL_BOUND_IDS)
    lines = []
    fired = set()
    for i, (n, m, deg, pc, connected) in enumerate(_unrealizable_inputs()):
        violations, discrepancies = _kernel.check_pair_stats(n, m, deg, pc, connected, sel)
        fired.update(rec[0] for rec in violations)
        lines += [repr((i, *rec)) for rec in violations + discrepancies]
    # CLAIM1 depends on Delta and delta alone, and holds for every pair of them
    assert fired == set(ALL_BOUND_IDS) - {"CLAIM1"}
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == PINNED_DIGEST


def test_selection_filters_the_records():
    # each bound alone keeps exactly its own records of the all-bounds run,
    # and RATIO_CONSTANT's: no bound, the class check every connected graph gets
    inputs = _unrealizable_inputs()[:10_000]
    every = [_kernel.check_pair_stats(*args, frozenset(ALL_BOUND_IDS)) for args in inputs]
    assert any(rec[0] == "RATIO_CONSTANT" for _, discrepancies in every for rec in discrepancies)
    for bound in ALL_BOUND_IDS:
        kept = {bound, "RATIO_CONSTANT"}
        for args, (violations, discrepancies) in zip(inputs, every):
            want = (tuple(rec for rec in violations if rec[0] in kept),
                    tuple(rec for rec in discrepancies if rec[0] in kept))
            assert _kernel.check_pair_stats(*args, frozenset({bound})) == want, (bound, args)


def test_records_match_reference_on_wide_degrees():
    rng = random.Random(17)
    for _ in range(24):
        n = rng.randint(50, 80)
        w = [rng.random() for _ in range(n)]
        # vertex i joins j with probability w_i w_j, so the degrees spread widely
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                      if rng.random() < w[i] * w[j])
        g = Graph(n, edges)
        assert len(degree_pair_counts(g)) > 100
        for connected_only in (True, False):
            fast = per_graph_partial(_kernel.check_graph_kernel, g, ALL_BOUND_IDS, connected_only)
            ref = per_graph_partial(check_graph_reference, g, ALL_BOUND_IDS, connected_only)
            assert flat_partial(fast) == flat_partial(ref)


def _graph_inputs():
    """The (n, m, deg, pc, connected) inputs of every labeled graph with an
    edge on 2..6 vertices and of the first graph of each class at n = 7,
    once per degree list and pair counts in pair order, each under both
    connected flags."""
    seen = set()
    for g in itertools.chain(*map(labeled_graphs, range(2, 7)),
                             _first_of_each_class(7, 1 << 21)):
        deg = degrees(g)
        pc = degree_pair_counts(g, deg)
        key = (g.n, tuple(sorted(deg)), tuple(pc.items()))
        if g.m and key not in seen:
            seen.add(key)
            yield g.n, g.m, deg, pc, True
            yield g.n, g.m, deg, pc, False


def _spy_on_exact_verdict(monkeypatch) -> list:
    """Wrap ``_kernel._exact_verdict``; each call appends (its arguments but
    the violation list, its result) to the list returned."""
    exact = _kernel._exact_verdict
    calls = []

    def spy(pc, bounds, rhs_simple, rhs_m2, violations):
        result = exact(pc, bounds, rhs_simple, rhs_m2, violations)
        calls.append(((pc, bounds, rhs_simple, rhs_m2), result))
        return result

    monkeypatch.setattr(_kernel, "_exact_verdict", spy)
    return calls


def test_enclosure_never_settles_a_tie(monkeypatch):
    # Whenever the float enclosure of the index, recomputed here from its
    # stated width, could disagree with the exact index, the exact fold must
    # run: at an exact bound that is attained or violated, and at a GA
    # comparison whose value at x - tol or x + tol differs from its value at
    # the correctly rounded exact index
    sel = frozenset(ALL_BOUND_IDS)
    calls = _spy_on_exact_verdict(monkeypatch)
    inputs = ran = misjudged_by_x = 0
    for n, m, deg, pc, connected in itertools.chain(_graph_inputs(), _unrealizable_inputs()):
        # an infinitely wide enclosure settles nothing: the exact fold shows
        # the input's bounds and GA right sides, and gives the records
        with monkeypatch.context() as wide:
            wide.setattr(_kernel, "_ENCLOSURE", math.inf)
            want = _kernel.check_pair_stats(n, m, deg, pc, connected, sel)
        [((_, bounds, rhs_simple, rhs_m2), _)] = calls
        calls.clear()
        assert _kernel.check_pair_stats(n, m, deg, pc, connected, sel) == want
        exact_ran = bool(calls)
        calls.clear()

        # the index inum/den, over the product of the a^2 + b^2
        den = math.prod(a * a + b * b for a, b in pc)
        inum = sum(cnt * a * b * (den // (a * a + b * b)) for (a, b), cnt in pc.items())
        x = 0.0
        for (a, b), cnt in pc.items():
            x += cnt * a * b / (a * a + b * b)
        tol = (len(pc) + 1) * 2.0 ** -52 * x
        assert abs(Fraction(inum, den) - Fraction(x)) <= tol
        slacks = [sign * (inum * rden - rnum * den)
                  for sign, (rnum, rden) in zip((1, -1, -1, 1), bounds)]
        checks = [(approx_ge, rhs_simple), (approx_ge, rhs_m2)]
        if connected and min(deg) >= 1:  # the class rule reads GA_M2's equality
            checks.append((approx_eq, rhs_m2))
        unsettled = min(slacks) <= 0 or any(
            check(end, rhs) != check(inum / den, rhs)
            for check, rhs in checks for end in (x - tol, x + tol))
        assert exact_ran or not unsettled, (n, m, deg, pc, connected)
        inputs += 1
        ran += exact_ran
        # a tie that x alone, with no width around it, would call strict
        misjudged_by_x += any(not slack and x != rnum / rden
                              for slack, (rnum, rden) in zip(slacks, bounds))
    assert misjudged_by_x > 0
    assert 0 < ran < inputs


def test_exact_ties_at_long_header_orders(monkeypatch):
    # each graph attains an exact bound, so the exact fold decides it, and
    # together they set every equality flag the fold returns
    calls = _spy_on_exact_verdict(monkeypatch)
    cases = equality_cases()
    for g in cases:
        fast = per_graph_partial(_kernel.check_graph_kernel, g, ALL_BOUND_IDS, True)
        ref = per_graph_partial(check_graph_reference, g, ALL_BOUND_IDS, True)
        assert flat_partial(fast) == flat_partial(ref), g.n
    assert len(calls) == len(cases)
    assert all(map(any, zip(*(equalities for _, equalities in calls))))


def test_pair_terms_table_is_bit_identical():
    # every pair's terms, the GA term bit for bit with the expression it
    # stands for, over small degrees and the Delta ~ 10^6 pairs of the
    # unrealizable inputs
    pairs = {(a, b) for a in range(1, 301) for b in range(1, a + 1)}
    big = {pair for *_, pc, _ in _unrealizable_inputs() for pair in pc if pair[0] > 10**4}
    assert len(big) > 1000
    for a, b in sorted(pairs | big):
        p, q, s, ga_term = _kernel.PAIR_TERMS[a, b]
        assert (p, q, s) == (a * b, a * a + b * b, a + b)
        assert ga_term.hex() == (2.0 * math.sqrt(a * b) / (a + b)).hex(), (a, b)


def test_extremes_table_matches_claim1_chain():
    # the table is wired to bounds.claim1_chain: the CLAIM1 entry is a record
    # exactly where that chain fails (nowhere), and the other constants are
    # those of (Delta, delta)
    for dmax in range(2, 1001):
        for dmin in range(1, dmax):
            entry = _kernel._extreme_constants((dmax, dmin))
            top, q1, p1, dm1, q2, p2, want, qk, pk, claim1, gamma2_keys = entry
            assert (claim1 is None) == claim1_chain(dmax, dmin), (dmax, dmin)
            assert top == (dmax, dmin) and (p1, q1) == (dmax * dmin, dmax**2 + dmin**2)
            assert (dm1, p2, q2) == (dmax - 1, (dmax - 1) * dmin, (dmax - 1)**2 + dmin**2)
            assert want == (max(dm1, dmin), min(dm1, dmin))
            assert (pk, qk) == (dmax * dm1, dmax**2 + dm1**2)
            assert gamma2_keys == ((dmax, dm1), (dmax, dmax), (dm1, dm1))
    assert _kernel._extreme_constants((1, 1))[-1] == ((1, 0), (1, 1), None)


def test_cold_tables_give_the_warm_records():
    # the records do not depend on what the process-wide tables held before
    # a call, and neither table grows past its cap
    sel = frozenset(ALL_BOUND_IDS)
    inputs = _unrealizable_inputs()[:10_000]
    warm = [_kernel.check_pair_stats(*args, sel) for args in inputs]
    cold = []
    for args in inputs:
        _kernel.PAIR_TERMS.clear()
        _kernel.EXTREMES.clear()
        cold.append(_kernel.check_pair_stats(*args, sel))
    assert cold == warm
    for args in _unrealizable_inputs():
        _kernel.check_pair_stats(*args, sel)
    assert 0 < len(_kernel.PAIR_TERMS) <= _kernel.TABLE_CAP
    assert 0 < len(_kernel.EXTREMES) <= _kernel.TABLE_CAP


def test_tables_empty_at_their_cap():
    # a table that reaches its cap starts again from empty, and still
    # answers every lookup
    table = _kernel.Memo(_kernel._pair_terms, 8)
    sizes = []
    for a in range(1, 30):
        assert table[a, 1] == _kernel._pair_terms((a, 1))
        sizes.append(len(table))
    assert max(sizes) == 8 and sizes[8] == 1
