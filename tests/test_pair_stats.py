"""``_kernel.check_pair_stats`` beyond what real graphs reach.

No graph violates a bound, so the kernel-vs-reference tests never see the
violation branches (their ``Fraction`` sides and GA floats).  Inputs that no
graph has do: a digest pins the records of a seeded set of them, and on
them a selection of bounds must give the records of all bounds, filtered.
Graphs with widely spread degrees, and so many degree pairs, are held to
the reference path.
"""

import hashlib
import random

from isdd_lab import _kernel
from isdd_lab.bounds import ALL_BOUND_IDS
from isdd_lab.enumeration import check_graph_reference
from isdd_lab.graphs import Graph, degree_pair_counts

# sha256 of the sorted records of _unrealizable_inputs() under every bound,
# recorded with the kernel that walked the pairs once per sum and minimum
PINNED_DIGEST = "610d15c5d71e1f64b86894757d834b4c4f88504998ac4057c37277773c1304ff"


def _unrealizable_inputs(count=50_000, seed=14):
    """``count`` seeded (n, m, deg, pc, connected) inputs that no graph has.

    The degree list, the pair counts and m are drawn apart: pairs (a, b),
    Delta >= a >= b >= 1, and 1 <= m <= the sum of the counts, with n = m + 1
    one time in five (a would-be tree) and Delta up to 10^6 one time in ten.
    Inputs whose GA_M2 denominator 4 m Delta^2 - 2 M2 is 0 are left out.
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
    return out


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
    inputs = _unrealizable_inputs(10_000)
    every = [_kernel.check_pair_stats(*args, frozenset(ALL_BOUND_IDS)) for args in inputs]
    assert any(rec[0] == "RATIO_CONSTANT" for _, discrepancies in every for rec in discrepancies)
    for bound in ALL_BOUND_IDS:
        kept = {bound, "RATIO_CONSTANT"}
        for args, (violations, discrepancies) in zip(inputs, every):
            want = ([rec for rec in violations if rec[0] in kept],
                    [rec for rec in discrepancies if rec[0] in kept])
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
            fast = _kernel.check_graph_kernel(g, ALL_BOUND_IDS, connected_only)
            ref = check_graph_reference(g, ALL_BOUND_IDS, connected_only)
            assert _sorted_partial(fast) == _sorted_partial(ref)


def _sorted_partial(part):
    # record order within one graph is not contractual
    return {**part, "violations": sorted(part["violations"]),
            "discrepancies": sorted(part["discrepancies"])}
