"""``_kernel.check_pair_stats`` beyond what real graphs reach.

No graph violates a bound, so the kernel-vs-reference tests never see the
violation branches (their ``Fraction`` sides and GA floats).  Inputs that no
graph has do: a digest pins the records of a seeded set of them.  The
pair-term table is held to its bound.
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
    sel = _kernel.selection(ALL_BOUND_IDS)
    lines = []
    fired = set()
    for i, (n, m, deg, pc, connected) in enumerate(_unrealizable_inputs()):
        violations, discrepancies = _kernel.check_pair_stats(n, m, deg, pc, connected, sel)
        fired.update(rec[0] for rec in violations)
        lines += [repr((i, *rec)) for rec in violations + discrepancies]
    # CLAIM1 depends on Delta and delta alone, and holds for every pair of them
    assert fired == set(ALL_BOUND_IDS) - {"CLAIM1"}
    assert hashlib.sha256("\n".join(sorted(lines)).encode()).hexdigest() == PINNED_DIGEST


def test_term_table_stays_bounded():
    # degrees up to 1,000: far more distinct pairs than the table holds
    rng = random.Random(16)
    sel = _kernel.selection(ALL_BOUND_IDS)
    inputs = []
    pairs = set()
    while len(pairs) <= _kernel.TERMS_BOUND * 5 // 4:
        pc = {}
        for _ in range(24):
            a = rng.randint(1, 1000)
            pc[(a, rng.randint(1, a))] = rng.randint(1, 3)
        pairs.update(pc)
        deg = [max(pc)[0], min(b for _, b in pc)]
        inputs.append((len(deg), sum(pc.values()), deg, pc, True))
    first = [_kernel.check_pair_stats(*args, sel) for args in inputs[:50]]
    for args in inputs:
        _kernel.check_pair_stats(*args, sel)
        assert len(_kernel.PAIR_TERMS) <= _kernel.TERMS_BOUND
    # the first inputs again, their terms long cleared out
    assert [_kernel.check_pair_stats(*args, sel) for args in inputs[:50]] == first


def test_records_match_reference_across_clears(monkeypatch):
    # a table of 100 entries, cleared within the fold of every graph here
    monkeypatch.setattr(_kernel, "TERMS_BOUND", 100)
    monkeypatch.setattr(_kernel, "PAIR_TERMS", _kernel._TermTable())
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
            assert len(_kernel.PAIR_TERMS) <= 100
            ref = check_graph_reference(g, ALL_BOUND_IDS, connected_only)
            assert _sorted_partial(fast) == _sorted_partial(ref)


def _sorted_partial(part):
    # record order within one graph is not contractual
    return {**part, "violations": sorted(part["violations"]),
            "discrepancies": sorted(part["discrepancies"])}
