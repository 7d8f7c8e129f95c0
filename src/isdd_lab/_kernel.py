"""Integer fast path behind the exhaustive sweeps.

The public bound/classification modules work on Graph objects with Fraction
arithmetic, which is the readable reference implementation.  Scanning the
full 2^21 edge subsets at n=7 (and up to 4.8M labeled trees) needs something
leaner: this module re-derives the same verdicts from degree-pair counts,
so the same code serves every graph order.  :func:`check_pair_stats` walks
the pairs once: one fold gathers the index (as a float), GA, M2, k, the
edge-term minima and the constant-ratio test.  It reads each pair's terms
(ab, a^2 + b^2, a + b, the GA term) from a process-wide table,
:data:`PAIR_TERMS`, and the constants of (Delta, delta) alone, CLAIM1's
verdict among them, from another, :data:`EXTREMES`: in the benchmark's
seed-1 stream, 16,528 calls fold 149,828 pairs, of 63 distinct ones, and
meet 50 distinct (Delta, delta).  A table is a dict whose missing keys are
computed on first lookup, so a hit costs one dict lookup, and it empties
once it holds :data:`TABLE_CAP` entries, which bounds it on streams with
orders up to 258,047 and inputs with degrees up to 10^6.  M1 and F stay
sums over the degree list: on inputs that no graph has, the degrees and
the pair counts need not agree.  It decides every check,
as :func:`bounds.evaluate_all` does, and applies the selection once, as a
filter on the records.  The checks on the index, the four exact bounds and
the GA comparisons, are settled by a proven enclosure of the exact index
around that float; only a near-tie or a violation costs the exact fold,
one integer over the lcm of a^2 + b^2 for the pairs present, and integer
cross-multiplication (:func:`_exact_verdict`).  A graph6 stream, whose
signatures almost never repeat, pays the pair fold once per graph: 87 of
the 16,528 graphs checked in the benchmark's seed-1 stream reach the exact
fold.  The degree-pair counts it reads come keyed by ready-made pair tuples
(:func:`graphs.degree_pair_counts`).

The enumerating scans go further and check each degree-pair signature once
per process (:func:`_template`).  A signature packs the edge count of every
degree pair (a, b), a >= b, with a connected flag.  Within one vertex count
it fixes every input of :func:`check_pair_stats`:

- m is the sum of the counts;
- the degrees are fixed (:func:`signature_degrees`): the vertices of degree
  d >= 1 number (the edge ends at degree d) / d, and the rest are isolated;
  so are M1 = sum_v d_v^2, F = sum_v d_v^3, Delta and delta;
- the index, GA, M2, ell, k, the edge-term minima and the labels regular,
  semiregular bipartite, gamma1, gamma2 and constant edge ratio are sums,
  minima or tests over the pairs and these degrees;
- so is gamma3 for a connected graph (:func:`classify.gamma3_from_pairs`,
  bound here as ``_lazy_gamma3``).

So every verdict, every record but its graph6 field, is a function of
(n, signature).  A scan renders graph6 once for each graph whose signature
has records, and keeps the graph as one entry (graph6, records), its
records being the signature's shared template, in report order
(:func:`in_report_order`).  Each scan returns a
partial report ``{"seen", "checked", "entries"}`` with one such entry per
graph that has records (:meth:`enumeration.SweepReport.merge`).  The
per-graph check, :func:`check_graph_kernel`, returns one graph's records
alone: which graphs are checked, their connectivity and their graph6 are
decided by the sweep loop (:func:`enumeration._check_each`).  The float
GA sums run in pair order, not edge order; they may differ in the last
bits, far inside the 1e-9 tolerance of those checks.

The graph scan never decodes a graph edge by edge.  It walks two
levels, in mask order.  The low c(c-1)/2 bits of a mask are a graph L on the
core vertices 0..c-1, c = min(n, CORE_ORDER); in column-major slot order
every edge touching a vertex >= c lies above them, in the high part H.  A
per-process table (:func:`core_table`) gives each L a few codes: vertex
pairs with their degrees in L, L's component partition, its other edges.
For each H, :func:`_code_weights` gives each code its signature weight
under the degrees H adds, with connectivity decided per partition, so the
signature of a mask is one sum of table entries.  A core of 5 vertices has
2^10 graphs: its table takes about 10 ms and 0.2 MB to build, and a per-H
table of about 600 entries serves the 1,024 masks of H's block.  A 4-vertex
core would rebuild that table every 64 masks; a 6-vertex one takes about
250 ms and 12 MB per process.

Most of those sums repeat.  A signature is an isomorphism invariant, so
relabeling the core vertices keeps every mask's records but its graph6, and
it sends the block of H onto the block of H's image.  Sorting the core
vertices by their sets of outer neighbours (:func:`_high_representative`)
picks one high part per class, and a whole block is summed once per class
and process (:func:`_orbit_summary`): its checked count and its masks with
records.  Every other block of the class adds that count and relabels those
masks back into itself (:func:`_core_relabeling`) before rendering them.
The 2,048 high parts of n = 7 make 112 classes.  Only a block cut by the
scanned range is summed mask by mask (:func:`_block_records`).

The tree scan decodes only the trees that yield records.  A signature is an
isomorphism invariant, so the signatures of the labeled trees on n vertices
are those of the free trees on n vertices (:func:`free_trees`, one per
isomorphism class: 47 at n = 9 against 4,782,969 labeled trees, generated
directly as level sequences rooted at a centre, with no isomorphism test).
A signature is *loud* for a selection when its template has records.  The
scan lists the labeled trees of each loud signature's degrees straight from
their Pruefer sequences (:func:`tree_sequences`) and decodes those alone;
at n <= 9 only the path's signature is ever loud, so an order costs at most
its n!/2 labeled paths, and an order with no loud signature (*silent*) costs
no decode at all.

Each engine reaches its verdicts its own way, but both turn them into
records with the helpers here: :func:`violation` (both sides through
:func:`bounds.side_text`), :func:`pair_discrepancy` for EDGE_MIN and
EDGE_SECOND_MIN, and :func:`class_discrepancies`, the class rule driven by
:data:`EXPECTED_EQUALITY_CLASSES`.  The reference path
(:func:`enumeration.check_graph_reference`) calls the same three.

Everything here is cross-validated against the reference path by the test
suite (exhaustively for small n); any divergence is a bug, not a policy.
"""

from __future__ import annotations

import itertools
import operator
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import compress, repeat
from math import factorial, gcd, sqrt

from .bounds import (STRICT_MARGIN, approx_eq, approx_ge, approx_tol, claim1_chain,
                     edge_second_min_term, ga_m2_rhs, ga_simple_rhs, side_text)
from .classify import gamma3_from_pairs as _lazy_gamma3
from .graphs import Graph, degree_pair_counts, degrees, unchecked_graph
from .indices import edge_term_isdd
from .indices import fraction_str  # unused here; perfbench/layers.py wraps this name

# Classes whose membership is expected to coincide with equality, per check id.
# RATIO_CONSTANT is the classification-equivalence check (not a numeric bound):
# a constant (di+dj)/(di^2+dj^2) over edges should coincide with membership in
# one of the three structural families, for connected graphs.
EXPECTED_EQUALITY_CLASSES: dict[str, tuple[str, ...]] = {
    "LOWER_ELL": ("regular", "semiregular_bipartite", "gamma1"),
    "UPPER_K": ("regular", "semiregular_bipartite_consecutive", "gamma2"),
    "UPPER_NDELTA": ("regular",),
    "GA_M2": ("regular",),
    "M1_F": ("constant_edge_ratio",),
    "RATIO_CONSTANT": ("regular", "semiregular_bipartite", "gamma3"),
    "EDGE_MIN": ("attaining_pair_max_min",),
    "EDGE_SECOND_MIN": ("attaining_pair_maxminus1_min",),
}

# the bounds under the class rule (:func:`class_discrepancies`), besides RATIO_CONSTANT
CLASS_CHECK_IDS = ("LOWER_ELL", "UPPER_K", "UPPER_NDELTA", "GA_M2", "M1_F")

# the names a discrepancy record gives a graph's classes, in record order
CLASS_NAMES = ("regular", "semiregular_bipartite", "semiregular_bipartite_consecutive",
               "gamma1", "gamma2", "gamma3", "constant_edge_ratio")


def _actual_class_names(*flags) -> tuple[str, ...]:
    """The names of the classes whose flags, in :data:`CLASS_NAMES` order, are set."""
    return tuple(compress(CLASS_NAMES, flags))


def class_discrepancies(equalities: dict[str, bool], classes: tuple[str, ...]) -> list:
    """The discrepancy records of the class rule, without their graph6 field.

    ``equalities`` maps checks of :data:`CLASS_CHECK_IDS` and RATIO_CONSTANT
    to their equality flags: every check, filtered by the selection after
    (:func:`check_pair_stats`), or the selected ones (the reference path);
    ``classes`` names the graph's classes (:func:`_actual_class_names`).  A
    check gives the record (check_id, expected_classes, classes, equality)
    exactly when its flag differs from membership in one of its
    :data:`EXPECTED_EQUALITY_CLASSES`.
    """
    members = _memberships(classes)
    if equalities == members:  # every check of the rule is given, and none differs
        return []
    return [(check_id, EXPECTED_EQUALITY_CLASSES[check_id], classes, equality)
            for check_id, equality in equalities.items() if equality != members[check_id]]


@lru_cache(maxsize=None)
def _memberships(classes: tuple[str, ...]) -> dict[str, bool]:
    """Per check of the class rule: whether a graph of these classes is in
    one of the check's expected classes.  At most 2^7 class tuples occur."""
    return {check_id: not set(EXPECTED_EQUALITY_CLASSES[check_id]).isdisjoint(classes)
            for check_id in (*CLASS_CHECK_IDS, "RATIO_CONSTANT")}


def pair_discrepancy(check_id: str, pairs) -> tuple:
    """The EDGE_MIN or EDGE_SECOND_MIN discrepancy record, without its graph6
    field, of a graph whose edges on the degree pairs ``pairs`` attain the
    bound though the equality condition names another pair."""
    return (check_id, EXPECTED_EQUALITY_CLASSES[check_id],
            tuple(f"pair({a},{b})" for a, b in sorted(pairs)), True)


def violation(check_id: str, lhs, rhs) -> tuple:
    """The violation record, without its graph6 field, of a bound failing
    with sides ``lhs`` and ``rhs`` (see :func:`bounds.side_text`)."""
    return check_id, side_text(lhs), side_text(rhs)


@lru_cache(maxsize=None)
def edge_table(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Bit slot k -> endpoints, in graph6 column-major order."""
    ei, ej = [], []
    for j in range(1, n):
        for i in range(j):
            ei.append(i)
            ej.append(j)
    return tuple(ei), tuple(ej)


# six mask bits, slot q lowest -> the graph6 character of slots q..q+5, slot q
# its most significant bit
_MASK_CHARS = tuple(chr(63 + int(f"{bits:06b}"[::-1], 2)) for bits in range(64))


def mask_to_graph6(n: int, mask: int) -> str:
    """graph6 text for an edge bitmask (bit k = slot k of the bit stream)."""
    return chr(63 + n) + "".join([_MASK_CHARS[mask >> q & 63]
                                  for q in range(0, n * (n - 1) // 2, 6)])


def edges_to_mask(edges) -> int:
    mask = 0
    for i, j in edges:
        mask |= 1 << (j * (j - 1) // 2 + i)
    return mask


def prufer_edges(seq: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    """Decode one length-(n-2) sequence into the edges of its labeled tree."""
    deg = [1] * n
    for s in seq:
        deg[s] += 1
    edges = []
    ptr = 0
    while deg[ptr] != 1:
        ptr += 1
    leaf = ptr
    for s in seq:
        edges.append((leaf, s) if leaf < s else (s, leaf))
        deg[s] -= 1
        if deg[s] == 1 and s < ptr:
            leaf = s
        else:
            ptr += 1
            while deg[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return edges


@lru_cache(maxsize=1)
def orbit_table(n: int) -> tuple[int, ...]:
    """Packed orbit table: entry k holds one field per permutation of the n
    vertices, field p being ``1 << (the slot that edge slot k moves to under
    the p-th permutation)``, in ``itertools.permutations`` order.

    The fields are 32-bit unsigned ints (``memoryview`` format "I", enough
    for the C(7, 2) = 21 slots of the largest order the graph dedup walk
    serves), packed in native byte order, so ``to_bytes`` and
    ``memoryview.cast`` give them back in order.  ORing the entries of a
    graph's edges ORs their images field by field: field p becomes the edge
    mask of the graph under permutation p (see :func:`orbit`).  n! fields
    per slot: 15 x 720 x 32 bits (2.9 kB each) at n = 6, 21 x 5040 x 32
    bits (20 kB each) at n = 7.  Only the table of the last n asked for is
    kept.
    """
    from struct import pack

    ei, ej = edge_table(n)
    bit = [[0] * n for _ in range(n)]
    for k, (i, j) in enumerate(zip(ei, ej)):
        bit[i][j] = bit[j][i] = 1 << k
    images = [bytearray() for _ in range(n)]  # images[v][p]: where p sends v
    for perm in itertools.permutations(range(n)):
        for column, v in zip(images, perm):
            column.append(v)
    fields = f"{factorial(n)}I"
    return tuple(
        int.from_bytes(pack(fields, *map(operator.getitem, map(bit.__getitem__, images[i]),
                                         images[j])), sys.byteorder)
        for i, j in zip(ei, ej)
    )


_SLOT_BITS = tuple(1 << k for k in range(21))  # 1 << k for each edge slot k at n <= 7


def orbit(n: int, mask: int) -> memoryview:
    """The edge mask of the graph ``mask`` on n <= 7 vertices under each of the
    n! vertex permutations, repeats included, in ``itertools.permutations``
    order: the OR of the :func:`orbit_table` entries of its edges, cut into
    its fields."""
    packed = reduce(operator.or_, compress(orbit_table(n), map(mask.__and__, _SLOT_BITS)), 0)
    return memoryview(packed.to_bytes(4 * factorial(n), sys.byteorder)).cast("I")


# the four exact bounds on the index, in record order, each with the sign of
# its slack: 1 for a lower bound (index >= bound), -1 for an upper one
_EXACT_BOUNDS = (("LOWER_ELL", 1), ("UPPER_K", -1), ("UPPER_NDELTA", -1), ("M1_F", 1))

# the half-width of the float index's enclosure, per degree pair and relative
# to that float: 2u, u = 2^-53 the unit roundoff (see check_pair_stats)
_ENCLOSURE = 2.0 ** -52

# entries a process-wide table holds before it starts again from empty
TABLE_CAP = 1 << 16


class Memo(dict):
    """``fn(key)`` for each key looked up, computed on the first lookup, so a
    hit is a plain dict lookup.  With a ``cap``, it empties once it holds
    that many entries, which bounds a process-wide table whatever keys its
    callers bring (stream orders up to 258,047, degrees up to 10^6 in the
    tests)."""

    def __init__(self, fn, cap: int | None = None):
        super().__init__()
        self.fn = fn
        self.cap = cap

    def __missing__(self, key):
        if self.cap is not None and len(self) >= self.cap:
            self.clear()
        value = self[key] = self.fn(key)
        return value


def _pair_terms(pair: tuple[int, int]) -> tuple[int, int, int, float]:
    """(ab, a^2 + b^2, a + b, the GA edge term) of a degree pair (a, b)."""
    a, b = pair
    p = a * b
    s = a + b
    return p, a * a + b * b, s, 2.0 * sqrt(p) / s


def _extreme_constants(extremes: tuple[int, int]) -> tuple:
    """What :func:`check_pair_stats` needs of (Delta, delta) alone.

    (top, q1, p1, dm1, q2, p2, want, qk, pk, claim1, gamma2_keys): top =
    (Delta, delta) with its ab and a^2 + b^2 as p1 and q1, dm1 = Delta - 1,
    (Delta - 1, delta)'s as p2 and q2 and that pair in (larger, smaller)
    order as want, (Delta, Delta - 1)'s as pk and qk, CLAIM1's violation
    record, with the sides :func:`bounds.evaluate_all` gives it, where
    :func:`bounds.claim1_chain` fails, else None, and the pairs gamma2
    reads: (Delta, Delta - 1), (Delta, Delta) and (Delta - 1, Delta - 1),
    None for the last when Delta - 1 < 1.
    """
    dmax, dmin = extremes
    q1 = dmax * dmax + dmin * dmin
    p1 = dmax * dmin
    dm1 = dmax - 1
    q2 = dm1 * dm1 + dmin * dmin
    p2 = dm1 * dmin
    want = (dm1, dmin) if dm1 >= dmin else (dmin, dm1)
    claim1 = None
    if 1 <= dmin < dmax and not claim1_chain(dmax, dmin):
        claim1 = violation("CLAIM1", edge_second_min_term(dmax, dmin),
                           edge_term_isdd(dmax, dmin + 1))
    gamma2_keys = (dmax, dm1), (dmax, dmax), (dm1, dm1) if dm1 >= 1 else None
    return (extremes, q1, p1, dm1, q2, p2, want, dmax * dmax + dm1 * dm1, dmax * dm1, claim1,
            gamma2_keys)


# process-wide: degree pair -> _pair_terms, (Delta, delta) -> _extreme_constants
PAIR_TERMS = Memo(_pair_terms, TABLE_CAP)
EXTREMES = Memo(_extreme_constants, TABLE_CAP)


def _exact_verdict(pc: dict[tuple[int, int], int], bounds, rhs_simple: float, rhs_m2: float,
                   violations: list) -> tuple[bool, ...]:
    """Decide every check on the index exactly, recording the violated ones.

    The index is inum / d_common, d_common the lcm of a^2 + b^2 over the
    pairs (a running lcm, inum scaled with it).  ``bounds`` holds the (rnum,
    rden) of each of :data:`_EXACT_BOUNDS`; a bound's slack,
    inum*rden - rnum*d_common for a lower bound and its negation for an
    upper one, is negative for a violation and 0 at equality.  GA_SIMPLE and
    GA_M2 compare the correctly rounded inum / d_common with their right
    sides ``rhs_simple`` and ``rhs_m2``, as the reference path does.
    Violation records, in check order, get Fraction sides for the exact
    bounds and that float for the GA ones.  Returns the equality flags of
    LOWER_ELL, UPPER_K, UPPER_NDELTA, M1_F and GA_M2.

    :func:`check_pair_stats` calls this only when its float enclosure of the
    index cannot settle a check: on a near-tie, and on a violation, whose
    record needs the exact sides.
    """
    inum = 0
    d_common = 1
    for (a, b), cnt in pc.items():
        q = a * a + b * b
        if d_common % q:
            scale = q // gcd(d_common, q)
            d_common *= scale
            inum *= scale
        inum += cnt * a * b * (d_common // q)
    equalities = []
    for (check_id, sign), (rnum, rden) in zip(_EXACT_BOUNDS, bounds):
        slack = sign * (inum * rden - rnum * d_common)
        if slack < 0:
            violations.append(violation(check_id, Fraction(inum, d_common), Fraction(rnum, rden)))
        equalities.append(not slack)
    isdd_f = inum / d_common
    if not approx_ge(isdd_f, rhs_simple):
        violations.append(violation("GA_SIMPLE", isdd_f, rhs_simple))
    if not approx_ge(isdd_f, rhs_m2):
        violations.append(violation("GA_M2", isdd_f, rhs_m2))
    equalities.append(approx_eq(isdd_f, rhs_m2))
    return tuple(equalities)


def check_pair_stats(
    n: int,
    m: int,
    deg,
    pc: dict[tuple[int, int], int],
    connected: bool,
    sel: frozenset,
) -> tuple[tuple, tuple]:
    """The records of one graph, given its degree-pair counts, for the bound
    ids in ``sel``.

    Returns the graph's records, the pair (violations, discrepancies) of
    tuples: (check_id, lhs, rhs) violation records and (check_id,
    expected_classes, actual, equality) discrepancy records, without the
    graph6 field that leads each record of a report.  The value is
    hashable, so a report formats each distinct one once.
    Identical verdict semantics to the reference path built on the public API.

    Every check is decided, as :func:`bounds.evaluate_all` decides every
    bound; the records are then filtered once by the selection, which keeps
    those of the ids in ``sel`` and RATIO_CONSTANT's, a class check that
    every connected graph gets.  One fold over ``pc.items()`` gathers every
    sum, minimum and test over the pairs: the index as a float x, GA summed
    in pair order, M2, k, the smallest edge term over the pairs other than
    (Delta, delta) and the constant-ratio test.  Each pair's ab,
    a^2 + b^2, a + b and GA term come from :data:`PAIR_TERMS`, the GA term
    by the expression ``2.0 * sqrt(ab) / (a + b)``, which fixes every bit of
    the GA sum; the index terms stay the int divisions cnt*ab / (a^2 + b^2)
    that the enclosure below rests on, not a tabulated float.  What
    depends on (Delta, delta) alone, the pairs (Delta, delta), (Delta - 1,
    delta) and (Delta, Delta - 1) with their ab and a^2 + b^2, CLAIM1's
    record and the pairs gamma2 looks up, comes from :data:`EXTREMES`.
    Both tables are process-wide and empty once they hold
    :data:`TABLE_CAP` entries.  Only an attained edge
    minimum and the tree bound walk the pairs again.  M1 and F are sums
    over ``deg``, not over the pairs: the two agree on a graph, but not on
    every input (the unrealizable inputs of the tests pin that).  One pass
    over ``deg`` gives them with Delta and delta.

    The checks on the index (LOWER_ELL, UPPER_K, UPPER_NDELTA and M1_F with
    their equality flags, GA_SIMPLE, GA_M2 and GA_M2's equality flag) are
    taken from an enclosure of the exact index X around x, and only a check
    the enclosure cannot settle costs the exact fold (:func:`_exact_verdict`),
    which then decides them all.  The enclosure:

    - x sums the k pairs' terms cnt*ab/(a^2 + b^2) from 0.0 in pair order,
      each one correctly rounded int division, so each term carries a
      relative error of at most u = 2^-53 and the k - 1 additions of
      positive terms add at most k - 1 more (Higham, *Accuracy and
      Stability of Numerical Algorithms*, 2002, sec. 4.2):
      |x - X| <= g X, g = ku/(1 - ku).
    - As X <= x/(1 - g), |x - X| <= ku/(1 - 2ku) x.  ``tol`` is
      (k + 1) 2u x in float: (k + 1) 2u is exact and the product rounds
      down by at most a factor 1 - u, so tol >= 2(k + 1)(1 - u) u x >=
      ku/(1 - 2ku) x whenever 4ku <= 1, that is for every k <= 2^51.  So
      x - tol <= X <= x + tol, and as rounding is monotone, lo and hi, the
      rounded x - tol and x + tol, hold fl(X), the correctly rounded
      inum / d_common, between them.
    - Each bound's value R = rnum/rden is one correctly rounded int
      division r = fl(R).  X <= R gives fl(X) <= r, so lo > r proves
      X > R; likewise hi < r proves X < R.  Either settles the bound and
      its equality flag (false).
    - The GA checks are ``approx_ge`` and ``approx_eq`` written out on
      ``approx_tol(rhs)``, taken once per right side, with the same float
      operations.  v >= rhs - approx_tol(rhs) is monotone in v, so lo
      passing it settles approx_ge(fl(X), rhs) true.  |v - rhs| <=
      approx_tol(rhs) is true on an interval of v (|fl(v - rhs)| grows with
      the distance of v from rhs), so equal values at lo and hi settle
      approx_eq, unless both are false with rhs between them.

    Anything else, a threshold inside [lo, hi] or a violated check, goes to
    :func:`_exact_verdict`, so every verdict and every record is what the
    exact fold alone gives.  The equality flags feed the class rule, which
    only a connected graph with no isolated vertex gets, and only when some
    flag or class is set.  The records come from the helpers the reference
    path shares: :func:`violation` (sides built as Fractions only for a
    violated bound), :func:`pair_discrepancy` and
    :func:`class_discrepancies`.
    """
    violations: list = []
    discrepancies: list = []
    # Delta, delta, M1 and F in one pass over the degrees, which costs less
    # than max, min and two mapped sums
    dmax = dmin = deg[0]
    m1 = f = 0
    for d in deg:
        dd = d * d
        m1 += dd
        f += dd * d
        if d > dmax:
            dmax = d
        elif d < dmin:
            dmin = d
    has_min_deg = dmin >= 1
    top, q1, p1, dm1, q2, p2, want, qk, pk, claim1, gamma2_keys = EXTREMES[dmax, dmin]
    ell = pc.get(top, 0)

    terms = PAIR_TERMS
    # the first pair's ratio (a + b)/(a^2 + b^2)
    _, rq, rs, _ = terms[next(iter(pc))]
    ratio_const = True
    m2 = k = 0
    x = ga = 0.0
    # the smallest edge term op/oq over the pairs other than (Delta, delta),
    # 1/0 while there is none, and how many of those pairs attain it
    op, oq, ties = 1, 0, 0
    for pair, cnt in pc.items():
        p, q, s, ga_term = terms[pair]
        cp = cnt * p
        x += cp / q
        ga += cnt * ga_term
        m2 += cp
        a, b = pair
        if a == b:
            k += cnt
        if p * oq <= op * q and pair != top:
            if p * oq < op * q:
                op, oq, ties = p, q, 1
            else:
                ties += 1
        if ratio_const and s * rq != rs * q:
            ratio_const = False
    # the smallest edge term over all the pairs
    pe, qe = (p1, q1) if ell and p1 * oq <= op * q1 else (op, oq)

    if has_min_deg:
        lhs_cmp = pe * q1
        rhs_cmp = p1 * qe
        if lhs_cmp < rhs_cmp:
            violations.append(violation("EDGE_MIN", Fraction(pe, qe), Fraction(p1, q1)))
        elif connected and op * q1 == p1 * oq:  # a pair besides (Delta, delta) attains it
            bad = [
                (a, b) for a, b in pc
                if (a, b) != top and a * b * q1 == p1 * (a * a + b * b)
            ]
            discrepancies.append(pair_discrepancy("EDGE_MIN", bad))

    if has_min_deg and m > ell:
        lhs_cmp = op * q2
        rhs_cmp = p2 * oq
        if lhs_cmp < rhs_cmp:
            violations.append(violation("EDGE_SECOND_MIN", Fraction(op, oq), Fraction(p2, q2)))
        elif lhs_cmp == rhs_cmp and connected and ties > (want in pc):
            # (Delta - 1, delta), when present, is one of the pairs at the
            # minimum, its edge term being the bound: another pair attains it
            bad = [
                (a, b) for a, b in pc
                if (a, b) != top and (a, b) != want and a * b * q2 == p2 * (a * a + b * b)
            ]
            discrepancies.append(pair_discrepancy("EDGE_SECOND_MIN", bad))

    if connected and m == n - 1 and n >= 4:
        tn, td = n - 2, (n - 2) * (n - 2) + 1
        star = (n - 1, 1)
        if star not in pc:
            least = pe, qe
        else:  # only the star itself, unless the input is not a graph
            least = min([terms[pair][:2] for pair in pc if pair != star],
                        key=lambda pq: Fraction(*pq), default=None)
        if least and least[0] * td < tn * least[1]:
            violations.append(violation("TREE_EDGE", Fraction(*least), Fraction(tn, td)))

    # the exact bounds on the index (_EXACT_BOUNDS), each a fraction rnum/rden;
    # with an isolated vertex LOWER_ELL does not apply, and 0/1 always holds
    if not has_min_deg:
        ell_bound = 0, 1
    elif m == ell:
        ell_bound = ell * p1, q1
    else:
        ell_bound = ell * p1 * q2 + (m - ell) * p2 * q1, q1 * q2
    k_den = 2 * qk
    k_num = k * qk + 2 * pk * (m - k)
    nd_num = k * qk + pk * (n * dmax - 2 * k)
    f_num, f_den = m1 * m1 - m * f, 2 * f
    rhs_simple = ga_simple_rhs(ga, m)
    rhs_m2 = ga_m2_rhs(ga, m, dmax, m2)
    class_rule = connected and has_min_deg
    # [lo, hi] holds the correctly rounded exact index (see the docstring)
    tol = (len(pc) + 1) * _ENCLOSURE * x
    lo = x - tol
    hi = x + tol
    # approx_ge and approx_eq written out, each right side's tolerance taken once
    tol_m2 = approx_tol(rhs_m2)
    ga_eq = class_rule and abs(lo - rhs_m2) <= tol_m2
    if (lo > ell_bound[0] / ell_bound[1] and hi < k_num / k_den and hi < nd_num / k_den
            and lo > f_num / f_den and lo >= rhs_simple - approx_tol(rhs_simple)
            and lo >= rhs_m2 - tol_m2
            and (not class_rule
                 or ga_eq == (abs(hi - rhs_m2) <= tol_m2) and (ga_eq or not lo < rhs_m2 < hi))):
        # settled by the enclosure: every exact bound holds strictly, GA too
        equalities = (False, False, False, False, ga_eq)
    else:
        equalities = _exact_verdict(
            pc, (ell_bound, (k_num, k_den), (nd_num, k_den), (f_num, f_den)),
            rhs_simple, rhs_m2, violations)

    if not (rhs_m2 - rhs_simple > STRICT_MARGIN):
        violations.append(violation("REMARK_ORDER", rhs_m2, rhs_simple))

    if claim1:
        violations.append(claim1)

    if class_rule:
        regular = dmax == dmin
        semireg = False
        consecutive = False
        if len(pc) == 1:
            (a, b), = pc.keys()
            if a != b:
                semireg = True
                consecutive = a - b == 1
        # gamma1: the edges are (Delta, delta) and (Delta - 1, delta), some
        # of each; gamma2: (Delta, Delta - 1) and (Delta, Delta) or (Delta -
        # 1, Delta - 1), some of the first and of the others
        g1 = not regular and 0 < ell < m and ell + pc.get(want, 0) == m
        cross_key, kmax_key, kdm1_key = gamma2_keys
        cross = pc.get(cross_key, 0)
        g2 = 0 < cross < m and cross + pc.get(kmax_key, 0) + pc.get(kdm1_key, 0) == m

        # a non-constant ratio rules out all three families: regular/semiregular
        # force constancy directly, and gamma3 membership forces the common value
        # (max+min)/(max^2+min^2) on both edge types
        gamma3 = ratio_const and not (regular or semireg) and _lazy_gamma3(pc, dmax, dmin)
        classes = (regular, semireg, consecutive, g1, g2, gamma3, ratio_const)
        # every flag is a bool, so ``True in`` is ``any``
        if True in classes or True in equalities:  # else no check differs from its classes
            ell_eq, k_eq, nd_eq, f_eq, ga_eq = equalities
            discrepancies += class_discrepancies(
                {"LOWER_ELL": ell_eq, "UPPER_K": k_eq, "UPPER_NDELTA": nd_eq, "M1_F": f_eq,
                 "GA_M2": ga_eq, "RATIO_CONSTANT": ratio_const},
                _actual_class_names(*classes))
    if not (violations or discrepancies):
        return (), ()
    return (tuple([rec for rec in violations if rec[0] in sel]),
            tuple([rec for rec in discrepancies if rec[0] in sel or rec[0] == "RATIO_CONSTANT"]))


@lru_cache(maxsize=None)
def signature_table(n: int) -> tuple[tuple[int, ...], tuple[tuple[int, int], ...], int]:
    """Packing of degree-pair signatures for graphs on n vertices.

    A signature is one integer: bit 0 is set for a connected graph, and above
    it pair (a, b), a >= b >= 1, owns a ``width``-bit field holding its edge
    count, as wide as the n(n-1)/2 edges of K_n need (5 bits at n = 7, 8).  Returns (weights, pairs,
    width): ``weights[a*n + b]`` is the amount one (a, b) edge adds, for both
    endpoint orders, and ``pairs`` lists the fields from the lowest.
    """
    width = max(1, (n * (n - 1) // 2).bit_length())
    pairs = tuple((a, b) for a in range(1, n) for b in range(1, a + 1))
    weights = [0] * (n * n)
    for idx, (a, b) in enumerate(pairs):
        weights[a * n + b] = weights[b * n + a] = 1 << (1 + idx * width)
    return tuple(weights), pairs, width


def signature_pairs(n: int, key: int) -> dict[tuple[int, int], int]:
    """The degree-pair counts packed in a signature (see :func:`signature_table`)."""
    _, pairs, width = signature_table(n)
    field = (1 << width) - 1
    key >>= 1
    pc = {}
    for pair in pairs:
        cnt = key & field
        if cnt:
            pc[pair] = cnt
        key >>= width
    return pc


def signature_degrees(n: int, pc: dict[tuple[int, int], int]) -> list[int]:
    """The degrees, in increasing order, of any graph on n vertices with these
    degree-pair counts: degree d >= 1 has (the edge ends at degree d) / d
    vertices, and the vertices left over are isolated."""
    ends: dict[int, int] = {}
    for (a, b), cnt in pc.items():
        ends[a] = ends.get(a, 0) + cnt
        ends[b] = ends.get(b, 0) + cnt
    deg = [d for d in sorted(ends) for _ in range(ends[d] // d)]
    return [0] * (n - len(deg)) + deg


_BOUND_ID = operator.itemgetter(0)  # of a record without its graph6 field


def in_report_order(records) -> tuple:
    """A records pair (violations, discrepancies) in report order: the
    violations sorted by (bound_id, lhs, rhs) and the discrepancies by
    bound_id, both stably, each side a tuple.

    Every records value is put in this order where it is made: once per
    signature (:func:`_template`), once per checked graph with records
    (:func:`enumeration._check_each`), and when a report groups flat records
    or joins the records of a graph it holds twice.  A report sorted by
    graph6 then lists its records as a stable sort of the flat records by
    (graph6, bound_id, lhs, rhs) and by (graph6, bound_id) would.
    """
    violations, discrepancies = records
    return tuple(sorted(violations)), tuple(sorted(discrepancies, key=_BOUND_ID))


# one object per distinct template value: a report's writers look each
# graph's records up in a dict, and an identical key is found without
# comparing the records field by field (every labeled path on 4..9
# vertices has the same records under --bounds all)
_TEMPLATES: dict = {}


@lru_cache(maxsize=None)
def _template(n: int, key: int, sel: frozenset) -> tuple:
    """The records of every graph on n vertices with signature ``key`` >= 0.

    ``()`` when there are none, else the pair (violations, discrepancies)
    that :func:`check_pair_stats` returns for the pair counts and degrees
    the key fixes, put in report order (:func:`in_report_order`) once per
    signature: every check, filtered by the selection ``sel``, a frozenset
    of bound ids.  Shared and never mutated: each graph of the signature
    that a scan meets gets the entry (graph6, template).  Equal templates
    are one object (:data:`_TEMPLATES`), whatever their order or signature.
    """
    pc = signature_pairs(n, key)
    records = check_pair_stats(n, sum(pc.values()), signature_degrees(n, pc), pc,
                               bool(key & 1), sel)
    if not (records[0] or records[1]):
        return ()
    records = in_report_order(records)
    return _TEMPLATES.setdefault(records, records)


@lru_cache(maxsize=None)
def free_trees(n: int) -> tuple[Graph, ...]:
    """One tree on n vertices per isomorphism class, by the walk of Wright,
    Richmond, Odlyzko and McKay ("Constant time generation of free trees",
    SIAM J. Comput. 15 (1986)).

    A rooted tree is written as its level sequence: the depth of each vertex
    in preorder, root first at depth 0, with the children of every vertex
    ordered so that the sequence is as large as it can be; a vertex hangs
    from the last vertex before it one level up.  Beyer and Hedetniemi's
    successor (:func:`_next_rooted_tree`) runs through these sequences in
    decreasing order.  Each free tree has exactly one of them that passes
    :func:`_rooted_at_centre`, rooted at a centre; the walk goes from the
    path to the star through those, jumping over the runs of sequences that
    would fail the test, so the trees come out distinct without an
    isomorphism test.  The counts are OEIS A000055, from the single (empty)
    tree on 0 vertices.
    """
    if n <= 2:
        return (Graph(n, ((0, 1),) if n == 2 else ()),)
    trees = []
    levels = list(range(n // 2 + 1)) + list(range(1, (n + 1) // 2))  # the path, centre first
    while True:
        split = _second_subtree(levels)
        if not _rooted_at_centre(levels, split):
            # every successor that keeps the root's first subtree fails too,
            # since the rest only gets smaller and no deeper: change that
            # subtree.  With p deeper than 2 the copy never returns to depth 1
            # and fills every later vertex, so the rest becomes a path as
            # deep as the new first subtree
            p = split - 1
            deep = levels[p] > 2
            levels = _next_rooted_tree(levels, p)
            if deep:
                depth = max(levels[1:_second_subtree(levels)])
                levels[n - depth:] = range(1, depth + 1)
            continue
        last = [0] * n  # last[d]: the latest vertex at depth d
        edges = []
        for v in range(1, n):
            edges.append((last[levels[v] - 1], v))
            last[levels[v]] = v
        trees.append(unchecked_graph((n, tuple(sorted(edges)))))
        p = n - 1
        while levels[p] == 1:
            p -= 1
        if p == 0:  # the star, the last tree
            return tuple(trees)
        levels = _next_rooted_tree(levels, p)


def _second_subtree(levels: list[int]) -> int:
    """Where the root's second subtree starts in a level sequence of three or
    more vertices; its length when the root has one child."""
    try:
        return levels.index(1, 2)
    except ValueError:
        return len(levels)


def _rooted_at_centre(levels: list[int], split: int) -> bool:
    """Whether the free tree walk keeps this level sequence.

    Let A be the root's first subtree, ``levels[1:split]``, which is its
    deepest, and B the rest of the tree, root included.  The root is a centre
    exactly when B reaches as deep as A or one level less.  In the second
    case the root and its first child are both centres, and the edge between
    them cuts the tree into A and B.  So that one of the two rootings is
    kept, the sequence is kept when B has more vertices than A, or as many
    and a level sequence no smaller than A's.
    """
    depth_a = max(levels[1:split])
    depth_b = max(levels[split:], default=0)
    if depth_b == depth_a:
        return True
    if depth_b != depth_a - 1:
        return False
    a = [d - 1 for d in levels[1:split]]
    b = [0] + levels[split:]
    return (len(a), a) <= (len(b), b)


def _next_rooted_tree(levels: list[int], p: int) -> list[int]:
    """Beyer and Hedetniemi's successor of a level sequence, changed from
    vertex p on (``levels[p] >= 2``).

    The subtree of p's parent q, as far as it goes before p, is copied again
    and again over p and every vertex after it.  With p the last vertex
    deeper than 1, this gives the next sequence in decreasing order.
    """
    q = p - 1
    while levels[q] != levels[p] - 1:
        q -= 1
    out = levels[:p]
    for v in range(p, len(levels)):
        out.append(out[v - p + q])
    return out


def _connected_signature(n: int, deg, edges) -> int:
    """The signature of a connected graph on n vertices with these degrees
    and edges, packed as :func:`signature_table` packs it."""
    weights = signature_table(n)[0]
    return 1 + sum([weights[deg[i] * n + deg[j]] for i, j in edges])


def tree_signature(tree: Graph) -> int:
    """The signature of a tree (:func:`_connected_signature`)."""
    return _connected_signature(tree.n, degrees(tree), tree.edges)


def neighbour_degrees(tree: Graph) -> tuple[tuple[int, ...], ...]:
    """The sorted degrees of each vertex's neighbours, over all vertices, sorted.

    An isomorphism invariant of any graph, finer than the signature, which it
    fixes: each edge (a, b) shows up as a in the entry of its degree-b end
    and as b in that of its degree-a end.
    """
    deg = degrees(tree)
    around: list[list[int]] = [[] for _ in range(tree.n)]
    for i, j in tree.edges:
        around[i].append(deg[j])
        around[j].append(deg[i])
    return tuple(sorted(tuple(sorted(a)) for a in around))


@lru_cache(maxsize=None)
def tree_class_key(n: int):
    """A function that keys each tree on n >= 2 vertices by its isomorphism class.

    Isomorphic trees get equal keys, and trees of distinct classes distinct
    ones.  The key is the tree's :func:`tree_signature` where only one free
    tree (:func:`free_trees`) has that signature, else its
    :func:`neighbour_degrees`; an int and a tuple never compare equal, so the
    two kinds of key share one set.  Raises ValueError where free trees share
    both, as 4 of the 106 do at n = 10; at n <= 9, the orders a tree sweep
    accepts, no two do.
    """
    free = free_trees(n)
    signatures = Counter(map(tree_signature, free))
    shared = {sig for sig, classes in signatures.items() if classes > 1}
    forms = [neighbour_degrees(tree) for tree in free if tree_signature(tree) in shared]
    if len(set(forms)) < len(forms):
        raise ValueError(f"neighbour degrees do not separate the free trees on {n} vertices")

    def key(tree: Graph):
        k = tree_signature(tree)
        return neighbour_degrees(tree) if k in shared else k

    return key


@lru_cache(maxsize=None)
def tree_signatures(n: int) -> tuple[int, ...]:
    """The distinct signatures of the trees on n >= 2 vertices (:func:`tree_signature`)."""
    return tuple(dict.fromkeys(map(tree_signature, free_trees(n))))


CORE_ORDER = 5  # core vertices of the graph scan: 2^10 core graphs
CORE_SLOTS = CORE_ORDER * (CORE_ORDER - 1) // 2  # the edge slots among them


def _code_offsets(c: int) -> tuple[int, int]:
    """Where the vertex-pair codes and the partition codes of a c-vertex core start."""
    pair0 = c * (c - 1) // 2 * c * c
    return pair0, pair0 + c // 2 * c * c * 2


@lru_cache(maxsize=None)
def core_table(c: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Codes of every graph L on the core vertices 0..c-1.

    ``codes[L]`` holds, with d the degrees in L:

    - per vertex pair (2t, 2t+1): ``pair0 + ((t*c + d[2t])*c + d[2t+1])*2 + e``,
      e = 1 when the pair is an edge;
    - ``last0 + pid*c + d[c-1]`` (``+ 0`` when c is even), pid numbering L's
      component partition;
    - per other edge of L, in slot k: ``(k*c + d[i])*c + d[j]``.

    ``partitions[pid]`` lists the blocks of partition pid as vertex bitmasks.
    :func:`_code_weights` gives each code its weight.  Returns (codes,
    partitions).
    """
    slots = c * (c - 1) // 2
    ei, ej = edge_table(c)
    twins = [(2 * t + 1) * t + 2 * t for t in range(c // 2)]  # slot of (2t, 2t+1)
    pair0, last0 = _code_offsets(c)
    pids: dict = {}
    codes = []
    for core in range(1 << slots):
        deg = [0] * c
        comp = [1 << v for v in range(c)]  # comp[v]: the block holding v
        ks = [k for k in range(slots) if core >> k & 1]
        for k in ks:
            i, j = ei[k], ej[k]
            deg[i] += 1
            deg[j] += 1
            if comp[i] != comp[j]:
                block = comp[i] | comp[j]
                for v in range(c):
                    if block >> v & 1:
                        comp[v] = block
        pid = pids.setdefault(tuple(sorted(set(comp))), len(pids))
        codes.append((
            *[pair0 + ((t * c + deg[2 * t]) * c + deg[2 * t + 1]) * 2 + (core >> k & 1)
              for t, k in enumerate(twins)],
            last0 + pid * c + (deg[c - 1] if c % 2 else 0),
            *[(k * c + deg[ei[k]]) * c + deg[ej[k]] for k in ks if k not in twins],
        ))
    return tuple(codes), tuple(pids)


@lru_cache(maxsize=None)
def _joins_connected(c: int, links: tuple[int, ...]) -> tuple[bool, ...]:
    """Per core partition: whether its blocks and the vertex sets in ``links``
    together join all c core vertices."""
    full = (1 << c) - 1
    out = []
    for blocks in core_table(c)[1]:
        sets = blocks + links
        reached = blocks[0]
        grown = True
        while grown:
            grown = False
            for s in sets:
                if s & reached and s | reached != reached:
                    reached |= s
                    grown = True
        out.append(reached == full)
    return tuple(out)


def _code_weights(n: int, c: int, high: int, weights, connected_only: bool) -> list:
    """Code -> signature weight for the masks whose bits above the core are ``high``.

    ``high`` holds the edges that touch a vertex >= c.  An edge weighs by the
    degrees of its ends: an outer vertex has all its edges in ``high``, a
    core vertex u adds its core degree to ``out[u]``, its degree in ``high``.
    So a core edge's weight needs the core degrees of its ends, and the
    weight of u's edges to outer vertices needs u's; the partition code adds
    the outer-outer edges and the connected flag.  A partition whose graph
    with ``high`` is disconnected gets no flag, or with ``connected_only`` a
    negative weight below any key.
    """
    ei, ej = edge_table(n)
    wpairs, width = signature_table(n)[1:]
    slots = c * (c - 1) // 2
    pair0, last0 = _code_offsets(c)
    out = [0] * n
    outer_edges = []
    k = slots
    while high:
        if high & 1:
            i, j = ei[k], ej[k]
            out[i] += 1
            out[j] += 1
            outer_edges.append((i, j))
        high >>= 1
        k += 1
    row = [weights[d * n:(d + 1) * n] for d in range(n)]
    table = [0] * (last0 + len(core_table(c)[1]) * c)
    for k in range(slots):
        oi, oj = out[ei[k]], out[ej[k]]
        for a in range(1, c):
            wa = row[a + oi]
            base = (k * c + a) * c
            for b in range(1, c):
                table[base + b] = wa[b + oj]
    # spoke[u][d]: u's edges to outer vertices when u has core degree d; the
    # outer components join the core vertices they touch
    spoke = [[0] * c for _ in range(c)]
    comp = [1 << v for v in range(n)]
    touch = [0] * n
    const = 0
    for i, j in outer_edges:
        if i < c:
            touch[j] |= 1 << i
            for d in range(c):
                spoke[i][d] += row[d + out[i]][out[j]]
        else:
            const += row[out[i]][out[j]]
            if comp[i] != comp[j]:
                block = comp[i] | comp[j]
                for v in range(c, n):
                    if block >> v & 1:
                        comp[v] = block
    for t in range(c // 2):
        u, v = 2 * t, 2 * t + 1
        for a in range(c):
            for b in range(c):
                base = pair0 + ((t * c + a) * c + b) * 2
                table[base] = spoke[u][a] + spoke[v][b]
                if a and b:
                    table[base + 1] = table[base] + row[a + out[u]][b + out[v]]
    links = {}
    for w in range(c, n):
        links[comp[w]] = links.get(comp[w], 0) | touch[w]
    stranded = 0 in links.values()  # an outer component that touches no core vertex
    joined = _joins_connected(c, tuple(sorted(set(links.values()) - {0})))
    skip = -(1 << (1 + len(wpairs) * width))  # below every key
    lone = spoke[c - 1] if c % 2 else [0]
    for pid, joins in enumerate(joined):
        flag = 1 if joins and not stranded else skip if connected_only else 0
        base = last0 + pid * c
        for d, w in enumerate(lone):
            table[base + d] = const + flag + w
    return table


def _block_records(n: int, high: int, start: int, stop: int, connected_only: bool,
                   sel: frozenset) -> tuple[int, tuple]:
    """The masks ``high << slots | core``, ``core`` in [start, stop), summed
    directly: how many are checked, and (core, records) for each whose
    :func:`_template` has records, in core order.

    One table of code weights is built for ``high`` (:func:`_code_weights`);
    the signature of each mask is the sum of the weights of its core
    graph's codes (:func:`core_table`), negative for a skipped mask.  Every
    edge weighs at least 2, so a key of 1 or less is an edgeless mask, which
    is never checked.
    """
    c = min(n, CORE_ORDER)
    table = _code_weights(n, c, high, signature_table(n)[0], connected_only)
    keys = list(map(sum, map(map, repeat(table.__getitem__), core_table(c)[0][start:stop])))
    loud = {key: records for key in set(keys) if key > 1 and (records := _template(n, key, sel))}
    return sum(map((1).__lt__, keys)), tuple(
        (core, loud[key]) for core, key in zip(range(start, stop), keys) if key in loud)


@lru_cache(maxsize=None)
def _orbit_summary(n: int, rep: int, connected_only: bool, sel: frozenset) -> tuple[int, tuple]:
    """:func:`_block_records` of the whole block of the high part ``rep``,
    once per process: it stands for every high part that
    :func:`_high_representative` sends to ``rep``."""
    c = min(n, CORE_ORDER)
    return _block_records(n, rep, 0, 1 << c * (c - 1) // 2, connected_only, sel)


def _high_representative(n: int, high: int) -> tuple[int, tuple[int, ...]]:
    """The representative of the high part ``high`` under relabelings of the
    core vertices, and ``order``, the core vertices sorted by their sets of
    outer neighbours, ties in index order.  At n <= CORE_ORDER the only high
    part is 0, its own representative, with ``order`` the identity.

    The relabeling sigma that sends ``order[i]`` to i takes ``high`` to the
    representative, in which core vertex i has the i-th smallest set; it
    takes the mask ``high << slots | L`` to ``rep << slots | sigma.L``.  The
    representative depends only on the multiset of the sets and on the
    edges among the outer vertices, which a relabeling of the core keeps,
    so every high part of a class gets the same one.
    """
    c = CORE_ORDER
    # shifts[t]: where outer vertex c + t's edges to the core start in high,
    # one bit per core vertex in index order
    shifts = [(w * (w - 1) >> 1) - CORE_SLOTS for w in range(c, n)]
    cols = [high >> shift & (1 << c) - 1 for shift in shifts]
    sets = [sum([(col >> u & 1) << t for t, col in enumerate(cols)]) for u in range(c)]
    order = tuple(sorted(range(c), key=sets.__getitem__))
    rep = high
    for shift, col in zip(shifts, cols):
        rep ^= (col ^ sum([(col >> u & 1) << i for i, u in enumerate(order)])) << shift
    return rep, order


@lru_cache(maxsize=None)
def _core_relabeling(order: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Tables that relabel a core graph by vertex i -> ``order[i]``, the
    inverse of :func:`_high_representative`'s sigma: the image of L is
    ``low[L & 31] | top[L >> 5]``, one table per half of the 10 slots."""
    images = []  # per core slot: the bit of its edge's image
    for i, j in zip(*edge_table(CORE_ORDER)):
        a, b = sorted((order[i], order[j]))
        images.append(1 << (b * (b - 1) // 2 + a))
    tables = []
    for bits in (images[:5], images[5:]):
        table = [0]
        for bit in bits:
            table += [x | bit for x in table]
        tables.append(tuple(table))
    return tables[0], tables[1]


def scan_graph_masks(
    n: int,
    lo: int,
    hi: int,
    bounds: tuple[str, ...],
    connected_only: bool,
) -> dict:
    """Check every edge-bitmask graph in [lo, hi) on n vertices.

    A mask is ``high << slots | core``: ``core`` the edges among the first
    c = min(n, CORE_ORDER) vertices, ``high`` the rest; the masks of one
    ``high`` form its block.  A signature is an isomorphism invariant, so
    relabeling the core vertices keeps every mask's records but its graph6.
    A whole block is summed once per class of its high part under those
    relabelings (:func:`_orbit_summary`, at the class's
    :func:`_high_representative`), and each of its masks with records is
    relabeled from the representative's block back into this one
    (:func:`_core_relabeling`) and rendered.  A block the range cuts is
    summed directly (:func:`_block_records`).
    """
    c = min(n, CORE_ORDER)
    slots = c * (c - 1) // 2
    sel = frozenset(bounds)
    checked = 0
    entries: list = []
    for high in range(lo >> slots, (hi - 1 >> slots) + 1 if hi > lo else 0):
        offset = high << slots
        start = max(lo - offset, 0)
        stop = min(hi - offset, 1 << slots)
        if start == 0 and stop == 1 << slots:
            rep, order = _high_representative(n, high)
            count, loud = _orbit_summary(n, rep, connected_only, sel)
            if loud:
                low, top = _core_relabeling(order)
                loud = [(low[core & 31] | top[core >> 5], records) for core, records in loud]
        else:
            count, loud = _block_records(n, high, start, stop, connected_only, sel)
        checked += count
        entries += [(mask_to_graph6(n, offset | core), records) for core, records in loud]
    return {"seen": max(hi - lo, 0), "checked": checked, "entries": entries}


def arrangements(items):
    """Each distinct arrangement of the multiset ``items`` once, as a tuple, in
    increasing order: the next-permutation walk from the sorted arrangement."""
    a = sorted(items)
    last = len(a) - 1
    while True:
        yield tuple(a)
        i = last - 1
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = last
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = a[:i:-1]


def tree_sequences(n: int, multiset, hi: int):
    """(deg, rank, seq) for each labeled tree on n >= 2 vertices whose degrees
    form ``multiset`` and whose Pruefer rank is below ``hi``: ``seq`` its
    Pruefer sequence, ``deg`` the degree of each vertex.

    In the sequence of a tree a vertex of degree d appears d - 1 times
    (Pruefer, 1918).  So the walk takes each assignment of the degrees to the
    vertices, then each arrangement of the sequence with those
    multiplicities.  It meets these in increasing order, which is rank order,
    so each assignment's walk stops at ``hi``.
    """
    powers = [n ** e for e in range(n - 3, -1, -1)]
    for deg in arrangements(multiset):
        for seq in arrangements([v for v, d in enumerate(deg) for _ in range(d - 1)]):
            rank = sum(map(operator.mul, seq, powers))
            if rank >= hi:
                break
            yield deg, rank, seq


def scan_tree_ranks(
    n: int,
    lo: int,
    hi: int,
    bounds: tuple[str, ...],
) -> dict:
    """Check the labeled trees on n >= 2 vertices with Pruefer ranks in [lo, hi).

    Only the trees of a loud signature, one whose :func:`_template` has
    records, can yield any.  For each degree multiset of a loud signature,
    :func:`tree_sequences` lists the trees with those degrees; each in the
    range is decoded (:func:`prufer_edges`) and keeps its records when its
    own signature is loud.  Every rank in the range counts as seen and
    checked.
    """
    sel = frozenset(bounds)
    loud = {key: records for key in tree_signatures(n)
            if (records := _template(n, key, sel))}
    entries: list = []
    for multiset in dict.fromkeys(tuple(signature_degrees(n, signature_pairs(n, key)))
                                  for key in loud):
        for deg, rank, seq in tree_sequences(n, multiset, hi):
            if rank >= lo:
                edges = prufer_edges(seq, n)
                records = loud.get(_connected_signature(n, deg, edges))
                if records:
                    entries.append((mask_to_graph6(n, edges_to_mask(edges)), records))
    count = max(hi - lo, 0)
    return {"seen": count, "checked": count, "entries": entries}


def check_graph_kernel(g: Graph, connected: bool, sel: frozenset) -> tuple[tuple, tuple]:
    """The records of one graph with an edge, whatever its order, as
    :func:`check_pair_stats` gives them; ``connected`` is whether g is."""
    deg = degrees(g)
    return check_pair_stats(g.n, len(g.edges), deg, degree_pair_counts(g, deg), connected, sel)
