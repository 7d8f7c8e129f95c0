"""Named graphs and independent oracles shared by the test modules."""

from __future__ import annotations

import multiprocessing
from fractions import Fraction
from itertools import chain, islice, product
from math import sqrt
from operator import itemgetter

from isdd_lab import _kernel
from isdd_lab.bounds import BoundReport, evaluate_all
from isdd_lab.classify import classify
from isdd_lab.enumeration import (EqualityDiscrepancy, SweepReport, Violation,
                                  _enumerated_counts, check_graph_reference, labeled_graphs,
                                  labeled_trees)
from isdd_lab.graphs import GRAPH6_MAX_N, Graph, Graph6Error, is_connected, write_graph6


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for j in range(n) for i in range(j)])


def star_graph(leaves: int) -> Graph:
    """Hub at vertex 0 with the given number of leaves."""
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def diamond_graph() -> Graph:
    """Complete graph on 4 vertices minus one edge."""
    return Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])


def h1_graph() -> Graph:
    """19 vertices: 12 of degree 2 joined to four degree-3 hubs (triples)
    and three degree-4 hubs (quadruples); every edge is (4,2) or (3,2)."""
    edges = []
    for k in range(4):
        for b in range(3 * k, 3 * k + 3):
            edges.append((b, 12 + k))
    for k in range(3):
        for b in range(4 * k, 4 * k + 4):
            edges.append((b, 16 + k))
    return Graph.from_edges(19, edges)


def h2_graph() -> Graph:
    """14 vertices, degrees 5 and 6; equal-degree edges plus (6,5) edges only."""
    edges = [
        (0, 10), (0, 12), (1, 10), (1, 12), (2, 10), (2, 11), (3, 10), (3, 11),
        (4, 10), (4, 12), (5, 12), (5, 13), (6, 11), (6, 13), (7, 12), (7, 13),
        (8, 11), (8, 13), (9, 11), (9, 13),
        (0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9),
        (10, 11), (12, 13),
        (0, 2), (0, 3), (1, 3), (4, 7), (5, 8), (4, 9), (6, 9),
    ]
    return Graph.from_edges(14, edges)


def h3_graph() -> Graph:
    """30-vertex bipartite graph: 9 hubs of degree 18 against a rim of nine
    degree-6 vertices (cyclic window of six hubs each) and twelve degree-9
    vertices joined to every hub."""
    edges = []
    for i in range(9):
        for d in range(6):
            edges.append((9 + i, (i + d) % 9))
    for v in range(18, 30):
        for u in range(9):
            edges.append((v, u))
    return Graph.from_edges(30, edges)


def equality_cases() -> list[Graph]:
    """Graphs that attain exact bounds: K_n, C_n, K_{a,b} and K_{a,a+1} on
    63..300 vertices (graph6's long size header), then H1, H2 and H3.

    Each attains some exact bound on the index, and together they attain
    every equality flag the class rule reads, at degrees up to 299.
    """
    return [
        *(complete_graph(n) for n in (63, 64, 100, 200, 300)),
        *(cycle_graph(n) for n in (63, 64, 127, 255, 300)),
        *(complete_bipartite(a, b) for a, b in ((1, 62), (20, 43), (3, 297), (50, 150), (100, 200))),
        *(complete_bipartite(a, a + 1) for a in (31, 63, 120, 149)),
        h1_graph(), h2_graph(), h3_graph(),
    ]


def oracle_decode_graph6(s: str) -> tuple[int, set[tuple[int, int]]]:
    """Independent string-based graph6 decoder used as the codec oracle."""
    vals = [ord(c) - 63 for c in s]
    if vals[0] == 63:
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        rest = vals[4:]
    else:
        n = vals[0]
        rest = vals[1:]
    bits = "".join(format(v, "06b") for v in rest)
    edges = set()
    t = 0
    for j in range(1, n):
        for i in range(j):
            if bits[t] == "1":
                edges.add((i, j))
            t += 1
    return n, edges


def oracle_parse_graph6(text: str) -> Graph:
    """The bit-by-bit graph6 decoder the table-driven one replaced.

    Same contract as ``graphs.parse_graph6``: the same Graph, or a
    Graph6Error with the same message and byte offset.
    """
    s = text.rstrip("\r\n")
    if not s:
        raise Graph6Error("empty graph6 string", 0)
    vals = []
    for off, ch in enumerate(s):
        b = ord(ch)
        if b < 63 or b > 126:
            raise Graph6Error(f"character {ch!r} outside printable range 63..126", off)
        vals.append(b - 63)
    if vals[0] < 63:
        n = vals[0]
        pos = 1
    else:
        if len(vals) >= 2 and vals[1] == 63:
            raise Graph6Error(f"order above {GRAPH6_MAX_N} is not supported", 1)
        if len(vals) < 4:
            raise Graph6Error("truncated long size header", len(s))
        n = (vals[1] << 12) | (vals[2] << 6) | vals[3]
        if n < 63:
            raise Graph6Error("non-canonical long size header for n < 63", 1)
        pos = 4
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    body = vals[pos:]
    if len(body) != nbytes:
        raise Graph6Error(
            f"expected {nbytes} data bytes for n={n}, found {len(body)}",
            pos + min(len(body), nbytes),
        )
    edges = []
    t = 0
    i, j = 0, 1
    for k, v in enumerate(body):
        for shift in (5, 4, 3, 2, 1, 0):
            if t < nbits:
                if (v >> shift) & 1:
                    edges.append((i, j))
                i += 1
                if i == j:
                    i = 0
                    j += 1
            elif (v >> shift) & 1:
                raise Graph6Error("trailing padding bits not zero", pos + k)
            t += 1
    return Graph(n, tuple(sorted(edges)))


def oracle_write_graph6(g: Graph) -> str:
    """The bit-by-bit graph6 encoder the table-driven one replaced."""
    n = g.n
    if n <= 62:
        header = chr(63 + n)
    else:
        header = "~" + chr(63 + (n >> 12)) + chr(63 + ((n >> 6) & 63)) + chr(63 + (n & 63))
    eset = set(g.edges)
    out = []
    acc = 0
    filled = 0
    for j in range(1, n):
        for i in range(j):
            acc = (acc << 1) | ((i, j) in eset)
            filled += 1
            if filled == 6:
                out.append(chr(63 + acc))
                acc = 0
                filled = 0
    if filled:
        out.append(chr(63 + (acc << (6 - filled))))
    return header + "".join(out)


def oracle_is_connected(g: Graph) -> bool:
    """Breadth-first search over ``g.neighbors()`` from vertex 0."""
    adj = g.neighbors()
    seen = {0}
    queue = [0]
    for v in queue:
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == g.n


def oracle_encode_prufer(g: Graph) -> list[int]:
    """Independent tree-to-sequence encoder (repeatedly strip smallest leaf)."""
    adj = {v: set() for v in range(g.n)}
    for i, j in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    seq = []
    for _ in range(g.n - 2):
        leaf = min(v for v, nb in adj.items() if len(nb) == 1)
        parent = next(iter(adj[leaf]))
        seq.append(parent)
        adj[parent].discard(leaf)
        del adj[leaf]
    return seq


def flat_records(entries) -> tuple[list, list]:
    """The flat violation and discrepancy records, each with its graph6 first,
    of per-graph entries ``(graph6, (violations, discrepancies))``, in entry order."""
    return ([(g6, *rec) for g6, (violations, _) in entries for rec in violations],
            [(g6, *rec) for g6, (_, discrepancies) in entries for rec in discrepancies])


def per_graph_partial(check, g: Graph, bounds, connected_only: bool) -> dict:
    """The partial report ``{"seen", "checked", "entries"}`` of one graph,
    ``check`` being either engine's per-graph check.

    Which graphs are checked is stated here with ``is_connected``, apart from
    the sweep's rule: a graph with an edge, and under ``connected_only`` a
    connected one.
    """
    connected = g.m > 0 and is_connected(g)
    if not g.m or (connected_only and not connected):
        return {"seen": 1, "checked": 0, "entries": []}
    records = check(g, connected, frozenset(bounds))
    entries = [(write_graph6(g), records)] if records[0] or records[1] else []
    return {"seen": 1, "checked": 1, "entries": entries}


def flat_partial(part: dict) -> dict:
    """A partial report with its entries as sorted flat record lists: record
    order within one graph, and graph order within a partial, are not
    contractual."""
    violations, discrepancies = flat_records(part["entries"])
    return {"seen": part["seen"], "checked": part["checked"],
            "violations": sorted(violations), "discrepancies": sorted(discrepancies)}


def oracle_report(seen: int, checked: int, violations, discrepancies,
                  wall_time: float = 0.0) -> SweepReport:
    """The finalized report of flat records, without ``merge`` or ``finalize``.

    The records are put in report order here, in one step over the flat
    lists: a stable sort of the violations by (graph6, bound_id, lhs, rhs)
    and of the discrepancies by (graph6, bound_id).  A sweep gets there in
    two, each graph's records ordered where they are made and the graphs
    sorted by graph6 at ``finalize``.  The report is built from the sorted
    flat lists.
    """
    return SweepReport(
        seen, checked,
        violations=[Violation._make(rec) for rec in sorted(violations, key=itemgetter(0, 1, 2, 3))],
        equality_discrepancies=[EqualityDiscrepancy._make(rec)
                                for rec in sorted(discrepancies, key=itemgetter(0, 1))],
        wall_time=wall_time)


def enumerated(cfg):
    """The graphs, or trees, that ``run_sweep(cfg)`` enumerates, in order."""
    source = labeled_trees if cfg.trees else labeled_graphs
    return islice(chain.from_iterable(map(source, range(cfg.n_min, cfg.n_max + 1))),
                  cfg.max_graphs)


def oracle_checked_report(items, cfg) -> SweepReport:
    """The report of ``cfg``'s checks run on each graph of ``items`` on its
    own by the reference path (:func:`per_graph_partial`), built from their
    flat records in item order (:func:`oracle_report`); any other item, a
    StreamError, counts as seen only."""
    seen = checked = 0
    violations, discrepancies = [], []
    for item in items:
        seen += 1
        if isinstance(item, Graph):
            part = per_graph_partial(check_graph_reference, item, cfg.bounds,
                                     cfg.connected_only)
            checked += part["checked"]
            more = flat_records(part["entries"])
            violations += more[0]
            discrepancies += more[1]
    return oracle_report(seen, checked, violations, discrepancies)


def _decode_ranks(args) -> dict:
    """The flat partial report of the first ``count`` labeled trees on n
    vertices whose Pruefer sequences start with ``prefix``, each decoded and
    checked by its signature's template."""
    n, prefix, count, bounds = args
    sel = frozenset(bounds)
    weights = _kernel.signature_table(n)[0]
    violations: list = []
    discrepancies: list = []
    for tail in islice(product(range(n), repeat=n - 2 - len(prefix)), count):
        seq = prefix + tail
        edges = _kernel.prufer_edges(seq, n)
        deg = [1] * n
        for s in seq:
            deg[s] += 1
        key = 1 + sum([weights[deg[i] * n + deg[j]] for i, j in edges])
        records = _kernel._template(n, key, sel)
        if records:
            g6 = write_graph6(Graph.from_edges(n, edges))
            violations += [(g6, *rec) for rec in records[0]]
            discrepancies += [(g6, *rec) for rec in records[1]]
    return {"seen": count, "checked": count, "violations": violations,
            "discrepancies": discrepancies}


def tree_scan_report(cfg, jobs: int = 1) -> SweepReport:
    """A tree sweep's report with every labeled tree decoded and checked.

    The oracle of the sweep's loud-signature expansion: the same positions
    as ``run_sweep(cfg)``, every Pruefer rank decoded in rank order, each
    tree's signature looked up in ``_kernel._template``.  The ranks are
    dealt out in blocks that share all digits but the last five; ``jobs`` > 1
    checks the blocks in a pool.  The report is built from the flat records
    of the blocks (:func:`oracle_report`).
    """
    blocks = []
    for n, total in _enumerated_counts(cfg):
        tail = min(n - 2, 5)
        span = n ** tail
        for start in range(0, total, span):
            prefix = tuple(start // n ** (n - 3 - i) % n for i in range(n - 2 - tail))
            blocks.append((n, prefix, min(span, total - start), cfg.bounds))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            partials = list(pool.imap_unordered(_decode_ranks, blocks))
    else:
        partials = list(map(_decode_ranks, blocks))
    return oracle_report(sum(p["seen"] for p in partials), sum(p["checked"] for p in partials),
                         [rec for p in partials for rec in p["violations"]],
                         [rec for p in partials for rec in p["discrepancies"]])


def oracle_report_text(report, config: dict) -> str:
    """The ``--report`` file as the CLI wrote it with ``json.dump``."""
    import io
    import json

    fh = io.StringIO()
    json.dump({"config": config, **report.to_dict()}, fh, indent=2)
    fh.write("\n")
    return fh.getvalue()


def oracle_record_lines(report) -> str:
    """The stdout record lines as the CLI printed them one f-string at a time."""
    lines = [f"VIOLATION {v.bound_id} {v.graph6} lhs={v.lhs} rhs={v.rhs}\n"
             for v in report.violations]
    for d in report.equality_discrepancies:
        lines.append(
            f"equality_discrepancy {d.bound_id} {d.graph6} equality={d.equality} "
            f"expected_one_of={','.join(d.expected_classes)} "
            f"actual={','.join(d.actual_classification) if d.actual_classification else 'none'}\n"
        )
    return "".join(lines)


# Edge-by-edge definitions of the degree-pair quantities, the brute-force side
# of the differential tests.  Degrees come from the adjacency lists, not from
# ``graphs.degrees``.

def _adjacency_degrees(g: Graph) -> list[int]:
    return [len(nb) for nb in g.neighbors()]


def oracle_degree_pair_counts(g: Graph) -> dict[tuple[int, int], int]:
    """Edges per degree pair (a, b), a >= b, keyed in first-edge order."""
    deg = _adjacency_degrees(g)
    pc: dict[tuple[int, int], int] = {}
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        key = (a, b) if a >= b else (b, a)
        pc[key] = pc.get(key, 0) + 1
    return pc


def oracle_index_vector(g: Graph) -> tuple:
    """ISDD, SDD, M1, M2, F and GA, each summed edge by edge in edge order;
    M1 and F in their edge forms, sum of di + dj and of di^2 + dj^2."""
    deg = _adjacency_degrees(g)
    v_isdd = v_sdd = Fraction(0)
    m1 = m2 = f = 0
    ga = 0.0
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        v_isdd += Fraction(a * b, a * a + b * b)
        v_sdd += Fraction(a * a + b * b, a * b)
        m1 += a + b
        m2 += a * b
        f += a * a + b * b
        ga += 2.0 * sqrt(a * b) / (a + b)
    return v_isdd, v_sdd, m1, m2, f, ga


def oracle_in_gamma1(g: Graph) -> bool:
    if g.n == 0 or g.m == 0 or not is_connected(g):
        return False
    deg = _adjacency_degrees(g)
    dmax, dmin = max(deg), min(deg)
    ell = 0
    second = 0
    want2 = (dmax - 1, dmin) if dmax - 1 >= dmin else (dmin, dmax - 1)
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        pair = (a, b) if a >= b else (b, a)
        if pair == (dmax, dmin):
            ell += 1
        elif pair == want2:
            second += 1
        else:
            return False
    return ell > 0 and second > 0


def oracle_in_gamma2(g: Graph) -> bool:
    if g.n == 0 or g.m == 0 or not is_connected(g):
        return False
    deg = _adjacency_degrees(g)
    dmax = max(deg)
    k = 0
    cross = 0
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        if a == b and (a == dmax or a == dmax - 1):
            k += 1
        elif (a, b) in ((dmax, dmax - 1), (dmax - 1, dmax)):
            cross += 1
        else:
            return False
    return k > 0 and cross > 0


def oracle_edge_ratio_constant(g: Graph) -> Fraction | None:
    deg = _adjacency_degrees(g)
    i0, j0 = g.edges[0]
    a0, b0 = deg[i0], deg[j0]
    num0, den0 = a0 + b0, a0 * a0 + b0 * b0
    for i, j in g.edges:
        a, b = deg[i], deg[j]
        if (a + b) * den0 != num0 * (a * a + b * b):
            return None
    return Fraction(num0, den0)


def _side_splits(g: Graph, deg: list[int]) -> list[int]:
    """Candidate side-U vertex sets, as bitmasks, for the bipartite definitions.

    Every subset of the vertices for n <= 6.  Above that, two: the vertices of
    the largest degree, which must be side U whenever the two sides have
    different degrees, and side 0 of a breadth-first two-colouring, which
    puts every edge across whenever some split does (the regular case).
    """
    if g.n <= 6:
        return list(range(1 << g.n))
    dmax = max(deg)
    adj = g.neighbors()
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] < 0:
            side[root] = 0
            queue = [root]
            for v in queue:
                for w in adj[v]:
                    if side[w] < 0:
                        side[w] = 1 - side[v]
                        queue.append(w)
    return [sum(1 << v for v in range(g.n) if deg[v] == dmax),
            sum(1 << v for v in range(g.n) if side[v] == 0)]


def _split_degrees(g: Graph, deg: list[int], u: int):
    """The degree sets of side U (the vertices in ``u``) and side W, or None
    when some edge has both ends on one side."""
    for i, j in g.edges:
        if (u >> i & 1) == (u >> j & 1):
            return None
    return ({deg[v] for v in range(g.n) if u >> v & 1},
            {deg[v] for v in range(g.n) if not u >> v & 1})


def oracle_is_regular(g: Graph) -> int | None:
    """The degree of every vertex, when they all have one."""
    deg = _adjacency_degrees(g)
    return deg[0] if len(set(deg)) == 1 else None


def oracle_is_semiregular_bipartite(g: Graph) -> tuple[int, int] | None:
    """(r, s), r >= s, when some split into sides U and W puts every edge
    across, every U vertex at degree r >= 1 and every W vertex at degree s >= 1."""
    deg = _adjacency_degrees(g)
    if 0 in deg or len(set(deg)) > 2:
        return None  # some vertex could take neither r nor s
    for u in _side_splits(g, deg):
        split = _split_degrees(g, deg, u)
        if split and len(split[0]) == len(split[1]) == 1:
            (r,), (s,) = split
            return (r, s) if r >= s else (s, r)
    return None


def oracle_in_gamma3(g: Graph) -> bool:
    """Connected, and some split into sides U and W puts every edge across,
    every U vertex at the largest degree D and the W vertices at exactly two
    degrees: the smallest, d, and D(D-d)/(D+d), a positive integer."""
    if g.m == 0 or not oracle_is_connected(g):
        return False
    deg = _adjacency_degrees(g)
    dmax, dmin = max(deg), min(deg)
    mid, rem = divmod(dmax * (dmax - dmin), dmax + dmin)
    if rem or mid < 1:
        return False
    return any(_split_degrees(g, deg, u) == ({dmax}, {dmin, mid})
               for u in _side_splits(g, deg))


# The class rule written out check by check, as the reference engine had it
# before both engines shared ``_kernel.class_discrepancies``: each check's
# expected classes as its records name them, and the membership test in
# terms of the ``classify`` label.
ORACLE_EXPECTED_CLASSES = {
    "LOWER_ELL": ("regular", "semiregular_bipartite", "gamma1"),
    "UPPER_K": ("regular", "semiregular_bipartite_consecutive", "gamma2"),
    "UPPER_NDELTA": ("regular",),
    "GA_M2": ("regular",),
    "M1_F": ("constant_edge_ratio",),
    "RATIO_CONSTANT": ("regular", "semiregular_bipartite", "gamma3"),
}


def oracle_class_verdicts(g: Graph) -> tuple[tuple[str, ...], dict, dict]:
    """(class names, equality flags, expected memberships) of a connected
    graph with edges, per check of ``ORACLE_EXPECTED_CLASSES`` that
    ``evaluate_all`` does not skip; RATIO_CONSTANT always runs, with the
    constant edge ratio as its flag."""
    label = classify(g)
    consecutive = (label.semiregular_bipartite
                   and label.semiregular_pair[0] - label.semiregular_pair[1] == 1)
    actual = tuple(name for name, flag in (
        ("regular", label.regular),
        ("semiregular_bipartite", label.semiregular_bipartite),
        ("semiregular_bipartite_consecutive", consecutive),
        ("gamma1", label.gamma1),
        ("gamma2", label.gamma2),
        ("gamma3", label.gamma3),
        ("constant_edge_ratio", label.constant_edge_ratio),
    ) if flag)
    expectations = {
        "LOWER_ELL": label.regular or label.semiregular_bipartite or label.gamma1,
        "UPPER_K": label.regular or consecutive or label.gamma2,
        "UPPER_NDELTA": label.regular,
        "GA_M2": label.regular,
        "M1_F": label.constant_edge_ratio,
        "RATIO_CONSTANT": label.regular or label.semiregular_bipartite or label.gamma3,
    }
    equalities = {r.bound_id.value: r.equality for r in evaluate_all(g)
                  if isinstance(r, BoundReport)}
    equalities["RATIO_CONSTANT"] = label.constant_edge_ratio
    return actual, {bid: equalities[bid] for bid in expectations if bid in equalities}, expectations


def oracle_class_discrepancies(g: Graph) -> list[tuple]:
    """The sorted (graph6, check_id, expected_classes, actual_classification,
    equality) records of the checks whose equality flag differs from the
    graph's membership in the check's families (:func:`oracle_class_verdicts`)."""
    actual, equalities, expectations = oracle_class_verdicts(g)
    g6 = write_graph6(g)
    return sorted((g6, bid, ORACLE_EXPECTED_CLASSES[bid], actual, eq)
                  for bid, eq in equalities.items() if eq != expectations[bid])
