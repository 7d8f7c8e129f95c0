"""Exhaustive generation of small graphs/trees and the brute-force sweep.

``labeled_graphs`` walks every edge subset on n <= 7 vertices in bitmask
order; ``labeled_trees`` decodes every Pruefer sequence for n <= 9.  The
sweep runs every selected bound on every generated (or externally streamed)
graph, recording violations and equality-characterization discrepancies.
Every sweep runs serially, one order at a time: a graph sweep scans each
order's masks in one :func:`_kernel.scan_graph_masks` call and a tree sweep
decodes only the trees whose signature has records
(:func:`_kernel.scan_tree_ranks`).  Finalizing sorts the records, so the
report does not depend on the order in which partial reports merge.  A
finalized report writes its JSON file and stdout lines itself
(``SweepReport.write_json``, ``write_lines``), formatting each record kind once.
"""

from __future__ import annotations

import contextlib
import itertools
import operator
import os
import time
from collections import deque, namedtuple
from itertools import compress, repeat

from . import _kernel
from .bounds import ALL_BOUND_IDS, SkippedBound, evaluate_all
from .classify import classify
from .graphs import (Graph, GraphError, degree_pair_counts, degrees, input_lines, parse_graph6,
                     write_graph6)
from .indices import edge_term_isdd
from .indices import fraction_str  # unused here; perfbench/layers.py wraps this name


class StreamError(namedtuple("StreamError", "line_no message")):
    """One unparseable line of a graph6 stream."""

    __slots__ = ()


class Violation(namedtuple("Violation", "graph6 bound_id lhs rhs")):
    """A bound that fails on a graph; both sides as text."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The record as the report lists it."""
        return {"graph6": self.graph6, "bound_id": self.bound_id, "lhs": self.lhs,
                "rhs": self.rhs}

    def line(self) -> str:
        """The record's stdout line, without its newline."""
        return f"VIOLATION {self.bound_id} {self.graph6} lhs={self.lhs} rhs={self.rhs}"


class EqualityDiscrepancy(namedtuple(
        "EqualityDiscrepancy",
        "graph6 bound_id expected_classes actual_classification equality")):
    """A check whose equality verdict disagrees with the graph's classes;
    the two class fields are tuples of names."""

    __slots__ = ()

    def as_dict(self) -> dict:
        """The record as the report lists it."""
        return {
            "graph6": self.graph6,
            "bound_id": self.bound_id,
            "expected_classes": list(self.expected_classes),
            "actual_classification": list(self.actual_classification),
            "equality": self.equality,
        }

    def line(self) -> str:
        """The record's stdout line, without its newline."""
        actual = ",".join(self.actual_classification) if self.actual_classification else "none"
        return (f"equality_discrepancy {self.bound_id} {self.graph6} equality={self.equality} "
                f"expected_one_of={','.join(self.expected_classes)} actual={actual}")


class SweepConfig(namedtuple(
        "SweepConfig",
        "n_min n_max connected_only dedup bounds max_graphs trees",
        defaults=(True, False, ALL_BOUND_IDS, None, False))):
    """What to enumerate and which checks to run.

    ``n_min``..``n_max`` is the range of vertex counts.  ``connected_only``
    skips disconnected graphs; ``bounds`` holds the selected bound ids, at
    least one; ``max_graphs`` (None for no limit) cuts the walk after that
    many graphs.
    ``trees`` switches from all-edge-subset enumeration to labeled trees.
    ``dedup`` checks one graph per isomorphism class, the first of the class
    in enumeration order; the walk is serial, flags each checked graph's
    relabelings for graphs and keys trees by their class (see
    :func:`_run_dedup_sweep`).  Neither applies to a stream
    (:meth:`validate_stream`).
    The equality-characterization cross-checks run on every connected graph
    checked, for the selected bounds; they never affect the violation list.
    """

    __slots__ = ()

    def validate_common(self):
        """Raise ValueError for a configuration no sweep mode accepts."""
        if self.n_min > self.n_max:
            raise ValueError(f"n_min {self.n_min} exceeds n_max {self.n_max}")
        if not self.bounds:
            raise ValueError("no bound ids selected")
        unknown = set(self.bounds) - set(ALL_BOUND_IDS)
        if unknown:
            raise ValueError(f"unknown bound ids: {sorted(unknown)}")
        if self.max_graphs is not None and self.max_graphs < 0:
            raise ValueError("max_graphs must be non-negative")

    def validate_stream(self):
        """Raise ValueError for a configuration a graph stream rejects."""
        self.validate_common()
        if self.dedup:
            raise ValueError("--dedup does not apply to --stdin-graph6")
        if self.trees:
            raise ValueError("tree mode (--trees or the trees subcommand) does not "
                             "apply to --stdin-graph6")

    def validate(self):
        """Raise ValueError for a configuration internal enumeration rejects."""
        self.validate_common()
        if self.trees:
            if not 2 <= self.n_min <= self.n_max <= 9:
                raise ValueError("tree sweeps support 2 <= n <= 9")
        elif not 1 <= self.n_min <= self.n_max <= 7:
            raise ValueError("graph sweeps enumerate internally only for 1 <= n <= 7")


class SweepReport:
    """Counts and records of a sweep; partial reports merge into it."""

    def __init__(self, graphs_seen: int = 0, graphs_checked: int = 0, violations=None,
                 equality_discrepancies=None, wall_time: float = 0.0):
        self.graphs_seen = graphs_seen
        self.graphs_checked = graphs_checked
        self.violations: list[Violation] = [] if violations is None else violations
        self.equality_discrepancies: list[EqualityDiscrepancy] = (
            [] if equality_discrepancies is None else equality_discrepancies)
        self.wall_time = wall_time

    def merge(self, partial: dict):
        self.graphs_seen += partial["seen"]
        self.graphs_checked += partial["checked"]
        self.violations.extend(map(Violation._make, partial["violations"]))
        self.equality_discrepancies.extend(
            map(EqualityDiscrepancy._make, partial["discrepancies"]))

    def finalize(self):
        self.violations.sort(key=_VIOLATION_ORDER)
        self.equality_discrepancies.sort(key=_DISCREPANCY_ORDER)

    def to_dict(self, include_timing: bool = True) -> dict:
        out = {
            "graphs_seen": self.graphs_seen,
            "graphs_checked": self.graphs_checked,
            "violations": [v.as_dict() for v in self.violations],
            "equality_discrepancies": [d.as_dict() for d in self.equality_discrepancies],
        }
        if include_timing:
            out["wall_time"] = self.wall_time
        return out

    # The writers below give the report file and the stdout lines of a
    # finalized report.  Each record is the text of its kind (see _Templates)
    # with its graph6 filled in, JSON-escaped in the report, since graph6
    # text can hold a backslash, and raw on stdout; the text goes out
    # WRITE_BLOCK records per write.

    def write_json(self, fh, config: dict) -> None:
        """Write ``{"config": config, **self.to_dict()}`` as ``json.dump(indent=2)`` does.

        Plus a trailing newline.  The output is byte for byte that of
        ``json.dump``, which the tests hold it to; ``to_dict`` stays the
        definition of the content.
        """
        import json

        counts = SweepReport(self.graphs_seen, self.graphs_checked, wall_time=self.wall_time)
        top = {"config": config, **counts.to_dict()}
        top["violations"] = top["equality_discrepancies"] = _SLOT
        head, middle, tail = json.dumps(top, indent=2).split(json.dumps(_SLOT))
        fh.write(head)
        _write_json_list(fh, self.violations)
        fh.write(middle)
        _write_json_list(fh, self.equality_discrepancies)
        fh.write(tail + "\n")

    def write_lines(self, out) -> None:
        """Write one ``record.line()`` per record to ``out``, violations first,
        stopping quietly if the reader goes away (:func:`until_reader_leaves`)."""
        with until_reader_leaves(out):
            for records in (self.violations, self.equality_discrepancies):
                for block in _record_blocks(records, _line_text, str):
                    out.write("".join(block))


@contextlib.contextmanager
def until_reader_leaves(out):
    """Run the body, then flush ``out``; a closed reader ends both quietly.

    When the reader of ``out`` goes away (``isdd-lab sweep | head -1``), the
    ``BrokenPipeError`` stops the body and ``out``'s descriptor is pointed at
    ``os.devnull``, as the Python docs advise for SIGPIPE: the text still
    buffered then goes there instead of failing again when the interpreter
    flushes it at exit.
    """
    try:
        yield
        out.flush()
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, out.fileno())
        finally:
            os.close(devnull)


_SLOT = "\x00"  # stands in for a graph6 or a record list while a template is formatted
WRITE_BLOCK = 1024  # records per write call, so that no whole output is held in memory
_GRAPH6 = operator.itemgetter(0)
_VIOLATION_ORDER = operator.itemgetter(0, 1, 2, 3)  # graph6, bound_id, lhs, rhs
_DISCREPANCY_ORDER = operator.itemgetter(0, 1)  # graph6, bound_id


def _report_text(record) -> str:
    """The record as ``json.dump(indent=2)`` lays it out two levels deep in the report."""
    import json

    return "    " + json.dumps(record.as_dict(), indent=2).replace("\n", "\n    ")


def _line_text(record) -> str:
    return record.line() + "\n"


class _Templates(dict):
    """Record kind -> text of that kind's records as a %-format, ``%s`` for the graph6.

    A kind (``kind_of(record)``) is a record's fields after its first, graph6:
    records of one kind differ only in their graph6, so each kind is formatted
    once, from a probe record whose graph6 is a slot.  ``escape`` renders the
    graph6 in the text.
    """

    def __init__(self, cls, text, escape):
        super().__init__()
        self.cls, self.text, self.escape = cls, text, escape
        self.kind_of = operator.itemgetter(*range(1, len(cls._fields)))

    def __missing__(self, kind):
        text = self.text(self.cls(_SLOT, *kind))
        fmt = self[kind] = text.replace("%", "%%").replace(self.escape(_SLOT), "%s")
        return fmt


def _record_blocks(records, text, escape):
    """Lists of up to ``WRITE_BLOCK`` record texts, in report order."""
    if not records:
        return
    templates = _Templates(type(records[0]), text, escape)
    for lo in range(0, len(records), WRITE_BLOCK):
        block = records[lo:lo + WRITE_BLOCK]
        kinds = map(templates.kind_of, block)
        yield list(map(operator.mod, map(templates.__getitem__, kinds),
                       map(escape, map(_GRAPH6, block))))


def _write_json_list(fh, records):
    import json

    if not records:
        fh.write("[]")
        return
    separator = "[\n"
    for block in _record_blocks(records, _report_text, json.dumps):
        fh.write(separator)
        fh.write(",\n".join(block))
        separator = ",\n"
    fh.write("\n  ]")


def _sorted_pairs(n: int) -> tuple[tuple[tuple[int, int], ...], tuple[int, ...]]:
    """The vertex pairs (i, j), i < j < n, in sorted order, and the mask bit
    of each, so that ``tuple(compress(pairs, map(mask.__and__, bits)))`` is
    the sorted edge tuple of an edge mask."""
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return pairs, tuple(1 << (j * (j - 1) // 2 + i) for i, j in pairs)


def labeled_graphs(n: int):
    """Every graph on vertices 0..n-1, one per edge subset, in bitmask order."""
    if not 1 <= n <= 7:
        raise ValueError(f"labeled enumeration supports 1 <= n <= 7, got {n}")
    pairs, bits = _sorted_pairs(n)
    for mask in range(1 << len(bits)):
        yield Graph._make((n, tuple(compress(pairs, map(mask.__and__, bits)))))


def labeled_trees(n: int):
    """Every labeled tree on n vertices via Pruefer decoding, n^(n-2) total."""
    if not 2 <= n <= 9:
        raise ValueError(f"tree enumeration supports 2 <= n <= 9, got {n}")
    for seq in itertools.product(range(n), repeat=n - 2):
        # each decoded edge is (smaller, larger); the decoding order is not sorted
        yield Graph._make((n, tuple(sorted(_kernel.prufer_edges(seq, n)))))


def canonical_form(g: Graph) -> bytes:
    """Minimal upper-triangle adjacency bit string over all vertex relabelings.

    Equal byte strings <=> isomorphic graphs (the leading byte pins n).
    Uses a prefix-pruned search over vertex images; practical for n <= 10.
    """
    n = g.n
    if n > 10:
        raise GraphError(f"canonical form limited to n <= 10, got {n}")
    if n == 0:
        return bytes([0])
    adjset = [0] * n
    for i, j in g.edges:
        adjset[i] |= 1 << j
        adjset[j] |= 1 << i
    # candidate order low degree first: minimal bit strings open with sparse columns
    order = sorted(range(n), key=lambda v: (bin(adjset[v]).count("1"), v))
    best: list[int] | None = None

    def search(mapped: list[int], used: int, cols: list[int]):
        nonlocal best
        pos = len(mapped)
        if pos == n:
            if best is None or cols < best:
                best = cols.copy()
            return
        for v in order:
            bit = 1 << v
            if used & bit:
                continue
            col = 0
            av = adjset[v]
            for q in range(pos):
                col = (col << 1) | ((av >> mapped[q]) & 1)
            if best is not None:
                prefix = best[:pos + 1]
                if cols + [col] > prefix:
                    continue
            mapped.append(v)
            cols.append(col)
            search(mapped, used | bit, cols)
            mapped.pop()
            cols.pop()

    search([], 0, [])
    assert best is not None
    bits = 0
    width = 0
    for pos in range(1, n):
        bits = (bits << pos) | best[pos]
        width += pos
    pad = (-width) % 8
    packed = (bits << pad).to_bytes((width + pad) // 8, "big") if width else b""
    return bytes([n]) + packed


def stream_graph6(lines):
    """Parse a line stream of graph6 text; bad lines yield StreamError records.

    Lines are read by :func:`graphs.input_lines`, blank ones skipped.
    """
    for line_no, text in input_lines(lines):
        try:
            yield parse_graph6(text)
        except GraphError as exc:
            yield StreamError(line_no, str(exc))


def check_graph_reference(g: Graph, bounds: tuple[str, ...], connected_only: bool) -> dict:
    """Reference per-graph checking built on the public bound/classify API.

    Produces records identical to the kernel path.  It is the oracle the
    test suite holds the kernel to, and the engine of
    ``run_sweep(engine="reference")``.  Verdicts come from
    :func:`evaluate_all` and :func:`classify` in Fraction arithmetic; the
    records from the helpers the kernel shares: :func:`_kernel.violation`,
    :func:`_kernel.pair_discrepancy` and :func:`_kernel.class_discrepancies`.
    """
    from .graphs import is_connected

    connected = g.n >= 1 and is_connected(g)
    if (connected_only and not connected) or g.m == 0:
        return {"seen": 1, "checked": 0, "violations": [], "discrepancies": []}
    sel = set(bounds)
    reports = {r.bound_id.value: r for r in evaluate_all(g)
               if not isinstance(r, SkippedBound) and r.bound_id.value in sel}
    violations = [_kernel.violation(bid, rep.lhs, rep.rhs)
                  for bid, rep in reports.items() if not rep.holds]
    discrepancies: list = []

    if connected:
        label = classify(g)
        deg = degrees(g)
        pairs = degree_pair_counts(g, deg)
        dmax, dmin = max(deg), min(deg)
        consecutive = (
            label.semiregular_bipartite
            and label.semiregular_pair[0] - label.semiregular_pair[1] == 1
        )
        equalities = {bid: reports[bid].equality for bid in _kernel.CLASS_CHECK_IDS
                      if bid in reports}
        equalities["RATIO_CONSTANT"] = label.constant_edge_ratio
        discrepancies += _kernel.class_discrepancies(equalities, _kernel._actual_class_names(
            label.regular, label.semiregular_bipartite, consecutive,
            label.gamma1, label.gamma2, label.gamma3, label.constant_edge_ratio,
        ))
        # an attained edge minimum on a degree pair other than the named ones
        want = (dmax - 1, dmin) if dmax - 1 >= dmin else (dmin, dmax - 1)
        for bid, named in (("EDGE_MIN", ((dmax, dmin),)),
                           ("EDGE_SECOND_MIN", ((dmax, dmin), want))):
            if bid in reports and reports[bid].equality:
                bad = [p for p in pairs
                       if p not in named and edge_term_isdd(*p) == reports[bid].rhs]
                if bad:
                    discrepancies.append(_kernel.pair_discrepancy(bid, bad))
    g6 = write_graph6(g)
    return {"seen": 1, "checked": 1, "violations": [(g6, *rec) for rec in violations],
            "discrepancies": [(g6, *rec) for rec in discrepancies]}


def _enumerated_counts(cfg: SweepConfig):
    """(n, count) per vertex count: the sweep covers positions [0, count) of n.

    A position is an edge bitmask for graphs and a Pruefer rank for trees;
    ``max_graphs`` cuts the walk off across vertex counts.
    """
    budget = cfg.max_graphs
    for n in range(cfg.n_min, cfg.n_max + 1):
        total = n ** (n - 2) if cfg.trees else 1 << (n * (n - 1) // 2)
        if budget is not None:
            total = min(total, budget)
            budget -= total
        if total == 0:
            return
        yield n, total


def _first_of_each_class(n: int, count: int):
    """Yield the first graph of each isomorphism class met in masks [0, count).

    See :func:`_run_dedup_sweep` for why the flags find exactly these.
    """
    pairs, pair_bits = _sorted_pairs(n)
    flags = bytearray(1 << len(pairs))
    pos = flags.find(0, 0, count)
    while pos >= 0:
        yield Graph._make((n, tuple(compress(pairs, map(pos.__and__, pair_bits)))))
        deque(map(flags.__setitem__, _kernel.orbit(n, pos), repeat(1)), 0)
        pos = flags.find(0, pos + 1, count)


def _first_tree_of_each_class(n: int, count: int):
    """Yield the first tree of each isomorphism class met in Pruefer ranks [0, count).

    See :func:`_run_dedup_sweep`; the walk ends once it has met every class.
    """
    classes = len(_kernel.free_trees(n))
    key = _kernel.tree_class_key(n)
    met = set()
    for tree in itertools.islice(labeled_trees(n), count):
        k = key(tree)
        if k not in met:
            met.add(k)
            yield tree
            if len(met) == classes:
                return


def _run_dedup_sweep(cfg: SweepConfig, n: int, count: int) -> dict:
    """The partial report of order n that checks the first graph of each
    isomorphism class met in positions [0, count); every position counts as seen.

    Graphs: two labeled graphs on n vertices are isomorphic exactly when some
    permutation of the vertices maps one onto the other, so a class is the
    orbit of any of its members under the n! relabelings.  The walk keeps one
    flag per edge bitmask and visits the masks in increasing order.  At the
    first unflagged mask it checks the graph there and flags its whole orbit
    in one C-level pass: :func:`_kernel.orbit` ORs the packed
    :func:`_kernel.orbit_table` entries of the graph's edges, each holding
    that edge's image under every permutation in a field of its own, and cuts
    the result into the n! relabeled masks.  Relabeling preserves the class,
    so a flagged mask belongs to a class that has been checked already; an
    unflagged one has no earlier member of its class, since that member
    would have flagged it.  Each class is therefore checked once, at its
    first graph in enumeration order, and every other labeled graph costs
    one flag lookup (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26 (1998), in its simplest form).

    Trees: the walk decodes the labeled trees in Pruefer rank order and checks
    each whose class it has not met yet, by :func:`_kernel.tree_class_key`.
    Isomorphic trees share their degree-pair signature, and a signature that
    only one free tree (:func:`_kernel.free_trees`) has names its class: at
    n = 9 the 47 classes have 40 signatures.  The trees of a signature that
    several free trees share are told apart by their neighbours' degrees
    (:func:`_kernel.neighbour_degrees`), which settle every class at n <= 9,
    and only where free trees share those too by their tree form
    (:func:`_kernel._tree_form`, equal exactly for isomorphic trees; 4 of
    the 106 classes at n = 10).  There are ``len(_kernel.free_trees(n))``
    classes, so once it has met that many, every later tree belongs to a
    class already checked and the walk stops: at n = 9 the last class turns
    up at rank 74,733 of 4,782,969.
    """
    first = _first_tree_of_each_class if cfg.trees else _first_of_each_class
    partial = _check_each(cfg, first(n, count), _kernel.check_graph_kernel)
    partial["seen"] = count  # every position, not only the graphs checked
    return partial


def _check_each(cfg: SweepConfig, graphs, check, budget: int | None = None) -> dict:
    """One partial report for ``check`` run on each graph of ``graphs`` in turn.

    ``check`` is :func:`_kernel.check_graph_kernel` or
    :func:`check_graph_reference`; their per-graph partials are summed here,
    so the report merges once.  The selection is built once, as the frozenset
    both take.  A StreamError item counts as seen only, and a stream stops
    once ``budget`` items have been seen.
    """
    seen = checked = 0
    violations: list = []
    discrepancies: list = []
    bounds, connected_only = frozenset(cfg.bounds), cfg.connected_only
    for item in graphs:
        if seen == budget:
            break
        seen += 1
        if isinstance(item, StreamError):
            continue
        partial = check(item, bounds, connected_only)
        checked += partial["checked"]
        violations += partial["violations"]
        discrepancies += partial["discrepancies"]
    return {"seen": seen, "checked": checked, "violations": violations,
            "discrepancies": discrepancies}


def run_sweep(cfg: SweepConfig, graphs=None, engine: str = "fast") -> SweepReport:
    """Execute a sweep and return its report.

    ``graphs``: optional external iterable (mix of Graph and StreamError, as
    produced by :func:`stream_graph6`) replacing internal enumeration.  Each
    graph is checked whatever its order (``n_min``/``n_max`` do not apply,
    ``dedup`` and ``trees`` are rejected); stream errors count as
    seen-but-unchecked.  Otherwise the sweep makes one call per vertex count
    over the positions :func:`_enumerated_counts` gives: a graph scan, a tree
    scan, a dedup walk or the reference check of each graph.
    ``engine`` selects the fast kernel or the reference path ("reference");
    both produce identical reports and the test suite holds them to that.
    """
    if engine not in ("fast", "reference"):
        raise ValueError(f"unknown engine {engine!r}")
    report = SweepReport()
    start = time.perf_counter()

    check = _kernel.check_graph_kernel if engine == "fast" else check_graph_reference
    if graphs is not None:
        cfg.validate_stream()
        report.merge(_check_each(cfg, graphs, check, cfg.max_graphs))
    else:
        cfg.validate()
        for n, count in _enumerated_counts(cfg):
            if cfg.dedup:
                partial = _run_dedup_sweep(cfg, n, count)
            elif engine == "reference":
                source = labeled_trees if cfg.trees else labeled_graphs
                partial = _check_each(cfg, itertools.islice(source(n), count), check)
            elif cfg.trees:
                partial = _kernel.scan_tree_ranks(n, 0, count, cfg.bounds)
            else:
                partial = _kernel.scan_graph_masks(n, 0, count, cfg.bounds, cfg.connected_only)
            report.merge(partial)

    report.finalize()
    report.wall_time = time.perf_counter() - start
    return report
