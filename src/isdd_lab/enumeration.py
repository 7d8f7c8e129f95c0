"""Exhaustive generation of small graphs/trees and the brute-force sweep.

``labeled_graphs`` walks every edge subset on n <= 7 vertices in bitmask
order; ``labeled_trees`` decodes every Pruefer sequence for n <= 9.  The
sweep runs every selected bound on every generated (or externally streamed)
graph, recording violations and equality-characterization discrepancies.
Every sweep runs serially, one order at a time: a graph sweep scans each
order's masks in one :func:`_kernel.scan_graph_masks` call and a tree sweep
decodes only the trees whose signature has records
(:func:`_kernel.scan_tree_ranks`).  A report keeps one entry (graph6,
records) per graph with records, from the scans to the writers; finalizing
sorts the entries by graph6 and puts each distinct records value in bound
order once, so the report does not depend on the order in which partial
reports merge.  A finalized report writes its JSON file and stdout lines
itself (``SweepReport.write_json``, ``write_lines``), formatting the text
of each distinct records value once and filling in each graph's graph6.
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
from .graphs import (Graph, GraphError, graph_connected, graph_profile, input_lines, parse_graph6,
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
    """Counts and records of a sweep; partial reports merge into it.

    The records are kept per graph, as entries ``(graph6, records)``, one
    for each graph that has any.  ``records`` is the pair (violations,
    discrepancies) of record tuples without their graph6 field, as
    :func:`_kernel.check_pair_stats` returns it; a scan gives every graph of
    a signature the same pair (:func:`_kernel._template`), so a whole report
    holds few distinct ones.  ``violation_count`` and ``discrepancy_count``
    count the records.  ``violations`` and ``equality_discrepancies``, the
    flat lists of :class:`Violation` and :class:`EqualityDiscrepancy`
    records, are built from the entries when first read; the constructor
    takes such flat lists too and groups them by graph6.
    """

    def __init__(self, graphs_seen: int = 0, graphs_checked: int = 0, violations=None,
                 equality_discrepancies=None, wall_time: float = 0.0):
        self.graphs_seen = graphs_seen
        self.graphs_checked = graphs_checked
        self.wall_time = wall_time
        self.violation_count = self.discrepancy_count = 0
        self._entries: list = []
        self._flat = None
        groups: dict = {}
        for side, records in enumerate((violations or (), equality_discrepancies or ())):
            for rec in records:
                groups.setdefault(rec[0], ([], []))[side].append(tuple(rec[1:]))
        self._add([(g6, (tuple(v), tuple(d))) for g6, (v, d) in groups.items()])

    def merge(self, partial: dict):
        """Add a partial report ``{"seen", "checked", "entries"}``, as the checks
        of :mod:`_kernel` and :func:`check_graph_reference` return it."""
        self.graphs_seen += partial["seen"]
        self.graphs_checked += partial["checked"]
        self._add(partial["entries"])

    def _add(self, entries: list):
        self._entries += entries
        records = list(map(_RECORDS, entries))
        self.violation_count += sum(map(len, map(_VIOLATIONS, records)))
        self.discrepancy_count += sum(map(len, map(_DISCREPANCIES, records)))
        self._flat = None

    def finalize(self):
        """Put the records in report order, whatever order the partials merged in.

        The entries are sorted by graph6, stably, and the records of the
        entries that share a graph6 (a stream can hold a graph twice) are
        joined in merge order.  Then each distinct records pair is put in
        order once: violations by (bound_id, lhs, rhs) and discrepancies by
        bound_id, both stably.  The flat lists are then those of a stable
        sort of the flat records by (graph6, bound_id, lhs, rhs) and by
        (graph6, bound_id).
        """
        entries = self._entries
        entries.sort(key=_GRAPH6)
        if any(map(operator.eq, map(_GRAPH6, entries), map(_GRAPH6, entries[1:]))):
            entries = [(g6, _joined(map(_RECORDS, group)))
                       for g6, group in itertools.groupby(entries, _GRAPH6)]
        ordered = _Memo(_in_report_order)
        self._entries = list(zip(map(_GRAPH6, entries),
                                 map(ordered.__getitem__, map(_RECORDS, entries))))
        self._flat = None

    @property
    def violations(self) -> list[Violation]:
        return self._flat_records()[0]

    @property
    def equality_discrepancies(self) -> list[EqualityDiscrepancy]:
        return self._flat_records()[1]

    def _flat_records(self) -> tuple[list, list]:
        if self._flat is None:
            self._flat = tuple(
                [cls(g6, *rec) for g6, records in self._entries for rec in records[side]]
                for side, cls in enumerate(_RECORD_TYPES))
        return self._flat

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
    # finalized report, one section per record kind, violations first.  A
    # graph's records in a section are one text, formatted once per
    # distinct records value with a slot for the graph6 (_section_blocks),
    # and each graph gets that text with its graph6 filled in: JSON-escaped
    # in the report, since graph6 text can hold a backslash, and raw on
    # stdout.  The text goes out WRITE_BLOCK graphs per write.

    def write_json(self, fh, config: dict) -> None:
        """Write ``{"config": config, **self.to_dict()}`` as ``json.dump(indent=2)`` does.

        Plus a trailing newline.  The output is byte for byte that of
        ``json.dump``, which the tests hold it to; ``to_dict`` stays the
        definition of the content.
        """
        import json
        from json.encoder import encode_basestring_ascii  # json.dumps of a str

        counts = SweepReport(self.graphs_seen, self.graphs_checked, wall_time=self.wall_time)
        top = {"config": config, **counts.to_dict()}
        top["violations"] = top["equality_discrepancies"] = _SLOT
        head, middle, tail = json.dumps(top, indent=2).split(json.dumps(_SLOT))
        for text, side in ((head, 0), (middle, 1)):
            fh.write(text)
            separator = "["
            for block in _section_blocks(self._entries, side, _report_text,
                                         encode_basestring_ascii):
                fh.write(separator + "\n")
                fh.write(",\n".join(block))
                separator = ","
            fh.write("[]" if separator == "[" else "\n  ]")
        fh.write(tail + "\n")

    def write_lines(self, out) -> None:
        """Write one ``record.line()`` per record to ``out``, violations first,
        stopping quietly if the reader goes away (:func:`until_reader_leaves`)."""
        with until_reader_leaves(out):
            for side in (0, 1):
                for block in _section_blocks(self._entries, side, _line_text, str):
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


_SLOT = "\x00"  # stands in for a graph6 or a record list while a text is formatted
WRITE_BLOCK = 1024  # graphs per write call, so that no whole output is held in memory
_RECORD_TYPES = (Violation, EqualityDiscrepancy)  # per side of a records pair
_GRAPH6 = _VIOLATIONS = _BOUND_ID = operator.itemgetter(0)
_RECORDS = _DISCREPANCIES = operator.itemgetter(1)


class _Memo(dict):
    """``fn(key)`` for each key looked up, computed on the first lookup."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _joined(records_of_one_graph) -> tuple:
    """One records pair holding the records of several, in turn."""
    parts = list(records_of_one_graph)
    return (tuple(itertools.chain.from_iterable(map(_VIOLATIONS, parts))),
            tuple(itertools.chain.from_iterable(map(_DISCREPANCIES, parts))))


def _in_report_order(records: tuple) -> tuple:
    violations, discrepancies = records
    return tuple(sorted(violations)), tuple(sorted(discrepancies, key=_BOUND_ID))


def _report_text(records) -> str:
    """The records as ``json.dump(indent=2)`` lays out a run of list items two
    levels deep in the report."""
    import json

    return ",\n".join(["    " + json.dumps(rec.as_dict(), indent=2).replace("\n", "\n    ")
                       for rec in records])


def _line_text(records) -> str:
    """The stdout lines of the records."""
    return "".join([rec.line() + "\n" for rec in records])


def _section_blocks(entries: list, side: int, text, escape):
    """Lists of up to ``WRITE_BLOCK`` texts, one per graph with records of kind
    ``side`` (0 violations, 1 discrepancies), in entry order.

    A graph's text is ``text`` of its records of that kind, with ``escape``
    of its graph6 in each record.  The text of a records value is
    formatted once, with a slot for the graph6, and kept split at the
    slots, so that filling in a graph6 is one ``join``.
    """
    cls, kind = _RECORD_TYPES[side], operator.itemgetter(side)
    slot = escape(_SLOT)
    parts = _Memo(lambda records: text([cls(_SLOT, *rec) for rec in records]).split(slot))
    entries = list(compress(entries, map(kind, map(_RECORDS, entries))))
    for lo in range(0, len(entries), WRITE_BLOCK):
        block = entries[lo:lo + WRITE_BLOCK]
        yield list(map(str.join, map(escape, map(_GRAPH6, block)),
                       map(parts.__getitem__, map(kind, map(_RECORDS, block)))))


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
    Each reads the graph's counts from the memos of :mod:`graphs`, found once.
    """
    deg, pairs = graph_profile(g)
    connected = graph_connected(g)
    if (connected_only and not connected) or g.m == 0:
        return {"seen": 1, "checked": 0, "entries": []}
    sel = set(bounds)
    reports = {r.bound_id.value: r for r in evaluate_all(g)
               if not isinstance(r, SkippedBound) and r.bound_id.value in sel}
    violations = [_kernel.violation(bid, rep.lhs, rep.rhs)
                  for bid, rep in reports.items() if not rep.holds]
    discrepancies: list = []

    if connected:
        label = classify(g)
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
    if not (violations or discrepancies):
        return {"seen": 1, "checked": 1, "entries": []}
    return {"seen": 1, "checked": 1,
            "entries": [(write_graph6(g), (tuple(violations), tuple(discrepancies)))]}


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


def _run_dedup_sweep(cfg: SweepConfig, n: int, count: int, check) -> dict:
    """The partial report of order n that runs ``check`` (see :func:`_check_each`)
    on the first graph of each isomorphism class met in positions [0, count);
    every position counts as seen.

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
    the orders a tree sweep accepts.  There are ``len(_kernel.free_trees(n))``
    classes, so once it has met that many, every later tree belongs to a
    class already checked and the walk stops: at n = 9 the last class turns
    up at rank 74,733 of 4,782,969.
    """
    first = _first_tree_of_each_class if cfg.trees else _first_of_each_class
    partial = _check_each(cfg, first(n, count), check)
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
    entries: list = []
    bounds, connected_only = frozenset(cfg.bounds), cfg.connected_only
    for item in graphs:
        if seen == budget:
            break
        seen += 1
        if isinstance(item, StreamError):
            continue
        partial = check(item, bounds, connected_only)
        checked += partial["checked"]
        entries += partial["entries"]
    return {"seen": seen, "checked": checked, "entries": entries}


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
                partial = _run_dedup_sweep(cfg, n, count, check)
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
