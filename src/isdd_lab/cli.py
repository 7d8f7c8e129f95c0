"""Command-line front end.

Subcommands: ``compute`` (index values), ``check`` (bound reports),
``classify`` (family membership), ``sweep`` (exhaustive verification), and
``trees`` (tree-mode sweep).  Records go to stdout, diagnostics to stderr.

Exit codes: 0 success; 1 unreadable input, an unwritable report path or an
invalid configuration (an unknown bound id, or no bound id at all); 2 parse
errors in the input; 3 at least one bound violation (a falsified claim,
which CI must be able to tell apart from bad input).  ``check`` skips an
edgeless graph, which has no bound to check, with a stderr line: exit 0
and, with ``--json``, an empty ``bounds`` list, as a sweep counts such a
graph seen but not checked.  When the reader of
stdout goes away (``isdd-lab compute | head -1``,
``isdd-lab sweep | head -1``), every command stops writing quietly: compute,
check and classify stop reading graphs and exit with the code of the graphs
read so far; a sweep still completes its ``--report`` file and exits with
the sweep's code.

JSON schemas (--json emits one object per line):

OutputRecord:
    {"input_id": str, "index_vector"?: {"isdd": "p/q", "sdd": "p/q",
     "m1": int, "m2": int, "forgotten": int, "ga": "d.ddddddddd"},
     "bounds"?: [{"bound_id": str, "lhs": "p/q"|float, "rhs": "p/q"|float,
     "holds": bool, "equality": bool, "arithmetic": str, "context": {...}}
     | {"bound_id": str, "skipped": true, "reason": str}],
     "classes"?: {"regular": bool, "regular_degree": int|null, ...}}

SweepReport (--report): {"config": {...}, "graphs_seen": int,
    "graphs_checked": int, "violations": [...],
    "equality_discrepancies": [...], "wall_time": float}, in exactly the
    ``json.dump(indent=2)`` layout plus a newline; ``wall_time`` is its only
    run-dependent value.  ``SweepReport.write_json`` writes it and
    ``SweepReport.write_lines`` the stdout record lines, both from the
    report's per-graph entries: one formatted text per distinct records
    value, each graph's graph6 filled in.
Rationals always serialize as lowest-terms strings, never floats.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys

from .bounds import ALL_BOUND_IDS, BoundReport, SkippedBound, evaluate_all, side_text
from .classify import GraphClassLabel, classify
from .enumeration import StreamError, SweepConfig, run_sweep, stream_graph6, until_reader_leaves
from .graphs import Graph, GraphError, input_lines, parse_edge_list, parse_graph6
from .indices import fraction_str, index_vector

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_VIOLATION = 3


def _json_line(record: dict) -> str:
    """The text of one ``--json`` object; json is imported only when asked for."""
    import json

    return json.dumps(record)


def _index_vector_json(g: Graph) -> dict:
    iv = index_vector(g)
    return {
        "isdd": fraction_str(iv.isdd),
        "sdd": fraction_str(iv.sdd),
        "m1": iv.m1,
        "m2": iv.m2,
        "forgotten": iv.forgotten,
        "ga": f"{iv.ga:.9f}",
    }


def _bound_json(entry: BoundReport | SkippedBound) -> dict:
    if isinstance(entry, SkippedBound):
        return {"bound_id": entry.bound_id.value, "skipped": True, "reason": entry.reason}
    lhs = entry.lhs if isinstance(entry.lhs, float) else fraction_str(entry.lhs)
    rhs = entry.rhs if isinstance(entry.rhs, float) else fraction_str(entry.rhs)
    return {
        "bound_id": entry.bound_id.value,
        "lhs": lhs,
        "rhs": rhs,
        "holds": entry.holds,
        "equality": entry.equality,
        "arithmetic": entry.arithmetic,
        "context": entry.context,
    }


def _classes_json(label: GraphClassLabel) -> dict:
    return {
        "regular": label.regular,
        "regular_degree": label.regular_degree,
        "semiregular_bipartite": label.semiregular_bipartite,
        "semiregular_pair": list(label.semiregular_pair) if label.semiregular_pair else None,
        "gamma1": label.gamma1,
        "gamma2": label.gamma2,
        "gamma3": label.gamma3,
        "constant_edge_ratio": label.constant_edge_ratio,
        "edge_ratio": fraction_str(label.edge_ratio) if label.edge_ratio is not None else None,
    }


def _read_input(path: str) -> str | None:
    if path == "-":
        return sys.stdin.read()
    try:
        # like stdin: an undecodable byte reaches the parser, a parse error,
        # and no line end but "\n" is translated
        with open(path, "r", encoding="ascii", errors="surrogateescape", newline="") as fh:
            return fh.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None


def _iter_graphs(text: str, fmt: str, source: str):
    """Yield (input_id, Graph | error message) for each graph in the input."""
    if fmt == "edgelist":
        try:
            yield source, parse_edge_list(text)
        except GraphError as exc:
            yield source, str(exc)
        return
    for line_no, line in input_lines(io.StringIO(text, newline="\n")):
        try:
            yield line, parse_graph6(line)
        except GraphError as exc:
            yield f"{source}:{line_no}", str(exc)


def _parse_bounds(text: str) -> tuple[str, ...]:
    if text == "all":
        return ALL_BOUND_IDS
    chosen = tuple(token.strip().upper() for token in text.split(",") if token.strip())
    unknown = set(chosen) - set(ALL_BOUND_IDS)
    if unknown:
        raise ValueError(f"unknown bound ids: {sorted(unknown)} (known: {', '.join(ALL_BOUND_IDS)})")
    if not chosen:
        raise ValueError(f"no bound ids given (known: {', '.join(ALL_BOUND_IDS)})")
    return chosen


def _human_indices(input_id: str, g: Graph) -> str:
    iv = index_vector(g)
    return (
        f"{input_id}: n={g.n} m={g.m} isdd={fraction_str(iv.isdd)} sdd={fraction_str(iv.sdd)} "
        f"m1={iv.m1} m2={iv.m2} f={iv.forgotten} ga={iv.ga:.9f}"
    )


def _each_graph(args, render) -> int:
    """The loop of compute, check and classify over the graphs of the input.

    ``render(input_id, g)`` returns the graph's exit code and its stdout
    text, or None for none.  A parse error is EXIT_PARSE, a stderr line and,
    with ``--json``, an ``error`` object.  The exit code is the largest one
    seen; when the reader of stdout goes away the loop ends quietly with the
    code so far.
    """
    text = _read_input(args.input)
    if text is None:
        return EXIT_USAGE
    status = EXIT_OK
    with until_reader_leaves(sys.stdout):
        for input_id, item in _iter_graphs(text, args.format, args.input):
            if isinstance(item, str):
                print(f"parse error at {input_id}: {item}", file=sys.stderr)
                code = EXIT_PARSE
                out = _json_line({"input_id": input_id, "error": item}) if args.json else None
            else:
                code, out = render(input_id, item)
            status = max(status, code)
            if out is not None:
                print(out)
    return status


def cmd_compute(args) -> int:
    def render(input_id: str, g: Graph):
        if args.json:
            return EXIT_OK, _json_line({"input_id": input_id,
                                        "index_vector": _index_vector_json(g)})
        return EXIT_OK, _human_indices(input_id, g)

    return _each_graph(args, render)


def cmd_check(args) -> int:
    try:
        selected = _parse_bounds(args.bounds)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    def render(input_id: str, g: Graph):
        if g.m == 0:
            print(f"skipping {input_id}: no edges, nothing to check", file=sys.stderr)
            out = _json_line({"input_id": input_id, "bounds": []}) if args.json else None
            return EXIT_OK, out
        entries = [e for e in evaluate_all(g) if e.bound_id.value in selected]
        violated = any(isinstance(e, BoundReport) and not e.holds for e in entries)
        code = EXIT_VIOLATION if violated else EXIT_OK
        if args.json:
            return code, _json_line({
                "input_id": input_id,
                "bounds": [_bound_json(e) for e in entries],
            })
        lines = [f"{input_id}:"]
        for e in entries:
            if isinstance(e, SkippedBound):
                lines.append(f"  {e.bound_id.value}: skipped ({e.reason})")
                continue
            verdict = "HOLDS" if e.holds else "VIOLATED"
            eq = " equality" if e.equality else ""
            lines.append(f"  {e.bound_id.value}: {verdict}{eq} "
                         f"lhs={side_text(e.lhs)} rhs={side_text(e.rhs)}")
        return code, "\n".join(lines)

    return _each_graph(args, render)


def cmd_classify(args) -> int:
    def render(input_id: str, g: Graph):
        label = classify(g)
        if args.json:
            return EXIT_OK, _json_line({"input_id": input_id, "classes": _classes_json(label)})
        parts = []
        if label.regular:
            parts.append(f"regular(r={label.regular_degree})")
        if label.semiregular_bipartite:
            r, s = label.semiregular_pair
            parts.append(f"semiregular_bipartite({r},{s})")
        for name, flag in (("gamma1", label.gamma1), ("gamma2", label.gamma2),
                           ("gamma3", label.gamma3)):
            if flag:
                parts.append(name)
        if label.constant_edge_ratio:
            parts.append(f"constant_edge_ratio({fraction_str(label.edge_ratio)})")
        return EXIT_OK, f"{input_id}: {' '.join(parts) if parts else 'no class memberships'}"

    return _each_graph(args, render)


def _sweep(cfg: SweepConfig, stdin_graph6: bool):
    """Run the sweep; returns the report and the number of bad stdin lines."""
    if not stdin_graph6:
        return run_sweep(cfg), 0
    parse_errors = 0

    def stream():
        nonlocal parse_errors
        for item in stream_graph6(sys.stdin):
            if isinstance(item, StreamError):
                parse_errors += 1
                print(f"parse error at stdin:{item.line_no}: {item.message}", file=sys.stderr)
            yield item

    report = run_sweep(cfg, graphs=stream())
    return report, parse_errors


def cmd_sweep(args) -> int:
    """``sweep``, and ``trees``, whose subparser sets ``trees``."""
    try:
        selected = _parse_bounds(args.bounds)
        cfg = SweepConfig(
            n_min=args.n_min,
            n_max=args.n_max,
            connected_only=args.connected,
            dedup=args.dedup,
            bounds=selected,
            max_graphs=args.max_graphs,
            trees=args.trees,
        )
        if args.stdin_graph6:
            cfg.validate_stream()
        else:
            cfg.validate()
        if args.jobs is not None and args.jobs < 1:
            raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report_file = None
    if args.report:
        # opened before the sweep, which can run for minutes
        try:
            report_file = open(args.report, "w", encoding="ascii")
        except OSError as exc:
            print(f"error: cannot write report {args.report}: {exc}", file=sys.stderr)
            return EXIT_USAGE
    with report_file or contextlib.nullcontext():
        report, parse_errors = _sweep(cfg, args.stdin_graph6)
        if report_file:
            report.write_json(report_file, cfg._asdict())
    print(
        f"seen={report.graphs_seen} checked={report.graphs_checked} "
        f"violations={report.violation_count} "
        f"equality_discrepancies={report.discrepancy_count} "
        f"wall_time={report.wall_time:.2f}s",
        file=sys.stderr,
    )
    report.write_lines(sys.stdout)
    if report.violation_count:
        return EXIT_VIOLATION
    return EXIT_PARSE if parse_errors else EXIT_OK


def _add_input_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", default="-", help="input path or - for stdin (default: -)")
    p.add_argument("--format", choices=("graph6", "edgelist"), default="graph6",
                   help="input format (default: graph6, one graph per line)")
    p.add_argument("--json", action="store_true", help="emit one JSON object per record")


def _add_sweep_flags(p: argparse.ArgumentParser, tree_defaults: bool):
    p.add_argument("--n-min", type=int, default=4 if tree_defaults else 2)
    p.add_argument("--n-max", type=int, default=9 if tree_defaults else 6)
    p.add_argument("--connected", action=argparse.BooleanOptionalAction, default=True,
                   help="restrict to connected graphs (default: true)")
    p.add_argument("--bounds", default="all", help="'all' or comma list of bound ids")
    p.add_argument("--dedup", action="store_true",
                   help="check only the first graph of each isomorphism class in "
                        "enumeration order")
    p.add_argument("--max-graphs", type=int, default=None)
    p.add_argument("--jobs", type=int, default=None,
                   help="accepted for compatibility, at least 1; changes nothing, since "
                        "every sweep runs serially")
    p.add_argument("--report", default=None, help="write the JSON report to this path")
    p.add_argument("--stdin-graph6", action="store_true",
                   help="check graph6 lines from stdin instead of enumerating: every "
                        "graph whatever its order (--n-min/--n-max do not filter; not "
                        "with --dedup or tree mode)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isdd-lab",
        description="Exact index computation and brute-force bound verification "
                    "for degree-based graph invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compute", help="index values per input graph")
    _add_input_flags(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("check", help="evaluate bounds per input graph")
    _add_input_flags(p)
    p.add_argument("--bounds", default="all", help="'all' or comma list of bound ids")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("classify", help="extremal-family membership per input graph")
    _add_input_flags(p)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("sweep", help="exhaustive verification over small graphs")
    _add_sweep_flags(p, tree_defaults=False)
    p.add_argument("--trees", action="store_true", help="enumerate labeled trees instead")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("trees", help="exhaustive verification over labeled trees")
    _add_sweep_flags(p, tree_defaults=True)
    p.set_defaults(func=cmd_sweep, trees=True)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
