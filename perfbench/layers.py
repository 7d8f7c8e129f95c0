"""The layer map: which isdd_lab calls are traced, and the metrics they give.

:class:`LayerTrace` runs inside the traced CLI process.  It replaces module
attributes that isdd_lab looks up at call time (``_kernel.check_pair_stats``,
``SweepReport.merge``, ``enumeration.canonical_form`` and so on) with
wrappers that record spans, so no source file of the program changes.  Pool
workers are forked from that process and inherit the wrappers; each chunk
carries its span totals back to the parent in an extra ``"_trace"`` key of
its partial report, which ``SweepReport.merge`` does not read.

:func:`layer_metrics` runs in the benchmark process (run.py) and turns one dump into
the per-layer metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import importlib
import os
from multiprocessing.reduction import ForkingPickler
from time import perf_counter

from tracer import Tracer, merge_totals, self_times, totals

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("kernel.scan_graph.self_s", "s"),
    ("kernel.scan_tree.self_s", "s"),
    ("kernel.prufer_edges.s", "s"),
    ("kernel.prufer_edges.calls", "count"),
    ("kernel.check_pair_stats.s", "s"),
    ("kernel.check_pair_stats.calls", "count"),
    ("kernel.check_pair_stats.share", "fraction"),
    ("kernel.check_pair_stats.distinct_keys", "count"),
    ("kernel.signature_reuse", "calls/key"),
    ("kernel.g6_render.calls", "count"),
    ("kernel.g6_render.s", "s"),
    ("kernel.g6_render.per_record", "renders/record"),
    ("kernel.lazy_gamma3.calls", "count"),
    ("kernel.check_graph_kernel.s", "s"),
    ("enumeration.chunks", "count"),
    ("enumeration.pool.busy_s", "s"),
    ("enumeration.pool.wait_s", "s"),
    ("enumeration.pool.efficiency", "fraction"),
    ("enumeration.pool.transfer_bytes", "bytes"),
    ("enumeration.merge.s", "s"),
    ("enumeration.finalize.s", "s"),
    ("enumeration.records", "count"),
    ("enumeration.canonical_form.s", "s"),
    ("enumeration.canonical_form.calls", "count"),
    ("enumeration.labeled_graphs.s", "s"),
    ("enumeration.dedup.unique_frac", "fraction"),
    ("enumeration.check_graph_reference.s", "s"),
    ("graphs.parse_graph6.s", "s"),
    ("graphs.is_connected.s", "s"),
    ("graphs.write_graph6.s", "s"),
    ("bounds.evaluate_all.s", "s"),
    ("classify.classify.s", "s"),
    ("indices.self_s", "s"),
    ("cli.emit_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("cli.stdout_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "fraction"),
)

# indices functions as other modules bound them at import time.  The names in
# the indices module itself stay unwrapped: isdd() calls edge_term_isdd once
# per edge, and a span per edge would cost more than the work it measures.
_INDICES_IN = {
    "bounds": ("edge_term_isdd", "geometric_arithmetic", "isdd", "zagreb1", "zagreb2",
               "forgotten"),
    "classify": ("_degrees",),
    "enumeration": ("fraction_str",),
    "_kernel": ("fraction_str",),
}


class LayerTrace:
    """Span recording for one traced CLI process and the workers it forks."""

    def __init__(self):
        self.tracer = Tracer()
        self.pid = os.getpid()
        self.keys: set = set()
        self.forms: set = set()
        self.records = 0
        self.transfer_bytes = 0
        self.worker_pids: set = set()
        self.worker_totals: dict = {}
        self.run_sweep_end: float | None = None

    def install(self):
        # by module path: the package re-exports a function named classify
        _kernel, bounds, classify, cli, enumeration, graphs = (
            importlib.import_module(f"isdd_lab.{name}") for name in
            ("_kernel", "bounds", "classify", "cli", "enumeration", "graphs")
        )
        wrap = self.tracer.wrap
        _kernel.scan_graph_masks = self._chunk("kernel.scan_graph", _kernel.scan_graph_masks)
        _kernel.scan_tree_ranks = self._chunk("kernel.scan_tree", _kernel.scan_tree_ranks)
        _kernel.mask_to_graph6 = wrap("kernel.g6_render", _kernel.mask_to_graph6)
        _kernel.prufer_edges = wrap("kernel.prufer_edges", _kernel.prufer_edges)
        _kernel._lazy_gamma3 = wrap("kernel.lazy_gamma3", _kernel._lazy_gamma3)
        _kernel.check_graph_kernel = wrap("kernel.check_graph_kernel",
                                          _kernel.check_graph_kernel)
        check = wrap("kernel.check_pair_stats", _kernel.check_pair_stats)

        def check_pair_stats(n, m, deg, pc, connected, *rest):
            self.keys.add((n, connected, tuple(sorted(pc.items()))))
            return check(n, m, deg, pc, connected, *rest)

        _kernel.check_pair_stats = check_pair_stats

        report_cls = enumeration.SweepReport
        merge = wrap("enumeration.merge", report_cls.merge)
        finalize = wrap("enumeration.finalize", report_cls.finalize)

        def merge_partial(report, partial):
            merge(report, partial)
            extra = partial.get("_trace")
            if extra is not None:
                merge_totals(self.worker_totals, extra["totals"])
                self.keys |= extra["keys"]
                self.transfer_bytes += extra["transfer_bytes"]
                self.worker_pids.add(extra["pid"])

        def finalize_report(report):
            finalize(report)
            self.records = len(report.violations) + len(report.equality_discrepancies)

        report_cls.merge = merge_partial
        report_cls.finalize = finalize_report
        canonical = wrap("enumeration.canonical_form", enumeration.canonical_form)

        def canonical_form(g):
            form = canonical(g)
            self.forms.add(form)
            return form

        enumeration.canonical_form = canonical_form
        enumeration.labeled_graphs = self.tracer.wrap_generator("enumeration.labeled_graphs",
                                                                enumeration.labeled_graphs)
        enumeration.check_graph_reference = wrap("enumeration.check_graph_reference",
                                                 enumeration.check_graph_reference)
        enumeration.evaluate_all = wrap("bounds.evaluate_all", enumeration.evaluate_all)
        enumeration.classify = wrap("classify.classify", enumeration.classify)

        # graphs functions reached through enumeration's globals, and through
        # the `from .graphs import ...` statements that run at call time
        for module in (enumeration, graphs):
            module.parse_graph6 = wrap("graphs.parse_graph6", module.parse_graph6)
            module.write_graph6 = wrap("graphs.write_graph6", module.write_graph6)
        graphs.is_connected = wrap("graphs.is_connected", graphs.is_connected)

        modules = {"bounds": bounds, "classify": classify, "enumeration": enumeration,
                   "_kernel": _kernel}
        for module_name, attrs in _INDICES_IN.items():
            module = modules[module_name]
            for attr in attrs:
                setattr(module, attr, wrap(f"indices.{attr}", getattr(module, attr)))

        sweep = wrap("enumeration.run_sweep", cli.run_sweep)

        def run_sweep(*args, **kwargs):
            report = sweep(*args, **kwargs)
            self.run_sweep_end = perf_counter()
            return report

        cli.run_sweep = run_sweep

    def run_main(self, main, argv) -> int:
        """``main(argv)`` under a cli.main span, with the output phase as cli.emit."""
        t = self.tracer
        idx = t.open("cli.main")
        try:
            return main(argv)
        finally:
            if self.run_sweep_end is not None:
                t.add("cli.emit", self.run_sweep_end, perf_counter())
            t.close(idx)

    def dump(self) -> dict:
        names = sorted(set(self.tracer.names))
        ids = {name: i for i, name in enumerate(names)}
        spans = self.tracer.dump()
        return {
            "span_names": names,
            "name_ids": [ids[n] for n in spans["names"]],
            "parents": spans["parents"],
            "starts": spans["starts"],
            "ends": spans["ends"],
            "worker_totals": self.worker_totals,
            "distinct_keys": len(self.keys),
            "distinct_forms": len(self.forms),
            "records": self.records,
            "transfer_bytes": self.transfer_bytes,
            "workers": len(self.worker_pids),
        }

    def _chunk(self, name, fn):
        """A chunk worker; in a pool worker, its span totals ride back in the partial."""
        t = self.tracer

        def traced(*args):
            start = t.mark()
            idx = t.open(name)
            try:
                partial = fn(*args)
            finally:
                t.close(idx)
            if os.getpid() != self.pid:
                partial["_trace"] = {
                    "pid": os.getpid(),
                    "totals": totals(*t.slice(start)),
                    "keys": self.keys,
                    "transfer_bytes": len(ForkingPickler.dumps(partial)),
                }
                t.truncate(start)
                self.keys = set()
            return partial

        return traced


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(dump: dict, wall_s: float, report_bytes: int, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced invocation, without trace.overhead_frac.

    ``wall_s`` is the traced process's wall time from spawn to exit as the
    benchmark measured it; what the spans of the CLI process do not cover is
    reported as trace.unattributed_s (interpreter start, exit and the dump).
    """
    names = [dump["span_names"][i] for i in dump["name_ids"]]
    combined = totals(names, dump["parents"], dump["starts"], dump["ends"])
    main_self = sum(s for _, _, s in combined.values())
    merge_totals(combined, dump["worker_totals"])

    def calls(name):
        return combined.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return combined.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return combined.get(name, (0, 0.0, 0.0))[2]

    busy = total("kernel.scan_graph") + total("kernel.scan_tree")
    chunks = calls("kernel.scan_graph") + calls("kernel.scan_tree")
    records = dump["records"]
    return {
        "kernel.scan_graph.self_s": own("kernel.scan_graph"),
        "kernel.scan_tree.self_s": own("kernel.scan_tree"),
        "kernel.prufer_edges.s": total("kernel.prufer_edges"),
        "kernel.prufer_edges.calls": calls("kernel.prufer_edges"),
        "kernel.check_pair_stats.s": total("kernel.check_pair_stats"),
        "kernel.check_pair_stats.calls": calls("kernel.check_pair_stats"),
        "kernel.check_pair_stats.share": _ratio(total("kernel.check_pair_stats"), busy),
        "kernel.check_pair_stats.distinct_keys": dump["distinct_keys"],
        "kernel.signature_reuse": _ratio(calls("kernel.check_pair_stats"),
                                         dump["distinct_keys"]),
        "kernel.g6_render.calls": calls("kernel.g6_render"),
        "kernel.g6_render.s": total("kernel.g6_render"),
        "kernel.g6_render.per_record": _ratio(calls("kernel.g6_render"), records),
        "kernel.lazy_gamma3.calls": calls("kernel.lazy_gamma3"),
        "kernel.check_graph_kernel.s": total("kernel.check_graph_kernel"),
        "enumeration.chunks": chunks,
        "enumeration.pool.busy_s": busy,
        "enumeration.pool.wait_s": own("enumeration.run_sweep") if dump["workers"] else 0.0,
        "enumeration.pool.efficiency": _ratio(
            busy, max(1, dump["workers"]) * total("enumeration.run_sweep")
        ) if chunks else 0.0,
        "enumeration.pool.transfer_bytes": dump["transfer_bytes"],
        "enumeration.merge.s": total("enumeration.merge"),
        "enumeration.finalize.s": total("enumeration.finalize"),
        "enumeration.records": records,
        "enumeration.canonical_form.s": total("enumeration.canonical_form"),
        "enumeration.canonical_form.calls": calls("enumeration.canonical_form"),
        "enumeration.labeled_graphs.s": total("enumeration.labeled_graphs"),
        "enumeration.dedup.unique_frac": _ratio(dump["distinct_forms"],
                                                calls("enumeration.canonical_form")),
        "enumeration.check_graph_reference.s": total("enumeration.check_graph_reference"),
        "graphs.parse_graph6.s": total("graphs.parse_graph6"),
        "graphs.is_connected.s": total("graphs.is_connected"),
        "graphs.write_graph6.s": total("graphs.write_graph6"),
        "bounds.evaluate_all.s": total("bounds.evaluate_all"),
        "classify.classify.s": total("classify.classify"),
        "indices.self_s": sum(own(n) for n in combined if n.startswith("indices.")),
        "cli.emit_s": total("cli.emit"),
        "cli.report_bytes": report_bytes,
        "cli.stdout_bytes": stdout_bytes,
        "trace.wall_s": wall_s,
        "trace.unattributed_s": wall_s - main_self,
    }


def main_process_breakdown(dump: dict, wall_s: float) -> dict[str, float]:
    """Self time of the CLI process per layer; the values sum to ``wall_s``."""
    names = [dump["span_names"][i] for i in dump["name_ids"]]
    out: dict[str, float] = {}
    for name, own in zip(names, self_times(dump["parents"], dump["starts"], dump["ends"])):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    out["unattributed"] = wall_s - sum(out.values())
    return out
