"""Workloads, their inputs and the checks every run's output must pass.

Each workload is one ``isdd-lab`` command line.  Its expected totals are
known independently of the program: OEIS A001187 and a breadth-first search
of our own for connected graphs, Cayley's n^(n-2) for labeled trees, the
number of isomorphism classes for ``--dedup``.  The discrepancy list is
pinned by a digest of its sorted (bound_id, graph6) pairs, recorded for the
default seed.

Sizes are set so that one CLI run takes about 5 s on 2 cores: a run of the
benchmark then holds several of them and reports their median.  The
enumerated sweeps are capped with ``--max-graphs``, which keeps the first
graphs in enumeration order (bitmask order for graphs, Pruefer rank order
for trees); a change of that order changes the capped inputs and needs the
expected values here to be recorded again.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

DEFAULT_SEED = 1
REPORT = "{report}"  # replaced by the run's report path

# Connected labeled graphs per n (OEIS A001187), n = 2..6.
CONNECTED_LABELED = {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}

GRAPHS_CAP = 300_000  # n = 2..6 complete (33,866 masks), then the first n = 7 masks
GRAPHS_N7_MASKS = GRAPHS_CAP - sum(1 << (n * (n - 1) // 2) for n in range(2, 7))
GRAPHS_N7_CONNECTED = 197_650  # connected_mask_count(7, GRAPHS_N7_MASKS)
TREES_CAP = 700_000  # n = 4..8 complete (280,388 trees), then the first n = 9 ranks
STREAM_GRAPHS = 20_000


@dataclass(frozen=True)
class Expect:
    seen: int
    checked: int
    digest: str | None  # None: not recorded for this input


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    args: tuple[str, ...]
    setup_args: tuple[str, ...]  # the same command with no work to do
    digest: str  # of the discrepancies; for a stream, those of DEFAULT_SEED's stream
    seen: int = 0  # 0: the stream generator supplies the totals
    checked: int = 0

    @property
    def stream(self) -> bool:
        return "--stdin-graph6" in self.args


def _capped(args: tuple[str, ...], cap: int) -> tuple[str, ...]:
    return args + ("--max-graphs", str(cap))


_GRAPHS = ("sweep", "--n-min", "2", "--n-max", "7", "--jobs", "2", "--report", REPORT)
_TREES = ("trees", "--n-min", "4", "--n-max", "9", "--bounds", "TREE_EDGE", "--jobs", "2")
_DEDUP = ("sweep", "--n-min", "2", "--n-max", "6", "--dedup")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graphs-n7",
            "mask decode, BFS and check_pair_stats dominate; the only workload whose "
            "large report crosses pool transfer, merge, sort and cli output",
            _capped(_GRAPHS, GRAPHS_CAP), _capped(_GRAPHS, 0),
            seen=GRAPHS_CAP,
            checked=sum(CONNECTED_LABELED.values()) + GRAPHS_N7_CONNECTED,
            digest="cb416c5fbdbf3984d02ccdd1a0c8e6ea04c47d2260b98f905ec3365dc4846a28",
        ),
        Workload(
            "trees-n9",
            "same check core behind Pruefer decoding, no BFS and no records: a "
            "report-path change should not move it",
            _capped(_TREES, TREES_CAP), _capped(_TREES, 0),
            seen=TREES_CAP, checked=TREES_CAP,
            digest=hashlib.sha256(b"").hexdigest(),
        ),
        Workload(
            "stream-g6",
            "seeded graph6 stream on 8..12 vertices: parsing, connectivity and the "
            "Fraction reference path work, enumeration does not; signatures rarely repeat",
            ("sweep", "--stdin-graph6"), ("sweep", "--stdin-graph6"),
            digest="14d31f5096d3782922ce62a5a346de7effc847866133885eb6a9af5b82c24825",
        ),
        Workload(
            "dedup-n6",
            "the only user of canonical_form and of Graph-object enumeration",
            _DEDUP, _capped(_DEDUP, 0),
            seen=sum(1 << (n * (n - 1) // 2) for n in range(2, 7)), checked=142,
            digest="9ab8aa9d03aa6d2d58b88e72a884ee97438f1637a248612af0cf6d81d560d974",
        ),
    )
}


def connected_mask_count(n: int, masks: int) -> int:
    """Connected graphs among edge bitmasks 0..masks-1 on n vertices.

    Bit k of a mask is the k-th vertex pair in graph6 column order:
    (0,1), (0,2), (1,2), (0,3), ...  Written apart from the program's kernel.
    """
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    return sum(_connected(n, [p for k, p in enumerate(pairs) if mask >> k & 1])
               for mask in range(masks))


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    todo = [0]
    while todo:
        for w in adj[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == n


def make_stream(seed: int, count: int = STREAM_GRAPHS) -> tuple[str, int, int]:
    """graph6 text of ``count`` random graphs, and its (seen, checked) totals.

    Orders 8..12, each graph with its own edge density in [0.2, 0.7], which
    leaves about one graph in six disconnected.  Orders up to 10 take the
    kernel path, 11 and 12 the Fraction reference path.
    """
    from isdd_lab.graphs import Graph, write_graph6

    rng = random.Random(seed)
    lines = []
    checked = 0
    for _ in range(count):
        n = rng.randint(8, 12)
        p = rng.uniform(0.2, 0.7)
        edges = tuple((i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < p)
        lines.append(write_graph6(Graph(n, edges)))
        checked += _connected(n, edges)
    return "\n".join(lines) + "\n", count, checked


def expectations(workload: Workload, seed: int, tmp: Path) -> tuple[Path | None, Expect]:
    """Write the workload's stdin file, if it has one, and return what to expect."""
    if not workload.stream:
        return None, Expect(workload.seen, workload.checked, workload.digest)
    text, seen, checked = make_stream(seed)
    path = tmp / "stream.g6"
    path.write_text(text, encoding="ascii")
    return path, Expect(seen, checked, workload.digest if seed == DEFAULT_SEED else None)


def digest(pairs) -> str:
    """sha256 of the sorted (bound_id, graph6) pairs, one "id g6" line each."""
    return hashlib.sha256("\n".join(sorted(f"{b} {g}" for b, g in pairs)).encode()).hexdigest()


_SUMMARY = re.compile(
    r"seen=(\d+) checked=(\d+) violations=(\d+) equality_discrepancies=(\d+)"
)


def check_outputs(expect: Expect, returncode: int, stdout: str, stderr: str,
                  report: str | None) -> tuple[list[str], str]:
    """Problems with one CLI run's outputs (empty when correct), and their digest."""
    problems = []
    if returncode != 0:
        problems.append(f"exit code {returncode}")
    summary = _SUMMARY.search(stderr)
    if summary is None:
        return problems + ["no summary line on stderr"], ""
    seen, checked, violations, records = map(int, summary.groups())
    if (seen, checked) != (expect.seen, expect.checked):
        problems.append(f"seen/checked {seen}/{checked}, expected "
                        f"{expect.seen}/{expect.checked}")
    pairs = []
    stdout_violations = 0
    for line in stdout.splitlines():
        if line.startswith("VIOLATION "):
            stdout_violations += 1
        elif line.startswith("equality_discrepancy "):
            fields = line.split(" ", 3) + ["", ""]  # a cut line gives empty fields
            pairs.append((fields[1], fields[2]))
    if violations or stdout_violations:
        problems.append(f"{max(violations, stdout_violations)} violations")
    if len(pairs) != records:
        problems.append(f"{len(pairs)} discrepancy lines, summary says {records}")
    got = digest(pairs)
    if expect.digest is not None and got != expect.digest:
        problems.append(f"discrepancy digest {got[:12]}, expected {expect.digest[:12]}")
    if report is not None:
        try:
            problems += _check_report(json.loads(report), seen, checked, got)
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"unreadable report: {exc!r}")
    return problems, got


def _check_report(data: dict, seen: int, checked: int, stdout_digest: str) -> list[str]:
    problems = []
    if (data["graphs_seen"], data["graphs_checked"]) != (seen, checked):
        problems.append("report counts differ from the summary line")
    if data["violations"]:
        problems.append(f"report lists {len(data['violations'])} violations")
    pairs = [(d["bound_id"], d["graph6"]) for d in data["equality_discrepancies"]]
    if digest(pairs) != stdout_digest:
        problems.append("report discrepancies differ from stdout")
    return problems
