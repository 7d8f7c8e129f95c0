"""Tests of the benchmark itself: inputs, output checks and span arithmetic.

Run from the root of a checkout: python3 -m pytest -q perfbench/tests
"""

import itertools
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from layers import layer_metrics, main_process_breakdown  # noqa: E402
from tracer import Tracer, self_times, totals  # noqa: E402
from workloads import Expect, check_outputs, digest, make_stream  # noqa: E402


def test_stream_is_deterministic_per_seed():
    assert make_stream(7, 300) == make_stream(7, 300)
    assert make_stream(7, 300)[0] != make_stream(8, 300)[0]


def test_stream_totals_match_the_library():
    from isdd_lab.graphs import is_connected, parse_graph6

    text, seen, checked = make_stream(3, 400)
    graphs = [parse_graph6(line) for line in text.splitlines()]
    assert seen == len(graphs) == 400
    assert checked == sum(is_connected(g) for g in graphs)
    assert {g.n for g in graphs} == set(range(8, 13))
    assert 0 < seen - checked < seen // 3


def test_enumerated_totals_from_independent_counts():
    for n, count in workloads.CONNECTED_LABELED.items():
        assert workloads.connected_mask_count(n, 1 << (n * (n - 1) // 2)) == count
    assert workloads.connected_mask_count(7, workloads.GRAPHS_N7_MASKS) == \
        workloads.GRAPHS_N7_CONNECTED


def _connected_classes(n: int) -> int:
    """Isomorphism classes of connected graphs on n vertices, by trying every relabeling."""
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    slot = {p: k for k, p in enumerate(pairs)}
    half = len(pairs) // 2
    tables = []  # per permutation: images of the low and of the high mask bits
    for perm in itertools.permutations(range(n)):
        image = [1 << slot[tuple(sorted((perm[i], perm[j])))] for i, j in pairs]
        low = [0] * (1 << half)
        high = [0] * (1 << (len(pairs) - half))
        for table, offset in ((low, 0), (high, half)):
            for m in range(1, len(table)):
                bit = m & -m
                table[m] = table[m ^ bit] | image[offset + bit.bit_length() - 1]
        tables.append((low, high))
    forms = set()
    for mask in range(1 << len(pairs)):
        edges = [p for k, p in enumerate(pairs) if mask >> k & 1]
        if workloads._connected(n, edges):
            lo, hi = mask & ((1 << half) - 1), mask >> half
            forms.add(min(t_low[lo] | t_high[hi] for t_low, t_high in tables))
    return len(forms)


def test_dedup_class_total_from_brute_force_relabeling():
    assert sum(_connected_classes(n) for n in range(2, 7)) == \
        workloads.WORKLOADS["dedup-n6"].checked == 142


def _outputs(pairs, seen=10, checked=8):
    stdout = "".join(
        f"equality_discrepancy {b} {g} equality=True expected_one_of=regular actual=none\n"
        for b, g in pairs
    )
    stderr = (f"seen={seen} checked={checked} violations=0 "
              f"equality_discrepancies={len(pairs)} wall_time=0.01s\n")
    report = {
        "config": {},
        "graphs_seen": seen,
        "graphs_checked": checked,
        "violations": [],
        "equality_discrepancies": [
            {"graph6": g, "bound_id": b, "expected_classes": ["regular"],
             "actual_classification": [], "equality": True}
            for b, g in pairs
        ],
        "wall_time": 0.01,
    }
    return stdout, stderr, report


PAIRS = [("LOWER_ELL", "Ch"), ("EDGE_SECOND_MIN", "Ch"), ("LOWER_ELL", "DQc")]


def test_checker_accepts_consistent_outputs():
    stdout, stderr, report = _outputs(PAIRS)
    problems, got = check_outputs(Expect(10, 8, digest(PAIRS)), 0, stdout, stderr,
                                  json.dumps(report))
    assert problems == []
    assert got == digest(reversed(PAIRS))


@pytest.mark.parametrize("tamper", [
    lambda r: r["equality_discrepancies"].pop(),
    lambda r: r["equality_discrepancies"][0].update(graph6="Cr"),
    lambda r: r["violations"].append({"graph6": "Ch", "bound_id": "M1_F", "lhs": "1",
                                      "rhs": "2"}),
    lambda r: r.update(graphs_checked=7),
    lambda r: r.pop("equality_discrepancies"),
])
def test_checker_rejects_a_tampered_report(tamper):
    stdout, stderr, report = _outputs(PAIRS)
    tamper(report)
    problems, _ = check_outputs(Expect(10, 8, digest(PAIRS)), 0, stdout, stderr,
                                json.dumps(report))
    assert problems
    assert check_outputs(Expect(10, 8, None), 0, stdout, stderr, "{truncated")[0]


def test_checker_rejects_wrong_totals_digest_and_exit_code():
    stdout, stderr, _ = _outputs(PAIRS)
    assert check_outputs(Expect(10, 9, None), 0, stdout, stderr, None)[0]
    assert check_outputs(Expect(10, 8, digest(PAIRS[:2])), 0, stdout, stderr, None)[0]
    assert check_outputs(Expect(10, 8, None), 3, stdout, stderr, None)[0]
    assert check_outputs(Expect(10, 8, None), 0, "VIOLATION M1_F Ch lhs=1 rhs=2\n" + stdout,
                         stderr, None)[0]
    assert check_outputs(Expect(10, 8, None), 0, stdout, "", None)[0]
    cut = stdout.replace(" Ch equality", "", 1)
    assert check_outputs(Expect(10, 8, digest(PAIRS)), 0, cut, stderr, None)[0]


def test_self_time_of_a_synthetic_span_tree():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [9, 12]
    # (running past the root's end); [1, 3] has a child [1.5, 2.5].
    parents = [-1, 0, 0, 0, 1]
    starts = [0.0, 1.0, 2.0, 9.0, 1.5]
    ends = [10.0, 3.0, 5.0, 12.0, 2.5]
    assert self_times(parents, starts, ends) == pytest.approx([5.0, 1.0, 3.0, 3.0, 1.0])


def test_totals_count_recursion_once_in_the_total():
    names = ["a", "b", "b", "b"]
    parents = [-1, 0, 1, 0]
    starts = [0.0, 1.0, 2.0, 6.0]
    ends = [10.0, 5.0, 3.0, 7.0]
    out = totals(names, parents, starts, ends)
    assert out["a"] == pytest.approx([1, 10.0, 5.0])
    assert out["b"] == pytest.approx([3, 5.0, 5.0])


def test_tracer_records_parents_and_generator_steps():
    t = Tracer()

    def gen():
        yield 1
        yield 2

    outer = t.wrap("outer", lambda: list(t.wrap_generator("gen", gen)()))
    assert outer() == [1, 2]
    assert t.names == ["outer", "gen", "gen", "gen"]
    assert t.parents == [-1, 0, 0, 0]
    assert all(e >= s for s, e in zip(t.starts, t.ends))
    names, parents, _, _ = t.slice(1)
    assert (names, parents) == (["gen"] * 3, [-1] * 3)


def _dump():
    names = ["cli.import", "cli.main", "enumeration.run_sweep", "enumeration.merge",
             "cli.emit"]
    return {
        "span_names": sorted(names),
        "name_ids": [sorted(names).index(n) for n in names],
        "parents": [-1, -1, 1, 2, 1],
        "starts": [0.0, 1.0, 1.5, 2.0, 6.0],
        "ends": [1.0, 7.0, 6.0, 2.5, 7.0],
        "worker_totals": {"kernel.scan_graph": [4, 8.0, 3.0],
                          "kernel.check_pair_stats": [100, 5.0, 5.0]},
        "distinct_keys": 20,
        "distinct_forms": 0,
        "records": 50,
        "transfer_bytes": 1234,
        "workers": 2,
    }


def test_layer_metrics_add_up_to_the_traced_wall():
    m = layer_metrics(_dump(), 7.5, 10, 20)
    assert m["trace.unattributed_s"] == pytest.approx(0.5)
    assert m["enumeration.pool.wait_s"] == pytest.approx(4.0)
    assert m["enumeration.pool.efficiency"] == pytest.approx(8.0 / (2 * 4.5))
    assert m["kernel.check_pair_stats.share"] == pytest.approx(5.0 / 8.0)
    assert m["kernel.signature_reuse"] == pytest.approx(5.0)
    assert m["cli.emit_s"] == pytest.approx(1.0)
    parts = main_process_breakdown(_dump(), 7.5)
    assert sum(parts.values()) == pytest.approx(7.5)
    assert parts["unattributed"] == pytest.approx(0.5)
