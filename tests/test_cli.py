import io
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import isdd_lab
from isdd_lab.bounds import ALL_BOUND_IDS
from isdd_lab.cli import main
from isdd_lab.enumeration import SweepConfig, run_sweep, stream_graph6
from isdd_lab.graphs import write_graph6
from helpers import (
    complete_bipartite,
    cycle_graph,
    h2_graph,
    h3_graph,
    enumerated,
    oracle_checked_report,
    oracle_record_lines,
    oracle_report_text,
    path_graph,
)


def run_cli(argv, stdin_text="", monkeypatch=None, capsys=None):
    if monkeypatch is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


class TestCompute:
    def test_p4_json(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["compute", "--json"], "Ch\n", monkeypatch, capsys
        )
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["input_id"] == "Ch"
        assert rec["index_vector"]["isdd"] == "13/10"
        assert rec["index_vector"]["sdd"] == "7"
        assert rec["index_vector"]["m1"] == 10

    def test_c5_json(self, monkeypatch, capsys):
        g6 = write_graph6(cycle_graph(5))
        code, out, _ = run_cli(["compute", "--json"], g6 + "\n", monkeypatch, capsys)
        rec = json.loads(out.strip())
        assert rec["index_vector"]["isdd"] == "5/2"
        assert rec["index_vector"]["ga"] == "5.000000000"

    def test_bad_line_exits_2(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["compute", "--json"], "C~\nC\x1e\n", monkeypatch, capsys
        )
        assert code == 2
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "error" in json.loads(lines[1])
        assert "parse error" in err

    def test_unreadable_file_exits_1(self, capsys):
        code = main(["compute", "--input", "/nonexistent/file.g6"])
        _, err = capsys.readouterr()
        assert code == 1
        assert "cannot read" in err

    def test_non_ascii_file_line_is_a_parse_error(self, tmp_path, capsys):
        # the same bytes on stdin give the same verdict: exit 2, not a traceback
        p = tmp_path / "bad.g6"
        p.write_bytes(b"C~\n\xc3\xa9\n")
        for command in ("compute", "check", "classify"):
            code = main([command, "--input", str(p)])
            out, err = capsys.readouterr()
            assert code == 2, command
            assert f"parse error at {p}:2: " in err, command
            assert out.startswith("C~"), command  # the good line is still reported

    def test_edgelist_input(self, tmp_path, capsys):
        p = tmp_path / "p4.txt"
        p.write_text("4 3\n0 1\n1 2\n2 3\n")
        code = main(["compute", "--input", str(p), "--format", "edgelist", "--json"])
        out, _ = capsys.readouterr()
        assert code == 0
        assert json.loads(out)["index_vector"]["isdd"] == "13/10"

    def test_edgelist_non_ascii_digit_exits_2(self, monkeypatch, capsys):
        # printf '3 2\n\xd9\xa0 1\n1 2\n' | isdd-lab compute --format edgelist
        stdin = io.TextIOWrapper(io.BytesIO(b"3 2\n\xd9\xa0 1\n1 2\n"), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["compute", "--format", "edgelist"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("parse error at -: edge line must be two integers")
        assert err.rstrip().endswith("(line 2)")

    @pytest.mark.parametrize("raw, line_no", [
        (b"3\xc2\xa02\n0 1\n1 2\n", 1),  # no-break space inside the header
        (b"3 2\n0 1\x1c1 2\n", 2),  # \x1c is no line end
    ])
    def test_edgelist_separators_exit_2(self, monkeypatch, capsys, raw, line_no):
        # printf '3\xc2\xa02\n0 1\n1 2\n' | isdd-lab compute --format edgelist
        stdin = io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8")
        monkeypatch.setattr("sys.stdin", stdin)
        code = main(["compute", "--format", "edgelist"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("parse error at -: ") and "Traceback" not in err
        assert err.rstrip().endswith(f"(line {line_no})")

    def test_ga_decimal_round_trips(self, monkeypatch, capsys):
        g6 = write_graph6(complete_bipartite(2, 3))
        _, out, _ = run_cli(["compute", "--json"], g6 + "\n", monkeypatch, capsys)
        rec = json.loads(out)
        iv = rec["index_vector"]
        num, den = iv["isdd"].split("/")
        assert int(num) == 36 and int(den) == 13
        float(iv["ga"])  # parseable decimal


class TestCheck:
    def test_c5_all_hold(self, monkeypatch, capsys):
        g6 = write_graph6(cycle_graph(5))
        code, out, _ = run_cli(
            ["check", "--json"], g6 + "\n", monkeypatch, capsys
        )
        assert code == 0
        rec = json.loads(out)
        reports = [b for b in rec["bounds"] if not b.get("skipped")]
        assert all(b["holds"] for b in reports)
        eq = {b["bound_id"] for b in reports if b["equality"]}
        assert {"LOWER_ELL", "UPPER_K", "UPPER_NDELTA", "M1_F", "GA_M2"} <= eq

    def test_p4_equalities(self, monkeypatch, capsys):
        code, out, _ = run_cli(["check", "--json"], "Ch\n", monkeypatch, capsys)
        assert code == 0
        rec = json.loads(out)
        by_id = {b["bound_id"]: b for b in rec["bounds"]}
        assert by_id["LOWER_ELL"]["equality"] is True
        assert by_id["UPPER_K"]["equality"] is True
        assert by_id["LOWER_ELL"]["lhs"] == "13/10"

    def test_bounds_subset(self, monkeypatch, capsys):
        code, out, _ = run_cli(
            ["check", "--json", "--bounds", "LOWER_ELL,M1_F"], "Ch\n", monkeypatch, capsys
        )
        rec = json.loads(out)
        assert [b["bound_id"] for b in rec["bounds"]] == ["LOWER_ELL", "M1_F"]

    def test_unknown_bound_exits_1(self, monkeypatch, capsys):
        code, _, err = run_cli(
            ["check", "--bounds", "NOPE"], "Ch\n", monkeypatch, capsys
        )
        assert code == 1
        assert "unknown bound ids" in err

    @pytest.mark.parametrize("bounds", ["", ",", " , "])
    def test_empty_bounds_exit_1(self, monkeypatch, capsys, bounds):
        code, out, err = run_cli(["check", "--bounds", bounds], "Ch\n", monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: no bound ids given")

    def test_violation_exits_3(self, monkeypatch, capsys):
        # no real graph violates a bound, so force one to cover the exit path
        import isdd_lab.cli as cli_mod
        from isdd_lab.bounds import BoundId, BoundReport
        from fractions import Fraction

        def fake_evaluate_all(g):
            return [BoundReport(BoundId.LOWER_ELL, Fraction(0), Fraction(1),
                                False, False, "exact", {})]

        monkeypatch.setattr(cli_mod, "evaluate_all", fake_evaluate_all)
        code, out, _ = run_cli(["check", "--json"], "Ch\n", monkeypatch, capsys)
        assert code == 3
        rec = json.loads(out)
        assert rec["bounds"][0]["holds"] is False


    def test_plain_text_lines(self, monkeypatch, capsys):
        # P4, K3 with an isolated vertex and the diamond: exact sides as p/q
        # (plain p for an integer), GA sides as repr of the float, skipped
        # bounds with their reasons
        code, out, err = run_cli(["check"], "Ch\nCw\nC}\n", monkeypatch, capsys)
        assert (code, err) == (0, "")
        assert out == (
            "Ch:\n"
            "  EDGE_MIN: HOLDS equality lhs=2/5 rhs=2/5\n"
            "  EDGE_SECOND_MIN: HOLDS equality lhs=1/2 rhs=1/2\n"
            "  TREE_EDGE: HOLDS equality lhs=2/5 rhs=2/5\n"
            "  LOWER_ELL: HOLDS equality lhs=13/10 rhs=13/10\n"
            "  UPPER_K: HOLDS equality lhs=13/10 rhs=13/10\n"
            "  UPPER_NDELTA: HOLDS lhs=13/10 rhs=17/10\n"
            "  GA_SIMPLE: HOLDS lhs=1.3 rhs=0.6938993101569843\n"
            "  GA_M2: HOLDS lhs=1.3 rhs=1.0408489652354764\n"
            "  M1_F: HOLDS lhs=13/10 rhs=23/18\n"
            "  CLAIM1: HOLDS equality lhs=1/2 rhs=1/2\n"
            "  REMARK_ORDER: HOLDS lhs=1.0408489652354764 rhs=0.6938993101569843\n"
            "Cw:\n"
            "  EDGE_MIN: skipped (isolated vertex (min degree 0))\n"
            "  EDGE_SECOND_MIN: skipped (isolated vertex (min degree 0))\n"
            "  TREE_EDGE: skipped (not a tree of order >= 4)\n"
            "  LOWER_ELL: skipped (isolated vertex (min degree 0))\n"
            "  UPPER_K: HOLDS equality lhs=3/2 rhs=3/2\n"
            "  UPPER_NDELTA: HOLDS lhs=3/2 rhs=19/10\n"
            "  GA_SIMPLE: HOLDS lhs=1.5 rhs=0.75\n"
            "  GA_M2: HOLDS equality lhs=1.5 rhs=1.5\n"
            "  M1_F: HOLDS equality lhs=3/2 rhs=3/2\n"
            "  CLAIM1: skipped (isolated vertex (min degree 0))\n"
            "  REMARK_ORDER: HOLDS lhs=1.5 rhs=0.75\n"
            "C}:\n"
            "  EDGE_MIN: HOLDS equality lhs=6/13 rhs=6/13\n"
            "  EDGE_SECOND_MIN: HOLDS equality lhs=1/2 rhs=1/2\n"
            "  TREE_EDGE: skipped (not a tree of order >= 4)\n"
            "  LOWER_ELL: HOLDS equality lhs=61/26 rhs=61/26\n"
            "  UPPER_K: HOLDS equality lhs=61/26 rhs=61/26\n"
            "  UPPER_NDELTA: HOLDS lhs=61/26 rhs=73/26\n"
            "  GA_SIMPLE: HOLDS lhs=2.3461538461538463 rhs=1.2099183588453084\n"
            "  GA_M2: HOLDS lhs=2.3461538461538463 rhs=1.9103974087031188\n"
            "  M1_F: HOLDS lhs=61/26 rhs=163/70\n"
            "  CLAIM1: HOLDS equality lhs=1/2 rhs=1/2\n"
            "  REMARK_ORDER: HOLDS lhs=1.9103974087031188 rhs=1.2099183588453084\n"
        )

    def test_plain_text_violated_lines(self, monkeypatch, capsys):
        # no real graph violates a bound: a forged exact and a forged
        # approximate report pin the VIOLATED lines and the exit code
        import isdd_lab.cli as cli_mod
        from isdd_lab.bounds import BoundId, BoundReport
        from fractions import Fraction

        def fake_evaluate_all(g):
            return [BoundReport(BoundId.LOWER_ELL, Fraction(7, 3), Fraction(5), False, True,
                                "exact", {}),
                    BoundReport(BoundId.GA_M2, 0.1, 2.0, False, False, "approximate", {})]

        monkeypatch.setattr(cli_mod, "evaluate_all", fake_evaluate_all)
        code, out, _ = run_cli(["check"], "Ch\n", monkeypatch, capsys)
        assert code == 3
        assert out == ("Ch:\n"
                       "  LOWER_ELL: VIOLATED equality lhs=7/3 rhs=5\n"
                       "  GA_M2: VIOLATED lhs=0.1 rhs=2.0\n")

    def test_edgeless_graph_is_skipped_with_exit_0(self, monkeypatch, capsys):
        # nothing to check, as a sweep counts it seen but not checked; not a parse error
        code, out, err = run_cli(["check"], "A?\n", monkeypatch, capsys)
        assert (code, out) == (0, "")
        assert err == "skipping A?: no edges, nothing to check\n"
        code, out, err = run_cli(["check", "--format", "edgelist"], "3 0\n", monkeypatch,
                                 capsys)
        assert (code, out) == (0, "")
        assert err == "skipping -: no edges, nothing to check\n"

    def test_edgeless_graph_json(self, monkeypatch, capsys):
        code, out, err = run_cli(["check", "--json"], "A?\nCh\n", monkeypatch, capsys)
        assert code == 0
        first, second = map(json.loads, out.splitlines())
        assert first == {"input_id": "A?", "bounds": []}
        assert second["input_id"] == "Ch" and second["bounds"]
        assert "skipping A?" in err

    def test_edgeless_graph_keeps_other_exit_codes(self, monkeypatch, capsys):
        code, _, _ = run_cli(["check"], "A?\nC~~\n", monkeypatch, capsys)
        assert code == 2


class TestClassify:
    def test_k23(self, monkeypatch, capsys):
        g6 = write_graph6(complete_bipartite(2, 3))
        code, out, _ = run_cli(["classify", "--json"], g6 + "\n", monkeypatch, capsys)
        assert code == 0
        rec = json.loads(out)
        assert rec["classes"]["semiregular_bipartite"] is True
        assert rec["classes"]["semiregular_pair"] == [3, 2]
        assert rec["classes"]["edge_ratio"] == "5/13"

    def test_c6_regular(self, monkeypatch, capsys):
        g6 = write_graph6(cycle_graph(6))
        code, out, _ = run_cli(["classify", "--json"], g6 + "\n", monkeypatch, capsys)
        rec = json.loads(out)
        assert rec["classes"]["regular"] is True and rec["classes"]["regular_degree"] == 2

    def test_p4_no_ratio(self, monkeypatch, capsys):
        code, out, _ = run_cli(["classify", "--json"], "Ch\n", monkeypatch, capsys)
        rec = json.loads(out)
        assert rec["classes"]["constant_edge_ratio"] is False
        assert rec["classes"]["edge_ratio"] is None
        assert rec["classes"]["regular"] is False
        assert rec["classes"]["semiregular_bipartite"] is False
        assert rec["classes"]["gamma1"] is False

    def test_large_sparse_edge_list(self, monkeypatch, capsys):
        # 10^5 vertices and one edge: every class test takes memory linear in
        # n (about 60 MB traced), where n^2/2 bits would be 625 MB
        tracemalloc.start()
        try:
            code, out, _ = run_cli(["classify", "--format", "edgelist", "--json"],
                                   "100000 1\n0 1\n", monkeypatch, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        rec = json.loads(out)
        assert rec["classes"]["gamma1"] is False
        assert rec["classes"]["regular"] is False
        assert peak < 200 * 2**20


class TestSweep:
    @pytest.mark.parametrize("argv", [
        ["sweep", "--n-min", "2", "--n-max", "4"],
        ["trees", "--n-min", "4", "--n-max", "5"],
        ["sweep", "--stdin-graph6"],
    ])
    def test_empty_bounds_exit_1(self, monkeypatch, capsys, tmp_path, argv):
        report_path = tmp_path / "report.json"
        code, out, err = run_cli(argv + ["--bounds", "", "--jobs", "1",
                                         "--report", str(report_path)],
                                 "Ch\n", monkeypatch, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("error: no bound ids given")
        assert not report_path.exists()

    def test_small_sweep_report(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code = main([
            "sweep", "--n-min", "2", "--n-max", "4",
            "--jobs", "1", "--report", str(report_path),
        ])
        out, err = capsys.readouterr()
        assert code == 0
        payload = json.loads(report_path.read_text())
        assert payload["graphs_seen"] == 2 + 8 + 64
        assert payload["graphs_checked"] == 1 + 4 + 38
        assert payload["violations"] == []
        assert payload["config"]["bounds"] == list(
            __import__("isdd_lab.bounds", fromlist=["ALL_BOUND_IDS"]).ALL_BOUND_IDS
        )
        assert "equality_discrepancy LOWER_ELL" in out

    def test_report_deterministic_modulo_timing(self, tmp_path, capsys):
        paths = []
        for name in ("a.json", "b.json"):
            p = tmp_path / name
            main(["sweep", "--n-max", "4", "--jobs", "1", "--report", str(p)])
            capsys.readouterr()
            paths.append(p)
        payloads = [json.loads(p.read_text()) for p in paths]
        for payload in payloads:
            payload.pop("wall_time")
        assert payloads[0] == payloads[1]

    def test_jobs_do_not_change_content(self, tmp_path, capsys):
        payloads = []
        for jobs, name in (("1", "j1.json"), ("8", "j8.json")):
            p = tmp_path / name
            main(["sweep", "--n-max", "4", "--jobs", jobs, "--report", str(p)])
            capsys.readouterr()
            payload = json.loads(p.read_text())
            payload.pop("wall_time")
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_unwritable_report_exits_1_before_sweeping(self, tmp_path, monkeypatch, capsys):
        from isdd_lab import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept although the report cannot be written")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        report = tmp_path / "missing-dir" / "report.json"
        code = main(["sweep", "--n-max", "4", "--jobs", "1", "--report", str(report)])
        out, err = capsys.readouterr()
        assert code == 1
        assert err.startswith(f"error: cannot write report {report}: ")
        assert out == ""

    def test_invalid_config_exits_1(self, capsys):
        code = main(["sweep", "--n-max", "9", "--jobs", "1"])
        _, err = capsys.readouterr()
        assert code == 1 and "error" in err

    def test_stdin_graph6(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--jobs", "1"],
            "C~\nCh\n", monkeypatch, capsys,
        )
        assert code == 0
        assert "seen=2 checked=2" in err

    def test_stdin_parse_error_exits_2(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--jobs", "1"],
            "Ch\nzzz!\nDQc\n", monkeypatch, capsys,
        )
        assert code == 2
        errors = [line for line in err.splitlines() if line.startswith("parse error")]
        assert len(errors) == 1 and errors[0].startswith("parse error at stdin:2: ")
        assert "seen=3 checked=2" in err
        assert "DQc" in out  # the lines after the bad one are still checked

    def test_stdin_violation_outranks_parse_error(self, monkeypatch, capsys):
        from isdd_lab import _kernel

        def fake_kernel(g, connected, sel):
            return (("LOWER_ELL", "0", "1"),), ()

        monkeypatch.setattr(_kernel, "check_graph_kernel", fake_kernel)
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--jobs", "1"], "Ch\nzzz!\n", monkeypatch, capsys,
        )
        assert code == 3
        assert "parse error at stdin:2: " in err
        assert "VIOLATION LOWER_ELL Ch" in out

    def test_stdin_n_range_exits_1(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--n-min", "5", "--n-max", "3"],
            "Ch\n", monkeypatch, capsys,
        )
        assert code == 1
        assert "n_min 5 exceeds n_max 3" in err
        assert out == ""

    def test_stdin_rejects_dedup(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--dedup"], "Ch\n", monkeypatch, capsys,
        )
        assert code == 1
        assert err.startswith("error: ") and "--dedup" in err
        assert out == ""

    def test_stdin_rejects_tree_mode(self, monkeypatch, capsys):
        for argv in (["sweep", "--stdin-graph6", "--trees"], ["trees", "--stdin-graph6"]):
            code, out, err = run_cli(argv, "Ch\n", monkeypatch, capsys)
            assert code == 1, argv
            assert err.startswith("error: ") and "tree mode" in err
            assert out == ""

    def test_stdin_negative_max_graphs_exits_1(self, monkeypatch, capsys):
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--max-graphs", "-3"], "Ch\n", monkeypatch, capsys,
        )
        assert code == 1
        assert "error: max_graphs must be non-negative" in err
        assert out == ""

    @pytest.mark.parametrize("cut, stdin_text, seen", [
        ("1", "Ch\nbad!\n", 1),  # the bad line is past the cut
        ("0", "bad!\nCh\n", 0),
    ], ids=["cut-1", "cut-0"])
    def test_stdin_max_graphs_reads_no_line_past_the_cut(self, monkeypatch, capsys, cut,
                                                          stdin_text, seen):
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--max-graphs", cut], stdin_text, monkeypatch, capsys,
        )
        assert code == 0
        assert "parse error" not in err
        assert f"seen={seen} checked={seen} violations=0 " in err

    def test_stdin_any_order_matches_reference(self, tmp_path, monkeypatch, capsys):
        # orders 4, 9, 14 and 30, outside the default --n-min/--n-max range
        lines = ["Ch", write_graph6(path_graph(9)), write_graph6(h2_graph()),
                 write_graph6(h3_graph())]
        p = tmp_path / "stdin.json"
        code, out, err = run_cli(
            ["sweep", "--stdin-graph6", "--report", str(p)],
            "\n".join(lines) + "\n", monkeypatch, capsys,
        )
        assert code == 0
        payload = json.loads(p.read_text())
        expected = run_sweep(
            SweepConfig(n_min=2, n_max=6), graphs=stream_graph6(lines), engine="reference",
        ).to_dict(include_timing=False)
        assert {key: payload[key] for key in expected} == expected
        assert expected["graphs_checked"] == 4
        flagged = {d["graph6"] for d in expected["equality_discrepancies"]}
        assert write_graph6(h2_graph()) in flagged  # records above 10 vertices

    def test_trees_subcommand(self, tmp_path, capsys):
        p = tmp_path / "trees.json"
        code = main([
            "trees", "--n-min", "4", "--n-max", "5",
            "--bounds", "TREE_EDGE", "--jobs", "1", "--report", str(p),
        ])
        capsys.readouterr()
        assert code == 0
        payload = json.loads(p.read_text())
        assert payload["graphs_seen"] == 141
        assert payload["violations"] == []
        assert payload["config"]["trees"] is True

    @pytest.mark.parametrize("argv", [
        ["sweep", "--n-max", "4", "--jobs", "-5"],
        ["sweep", "--n-max", "4", "--jobs", "0"],
        ["trees", "--n-max", "5", "--jobs", "0"],
        ["sweep", "--stdin-graph6", "--jobs", "0"],
    ])
    def test_jobs_below_one_exits_1(self, argv, monkeypatch, capsys):
        from isdd_lab import cli

        def no_sweep(*args, **kwargs):
            raise AssertionError("swept with an invalid --jobs")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        code, out, err = run_cli(argv, "Ch\n", monkeypatch, capsys)
        assert code == 1
        assert err == f"error: --jobs must be at least 1, got {argv[-1]}\n"
        assert out == ""


class TestUsageErrors:
    """argparse exits 2 on a usage error by default; here 2 means bad graph data."""

    @pytest.mark.parametrize("argv", [
        ["sweep", "--bogus"],
        ["sweep", "--n-min", "x"],
        ["compute", "--format", "xml"],
        [],
    ])
    def test_usage_error_exits_1(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, err = capsys.readouterr()
        assert exc.value.code == 1
        assert out == "" and err.startswith("usage: isdd-lab") and "error: " in err

    @pytest.mark.parametrize("argv", [["--help"], ["sweep", "--help"]])
    def test_help_exits_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        out, _ = capsys.readouterr()
        assert exc.value.code == 0 and out.startswith("usage: isdd-lab")


def _stdin_bytes(monkeypatch, data: bytes):
    """stdin as the interpreter opens it on POSIX in a UTF-8 locale: undecodable
    bytes escaped, lines split at "\n" only."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"))


# A graph6 line ends at "\n" with one "\r" before it dropped, and only spaces
# and tabs are trimmed: each input here is one bad line, in every reader.
_BAD_LINES = [
    (b"Ch\x1cCh\n", "'\\x1c'", 2),
    (b"Ch\rCh\n", "'\\r'", 2),
    (b"\xc2\xa0Ch\n", "'\\xa0'", 0),
    (b"Ch\x0bCh\n", "'\\x0b'", 2),
]
_GOOD_LINES = [b"Ch\r\n", b" \tCh\t \n", b"\n \t\r\nCh"]


class TestGraph6LineRule:
    @pytest.mark.parametrize("command", ["compute", "check", "classify"])
    @pytest.mark.parametrize("data, char, offset", _BAD_LINES)
    def test_per_graph_commands(self, monkeypatch, capsys, command, data, char, offset):
        _stdin_bytes(monkeypatch, data)
        code = main([command])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err == (f"parse error at -:1: character {char} outside printable range "
                       f"63..126 (byte offset {offset})\n")

    @pytest.mark.parametrize("data, char, offset", _BAD_LINES)
    def test_input_file(self, tmp_path, capsys, data, char, offset):
        p = tmp_path / "in.g6"
        p.write_bytes(data.replace(b"\xc2\xa0", b"\xa0"))  # the file reader is ASCII
        code = main(["compute", "--input", str(p)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        escaped = "'\\udca0'" if b"\xc2\xa0" in data else char
        assert err.startswith(f"parse error at {p}:1: character {escaped} ")

    @pytest.mark.parametrize("data, char, offset", _BAD_LINES)
    def test_stdin_sweep(self, monkeypatch, capsys, data, char, offset):
        _stdin_bytes(monkeypatch, data)
        code = main(["sweep", "--stdin-graph6"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"parse error at stdin:1: character {char} outside printable "
                              f"range 63..126 (byte offset {offset})\n")
        assert "seen=1 checked=0 " in err

    @pytest.mark.parametrize("data", _GOOD_LINES)
    def test_accepted_in_both_modes(self, monkeypatch, capsys, data):
        _stdin_bytes(monkeypatch, data)
        assert main(["compute"]) == 0
        out, err = capsys.readouterr()
        assert out.startswith("Ch: n=4 m=3 ") and out.count("\n") == 1 and err == ""
        _stdin_bytes(monkeypatch, data)
        assert main(["sweep", "--stdin-graph6"]) == 0
        _, err = capsys.readouterr()
        assert "seen=1 checked=1 " in err and "parse error" not in err

    def test_line_numbers_count_blank_lines(self, monkeypatch, capsys):
        data = b"Ch\n\n \t\r\nC\x1c\n"
        _stdin_bytes(monkeypatch, data)
        assert main(["compute"]) == 2
        assert "parse error at -:4: " in capsys.readouterr().err
        _stdin_bytes(monkeypatch, data)
        assert main(["sweep", "--stdin-graph6"]) == 2
        assert "parse error at stdin:4: " in capsys.readouterr().err


def _config(n_min, n_max, connected_only=True, trees=False):
    return {"n_min": n_min, "n_max": n_max, "connected_only": connected_only, "dedup": False,
            "bounds": list(ALL_BOUND_IDS), "max_graphs": None, "trees": trees}


class TestSweepOutput:
    """The report file and stdout of each sweep mode against json.dump of
    ``to_dict`` and the old print f-strings, byte for byte."""

    def assert_matches_oracle(self, report_path, out, expected, config):
        text = report_path.read_text(encoding="ascii")
        expected.wall_time = json.loads(text)["wall_time"]
        assert text == oracle_report_text(expected, config)
        assert out == oracle_record_lines(expected)

    def test_graphs_no_connected(self, tmp_path, capsys):
        p = tmp_path / "report.json"
        code = main(["sweep", "--n-max", "5", "--no-connected", "--jobs", "1",
                     "--report", str(p)])
        out, _ = capsys.readouterr()
        assert code == 0
        expected = run_sweep(SweepConfig(n_min=2, n_max=5, connected_only=False))
        self.assert_matches_oracle(p, out, expected, _config(2, 5, connected_only=False))

    def test_trees_all_bounds(self, tmp_path, capsys):
        p = tmp_path / "report.json"
        code = main(["trees", "--n-max", "6", "--bounds", "all", "--jobs", "1",
                     "--report", str(p)])
        out, _ = capsys.readouterr()
        assert code == 0
        expected = run_sweep(SweepConfig(n_min=4, n_max=6, trees=True))
        assert expected.equality_discrepancies
        self.assert_matches_oracle(p, out, expected, _config(4, 6, trees=True))

    def test_stdin_stream(self, tmp_path, monkeypatch, capsys):
        lines = ["Ch", "D\\o", "zzz!", write_graph6(path_graph(9)), write_graph6(h2_graph())]
        p = tmp_path / "report.json"
        code, out, _ = run_cli(["sweep", "--stdin-graph6", "--report", str(p)],
                               "\n".join(lines) + "\n", monkeypatch, capsys)
        assert code == 2
        expected = run_sweep(SweepConfig(n_min=2, n_max=6), graphs=stream_graph6(lines))
        assert "D\\o" in {d.graph6 for d in expected.equality_discrepancies}
        self.assert_matches_oracle(p, out, expected, _config(2, 6))

    def test_stdin_stream_holding_a_graph_twice(self, tmp_path, monkeypatch, capsys):
        # each graph checked on its own and the flat records sorted by the
        # oracle: the two copies' records interleave by bound
        lines = ["Ch", "D\\o", "zzz!", "Ch", "D\\o", "C~", write_graph6(h2_graph()),
                 write_graph6(path_graph(9))]
        random.Random(7).shuffle(lines)
        p = tmp_path / "report.json"
        code, out, err = run_cli(["sweep", "--stdin-graph6", "--report", str(p)],
                                 "\n".join(lines) + "\n", monkeypatch, capsys)
        assert code == 2
        cfg = SweepConfig(n_min=2, n_max=6)
        expected = oracle_checked_report(stream_graph6(lines), cfg)
        assert f"equality_discrepancies={len(expected.equality_discrepancies)} " in err
        self.assert_matches_oracle(p, out, expected, cfg._asdict())

    @pytest.mark.parametrize("argv, cfg", [
        (["sweep", "--n-max", "5", "--max-graphs", "774"],
         SweepConfig(n_min=2, n_max=5, max_graphs=774)),
        (["trees", "--n-max", "6", "--max-graphs", "841"],
         SweepConfig(n_min=4, n_max=6, trees=True, max_graphs=841)),
    ], ids=["graphs", "trees"])
    def test_max_graphs_cut_inside_a_loud_order(self, tmp_path, capsys, argv, cfg):
        # the cut ends inside the last order, which has records
        p = tmp_path / "report.json"
        code = main(argv + ["--report", str(p)])
        out, _ = capsys.readouterr()
        assert code == 0
        expected = oracle_checked_report(enumerated(cfg), cfg)
        assert expected.equality_discrepancies[-1].graph6[0] == chr(63 + cfg.n_max)
        self.assert_matches_oracle(p, out, expected, cfg._asdict())


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has gone away; ``fileno`` is a descriptor of the test's."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def _force_violation(monkeypatch):
    from isdd_lab import _kernel

    def fake_kernel(g, connected, sel):
        return (("LOWER_ELL", "0", "1"),), ()

    monkeypatch.setattr(_kernel, "check_graph_kernel", fake_kernel)


class TestClosedStdout:
    @pytest.mark.parametrize("stdin_text, violation, exit_code", [
        ("Ch\nD\\o\n", False, 0),
        ("Ch\nzzz!\n", False, 2),
        ("Ch\nzzz!\n", True, 3),
    ])
    def test_exit_code_and_report_survive(self, tmp_path, monkeypatch, capsys,
                                          stdin_text, violation, exit_code):
        if violation:
            _force_violation(monkeypatch)
        p = tmp_path / "report.json"
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
            monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
            code = main(["sweep", "--stdin-graph6", "--report", str(p)])
            now, devnull = os.fstat(fd), os.stat(os.devnull)
        finally:
            os.close(fd)
        _, err = capsys.readouterr()
        assert code == exit_code
        assert "Traceback" not in err and "BrokenPipe" not in err
        assert (now.st_dev, now.st_ino) == (devnull.st_dev, devnull.st_ino)
        payload = json.loads(p.read_text())
        assert len(payload["violations"]) == int(violation)
        assert payload["graphs_seen"] == 2

    @pytest.mark.parametrize("command", ["compute", "check", "classify"])
    def test_per_graph_commands_stop_quietly(self, tmp_path, monkeypatch, capsys, command):
        # the parse error comes before the first stdout line, the last graph is never read
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            monkeypatch.setattr("sys.stdin", io.StringIO("zzz!\nCh\nCh\n"))
            monkeypatch.setattr("sys.stdout", _ClosedPipe(fd))
            code = main([command])
            now, devnull = os.fstat(fd), os.stat(os.devnull)
        finally:
            os.close(fd)
        _, err = capsys.readouterr()
        assert code == 2
        assert err.startswith("parse error at -:1: ") and err.count("\n") == 1
        assert "Traceback" not in err and "BrokenPipe" not in err
        assert (now.st_dev, now.st_ino) == (devnull.st_dev, devnull.st_ino)

    def test_reader_closes_compute_pipe(self, tmp_path):
        # isdd-lab compute --input F | head -1 on 2,999 graphs: about 200 kB of
        # lines, more than a pipe holds
        from isdd_lab.enumeration import labeled_graphs

        graphs = itertools.islice(labeled_graphs(6), 1, 3000)
        p = tmp_path / "n6.g6"
        p.write_text("".join(write_graph6(g) + "\n" for g in graphs))
        src = str(Path(isdd_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "isdd_lab.cli", "compute", "--input", str(p)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert first.startswith(b"E_??: n=6 m=1 ")
        assert code == 0, err
        assert err == ""

    def test_reader_closes_pipe(self, tmp_path):
        # isdd-lab sweep --n-max 6 | head -1: about 640 kB of records, far more
        # than a pipe holds, so the writer meets the closed pipe mid-way
        p = tmp_path / "report.json"
        src = str(Path(isdd_lab.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.Popen(
            [sys.executable, "-m", "isdd_lab.cli", "sweep", "--n-max", "6", "--jobs", "1",
             "--report", str(p)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        code = proc.wait(timeout=120)
        assert first.startswith(b"equality_discrepancy ")
        assert code == 0, err
        assert err.startswith("seen=33866 checked=27475 "), err
        assert "Traceback" not in err and "BrokenPipe" not in err
        records = json.loads(p.read_text())["equality_discrepancies"]
        assert f"equality_discrepancies={len(records)} " in err
