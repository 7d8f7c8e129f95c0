import importlib.util
import io
import math
import random
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from isdd_lab._kernel import free_trees
from isdd_lab.enumeration import (StreamError, _first_of_each_class, labeled_graphs, labeled_trees,
                                  stream_graph6)
from isdd_lab.graphs import (
    GRAPH6_MAX_N,
    SLOT_TABLE_MAX_N,
    EdgeListError,
    Graph,
    Graph6Error,
    GraphError,
    bipartition,
    count_degree_pair_edges,
    degrees,
    is_connected,
    last_graph_memo,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from helpers import (
    complete_graph,
    oracle_decode_graph6,
    oracle_is_connected,
    oracle_parse_graph6,
    oracle_write_graph6,
    path_graph,
    star_graph,
)


def mask_graph(n: int, mask: int) -> Graph:
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return Graph(n, tuple(sorted(p for k, p in enumerate(pairs) if (mask >> k) & 1)))


class TestGraphType:
    def test_rejects_loop(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            Graph.from_edges(3, [(0, 3)])

    def test_from_edges_normalizes_and_dedups(self):
        g = Graph.from_edges(3, [(2, 0), (0, 2), (1, 0)])
        assert g.edges == ((0, 1), (0, 2))

    def test_direct_construction_requires_canonical_order(self):
        with pytest.raises(GraphError):
            Graph(3, ((1, 0),))
        with pytest.raises(GraphError):
            Graph(3, ((0, 1), (0, 1)))


class TestGraph6:
    def test_k4_all_bits_set(self):
        g = parse_graph6("C~")
        assert g.n == 4 and g.m == 6

    def test_two_vertices_no_edges(self):
        g = parse_graph6("A?")
        assert g.n == 2 and g.edges == ()

    def test_dqc_round_trip(self):
        g = parse_graph6("DQc")
        assert g.n == 5
        assert set(g.edges) == {(0, 2), (0, 4), (1, 3), (3, 4)}
        assert write_graph6(g) == "DQc"

    def test_k4_encodes_to_tilde(self):
        assert write_graph6(complete_graph(4)) == "C~"

    def test_empty_graph(self):
        assert write_graph6(Graph(0)) == "?"
        assert parse_graph6("?") == Graph(0)

    def test_p4_round_trips(self):
        g = path_graph(4)
        assert parse_graph6(write_graph6(g)) == g

    def test_long_form_header(self):
        g = star_graph(69)  # n = 70 needs the 4-byte header
        text = write_graph6(g)
        assert text.startswith("~")
        assert parse_graph6(text) == g

    def test_non_canonical_long_header_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~??A?")  # long form for n = 2

    def test_character_out_of_range_names_offset(self):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("C" + chr(30))
        assert exc.value.offset == 1

    def test_trailing_bits_must_be_zero(self):
        # n=2 has one adjacency bit; '_' sets a padding bit as well
        with pytest.raises(Graph6Error) as exc:
            parse_graph6("A" + chr(63 + 0b000001))
        assert exc.value.offset == 1

    def test_length_mismatch_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("C~~")  # one byte too many for n=4
        with pytest.raises(Graph6Error):
            parse_graph6("E~")  # too few bytes for n=6

    def test_oversized_order_rejected(self):
        with pytest.raises(Graph6Error):
            parse_graph6("~~??????")
        with pytest.raises(Graph6Error):
            parse_graph6("~~???")  # 8-byte form rejected before length checks

    def test_write_rejects_orders_beyond_long_header(self):
        with pytest.raises(GraphError):
            write_graph6(Graph(258048))

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=200)
    def test_round_trip_random(self, n, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
        g = mask_graph(n, mask)
        assert parse_graph6(write_graph6(g)) == g

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=200)
    def test_encoder_matches_independent_decoder(self, n, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
        g = mask_graph(n, mask)
        dn, dedges = oracle_decode_graph6(write_graph6(g))
        assert dn == g.n and dedges == set(g.edges)


class TestEdgeList:
    def test_p4(self):
        assert parse_edge_list("4 3\n0 1\n1 2\n2 3") == path_graph(4)

    def test_triangle(self):
        assert parse_edge_list("3 3\n0 1\n1 2\n0 2") == complete_graph(3)

    def test_loop_rejected(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("2 1\n0 0")
        assert exc.value.line_no == 2

    def test_duplicate_rejected(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("3 2\n0 1\n1 0")

    def test_out_of_range_rejected(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("2 1\n0 2")

    def test_count_mismatch_rejected(self):
        with pytest.raises(EdgeListError):
            parse_edge_list("4 3\n0 1\n1 2")

    def test_only_ascii_digits(self):
        # int() alone takes any Unicode decimal digit and "_" separators
        for text in ("3 2\n\u0660 1\n1 2", "\uff13 0", "1_0 0"):
            with pytest.raises(EdgeListError):
                parse_edge_list(text)
        assert parse_edge_list("+2 1\n0 1") == path_graph(2)

    def test_only_spaces_and_tabs_separate(self):
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3\xa02\n0 1\n1 2\n")  # no-break space
        assert exc.value.line_no == 1
        # str.splitlines() also ends a line at each of these
        for sep in "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029":
            with pytest.raises(EdgeListError) as exc:
                parse_edge_list(f"3 2\n0 1{sep}1 2\n")
            assert exc.value.line_no == 2, repr(sep)
            with pytest.raises(EdgeListError) as exc:
                parse_edge_list(f"3 2\n0 1\n1{sep}2\n")
            assert exc.value.line_no == 3, repr(sep)

    def test_lines_end_at_newline(self):
        assert parse_edge_list("3 2\r\n0\t1\r\n \t1  2 \t\r\n\r\n") == path_graph(3)
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3 2\r0 1\r1 2")  # a lone "\r" ends no line
        assert exc.value.line_no == 1
        with pytest.raises(EdgeListError) as exc:
            parse_edge_list("3 2\n0 1\r\r\n1 2")  # only one "\r" is dropped
        assert exc.value.line_no == 2


def cli_decodings(data: bytes) -> tuple[str, str]:
    """``data`` as the CLI decodes it from a file (ASCII, no newline
    translation) and from stdin in a UTF-8 locale."""
    as_file = io.TextIOWrapper(io.BytesIO(data), encoding="ascii", errors="surrogateescape",
                               newline="")
    return as_file.read(), data.decode("utf-8", errors="surrogateescape")


# arbitrary text, plus text drawn near each format so the fuzz reaches past
# the first character or line check
_GRAPH6_LIKE = st.text(alphabet=st.characters(min_codepoint=55, max_codepoint=130))
_EDGE_LIST_LIKE = st.text(alphabet="0123456789 -+_\t\n\r")


@st.composite
def _edge_list_bytes(draw):
    """An edge list, valid but for separators and line ends drawn from those
    that str.split and str.splitlines also take, UTF-8 encoded."""
    sep = st.sampled_from([" ", "\t", " \t ", "\xa0", "\x0b", "\u3000"])
    end = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x1c", "\x85", "\u2028"])
    rows = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    text = "".join(f"{a}{draw(sep)}{b}{draw(end)}" for a, b in [(6, len(rows)), *rows])
    return text.encode()


# arbitrary bytes, and bytes near each format
_BYTES = st.one_of(st.binary(), _GRAPH6_LIKE.map(str.encode), _edge_list_bytes())


class TestParserFuzz:
    """Any text either parses or raises GraphError; no other exception escapes."""

    @given(st.one_of(st.text(), _GRAPH6_LIKE))
    @settings(max_examples=500, deadline=None)
    def test_parse_graph6(self, text):
        try:
            g = parse_graph6(text)
        except GraphError:
            return
        assert write_graph6(g) == text.rstrip("\r\n")

    @given(st.one_of(st.text(), _EDGE_LIST_LIKE))
    @settings(max_examples=500, deadline=None)
    def test_parse_edge_list(self, text):
        try:
            g = parse_edge_list(text)
        except GraphError:
            return
        assert g.m == int(text.split()[1])

    @given(_BYTES)
    @settings(max_examples=500, deadline=None)
    def test_parse_graph6_bytes(self, data):
        for text in cli_decodings(data):
            for line in text.split("\n"):
                try:
                    g = parse_graph6(line)
                except GraphError:
                    continue
                assert write_graph6(g) == line.rstrip("\r")

    @given(_BYTES)
    @settings(max_examples=500, deadline=None)
    def test_parse_edge_list_bytes(self, data):
        for text in cli_decodings(data):
            try:
                g = parse_edge_list(text)
            except GraphError:
                continue
            assert set(text.replace("\r\n", "\n")) <= set("0123456789+- \t\n")
            header = next(line for line in text.split("\n") if line.strip())
            assert g.m == int(header.split()[1])


def _outcome(parse, text):
    """What a decoder makes of ``text``: the graph, or the error's text and offset."""
    try:
        return parse(text)
    except Graph6Error as exc:
        return type(exc), str(exc), exc.offset


def _graph6_error_shapes() -> list[str]:
    """One or more lines of every kind of graph6 error, and near misses."""
    texts = ["", "\r\n", "\n", "\r"]
    # bad characters: below 63, above 126, non-ASCII, a surrogate, a line end
    # inside the text; in the header, in the long header and in the data
    for bad in (chr(30), " ", "\t", "\x7f", "\xa0", "\u3000", "\udc85", "\r", "\x1c", "\x0b"):
        texts += [bad, bad + "Ch", "C" + bad, "Ch" + bad + "Ch", "~" + bad + "??",
                  "~?" + bad + "?", "DQ" + bad]
    # long header: truncated, the 8-byte form, non-canonical for n < 63
    texts += ["~", "~?", "~??", "~~", "~~?", "~~???", "~~??????", "~??", "~???", "~??A?",
              "~??}", "~??~", "~?@?", "~?@?" + "?" * 10, "~??~" + "?" * 316]
    # data length: one byte short and one too many, short and long header
    for n in (2, 3, 4, 5, 6, 12, 62, 63, 64, 70):
        text = write_graph6(Graph(n))
        texts += [text[:-1], text + "?", text + "~~"]
    # padding: every padding pattern of the last data byte
    for n in (2, 3, 4, 5, 7, 8, 63, 64):
        text = write_graph6(complete_graph(n))
        nbits = n * (n - 1) // 2
        pad = -nbits % 6
        for low in range(1 << pad):
            last = ord(text[-1]) - 63
            texts.append(text[:-1] + chr(63 + (last & ~((1 << pad) - 1) | low)))
    return texts


class TestGraph6AgainstOracle:
    """The table decoder and encoder against the bit-by-bit ones they replaced."""

    def test_every_mask_small(self):
        for n in range(0, 6):
            for mask in range(1 << (n * (n - 1) // 2)):
                g = mask_graph(n, mask)
                text = write_graph6(g)
                assert text == oracle_write_graph6(g)
                assert parse_graph6(text) == oracle_parse_graph6(text) == g
                # the same data bytes under a header one order off
                for m in (n - 1, n + 1):
                    if m >= 0:
                        wrong = chr(63 + m) + text[1:]
                        assert _outcome(parse_graph6, wrong) == _outcome(oracle_parse_graph6, wrong)

    def test_every_error_shape(self):
        texts = _graph6_error_shapes()
        outcomes = [_outcome(parse_graph6, t) for t in texts]
        assert outcomes == [_outcome(oracle_parse_graph6, t) for t in texts]
        messages = [o[1] for o in outcomes if not isinstance(o, Graph)]
        for kind in ("empty graph6 string", "character ", "truncated long size header",
                     f"order above {GRAPH6_MAX_N} is not supported",
                     "non-canonical long size header", "expected ",
                     "trailing padding bits not zero"):
            assert any(m.startswith(kind) for m in messages), kind

    def test_random_graphs_up_to_long_headers(self):
        rng = random.Random(63)
        for n in (6, 7, 8, 12, 13, 30, 62, 63, 64, 65, 100, 300):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < p))
                text = write_graph6(g)
                assert text == oracle_write_graph6(g)
                assert parse_graph6(text) == oracle_parse_graph6(text) == g

    @given(st.one_of(st.text(), _GRAPH6_LIKE))
    @settings(max_examples=500, deadline=None)
    def test_text(self, text):
        assert _outcome(parse_graph6, text) == _outcome(oracle_parse_graph6, text)

    @given(_BYTES)
    @settings(max_examples=500, deadline=None)
    def test_bytes(self, data):
        for text in cli_decodings(data):
            for line in text.split("\n"):
                assert _outcome(parse_graph6, line) == _outcome(oracle_parse_graph6, line)


def assert_canonical(g: Graph):
    """``g`` is what the validating constructor builds from its own fields."""
    assert type(g) is Graph
    assert type(g.edges) is tuple and all(type(e) is tuple for e in g.edges)
    assert Graph(g.n, g.edges) == g  # raises GraphError for a non-canonical edge tuple


class TestDecodedGraphsAreCanonical:
    """parse_graph6 and the enumerators build their graphs without validating
    them; each must be the graph ``Graph(n, edges)`` validates."""

    def test_labeled_graphs(self):
        # every edge mask in mask order, and the first graph of each class
        for n in range(1, 7):
            graphs = list(labeled_graphs(n))
            assert len(graphs) == 1 << (n * (n - 1) // 2)
            for mask, g in enumerate(graphs):
                assert_canonical(g)
                assert g == mask_graph(n, mask)
            for g in _first_of_each_class(n, len(graphs)):
                assert_canonical(g)

    def test_labeled_trees(self):
        for n in range(2, 8):
            for g in labeled_trees(n):
                assert_canonical(g)
                assert g.m == n - 1 and is_connected(g)

    def test_every_graph_small(self):
        for n in range(0, 7):
            for mask in range(1 << (n * (n - 1) // 2)):
                assert_canonical(parse_graph6(write_graph6(mask_graph(n, mask))))

    def test_slot_and_matrix_orders(self):
        rng = random.Random(62)
        for n in (SLOT_TABLE_MAX_N - 1, SLOT_TABLE_MAX_N, SLOT_TABLE_MAX_N + 1, 64, 100):
            for p in (0.0, 0.05, 0.5, 1.0):
                g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < p))
                decoded = parse_graph6(write_graph6(g))
                assert_canonical(decoded)
                assert decoded == g

    def test_free_trees(self):
        for n in range(0, 13):
            for g in free_trees(n):
                assert_canonical(g)
                assert g.m == max(n - 1, 0) and (n == 0 or is_connected(g))

    def test_benchmark_stream(self, monkeypatch):
        # the seed-1 stream of the stream-g6 benchmark workload; the module is
        # registered while it loads, as its dataclasses need
        spec = importlib.util.spec_from_file_location(
            "workloads", Path(__file__).parents[1] / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        text, seen, _ = workloads.make_stream(1)
        graphs = list(stream_graph6(io.StringIO(text, newline="\n")))
        assert len(graphs) == seen == 20000
        for g in graphs:
            assert not isinstance(g, StreamError)
            assert_canonical(g)

    @given(st.one_of(st.text(), _GRAPH6_LIKE))
    @settings(max_examples=500, deadline=None)
    def test_text(self, text):
        try:
            g = parse_graph6(text)
        except GraphError:
            return
        assert_canonical(g)

    @given(_BYTES)
    @settings(max_examples=500, deadline=None)
    def test_bytes(self, data):
        for text in cli_decodings(data):
            for line in text.split("\n"):
                try:
                    g = parse_graph6(line)
                except GraphError:
                    continue
                assert_canonical(g)


class TestLastGraphMemo:
    """``last_graph_memo`` keys on the identity of the last graph it saw."""

    @staticmethod
    def counted(fn):
        calls = []

        def wrapped(g):
            calls.append(g)
            return fn(g)
        return last_graph_memo(wrapped), calls

    def test_same_graph_computed_once(self):
        memo, calls = self.counted(degrees)
        g = path_graph(4)
        assert memo(g) == [1, 2, 2, 1]
        assert memo(g) is memo(g)
        assert len(calls) == 1 and calls[0] is g

    def test_equal_but_distinct_graph_computed_again(self):
        memo, calls = self.counted(degrees)
        g, h = Graph(3, ((0, 1),)), Graph(3, ((0, 1),))
        assert g == h and g is not h
        first = memo(g)
        second = memo(h)
        assert first == second and first is not second
        assert len(calls) == 2 and calls[1] is h
        memo(h)
        assert len(calls) == 2

    def test_raising_fn_keeps_previous_graph_and_value(self):
        memo, calls = self.counted(is_connected)  # raises on the empty vertex set
        g = path_graph(4)
        assert memo(g) is True
        for _ in range(2):  # a failed call is not remembered
            with pytest.raises(GraphError):
                memo(Graph(0))
        assert len(calls) == 3
        assert memo(g) is True
        assert len(calls) == 3  # g is still the memo's graph, with its value

    def test_cache_clear_releases_the_graph(self):
        memo, calls = self.counted(len)
        g = Graph(5, ((0, 1), (3, 4)))
        free = sys.getrefcount(g)
        assert memo(g) == 2
        del calls[:]
        assert sys.getrefcount(g) == free + 1  # held by the memo
        memo.cache_clear()
        assert sys.getrefcount(g) == free
        assert memo(g) == 2 and calls == [g]  # computed again after the clear


class TestConnectivityAgainstOracle:
    """The union-find against a breadth-first search over ``neighbors()``."""

    def test_every_labeled_graph_small(self):
        for n in range(1, 7):
            verdicts = set()
            for mask in range(1 << (n * (n - 1) // 2)):
                g = mask_graph(n, mask)
                verdict = is_connected(g)
                assert verdict == oracle_is_connected(g), (n, mask)
                verdicts.add(verdict)
            assert verdicts == ({True} if n == 1 else {True, False})

    def test_single_vertex(self):
        assert is_connected(Graph(1)) and oracle_is_connected(Graph(1))

    def test_empty_vertex_set_rejected(self):
        with pytest.raises(GraphError):
            is_connected(Graph(0))

    def test_random_graphs_through_long_headers(self):
        # edge probability around the connectivity threshold ln(n)/n, so that
        # both verdicts come up at every size; the graphs also pass through
        # graph6, whose 4-byte header starts at 63 vertices
        rng = random.Random(8)
        verdicts = {True: 0, False: 0}
        for n in range(8, 71):
            for scale in (0.5, 1.0, 1.5, 2.5):
                p = min(1.0, scale * math.log(n) / n)
                g = Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)
                                   if rng.random() < p))
                g = parse_graph6(write_graph6(g))
                verdict = is_connected(g)
                assert verdict == oracle_is_connected(g), write_graph6(g)
                verdicts[verdict] += 1
        assert min(verdicts.values()) > 40


    def test_large_sparse_graphs_take_memory_linear_in_n(self):
        # one adjacency bitset per vertex would hold n^2/2 bits here (625 MB)
        n = 100_000
        path = Graph(n, tuple((v, v + 1) for v in range(n - 1)))
        one_edge = Graph(n, ((0, 1),))
        tracemalloc.start()
        try:
            assert is_connected(path)
            assert not is_connected(one_edge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestStructure:
    def test_degree_data_p4(self):
        assert degrees(path_graph(4)) == [1, 2, 2, 1]

    def test_degree_data_k4(self):
        assert degrees(complete_graph(4)) == [3, 3, 3, 3]

    def test_degree_data_star(self):
        assert degrees(star_graph(3)) == [3, 1, 1, 1]

    def test_connectivity(self):
        assert is_connected(path_graph(4))
        assert not is_connected(Graph.from_edges(4, [(0, 1), (2, 3)]))
        assert is_connected(Graph(1))

    def test_bipartition_c4(self):
        bip = bipartition(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        assert bip is not None
        assert set(bip.u) == {0, 2} and set(bip.w) == {1, 3}

    def test_bipartition_odd_cycle_absent(self):
        assert bipartition(complete_graph(3)) is None

    def test_bipartition_p4(self):
        bip = bipartition(path_graph(4))
        assert set(bip.u) == {0, 2} and set(bip.w) == {1, 3}

    def test_count_degree_pair_edges_p4(self):
        g = path_graph(4)
        assert count_degree_pair_edges(g, 2, 1) == 2
        assert count_degree_pair_edges(g, 1, 2) == 2
        assert count_degree_pair_edges(g, 2, 2) == 1

    def test_count_degree_pair_edges_k4(self):
        assert count_degree_pair_edges(complete_graph(4), 3, 3) == 6

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=150)
    def test_handshake_and_pair_totals(self, n, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
        g = mask_graph(n, mask)
        deg = degrees(g)
        assert sum(deg) == 2 * g.m
        pairs = {(max(deg[i], deg[j]), min(deg[i], deg[j])) for i, j in g.edges}
        assert sum(count_degree_pair_edges(g, a, b) for a, b in pairs) == g.m

    @given(st.integers(min_value=1, max_value=8), st.data())
    @settings(max_examples=150)
    def test_bipartition_edges_cross(self, n, data):
        mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
        g = mask_graph(n, mask)
        bip = bipartition(g)
        two_colorable = any(
            all((colors >> i) & 1 != (colors >> j) & 1 for i, j in g.edges)
            for colors in range(1 << g.n)
        )
        if bip is not None:
            assert all(bip.side_of[i] != bip.side_of[j] for i, j in g.edges)
            assert two_colorable
        else:
            assert not two_colorable
