import collections
import io
import itertools
import multiprocessing
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from isdd_lab import _kernel
from isdd_lab import enumeration
from isdd_lab import bounds as bounds_module, classify as classify_module
from isdd_lab import graphs as graphs_module, indices as indices_module
from isdd_lab.enumeration import (
    EqualityDiscrepancy,
    StreamError,
    SweepConfig,
    SweepReport,
    Violation,
    canonical_form,
    check_graph_reference,
    labeled_graphs,
    labeled_trees,
    run_sweep,
    stream_graph6,
)
from isdd_lab.graphs import Graph, GraphError, is_connected, parse_graph6, write_graph6
from isdd_lab.bounds import ALL_BOUND_IDS, evaluate_all
from isdd_lab.classify import classify, in_gamma3
from isdd_lab.indices import index_vector
from isdd_lab.cli import main
import helpers
from helpers import (
    cycle_graph,
    flat_partial,
    h1_graph,
    h2_graph,
    h3_graph,
    oracle_encode_prufer,
    oracle_record_lines,
    oracle_report,
    oracle_report_text,
    path_graph,
    per_graph_partial,
)


def report_dict(rep: SweepReport) -> dict:
    return rep.to_dict(include_timing=False)


class TestLabeledGraphs:
    def test_counts_small(self):
        assert sum(1 for _ in labeled_graphs(3)) == 8
        graphs = list(labeled_graphs(4))
        assert len(graphs) == 64
        assert sum(1 for g in graphs if is_connected(g)) == 38

    def test_deterministic_stream(self):
        a = [g.edges for g in labeled_graphs(4)]
        b = [g.edges for g in labeled_graphs(4)]
        assert a == b

    def test_range_validation(self):
        with pytest.raises(ValueError):
            next(labeled_graphs(8))
        with pytest.raises(ValueError):
            next(labeled_graphs(0))


class TestLabeledTrees:
    def test_counts(self):
        assert sum(1 for _ in labeled_trees(3)) == 3
        assert sum(1 for _ in labeled_trees(4)) == 16

    def test_bijection_n4(self):
        trees = list(labeled_trees(4))
        assert len(set(trees)) == 16
        for t in trees:
            assert t.m == 3 and is_connected(t)

    def test_bijection_n5_distinct_and_valid(self):
        trees = list(labeled_trees(5))
        assert len(set(trees)) == 125
        assert all(t.m == 4 and is_connected(t) for t in trees)

    def test_single_edge_tree(self):
        assert list(labeled_trees(2)) == [Graph(2, ((0, 1),))]

    def test_range_validation(self):
        with pytest.raises(ValueError):
            next(labeled_trees(10))

    def test_rank_inverts_decode_exhaustive(self):
        # labeled_trees lists the trees in rank order: a sequence's rank is its
        # base-n value, first digit most significant
        for n in range(2, 7):
            for rank, tree in enumerate(labeled_trees(n)):
                seq = oracle_encode_prufer(tree)
                assert sum(s * n ** (n - 3 - i) for i, s in enumerate(seq)) == rank, (n, rank)

    @given(st.integers(min_value=2, max_value=8), st.data())
    @settings(max_examples=100, deadline=None)
    def test_rank_inverts_decode(self, n, data):
        # the expansion of a rank's degrees meets that rank once, with its
        # base-n digits as the sequence
        rank = data.draw(st.integers(0, n ** (n - 2) - 1))
        seq = tuple(rank // n ** (n - 3 - i) % n for i in range(n - 2))
        deg = tuple(1 + seq.count(v) for v in range(n))
        met = [(d, s) for d, r, s in _kernel.tree_sequences(n, sorted(deg), rank + 1)
               if r == rank]
        assert met == [(deg, seq)]

    @given(st.integers(min_value=3, max_value=9), st.data())
    @settings(max_examples=100, deadline=None)
    def test_decode_inverts_independent_encoder(self, n, data):
        seq = tuple(data.draw(st.integers(0, n - 1)) for _ in range(n - 2))
        edges = _kernel.prufer_edges(seq, n)
        g = Graph.from_edges(n, edges)
        assert g.m == n - 1 and is_connected(g)
        assert tuple(oracle_encode_prufer(g)) == seq


class TestCanonicalForm:
    def test_relabelings_share_form(self):
        g = path_graph(4)
        base = canonical_form(g)
        import itertools
        for perm in itertools.permutations(range(4)):
            h = Graph.from_edges(4, [(perm[i], perm[j]) for i, j in g.edges])
            assert canonical_form(h) == base

    def test_k4_is_all_ones(self):
        from helpers import complete_graph
        form = canonical_form(complete_graph(4))
        assert form[0] == 4
        assert bin(int.from_bytes(form[1:], "big")).count("1") == 6

    def test_c4_differs_from_p4(self):
        assert canonical_form(cycle_graph(4)) != canonical_form(path_graph(4))

    def test_random_permutations_invariant(self):
        rng = random.Random(7)
        for g in (cycle_graph(6), path_graph(7), parse_graph6("DQc")):
            base = canonical_form(g)
            for _ in range(100):
                perm = list(range(g.n))
                rng.shuffle(perm)
                h = Graph.from_edges(g.n, [(perm[i], perm[j]) for i, j in g.edges])
                assert canonical_form(h) == base

    def test_connected_class_counts(self):
        # frozen regression values, cross-checkable against standard references
        expected = {4: 6, 5: 21, 6: 112}
        for n, count in expected.items():
            forms = {
                canonical_form(g) for g in labeled_graphs(n) if is_connected(g)
            }
            assert len(forms) == count

    def test_order_cap(self):
        from isdd_lab.graphs import GraphError
        with pytest.raises(GraphError):
            canonical_form(Graph(11))


class TestStreamGraph6:
    def test_three_lines(self):
        items = list(stream_graph6(["C~", "DQc", "A?"]))
        assert [g.n for g in items] == [4, 5, 2]

    def test_bad_line_keeps_streaming(self):
        items = list(stream_graph6(["C~", "C" + chr(30), "A?"]))
        assert isinstance(items[1], StreamError)
        assert items[1].line_no == 2
        assert [i for i in items if isinstance(i, Graph)][-1].n == 2

    def test_empty_stream(self):
        assert list(stream_graph6([])) == []


class TestKernelAgainstReference:
    """The fast sweep kernel must reproduce the public-API verdicts exactly."""

    def test_exhaustive_small_n(self):
        for n in (2, 3, 4, 5):
            cfg = SweepConfig(n_min=n, n_max=n)
            fast = run_sweep(cfg)
            ref = run_sweep(cfg, engine="reference")
            assert report_dict(fast) == report_dict(ref), f"engines diverge at n={n}"

    def test_sampled_n6(self):
        rng = random.Random(20250809)
        masks = [rng.randrange(1 << 15) for _ in range(400)]
        self._compare_masks(6, masks)

    def test_sampled_n7(self):
        rng = random.Random(1)
        masks = [rng.randrange(1 << 21) for _ in range(400)]
        self._compare_masks(7, masks)

    def test_every_class_n6_n7(self):
        # one graph per isomorphism class, disconnected ones included: every
        # degree-pair signature that occurs on 6 or 7 vertices
        for n, classes in ((6, 156), (7, 1044)):  # OEIS A000088
            graphs = list(enumeration._first_of_each_class(n, 1 << n * (n - 1) // 2))
            assert len(graphs) == classes
            for connected_only in (True, False):
                self._compare_graphs(graphs, connected_only)

    def _compare_masks(self, n, masks, connected_only=True):
        self._compare_graphs([_graph_from_mask(n, mask) for mask in masks], connected_only)

    def _compare_graphs(self, graphs, connected_only=True):
        # the checks return a graph's records in check order, which the sweep
        # puts in report order (_check_each), so compare sorted partials
        for g in graphs:
            fast = per_graph_partial(_kernel.check_graph_kernel, g, ALL_BOUND_IDS, connected_only)
            ref = per_graph_partial(check_graph_reference, g, ALL_BOUND_IDS, connected_only)
            assert flat_partial(fast) == flat_partial(ref), \
                f"diverges on {write_graph6(g)} (n={g.n})"

    def test_every_mask_including_disconnected(self):
        # disconnected graphs too: their exact index and GA-based checks
        # still run
        rng = random.Random(5)
        for n in (2, 3, 4, 5):
            self._compare_masks(n, range(1 << (n * (n - 1) // 2)), connected_only=False)
        for n in (6, 7):
            masks = [rng.randrange(1 << (n * (n - 1) // 2)) for _ in range(300)]
            self._compare_masks(n, masks, connected_only=False)

    def test_random_graphs_beyond_enumeration(self):
        # orders 8..31, sparse (mostly disconnected) to dense, each also with
        # one isolated vertex added, plus the three family exemplars
        rng = random.Random(2024)
        graphs = [h1_graph(), h2_graph(), h3_graph()]
        for density in (0.05, 0.15, 0.3, 0.5, 0.7, 0.9):
            for _ in range(12):
                n = rng.randint(8, 30)
                edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
                graphs.append(Graph.from_edges(n, edges))
                graphs.append(Graph.from_edges(n + 1, edges))
        assert {g.n for g in graphs} >= {14, 19, 30, 31}
        assert sum(not is_connected(g) for g in graphs if g.m) > 40
        for connected_only in (True, False):
            self._compare_graphs(graphs, connected_only)

    def test_mask_graph6_matches_writer(self):
        rng = random.Random(99)
        for n in (1, 2, 5, 7):
            for _ in range(100):
                mask = rng.randrange(1 << (n * (n - 1) // 2))
                assert _kernel.mask_to_graph6(n, mask) == write_graph6(_graph_from_mask(n, mask))
                assert _kernel.edges_to_mask(_graph_from_mask(n, mask).edges) == mask


class TestReferenceProfile:
    """The reference path reads a graph's degrees and degree-pair counts from
    one memo, ``graphs.graph_profile``, and its connectivity from another,
    ``graphs.graph_connected``, which the sweep loop fills."""

    COUNTED = ("degrees", "degree_pair_counts", "is_connected")

    def test_one_count_per_graph(self, monkeypatch):
        # every isdd_lab name bound to one of the three functions is counted,
        # so a module that imported it directly is counted too
        calls = dict.fromkeys(self.COUNTED, 0)
        modules = (graphs_module, indices_module, bounds_module, classify_module, enumeration,
                   _kernel)
        for name in self.COUNTED:
            fn = getattr(graphs_module, name)

            def counted(*args, _fn=fn, _name=name):
                calls[_name] += 1
                return _fn(*args)

            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        monkeypatch.setattr(module, attr, counted)
        graphs_module.graph_profile.cache_clear()
        graphs_module.graph_connected.cache_clear()
        cfg = SweepConfig(n_min=2, n_max=5, connected_only=False)
        rep = run_sweep(cfg, engine="reference")
        # the counts run once per checked graph, a graph with an edge; the
        # connectivity test once per graph with at least n - 1 edges
        assert (rep.graphs_seen, rep.graphs_checked) == (1098, 1094)
        assert calls == {"degrees": 1094, "degree_pair_counts": 1094, "is_connected": 895}

    def test_memo_never_leaks_between_graphs(self):
        every = [Graph(0), *(g for n in range(1, 5) for g in labeled_graphs(n))]

        def outcomes(g):
            try:
                reports = evaluate_all(g)
            except GraphError as exc:  # edgeless
                reports = str(exc)
            return (index_vector(g), reports, classify(g),
                    flat_partial(per_graph_partial(check_graph_reference, g, ALL_BOUND_IDS, False)))

        want = {}
        for g in every:
            graphs_module.graph_profile.cache_clear()
            graphs_module.graph_connected.cache_clear()
            bounds_module._params.cache_clear()
            want[g] = outcomes(g)
        for a, b in zip(every, every[1:]):
            copy = Graph(a.n, tuple(list(a.edges)))
            assert copy == a and copy is not a
            for g in (a, b, a, copy):
                assert outcomes(g) == want[g], write_graph6(g)


def _per_graph_kernel(graphs, bounds, connected_only):
    out = {"seen": 0, "checked": 0, "entries": []}
    for g in graphs:
        part = per_graph_partial(_kernel.check_graph_kernel, g, bounds, connected_only)
        for key in out:
            out[key] += part[key]
    return flat_partial(out)


def _per_tree_kernel(args):
    """The per-tree kernel checks of every labeled tree on n vertices."""
    n, bounds = args
    return _per_graph_kernel(labeled_trees(n), bounds, True)


class TestSignatureScans:
    """The per-signature scans emit exactly the records of per-graph kernel checks."""

    def test_graph_masks_exhaustive(self):
        cases = (
            (ALL_BOUND_IDS, True),
            (ALL_BOUND_IDS, False),
            (("EDGE_MIN", "EDGE_SECOND_MIN"), False),
            (("TREE_EDGE",), True),
        )
        for n in range(1, 7):
            graphs = list(labeled_graphs(n))
            for bounds, connected_only in cases:
                scan = _kernel.scan_graph_masks(n, 0, len(graphs), bounds, connected_only)
                assert flat_partial(scan) == _per_graph_kernel(
                    graphs, bounds, connected_only
                ), f"diverges at n={n} bounds={bounds} connected_only={connected_only}"

    def test_tree_ranks_exhaustive(self):
        # trees are connected, so connected_only does not apply.  Every
        # selection on n <= 7; on n = 8, where the per-tree checks of one
        # selection take seconds, all bounds and TREE_EDGE alone.  The
        # per-tree checks run in a pool, the n = 8 ones first
        cases = [(8, ALL_BOUND_IDS), (8, ("TREE_EDGE",))]
        cases += [(n, bounds) for n in range(2, 8) for bounds in SELECTIONS]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            wants = pool.map(_per_tree_kernel, cases, chunksize=1)
        verdicts = set()
        for (n, bounds), want in zip(cases, wants):
            scan = _kernel.scan_tree_ranks(n, 0, n ** (n - 2), bounds)
            assert flat_partial(scan) == want, f"diverges at n={n} bounds={bounds}"
            verdicts.add(bool(want["violations"] or want["discrepancies"]))
        assert verdicts == {True, False}

    def test_expansion_walks_each_rank_once(self):
        for items in ((), (0,), (2, 0, 2, 1), (1, 1, 1), (3, 0, 1, 2, 0)):
            want = sorted(set(itertools.permutations(items)))
            assert list(_kernel.arrangements(items)) == want, items
        # each degree multiset's walk meets exactly the ranks whose sequences
        # have its multiplicities, each once, and stops each assignment at hi
        for n in range(2, 8):
            by_degrees = {}
            for rank, seq in enumerate(itertools.product(range(n), repeat=n - 2)):
                deg = tuple(1 + seq.count(v) for v in range(n))
                by_degrees.setdefault(tuple(sorted(deg)), []).append((deg, rank, seq))
            for degrees, want in by_degrees.items():
                cuts = {n ** (n - 2), want[0][1], want[0][1] + 1, want[len(want) // 3][1],
                        want[-1][1], want[-1][1] + 1}
                for hi in cuts:
                    got = sorted(_kernel.tree_sequences(n, degrees, hi),
                                 key=operator.itemgetter(1))
                    assert got == [w for w in want if w[1] < hi], (n, degrees, hi)

    def test_graph_ranges_inside_core_blocks(self):
        # the scan walks 2^10-mask blocks (one per setting of the edges that
        # leave the 5-vertex core); these ranges start and end inside blocks
        rng = random.Random(6)
        block = 1 << 10
        for n in (6, 7):
            for _ in range(2):
                first = rng.randrange((1 << (n * (n - 1) // 2)) // block - 2)
                lo = first * block + rng.randrange(1, block)
                hi = (first + rng.randrange(1, 3)) * block + rng.randrange(1, block)
                graphs = [_graph_from_mask(n, mask) for mask in range(lo, hi)]
                for connected_only in (True, False):
                    scan = _kernel.scan_graph_masks(n, lo, hi, ALL_BOUND_IDS, connected_only)
                    assert flat_partial(scan) == _per_graph_kernel(
                        graphs, ALL_BOUND_IDS, connected_only
                    ), f"diverges on [{lo}, {hi}) at n={n} connected_only={connected_only}"

    def test_orbit_summary_matches_direct_sum(self):
        # every whole block at n = 1..7 goes through the summary of its high
        # part's class, block 0 (with the edgeless mask) and the one block of
        # n <= 5 included; split at its second mask, both parts are summed
        # directly
        cases = ((ALL_BOUND_IDS, True), (ALL_BOUND_IDS, False), (("EDGE_SECOND_MIN",), True))
        for n in range(1, 8):
            c = min(n, _kernel.CORE_ORDER)
            block = 1 << c * (c - 1) // 2
            for high in range((1 << n * (n - 1) // 2) // block):
                lo, hi = high * block, (high + 1) * block
                for bounds, connected_only in cases:
                    whole = _kernel.scan_graph_masks(n, lo, hi, bounds, connected_only)
                    split = {"seen": 0, "checked": 0, "entries": []}
                    for a, b in ((lo, lo + 1), (lo + 1, hi)):
                        part = _kernel.scan_graph_masks(n, a, b, bounds, connected_only)
                        for key in split:
                            split[key] += part[key]
                    assert flat_partial(whole) == flat_partial(split), (
                        f"diverges on block {high} at n={n} bounds={bounds} "
                        f"connected_only={connected_only}")

    def test_high_representative_relabels_the_core(self):
        # sigma, which sends order[i] to i, takes the edges of (H, L) exactly
        # onto those of (H*, sigma.L); every relabeling of H's core vertices
        # has the same H*; and the core relabeling tables undo sigma
        rng = random.Random(20)
        c, core_slots = _kernel.CORE_ORDER, _kernel.CORE_SLOTS

        def relabel(n, mask, perm):
            """The mask of ``mask``'s graph with core vertex u renamed perm[u]."""
            def image(v):
                return perm[v] if v < c else v
            return _kernel.edges_to_mask(
                (min(image(i), image(j)), max(image(i), image(j)))
                for i, j in _graph_from_mask(n, mask).edges)

        for n in range(6, 11):
            for _ in range(50):
                mask = rng.getrandbits(n * (n - 1) // 2)
                high, core = mask >> core_slots, mask & (1 << core_slots) - 1
                rep, order = _kernel._high_representative(n, high)
                assert sorted(order) == list(range(c))
                sigma = [order.index(u) for u in range(c)]
                image = relabel(n, mask, sigma)
                assert image >> core_slots == rep, (n, mask)
                assert image & (1 << core_slots) - 1 == relabel(c, core, sigma)
                low, top = _kernel._core_relabeling(order)
                assert low[image & 31] | top[image >> 5 & 31] == core, (n, mask)
                perm = rng.sample(range(c), c)
                other = relabel(n, mask, perm) >> core_slots
                assert _kernel._high_representative(n, other)[0] == rep, (n, mask, perm)

    def test_single_masks_beyond_enumeration(self):
        # 3 to 7 vertices outside the core: sparse masks leave some of them
        # isolated or cut off from the core, dense ones connect everything
        rng = random.Random(8)
        kinds = set()
        for n in range(8, 13):
            slots = n * (n - 1) // 2
            masks = [sum(1 << k for k in range(slots) if rng.random() < density)
                     for density in (0.08, 0.15, 0.3, 0.6) for _ in range(4)]
            k4 = [(i, j) for j in range(4) for i in range(j)]
            k5 = k4 + [(i, 4) for i in range(4)]
            masks += [_kernel.edges_to_mask(edges) for edges in (
                k5 + [(v, v + 1) for v in range(5, n - 1)],  # an outer part cut off
                k5 + [(v, v + 1) for v in range(5, n - 2)],  # and an outer vertex isolated
                k5 + [(v, v + 1) for v in range(4, n - 1)],  # connected
                k4 + [(v, v + 1) for v in range(4, n - 1)],  # core vertex 4 only in high
                [(v, n - 1) for v in range(n - 1)],  # a star through an outer vertex
                [(v, v + 5) for v in range(n - 5)],  # a matching from core to outside
            )]
            for mask in masks:
                g = _graph_from_mask(n, mask)
                isolated = len({v for e in g.edges for v in e}) < n
                kinds.add((is_connected(g), isolated))
                for connected_only in (True, False):
                    scan = _kernel.scan_graph_masks(n, mask, mask + 1, ALL_BOUND_IDS,
                                                    connected_only)
                    assert flat_partial(scan) == _per_graph_kernel(
                        [g], ALL_BOUND_IDS, connected_only
                    ), f"diverges on {write_graph6(g)} connected_only={connected_only}"
        assert kinds == {(True, False), (False, False), (False, True)}

    def test_tree_ranges_between_recorded_trees(self):
        # ranges cut inside blocks of n^4 ranks and across their boundaries,
        # each end between two trees with records, so that a range one rank
        # too long or too short shows
        rng = random.Random(9)

        def tree(n, rank):
            seq = tuple(rank // n ** (n - 3 - i) % n for i in range(n - 2))
            return Graph.from_edges(n, _kernel.prufer_edges(seq, n))

        def recorded(n, rank):
            part = per_graph_partial(_kernel.check_graph_kernel, tree(n, rank), ALL_BOUND_IDS,
                                     True)
            return bool(part["entries"])

        def end_near(n, rank, step):
            while not (recorded(n, rank - 1) and recorded(n, rank)):
                rank += step
            return rank

        for n in (7, 8, 9):
            block = n ** 4
            first = rng.randrange(n ** (n - 2) // block - 2)
            ranges = [((first + 1) * block - rng.randrange(1, 300),
                       (first + 1) * block + rng.randrange(1, 300))]
            if n == 7:  # one range over a whole block as well
                ranges.append((first * block + 300, (first + 2) * block - 300))
            for lo, hi in ranges:
                lo, hi = end_near(n, lo, -1), end_near(n, hi, 1)
                assert lo % block and hi % block and lo // block < hi // block
                trees = [tree(n, rank) for rank in range(lo, hi)]
                scan = _kernel.scan_tree_ranks(n, lo, hi, ALL_BOUND_IDS)
                assert flat_partial(scan) == _per_graph_kernel(
                    trees, ALL_BOUND_IDS, True
                ), f"diverges on ranks [{lo}, {hi}) at n={n}"

    def test_gamma3_signature_decided_from_pairs(self, monkeypatch):
        # K_{3,7} minus a 3-edge matching: gamma3 with edge ratio 1/5 on the two
        # pairs (6,2) and (6,3).  Its template, from the pair counts alone, is
        # empty as the reference path's records are; a gamma3 verdict of False
        # would give it a RATIO_CONSTANT discrepancy
        g = parse_graph6("IBjFFB_w?")
        deg = [sum(v in e for e in g.edges) for v in range(g.n)]
        assert {(deg[i], deg[j]) if deg[i] >= deg[j] else (deg[j], deg[i])
                for i, j in g.edges} == {(6, 2), (6, 3)}
        assert in_gamma3(g)
        mask = _kernel.edges_to_mask(g.edges)
        want = flat_partial(per_graph_partial(check_graph_reference, g, ALL_BOUND_IDS, True))
        assert want == _per_graph_kernel([g], ALL_BOUND_IDS, True)
        assert want == flat_partial(
            _kernel.scan_graph_masks(10, mask, mask + 1, ALL_BOUND_IDS, True))
        assert not want["discrepancies"]
        monkeypatch.setattr(_kernel, "_lazy_gamma3", lambda *args: False)
        part = flat_partial(per_graph_partial(_kernel.check_graph_kernel, g, ALL_BOUND_IDS, True))
        assert [rec[1] for rec in part["discrepancies"]] == ["RATIO_CONSTANT"]


class TestClassRule:
    """Both engines' class-rule records against the rule written out by hand.

    The engines share ``_kernel.class_discrepancies`` and its table, so the
    kernel-vs-reference tests cannot see a wrong table entry; this oracle can.
    """

    @staticmethod
    def _graphs():
        # one connected graph per isomorphism class on 2..6 vertices, every
        # labeled P4, the three family exemplars and the gamma3 graph
        graphs = [g for n in range(2, 7)
                  for g in enumeration._first_of_each_class(n, 1 << n * (n - 1) // 2)
                  if is_connected(g)]
        assert len(graphs) == 1 + 2 + 6 + 21 + 112  # OEIS A001349
        graphs += [Graph.from_edges(4, list(zip(perm, perm[1:])))
                   for perm in itertools.permutations(range(4)) if perm[0] < perm[-1]]
        return graphs + [h1_graph(), h2_graph(), h3_graph(), parse_graph6("IBjFFB_w?")]

    def test_engines_match_hand_written_rule(self):
        for g in self._graphs():
            want = helpers.oracle_class_discrepancies(g)
            for check in (_kernel.check_graph_kernel, check_graph_reference):
                part = per_graph_partial(check, g, ALL_BOUND_IDS, True)
                records = flat_partial(part)["discrepancies"]
                got = sorted(rec for rec in records if rec[1] in helpers.ORACLE_EXPECTED_CLASSES)
                assert got == want, f"{check.__name__} diverges on {write_graph6(g)}"

    def test_every_expected_class_is_reached(self):
        # for each check and each class it names, some graph of the set is at
        # equality in that class and in no other class the check names: a
        # rule that left the class out would give it a record the oracle
        # does not
        expected = helpers.ORACLE_EXPECTED_CLASSES
        reached = set()
        for g in self._graphs():
            actual, equalities, _ = helpers.oracle_class_verdicts(g)
            for bid, eq in equalities.items():
                named = set(expected[bid]).intersection(actual)
                if eq and len(named) == 1:
                    reached.add((bid, named.pop()))
        assert reached == {(bid, name) for bid, names in expected.items() for name in names}


def _graph_from_mask(n, mask):
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return Graph(n, tuple(sorted(p for k, p in enumerate(pairs) if (mask >> k) & 1)))


# OEIS A000055: trees on n unlabeled vertices
FREE_TREE_COUNTS = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47, 10: 106,
                    11: 235, 12: 551}
# every selection the silence decision is held to: each bound alone, and all
SELECTIONS = [ALL_BOUND_IDS] + [(bound,) for bound in ALL_BOUND_IDS]


def _prufer_signatures(n):
    """Degree-pair counts -> sorted degrees, over every labeled tree on n vertices."""
    out = {}
    for seq in itertools.product(range(n), repeat=n - 2):
        deg = [1] * n
        for s in seq:
            deg[s] += 1
        pc = {}
        for i, j in _kernel.prufer_edges(seq, n):
            pair = (deg[i], deg[j]) if deg[i] >= deg[j] else (deg[j], deg[i])
            pc[pair] = pc.get(pair, 0) + 1
        out.setdefault(frozenset(pc.items()), tuple(sorted(deg)))
    return out


class TestFreeTrees:
    def test_counts_match_oeis(self):
        for n, count in FREE_TREE_COUNTS.items():
            trees = _kernel.free_trees(n)
            assert len(trees) == count, n
            for g in trees:
                assert g.n == n and g.m == n - 1 and is_connected(g), g

    def test_one_tree_per_class(self):
        # canonical_form is the brute-force isomorphism test
        for n in range(1, 10):
            forms = {canonical_form(g) for g in _kernel.free_trees(n)}
            assert len(forms) == FREE_TREE_COUNTS[n], n

    def test_signatures_match_every_labeled_tree(self):
        for n in range(2, 9):
            got = {}
            for key in _kernel.tree_signatures(n):
                assert key & 1, (n, key)
                pc = _kernel.signature_pairs(n, key)
                got[frozenset(pc.items())] = tuple(_kernel.signature_degrees(n, pc))
            assert got == _prufer_signatures(n), n
        assert [len(_kernel.tree_signatures(n)) for n in range(2, 10)] == [
            1, 1, 2, 3, 6, 11, 21, 40]


def _relabeled_mask(n, edges, perm):
    """The edge mask of ``edges`` with each vertex v renamed perm[v]; slot
    j(j-1)/2 + i holds the edge (i, j), i < j."""
    mask = 0
    for u, v in edges:
        i, j = sorted((perm[u], perm[v]))
        mask |= 1 << (j * (j - 1) // 2 + i)
    return mask


class TestOrbitTable:
    """The packed orbit of a graph against its edge list relabeled under each
    vertex permutation."""

    def test_every_mask_small(self):
        for n in range(1, 6):
            perms = list(itertools.permutations(range(n)))
            for mask in range(1 << n * (n - 1) // 2):
                edges = _graph_from_mask(n, mask).edges
                expected = [_relabeled_mask(n, edges, perm) for perm in perms]
                assert list(_kernel.orbit(n, mask)) == expected, (n, mask)

    def test_representatives_partition_the_masks(self):
        # each representative is the least mask of its orbit; the orbits'
        # sizes sum to the number of masks and together they cover every
        # mask, so no two of them overlap
        for n in (6, 7):
            total = 1 << n * (n - 1) // 2
            covered = bytearray(total)
            sizes = 0
            for g in enumeration._first_of_each_class(n, total):
                mask = _relabeled_mask(n, g.edges, range(n))
                orbit = set(_kernel.orbit(n, mask))
                assert min(orbit) == mask, (n, mask)
                assert set(map(int.bit_count, orbit)) == {g.m}, (n, mask)
                sizes += len(orbit)
                for image in orbit:
                    covered[image] = 1
            assert sizes == total, n
            assert covered.count(1) == total, n


class TestTreeClassKey:
    def test_keys_separate_classes_and_ignore_labels(self):
        rng = random.Random(20)
        for n in range(2, 10):
            trees = _kernel.free_trees(n)
            key = _kernel.tree_class_key(n)
            keys = [key(t) for t in trees]
            assert len(set(keys)) == len(trees) == FREE_TREE_COUNTS[n], n
            for tree, k in zip(trees, keys):
                for _ in range(3):
                    perm = list(range(n))
                    rng.shuffle(perm)
                    relabeled = Graph(n, tuple(sorted(tuple(sorted((perm[i], perm[j])))
                                                      for i, j in tree.edges)))
                    assert key(relabeled) == k, (n, tree)
            # neighbour degrees key exactly the trees whose signature several
            # free trees share: 23 classes have 21 signatures at n = 8, 47
            # have 40 at n = 9
            signatures = collections.Counter(map(_kernel.tree_signature, trees))
            assert len(signatures) == {8: 21, 9: 40}.get(n, len(trees)), n
            shared = sum(c for c in signatures.values() if c > 1)
            assert sum(isinstance(k, tuple) for k in keys) == shared, n
            assert shared == {8: 4, 9: 14}.get(n, 0), n

    def test_refused_where_neighbour_degrees_are_shared(self):
        with pytest.raises(ValueError, match="10 vertices"):
            _kernel.tree_class_key(10)


class TestSilentTreeOrders:
    """A tree scan decodes the trees of loud signatures only; a silent order none."""

    def test_silent_exactly_when_the_scan_emits_nothing(self, monkeypatch):
        # an order is silent when no tree signature's template has records;
        # a scan of all its labeled trees then emits nothing and decodes none
        decoded = []
        prufer_edges = _kernel.prufer_edges
        monkeypatch.setattr(_kernel, "prufer_edges",
                            lambda seq, n: decoded.append(n) or prufer_edges(seq, n))
        verdicts = set()
        for bounds in SELECTIONS:
            sel = frozenset(bounds)
            for n in range(2, 9):
                silent = not any(_kernel._template(n, key, sel)
                                 for key in _kernel.tree_signatures(n))
                decoded.clear()
                scan = _kernel.scan_tree_ranks(n, 0, n ** (n - 2), bounds)
                quiet = not scan["entries"]
                assert silent == quiet, f"n={n} bounds={bounds}"
                assert silent == (not decoded), f"n={n} bounds={bounds}"
                verdicts.add(quiet)
        assert verdicts == {True, False}

    def test_silence_follows_the_templates(self, monkeypatch):
        # only the path's signature is loud at n <= 9.  With every tree
        # signature loud, or every other one (trees that share their degrees
        # but not their signature then split), the scan must give the records
        # of a per-tree decode on whole orders and on ranges
        rng = random.Random(16)
        for n in range(2, 8):
            decoded = []  # (graph6, signature) per rank
            for seq in itertools.product(range(n), repeat=n - 2):
                tree = Graph.from_edges(n, _kernel.prufer_edges(seq, n))
                decoded.append((write_graph6(tree), _kernel.tree_signature(tree)))
            total = len(decoded)
            ranges = [(0, total)] + [tuple(sorted(rng.sample(range(total + 1), 2)))
                                     for _ in range(3)]
            for every in (1, 2):
                loud = set(_kernel.tree_signatures(n)[::every])
                monkeypatch.setattr(_kernel, "_template", lambda n, key, sel, loud=loud: (
                    ((("FAKE", str(key), str(n)),), ()) if key in loud else ()))
                for lo, hi in ranges:
                    scan = flat_partial(_kernel.scan_tree_ranks(n, lo, hi, ALL_BOUND_IDS))
                    assert scan["seen"] == scan["checked"] == hi - lo
                    assert scan["discrepancies"] == []
                    want = sorted((g6, "FAKE", str(key), str(n))
                                  for g6, key in decoded[lo:hi] if key in loud)
                    assert scan["violations"] == want, (
                        f"diverges on ranks [{lo}, {hi}) at n={n} every={every}")

    def test_sweep_equals_scan(self):
        cases = (
            # cut inside n = 8, a silent order
            SweepConfig(n_min=4, n_max=9, trees=True, bounds=("TREE_EDGE",),
                        max_graphs=16 + 125 + 1296 + 16807 + 5000),
            # n = 2, 3 silent, n = 4, 5 loud
            SweepConfig(n_min=2, n_max=5, trees=True),
            # cut inside n = 6, a loud order
            SweepConfig(n_min=2, n_max=7, trees=True, bounds=["LOWER_ELL", "M1_F"],
                        max_graphs=1 + 1 + 3 + 16 + 125 + 700),
        )
        for cfg in cases:
            want = report_dict(helpers.tree_scan_report(cfg))
            assert want["graphs_seen"] == (cfg.max_graphs or 1 + 3 + 16 + 125)
            assert report_dict(run_sweep(cfg)) == want, cfg
        assert want["equality_discrepancies"]

    def test_only_loud_orders_are_decoded(self, monkeypatch):
        # under all bounds n = 2, 3 are silent: a tree sweep over 2..6 decodes
        # trees of n = 4, 5, 6 only, and reports what a per-tree sweep does
        decoded = set()
        prufer_edges = _kernel.prufer_edges
        monkeypatch.setattr(_kernel, "prufer_edges",
                            lambda seq, n: decoded.add(n) or prufer_edges(seq, n))
        cfg = SweepConfig(n_min=2, n_max=6, trees=True)
        rep = run_sweep(cfg)
        assert decoded == {4, 5, 6}
        assert rep.graphs_seen == rep.graphs_checked == 1 + 3 + 16 + 125 + 1296
        assert report_dict(rep) == report_dict(run_sweep(cfg, engine="reference"))

    def test_no_pool_without_chunks(self, monkeypatch, capsys):
        # tree sweeps are serial whatever --jobs says, silent or loud, and a
        # silent one decodes no tree
        monkeypatch.setattr(multiprocessing, "Pool", _refuse)
        assert _cli_summary(monkeypatch, capsys, ["trees", "--n-max", "8"]) == (
            0, [TREES_4_8, TREES_4_8, 0, 46224])
        with monkeypatch.context() as patch:
            patch.setattr(_kernel, "prufer_edges", _refuse)
            trees_4_9 = TREES_4_8 + 9 ** 7
            assert _cli_summary(monkeypatch, capsys, ["trees", "--bounds", "TREE_EDGE"]) == (
                0, [trees_4_9, trees_4_9, 0, 0])


TREES_4_8 = sum(n ** (n - 2) for n in range(4, 9))


def _refuse(*args, **kwargs):
    raise AssertionError("started a pool or decoded a tree")


def _cli_summary(monkeypatch, capsys, argv, stdin=""):
    """Exit code and the first four counts of the CLI's summary line at --jobs 8."""
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = main(argv + ["--jobs", "8"])
    err = capsys.readouterr().err.splitlines()[-1]
    return code, [int(field.split("=")[1]) for field in err.split()[:4]]


class TestRunSweep:
    def test_merge_is_jobs_independent(self):
        # the report does not depend on how an order's masks are split into
        # scans or on the order in which their partials merge, so no --jobs
        # value could change it
        cfg = SweepConfig(n_min=2, n_max=6)
        split = SweepReport()
        for n, total in reversed(list(enumeration._enumerated_counts(cfg))):
            for lo in reversed(range(0, total, 3000)):
                split.merge(_kernel.scan_graph_masks(n, lo, min(lo + 3000, total), cfg.bounds,
                                                     cfg.connected_only))
        split.finalize()
        assert report_dict(split) == report_dict(run_sweep(cfg))

    def test_only_graph_scans_start_a_pool(self, monkeypatch, capsys):
        # no sweep starts a pool now, graph scans included: graph, dedup,
        # reference and stream sweeps run serially whatever --jobs says
        monkeypatch.setattr(multiprocessing, "Pool", _refuse)
        for argv, want in (
                (["sweep", "--n-max", "5"], [2 + 8 + 64 + 1024, 1 + 4 + 38 + 728, 0, 356]),
                (["sweep", "--n-max", "6", "--dedup"], [33866, 142, 0, 40]),
                (["trees", "--n-min", "2", "--n-max", "8", "--dedup"],
                 [TREES_4_8 + 4, 47, 0, 10])):
            assert _cli_summary(monkeypatch, capsys, argv) == (0, want), argv
        assert _cli_summary(monkeypatch, capsys, ["sweep", "--stdin-graph6"],
                            "Ch\nzzz!\nD~{\n") == (2, [3, 2, 0, 2])
        cfg = SweepConfig(n_min=2, n_max=5)
        assert report_dict(run_sweep(cfg, engine="reference")) == report_dict(run_sweep(cfg))

    def test_cuts_inside_an_n7_block(self):
        # a --max-graphs cut leaves the last block of its order partial, the
        # one block of the scan that sums its keys directly
        for cfg, records in ((SweepConfig(n_min=7, n_max=7, connected_only=False,
                                          max_graphs=5_000), 0),  # inside block 4
                             # the first mask of block 32, whose high part is edge (0, 6)
                             (SweepConfig(n_min=7, n_max=7, max_graphs=(1 << 15) + 1), 0),
                             # block 34, past its first records
                             (SweepConfig(n_min=7, n_max=7, max_graphs=35_712), 12)):
            fast = report_dict(run_sweep(cfg))
            assert fast == report_dict(run_sweep(cfg, engine="reference")), cfg
            assert fast["graphs_seen"] == cfg.max_graphs
            assert len(fast["equality_discrepancies"]) == records, cfg

    def test_lower_ell_gap_at_n4(self):
        cfg = SweepConfig(n_min=4, n_max=4, bounds=("LOWER_ELL",))
        rep = run_sweep(cfg)
        assert rep.violations == []
        gap_graphs = {
            d.graph6 for d in rep.equality_discrepancies if d.bound_id == "LOWER_ELL"
        }
        # all 12 labeled paths on 4 vertices show equality outside the classes
        import itertools
        paths = set()
        for perm in itertools.permutations(range(4)):
            if perm[0] < perm[-1]:  # one orientation per path
                paths.add(write_graph6(Graph.from_edges(4, list(zip(perm, perm[1:])))))
        assert len(paths) == 12
        assert paths <= gap_graphs

    def test_max_graphs_cap(self):
        cfg = SweepConfig(n_min=4, n_max=4, max_graphs=10)
        rep = run_sweep(cfg)
        assert rep.graphs_seen == 10

    def test_trees_sweep_small(self):
        cfg = SweepConfig(n_min=4, n_max=5, trees=True, bounds=("TREE_EDGE",))
        rep = run_sweep(cfg)
        assert rep.graphs_seen == 16 + 125
        assert rep.graphs_checked == 141
        assert rep.violations == []

    def test_tree_engines_agree(self):
        cfg = SweepConfig(n_min=2, n_max=6, trees=True)
        fast = run_sweep(cfg)
        ref = run_sweep(cfg, engine="reference")
        assert report_dict(fast) == report_dict(ref)

    def test_tree_engines_agree_on_large_samples(self):
        rng = random.Random(42)
        for n in (8, 9):
            for _ in range(150):
                seq = tuple(rng.randrange(n) for _ in range(n - 2))
                g = Graph.from_edges(n, _kernel.prufer_edges(seq, n))
                fast = per_graph_partial(_kernel.check_graph_kernel, g, ALL_BOUND_IDS, True)
                ref = per_graph_partial(check_graph_reference, g, ALL_BOUND_IDS, True)
                assert flat_partial(fast) == flat_partial(ref), f"diverges on tree n={n} seq={seq}"

    def test_tiny_trees_skip_tree_edge_bound(self):
        cfg = SweepConfig(n_min=2, n_max=3, trees=True, bounds=("TREE_EDGE",))
        rep = run_sweep(cfg)
        assert rep.graphs_seen == 1 + 3
        assert rep.graphs_checked == 4
        assert rep.violations == [] and rep.equality_discrepancies == []

    def test_external_stream(self):
        lines = ["C~", "bogus~line", "Ch"]
        rep = run_sweep(SweepConfig(n_min=2, n_max=7), graphs=stream_graph6(lines))
        assert rep.graphs_seen == 3
        assert rep.graphs_checked == 2
        assert rep.violations == []

    def test_stream_engines_agree(self):
        # a seeded stream through both engines: orders 8..12 through the slot
        # tables, 63..80 through the long header and the matrix decode, with
        # disconnected graphs and isolated vertices, and graphs with records
        rng = random.Random(20261020)
        lines = [write_graph6(path_graph(9)), "IBjFFB_w?", write_graph6(h2_graph())]
        for n in [*(rng.randint(8, 12) for _ in range(800)), *range(63, 81)]:
            w = [rng.uniform(0.3, 1.0) for _ in range(n)]
            if rng.random() < 0.25:
                w[rng.randrange(n)] = 0.0  # an isolated vertex
            edges = tuple((i, j) for i in range(n) for j in range(i + 1, n)
                          if rng.random() < w[i] * w[j])
            lines.append(write_graph6(Graph(n, edges)))
        graphs = [parse_graph6(line) for line in lines]
        assert {0 in [len(nb) for nb in g.neighbors()] for g in graphs} == {True, False}
        for connected_only in (True, False):
            cfg = SweepConfig(n_min=2, n_max=7, connected_only=connected_only)
            fast = report_dict(run_sweep(cfg, graphs=stream_graph6(lines)))
            ref = report_dict(run_sweep(cfg, graphs=stream_graph6(lines), engine="reference"))
            assert fast == ref, connected_only
            assert fast["equality_discrepancies"]
            assert (fast["graphs_checked"] < len(lines)) == connected_only

    def test_each_check_runs_once_per_checked_graph(self, monkeypatch):
        # the sweep loop alone decides what is checked: each engine's check
        # runs on every graph with an edge that connected_only keeps, once,
        # with its connectivity, and on no edgeless graph, bad line or
        # disconnected graph that connected_only drops
        graphs = [Graph(4), Graph.from_edges(5, [(0, 1), (2, 3)]),  # m < n - 1
                  Graph.from_edges(6, [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]),
                  path_graph(4), cycle_graph(5), h2_graph()]
        lines = [write_graph6(g) for g in graphs]
        lines.insert(3, "zzz!")
        calls = []
        for module, name in ((_kernel, "check_graph_kernel"),
                             (enumeration, "check_graph_reference")):
            def spy(g, connected, sel, check=getattr(module, name)):
                calls.append((g, connected))
                return check(g, connected, sel)

            monkeypatch.setattr(module, name, spy)
        for connected_only in (True, False):
            want = [(g, is_connected(g)) for g in graphs
                    if g.m and (is_connected(g) or not connected_only)]
            assert len(want) == (3 if connected_only else 5)
            cfg = SweepConfig(n_min=2, n_max=7, connected_only=connected_only)
            reports = []
            for engine in ("fast", "reference"):
                calls.clear()
                rep = run_sweep(cfg, graphs=stream_graph6(lines), engine=engine)
                assert calls == want, (engine, connected_only)
                assert (rep.graphs_seen, rep.graphs_checked) == (len(lines), len(want))
                reports.append(report_dict(rep))
            assert reports[0] == reports[1], connected_only
            assert reports[0]["equality_discrepancies"]

    @pytest.mark.parametrize("budget", [0, 1, 3])
    def test_stream_cut_pulls_no_item_past_it(self, budget):
        # a stream that fails when pulled past the cut: the sweep stops at
        # max_graphs items, on both engines
        def stream():
            yield from itertools.islice(itertools.cycle([parse_graph6("Ch"), path_graph(5)]),
                                        budget)
            raise AssertionError("pulled past the --max-graphs cut")

        for engine in ("fast", "reference"):
            cfg = SweepConfig(n_min=2, n_max=7, max_graphs=budget)
            rep = run_sweep(cfg, graphs=stream(), engine=engine)
            assert (rep.graphs_seen, rep.graphs_checked) == (budget, budget), engine

    def test_external_large_graph(self):
        rep = run_sweep(SweepConfig(n_min=2, n_max=7), graphs=iter([h3_graph()]))
        assert rep.graphs_checked == 1
        assert rep.violations == []
        assert rep.equality_discrepancies == []

    def test_connected_filter_accounts_disconnected(self):
        cfg = SweepConfig(n_min=4, n_max=4)
        rep = run_sweep(cfg)
        assert rep.graphs_seen == 64
        assert rep.graphs_checked == 38

    def test_disconnected_included_when_requested(self):
        cfg = SweepConfig(n_min=4, n_max=4, connected_only=False)
        rep = run_sweep(cfg)
        ref = run_sweep(cfg, engine="reference")
        assert rep.graphs_seen == 64
        assert rep.graphs_checked == 63  # everything but the edgeless graph
        assert rep.violations == []
        assert report_dict(rep) == report_dict(ref)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(n_min=5, n_max=4))
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(n_min=2, n_max=8))
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(n_min=2, n_max=10, trees=True))
        with pytest.raises(ValueError):
            run_sweep(SweepConfig(n_min=2, n_max=4, bounds=("NOT_A_BOUND",)))
        for trees in (False, True):
            with pytest.raises(ValueError, match="no bound ids"):
                run_sweep(SweepConfig(n_min=2, n_max=4, bounds=(), trees=trees))
        # a stream skips only the enumeration range checks
        for cfg in (SweepConfig(n_min=5, n_max=4), SweepConfig(n_min=2, n_max=4, max_graphs=-1),
                    SweepConfig(n_min=2, n_max=4, bounds=("NOT_A_BOUND",)),
                    SweepConfig(n_min=2, n_max=4, bounds=[])):
            with pytest.raises(ValueError):
                run_sweep(cfg, graphs=iter([]))
        assert run_sweep(SweepConfig(n_min=2, n_max=40), graphs=iter([])).graphs_seen == 0

    @pytest.mark.parametrize("flag", ["dedup", "trees"])
    def test_stream_rejects_enumeration_modes(self, flag):
        cfg = SweepConfig(n_min=2, n_max=6, **{flag: True})
        with pytest.raises(ValueError, match="stdin-graph6"):
            run_sweep(cfg, graphs=stream_graph6(["Ch\n", "Ch\n", "C^\n"]))

    def test_bounds_as_list(self):
        # the kernel caches its signature templates by the selection, a list
        # turned into the frozenset that keys the cache
        chosen = ["LOWER_ELL", "EDGE_SECOND_MIN"]

        def reports(bounds):
            cfg = SweepConfig(n_min=2, n_max=5, bounds=bounds)
            return [rep.to_dict(include_timing=False) for rep in (
                run_sweep(cfg),
                run_sweep(cfg, engine="reference"),
                run_sweep(cfg, graphs=stream_graph6(["Ch", "DQc", "zzz"])),
            )]

        got = reports(chosen)
        assert got == reports(tuple(chosen))
        assert all(rep["equality_discrepancies"] for rep in got)

    def test_dedup_counts_classes(self):
        rep = run_sweep(SweepConfig(n_min=4, n_max=4, dedup=True))
        assert rep.graphs_checked == 6
        assert rep.graphs_seen == 64


def _dedup_oracle(cfg: SweepConfig) -> dict:
    """The first graph of each canonical_form class in enumeration order,
    checked by the reference path; the report is built from their flat
    records (:func:`helpers.oracle_report`)."""
    seen = checked = 0
    violations, discrepancies = [], []
    forms = set()
    for g in helpers.enumerated(cfg):
        seen += 1
        form = canonical_form(g)
        if form not in forms:
            forms.add(form)
            partial = flat_partial(per_graph_partial(check_graph_reference, g, cfg.bounds,
                                                     cfg.connected_only))
            checked += partial["checked"]
            violations += partial["violations"]
            discrepancies += partial["discrepancies"]
    return report_dict(oracle_report(seen, checked, violations, discrepancies))


# OEIS A000088 (graphs), A001349 (connected graphs), A000055 (trees), by n
GRAPH_CLASSES = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156}
CONNECTED_CLASSES = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112}
TREE_CLASSES = {2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23, 9: 47}


class TestDedupSweep:
    """The orbit-flagging walk (graphs) and the class-key walk (trees) check
    exactly the first graph of each class."""

    def test_graphs_match_oracle(self):
        for connected_only in (True, False):
            cfg = SweepConfig(n_min=1, n_max=5, dedup=True, connected_only=connected_only)
            assert report_dict(run_sweep(cfg)) == _dedup_oracle(cfg), connected_only

    def test_trees_match_oracle(self):
        cfg = SweepConfig(n_min=2, n_max=7, dedup=True, trees=True)
        assert report_dict(run_sweep(cfg)) == _dedup_oracle(cfg)

    def test_max_graphs_cut_inside_one_n(self):
        cases = (
            SweepConfig(n_min=2, n_max=5, dedup=True, connected_only=False,
                        max_graphs=2 + 8 + 64 + 300),
            SweepConfig(n_min=2, n_max=6, dedup=True, trees=True,
                        max_graphs=1 + 1 + 3 + 16 + 125 + 500),
            # the last tree class on 7 vertices turns up at rank 466, so this
            # cut ends the tree walk before it has met every class
            SweepConfig(n_min=6, n_max=7, dedup=True, trees=True, max_graphs=6 ** 4 + 400),
        )
        for cfg in cases:
            rep = run_sweep(cfg)
            assert rep.graphs_seen == cfg.max_graphs
            assert report_dict(rep) == _dedup_oracle(cfg)

    def test_class_counts_match_oeis(self):
        # the edgeless graph is a class of its own but has nothing to check
        for n, count in GRAPH_CLASSES.items():
            cfg = SweepConfig(n_min=n, n_max=n, dedup=True, connected_only=False)
            assert run_sweep(cfg).graphs_checked == count - 1, n
        for n, count in CONNECTED_CLASSES.items():
            cfg = SweepConfig(n_min=n, n_max=n, dedup=True)
            assert run_sweep(cfg).graphs_checked == (count if n > 1 else 0), n
        for n, count in TREE_CLASSES.items():
            rep = run_sweep(SweepConfig(n_min=n, n_max=n, dedup=True, trees=True))
            assert rep.graphs_checked == count, n
            assert rep.graphs_seen == n ** (n - 2)

    def test_runs_the_engine_it_is_given(self, monkeypatch):
        # each engine's check runs once on the first graph of every class met
        # that is checked, here every connected class, the other engine's
        # never, and the two reports are equal
        calls = []
        for module, name in ((_kernel, "check_graph_kernel"),
                             (enumeration, "check_graph_reference")):
            monkeypatch.setattr(module, name, lambda g, *rest, name=name, check=getattr(module, name):
                                calls.append(name) or check(g, *rest))
        cases = ((SweepConfig(n_min=2, n_max=5, dedup=True),
                  sum(CONNECTED_CLASSES[n] for n in range(2, 6))),
                 (SweepConfig(n_min=2, n_max=7, dedup=True, trees=True),
                  sum(TREE_CLASSES[n] for n in range(2, 8))))
        for cfg, classes in cases:
            reports = []
            for engine, name in (("fast", "check_graph_kernel"),
                                 ("reference", "check_graph_reference")):
                calls.clear()
                reports.append(report_dict(run_sweep(cfg, engine=engine)))
                assert calls == [name] * classes, (cfg.trees, engine)
            assert reports[0] == reports[1], cfg.trees


CONFIG = {"n_min": 2, "n_max": 7, "connected_only": True, "dedup": False,
          "bounds": list(ALL_BOUND_IDS), "max_graphs": None, "trees": False}
LOWER_ELL_CLASSES = ("regular", "semiregular_bipartite", "gamma1")


def written(report: SweepReport) -> tuple[str, str]:
    """(report file, stdout) as the report's writers write them."""
    fh, out = io.StringIO(), io.StringIO()
    report.write_json(fh, CONFIG)
    report.write_lines(out)
    return fh.getvalue(), out.getvalue()


class TestReportWriters:
    """write_json and write_lines against json.dump of to_dict and the old print
    f-strings."""

    def assert_matches_oracle(self, report: SweepReport):
        text, lines = written(report)
        assert text == oracle_report_text(report, CONFIG)
        assert lines == oracle_record_lines(report)

    def test_no_records(self):
        self.assert_matches_oracle(SweepReport(graphs_seen=5, graphs_checked=0, wall_time=0.25))

    @pytest.mark.parametrize("block", [1, 2, 64, 1024])
    def test_every_record_shape(self, monkeypatch, block):
        # no real sweep has a violation, so only a report built by hand covers them
        monkeypatch.setattr(enumeration, "WRITE_BLOCK", block)
        gap = ("LOWER_ELL", LOWER_ELL_CLASSES, ("semiregular_bipartite",), True)
        report = SweepReport(
            graphs_seen=12, graphs_checked=9,
            violations=[
                Violation("C\\", "GA_SIMPLE", "2.8856180831641267", "2.885618083164126"),
                Violation("Ch", "LOWER_ELL", "13/10", "7/5"),
                Violation("Ch", "UPPER_K", "3", "50%"),
            ],
            equality_discrepancies=[
                EqualityDiscrepancy("C\\", *gap),
                EqualityDiscrepancy("C^", "EDGE_MIN", ("pair (dmax,dmin)",), ("(3,1)", "(2,2)"),
                                    True),
                EqualityDiscrepancy("Ch", *gap),
                EqualityDiscrepancy("D\\w", "RATIO_CONSTANT", ("regular",), (), False),
                EqualityDiscrepancy("D]w", *gap),
            ],
            wall_time=1.5e-05,
        )
        self.assert_matches_oracle(report)
        text, lines = written(report)
        assert '"graph6": "C\\\\",' in text  # the backslash JSON-escaped
        assert "\nequality_discrepancy LOWER_ELL C\\ " in lines  # and raw
        assert '"actual_classification": [],' in text
        assert " D\\w equality=False expected_one_of=regular actual=none\n" in lines

    def test_real_sweep(self, monkeypatch):
        monkeypatch.setattr(enumeration, "WRITE_BLOCK", 7)
        report = run_sweep(SweepConfig(n_min=2, n_max=5, connected_only=False))
        assert len(report.equality_discrepancies) > 7
        self.assert_matches_oracle(report)

    def test_sort_keys_are_distinct(self):
        # the report order's (graph6, bound_id) keys order the records totally,
        # so the output does not depend on the order in which partial reports
        # merge
        for cfg in (SweepConfig(n_min=1, n_max=6, connected_only=False),
                    SweepConfig(n_min=4, n_max=8, trees=True)):
            report = run_sweep(cfg)
            for records in (report.violations, report.equality_discrepancies):
                keys = [(r.graph6, r.bound_id) for r in records]
                assert len(set(keys)) == len(keys), cfg
            assert report.equality_discrepancies, cfg


class TestReportOrder:
    """Reports merged from per-graph entries against reports built from flat
    records sorted by (graph6, bound_id[, lhs, rhs]) in ``helpers.oracle_report``."""

    @staticmethod
    def assert_matches(report: SweepReport, want: SweepReport):
        want.wall_time = report.wall_time
        assert report_dict(report) == report_dict(want)
        assert (report.violation_count, report.discrepancy_count) == (
            len(want.violations), len(want.equality_discrepancies))
        assert written(report) == (oracle_report_text(want, CONFIG), oracle_record_lines(want))

    @pytest.mark.parametrize("block", [1, 3, 64, 1024])
    def test_stream_holding_a_graph_twice(self, monkeypatch, block):
        # the two copies of a loud graph have the same records; in report
        # order they interleave by bound, not copy after copy
        monkeypatch.setattr(enumeration, "WRITE_BLOCK", block)
        lines = ["Ch", "D\\o", "C~", "DQc", write_graph6(h2_graph()), "zzz!", "Ch", "D\\o",
                 write_graph6(path_graph(9)), "Cr"]
        random.Random(26).shuffle(lines)
        cfg = SweepConfig(n_min=2, n_max=7)
        report = run_sweep(cfg, graphs=stream_graph6(lines))
        want = helpers.oracle_checked_report(stream_graph6(lines), cfg)
        assert report.graphs_seen == len(lines) and report.graphs_checked == len(lines) - 1
        bounds = [d.bound_id for d in report.equality_discrepancies if d.graph6 == "Ch"]
        assert bounds == ["EDGE_SECOND_MIN"] * 2 + ["LOWER_ELL"] * 2
        self.assert_matches(report, want)

    @pytest.mark.parametrize("block", [1, 2, 64, 1024])
    def test_repeated_graph6_entries_built_by_hand(self, monkeypatch, block):
        # no real sweep has a violation, and no real graph gives one graph6
        # two different records: entries built by hand do, in merge order
        monkeypatch.setattr(enumeration, "WRITE_BLOCK", block)
        gap = ("LOWER_ELL", LOWER_ELL_CLASSES, ("gamma2",), True)
        other_gap = ("LOWER_ELL", LOWER_ELL_CLASSES, ("semiregular_bipartite",), False)
        ratio = ("RATIO_CONSTANT", ("regular",), (), False)
        partials = [
            {"seen": 3, "checked": 2, "entries": [
                ("Ch", ((("UPPER_K", "3", "5/2"), ("LOWER_ELL", "13/10", "7/5")),
                        (ratio, gap))),
                ("C\\", ((), (("EDGE_MIN", ("pair (dmax,dmin)",), ("(3,1)",), True),)))]},
            {"seen": 1, "checked": 1, "entries": [
                ("Ch", ((("LOWER_ELL", "1", "2"),), (other_gap,)))]},
            {"seen": 2, "checked": 1, "entries": [
                ("C\\", ((("GA_SIMPLE", "2.5", "2.6"),), ())),
                ("Ch", ((("LOWER_ELL", "13/10", "7/5"),), (gap, ratio)))]},
        ]
        report = SweepReport()
        for partial in partials:
            report.merge(partial)
        report.finalize()
        records = [helpers.flat_records(p["entries"]) for p in partials]
        want = oracle_report(6, 4, [rec for v, _ in records for rec in v],
                             [rec for _, d in records for rec in d])
        assert [d.actual_classification for d in want.equality_discrepancies
                if d.graph6 == "Ch" and d.bound_id == "LOWER_ELL"] == [
            ("gamma2",), ("semiregular_bipartite",), ("gamma2",)]
        self.assert_matches(report, want)

    @pytest.mark.parametrize("cfg", [
        # inside n = 5 and inside n = 6, orders with records
        SweepConfig(n_min=2, n_max=5, max_graphs=2 + 8 + 64 + 700),
        SweepConfig(n_min=4, n_max=6, trees=True, max_graphs=16 + 125 + 700),
    ], ids=["graphs", "trees"])
    def test_max_graphs_cut_inside_a_loud_order(self, cfg):
        report = run_sweep(cfg)
        want = helpers.oracle_checked_report(helpers.enumerated(cfg), cfg)
        assert report.graphs_seen == cfg.max_graphs
        assert report.equality_discrepancies[-1].graph6[0] == chr(63 + cfg.n_max)
        self.assert_matches(report, want)

    def test_records_arrive_in_report_order(self):
        # every records value is in report order where it is made, so
        # finalize has only the entries to sort: the graph scans' and tree
        # scans' templates, and the per-graph records _check_each keeps on a
        # stream and on the reference engine
        partials = []
        for n in range(1, 7):
            for connected_only in (True, False):
                partials.append(_kernel.scan_graph_masks(n, 0, 1 << n * (n - 1) // 2,
                                                         ALL_BOUND_IDS, connected_only))
        for n in range(2, 9):
            partials.append(_kernel.scan_tree_ranks(n, 0, n ** (n - 2), ALL_BOUND_IDS))
        rng = random.Random(33)
        lines = [write_graph6(g) for g in helpers.equality_cases()]
        lines += ["Ch", "D\\o", "C~", "DQc", write_graph6(path_graph(9)), "zzz!"]
        for _ in range(300):
            n = rng.randint(8, 12)
            lines.append(write_graph6(Graph.from_edges(n, [
                (i, j) for j in range(n) for i in range(j) if rng.random() < 0.4])))
        rng.shuffle(lines)
        for connected_only in (True, False):
            cfg = SweepConfig(n_min=1, n_max=1, connected_only=connected_only)
            partials.append(enumeration._check_each(cfg, stream_graph6(lines),
                                                    _kernel.check_graph_kernel))
            for n in range(1, 6):
                partials.append(enumeration._check_each(cfg, labeled_graphs(n),
                                                        check_graph_reference))
        entries = [entry for partial in partials for entry in partial["entries"]]
        assert all(records == _kernel.in_report_order(records) for _, records in entries)
        assert len(entries) > 20_000
        # the reference checks leave some graphs' records out of report order
        sel = frozenset(ALL_BOUND_IDS)
        raw = [check_graph_reference(g, graphs_module.graph_connected(g), sel)
               for g in map(parse_graph6, dict.fromkeys(map(operator.itemgetter(0), entries)))
               if g.n <= 5]
        assert any(records != _kernel.in_report_order(records) for records in raw)

    def test_finalize_keeps_the_merged_entries(self):
        # with no graph6 twice, finalize only sorts: the entries are the
        # tuples that were merged, by graph6
        merged = []
        report = SweepReport()
        for n, total in reversed(list(enumeration._enumerated_counts(SweepConfig(2, 6)))):
            for lo in reversed(range(0, total, 5000)):
                partial = _kernel.scan_graph_masks(n, lo, min(lo + 5000, total),
                                                   ALL_BOUND_IDS, True)
                merged += partial["entries"]
                report.merge(partial)
        report.finalize()
        want = sorted(merged, key=operator.itemgetter(0))
        assert len(report._entries) == len(want) > 1000
        assert all(map(operator.is_, report._entries, want))

    @pytest.mark.parametrize("seed", [1, 2])
    def test_flat_lists_in_any_order(self, seed):
        # the constructor groups flat records by graph6, sorts the graphs and
        # puts each graph's records in report order, so it needs no finalize
        real = run_sweep(SweepConfig(n_min=2, n_max=5, connected_only=False))
        gap = ("LOWER_ELL", LOWER_ELL_CLASSES, ("gamma2",), True)
        other_gap = ("LOWER_ELL", LOWER_ELL_CLASSES, ("semiregular_bipartite",), False)
        violations = [("Ch", "UPPER_K", "3", "5/2"), ("Ch", "LOWER_ELL", "13/10", "7/5"),
                      ("C\\", "GA_SIMPLE", "2.5", "2.6"), ("Ch", "LOWER_ELL", "1", "2")]
        discrepancies = [*map(tuple, real.equality_discrepancies), ("Ch", *gap),
                         ("Ch", *other_gap), ("Ch", "RATIO_CONSTANT", ("regular",), (), False),
                         ("Ch", *gap)]
        rng = random.Random(seed)
        rng.shuffle(violations)
        rng.shuffle(discrepancies)
        report = SweepReport(24, 20, violations, discrepancies)
        assert report.violations == sorted(violations, key=operator.itemgetter(0, 1, 2, 3))
        assert report.equality_discrepancies == sorted(discrepancies,
                                                       key=operator.itemgetter(0, 1))
        self.assert_matches(report, oracle_report(24, 20, violations, discrepancies))


class _Sink:
    """A text stream that discards what is written to it."""

    def write(self, text):
        pass

    def flush(self):
        pass


def _traced_peak(call) -> int:
    """The peak of the memory that ``call()`` allocates, in bytes, under tracemalloc."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module", params=[
    # the benchmark's graphs-n7 run (7,765 entries) and every tree on 4..9
    # vertices under every bound (204,552 entries)
    SweepConfig(n_min=2, n_max=7, max_graphs=300_000),
    SweepConfig(n_min=4, n_max=9, trees=True),
], ids=["graphs-n7", "all-trees"])
def merged_report(request):
    """A sweep's report, merged but not finalized."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(SweepReport, "finalize", lambda report: None)
        return run_sweep(request.param)


class TestReportMemory:
    """finalize sorts the entries in place, and the writers hold one block of
    WRITE_BLOCK graphs' text at a time, whatever the report's size."""

    def test_finalize_allocates_the_sort_keys_alone(self, merged_report):
        # list.sort with a key holds one key per entry and, while merging
        # runs, a buffer of at most half the keys and entries: 16 B per
        # entry in all
        entries = len(merged_report._entries)
        peak = _traced_peak(merged_report.finalize)
        assert peak <= 16 * entries + 16_384, (peak, entries)

    @pytest.mark.parametrize("writer", ["write_json", "write_lines"])
    def test_writers_hold_one_block(self, merged_report, writer):
        merged_report.finalize()
        args = (_Sink(), CONFIG) if writer == "write_json" else (_Sink(),)
        peak = _traced_peak(lambda: getattr(merged_report, writer)(*args))
        assert peak < 300_000, peak
