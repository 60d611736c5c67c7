import ast
import dataclasses
import itertools
import math
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from iterlinopt import (
    ElliptopeError,
    GraphFormatError,
    MaxcutReport,
    RoundingReport,
    WeightedGraph,
    brute_force_maxcut,
    cut_value,
    gram_factor,
    gram_to_matrix,
    gw_hyperplane_round,
    l3_census,
    l4_family,
    load_graph,
    maxcut_pipeline,
    relaxation_cost,
    round_by_iteration,
    solve_relaxation,
)
from iterlinopt import maxcut
from iterlinopt.elliptope import ROW_TOL
from iterlinopt.maxcut import GAP_TOL, HYPERPLANES, ROUND_STEPS


def complete_graph(n, w=1.0):
    return WeightedGraph(n, [(u, v, w) for u in range(n) for v in range(u + 1, n)])


def path_graph(n, w=1.0):
    return WeightedGraph(n, [(k, k + 1, w) for k in range(n - 1)])


def _benchmark_graphs(seed):
    """The maxcut workload's first pass of graphs at seed (perfbench/)."""
    bench = str(Path(__file__).resolve().parents[1] / "perfbench")
    sys.path.insert(0, bench)
    try:
        import workloads
    finally:
        sys.path.remove(bench)
    return [WeightedGraph(n, edges) for _, (n, edges) in
            workloads.maxcut_instances(np.random.default_rng([seed, 1, 0]))]


K3 = complete_graph(3)
# non-vertex fixed points whose rounding chains escape: members of the L4
# family and the identity on K4, and an L3 face point on K3
ESCAPING_STARTS = [(l4_family(0.3), complete_graph(4)),
                   (l4_family(-0.7), complete_graph(4)),
                   (np.eye(4), complete_graph(4)),
                   ([p.matrix for p in l3_census() if p.family == "face"][0], K3)]


class TestGraphIO:
    def test_file_not_in_utf8_rejected(self, tmp_path):
        p = tmp_path / "bin.txt"
        p.write_bytes(b"\xff\xfe0 1\n")
        with pytest.raises(GraphFormatError, match="bin.txt: not UTF-8 text"):
            load_graph(p)

    def test_triangle(self, tmp_path):
        p = tmp_path / "k3.txt"
        p.write_text("0 1 1.0\n1 2 1.0\n0 2 1.0\n")
        g = load_graph(p)
        assert g.n == 3
        assert g.edges == ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0))

    @pytest.mark.parametrize("w", [1e308, float(np.finfo(float).max) / 35.0])
    def test_weights_whose_sums_overflow_rejected(self, tmp_path, w):
        # a triangle is rejected once 4 n^2 |w|_max, 36 w, overflows
        p = tmp_path / "k3.txt"
        p.write_text(f"0 1 {w!r}\n1 2 {w!r}\n0 2 {w!r}\n")
        with pytest.raises(GraphFormatError, match="k3.txt: edge weights too large"):
            load_graph(p)

    def test_default_weight(self, tmp_path):
        p = tmp_path / "e.txt"
        p.write_text("0 1\n")
        g = load_graph(p)
        assert g.edges == ((0, 1, 1.0),)

    def test_comments_and_blank_lines(self, tmp_path):
        p = tmp_path / "c.txt"
        p.write_text("# header\n\n0 1 2.0  # inline\n")
        assert load_graph(p).edges == ((0, 1, 2.0),)

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "loop.txt"
        p.write_text("0 1 1.0\n0 0 1.0\n")
        with pytest.raises(GraphFormatError, match=":2:"):
            load_graph(p)

    def test_malformed_line(self, tmp_path):
        p = tmp_path / "bad.txt"
        p.write_text("0 one 1.0\n")
        with pytest.raises(GraphFormatError, match=":1:"):
            load_graph(p)

    def test_negative_index(self, tmp_path):
        p = tmp_path / "neg.txt"
        p.write_text("-1 2\n")
        with pytest.raises(GraphFormatError):
            load_graph(p)

    def test_non_finite_weight_rejected_with_line_number(self, tmp_path):
        p = tmp_path / "nan.txt"
        p.write_text("0 1 1.0\n1 2 nan\n")
        with pytest.raises(GraphFormatError, match=":2: edge weight is not finite"):
            load_graph(p)

    def test_duplicates_summing_to_infinity_rejected(self, tmp_path):
        p = tmp_path / "big.txt"
        p.write_text("0 1 1e308\n1 0 1e308\n")
        with pytest.warns(UserWarning), \
                pytest.raises(GraphFormatError, match=":2:"):
            load_graph(p)

    def test_file_without_edges_rejected(self, tmp_path):
        p = tmp_path / "empty.txt"
        p.write_text("# nothing here\n\n")
        with pytest.raises(GraphFormatError, match="no edges"):
            load_graph(p)

    def test_duplicates_summed_with_warning(self, tmp_path):
        p = tmp_path / "dup.txt"
        p.write_text("0 1 1.0\n1 0 2.0\n")
        with pytest.warns(UserWarning):
            g = load_graph(p)
        assert g.edges == ((0, 1, 3.0),)


class TestCutArithmetic:
    def test_cost_is_negated_weights(self):
        c = relaxation_cost(K3)
        w = K3.weight_matrix()
        assert np.array_equal(c, -w)
        assert np.all(np.diag(c) == 0.0)

    def test_cut_value_examples(self):
        assert cut_value(K3, [1, 1, -1]) == 2.0
        assert cut_value(K3, [1, 1, 1]) == 0.0
        g = WeightedGraph(2, [(0, 1, 2.5)])
        assert cut_value(g, [1, -1]) == 2.5

    def test_cancelling_weights_are_summed_exactly(self):
        g = WeightedGraph(4, [(0, 1, 1e16), (0, 2, 1.0), (0, 3, -1e16)])
        assert cut_value(g, [1, -1, -1, -1]) == 1.0
        assert g.total_weight == 1.0

    def test_cut_value_length_check(self):
        with pytest.raises(ValueError):
            cut_value(K3, [1, -1])


def torus(rows, cols, weights):
    """The rows x cols toroidal grid (rows, cols >= 3), its edges in sorted
    order weighted by ``weights``."""
    edges = set()
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            for v in (((i + 1) % rows) * cols + j, i * cols + (j + 1) % cols):
                edges.add((min(u, v), max(u, v)))
    return WeightedGraph(rows * cols, [(u, v, float(w)) for (u, v), w
                                       in zip(sorted(edges), weights)])


def signed_torus(rows, cols, rng):
    return torus(rows, cols, (rng.choice((-1.0, 1.0))
                              for _ in range(2 * rows * cols)))


def enumerated_maxcut(g):
    """Reference: every sign vector with s_0 = +1, bit k of the counter
    flipping vertex k+1, the first of equal cuts kept."""
    best_val, best_signs = -np.inf, None
    # product varies its last entry fastest, which is bit 0 of the counter
    for bits in itertools.product((1, -1), repeat=g.n - 1):
        s = (1,) + bits[::-1]
        val = sum(w for u, v, w in g.edges if s[u] != s[v])
        if val > best_val:
            best_val, best_signs = val, s
    return np.array(best_signs), float(best_val)


def counter_signs(bits, count):
    """Reference: row i of the counter flips entry count - bits + k when
    bit k of i is set."""
    s = np.ones((1 << bits, count))
    s[:, count - bits:] = 1.0 - 2.0 * ((np.arange(1 << bits)[:, None]
                                        >> np.arange(bits)) & 1)
    return s


def _chunked_reference(g, block=1 << 15):
    """Reference: brute_force_maxcut's float64 table, built with
    column_stack and vstack and scored in a fresh array of ``block``
    entries per product."""
    low = g.n // 2
    a = low + 1
    w_upper = np.triu(g.weight_matrix())
    s_a, s_b = counter_signs(low, a), counter_signs(g.n - a, g.n - a)
    left = np.column_stack((s_b, np.sum((s_b @ w_upper[a:, a:]) * s_b, axis=1),
                            np.ones(len(s_b))))
    right = np.vstack((w_upper[:a, a:].T @ s_a.T, np.ones(len(s_a)),
                       np.sum((s_a @ w_upper[:a, :a]) * s_a, axis=1)))
    rows = block >> low
    best, best_k = np.inf, 0
    for k in range(0, len(left), rows):
        table = left[k:k + rows] @ right
        m = int(np.argmin(table))
        if table.flat[m] < best:
            best, best_k = table.flat[m], (k << low) + m
    j, i = divmod(best_k, 1 << low)
    signs = np.concatenate((s_a[i], s_b[j])).astype(int)
    return signs, cut_value(g, signs)


def assert_matches_chunked_reference(g):
    signs, val = brute_force_maxcut(g)
    ref_signs, ref_val = _chunked_reference(g)
    assert np.array_equal(signs, ref_signs)
    assert val.hex() == ref_val.hex()


def integer_torus_summing_to(total, rng):
    """A 4 x 5 torus with integer weights of both signs, sum of |w| total."""
    w = rng.integers(-(1 << 17), 1 << 17, size=40)
    w[-1] = total - np.abs(w[:-1]).sum()
    assert w[-1] > 0 and np.abs(w).sum() == total
    return torus(4, 5, w)


class TestBruteForce:
    @pytest.mark.parametrize("name", ["K5", "signed-torus", "random-weights",
                                      "float-weights-13", "n1", "n2",
                                      "n18-ties", "n18-high-bit"])
    def test_matches_plain_enumeration(self, name):
        rng = np.random.default_rng(11)
        if name == "K5":
            g = complete_graph(5)
        elif name == "signed-torus":
            g = signed_torus(3, 4, rng)
        elif name == "random-weights":
            g = WeightedGraph(9, [(u, v, float(rng.standard_normal()))
                                  for u in range(9) for v in range(u + 1, 9)
                                  if rng.random() < 0.6])
        elif name == "float-weights-13":
            g = WeightedGraph(13, [(u, v, float(rng.uniform(-1.0, 3.0)))
                                   for u in range(13) for v in range(u + 1, 13)
                                   if rng.random() < 0.5])
        elif name == "n1":
            g = WeightedGraph(1, [])
        elif name == "n2":
            g = WeightedGraph(2, [(0, 1, 1.5)])
        elif name == "n18-ties":
            # vertex 17 is isolated, so every optimum of the first chunk of
            # 2^16 vectors ties one of the second; the first must win
            g = WeightedGraph(18, [(k, k + 1, float(rng.choice((-1.0, 1.0))))
                                   for k in range(16)] + [(0, 9, 1.0)])
        else:
            # the heavy edge (0, 17) puts every optimum in the second chunk
            g = WeightedGraph(18, [(k, k + 1, 1.0) for k in range(17)]
                              + [(0, 17, 20.0)])
        signs, val = brute_force_maxcut(g)
        ref_signs, ref_val = enumerated_maxcut(g)
        assert np.array_equal(signs, ref_signs)
        assert val == pytest.approx(ref_val, rel=1e-12, abs=1e-12)

    def test_triangle(self):
        signs, val = brute_force_maxcut(K3)
        assert val == 2.0
        assert cut_value(K3, signs) == 2.0

    def test_complete_four(self):
        _, val = brute_force_maxcut(complete_graph(4))
        assert val == 4.0

    def test_path(self):
        _, val = brute_force_maxcut(path_graph(3))
        assert val == 2.0

    def test_cap(self):
        with pytest.raises(ValueError):
            brute_force_maxcut(WeightedGraph(23, []))

    def test_weighted(self):
        g = WeightedGraph(4, [(0, 1, 3.0), (1, 2, -1.0), (2, 3, 2.0), (0, 3, 0.5)])
        signs, val = brute_force_maxcut(g)
        # independent recount over all sign vectors
        best = max(
            sum(w for u, v, w in g.edges if (k >> u) & 1 != (k >> v) & 1)
            for k in range(16))
        assert val == best == cut_value(g, signs)

    def test_memory_is_bounded_at_the_cap(self):
        # the whole 2^10 x 2^11 table is 16 MiB in float64 and 8 MiB in
        # float32; a call peaks at about 0.9 MiB and 0.8 MiB
        rng = np.random.default_rng(3)
        edges = [(u, v, float(rng.standard_normal()))
                 for u in range(22) for v in range(u + 1, 22)
                 if rng.random() < 0.3]
        for g in (WeightedGraph(22, edges),
                  WeightedGraph(22, [(u, v, 1.0) for u, v, _ in edges])):
            tracemalloc.start()
            try:
                brute_force_maxcut(g)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20

    @pytest.mark.parametrize("bits", range(12))
    def test_signs_follow_the_counter(self, bits):
        for count in (bits, bits + 2):
            assert np.array_equal(maxcut._signs(bits, count),
                                  counter_signs(bits, count))

    def test_signs_tables_are_cached_read_only(self):
        # one table per (bits, count), shared by every call: a write to it
        # raises instead of changing the next brute force
        s = maxcut._signs(5, 7)
        assert maxcut._signs(5, 7) is s
        with pytest.raises(ValueError, match="read-only"):
            s[0, 0] = -1.0

    @pytest.mark.parametrize("n", range(2, 23))
    def test_real_weights_match_the_chunked_float64_table(self, n):
        rng = np.random.default_rng(n)
        g = WeightedGraph(n, [(u, v, float(rng.standard_normal()))
                              for u in range(n) for v in range(u + 1, n)
                              if v == u + 1 or rng.random() < 0.5])
        assert maxcut._table_dtype(g) is np.float64
        assert_matches_chunked_reference(g)

    @pytest.mark.parametrize("total, dtype", [
        pytest.param((1 << 23) - 1, np.float32, id="just-below-float32-bound"),
        pytest.param(1 << 23, np.float64, id="at-float32-bound"),
        pytest.param((1 << 23) + 1, np.float64, id="just-above-float32-bound")])
    def test_integer_weights_near_the_float32_bound(self, total, dtype):
        # 2 sum|w| < 2^24 keeps every table entry and partial sum an exact
        # float32 integer; the n = 20 torus spans 8 float32 blocks
        g = integer_torus_summing_to(total, np.random.default_rng(total))
        assert maxcut._table_dtype(g) is dtype
        assert_matches_chunked_reference(g)

    def test_half_integer_torus_keeps_float64(self):
        g = torus(4, 5, np.random.default_rng(5).choice((-0.5, 0.5, 1.5), 40))
        assert maxcut._table_dtype(g) is np.float64
        assert_matches_chunked_reference(g)


class TestRelaxation:
    def test_triangle_optimum_matches_symmetric_slice_scan(self):
        res = solve_relaxation(K3, seed=0)
        # independent oracle: scan the symmetric slice x(t), offdiag t
        ts = np.linspace(-0.5, 1.0, 30_001)
        best = max((6.0 - 6.0 * t) / 4.0 for t in ts)
        relaxed = (np.sum(K3.weight_matrix()) + res.objective) / 4.0
        assert relaxed == pytest.approx(best, abs=1e-8)
        off = res.matrix[~np.eye(3, dtype=bool)]
        assert np.max(np.abs(off + 0.5)) < 1e-6

    def test_single_edge_antipodal(self):
        g = WeightedGraph(2, [(0, 1, 1.0)])
        res = solve_relaxation(g)
        assert abs(res.matrix[0, 1] + 1.0) < 1e-9

    def test_seeded_relaxations_end_certified(self):
        # over-relaxed sweeps certify instead of running into the sweep cap
        rng = np.random.default_rng(8)
        for k in range(6):
            g = (signed_torus(4, 5, rng) if k % 2 else
                 WeightedGraph(20, [(u, v, 1.0) for u in range(20)
                                    for v in range(u + 1, 20)
                                    if rng.random() < 0.3]))
            res = solve_relaxation(g, seed=k)
            assert res.status in ("certified_gap", "certified_vertex")
            tol = GAP_TOL * max(1.0, abs(res.objective))
            assert res.objective <= res.upper_bound <= res.objective + tol

    def test_empty_graph_objective_zero(self):
        g = WeightedGraph(3, [])
        res = solve_relaxation(g)
        assert res.objective == 0.0


class TestHyperplaneRounding:
    def test_antipodal_rows_always_split(self):
        v = np.array([[1.0, 0.0], [-1.0, 0.0]])
        g = WeightedGraph(2, [(0, 1, 1.0)])
        _, val = gw_hyperplane_round(v, g, samples=16, seed=1)
        assert val == 1.0

    def test_triangle_optimum_cuts_two(self):
        res = solve_relaxation(K3, seed=0)
        _, val = gw_hyperplane_round(res.gram, K3, samples=64, seed=0)
        assert val == 2.0

    def test_identical_rows_cut_nothing(self):
        v = np.tile(np.array([1.0, 0.0]), (3, 1))
        _, val = gw_hyperplane_round(v, K3, samples=8, seed=0)
        assert val == 0.0

    @pytest.mark.parametrize("samples", [0, -1])
    def test_needs_a_sample(self, samples):
        with pytest.raises(ValueError, match="samples must be at least 1"):
            gw_hyperplane_round(np.eye(3), K3, samples=samples)

    def test_pipeline_rejects_negative_baseline_samples(self):
        # 0 means no baseline; a negative count is an error, not a baseline
        assert maxcut_pipeline(K3, baseline_samples=0).baseline_cut is None
        with pytest.raises(ValueError, match="samples must be at least 1"):
            maxcut_pipeline(K3, baseline_samples=-1)


class TestRounding:
    def test_vertex_input_returns_immediately(self):
        report = round_by_iteration(np.ones((3, 1)), graph=K3)
        assert report.terminal_status == "vertex"
        assert report.iterations == 0 and report.escapes == 0
        assert np.array_equal(report.partition, [1, 1, 1])
        assert report.cut_value == 0.0

    def test_triangle_relaxation_rounds_to_optimal_cut(self):
        res = solve_relaxation(K3, seed=0)
        report = round_by_iteration(res.gram, seed=0, graph=K3)
        assert report.terminal_status == "vertex"
        assert report.cut_value == 2.0
        assert report.escapes >= 1  # the optimum is itself a fixed point

    def test_identity_start_escapes_then_hits_vertex(self):
        report = round_by_iteration(np.eye(4), seed=0, graph=complete_graph(4))
        assert report.terminal_status == "vertex"
        assert report.escapes >= 1
        assert set(np.unique(report.partition)) <= {-1, 1}

    def test_norms_never_decrease(self):
        res = solve_relaxation(complete_graph(5), seed=0)
        report = round_by_iteration(res.gram, seed=0,
                                    graph=complete_graph(5))
        assert np.all(np.diff(report.norms_sq) >= -1e-9)

    def test_family_member_start(self):
        report = round_by_iteration(gram_factor(l4_family(0.3)), seed=0,
                                    graph=complete_graph(4))
        assert report.terminal_status == "vertex"

    def test_the_graph_is_required(self):
        with pytest.raises(TypeError, match="graph"):
            round_by_iteration(np.ones((3, 1)))
        with pytest.raises(TypeError):  # keyword only
            round_by_iteration(np.ones((3, 1)), 0, K3)


    def test_fallback_hyperplanes_take_the_config_seed(self, monkeypatch):
        # a face point of the 3-d catalog is a non-vertex fixed point: with
        # no escapes allowed, the partition comes from hyperplane rounding
        face = [p.matrix for p in l3_census() if p.family == "face"][0]
        monkeypatch.setattr(maxcut, "ESCAPE_RETRIES", 0)
        for seed in (0, 11):
            with pytest.warns(UserWarning, match="hyperplane fallback"):
                report = round_by_iteration(gram_factor(face), seed=seed,
                                            graph=K3)
            assert report.partition_source == "hyperplane_fallback"
            signs, _ = gw_hyperplane_round(gram_factor(face), K3,
                                           HYPERPLANES, seed)
            assert np.array_equal(report.partition, signs)

    @pytest.mark.parametrize("budget", [1, 2])
    def test_the_last_round_allowed_is_checked_for_a_vertex(self, monkeypatch,
                                                          budget):
        # K5's relaxation reaches its vertex in one power step: a budget of
        # one round still reads the partition off it, without a warning,
        # and a chain that meets its vertex inside the budget checks twice
        g = complete_graph(5)
        calls = []
        vertex_signs = maxcut._vertex_signs
        monkeypatch.setattr(maxcut, "MAX_ROUNDS", budget)
        monkeypatch.setattr(maxcut, "_vertex_signs",
                            lambda x: calls.append(1) or vertex_signs(x))
        report = round_by_iteration(solve_relaxation(g, seed=0).gram, graph=g)
        assert (report.iterations, report.terminal_status,
                report.partition_source, report.cut_value) == (
            1, "vertex", "vertex_row", 6.0)
        assert len(calls) == 2

    def test_a_chain_out_of_rounds_falls_back(self, monkeypatch):
        # the face point's escape spends the one round allowed, and the
        # escaped point is no vertex
        face = [p.matrix for p in l3_census() if p.family == "face"][0]
        monkeypatch.setattr(maxcut, "MAX_ROUNDS", 1)
        with pytest.warns(UserWarning, match="did not reach a vertex"):
            report = round_by_iteration(gram_factor(face), seed=3, graph=K3)
        assert (report.iterations, report.escapes, report.terminal_status,
                report.partition_source) == (
            0, 1, "max_rounds", "hyperplane_fallback")
        assert len(report.norms_sq) == 2  # the start's and the escape's

    def test_a_factor_of_the_start_rounds_it_alike(self):
        # power steps map V Q to W Q: the relaxation's narrow factor and the
        # full factor of gram_factor give the same chain
        rng = np.random.default_rng(3)
        graphs = [complete_graph(n) for n in range(4, 41)]
        graphs += [WeightedGraph(20, [(u, v, 1.0) for u in range(20)
                                      for v in range(u + 1, 20)
                                      if rng.random() < 0.3])
                   for _ in range(4)]
        graphs += [signed_torus(4, 5, rng) for _ in range(4)]
        for k, g in enumerate(graphs):
            res = solve_relaxation(g, seed=k)
            for v in res.candidate_grams[:2]:
                a = round_by_iteration(gram_factor(gram_to_matrix(v)), graph=g)
                b = round_by_iteration(v, graph=g)
                assert (b.cut_value, b.iterations, b.terminal_status) == (
                    a.cut_value, a.iterations, a.terminal_status)
                assert np.array_equal(b.partition, a.partition)
        # the escapes move a row of the carried factor, so a rotated or
        # zero-padded factor of an escaping start also rounds it alike
        for x, g in ESCAPING_STARTS:
            v = gram_factor(x)
            q, _ = np.linalg.qr(rng.standard_normal((g.n, g.n)))
            a, *others = (round_by_iteration(f, graph=g) for f in (
                v, v @ q, np.hstack((v, np.zeros((g.n, 3))))))
            assert a.escapes >= 1
            for b in others:
                assert (b.cut_value, b.iterations, b.escapes, b.terminal_status,
                        b.partition_source) == (
                    a.cut_value, a.iterations, a.escapes, a.terminal_status,
                    a.partition_source)
                assert np.array_equal(b.partition, a.partition)

    def test_the_chain_takes_no_eigendecomposition(self, monkeypatch):
        # escapes and steps act on the carried factor, with no refactoring,
        # and a vertex is told by its signs, with no eigenvalue: on the
        # escaping starts and on the benchmark's seed-1 instances, each of
        # whose chains ends at a vertex
        starts = [(gram_factor(x), g) for x, g in ESCAPING_STARTS]
        bench = [(solve_relaxation(g).gram, g) for g in _benchmark_graphs(1)]
        calls = []
        for name in ("eigh", "eigvalsh"):
            f = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda a, name=name, f=f:
                                calls.append(name) or f(a))
        for v, g in starts:
            report = round_by_iteration(v, graph=g)
            assert report.terminal_status == "vertex" and report.escapes >= 1
        for v, g in bench:
            assert round_by_iteration(v, graph=g).terminal_status == "vertex"
        assert len(bench) == 11 and calls == []

    def test_a_bad_factor_is_rejected(self):
        v = gram_factor(l4_family(0.3))
        nan_row, zero_row = v.copy(), v.copy()
        nan_row[1, 0] = np.nan
        zero_row[2] = 0.0
        for bad, match in ((v[0], "2-d"), (zero_row, "zero row"),
                           (nan_row, "non-finite"), (2.0 * v, "unit"),
                           (v + 1e-6, "unit")):
            with pytest.raises(ElliptopeError, match=match):
                round_by_iteration(bad, graph=complete_graph(4))

    def test_a_factor_without_rows_is_rejected(self):
        with pytest.raises(ElliptopeError, match="no rows"):
            round_by_iteration(np.zeros((0, 2)), graph=WeightedGraph(0, []))

    def test_the_report_holds_only_what_the_chain_knows(self):
        rep = round_by_iteration(solve_relaxation(K3).gram, graph=K3)
        assert type(rep) is RoundingReport
        assert [f.name for f in dataclasses.fields(rep)] == [
            "n", "iterations", "escapes", "terminal_status",
            "partition_source", "partition", "norms_sq", "cut_value"]
        assert rep.rounding_starts == 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.cut_value = 3.0

    def test_a_graph_of_another_order_is_rejected_before_rounding(self,
                                                                 monkeypatch):
        def no_step(x, v):
            raise AssertionError("the chain ran")

        monkeypatch.setattr(maxcut, "_power_step", no_step)
        path4 = WeightedGraph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])
        with pytest.raises(ValueError, match="graph has 4 vertices"):
            round_by_iteration(np.eye(3), graph=path4)


class TestBudgetedRounding:
    @pytest.mark.parametrize("graph", [
        lambda rng: complete_graph(19),
        lambda rng: complete_graph(27),
        lambda rng: WeightedGraph(20, [(u, v, 1.0) for u in range(20)
                                       for v in range(u + 1, 20) if rng.random() < 0.3]),
        lambda rng: signed_torus(4, 5, rng),
    ], ids=["K19", "K27", "gnp20", "signed-torus"])
    def test_each_step_is_an_ascent_step(self, graph, monkeypatch):
        # <X, Y> >= <X, X> for every step X -> Y, so |Y - X|^2 is bounded by
        # the norm gain, although each step stops after ROUND_STEPS products
        g = graph(np.random.default_rng(2))
        steps, products = [], []
        step, product = maxcut._power_step, maxcut._power_product

        def recording_step(x, v):
            products.append(0)
            w, y = step(x, v)
            steps.append((x, y))
            return w, y

        def counting_product(v, w):
            products[-1] += 1
            product(v, w)

        monkeypatch.setattr(maxcut, "_power_step", recording_step)
        monkeypatch.setattr(maxcut, "_power_product", counting_product)
        res = solve_relaxation(g, seed=0)
        report = round_by_iteration(res.gram, seed=0, graph=g)
        assert report.terminal_status == "vertex"
        assert steps and products == [ROUND_STEPS] * len(steps)
        for x, y in steps:
            xx, xy, yy = (float(np.vdot(a, b)) for a, b in ((x, x), (x, y), (y, y)))
            assert xy >= xx - 1e-12
            assert float(np.vdot(y - x, y - x)) <= yy - xx + 1e-9

    def test_exact_map_cuts_on_complete_graphs(self):
        # the cuts of the chain that rounds by 10-sweep oracle steps, the
        # exact map's rounding, from the one-start relaxation
        for n, seed, cut in ((19, 0, 84), (27, 0, 182), (32, 0, 255),
                             (38, 0, 360), (39, 1, 368)):
            report = maxcut_pipeline(complete_graph(n), seed=seed)
            assert report.rounded_cut == cut


class TestPipeline:
    def test_triangle_full_chain(self):
        report = maxcut_pipeline(K3, seed=0, baseline_samples=64,
                                 brute_force=True)
        assert report.cut_value == 2.0
        assert report.brute_force_cut == 2.0
        assert report.baseline_cut == 2.0
        assert report.relaxed_cut == pytest.approx(2.25, abs=1e-6)
        assert report.relaxed_cut >= report.brute_force_cut

    def test_the_report_is_built_once(self):
        rep = maxcut_pipeline(K3)
        assert isinstance(rep, MaxcutReport) and rep.rounding_starts == 1
        chain = {f.name: getattr(rep, f.name)
                 for f in dataclasses.fields(RoundingReport)}
        with pytest.raises(TypeError, match="relaxation_objective"):
            MaxcutReport(**chain)
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.cut_value = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            rep.brute_force_cut = 2.0

    def test_complete_graphs_hit_the_optimum(self):
        for n in (4, 5, 6, 7, 8):
            g = complete_graph(n)
            report = maxcut_pipeline(g, seed=0, brute_force=True)
            assert report.brute_force_cut == n * n // 4
            assert report.cut_value == n * n // 4
            assert report.relaxed_cut >= report.brute_force_cut

    @staticmethod
    def _float_graphs():
        """The float-weight graphs of the bound test below, and +-1 tori."""
        rng = np.random.default_rng(12)
        for k in range(12):
            n = int(rng.integers(3, 15))
            yield k, WeightedGraph(n, [(u, v, float(rng.uniform(-1.0, 2.0)))
                                       for u in range(n) for v in range(u + 1, n)
                                       if rng.random() < 0.5])
        rng = np.random.default_rng(7)
        for k in range(4):
            yield k, signed_torus(6, 6, rng)

    def test_no_single_flip_raises_the_cut(self):
        # the local search ends on a partition that no single flip improves,
        # at least as good as the rounding chain's own
        for k, g in self._float_graphs():
            report = maxcut_pipeline(g, seed=k)
            assert report.cut_value >= report.rounded_cut
            s = np.array(report.partition)
            assert report.cut_value == cut_value(g, s)
            for i in range(g.n):
                s[i] = -s[i]
                assert cut_value(g, s) <= report.cut_value + 1e-12 * g.n
                s[i] = -s[i]

    def test_relaxed_cut_is_a_bound_on_the_optimum(self):
        # float weights of both signs: the bound holds by weak duality
        rng = np.random.default_rng(12)
        for k in range(12):
            n = int(rng.integers(3, 15))
            g = WeightedGraph(n, [(u, v, float(rng.uniform(-1.0, 2.0)))
                                  for u in range(n) for v in range(u + 1, n)
                                  if rng.random() < 0.5])
            report = maxcut_pipeline(g, seed=k, brute_force=True)
            res = solve_relaxation(g, seed=k)
            assert report.relaxed_cut >= report.brute_force_cut
            # (sum over ordered pairs of W + UB) / 4, rounded up
            exact = (2 * sum(Fraction(w) for _, _, w in g.edges)
                     + Fraction(res.upper_bound)) / 4
            assert Fraction(report.relaxed_cut) >= exact
            assert Fraction(math.nextafter(report.relaxed_cut, -math.inf)) < exact

    def test_relative_gap_is_the_proven_gap(self, monkeypatch):
        # (UB - objective) / max(1, |objective|) of the relaxation the
        # pipeline ran: below GAP_TOL, what the factorization proved, on a
        # gap stop and on a certified vertex alike
        relaxations = []

        def recorded(g, seed):
            relaxations.append(solve_relaxation(g, seed))
            return relaxations[-1]

        monkeypatch.setattr(maxcut, "solve_relaxation", recorded)
        rng = np.random.default_rng(8)
        graphs = [signed_torus(4, 5, rng) if k % 2 else
                  WeightedGraph(20, [(u, v, 1.0) for u in range(20)
                                     for v in range(u + 1, 20)
                                     if rng.random() < 0.3])
                  for k in range(6)]
        graphs += [path_graph(n) for n in (5, 8, 20)]
        statuses = []
        for k, g in enumerate(graphs):
            report = maxcut_pipeline(g, seed=k)
            res = relaxations[-1]
            assert report.relative_gap == (
                (res.upper_bound - res.objective) / max(1.0, abs(res.objective)))
            assert 0.0 <= report.relative_gap <= GAP_TOL
            statuses.append(res.status)
        assert statuses == ["certified_gap"] * 6 + ["certified_vertex"] * 3

    @staticmethod
    def _scaled_gnp(s):
        rng = np.random.default_rng(3)
        return WeightedGraph(20, [(u, v, s) for u in range(20)
                                  for v in range(u + 1, 20) if rng.random() < 0.3])

    @pytest.mark.parametrize("k", [-60, -20, 20, 60])
    def test_the_unit_of_the_weights_changes_nothing(self, k):
        # the oracle runs on its cost over the power of two of its largest
        # entry, so weights scaled by 2^k give the same run, figures scaled
        # by exactly 2^k; without it, 2^-20 and 2^-60 froze rows under the
        # absolute GRAD_TOL and certified gaps far off the optimum
        base = maxcut_pipeline(self._scaled_gnp(1.0), brute_force=True)
        report = maxcut_pipeline(self._scaled_gnp(2.0 ** k), brute_force=True)
        assert np.array_equal(report.partition, base.partition)
        assert report.relative_gap == base.relative_gap
        for name in ("cut_value", "relaxed_cut", "relaxation_objective",
                     "brute_force_cut"):
            assert getattr(report, name) == getattr(base, name) * 2.0 ** k

    def test_subnormal_weights_are_the_unit_triangle_scaled(self):
        # weights 2^-1074: the symmetrized cost keeps them, where halving
        # each entry first would leave a zero cost and the step stop
        base = maxcut_pipeline(K3)
        report = maxcut_pipeline(complete_graph(3, 5e-324))
        assert report.relaxation_objective == 1.5e-323 == 3.0 * 2.0 ** -1074
        assert report.relaxation_objective == base.relaxation_objective * 2.0 ** -1074
        assert (report.relaxation_status, report.relaxation_sweeps,
                report.terminal_status, report.cut_value) == (
            base.relaxation_status, base.relaxation_sweeps,
            base.terminal_status, base.cut_value * 2.0 ** -1074)
        assert np.array_equal(report.partition, base.partition)

    def test_huge_weights_do_not_overflow(self):
        # at 1e160 the unscaled row norms overflowed; any warning fails here
        base = maxcut_pipeline(self._scaled_gnp(1.0), brute_force=True)
        report = maxcut_pipeline(self._scaled_gnp(1e160), brute_force=True)
        assert np.array_equal(report.partition, base.partition)
        assert 0.0 <= report.relative_gap <= GAP_TOL

    def test_paths_are_cut_completely(self):
        for n in (3, 5, 8):
            g = path_graph(n)
            report = maxcut_pipeline(g, seed=0, brute_force=True)
            assert report.brute_force_cut == n - 1
            assert report.relaxed_cut >= n - 1
            assert report.cut_value == n - 1

    def test_random_graphs_valid_and_dominated_by_relaxation(self):
        rng = np.random.default_rng(100)
        for _ in range(8):
            n = int(rng.integers(4, 11))
            perm = rng.permutation(n)
            edges = {(min(int(perm[k]), int(perm[k + 1])),
                      max(int(perm[k]), int(perm[k + 1]))) for k in range(n - 1)}
            for u in range(n):
                for v in range(u + 1, n):
                    if rng.random() < 0.4:
                        edges.add((u, v))
            g = WeightedGraph(n, [(u, v, 1.0) for u, v in sorted(edges)])
            report = maxcut_pipeline(g, seed=0, brute_force=True)
            assert set(np.unique(report.partition)) <= {-1, 1}
            recount = sum(w for u, v, w in g.edges
                          if report.partition[u] != report.partition[v])
            assert report.cut_value == recount
            assert report.relaxed_cut >= report.brute_force_cut

    def test_determinism(self):
        a = maxcut_pipeline(complete_graph(6), seed=3,
                            baseline_samples=32, brute_force=True)
        b = maxcut_pipeline(complete_graph(6), seed=3,
                            baseline_samples=32, brute_force=True)
        assert np.array_equal(a.partition, b.partition)
        assert a.norms_sq == b.norms_sq
        assert a.relaxation_objective == b.relaxation_objective
        assert a.cut_value == b.cut_value


class TestGraphType:
    def test_invalid_edges_rejected(self):
        with pytest.raises(ValueError):
            WeightedGraph(3, [(1, 0, 1.0)])
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 3, 1.0)])
        with pytest.raises(ValueError):
            WeightedGraph(3, [(0, 1, 1.0), (0, 1, 2.0)])
        with pytest.raises(ValueError):
            WeightedGraph(2, [(0, 1, np.inf)])
        with pytest.raises(ValueError, match="weights too large"):
            WeightedGraph(3, [(0, 1, 1e308), (0, 2, 1e308), (1, 2, 1e308)])

    def test_fields_cannot_be_rebound(self):
        g = complete_graph(3)
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.n = 4
        with pytest.raises(dataclasses.FrozenInstanceError):
            g.edges = []

    def test_edges_cannot_change_in_place(self):
        # a list of edges given is stored as a tuple, so the edge arrays
        # cannot drift from it
        given = [(0, 1, 1.0)]
        g = WeightedGraph(3, given)
        given.append((1, 2, 5.0))
        assert g.edges == ((0, 1, 1.0),)
        with pytest.raises(AttributeError):
            g.edges.append((1, 2, 5.0))
        with pytest.raises(TypeError):
            g.edges[0] = (0, 2, 5.0)
        assert cut_value(g, [1, -1, 1]) == 1.0 and g.total_weight == 1.0

    def test_graphs_hash_by_their_edges(self):
        a = WeightedGraph(3, [(0, 1, 1.0), (1, 2, 2.0)])
        b = WeightedGraph(3, [[0, 1, 1.0], [1, 2, 2.0]])
        assert a == b and hash(a) == hash(b)
        assert len({a, b, complete_graph(3)}) == 2

    @pytest.mark.parametrize("name", ["file", "no-edges", "n1"])
    def test_edge_arrays_match_the_edges(self, name, tmp_path):
        if name == "file":
            p = tmp_path / "g.txt"
            p.write_text("0 3 2.5\n1 2 -0.75\n3 1\n0 2 1e-3\n2 4 -8\n")
            g = load_graph(p)
        elif name == "no-edges":
            g = WeightedGraph(5, [])
        else:
            g = WeightedGraph(1, [])
        w = np.zeros((g.n, g.n))
        for u, v, wt in g.edges:
            w[u, v] += wt
            w[v, u] += wt
        assert np.array_equal(g.weight_matrix(), w)
        for bits in itertools.product((1, -1), repeat=g.n):
            assert cut_value(g, bits) == math.fsum(
                wt for u, v, wt in g.edges if bits[u] != bits[v])

    def test_weight_matrix_symmetry(self):
        w = K3.weight_matrix()
        assert np.array_equal(w, w.T)
        assert K3.total_weight == 3.0


def test_maxcut_stands_on_the_elliptope_layer_alone():
    """maxcut imports only .domains and .elliptope from the package, so
    that the iteration engine and the classify layer stay out of it."""
    tree = ast.parse(Path(maxcut.__file__).read_text())
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("iterlinopt")):
            package.add(node.module)
        elif isinstance(node, ast.Import):
            package.update(a.name for a in node.names
                           if a.name.startswith("iterlinopt"))
    assert package == {"domains", "elliptope"}
