import itertools

import numpy as np
import pytest

from iterlinopt import (
    ElliptopeDomain,
    ElliptopeError,
    IterationConfig,
    OracleConfig,
    analyze_fixed_point,
    check_monotone,
    default_rank_budget,
    elliptope_oracle,
    enumerate_vertices,
    fixed_point_certificate,
    gamma_of_irreducible,
    gram_factor,
    gram_to_matrix,
    irreducible_components,
    is_in_elliptope,
    is_vertex,
    iterate,
    l3_census,
    l4_family,
    matrix_rank_psd,
    normal_cone_membership,
    read_matrix_text,
    sign_kernel_fixed_point,
    validate_elliptope,
    vertex_basin_check,
    write_matrix_text,
)
from iterlinopt import elliptope

J3 = np.ones((3, 3))
PUFF = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
GREEN = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


def _factor_residual(c, v):
    """The largest part of a gradient row g_i = ((C - Diag(C)) V)_i that is
    orthogonal to v_i: zero exactly when the unit-row factor V is
    stationary for C . V V^T."""
    g = (c - np.diag(np.diag(c))) @ v
    resid = g - np.sum(g * v, axis=1)[:, None] * v
    return float(np.max(np.linalg.norm(resid, axis=1)))


class TestGram:
    def test_identity_rows(self):
        assert np.array_equal(gram_to_matrix(np.eye(4)), np.eye(4))

    def test_repeated_row_gives_all_ones(self):
        v = np.tile(np.array([1.0, 0.0]), (3, 1))
        assert np.array_equal(gram_to_matrix(v), J3)

    def test_mixed_rows(self):
        s = 1.0 / np.sqrt(2.0)
        v = np.array([[1.0, 0.0], [0.0, 1.0], [s, s]])
        x = gram_to_matrix(v)
        assert x[0, 1] == 0.0
        assert abs(x[0, 2] - s) < 1e-15 and abs(x[1, 2] - s) < 1e-15

    def test_non_unit_rows_rejected(self):
        with pytest.raises(ElliptopeError):
            gram_to_matrix(np.array([[2.0, 0.0], [0.0, 1.0]]))

    def test_factor_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            rows = rng.standard_normal((n, 3))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            x = validate_elliptope(gram_to_matrix(rows))
            v = gram_factor(x)
            assert np.max(np.abs(gram_to_matrix(v) - x)) < 1e-12


class TestValidation:
    def test_accepts_members(self):
        assert is_in_elliptope(np.eye(3))
        assert is_in_elliptope(J3)
        assert is_in_elliptope(l4_family(0.3))

    def test_rejects_bad_diagonal(self):
        x = np.eye(3)
        x[1, 1] = 0.9
        assert not is_in_elliptope(x)

    def test_rejects_indefinite(self):
        x = np.array([[1.0, 1.0, -1.0], [1.0, 1.0, 1.0], [-1.0, 1.0, 1.0]])
        assert not is_in_elliptope(x)

    def test_rejects_asymmetric(self):
        x = np.eye(3)
        x[0, 1] = 0.5
        assert not is_in_elliptope(x)


class TestOracle:
    def test_all_ones_cost_returns_its_vertex(self):
        res = elliptope_oracle(J3)
        assert np.max(np.abs(res.matrix - J3)) < 1e-9
        assert abs(res.objective - 9.0) < 1e-9

    def test_two_dim_against_grid_brute_force(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        # independent oracle: scan the single off-diagonal entry
        ts = np.linspace(-1.0, 1.0, 10_001)
        best = max(2.0 * t for t in ts)
        res = elliptope_oracle(c)
        assert abs(res.objective - best) < 1e-9
        assert abs(res.matrix[0, 1] - 1.0) < 1e-9

    def test_average_of_three_vertices_maps_to_face_point(self):
        c = np.full((3, 3), -1.0 / 3.0)
        np.fill_diagonal(c, 1.0)
        res = elliptope_oracle(c)
        assert _factor_residual(c, res.gram) < 1e-10
        assert np.max(np.abs(res.matrix - PUFF)) < 1e-9

    def test_capped_objectives_never_decrease(self):
        # an ascent cut off after k sweeps scores its last sweep, so each
        # run's objective rises with the cap k
        rng = np.random.default_rng(9)
        for n in (4, 8):
            c = rng.standard_normal((n, n))
            c = 0.5 * (c + c.T)
            c_off = c - np.diag(np.diag(c))
            starts = [elliptope.random_gram(
                n, default_rank_budget(n), np.random.default_rng(1 + k))
                for k in range(5)]
            objs = []
            for cap in range(1, 41):
                runs = [elliptope._ascend(c, c_off, v0,
                                          OracleConfig(max_sweeps=cap))
                        for v0 in starts]
                assert all(sweeps == cap for _, sweeps, _, status in runs
                           if status == "max_sweeps")
                objs.append([obj for _, _, obj, _ in runs])
            assert np.all(np.diff(objs, axis=0) >= -1e-9)

    def test_full_rank_budget_output_is_rank_deficient(self):
        rng = np.random.default_rng(21)
        for n in (5, 8):
            c = rng.standard_normal((n, n))
            c = 0.5 * (c + c.T)
            v0 = elliptope.random_gram(n, n, np.random.default_rng(2))
            res = elliptope_oracle(c, warm_start=v0)
            assert np.linalg.eigvalsh(res.matrix)[0] <= 1e-6

    def test_eigenmatrix_identity_at_output(self):
        rng = np.random.default_rng(33)
        c = rng.standard_normal((6, 6))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c)
        x = res.matrix
        d = np.diag(c @ x).copy()
        assert np.linalg.norm(c @ x - d[:, None] * x) <= 1e-6

    def test_zero_gradient_rows_stay_frozen(self):
        c = np.zeros((3, 3))
        c[1, 2] = c[2, 1] = 1.0
        v0 = np.eye(3)
        res = elliptope_oracle(c, warm_start=v0)
        assert np.array_equal(res.gram[0], v0[0])

    def test_warm_start_runs_alone(self):
        rng = np.random.default_rng(8)
        c = rng.standard_normal((6, 6))
        c = 0.5 * (c + c.T)
        v0 = gram_factor(c @ c.T + np.eye(6))
        res = elliptope_oracle(c, warm_start=v0)
        assert len(res.restart_objectives) == 1
        assert len(res.candidate_grams) == 1
        assert res.best_index == 0

    def test_restart_bookkeeping(self):
        # a cold call is one ascent from the seed's draw,
        # random_gram(n, default_rank_budget(n), default_rng(seed))
        rng = np.random.default_rng(6)
        c = rng.standard_normal((7, 7))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c, OracleConfig(seed=7))
        assert len(res.restart_objectives) == 1
        assert res.best_index == 0
        assert [v.shape for v in res.candidate_grams] == [
            (7, default_rank_budget(7))]
        assert res.objective == pytest.approx(res.restart_objectives[0])
        start = elliptope.random_gram(7, default_rank_budget(7),
                                      np.random.default_rng(7))
        v, sweeps, obj, status = elliptope._ascend(
            c, c - np.diag(np.diag(c)), start, OracleConfig(seed=7))
        assert (res.sweeps, res.restart_objectives, res.status) == (
            sweeps, [obj], status)
        assert np.array_equal(res.candidate_grams[0], v)

    def test_asymmetric_cost_rejected(self):
        c = np.zeros((2, 2))
        c[0, 1] = 1.0
        with pytest.raises(ElliptopeError):
            elliptope_oracle(c)

    def test_status_reports_the_sweep_cap(self):
        rng = np.random.default_rng(4)
        c = rng.standard_normal((10, 10))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c, OracleConfig(max_sweeps=3))
        assert res.status == "max_sweeps"
        assert res.sweeps == 3

    def test_capped_run_is_polished_to_its_better_vertex(self):
        # three sweeps leave the winning run short of a vertex; its rounded
        # vertex scores strictly better without being optimal, so the
        # certificate passes it by and the final polish takes it
        rng = np.random.default_rng(26)
        c = rng.standard_normal((6, 6))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c, OracleConfig(max_sweeps=3))
        assert res.status == "max_sweeps"
        assert is_vertex(res.matrix)
        assert not normal_cone_membership(res.matrix, c)
        assert res.objective > res.restart_objectives[res.best_index]
        s = res.gram[:, 0]
        assert res.objective == float(s @ c @ s)
        assert np.array_equal(res.matrix, np.outer(s, s))

    def test_status_of_a_converged_run(self):
        res = elliptope_oracle(np.eye(3) - J3)  # the relaxation cost of K3
        assert res.status == "step_tol"
        assert res.sweeps < OracleConfig().max_sweeps

    def test_a_maximizer_that_ties_its_vertex_is_kept(self):
        # after one sweep the run sits at GREEN, a maximizer of this cost
        # that is no vertex; its rounded vertex (1, 1, 1) is optimal too but
        # not strictly better, so the run goes on and stops on its step
        c = np.zeros((3, 3))
        c[0, 1] = c[1, 0] = 1.0
        v0 = np.array([[1.0, 0.0, 0.0], [0.6, 0.8, 0.0], [0.0, 0.0, 1.0]])
        res = elliptope_oracle(c, warm_start=v0)
        assert res.status == "step_tol"
        assert np.max(np.abs(res.matrix - GREEN)) <= 1e-15


def _gap_costs():
    """Seeded random symmetric costs and max-cut costs -W of G(n, 0.4)."""
    rng = np.random.default_rng(41)
    for k in range(24):
        n = int(rng.integers(3, 26))
        if k % 2:
            c = rng.standard_normal((n, n))
            yield 0.5 * (c + c.T)
        else:
            w = np.triu(rng.random((n, n)) < 0.4, 1).astype(float)
            yield -(w + w.T)


class TestGapStop:
    GAP = 1e-7

    def test_the_bound_holds_and_is_certified_within_the_tolerance(self):
        statuses = set()
        for k, c in enumerate(_gap_costs()):
            res = elliptope_oracle(c, OracleConfig(seed=k, gap_tol=self.GAP))
            exact = elliptope_oracle(c, OracleConfig(seed=k))
            assert res.upper_bound >= res.objective
            assert res.upper_bound >= exact.objective
            statuses.add(res.status)
            if res.status == "certified_gap":
                # the bound is taken from the winning run's own factor
                obj = res.restart_objectives[res.best_index]
                assert res.upper_bound - obj <= self.GAP * max(1.0, abs(obj))
                assert res.sweeps < exact.sweeps
        assert "certified_gap" in statuses

    def test_the_bound_is_exact_at_a_known_optimum(self):
        # K3's relaxation: every off-diagonal entry -1/2, value 3
        res = elliptope_oracle(np.eye(3) - J3, OracleConfig(gap_tol=self.GAP))
        assert 3.0 <= res.upper_bound <= 3.0 + 3.0 * self.GAP
        v = gram_factor(PUFF)
        assert elliptope._upper_bound(np.eye(3) - J3, v) == pytest.approx(
            3.0, abs=1e-12)

    def test_a_default_config_keeps_the_exact_stop(self):
        for k, c in enumerate(_gap_costs()):
            res = elliptope_oracle(c, OracleConfig(seed=k))
            assert res.status != "certified_gap"
            assert res.upper_bound is None

    def test_over_relaxation_certifies_in_fewer_sweeps(self, monkeypatch):
        # max-cut cost of G(100, 6/n): 96 sweeps against 208 unshifted
        n = 100
        rng = np.random.default_rng(1)
        w = np.triu(rng.random((n, n)) < 6.0 / n, 1).astype(float)
        c = -(w + w.T)
        cfg = OracleConfig(gap_tol=self.GAP)
        res = elliptope_oracle(c, cfg)
        monkeypatch.setattr(elliptope, "OVER_RELAX", 0.0)
        plain = elliptope_oracle(c, cfg)
        assert res.status == plain.status == "certified_gap"
        assert elliptope.GAP_SWEEPS < res.sweeps < plain.sweeps
        obj = res.restart_objectives[res.best_index]
        assert obj <= res.upper_bound <= obj + self.GAP * max(1.0, abs(obj))

    def test_runs_without_a_shift_keep_their_bits(self, monkeypatch):
        # the shift starts at the first check on a multiple of GAP_SWEEPS:
        # relaxations of K20 and P20 stop before it, and gap_tol = 0 never
        # shifts, cold or warm
        k20 = np.eye(20) - np.ones((20, 20))
        p20 = -(np.eye(20, k=1) + np.eye(20, k=-1))
        rng = np.random.default_rng(5)
        calls = [(k20, OracleConfig(gap_tol=self.GAP), None),
                 (p20, OracleConfig(gap_tol=self.GAP), None)]
        for k, c in enumerate(_gap_costs()):
            warm = rng.standard_normal(c.shape) if k % 2 else None
            calls.append((c, OracleConfig(seed=k), warm))

        def fields(res):
            return (res.matrix.tobytes(), res.gram.tobytes(), res.objective,
                    res.restart_objectives,
                    res.best_index, res.sweeps,
                    res.upper_bound, res.status,
                    [v.tobytes() for v in res.candidate_grams])

        shifted = [fields(elliptope_oracle(*call)) for call in calls]
        monkeypatch.setattr(elliptope, "OVER_RELAX", 0.0)
        assert shifted == [fields(elliptope_oracle(*call)) for call in calls]


class TestCertificate:
    def test_identity_is_fixed(self):
        cert = fixed_point_certificate(np.eye(4))
        assert np.array_equal(cert.d, np.ones(4))
        assert cert.residual == 0.0 and cert.is_fixed

    def test_all_ones_vertex(self):
        cert = fixed_point_certificate(J3)
        assert np.array_equal(cert.d, np.full(3, 3.0))
        assert cert.residual == 0.0 and cert.is_fixed

    def test_four_dim_family(self):
        for c in (-0.7, 0.0, 0.6):
            cert = fixed_point_certificate(l4_family(c))
            assert np.max(np.abs(cert.d - 2.0)) < 1e-12
            assert cert.residual <= 1e-12 and cert.is_fixed

    def test_generic_member_is_not_fixed(self):
        rng = np.random.default_rng(4)
        v = rng.standard_normal((5, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        cert = fixed_point_certificate(gram_to_matrix(v))
        assert not cert.is_fixed


class TestStructure:
    def test_components_identity(self):
        assert irreducible_components(np.eye(4)) == [[0], [1], [2], [3]]

    def test_components_block(self):
        assert irreducible_components(GREEN) == [[0, 1], [2]]

    def test_components_full(self):
        assert irreducible_components(J3) == [[0, 1, 2]]

    def test_gamma_vertex(self):
        assert gamma_of_irreducible(J3) == pytest.approx(3.0, abs=1e-12)

    def test_gamma_face_point(self):
        assert gamma_of_irreducible(PUFF) == pytest.approx(1.5, abs=1e-12)

    def test_gamma_family(self):
        assert gamma_of_irreducible(l4_family(0.6)) == pytest.approx(2.0, abs=1e-10)

    def test_gamma_rejects_reducible(self):
        with pytest.raises(ElliptopeError):
            gamma_of_irreducible(GREEN)

    def test_rank(self):
        assert matrix_rank_psd(J3) == 1
        assert matrix_rank_psd(PUFF) == 2
        assert matrix_rank_psd(np.eye(5)) == 5


class TestNormalCone:
    def test_identity_in_its_own_cone(self):
        assert normal_cone_membership(np.eye(3), np.eye(3))

    def test_vertex_in_its_own_cone(self):
        assert normal_cone_membership(J3, J3)

    def test_negated_vertex_not_in_cone(self):
        assert not normal_cone_membership(J3, -J3)

    def test_fixed_points_lie_in_their_cones(self):
        for p in l3_census():
            assert normal_cone_membership(p.matrix, p.matrix)


class TestVertices:
    def test_is_vertex(self):
        assert is_vertex(J3)
        assert not is_vertex(PUFF)
        s = np.array([1.0, -1.0, 1.0, 1.0])
        assert is_vertex(np.outer(s, s))
        assert not is_vertex(np.eye(3))

    def test_enumeration_counts(self):
        assert len(enumerate_vertices(2)) == 2
        assert len(enumerate_vertices(3)) == 4
        assert len(enumerate_vertices(5)) == 16

    def test_enumeration_cap(self):
        with pytest.raises(ElliptopeError):
            enumerate_vertices(17)

    def test_all_enumerated_are_vertices_and_distinct(self):
        vs = enumerate_vertices(4)
        for v in vs:
            assert is_vertex(v)
        for a, b in itertools.combinations(vs, 2):
            assert np.max(np.abs(a - b)) > 1.0


class TestSignKernel:
    def test_two_support(self):
        x = sign_kernel_fixed_point(np.array([1.0, 1.0, 0.0]))
        assert np.array_equal(x, np.array([[1.0, -1.0, 0.0],
                                           [-1.0, 1.0, 0.0],
                                           [0.0, 0.0, 1.0]]))

    def test_full_support(self):
        x = sign_kernel_fixed_point(np.array([1.0, 1.0, 1.0]))
        assert np.array_equal(x, PUFF)

    def test_four_dim(self):
        w = np.array([1.0, -1.0, 1.0, 1.0])
        x = sign_kernel_fixed_point(w)
        i, j = 0, 1
        assert x[i, j] == -w[i] * w[j] / 3.0
        assert fixed_point_certificate(x).residual <= 1e-12

    def test_too_small_support(self):
        with pytest.raises(ElliptopeError):
            sign_kernel_fixed_point(np.array([1.0, 0.0, 0.0]))

    def test_bad_entries(self):
        with pytest.raises(ElliptopeError):
            sign_kernel_fixed_point(np.array([1.0, 0.5, 0.0]))

    def test_closure_all_small_dimensions(self):
        # every kernel vector with at least two nonzeros yields a certified
        # fixed point whose support block has a one-dimensional kernel
        for n in range(2, 7):
            for w in itertools.product((0, 1, -1), repeat=n):
                nz = [e for e in w if e]
                if len(nz) < 2 or nz[0] != 1:
                    continue
                wv = np.array(w, dtype=float)
                x = sign_kernel_fixed_point(wv)
                assert fixed_point_certificate(x).residual <= 1e-12
                sup = np.nonzero(wv)[0]
                block = x[np.ix_(sup, sup)]
                evals = np.linalg.eigvalsh(block)
                assert np.sum(np.abs(evals) < 1e-9) == 1


class TestCensus:
    def test_grouping(self):
        pts = l3_census()
        assert len(pts) == 14
        assert sum(p.family == "vertex" for p in pts) == 4
        assert sum(p.family == "edge" for p in pts) == 6
        assert sum(p.family == "face" for p in pts) == 4

    def test_ranks_and_reducibility(self):
        for p in l3_census():
            assert matrix_rank_psd(p.matrix) == p.rank
            comps = irreducible_components(p.matrix)
            assert (len(comps) == 1) == p.irreducible

    def test_certificates(self):
        for p in l3_census():
            assert fixed_point_certificate(p.matrix).residual <= 1e-12

    def test_edges_are_vertex_averages(self):
        vertices = [p.matrix for p in l3_census() if p.family == "vertex"]
        for p in l3_census():
            if p.family != "edge":
                continue
            found = any(
                np.max(np.abs(0.5 * (a + b) - p.matrix)) <= 1e-12
                for a, b in itertools.combinations(vertices, 2))
            assert found


class TestFourDimFamily:
    def test_zero_parameter_block_structure(self):
        x = l4_family(0.0)
        expect = np.array([[1.0, -1.0, 0.0, 0.0],
                           [-1.0, 1.0, 0.0, 0.0],
                           [0.0, 0.0, 1.0, -1.0],
                           [0.0, 0.0, -1.0, 1.0]])
        assert np.array_equal(x, expect)

    def test_half_square_identity(self):
        x = l4_family(0.6)
        assert np.linalg.norm(x @ x - 2.0 * x) <= 1e-12

    def test_distinct_parameters_distinct_matrices(self):
        assert np.linalg.norm(l4_family(0.6) - l4_family(0.7)) > 0.1

    def test_parameter_bounds(self):
        for bad in (-1.0, 1.0, 1.5):
            with pytest.raises(ElliptopeError):
                l4_family(bad)


class TestReportsAndIO:
    def test_analyze_reducible_fixed_point(self):
        rep = analyze_fixed_point(GREEN)
        assert rep.is_fixed and rep.label == "not_attractive"
        assert rep.components == [[0, 1], [2]]
        assert rep.gammas == [2.0, 1.0]
        assert rep.rank == 2

    def test_analyze_vertex(self):
        rep = analyze_fixed_point(J3)
        assert rep.label == "attractive" and rep.rank == 1

    def test_analyze_non_fixed(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((4, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        rep = analyze_fixed_point(gram_to_matrix(v))
        assert rep.label == "not_fixed"

    def test_matrix_round_trip(self, tmp_path):
        path = tmp_path / "m.txt"
        x = l4_family(0.37)
        write_matrix_text(x, path)
        assert np.array_equal(read_matrix_text(path), x)

    def test_rejects_asymmetric_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2\n1 0.5\n0.4 1\n")
        with pytest.raises(ElliptopeError):
            read_matrix_text(path)

    def test_rejects_non_numeric_entry_naming_the_row(self, tmp_path):
        path = tmp_path / "word.txt"
        path.write_text("2\n1 0\n0 one\n")
        with pytest.raises(ElliptopeError, match="word.txt: row 2 "):
            read_matrix_text(path)

    def test_rejects_a_file_not_in_utf8(self, tmp_path):
        path = tmp_path / "x.txt"
        path.write_bytes(b"\xff\xfe1\n1\n")
        with pytest.raises(ElliptopeError, match="x.txt: not UTF-8 text"):
            read_matrix_text(path)

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "ragged.txt"
        path.write_text("2\n1 0\n0\n")
        with pytest.raises(ElliptopeError):
            read_matrix_text(path)


class TestDomainAdapter:
    def test_engine_run_is_monotone_and_certified(self):
        rng = np.random.default_rng(12)
        dom = ElliptopeDomain(5)
        x0 = dom.sample(rng)
        traj = iterate(dom, x0, IterationConfig(tol=1e-10, max_iter=500))
        assert check_monotone(traj).passed
        assert traj.status == "converged"
        assert fixed_point_certificate(traj.final).is_fixed

    def test_iteration_from_identity_stays(self):
        dom = ElliptopeDomain(3)
        traj = iterate(dom, np.eye(3))
        assert traj.status == "converged"
        assert np.array_equal(traj.final, np.eye(3))

    def test_zero_functional_uses_the_seeded_start(self):
        # every point maximizes the zero functional; the map returns the
        # point of a default cold call, the same on every call
        dom = ElliptopeDomain(5)
        t = dom.maximize(np.zeros((5, 5)))
        assert np.array_equal(t, dom.maximize(np.zeros((5, 5))))
        assert is_in_elliptope(t)
        cold = elliptope_oracle(np.zeros((5, 5)))
        assert np.max(np.abs(t - cold.matrix)) <= 1e-15

    def test_map_takes_no_oracle_settings(self):
        with pytest.raises(TypeError):
            ElliptopeDomain(3, OracleConfig())
        with pytest.raises(TypeError):
            vertex_basin_check(J3, J3, OracleConfig())

    def test_maximize_checks_its_query_once(self, monkeypatch):
        # the factor and the oracle take the query that maximize symmetrized
        calls = []
        check = elliptope.check_symmetric

        def counting_check(m, name="matrix"):
            calls.append(name)
            return check(m, name)

        monkeypatch.setattr(elliptope, "check_symmetric", counting_check)
        rng = np.random.default_rng(8)
        dom = ElliptopeDomain(6)
        for x in (dom.sample(rng), np.eye(6)):
            calls.clear()
            y = dom.maximize(x)
            assert calls == ["matrix"]
            # bit for bit the output of the checked public functions
            assert np.array_equal(y, elliptope_oracle(
                x, warm_start=gram_factor(x)).matrix)

    def test_sample_near_stays_feasible_and_close(self):
        rng = np.random.default_rng(5)
        dom = ElliptopeDomain(4)
        for eps in (0.05, 0.3):
            y = dom.sample_near(l4_family(0.2), eps, rng)
            assert is_in_elliptope(y, diag_tol=1e-9)
            d = np.linalg.norm(y - l4_family(0.2))
            assert 0.0 < d < eps

    def test_contains(self):
        dom = ElliptopeDomain(3)
        assert dom.contains(J3)
        assert not dom.contains(np.array([[1.0, 1.0, -1.0],
                                          [1.0, 1.0, 1.0],
                                          [-1.0, 1.0, 1.0]]))

    def test_maximize_rejects_another_order(self):
        with pytest.raises(ElliptopeError, match="expected 3, got 4"):
            ElliptopeDomain(3).maximize(np.eye(4))

    def test_contains_rejects_another_order(self):
        with pytest.raises(ElliptopeError, match="expected 3, got 4"):
            ElliptopeDomain(3).contains(np.eye(4))

    # rank and restarts are no fields: a cold call runs one start of width
    # default_rank_budget(n), so asking for either is a TypeError
    @pytest.mark.parametrize("bad, error", [
        ({"rank": 0}, TypeError), ({"restarts": -1}, TypeError),
        ({"max_sweeps": 0}, ValueError), ({"seed": -1}, ValueError),
        ({"gap_tol": -1e-7}, ValueError), ({"gap_tol": np.inf}, ValueError),
    ], ids=[f"bad{k}" for k in range(6)])
    def test_config_bounds(self, bad, error):
        with pytest.raises(error):
            OracleConfig(**bad)

    def test_rank_budget_default(self):
        assert default_rank_budget(2) == 2
        assert default_rank_budget(10) == 6
        assert default_rank_budget(50) == 11
