import itertools
from fractions import Fraction

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
    gram_factor,
    gram_to_matrix,
    is_in_elliptope,
    iterate,
    l3_census,
    l4_family,
    read_matrix_text,
    sign_kernel_fixed_point,
    write_matrix_text,
)
from iterlinopt import classify_elliptope_fixed_point, elliptope
from iterlinopt.elliptope import (
    ESCAPE_TIE_TOL,
    SIGN_TOL,
    _components,
    _is_vertex,
    _rank,
)

from iterlinopt.maxcut import GAP_TOL

from feasible_points import random_feasible_point


def _escape_pair_loop(x):
    """The reference for escape_pair: the first (i, j) in row-major order
    with |x_ij| < 1 - SIGN_TOL and row i no heavier than row j."""
    a = np.asarray(x, dtype=float)
    d = np.sum(a * a, axis=1)
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j or abs(a[i, j]) >= 1.0 - SIGN_TOL:
                continue
            if d[i] <= d[j] + ESCAPE_TIE_TOL:
                return i, j
    raise ElliptopeError("no escape pair exists: the matrix is a vertex")

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rows_rejected(self, bad):
        # a NaN row norm passes a unit-row test by comparison, |NaN - 1| >
        # ROW_TOL being False
        with pytest.raises(ElliptopeError, match="non-finite"):
            gram_to_matrix(np.array([[bad, 0.0], [1.0, 0.0]]))

    def test_factor_round_trip(self):
        rng = np.random.default_rng(0)
        for n in (2, 4, 7):
            rows = rng.standard_normal((n, 3))
            rows /= np.linalg.norm(rows, axis=1, keepdims=True)
            x = gram_to_matrix(rows)
            assert is_in_elliptope(x)
            v = gram_factor(x)
            assert np.max(np.abs(gram_to_matrix(v) - x)) < 1e-12


@pytest.mark.parametrize("check", [classify_elliptope_fixed_point,
                                   analyze_fixed_point, gram_factor,
                                   fixed_point_certificate])
def test_an_empty_matrix_is_rejected(check):
    with pytest.raises(ElliptopeError, match="matrix is empty"):
        check(np.zeros((0, 0)))


def test_a_factor_without_rows_is_rejected():
    with pytest.raises(ElliptopeError, match="no rows"):
        gram_to_matrix(np.zeros((0, 2)))


def test_an_empty_cost_is_rejected_by_the_symmetry_check():
    with pytest.raises(ElliptopeError, match="cost matrix is empty"):
        elliptope_oracle(np.zeros((0, 0)), OracleConfig())


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

    @pytest.mark.parametrize("x", [np.zeros((0, 0)), np.ones((2, 3)),
                                   np.full((2, 2), np.nan)],
                             ids=["empty", "not-square", "nan"])
    def test_rejects_what_the_symmetry_check_rejects(self, x):
        assert not is_in_elliptope(x)

    @pytest.mark.parametrize("base, i, j, value, member", [
        # the diagonal may stray DIAG_TOL from 1, on either side
        (np.eye(3), 0, 0, 1.0 - 9e-9, True),
        (np.eye(3), 0, 0, 1.0 + 9e-9, True),
        (np.eye(3), 0, 0, 1.0 - 2e-8, False),
        (np.eye(3), 0, 0, 1.0 + 2e-8, False),
        # the eigenvalue test alone bounds an entry above 1 in size
        (J3, 0, 1, 1.0 + 1e-10, True),
        (J3, 0, 1, 1.0 + 1e-6, False),
    ], ids=["diag-low", "diag-high", "diag-too-low", "diag-too-high",
            "entry-over-1e-10", "entry-over-1e-6"])
    def test_one_rule_decides_membership(self, base, i, j, value, member):
        x = np.array(base)
        x[i, j] = x[j, i] = value
        assert is_in_elliptope(x) is member


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

    @staticmethod
    def _scale_costs():
        c = np.random.default_rng(3).standard_normal((20, 20))
        path = np.zeros((20, 20))
        path[np.arange(19), np.arange(1, 20)] = -1.0
        return {"random": (c + c.T) / 2,
                "K20": -(np.ones((20, 20)) - np.eye(20)),  # relaxation costs
                "P20": path + path.T}

    @pytest.mark.parametrize("gap_tol", [0.0, GAP_TOL])
    @pytest.mark.parametrize("name", ["random", "K20", "P20"])
    def test_the_scale_of_the_cost_changes_nothing(self, name, gap_tol):
        # the ascent runs on the cost over the power of two of its largest
        # entry, so 2^k C gives the same run and figures scaled by exactly
        # 2^k; on the absolute tolerances, the random cost at 2^-30 was
        # certified after 1 sweep with a relative gap of 0.33
        c = self._scale_costs()[name]
        cfg = OracleConfig(gap_tol=gap_tol)
        base = elliptope_oracle(c, cfg)
        for k in (-900, -40, -30, 1, 7, 900):
            res = elliptope_oracle(np.ldexp(c, k), cfg)
            assert (res.status, res.sweeps) == (base.status, base.sweeps)
            assert np.array_equal(res.matrix, base.matrix)
            assert np.array_equal(res.gram, base.gram)
            assert res.objective == base.objective * 2.0 ** k
            if gap_tol:
                assert res.upper_bound == base.upper_bound * 2.0 ** k
            else:
                assert res.upper_bound is base.upper_bound is None

    def test_zero_gradient_rows_stay_frozen(self):
        c = np.zeros((3, 3))
        c[1, 2] = c[2, 1] = 1.0
        v0 = np.eye(3)
        res = elliptope_oracle(c, warm_start=v0)
        assert np.array_equal(res.gram[0], v0[0])

    @pytest.mark.parametrize("first", [0.0, np.nan, np.inf])
    def test_warm_start_without_a_unit_direction_rejected(self, first):
        # a zero or non-finite row has no direction to normalize to
        c = -(np.ones((3, 3)) - np.eye(3))  # K3's relaxation cost
        with pytest.raises(ElliptopeError, match="warm start rows"):
            elliptope_oracle(c, warm_start=[[first], [1.0], [1.0]])

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
        assert _is_vertex(res.matrix)
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
        # from the optimum's own factor, the first delta passes
        v = gram_factor(PUFF)
        assert 3.0 <= elliptope._upper_bound(np.eye(3) - J3, v, 1e-13) <= 3.0 + 1e-12

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

    def test_figures_that_could_overflow_are_rejected_before_the_run(self):
        # the objective and the bound, scaled back by the cost's power of
        # two 2^e, stay below 4 n^2 2^e; at 1e306 the objective overflows
        with pytest.raises(ElliptopeError, match="too large"):
            elliptope_oracle(np.full((20, 20), 1e306), OracleConfig(gap_tol=1e-7))
        res = elliptope_oracle(np.full((20, 20), 1e305), OracleConfig(gap_tol=1e-7))
        assert np.isfinite(res.objective) and np.isfinite(res.upper_bound)
        assert res.objective <= 4e307 <= res.upper_bound


def _near_singular(seed):
    """A = (M + M^T) / 2 for M = (Q Lambda) Q^T, Q orthogonal from a seeded
    QR, Lambda uniform in [0.5, 2] but for one eigenvalue -5e-17."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((12, 12)))[0]
    lam = rng.uniform(0.5, 2.0, 12)
    lam[0] = -5e-17
    m = (q * lam) @ q.T
    return 0.5 * (m + m.T)


def _exactly_positive_definite(a, delta=0.0):
    """Whether a + delta I, taken exactly from the stored doubles of the
    symmetric a and of delta, is positive definite: every pivot of its
    LDL^T, in exact rationals, is positive."""
    f = [[Fraction(x) for x in row] for row in a.tolist()]
    for k in range(len(f)):
        f[k][k] += Fraction(delta)
    for k in range(len(f)):
        if f[k][k] <= 0:
            return False
        for i in range(k + 1, len(f)):
            l = f[i][k] / f[k][k]
            for j in range(k + 1, len(f)):
                f[i][j] -= l * f[k][j]
    return True


class TestDualCertified:
    # C = Diag(d) - A, d = diag(A), is formed without rounding, so with
    # y = d the matrix Diag(y + delta) - C whose definiteness the test
    # decides is exactly A + delta I. With this seed, plain
    # np.linalg.cholesky factors A under OpenBLAS, though A's exact
    # lambda_min is about -1.6e-17
    A = _near_singular(2)

    def _certified(self, delta):
        d = np.diag(self.A).copy()
        return elliptope._dual_certified(np.diag(d) - self.A, d, delta)

    def test_an_indefinite_matrix_is_refused(self):
        assert not _exactly_positive_definite(self.A)
        assert not self._certified(0.0)

    def test_a_delta_that_leaves_it_indefinite_is_refused(self):
        delta = 1e-17
        assert not _exactly_positive_definite(self.A, delta)
        assert not self._certified(delta)

    def test_a_clearly_positive_definite_matrix_passes(self):
        delta = 1e-9
        assert _exactly_positive_definite(self.A, delta)
        assert self._certified(delta)


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

    @pytest.mark.parametrize("x", [
        np.full((3, 3), 1.5e308), -np.full((3, 3), 1.7e308),
        np.array([[0.0, 1.7e308], [1.7e308, 0.0]])])
    def test_symmetrizing_large_entries_keeps_them_finite(self, x):
        # halving before the sum: no overflow to inf and no RuntimeWarning
        assert np.array_equal(elliptope.check_symmetric(x), x)

    def test_asymmetry_of_large_entries_is_rejected_without_overflow(self):
        with pytest.raises(ElliptopeError, match="not symmetric"):
            elliptope.check_symmetric(np.array([[0.0, 1.7e308],
                                                [-1.7e308, 0.0]]))

    @pytest.mark.parametrize("check", [fixed_point_certificate,
                                       analyze_fixed_point,
                                       classify_elliptope_fixed_point])
    @pytest.mark.parametrize("value", [1.5e308, 1e200, 1e160])
    def test_an_overflowing_certificate_is_rejected(self, check, value):
        # a row sum of squares or X^2 - DX overflows: no inf d, nan residual
        # or RuntimeWarning
        with pytest.raises(ElliptopeError, match="overflow the certificate"):
            check(np.full((3, 3), value))


class TestStructure:
    def test_components_identity(self):
        assert _components(np.eye(4)) == [[0], [1], [2], [3]]

    def test_components_block(self):
        assert _components(GREEN) == [[0, 1], [2]]

    def test_components_full(self):
        assert _components(J3) == [[0, 1, 2]]

    def test_gamma_vertex(self):
        assert analyze_fixed_point(J3).gammas == pytest.approx([3.0], abs=1e-12)

    def test_gamma_face_point(self):
        assert analyze_fixed_point(PUFF).gammas == pytest.approx([1.5], abs=1e-12)

    def test_gamma_family(self):
        assert analyze_fixed_point(l4_family(0.6)).gammas == pytest.approx(
            [2.0], abs=1e-10)

    def test_gamma_per_block(self):
        # the {0, 1} block is a vertex of order 2 (gamma 2, rank 1), and the
        # isolated index 2 a block of order 1
        assert analyze_fixed_point(GREEN).gammas == [2.0, 1.0]

    def test_gamma_needs_a_diagonal_of_at_least_one(self):
        # d = 1 - 1e-7 on a rank-1 block of order 1 passes gamma * rank = 1
        # within GAMMA_RANK_TOL, but lies below 1 - tol
        x = np.array([[np.sqrt(1.0 - 1e-7)]])
        assert analyze_fixed_point(x).gammas == [None]
        assert analyze_fixed_point(x, tol=1e-6).gammas == pytest.approx([1.0 - 1e-7])

    def test_rank(self):
        assert _rank(J3) == 1
        assert _rank(PUFF) == 2
        assert _rank(np.eye(5)) == 5


class TestVertices:
    def test_is_vertex(self):
        assert _is_vertex(J3)
        assert not _is_vertex(PUFF)
        s = np.array([1.0, -1.0, 1.0, 1.0])
        assert _is_vertex(np.outer(s, s))
        assert not _is_vertex(np.eye(3))

    def test_escape_pair_is_the_loop_s_pair(self):
        # random symmetric matrices, n = 2-40: generic ones; circulant ones,
        # whose rows tie in sum of squares, also with one row made heavier
        # or lighter by a fraction or a multiple of ESCAPE_TIE_TOL; and sign
        # patterns with entries on both sides of 1 - SIGN_TOL
        rng = np.random.default_rng(40)
        found = raised = 0
        for n in range(2, 41):
            first = rng.uniform(-1.0, 1.0, n)
            circ = np.array([np.roll(first, k) for k in range(n)])
            s = rng.choice([-1.0, 1.0], n)
            signs = np.outer(s, s)
            for m in range(n):
                signs[m, (m + 1) % n] *= 1.0 - rng.choice([0.5, 4.0]) * SIGN_TOL
            g = rng.uniform(-1.0, 1.0, (n, n))
            cases = [g + g.T, circ + circ.T, 0.5 * (signs + signs.T),
                     np.outer(s, s)]
            for scale in (0.5, 1.0, 2.0, -0.5, -1.0, -2.0):
                x = 0.5 * (circ + circ.T)
                k = int(rng.integers(n))
                x[k, k] = np.sqrt(x[k, k] ** 2 + scale * ESCAPE_TIE_TOL)
                cases.append(x)
            for x in cases:
                try:
                    want = _escape_pair_loop(x)
                except ElliptopeError:
                    raised += 1
                    with pytest.raises(ElliptopeError, match="is a vertex"):
                        elliptope.escape_pair(x)
                    continue
                found += 1
                got = elliptope.escape_pair(x)
                assert got == want and all(type(v) is int for v in got)
        assert found > 300 and raised > 39

    @pytest.mark.parametrize("gap", [1e-10, 1e-7])
    def test_a_sign_is_read_as_escape_pair_reads_it(self, gap):
        # an entry within SIGN_TOL of +-1 is a sign for both: a vertex has
        # no escape pair, and a matrix with an escape pair is no vertex
        x = np.array(J3)
        x[0, 1] = x[1, 0] = 1.0 - gap
        try:
            elliptope.escape_pair(x)
        except ElliptopeError:
            assert _is_vertex(x)
        else:
            assert not _is_vertex(x)

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
            assert _is_vertex(v)
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
        # the family gives both: vertices have rank one, edge and face
        # points rank two, and only the edge points are reducible
        for p in l3_census():
            assert _rank(p.matrix) == (1 if p.family == "vertex" else 2)
            comps = _components(p.matrix)
            assert (len(comps) == 1) == (p.family != "edge")

    def test_certificates(self):
        for p in l3_census():
            assert fixed_point_certificate(p.matrix).residual <= 1e-12

    def test_tables_match_the_generators(self):
        # the vertices, then one sign-kernel point per kernel vector with
        # leading nonzero +1: two nonzeros give an edge, three a face
        expected = [("vertex", m) for m in enumerate_vertices(3)]
        for w in itertools.product((0, 1, -1), repeat=3):
            nz = [e for e in w if e]
            if len(nz) >= 2 and nz[0] == 1:
                expected.append(("edge" if len(nz) == 2 else "face",
                                 sign_kernel_fixed_point(np.array(w, dtype=float))))
        key = [(family, tuple(m.ravel().tolist())) for family, m in expected]
        census = [(p.family, tuple(p.matrix.ravel().tolist()))
                  for p in l3_census()]
        assert len(census) == len(set(census)) == 14
        assert set(census) == set(key)

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

    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_rejects_a_dimension_below_one(self, tmp_path, n):
        path = tmp_path / "dim.txt"
        path.write_text(n + "\n")
        with pytest.raises(ElliptopeError,
                           match="dim.txt: dimension must be at least 1"):
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
        x0 = random_feasible_point(dom, rng)
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
        for x in (random_feasible_point(dom, rng), np.eye(6)):
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
            assert is_in_elliptope(y)
            assert np.max(np.abs(np.diag(y) - 1.0)) <= 1e-9
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


def test_each_matrix_from_outside_is_checked_once(monkeypatch):
    """check_symmetric is the door of the fixed-point analysis: the
    verdicts check their argument once and then run on unchecked cores,
    and the rounding chain, which builds every matrix it holds, checks
    none. The exact dichotomy finds its escape pair once."""
    from iterlinopt import classify
    from iterlinopt.maxcut import WeightedGraph, round_by_iteration, solve_relaxation
    calls = []
    check = elliptope.check_symmetric

    def counting_check(m, name="matrix"):
        calls.append(name)
        return check(m, name)

    pairs = []
    pair = elliptope.escape_pair

    def counting_pair(x):
        pairs.append(1)
        return pair(x)

    for module in (elliptope, classify):
        monkeypatch.setattr(module, "check_symmetric", counting_check)
        monkeypatch.setattr(module, "escape_pair", counting_pair)
    analyze_fixed_point(l4_family(0.3))
    assert len(calls) == 1
    calls.clear()
    face = next(p.matrix for p in l3_census() if p.family == "face")
    assert classify_elliptope_fixed_point(face).label == "not_attractive"
    assert len(calls) == 1 and len(pairs) == 1
    k5 = WeightedGraph(5, [(u, v, 1.0) for u in range(5) for v in range(u + 1, 5)])
    gram = solve_relaxation(k5).gram
    calls.clear()
    round_by_iteration(gram, graph=k5)
    assert calls == []
