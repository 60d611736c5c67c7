import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    ConeDomain,
    DomainError,
    EllipsoidDomain,
    PolytopeDomain,
    check_monotone,
    iterate,
    load_domain,
)
from iterlinopt import domains
from iterlinopt.domains import CLASS_MARGIN, LP_TOL, _tangent_label

SQUARE = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]


class TestBallOracle:
    def test_aligned_with_center(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        assert np.allclose(dom.maximize([1.0, 0.0]), [3.0, 0.0], atol=0)

    def test_identity_on_centered_unit_circle(self):
        dom = BallDomain([0.0, 0.0], 1.0)
        assert np.allclose(dom.maximize([0.0, 1.0]), [0.0, 1.0], atol=0)

    def test_zero_input_returns_center(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        assert np.array_equal(dom.maximize([0.0, 0.0]), [1.0, 0.0])

    def test_query_whose_norm_over_or_underflows(self):
        # |x|^2 is inf or 0, yet T ignores the scale of x; a RuntimeWarning
        # would fail the test
        dom = BallDomain([0.0, 0.0], 1.0)
        for x in ([1e200, 0.0], [1e-200, 0.0], [5e-324, 0.0]):
            assert np.array_equal(dom.maximize(x), [1.0, 0.0])

    def test_radius_near_the_largest_with_a_finite_square(self):
        # radius / |x| stays finite at any scale of x
        dom = BallDomain([0.0, 0.0], 1e154)
        t = dom.maximize([3.0, 4.0])
        assert np.allclose(t, [0.6e154, 0.8e154], rtol=1e-15, atol=0)
        for e in (-600, 600):
            assert np.array_equal(dom.maximize(np.ldexp([3.0, 4.0], e)), t)

    def test_largest_ball_run_keeps_a_monotone_record(self):
        dom = BallDomain([0.0, 0.0], 1e154)
        traj = iterate(dom, [1.0, 0.0])
        assert traj.status == "converged" and traj.residual == 0.0
        assert np.array_equal(traj.final, [1e154, 0.0])
        assert traj.norms_sq[-1] == pytest.approx(1e308)
        assert check_monotone(traj).passed

    @pytest.mark.parametrize("center, radius", [
        ([0.0, 0.0], 1e200),
        ([1e308, 0.0], 1e308),  # center + radius overflows
        ([1e154, 0.0], 1e154),  # each is fine, the sum's square is not
    ], ids=["radius", "sum", "sum-squared"])
    def test_ball_whose_squared_extent_overflows_is_rejected(self, center,
                                                             radius):
        # its boundary points would record inf squared norms in a run
        with pytest.raises(DomainError, match="whose square overflows"):
            BallDomain(center, radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(DomainError, match="radius must be positive and finite"):
            BallDomain([1.0, 0.0], radius)

    def test_dimension_mismatch(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        with pytest.raises(DomainError):
            dom.maximize([1.0, 0.0, 0.0])


class TestBallFixedPoints:
    # a ball holding the origin has two fixed points, where the line through
    # the origin and the center crosses the boundary: the far one attracts,
    # the near one repels; a centered ball fixes its whole boundary
    def test_reference_disk(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        for start in ([2.9, 0.1], [-0.9, 0.1], [-0.9, -0.1]):
            traj = iterate(dom, start)
            assert traj.status == "converged"
            assert np.linalg.norm(traj.final - [3.0, 0.0]) <= 1e-8

    def test_vertical_center(self):
        dom = BallDomain([0.0, 0.5], 1.0)
        for p in ([0.0, 1.5], [0.0, -0.5]):
            assert np.allclose(dom.maximize(p), p, atol=1e-15)

    def test_centered_ball_whole_boundary(self):
        dom = BallDomain([0.0, 0.0], 1.0)
        for t in np.linspace(0.0, 2.0 * np.pi, 13):
            p = np.array([np.cos(t), np.sin(t)])
            assert np.linalg.norm(dom.maximize(p) - p) <= 1e-15

    def test_points_are_fixed(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        for p in ([3.0, 0.0], [-1.0, 0.0]):
            assert np.array_equal(dom.maximize(p), p)


class TestEllipsoidOracle:
    def test_axis_aligned(self):
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        assert np.allclose(dom.maximize([1.0, 0.0]), [2.0, 0.0], atol=0)
        assert np.allclose(dom.maximize([0.0, 1.0]), [0.0, 1.0], atol=0)

    def test_diagonal_direction_beats_dense_boundary_sampling(self):
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        x = np.array([1.0, 1.0])
        t = dom.maximize(x)
        assert np.allclose(t, np.array([4.0, 1.0]) / np.sqrt(5.0), atol=1e-15)
        # independent check: dense sweep of the boundary
        th = np.linspace(0.0, 2.0 * np.pi, 100_000)
        boundary = np.stack([2.0 * np.cos(th), np.sin(th)], axis=1)
        assert np.all(boundary @ x <= x @ t + 1e-8)

    def test_output_on_boundary(self):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        a = q @ np.diag([1.0, 2.5, 7.0]) @ q.T
        dom = EllipsoidDomain(0.5 * (a + a.T))
        for _ in range(50):
            y = dom.maximize(rng.standard_normal(3))
            assert abs(dom.quadratic_form(y) - 1.0) <= 1e-10

    def test_zero_input_canonical(self):
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        y = dom.maximize([0.0, 0.0])
        assert np.allclose(y, [2.0, 0.0], atol=0)

    def test_large_finite_shape_stays_finite(self):
        # halving before the sum keeps 1.5e308 + 1.5e308 from overflowing
        dom = EllipsoidDomain([[1.5e308, 0.0], [0.0, 1.5e308]])
        assert np.array_equal(dom.shape_matrix, np.diag([1.5e308, 1.5e308]))
        assert np.array_equal(dom._eigvals, [1.5e308, 1.5e308])

    def test_large_finite_shape_maximizes_to_a_boundary_point(self):
        # x^T A x would overflow: maximize scales x and A by powers of two
        dom = EllipsoidDomain([[1.5e308, 0.0], [0.0, 1.5e308]])
        y = dom.maximize([1.0, 1.0])
        assert y[0] == y[1] == np.sqrt(0.75e308)
        assert abs(dom.quadratic_form(y) - 1.0) <= 1e-15

    def test_power_of_two_multiples_of_x_map_alike(self):
        # T(2^e x) = T(x) to the bit, also where x^T A x over- or underflows
        dom = EllipsoidDomain([[4.0, 1.0], [1.0, 2.0]])
        x = np.array([3.0, -5.0])
        for e in (-1060, -600, -1, 1, 600, 1020):
            assert np.array_equal(dom.maximize(np.ldexp(x, e)), dom.maximize(x))

    def test_large_asymmetry_rejected_without_overflow(self):
        # halving before the difference keeps 1e308 - (-1e308) finite; a
        # RuntimeWarning would fail the test
        with pytest.raises(DomainError, match="is not symmetric"):
            EllipsoidDomain([[1e308, -1e308], [1e308, 1e308]])

    def test_empty_shape_rejected(self):
        with pytest.raises(DomainError, match="shape matrix is empty"):
            EllipsoidDomain(np.zeros((0, 0)))

    def test_not_positive_definite_rejected(self):
        with pytest.raises(DomainError):
            EllipsoidDomain(np.diag([1.0, 0.0]))
        with pytest.raises(DomainError):
            EllipsoidDomain(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_axis_points_are_the_only_fixed_points(self):
        # a > b: exactly the four axis endpoints are fixed among dense samples
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        th = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
        pts = np.stack([2.0 * np.cos(th), np.sin(th)], axis=1)
        fixed = [p for p in pts if np.linalg.norm(dom.maximize(p) - p) <= 1e-8]
        targets = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        for p in fixed:
            assert np.min(np.linalg.norm(targets - p, axis=1)) < 1e-3
        for t in targets:
            assert np.linalg.norm(dom.maximize(t) - t) <= 1e-12


class TestPolytopeOracle:
    def test_unique_argmax(self):
        dom = PolytopeDomain(SQUARE)
        assert np.array_equal(dom.maximize([2.0, 1.0]), [1.0, 1.0])
        assert np.array_equal(dom.maximize([-1.0, -2.0]), [-1.0, -1.0])

    def test_tie_goes_to_lowest_index(self):
        dom = PolytopeDomain(SQUARE)
        assert np.array_equal(dom.maximize([1.0, 0.0]), [1.0, 1.0])

    def test_huge_vertices_and_query(self):
        # each score overflows unscaled: T scales x by a power of two
        dom = PolytopeDomain([(1e150, 0.0), (0.0, 1e150)])
        assert np.array_equal(dom.maximize([1e199, 1e200]), [0.0, 1e150])

    def test_vertex_whose_squared_norm_overflows_is_rejected(self):
        with pytest.raises(DomainError, match="whose square overflows"):
            PolytopeDomain([(0.0, 0.0), (1e200, 0.0), (0.0, 1.0)])

    def test_empty_and_duplicates_rejected(self):
        with pytest.raises(DomainError):
            PolytopeDomain(np.zeros((0, 2)))
        with pytest.raises(DomainError):
            PolytopeDomain([(1.0, 0.0), (1.0, 0.0)])

    def test_membership(self):
        dom = PolytopeDomain(SQUARE)
        assert dom.contains([0.3, 0.2])
        assert dom.contains([1.0, 1.0])
        assert not dom.contains([1.5, 0.0])

    def test_membership_slack_is_tol_in_the_max_norm(self, monkeypatch):
        dom = PolytopeDomain([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        # 5e-7 from the hull in the max norm, so outside at LP_TOL = 1e-9
        assert LP_TOL == 1e-9
        assert not dom.contains([0.5, 0.5 + 1e-6])
        # the slack is LP_TOL, not the LP solver's own 1e-7 feasibility
        # tolerance: [0.5, 0.5 + d] is d / 2 and [-e, 0.3] is e outside
        for gap, inside in ((5e-10, True), (2e-9, False), (2e-8, False)):
            assert dom.contains([0.5, 0.5 + 2.0 * gap]) == inside, gap
        for gap, inside in ((1e-9, True), (2e-9, False), (1e-7, False)):
            assert dom.contains([-gap, 0.3]) == inside, gap
        # contains reads the constant: [1, 0] is the nearest point of
        # [1.5, 0], 0.5 away in every norm; [0, 0] is the nearest of
        # [-0.5, -0.5], 0.5 away in the max norm and 0.71 in the Euclidean
        for tol, point, inside in ((1e-5, [0.5, 0.5 + 1e-6], True),
                                   (0.4, [1.5, 0.0], False),
                                   (0.6, [1.5, 0.0], True),
                                   (0.4, [-0.5, -0.5], False),
                                   (0.6, [-0.5, -0.5], True)):
            monkeypatch.setattr(domains, "LP_TOL", tol)
            assert dom.contains(point) == inside, (tol, point)


class TestConeOracle:
    def make(self):
        return ConeDomain([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], 1.0)

    def test_apex_dominates(self):
        assert np.array_equal(self.make().maximize([0.0, 0.0, 1.0]), [0.0, 0.0, 2.0])

    def test_base_beats_apex(self):
        # apex scores -2 against this functional, base circle scores 1
        assert np.allclose(self.make().maximize([1.0, 0.0, -1.0]), [1.0, 0.0, 0.0], atol=0)

    def test_axis_functional_tie_rule(self):
        assert np.allclose(self.make().maximize([0.0, 0.0, -1.0]), [1.0, 0.0, 0.0], atol=0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            ConeDomain([0.0, 0.0, 1.0], [0.0, 0.0, 1.0], 1.0)

    def test_query_whose_norm_overflows(self):
        dom = ConeDomain([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 1.0)
        assert np.array_equal(dom.maximize([1e200, 1e200, 0.0]),
                              dom.maximize([1.0, 1.0, 0.0]))

    def test_in_plane_part_that_underflows(self):
        # |xp| underflows to 0 and base_radius / |xp| overflows unscaled
        dom = ConeDomain([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 1e150)
        assert np.allclose(dom.maximize([0.0, 1e-170, -1.0]),
                           [0.0, 1e150, 0.0], rtol=1e-15, atol=0)
        assert np.allclose(dom.maximize([3e-160, 4e-160, -1.0]),
                           [0.6e150, 0.8e150, 0.0], rtol=1e-15, atol=0)

    def test_largest_cone_has_a_finite_height(self):
        # |apex - base_center|^2 overflows, though neither end's does
        dom = ConeDomain([0.0, 0.0, 1e154], [0.0, 0.0, -1e154], 3e153)
        assert dom._height == 2e154
        assert np.array_equal(dom._axis, [0.0, 0.0, 1.0])
        for point in ([0.0, 0.0, -1e154], [0.0, 0.0, 1e154],
                      [3e153, 0.0, -1e154]):
            assert dom.contains(point)
        assert np.array_equal(dom.maximize([1.0, 0.0, -1.0]),
                              [3e153, 0.0, -1e154])

    @pytest.mark.parametrize("apex, base_center, base_radius", [
        ([0.0, 0.0, 1e200], [0.0, 0.0, 0.0], 1e200),
        ([0.0, 0.0, 1.0], [0.0, 0.0, 0.0], 1e200),
        ([0.0, 0.0, 1.0], [1e154, 0.0, 0.0], 1e154),
    ], ids=["apex", "base-radius", "base-center"])
    def test_cone_whose_squared_extent_overflows_is_rejected(
            self, apex, base_center, base_radius):
        with pytest.raises(DomainError, match="whose square overflows"):
            ConeDomain(apex, base_center, base_radius)

    @pytest.mark.parametrize("radius", [0.0, -1.0, np.inf, np.nan])
    def test_base_radius_must_be_positive_and_finite(self, radius):
        with pytest.raises(DomainError,
                           match="base radius must be positive and finite"):
            ConeDomain([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], radius)


class TestCurvatureClassify:
    """The 2-d curvature cases, decided by the map's tangent eigenvalues: on
    a boundary of curvature k, the eigenvalue at a fixed point x is
    1 / (k |x|), so each curvature label carries over."""

    def test_disk_attractive_point(self):
        # circle of radius 2: curvature 1/2 against threshold 1/3
        mu = BallDomain([1.0, 0.0], 2.0).tangent_eigenvalues([3.0, 0.0])
        assert mu.tolist() == [2.0 / 3.0]
        assert _tangent_label(mu) == "attractive"

    def test_disk_repelling_point(self):
        mu = BallDomain([1.0, 0.0], 2.0).tangent_eigenvalues([-1.0, 0.0])
        assert mu.tolist() == [2.0]
        assert _tangent_label(mu) == "repelling"

    def test_centered_circle_indeterminate(self):
        mu = BallDomain([0.0, 0.0], 1.0).tangent_eigenvalues([0.6, 0.8])
        assert _tangent_label(mu) == "indeterminate"

    def test_zero_point_rejected(self):
        for dom in (BallDomain([0.0, 0.0], 1.0),
                    EllipsoidDomain(np.diag([4.0, 1.0]))):
            with pytest.raises(DomainError, match="nonzero fixed point"):
                dom.tangent_eigenvalues([0.0, 0.0])

    def test_matches_ellipse_curvature_formula(self):
        # semi-axes 2 and 1: curvature 2 at (2, 0) and 1/4 at (0, 1)
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        assert dom.tangent_eigenvalues([2.0, 0.0]).tolist() == [1.0 / (2.0 * 2.0)]
        assert dom.tangent_eigenvalues([0.0, 1.0]).tolist() == [1.0 / (0.25 * 1.0)]


class TestTangentEigenvalues:
    @pytest.mark.parametrize("mu, label", [
        ([], "attractive"),  # a 1-d ball or ellipsoid: T is locally constant
        ([0.5, 1.0 - 2 * CLASS_MARGIN], "attractive"),
        ([2.0, 1.0 + 2 * CLASS_MARGIN], "repelling"),
        ([0.5, 2.0], "not_attractive"),
        ([1.0, 2.0], "not_attractive"),
        ([0.5, 1.0], "indeterminate"),
        ([1.0 - CLASS_MARGIN / 2, 1.0 + CLASS_MARGIN / 2], "indeterminate"),
    ])
    def test_rule(self, mu, label):
        assert _tangent_label(np.array(mu)) == label

    def test_ellipsoid_axes_in_3d(self):
        dom = EllipsoidDomain(np.diag([4.0, 2.0, 1.0]))
        cases = [([-2.0, 0.0, 0.0], [0.25, 0.5], "attractive"),
                 ([0.0, 0.0, 1.0], [2.0, 4.0], "repelling")]
        for x, mu, label in cases:
            assert dom.tangent_eigenvalues(x).tolist() == mu
            assert _tangent_label(dom.tangent_eigenvalues(x)) == label
        mu = dom.tangent_eigenvalues([0.0, np.sqrt(2.0), 0.0])
        assert np.allclose(mu, [0.5, 2.0], rtol=1e-15, atol=0)
        assert _tangent_label(mu) == "not_attractive"

    def test_ball_has_one_eigenvalue_of_multiplicity_dim_minus_1(self):
        dom = BallDomain([0.0, 0.0, 0.0, 3.0], 1.0)
        assert dom.tangent_eigenvalues([0.0, 0.0, 0.0, 4.0]).tolist() == [0.25] * 3
        assert dom.tangent_eigenvalues([0.0, 0.0, 0.0, 2.0]).tolist() == [0.5] * 3

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_closed_forms_match_the_map_s_jacobian(self, dim):
        # central differences of T at each closed-form fixed point: the
        # eigenvalues besides the 0 along x are the tangent eigenvalues
        rng = np.random.default_rng(dim)
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        lam = np.sort(rng.uniform(0.5, 4.0, dim))
        ell = EllipsoidDomain(q @ np.diag(lam) @ q.T)
        w, v = np.linalg.eigh(ell.shape_matrix)
        c = rng.standard_normal(dim)
        ball = BallDomain(c, 2.0 * np.linalg.norm(c))
        u = c / np.linalg.norm(c)
        points = [(ell, s * np.sqrt(w[i]) * v[:, i])
                  for i in range(dim) for s in (1.0, -1.0)]
        points += [(ball, 3.0 * np.linalg.norm(c) * u),
                   (ball, -np.linalg.norm(c) * u)]
        h = 1e-6
        for dom, x in points:
            assert np.linalg.norm(dom.maximize(x) - x) <= 1e-12 * np.linalg.norm(x)
            jac = np.column_stack([
                (dom.maximize(x + h * e) - dom.maximize(x - h * e)) / (2 * h)
                for e in np.eye(dim)])
            eig = np.linalg.eigvalsh(0.5 * (jac + jac.T))
            eig = np.delete(eig, np.argmin(np.abs(eig)))
            assert np.allclose(eig, np.sort(dom.tangent_eigenvalues(x)),
                               rtol=1e-6, atol=1e-6)


class TestLoadDomain:
    def test_ball(self, tmp_path):
        cfg = tmp_path / "disk.cfg"
        cfg.write_text("kind=ball\ncenter=1,0\nradius=2\n")
        dom = load_domain(cfg)
        assert isinstance(dom, BallDomain)
        assert np.array_equal(dom.center, [1.0, 0.0]) and dom.radius == 2.0

    def test_ellipsoid(self, tmp_path):
        cfg = tmp_path / "e.cfg"
        cfg.write_text("kind=ellipsoid\nshape=4 0; 0 1\n")
        dom = load_domain(cfg)
        assert isinstance(dom, EllipsoidDomain)
        assert np.array_equal(dom.shape_matrix, np.diag([4.0, 1.0]))

    def test_polytope_and_cone(self, tmp_path):
        cfg = tmp_path / "p.cfg"
        cfg.write_text("kind=polytope\nvertices=1,1; 1,-1; -1,1; -1,-1\n")
        assert isinstance(load_domain(cfg), PolytopeDomain)
        cfg2 = tmp_path / "c.cfg"
        cfg2.write_text("# a cone\nkind=cone\napex=0,0,2\nbase_center=0,0,0\nbase_radius=1\n")
        assert isinstance(load_domain(cfg2), ConeDomain)

    def test_elliptope_kind(self, tmp_path):
        from iterlinopt import ElliptopeDomain
        cfg = tmp_path / "l.cfg"
        cfg.write_text("kind=elliptope\nn=3\n")
        dom = load_domain(cfg)
        assert isinstance(dom, ElliptopeDomain) and dom.n == 3

    def test_elliptope_keys(self, tmp_path):
        # the map takes no oracle settings, so n is the kind's only key
        cfg = tmp_path / "l.cfg"
        for key in ("rank", "seed"):
            cfg.write_text(f"kind=elliptope\nn=4\n{key}=2\n")
            with pytest.raises(DomainError, match=f"takes no key '{key}'"):
                load_domain(cfg)

    def test_aliases_take_the_keys_of_their_kind(self, tmp_path):
        cfg = tmp_path / "d.cfg"
        cfg.write_text("kind=disk\ncenter=1,0\nradius=2\n")
        assert isinstance(load_domain(cfg), BallDomain)
        cfg.write_text("kind=ellipse\nshape=4 0; 0 1\n")
        assert isinstance(load_domain(cfg), EllipsoidDomain)

    @pytest.mark.parametrize("text, kind, key", [
        ("kind=elliptope\nn=3\nrestarts=5\n", "elliptope", "restarts"),
        ("kind=ball\ncenter=1,0\nradious=2\nradius=2\n", "ball", "radious"),
        ("shape=1 0; 0 1\nkind=disk\ncenter=1,0\nradius=2\n", "disk", "shape"),
    ])
    def test_unknown_key_rejected_naming_it(self, tmp_path, text, kind, key):
        cfg = tmp_path / "u.cfg"
        cfg.write_text(text)
        with pytest.raises(DomainError,
                           match=f"u.cfg: kind '{kind}' takes no key '{key}'$"):
            load_domain(cfg)

    def test_rejects_a_file_not_in_utf8(self, tmp_path):
        cfg = tmp_path / "b.cfg"
        cfg.write_bytes(b"kind=ball\ncenter=1,0\nradius=2 # \xe9\n")
        with pytest.raises(DomainError, match="b.cfg: not UTF-8 text"):
            load_domain(cfg)

    def test_errors(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("kind=torus\n")
        with pytest.raises(DomainError):
            load_domain(bad)
        missing = tmp_path / "missing.cfg"
        missing.write_text("kind=ball\ncenter=0,0\n")
        with pytest.raises(DomainError):
            load_domain(missing)
        garbled = tmp_path / "g.cfg"
        garbled.write_text("kind=ball\ncenter=zero\nradius=1\n")
        with pytest.raises(DomainError):
            load_domain(garbled)
