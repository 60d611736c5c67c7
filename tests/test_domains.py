import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    ConeDomain,
    DomainError,
    EllipsoidDomain,
    PolytopeDomain,
    ball_fixed_points,
    curvature_classify_2d,
    load_domain,
)

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

    def test_dimension_mismatch(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        with pytest.raises(DomainError):
            dom.maximize([1.0, 0.0, 0.0])

    def test_optimality_and_boundary_random(self):
        # output must beat every feasible point and sit on the boundary
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = int(rng.integers(2, 5))
            c = rng.standard_normal(d)
            r = 0.5 + rng.random()
            dom = BallDomain(c, r)
            for _ in range(4):
                x = rng.standard_normal(d)
                t = dom.maximize(x)
                assert abs(np.linalg.norm(t - c) - r) <= 1e-10
                ys = np.array([dom.sample(rng) for _ in range(100)])
                assert np.all(ys @ x <= x @ t + 1e-9)


class TestBallFixedPoints:
    def test_reference_disk(self):
        res = ball_fixed_points(BallDomain([1.0, 0.0], 2.0))
        assert not res.whole_boundary
        (a, la), (r, lr) = res.points
        assert la == "attractive" and np.allclose(a, [3.0, 0.0], atol=0)
        assert lr == "repelling" and np.allclose(r, [-1.0, 0.0], atol=0)

    def test_vertical_center(self):
        res = ball_fixed_points(BallDomain([0.0, 0.5], 1.0))
        (a, _), (r, _) = res.points
        assert np.allclose(a, [0.0, 1.5], atol=1e-15)
        assert np.allclose(r, [0.0, -0.5], atol=1e-15)

    def test_centered_ball_whole_boundary(self):
        res = ball_fixed_points(BallDomain([0.0, 0.0], 1.0))
        assert res.whole_boundary and res.points == []

    def test_origin_outside_rejected(self):
        with pytest.raises(DomainError):
            ball_fixed_points(BallDomain([3.0, 0.0], 1.0))

    def test_points_are_fixed(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        for p, _ in ball_fixed_points(dom).points:
            assert np.linalg.norm(dom.maximize(p) - p) <= 1e-10


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

    def test_membership_slack_is_tol_in_the_max_norm(self):
        dom = PolytopeDomain([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0)])
        assert not dom.contains([0.5, 0.5 + 1e-6], tol=1e-9)
        assert dom.contains([0.5, 0.5 + 1e-6], tol=1e-5)
        # [1, 0] is the nearest point, 0.5 away in every norm
        assert not dom.contains([1.5, 0.0], tol=0.4)
        assert dom.contains([1.5, 0.0], tol=0.6)

    def test_optimality_random(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            dom = PolytopeDomain(rng.standard_normal((6, 3)))
            x = rng.standard_normal(3)
            t = dom.maximize(x)
            ys = np.array([dom.sample(rng) for _ in range(100)])
            assert np.all(ys @ x <= x @ t + 1e-9)


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

    def test_optimality_random(self):
        rng = np.random.default_rng(7)
        dom = ConeDomain([0.3, -0.2, 1.7], [0.1, 0.2, -0.3], 0.8)
        for _ in range(40):
            x = rng.standard_normal(3)
            t = dom.maximize(x)
            ys = np.array([dom.sample(rng) for _ in range(200)])
            assert np.all(ys @ x <= x @ t + 1e-9)
            assert dom.contains(t, tol=1e-9)


class TestCurvatureClassify:
    def test_disk_attractive_point(self):
        # circle of radius 2: curvature 1/2 against threshold 1/3
        assert curvature_classify_2d(0.5, [3.0, 0.0]) == "attractive"

    def test_disk_repelling_point(self):
        assert curvature_classify_2d(0.5, [-1.0, 0.0]) == "repelling"

    def test_centered_circle_indeterminate(self):
        assert curvature_classify_2d(1.0, [0.6, 0.8]) == "indeterminate"

    def test_zero_point_rejected(self):
        with pytest.raises(DomainError):
            curvature_classify_2d(1.0, [0.0, 0.0])

    def test_matches_ellipse_curvature_formula(self):
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        assert abs(dom.boundary_curvature([2.0, 0.0]) - 2.0) < 1e-12
        assert abs(dom.boundary_curvature([0.0, 1.0]) - 0.25) < 1e-12


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
