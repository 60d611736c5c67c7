import dataclasses

import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    ClassificationResult,
    ConeDomain,
    ElliptopeDomain,
    EllipsoidDomain,
    ElliptopeError,
    EscapeWitness,
    ExactClassification,
    classify_elliptope_fixed_point,
    classify_empirical,
    curvature_classify_2d,
    escape_curve,
    escape_pair,
    gram_factor,
    gram_to_matrix,
    is_in_elliptope,
    l3_census,
    l4_family,
)
from iterlinopt.classify import ESCAPE_ALPHAS
from iterlinopt.elliptope import SIGN_TOL

J3 = np.ones((3, 3))
PUFF = np.array([[1.0, -0.5, -0.5], [-0.5, 1.0, -0.5], [-0.5, -0.5, 1.0]])
GREEN = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])


class TestEmpirical2D:
    def test_disk_attractive(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        res = classify_empirical(dom, np.array([3.0, 0.0]), eps=0.3, samples=32)
        assert res.label == "attractive"
        assert res.returned == 32 and res.escaped == 0

    def test_disk_repelling(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        res = classify_empirical(dom, np.array([-1.0, 0.0]), eps=0.3, samples=32)
        assert res.label == "repelling"
        assert res.escaped == 32

    def test_ellipse_minor_axis_repelling(self):
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        res = classify_empirical(dom, np.array([0.0, 1.0]), eps=0.2, samples=24)
        assert res.label == "repelling"

    def test_ellipse_major_axis_attractive(self):
        dom = EllipsoidDomain(np.diag([4.0, 1.0]))
        res = classify_empirical(dom, np.array([2.0, 0.0]), eps=0.2, samples=24)
        assert res.label == "attractive"

    def test_cone_base_circle_neither(self):
        dom = ConeDomain([0.0, 0.0, 2.0], [0.0, 0.0, 0.0], 1.0)
        res = classify_empirical(dom, np.array([1.0, 0.0, 0.0]), eps=0.2, samples=16)
        assert res.label == "neither"
        assert res.returned == 0 and res.escaped == 0 and res.undecided == 16

    def test_centered_circle_boundary_neither(self):
        dom = BallDomain([0.0, 0.0], 1.0)
        res = classify_empirical(dom, np.array([0.6, 0.8]), eps=0.2, samples=16)
        assert res.label == "neither"

    def test_rejects_non_fixed_point(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        with pytest.raises(ValueError):
            classify_empirical(dom, np.array([0.0, 2.0]), eps=0.1, samples=4)

    def test_agrees_with_curvature_rule(self):
        disk = BallDomain([1.0, 0.0], 2.0)
        ellipse = EllipsoidDomain(np.diag([4.0, 1.0]))
        cases = [
            (disk, np.array([3.0, 0.0])),
            (disk, np.array([-1.0, 0.0])),
            (ellipse, np.array([2.0, 0.0])),
            (ellipse, np.array([0.0, 1.0])),
        ]
        for dom, x in cases:
            emp = classify_empirical(dom, x, eps=0.15, samples=16)
            cur = curvature_classify_2d(dom.boundary_curvature(x), x)
            assert emp.label == cur


    def test_needs_at_least_one_sample(self):
        dom = BallDomain([1.0, 0.0], 2.0)
        for samples in (0, -2):
            with pytest.raises(ValueError, match="at least one sample"):
                classify_empirical(dom, np.array([3.0, 0.0]), eps=0.3,
                                   samples=samples)

    def test_eps_must_be_positive_and_finite(self):
        # no ball to sample in: rejected before the map runs
        calls = []

        class CountingBall(BallDomain):
            def maximize(self, x):
                calls.append(x)
                return super().maximize(x)

        cases = [(CountingBall([1.0, 0.0], 2.0), np.array([3.0, 0.0])),
                 (CountingBall([1.0, 0.0], 2.0), np.array([-1.0, 0.0])),
                 (ElliptopeDomain(3), PUFF)]
        for dom, x in cases:
            for eps in (0.0, -0.1, np.inf, np.nan):
                with pytest.raises(ValueError, match="eps must be positive"):
                    classify_empirical(dom, x, eps=eps, samples=4)
        assert calls == []


class TestVertexBasin:
    # a feasible matrix within unit distance of a vertex shares its sign
    # pattern, and one step of the map returns the vertex
    @staticmethod
    def _blend(vertex, t):
        # feasible matrix between the vertex and the identity
        m = (1.0 - t) * vertex + t * np.eye(len(vertex))
        assert is_in_elliptope(m)
        return m

    @staticmethod
    def _one_step(x, m):
        return np.max(np.abs(ElliptopeDomain(len(x)).maximize(m) - x)) <= SIGN_TOL

    def test_blend_maps_back_in_one_step(self):
        m = self._blend(J3, 0.1)
        assert np.all(m[m != 1.0] >= 0.9)
        assert self._one_step(J3, m)

    def test_vertex_is_its_own_basin(self):
        assert self._one_step(J3, J3)

    def test_random_vertices_random_neighbors(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(3, 7))
            s = rng.choice([-1.0, 1.0], size=n)
            x = np.outer(s, s)
            m = self._blend(x, 0.05 + 0.25 * rng.random())
            assert np.linalg.norm(m - x) < 1.0
            assert self._one_step(x, m)


class TestEscapeCurve:
    def test_endpoint_is_the_input(self):
        x = escape_curve(GREEN, 0.0)
        assert np.max(np.abs(x - GREEN)) <= 1e-12

    def test_green_point_norm_increases(self):
        base = float(np.vdot(GREEN, GREEN))
        assert base == 5.0
        x = escape_curve(GREEN, 0.1)
        assert float(np.vdot(x, x)) > base

    def test_identity_alpha_half(self):
        for n in (3, 5):
            x = escape_curve(np.eye(n), 0.5)
            assert float(np.vdot(x, x)) > n

    def test_strictly_increasing_and_feasible_along_grid(self):
        for mat in (GREEN, PUFF, np.eye(4)):
            base = float(np.vdot(mat, mat))
            prev = base
            for k in range(1, 11):
                xa = escape_curve(mat, k / 10.0)
                val = float(np.vdot(xa, xa))
                assert val > prev
                assert np.array_equal(np.diag(xa), np.ones(len(mat)))
                assert np.linalg.eigvalsh(xa)[0] >= -1e-9
                prev = val

    def test_it_moves_the_row_of_escape_pair(self):
        # row i of gram_factor(x) moved toward +-row j, (i, j) =
        # escape_pair(x), and renormalized, to the last bit
        points = [GREEN, PUFF, np.eye(4)] + [
            p.matrix for p in l3_census() if p.family != "vertex"]
        for x in points:
            i, j = escape_pair(x)
            sign = 1.0 if x[i, j] >= 0.0 else -1.0
            for alpha in (0.0, 0.1, 0.25, 0.5, 1.0):
                v = gram_factor(x)
                w = (1.0 - alpha) * v[i] + alpha * sign * v[j]
                v[i] = w / float(np.linalg.norm(w))
                assert np.array_equal(escape_curve(x, alpha),
                                      gram_to_matrix(v))

    def test_vertex_has_no_escape_pair(self):
        from iterlinopt import ElliptopeError
        with pytest.raises(ElliptopeError):
            escape_curve(J3, 0.2)

    def test_pair_respects_row_weight_order(self):
        i, j = escape_pair(GREEN)
        d = np.sum(GREEN * GREEN, axis=1)
        assert d[i] <= d[j] + 1e-12
        assert abs(GREEN[i, j]) < 1.0

    def test_alpha_range_checked(self):
        with pytest.raises(ValueError):
            escape_curve(GREEN, 1.5)


class TestElliptopeClassification:
    def test_vertex_attractive(self):
        res = classify_elliptope_fixed_point(J3)
        assert res.label == "attractive" and res.witness is None

    def test_face_point_not_attractive_with_witness(self):
        res = classify_elliptope_fixed_point(PUFF)
        assert res.label == "not_attractive"
        w = res.witness
        assert w is not None
        base = float(np.vdot(PUFF, PUFF))
        assert all(v > base for v in w.norms_sq)
        assert all(b > a for a, b in zip(w.norms_sq, w.norms_sq[1:]))

    def test_witness_norms_are_the_escape_curve_s_from_one_factor(
            self, monkeypatch):
        # every witness point is escape_curve's to the last bit, and the
        # ten of them share one eigendecomposition of x
        calls = []
        eigh = np.linalg.eigh

        def counted(a):
            calls.append(1)
            return eigh(a)

        points = [p.matrix for p in l3_census() if p.family == "face"]
        points += [l4_family(c) for c in (0.25, 0.5, 0.75)]
        for x in points:
            curve = [escape_curve(x, alpha) for alpha in ESCAPE_ALPHAS]
            monkeypatch.setattr(np.linalg, "eigh", counted)
            calls.clear()
            w = classify_elliptope_fixed_point(x).witness
            monkeypatch.undo()
            assert len(calls) == 1
            assert w.alphas == list(ESCAPE_ALPHAS)
            assert w.norms_sq == [float(np.vdot(xa, xa)) for xa in curve]

    def test_the_exact_verdict_has_its_own_type(self):
        vertex = classify_elliptope_fixed_point(J3)
        assert type(vertex) is ExactClassification
        assert vertex.witness is None
        face = [p for p in l3_census() if p.family == "face"][0].matrix
        res = classify_elliptope_fixed_point(face)
        assert type(res) is ExactClassification
        assert isinstance(res.witness, EscapeWitness)
        assert [f.name for f in dataclasses.fields(ExactClassification)] == [
            "label", "witness"]

    def test_the_sampled_result_carries_no_witness(self):
        assert [f.name for f in dataclasses.fields(ClassificationResult)] == [
            "label", "eps", "samples", "returned", "escaped"]

    def test_identity_not_attractive(self):
        res = classify_elliptope_fixed_point(np.eye(4))
        assert res.label == "not_attractive" and res.witness is not None

    def test_non_fixed_point_rejected(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((4, 3))
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        with pytest.raises(ElliptopeError, match=r"^not a fixed point \(residual "):
            classify_elliptope_fixed_point(gram_to_matrix(v))

    def test_census_vertices_attractive_empirically(self):
        for p in l3_census():
            if p.family != "vertex":
                continue
            dom = ElliptopeDomain(3)
            res = classify_empirical(dom, p.matrix, eps=0.25, samples=32, seed=3)
            assert res.label == "attractive"

    def test_census_non_vertices_never_attractive_empirically(self):
        for p in l3_census():
            if p.family == "vertex":
                continue
            dom = ElliptopeDomain(3)
            res = classify_empirical(dom, p.matrix, eps=0.25, samples=8, seed=3,
                                     max_iter=500)
            assert res.label != "attractive"
