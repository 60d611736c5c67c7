"""Heavier cross-module property sweeps, vectorized where the counts are big."""

import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    ConeDomain,
    ElliptopeDomain,
    EllipsoidDomain,
    OracleConfig,
    PolytopeDomain,
    elliptope_oracle,
    fixed_point_certificate,
    irreducible_components,
    l3_census,
    l4_family,
    sign_kernel_fixed_point,
)
from iterlinopt.elliptope import _ascend, default_rank_budget, random_gram


def _ball_case(rng):
    d = int(rng.integers(2, 5))
    c = rng.standard_normal(d)
    r = 0.5 + rng.random()
    dom = BallDomain(c, r)
    u = rng.standard_normal((1000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    ys = c + r * rng.random((1000, 1)) ** (1.0 / d) * u
    return dom, ys


def _ellipsoid_case(rng):
    d = int(rng.integers(2, 5))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (q * (0.3 + 2.0 * rng.random(d))) @ q.T
    dom = EllipsoidDomain(0.5 * (a + a.T))
    u = rng.standard_normal((1000, d))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    u *= rng.random((1000, 1)) ** (1.0 / d)
    w, qq = np.linalg.eigh(dom.shape_matrix)
    ys = (u @ qq) * np.sqrt(w) @ qq.T
    return dom, ys


def _polytope_case(rng):
    d = int(rng.integers(2, 5))
    m = int(rng.integers(d + 1, 8))
    verts = rng.standard_normal((m, d))
    dom = PolytopeDomain(verts)
    ys = rng.dirichlet(np.ones(m), size=1000) @ verts
    return dom, ys


def _cone_case(rng):
    apex = rng.standard_normal(3)
    base = apex + rng.standard_normal(3)
    dom = ConeDomain(apex, base, 0.2 + rng.random())
    t = rng.random((1000, 1))
    rad = dom.base_radius * (1.0 - t) * np.sqrt(rng.random((1000, 1)))
    ang = 2.0 * np.pi * rng.random((1000, 1))
    ys = (dom.base_center + t * (apex - base)
          + rad * (np.cos(ang) * dom._plane1 + np.sin(ang) * dom._plane2))
    return dom, ys


@pytest.mark.parametrize("case", [_ball_case, _ellipsoid_case,
                                  _polytope_case, _cone_case])
def test_oracle_beats_1000_feasible_points_per_query(case):
    # 250 (domain, x) pairs per domain kind, 1000 feasible points each
    rng = np.random.default_rng(hash(case.__name__) % 2**32)
    for _ in range(250):
        dom, ys = case(rng)
        x = rng.standard_normal(dom.dim)
        t = dom.maximize(x)
        assert np.max(ys @ x) <= float(x @ t) + 1e-9


def test_elliptope_oracle_beats_random_members():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        c = rng.standard_normal((n, n))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c, OracleConfig(seed=int(rng.integers(2**31))))
        dom = ElliptopeDomain(n)
        for _ in range(40):
            y = dom.sample(rng)
            assert float(np.vdot(c, y)) <= res.objective + 1e-9


def _verified_fixed_points():
    pts = [p.matrix for p in l3_census()]
    pts += [l4_family(c) for c in (-0.8, -0.2, 0.45, 0.9)]
    pts += [sign_kernel_fixed_point(np.array(w, dtype=float))
            for w in ((1, 1, -1, 0, 1), (1, -1, 0, 0, 0, 1), (0, 1, 1, 1, 1))]
    pts.append(np.eye(5))
    return pts


def test_diagonal_bound_on_verified_fixed_points():
    for x in _verified_fixed_points():
        cert = fixed_point_certificate(x)
        assert cert.is_fixed
        assert np.all(cert.d >= 1.0 - 1e-9)


def test_blocks_of_fixed_points_are_fixed_points():
    for x in _verified_fixed_points():
        for comp in irreducible_components(x):
            block = x[np.ix_(comp, comp)]
            assert fixed_point_certificate(block).is_fixed


def test_batched_restarts_match_single_runs():
    # restarts advance as one batch; each must end as it would alone, also
    # after other runs of the batch have stopped and been dropped from it
    rng = np.random.default_rng(5)
    for n, s in ((8, 9), (15, 3)):
        c = rng.standard_normal((n, n))
        c = 0.5 * (c + c.T)
        batched = elliptope_oracle(c, OracleConfig(seed=s, restarts=5))
        singles = [elliptope_oracle(c, OracleConfig(seed=s + k, restarts=1))
                   for k in range(5)]
        sweeps = [one.sweeps for one in singles]
        assert len(set(sweeps)) > 1
        assert batched.sweeps == sweeps[batched.best_index]
        for k, one in enumerate(singles):
            assert batched.restart_objectives[k] == pytest.approx(
                one.restart_objectives[0], rel=1e-12)
            assert np.max(np.abs(batched.candidate_grams[k]
                                 - one.candidate_grams[0])) <= 1e-10
        # per-run sweep counts straight from the kernel
        c_off = c - np.diag(np.diag(c))
        starts = np.stack([random_gram(n, default_rank_budget(n),
                                       np.random.default_rng(s + k))
                           for k in range(5)], axis=1)
        runs = _ascend(c, c_off, starts, OracleConfig())
        assert [run[1] for run in runs] == sweeps


def test_batched_rows_freeze_per_run():
    # row 0 has a zero gradient in the first run only: v_1 = -v_2 there
    c = np.array([[0.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    c_off = c.copy()
    e = np.eye(3)
    starts = np.stack([np.array([e[0], e[1], -e[1]]),
                       np.array([e[0], e[1], e[1]])], axis=1)
    cfg = OracleConfig()
    runs = _ascend(c, c_off, starts, cfg)
    alone = [_ascend(c, c_off, starts[:, k:k + 1], cfg)[0] for k in range(2)]
    assert np.array_equal(runs[0][0][0], e[0])
    for run, one in zip(runs, alone):
        assert run[1] == one[1]
        assert np.max(np.abs(run[0] - one[0])) <= 1e-12
