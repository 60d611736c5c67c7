"""Heavier cross-module property sweeps, vectorized where the counts are big."""

import itertools

import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    ConeDomain,
    ElliptopeDomain,
    EllipsoidDomain,
    OracleConfig,
    PolytopeDomain,
    WeightedGraph,
    brute_force_maxcut,
    cut_value,
    elliptope,
    elliptope_oracle,
    fixed_point_certificate,
    gram_factor,
    gram_to_matrix,
    gw_hyperplane_round,
    l3_census,
    l4_family,
    round_by_iteration,
    sign_kernel_census,
    sign_kernel_fixed_point,
    solve_relaxation,
)
from iterlinopt.elliptope import (
    GRAD_TOL,
    NORMAL_CONE_TOL,
    SWEEP_TOL,
    _ascend,
    _better_vertex,
    _color_classes,
    _components,
    _dual_certified,
    _is_vertex,
    _row_norms,
    default_rank_budget,
    random_gram,
)
from iterlinopt.maxcut import _power_step

from feasible_points import random_feasible_point


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
    plane2 = np.cross(dom._axis, dom._plane1)
    ys = (dom.base_center + t * (apex - base)
          + rad * (np.cos(ang) * dom._plane1 + np.sin(ang) * plane2))
    return dom, ys


@pytest.mark.parametrize("case", [_ball_case, _ellipsoid_case,
                                  _polytope_case, _cone_case])
def test_oracle_beats_1000_feasible_points_per_query(case):
    # 250 (domain, x) pairs per domain kind, 1000 feasible points each; a
    # ball's maximizer lies on its sphere, and a cone's, apex or base
    # circle, is feasible
    rng = np.random.default_rng(hash(case.__name__) % 2**32)
    for _ in range(250):
        dom, ys = case(rng)
        x = rng.standard_normal(dom.dim)
        t = dom.maximize(x)
        assert np.max(ys @ x) <= float(x @ t) + 1e-9
        if case is _ball_case:
            assert abs(np.linalg.norm(t - dom.center) - dom.radius) <= 1e-10
        elif case is _cone_case:
            assert dom.contains(t)


def test_elliptope_oracle_beats_random_members():
    rng = np.random.default_rng(77)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        c = rng.standard_normal((n, n))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c, OracleConfig(seed=int(rng.integers(2**31))))
        dom = ElliptopeDomain(n)
        for _ in range(40):
            y = random_feasible_point(dom, rng)
            assert float(np.vdot(c, y)) <= res.objective + 1e-9


def test_warm_started_map_matches_cold_restarts():
    # the map runs from X's own full-width factor alone; at that width the
    # ascent has no spurious local maxima, so a cold start does no better
    rng = np.random.default_rng(41)
    for k in range(36):
        n = 2 + k % 11
        x = gram_to_matrix(random_gram(n, int(rng.integers(1, n + 1)), rng))
        tx = ElliptopeDomain(n).maximize(x)
        cold = elliptope_oracle(x, OracleConfig(seed=k))
        obj = float(np.vdot(x, tx))
        assert obj >= cold.objective - 1e-12 * max(1.0, abs(obj))


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
        for comp in _components(x):
            block = x[np.ix_(comp, comp)]
            assert fixed_point_certificate(block).is_fixed


# ---------------------------------------------------------------------------
# the colour-class sweep of the ascent kernel
# ---------------------------------------------------------------------------

def _cost(n, edges):
    """The max-cut relaxation cost -W of a weighted edge list."""
    c = np.zeros((n, n))
    for u, v, w in edges:
        c[u, v] = c[v, u] = -w
    return c


def _path(n):
    return _cost(n, [(i, i + 1, 1.0) for i in range(n - 1)])


def _torus(rows, cols, rng=None):
    edges = []
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            for v in (i * cols + (j + 1) % cols, ((i + 1) % rows) * cols + j):
                w = 1.0 if rng is None else float(rng.choice((-1.0, 1.0)))
                edges.append((u, v, w))
    return _cost(rows * cols, edges)


def _gnp(n, p, rng):
    return _cost(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p])


def _classes(c_off):
    """The colour classes as index lists, after checking that they
    partition the indices and share no cost entry within a class."""
    n = c_off.shape[0]
    perm, bounds = _color_classes(c_off)
    assert sorted(perm) == list(range(n))
    classes = [list(perm[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
    assert all(classes) and sum(map(len, classes)) == n
    for cls in classes:
        assert cls == sorted(cls)
        assert not np.any(c_off[np.ix_(cls, cls)])
    return classes


def _cyclic_reference(c, c_off, v0, cfg):
    """The plain cyclic sweep: one 1-d product per row, rows in index order,
    with the vertex check after sweeps 1, 2, 4, .... Same run as _ascend,
    which must reproduce it in the order of its colour classes, but with
    the objective of every sweep it took, where _ascend keeps the last."""
    objs = []
    status = "max_sweeps"
    v = v0.copy()
    for sweep in range(1, cfg.max_sweeps + 1):
        start = v.copy()
        for i in range(v.shape[0]):
            g = c_off[i] @ v
            ng = _row_norms(g)
            np.divide(g, ng, out=v[i], where=ng >= GRAD_TOL)
        objs.append(float(((c @ v) * v).sum()))
        if _row_norms(v - start).max() < SWEEP_TOL:
            status = "step_tol"
            break
        if not sweep & (sweep - 1):
            cert = _better_vertex(c, v, objs[-1])
            if cert is not None and _dual_certified(
                    c, cert[0] * (c @ cert[0]), NORMAL_CONE_TOL):
                v[:] = 0.0
                v[:, 0] = cert[0]
                objs.append(cert[1])
                status = "certified_vertex"
                break
    return v, len(objs) - (status == "certified_vertex"), objs, status


def _starts(n, runs, seed):
    return [random_gram(n, default_rank_budget(n),
                        np.random.default_rng(seed + k)) for k in range(runs)]


def test_colour_classes_of_bipartite_and_complete_patterns():
    assert _classes(_path(20)) == [list(range(0, 20, 2)), list(range(1, 20, 2))]
    torus = _classes(_torus(6, 10))
    assert len(torus) == 2
    assert torus[0] == [u for u in range(60) if (u // 10 + u % 10) % 2 == 0]
    k5 = -np.ones((5, 5))
    np.fill_diagonal(k5, 0.0)
    assert _classes(k5) == [[i] for i in range(5)]


def test_colour_classes_take_isolated_vertices():
    c = _cost(4, [(0, 1, 1.0), (1, 3, 2.0)])  # vertex 2 has no edge
    assert _classes(c) == [[0, 2, 3], [1]]
    assert _classes(np.zeros((3, 3))) == [[0, 1, 2]]


def test_colour_classes_are_valid_on_random_patterns():
    rng = np.random.default_rng(13)
    for k in range(40):
        n = int(rng.integers(1, 30))
        _classes(_gnp(n, float(rng.uniform(0.05, 0.9)), rng))


@pytest.mark.parametrize("cost", [
    lambda rng: _path(20),
    lambda rng: _torus(4, 6, rng),
    lambda rng: _gnp(20, 0.3, rng),
], ids=["path", "torus-pm", "gnp"])
def test_colour_class_sweep_matches_cyclic_reference(cost):
    c = cost(np.random.default_rng(17))
    n = c.shape[0]
    cfg = OracleConfig()
    starts = _starts(n, 3, 5)
    perm, bounds = _color_classes(c)
    assert len(bounds) - 1 < n  # a sparse pattern: some class holds two rows
    pc = c[np.ix_(perm, perm)]
    for v0 in starts:
        v, sweeps, obj, status = _ascend(c, c, v0, cfg)
        w, ref_sweeps, objs, ref_status = _cyclic_reference(pc, pc, v0[perm], cfg)
        assert (sweeps, status) == (ref_sweeps, ref_status)
        assert np.max(np.abs(v[perm] - w)) <= 1e-12
        assert obj == pytest.approx(objs[-1], rel=1e-12)
        assert np.all(np.diff(objs) >= -1e-12 * max(1.0, abs(objs[-1])))


def test_dense_cost_sweeps_bitwise_as_the_reference():
    rng = np.random.default_rng(23)
    c = rng.standard_normal((12, 12))
    c = 0.5 * (c + c.T)
    c_off = c - np.diag(np.diag(c))
    cfg = OracleConfig()
    for v0 in _starts(12, 4, 1):
        v, *rest = _ascend(c, c_off, v0, cfg)
        w, sweeps, objs, status = _cyclic_reference(c, c_off, v0, cfg)
        assert np.array_equal(v, w)
        assert rest == [sweeps, objs[-1], status]


def test_single_run_rows_sweep_bitwise_as_the_reference():
    # the rows of a dense cost take the scalar row update: one run at
    # width n, and one whose row 0 starts with a zero gradient
    rng = np.random.default_rng(29)
    dense = rng.standard_normal((12, 12))
    dense = 0.5 * (dense + dense.T)
    k3 = _complete(3)  # never certified: no vertex is optimal
    e = np.eye(3)
    frozen = np.array([e[2], e[0], -e[0]])  # g_0 = -(v_1 + v_2) = 0
    for c, c_off, starts, cfg in [
            (dense, dense - np.diag(np.diag(dense)),
             random_gram(12, 12, rng), OracleConfig()),
            (k3, k3, frozen, OracleConfig(max_sweeps=1)),
            (k3, k3, frozen, OracleConfig())]:
        v, *rest = _ascend(c, c_off, starts, cfg)
        w, sweeps, objs, status = _cyclic_reference(c, c_off, starts, cfg)
        assert np.array_equal(v, w)
        assert rest == [sweeps, objs[-1], status]
    first_sweep = _ascend(k3, k3, frozen, OracleConfig(max_sweeps=1))[0]
    assert np.array_equal(first_sweep[0], e[2])


@pytest.mark.parametrize("r", [1, 8, 40])
def test_row_norms_are_batch_invariant_linalg_norms(r):
    # a row's norm has the same bits in any stack as alone, and as
    # np.linalg.norm gives them: a class block's rows and a singleton's
    # scalar norm take one rule
    rng = np.random.default_rng(r)
    a = rng.standard_normal((6, 5, r)) * 10.0 ** np.arange(-2, 4)[:, None, None]
    norms = _row_norms(a)
    assert norms.shape == (6, 5)
    for i, j in np.ndindex(6, 5):
        assert norms[i, j] == np.linalg.norm(a[i, j])
        assert _row_norms(a[i, j]) == norms[i, j]
        assert np.array_equal(_row_norms(a[i:, j:j + 1]), norms[i:, j:j + 1])


# ---------------------------------------------------------------------------
# the normal cone, the reference of the oracle's vertex stop
# ---------------------------------------------------------------------------

J3 = np.ones((3, 3))


def normal_cone_membership(x, y) -> bool:
    """Whether y lies in the normal cone at x.

    Membership means y = D - M with D diagonal, M positive semidefinite
    and M X = 0. D is forced to diag(Y X), so the test reduces to checking
    the recovered M.
    """
    a = elliptope.check_symmetric(x)
    assert elliptope.is_in_elliptope(a)
    b = elliptope.check_symmetric(y)
    m = np.diag(np.diag(b @ a)) - b
    if float(np.linalg.norm(m @ a)) > NORMAL_CONE_TOL:
        return False
    return bool(np.linalg.eigvalsh(m)[0] >= -NORMAL_CONE_TOL)


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


def test_capped_run_is_polished_to_a_vertex_outside_the_cone():
    # the case of test_elliptope's capped-run polish: three sweeps leave
    # the winning run short of a vertex, and the vertex the polish takes
    # does not maximize the cost
    rng = np.random.default_rng(26)
    c = rng.standard_normal((6, 6))
    c = 0.5 * (c + c.T)
    res = elliptope_oracle(c, OracleConfig(max_sweeps=3))
    assert res.status == "max_sweeps" and _is_vertex(res.matrix)
    assert not normal_cone_membership(res.matrix, c)


def _certifies(c, s):
    """Whether the vertex stop certifies s s^T for a run whose factor is s
    and whose objective is one below the vertex's, so that only the
    optimality test decides."""
    better = _better_vertex(c, s[:, None], float(s @ c @ s) - 1.0)
    return better is not None and _dual_certified(
        c, better[0] * (c @ better[0]), NORMAL_CONE_TOL)


def test_dual_test_agrees_with_the_spectrum():
    # lambda_min(Diag(y) - C) is put at a random offset in [-1, 1], and
    # delta is drawn from [0, 1] or put 1e-6 |C| to either side of
    # -lambda_min, so both verdicts occur; a case whose lambda_min + delta
    # is within rounding of 0 decides nothing
    rng = np.random.default_rng(37)
    verdicts = []
    for n in range(1, 16):
        for _ in range(40):
            a = rng.standard_normal((n, n))
            c = a + a.T
            y = rng.standard_normal(n)
            y += rng.uniform(-1.0, 1.0) - np.linalg.eigvalsh(np.diag(y) - c)[0]
            lam = np.linalg.eigvalsh(np.diag(y) - c)[0]
            near = 1e-6 * np.linalg.norm(c)
            for delta in (rng.uniform(0.0, 1.0), -lam - near, -lam + near):
                if abs(lam + delta) > 1e-8 * np.linalg.norm(c):
                    assert _dual_certified(c, y, delta) == (lam > -delta)
                    verdicts.append(lam > -delta)
    assert len(verdicts) > 1790 and 0.4 < np.mean(verdicts) < 0.7


def test_vertex_test_agrees_with_normal_cone_membership():
    rng = np.random.default_rng(31)
    verdicts = []
    for n in range(2, 13):
        for _ in range(6):
            s = rng.choice((-1.0, 1.0), n)
            a = rng.standard_normal((n, n))
            # a random cost, and one built with s s^T in its normal cone:
            # C = Diag(y) - M with M >= 0 and M s = 0
            b = (np.eye(n) - np.outer(s, s) / n) @ rng.standard_normal((n, n))
            for c in (a + a.T, np.diag(rng.standard_normal(n)) - b @ b.T):
                expected = normal_cone_membership(np.outer(s, s), c)
                assert _certifies(c, s) == expected
                verdicts.append(expected)
    assert set(verdicts) == {True, False}
    torus = np.array([(-1.0) ** (u // 10 + u % 10) for u in range(60)])
    for c, s in ((_path(20), _alternating(20)), (_torus(6, 10), torus)):
        assert _certifies(c, s) and normal_cone_membership(np.outer(s, s), c)
    for n in (5, 7):
        c = _complete(n)
        s = np.where(np.arange(n) < n // 2, 1.0, -1.0)  # a best cut
        assert not _certifies(c, s)
        assert not normal_cone_membership(np.outer(s, s), c)


# ---------------------------------------------------------------------------
# the normal-cone stop of the oracle
# ---------------------------------------------------------------------------

def _alternating(n):
    return np.where(np.arange(n) % 2 == 0, 1.0, -1.0)


def _complete(n):
    return _cost(n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)])


@pytest.mark.parametrize("cost, signs", [
    (_path(20), _alternating(20)),
    (_path(60), _alternating(60)),
    (_torus(6, 10), np.array([(-1.0) ** (u // 10 + u % 10) for u in range(60)])),
], ids=["P20", "P60", "torus6x10"])
def test_vertex_relaxations_stop_certified(cost, signs):
    # bipartite graphs: the relaxation's optimum is the alternating vertex,
    # which the checks after sweeps 1, 2, 4, ... certify long before the
    # step test would stop
    res = elliptope_oracle(cost)
    assert res.status == "certified_vertex"
    assert res.sweeps <= 128
    assert not res.sweeps & (res.sweeps - 1)  # checked after sweeps 1, 2, 4, ...
    assert np.array_equal(res.matrix, np.outer(signs, signs))
    assert res.objective == float(signs @ cost @ signs)
    assert res.restart_objectives[res.best_index] == res.objective
    gram = res.candidate_grams[res.best_index]
    assert gram.shape == (cost.shape[0], default_rank_budget(cost.shape[0]))
    assert np.array_equal(np.abs(gram[:, 0]), np.ones(cost.shape[0]))
    assert not np.any(gram[:, 1:])


@pytest.mark.parametrize("n", [5, 7])
def test_non_tight_relaxations_are_never_certified(n):
    # K5 and K7: the relaxation beats every cut, so no vertex is optimal
    c = _complete(n)
    best_vertex = max(float(s @ c @ s) for s in map(np.array, itertools.product(
        (1.0, -1.0), repeat=n)))
    for seed in range(4):
        res = elliptope_oracle(c, OracleConfig(seed=seed))
        assert res.status != "certified_vertex"
        assert not _is_vertex(res.matrix)
        assert res.objective > best_vertex + 1e-6


@pytest.mark.parametrize("max_sweeps", [5000, 10, 3])
def test_uncertified_runs_end_as_one_ascent_call(max_sweeps):
    # K7 is never certified: capped or not, the kernel with its vertex
    # checks ends bitwise as the plain cyclic sweep
    c = _complete(7)
    cfg = OracleConfig(max_sweeps=max_sweeps)
    for v0 in _starts(7, 3, 2):
        v, *rest = _ascend(c, c, v0, cfg)
        assert rest[2] != "certified_vertex"
        w, sweeps, objs, status = _cyclic_reference(c, c, v0, cfg)
        assert np.array_equal(v, w)
        assert rest == [sweeps, objs[-1], status]


def test_certified_runs_leave_the_others_unchanged():
    # a warm start already at its vertex is not beaten strictly by it, and
    # ends on the step test; one that starts off the vertex is certified
    c = _path(6)
    s = _alternating(6)
    off = _starts(6, 1, 4)[0]
    at_vertex = np.zeros_like(off)
    at_vertex[:, 0] = s
    runs = [_ascend(c, c, v0, OracleConfig()) for v0 in (at_vertex, off)]
    assert runs[0][3] == "step_tol"
    assert runs[1][3] == "certified_vertex"
    assert np.array_equal(np.outer(runs[1][0][:, 0], runs[1][0][:, 0]),
                          np.outer(s, s))


def test_one_colouring_per_oracle_call(monkeypatch):
    # every sweep and vertex check of one call shares one colouring of the cost
    colourings, calls = [], []
    colour, oracle = elliptope._color_classes, elliptope._oracle

    def counting_colour(c_off):
        colourings.append(c_off.shape[0])
        return colour(c_off)

    def counting_oracle(c, cfg, warm_start):
        calls.append(c.shape[0])
        return oracle(c, cfg, warm_start)

    monkeypatch.setattr(elliptope, "_color_classes", counting_colour)
    res = elliptope_oracle(_path(60))
    assert res.sweeps >= 32 and colourings == [60]
    # the rounding steps of K19 are power steps: no oracle call, no sweep
    g = _graph(_complete(19))
    v = solve_relaxation(g, seed=0).gram
    monkeypatch.setattr(elliptope, "_oracle", counting_oracle)
    colourings.clear()
    report = round_by_iteration(v, seed=0, graph=g)
    assert report.iterations > 0
    assert calls == [] and colourings == []


# ---------------------------------------------------------------------------
# the power step of the max-cut rounding
# ---------------------------------------------------------------------------

def test_power_step_stalls_exactly_on_fixed_points():
    # X^2 = DX gives X V = D V for X's own factor V, so every product maps
    # V to itself, and no vertex scores above <X, X> at a fixed point
    points = ([p.matrix for p in l3_census()] + sign_kernel_census(4)
              + [l4_family(c) for c in (-0.9, -0.4, 0.0, 0.3, 0.8)])
    for x in points:
        assert fixed_point_certificate(x).is_fixed
        _, y = _power_step(x, gram_factor(x))
        assert float(np.linalg.norm(y - x)) <= 1e-9


def test_power_step_ascends_strictly_off_fixed_points():
    # off X^2 = DX the first product already moves V, and the convexity of
    # |V^T W|_F^2 makes that move a strict gain
    rng = np.random.default_rng(47)
    for _ in range(40):
        n = int(rng.integers(3, 30))
        x = gram_to_matrix(random_gram(n, int(rng.integers(2, n + 1)), rng))
        assert not fixed_point_certificate(x).is_fixed
        _, y = _power_step(x, gram_factor(x))
        assert float(np.vdot(x, y)) > float(np.vdot(x, x))


# ---------------------------------------------------------------------------
# the batched cut scorers of maxcut
# ---------------------------------------------------------------------------

def _graph(c):
    """The weighted graph of a max-cut relaxation cost -W."""
    n = c.shape[0]
    return WeightedGraph(n, [(u, v, -float(c[u, v])) for u in range(n)
                             for v in range(u + 1, n) if c[u, v] != 0.0])


def _chunked_reference(g):
    """The chunked brute force: block A holds vertex 0 and the low 16 bits
    of the counter, and every value of the high bits is one chunk scored by
    one product; the first strictly better chunk optimum is kept."""
    low = min(16, g.n - 1)
    a = low + 1
    w_upper = np.zeros((g.n, g.n))
    for u, v, wt in g.edges:
        w_upper[u, v] = wt
    bits = np.arange(1 << low)[:, None] >> np.arange(low)
    s_a = np.ones((1 << low, a))
    s_a[:, 1:] = 1.0 - 2.0 * (bits & 1)
    q_aa = np.sum((s_a @ w_upper[:a, :a]) * s_a, axis=1)
    best_val = -np.inf
    best_signs = None
    for high in range(1 << (g.n - a)):
        s_b = 1.0 - 2.0 * ((high >> np.arange(g.n - a)) & 1)
        quad = q_aa + s_a @ (w_upper[:a, a:] @ s_b) + s_b @ w_upper[a:, a:] @ s_b
        cuts = 0.5 * (g.total_weight - quad)
        k = int(np.argmax(cuts))
        if cuts[k] > best_val:
            best_val = float(cuts[k])
            best_signs = np.concatenate((s_a[k], s_b)).astype(int)
    return best_signs, best_val


def _split_ties(n):
    """A matching across the brute-force split, vertex k + 1 of block A to
    vertex a + k of block B: a vector ties every one that flips a matched
    pair, so the first optimum in counter order is not the first in the
    transposed order."""
    a = n // 2 + 1
    return _cost(n, [(k + 1, a + k, 1.0) for k in range(n - a)])


_TORI = ((3, 3), (3, 4), (3, 5), (4, 4), (3, 6), (4, 5), (3, 7))


@pytest.mark.parametrize("family", [
    lambda rng: [_complete(n) for n in range(1, 23)],
    lambda rng: [_path(n) for n in range(1, 23)],
    lambda rng: [_torus(r, c) for r, c in _TORI],
    lambda rng: [_torus(r, c, rng) for r, c in _TORI],
    lambda rng: [_gnp(n, 0.3, rng) for n in range(1, 23)],
    lambda rng: [_split_ties(n) for n in range(3, 23)],
], ids=["complete", "path", "torus", "torus-pm", "gnp", "split-ties"])
def test_brute_force_table_matches_chunked_reference(family):
    # integer weights: every sum is exact, so values agree bitwise and the
    # first-wins rule picks the same vector out of every tie
    for c in family(np.random.default_rng(31)):
        g = _graph(c)
        signs, val = brute_force_maxcut(g)
        ref_signs, ref_val = _chunked_reference(g)
        assert np.array_equal(signs, ref_signs), g.n
        assert val == ref_val
        assert val == cut_value(g, signs)


def test_brute_force_table_with_real_weights():
    # only the summation order differs from the reference
    rng = np.random.default_rng(37)
    for n in range(1, 23):
        g = WeightedGraph(n, [(u, v, float(rng.standard_normal()))
                              for u in range(n) for v in range(u + 1, n)
                              if rng.random() < 0.5])
        signs, val = brute_force_maxcut(g)
        ref_signs, ref_val = _chunked_reference(g)
        assert np.array_equal(signs, ref_signs), n
        assert abs(val - ref_val) <= 1e-12


def _per_sample_reference(v, g, samples, seed):
    """The hyperplanes scored one at a time by cut_value, the first of
    equal cuts kept."""
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((samples, v.shape[1]))
    all_signs = np.where(v @ dirs.T >= 0.0, 1, -1)
    best_val, best_signs = -np.inf, None
    for k in range(samples):
        val = cut_value(g, all_signs[:, k])
        if val > best_val:
            best_val, best_signs = val, all_signs[:, k].astype(int)
    return best_signs, float(best_val)


@pytest.mark.parametrize("graph", [
    *[lambda rng, n=n: _graph(_complete(n)) for n in range(4, 9)],
    lambda rng: _graph(_torus(4, 5, rng)),
    lambda rng: _graph(_gnp(20, 0.3, rng)),
    lambda rng: WeightedGraph(12, [(u, v, float(rng.standard_normal()))
                                   for u in range(12) for v in range(u + 1, 12)
                                   if rng.random() < 0.6]),
], ids=["K4", "K5", "K6", "K7", "K8", "torus-pm", "gnp20", "real-weights"])
def test_hyperplanes_scored_in_one_product_match_per_sample_loop(graph):
    rng = np.random.default_rng(43)
    g = graph(rng)
    factors = [solve_relaxation(g, seed=0).gram,
               random_gram(g.n, 3, rng)]
    for v in factors:
        for seed, samples in ((0, 64), (1, 64), (2, 7), (3, 1)):
            signs, val = gw_hyperplane_round(v, g, samples, seed)
            ref_signs, ref_val = _per_sample_reference(v, g, samples, seed)
            assert np.array_equal(signs, ref_signs)
            assert val == ref_val
