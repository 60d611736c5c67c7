"""Acceptance suite: one test per numbered criterion.

Every suite function takes only a seed, performs its checks with plain
asserts at the stated tolerances, and returns a deterministic report
string. The final criterion reruns all of them with the same seed and
requires byte-identical reports. Run with ``pytest tests/test_acceptance.py
-v -s`` to see one PASS/FAIL line per criterion.
"""

import itertools

import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    ConeDomain,
    ElliptopeDomain,
    EllipsoidDomain,
    IterationConfig,
    OracleConfig,
    PolytopeDomain,
    WeightedGraph,
    analyze_fixed_point,
    check_monotone,
    elliptope_oracle,
    escape_curve,
    fixed_point_certificate,
    gram_to_matrix,
    iterate,
    l3_census,
    l4_family,
    maxcut_pipeline,
    solve_relaxation,
)
from iterlinopt.elliptope import SIGN_TOL, _components, _is_vertex, _rank

from feasible_points import random_feasible_point

SEED = 20250809


def _run(number, description, fn):
    try:
        report = fn()
    except BaseException:
        print(f"[acceptance] criterion {number}: FAIL - {description}")
        raise
    print(f"[acceptance] criterion {number}: PASS - {description}")
    return report


@pytest.fixture(scope="module")
def reports():
    return {}


# ---------------------------------------------------------------------------
# random domain generators for criterion 1 (constrained so that the smooth
# domains meet the 1e4-iteration bound at tol 1e-10; near-spherical shapes
# legitimately converge arbitrarily slowly)
# ---------------------------------------------------------------------------

def _random_ball(rng):
    d = int(rng.integers(2, 6))
    u = rng.standard_normal(d)
    u /= np.linalg.norm(u)
    r = 0.5 + 1.5 * rng.random()
    return BallDomain((0.3 + 0.5 * rng.random()) * r * u, r)


def _random_ellipsoid(rng):
    d = int(rng.integers(2, 4))
    eigs = np.cumprod(np.concatenate([[0.5 + rng.random()],
                                      1.5 + 1.5 * rng.random(d - 1)]))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    a = (q * eigs) @ q.T
    return EllipsoidDomain(0.5 * (a + a.T))


def _random_polytope(rng):
    d = int(rng.integers(2, 5))
    m = int(rng.integers(d + 1, 9))
    return PolytopeDomain(rng.standard_normal((m, d)))


def _random_cone(rng):
    u = rng.standard_normal(3)
    u /= np.linalg.norm(u)
    h = 0.5 + 2.5 * rng.random()
    rho = 0.3 + 1.2 * rng.random()
    t0 = 0.05 + 0.55 * rng.random()
    k = int(np.argmin(np.abs(u)))
    e = np.zeros(3)
    e[k] = 1.0
    w = e - (e @ u) * u
    w /= np.linalg.norm(w)
    radial = (0.05 + 0.4 * rng.random()) * rho * (1.0 - t0)
    c = -t0 * h * u - radial * w
    return ConeDomain(c + h * u, c, rho)


def suite_monotone(seed):
    rng = np.random.default_rng(seed)
    lines = []
    cfg = IterationConfig(tol=1e-10, max_iter=10_000)
    ell_cfg = IterationConfig(tol=1e-10, max_iter=1_000)
    plan = [("ball", 250), ("ellipsoid", 250), ("polytope", 150),
            ("cone", 150), ("elliptope", 200)]
    for kind, count in plan:
        for k in range(count):
            if kind == "ball":
                dom = _random_ball(rng)
            elif kind == "ellipsoid":
                dom = _random_ellipsoid(rng)
            elif kind == "polytope":
                dom = _random_polytope(rng)
            elif kind == "cone":
                dom = _random_cone(rng)
            else:
                n = int(rng.integers(2, 11))
                dom = ElliptopeDomain(n)
            x0 = random_feasible_point(dom, rng)
            traj = iterate(dom, x0, ell_cfg if kind == "elliptope" else cfg)
            mono = check_monotone(traj)
            assert mono.passed, f"{kind} run {k} violates monotonicity"
            if kind in ("ball", "ellipsoid"):
                assert traj.status == "converged", f"{kind} run {k} did not converge"
                assert traj.step_norms[-1] <= 1e-10
            if kind == "polytope":
                assert traj.step_norms[-1] == 0.0
                assert len(traj.step_norms) <= len(dom.vertices) + 1
            if traj.status == "converged" and kind != "elliptope":
                assert traj.residual <= 10.0 * 1e-10
            lines.append(f"{kind} {k} {traj.status} {len(traj.step_norms)} "
                         f"{traj.norms_sq[-1]:.17g}")
    return "\n".join(lines)


def suite_disk(seed):
    dom = BallDomain([1.0, 0.0], 2.0)
    attract = np.array([3.0, 0.0])
    repel = np.array([-1.0, 0.0])
    rng = np.random.default_rng(seed)
    cfg = IterationConfig(tol=1e-10, max_iter=10_000)
    lines = []
    done = 0
    while done < 100:
        x0 = random_feasible_point(dom, rng)
        if np.linalg.norm(x0 - repel) < 1e-6:
            continue
        traj = iterate(dom, x0, cfg)
        assert traj.status == "converged"
        assert np.linalg.norm(traj.final - attract) <= 1e-8
        lines.append(f"start {done} steps {len(traj.step_norms)} "
                     f"end {traj.final[0]:.17g} {traj.final[1]:.17g}")
        done += 1
    traj = iterate(dom, repel, cfg)
    assert traj.status == "converged"
    assert np.array_equal(traj.final, repel)
    lines.append("repelling start stays put")
    return "\n".join(lines)


def suite_ellipse(seed):
    dom = EllipsoidDomain(np.diag([4.0, 1.0]))
    rng = np.random.default_rng(seed)
    cfg = IterationConfig(tol=1e-10, max_iter=10_000)
    targets = np.array([[2.0, 0.0], [-2.0, 0.0]])
    lines = []
    for k in range(100):
        x0 = random_feasible_point(dom, rng)
        traj = iterate(dom, x0, cfg)
        assert traj.status == "converged"
        dist = float(np.min(np.linalg.norm(targets - traj.final, axis=1)))
        assert dist <= 1e-8
        lines.append(f"start {k} end {traj.final[0]:.17g} {traj.final[1]:.17g}")
    for t in (0.5, -0.3, 0.9, -0.999, 0.2):
        traj = iterate(dom, [0.0, t], cfg)
        assert all(p[0] == 0.0 for p in traj.points)
        assert traj.status == "converged"
        lines.append(f"minor-axis start {t} stays on the axis")
    return "\n".join(lines)


_L3_EXPECTED = {
    "vertex": [
        [[1, -1, -1], [-1, 1, 1], [-1, 1, 1]],
        [[1, -1, 1], [-1, 1, -1], [1, -1, 1]],
        [[1, 1, -1], [1, 1, -1], [-1, -1, 1]],
        [[1, 1, 1], [1, 1, 1], [1, 1, 1]],
    ],
    "edge": [
        [[1, 1, 0], [1, 1, 0], [0, 0, 1]],
        [[1, -1, 0], [-1, 1, 0], [0, 0, 1]],
        [[1, 0, 1], [0, 1, 0], [1, 0, 1]],
        [[1, 0, -1], [0, 1, 0], [-1, 0, 1]],
        [[1, 0, 0], [0, 1, 1], [0, 1, 1]],
        [[1, 0, 0], [0, 1, -1], [0, -1, 1]],
    ],
    "face": [
        [[1, -0.5, -0.5], [-0.5, 1, -0.5], [-0.5, -0.5, 1]],
        [[1, -0.5, 0.5], [-0.5, 1, 0.5], [0.5, 0.5, 1]],
        [[1, 0.5, -0.5], [0.5, 1, 0.5], [-0.5, 0.5, 1]],
        [[1, 0.5, 0.5], [0.5, 1, -0.5], [0.5, -0.5, 1]],
    ],
}


def suite_l3_census(seed):
    pts = l3_census()
    assert len(pts) == 14
    lines = []
    for family, expected in _L3_EXPECTED.items():
        got = [p for p in pts if p.family == family]
        assert len(got) == len(expected)
        for p, exp in zip(got, expected):
            assert np.array_equal(p.matrix, np.array(exp, dtype=float))
    for p in pts:
        cert = fixed_point_certificate(p.matrix)
        assert cert.residual <= 1e-12
        rank = _rank(p.matrix)
        assert rank == (1 if p.family == "vertex" else 2)
        lines.append(f"{p.family} rank {rank} residual {cert.residual:.17g}")
    vertices = [p.matrix for p in pts if p.family == "vertex"]
    for p in pts:
        if p.family != "edge":
            continue
        pairing = [
            (a, b) for a, b in itertools.combinations(range(4), 2)
            if np.max(np.abs(0.5 * (vertices[a] + vertices[b]) - p.matrix)) <= 1e-12
        ]
        assert len(pairing) == 1
        lines.append(f"edge point averages vertices {pairing[0][0]} {pairing[0][1]}")
    return "\n".join(lines)


def suite_l4_family(seed):
    cs = np.linspace(-0.95, 0.95, 21)
    mats = []
    lines = []
    for c in cs:
        x = l4_family(float(c))
        resid = float(np.linalg.norm(x @ x - 2.0 * x))
        assert resid <= 1e-10
        evals = np.sort(np.linalg.eigvalsh(x))[::-1]
        assert evals[2] <= 1e-9
        assert _rank(x) == 2
        mats.append(x)
        lines.append(f"c {c:.17g} residual {resid:.17g}")
    for a, b in itertools.combinations(range(len(cs)), 2):
        assert np.linalg.norm(mats[a] - mats[b]) > 1e-12
    return "\n".join(lines)


def _member_near_vertex(signs, rng, target):
    n = signs.size
    u = rng.standard_normal(4)
    u /= np.linalg.norm(u)
    g = rng.standard_normal((n, 4))
    x = np.outer(signs, signs)
    scale = 0.3
    for _ in range(80):
        w = signs[:, None] * u + scale * g
        w /= np.linalg.norm(w, axis=1)[:, None]
        m = gram_to_matrix(w)
        dist = float(np.linalg.norm(m - x))
        if 0.0 < dist <= target:
            return m
        scale *= 0.7
    raise AssertionError("could not build a close feasible neighbor")


def suite_vertex_attractiveness(seed):
    rng = np.random.default_rng(seed)
    lines = []
    for t in range(100):
        n = int(rng.integers(4, 9))
        signs = rng.choice([-1.0, 1.0], size=n)
        x = np.outer(signs, signs)
        target = 0.1 + 0.8 * rng.random()
        m = _member_near_vertex(signs, rng, target)
        assert np.linalg.norm(m - x) < 1.0
        # m shares the vertex's sign pattern, so one step of the map
        # returns the vertex
        dom = ElliptopeDomain(n)
        assert _is_vertex(x) and dom.contains(m)
        ok = np.max(np.abs(dom.maximize(m) - x)) <= SIGN_TOL
        assert ok, f"trial {t}: one-step convergence to the vertex failed"
        lines.append(f"trial {t} n {n} dist {np.linalg.norm(m - x):.17g}")
    # converse: every non-vertex catalog point admits a strictly
    # norm-increasing feasible curve
    for p in l3_census():
        if p.family == "vertex":
            continue
        base = float(np.vdot(p.matrix, p.matrix))
        prev = base
        for k in range(1, 11):
            xa = escape_curve(p.matrix, k / 10.0)
            val = float(np.vdot(xa, xa))
            assert val > prev
            assert np.array_equal(np.diag(xa), np.ones(3))
            assert np.linalg.eigvalsh(xa)[0] >= -1e-9
            prev = val
        lines.append(f"{p.family} escape climbs to {prev:.17g}")
    return "\n".join(lines)


def _factor_residual(c, v):
    """The largest part of a gradient row g_i = ((C - Diag(C)) V)_i that is
    orthogonal to v_i: zero exactly when the unit-row factor V is
    stationary for C . V V^T."""
    g = (c - np.diag(np.diag(c))) @ v
    resid = g - np.sum(g * v, axis=1)[:, None] * v
    return float(np.max(np.linalg.norm(resid, axis=1)))


def suite_oracle_certificates(seed):
    rng = np.random.default_rng(seed)
    sizes = [5, 10, 20]
    lines = []
    for k in range(50):
        n = sizes[k % 3]
        c = rng.standard_normal((n, n))
        c = 0.5 * (c + c.T)
        res = elliptope_oracle(c, OracleConfig(seed=int(rng.integers(2**31))))
        assert _factor_residual(c, res.gram) <= 1e-6
        x = res.matrix
        d = np.diag(c @ x).copy()
        assert float(np.linalg.norm(c @ x - d[:, None] * x)) <= 1e-6
        assert float(np.linalg.eigvalsh(x)[0]) <= 1e-6
        spread = max(res.restart_objectives) - min(res.restart_objectives)
        lines.append(f"trial {k} n {n} objective {res.objective:.17g} "
                     f"spread {spread:.17g}")
    return "\n".join(lines)


def _complete(n):
    return WeightedGraph(n, [(u, v, 1.0) for u in range(n)
                             for v in range(u + 1, n)])


def _path(n):
    return WeightedGraph(n, [(k, k + 1, 1.0) for k in range(n - 1)])


def _random_connected(rng):
    n = int(rng.integers(4, 13))
    perm = rng.permutation(n)
    edges = {(min(int(perm[k]), int(perm[k + 1])),
              max(int(perm[k]), int(perm[k + 1]))) for k in range(n - 1)}
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                edges.add((u, v))
    return WeightedGraph(n, [(u, v, 1.0) for u, v in sorted(edges)])


def suite_maxcut(seed):
    rng = np.random.default_rng(seed)
    lines = []
    instances = [("random", _random_connected(rng)) for _ in range(20)]
    instances += [("complete", _complete(n)) for n in range(4, 41)]
    instances += [("path", _path(n)) for n in range(3, 9)]
    for name, g in instances:
        # K21-K40 are past brute force; their optimum is floor(n^2 / 4)
        brute = g.n <= 20
        report = maxcut_pipeline(g, seed=int(rng.integers(2**31)),
                                 brute_force=brute)
        assert set(np.unique(report.partition)) <= {-1, 1}
        recount = sum(w for u, v, w in g.edges
                      if report.partition[u] != report.partition[v])
        assert report.cut_value == recount
        optimum = report.brute_force_cut if brute else g.n * g.n // 4
        assert report.relaxed_cut >= optimum
        if name == "complete":
            assert report.cut_value == g.n * g.n // 4
            assert optimum == g.n * g.n // 4
        lines.append(f"{name} n {g.n} cut {report.cut_value:.17g} "
                     f"optimum {optimum:.17g} "
                     f"relax {report.relaxed_cut:.17g} {report.terminal_status}")
    # the 3-vertex complete graph end to end: relaxation optimum, rounding, cut
    g3 = _complete(3)
    res = solve_relaxation(g3, seed=seed % (2**31))
    off = res.matrix[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off + 0.5)) <= 1e-6
    assert abs((np.sum(g3.weight_matrix()) + res.objective) / 4.0 - 2.25) <= 1e-6
    report = maxcut_pipeline(g3, seed=seed % (2**31), brute_force=True)
    assert report.cut_value == 2.0 and report.brute_force_cut == 2.0
    lines.append("triangle chain reproduces the derived values")
    return "\n".join(lines)


def suite_normal_cone(seed):
    mats = [p.matrix for p in l3_census()]
    mats += [l4_family(float(c)) for c in np.linspace(-0.95, 0.95, 21)]
    lines = []
    for k, x in enumerate(mats):
        cert = fixed_point_certificate(x)
        assert cert.is_fixed
        m = np.diag(cert.d) - x
        assert float(np.linalg.norm(m @ x)) <= 1e-8
        assert float(np.linalg.eigvalsh(m)[0]) >= -1e-8
        comps = _components(x)
        if len(comps) == 1:
            gamma = analyze_fixed_point(x).gammas[0]
            assert gamma is not None
            assert abs(gamma * _rank(x) - x.shape[0]) <= 1e-6 * x.shape[0]
            lines.append(f"point {k} irreducible gamma {gamma:.17g}")
        else:
            lines.append(f"point {k} reducible blocks {len(comps)}")
    return "\n".join(lines)


_SUITES = [
    (1, "monotone convergence over 1000 random runs", suite_monotone),
    (2, "off-center disk dynamics", suite_disk),
    (3, "centered ellipse dynamics", suite_ellipse),
    (4, "complete 3-dimensional catalog (4/6/4)", suite_l3_census),
    (5, "4-dimensional one-parameter family", suite_l4_family),
    (6, "vertices attract, non-vertices admit escape curves", suite_vertex_attractiveness),
    (7, "oracle stationarity and eigenmatrix certificates", suite_oracle_certificates),
    (8, "max-cut pipeline validity and quality", suite_maxcut),
    (9, "normal-cone consistency of catalog fixed points", suite_normal_cone),
]


@pytest.mark.parametrize("number,description,fn",
                         _SUITES, ids=[f"criterion_{n}" for n, _, _ in _SUITES])
def test_criterion(number, description, fn, reports):
    reports[number] = _run(number, description, lambda: fn(SEED))


def test_criterion_10_determinism(reports):
    def rerun():
        for number, _, fn in _SUITES:
            again = fn(SEED)
            assert again == reports[number], f"criterion {number} report changed"
        return f"reran {len(_SUITES)} suites byte-identically"

    _run(10, "same seed reproduces every report byte for byte", rerun)
