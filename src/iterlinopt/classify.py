"""Attractive/repelling diagnosis of fixed points.

Two routes: perturbation sampling, which iterates from random feasible
starts near the point and tallies who comes back and who leaves, and the
exact dichotomy on the unit-diagonal PSD body, where the vertices are the
attractive fixed points and every other fixed point carries an explicit
norm-increasing escape curve as a witness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .elliptope import (
    DIAG_TOL,
    ROW_TOL,
    ElliptopeDomain,
    ElliptopeError,
    check_symmetric,
    fixed_point_certificate,
    gram_factor,
    gram_to_matrix,
    is_vertex,
    validate_elliptope,
)
from .engine import FIXED_FACTOR, IterationConfig, iterate

SIGN_TOL = 1e-9  # an entry this close to +-1 counts as that sign
ESCAPE_ALPHAS = tuple(k / 10.0 for k in range(1, 11))  # escape witness grid


@dataclass
class EscapeWitness:
    """Pair of indices driving the escape curve, with the squared norms
    along a grid of curve parameters (strictly increasing, all above the
    value at the fixed point)."""

    i: int
    j: int
    alphas: list
    norms_sq: list


@dataclass
class ClassificationResult:
    label: str  # attractive | repelling | neither | indeterminate | not_attractive
    eps: float
    samples: int
    returned: int
    escaped: int
    witness: EscapeWitness | None = None

    @property
    def undecided(self) -> int:
        """Samples that neither converged back nor left the eps ball."""
        return self.samples - self.returned - self.escaped


def fixed_point_residual(domain, x) -> float:
    """|T(x) - x|: how far one application of the map moves x."""
    return float(np.linalg.norm(np.ravel(domain.maximize(x) - x)))


def classify_empirical(domain, x, eps, samples=32, seed=0, tol=1e-10,
                       max_iter=10_000) -> ClassificationResult:
    """Sample feasible starts within eps of a fixed point and iterate each.

    x must lie within FIXED_FACTOR * tol of its image. A sample counts as
    returned when its endpoint lands that close to x, as escaped when some
    iterate leaves the eps ball. The label is attractive only when every
    sample returns, repelling only when every sample escapes, neither when
    nothing returns and nothing escapes (connected sets of fixed points
    behave this way), and indeterminate on mixed evidence. Per-sample seeds
    derive from (seed, sample index), so the verdict does not depend on
    scheduling. No evidence supports no label: samples must be positive.
    """
    if samples < 1:
        raise ValueError("classification needs at least one sample")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    x = np.asarray(x, dtype=float)
    if fixed_point_residual(domain, x) > FIXED_FACTOR * tol:
        raise ValueError("x is not a fixed point of the domain")
    return _sample_verdict(domain, x, eps, samples, seed, tol, max_iter)


def _sample_verdict(domain, x, eps, samples, seed, tol, max_iter):
    """``classify_empirical`` at a point already checked to be fixed."""
    cfg = IterationConfig(tol=tol, max_iter=max_iter, record_trace=True)
    returned = 0
    escaped = 0
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        y0 = domain.sample_near(x, eps, rng)
        traj = iterate(domain, y0, cfg)
        dists = [float(np.linalg.norm(np.ravel(p - x))) for p in traj.points]
        if dists[-1] <= FIXED_FACTOR * tol:
            returned += 1
        elif max(dists) > eps:
            escaped += 1
    if returned == samples:
        label = "attractive"
    elif escaped == samples:
        label = "repelling"
    elif returned == 0 and escaped == 0:
        label = "neither"
    else:
        label = "indeterminate"
    return ClassificationResult(label, eps, samples, returned, escaped)


def escape_pair(x):
    """Lexicographically first ordered pair (i, j) with x_ij away from +-1
    and row i no heavier (in sum of squares) than row j."""
    a = np.asarray(x, dtype=float)
    d = np.sum(a * a, axis=1)
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            if i == j or abs(a[i, j]) >= 1.0 - SIGN_TOL:
                continue
            if d[i] <= d[j] + 1e-12:
                return i, j
    raise ElliptopeError("no escape pair exists: the matrix is a vertex")


def escape_curve(x, alpha, pair=None) -> np.ndarray:
    """Feasible deformation of a non-vertex fixed point that strictly
    increases the squared norm.

    Moves Gram row i toward row j (toward -row j when x_ij is negative)
    and renormalizes; the result stays a unit-diagonal PSD matrix for
    every alpha in [0, 1], equals x at alpha 0 and has strictly larger
    squared norm for alpha > 0, increasing in alpha.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    a = check_symmetric(x)
    i, j = pair if pair is not None else escape_pair(a)
    v = gram_factor(a)
    sign = 1.0 if a[i, j] >= 0.0 else -1.0
    w = (1.0 - alpha) * v[i] + alpha * sign * v[j]
    z = float(np.linalg.norm(w))
    if z == 0.0:
        raise ElliptopeError("degenerate escape direction")
    v = v.copy()
    v[i] = w / z
    return gram_to_matrix(v, row_tol=ROW_TOL)


def vertex_basin_check(x, m) -> bool:
    """Check one-step convergence to a vertex from a sign-compatible start.

    Any feasible matrix within unit Frobenius distance of a vertex shares
    its sign pattern, and the map then returns the vertex exactly in a
    single application. Inputs outside the stated ball are rejected.
    """
    if not is_vertex(x):
        raise ValueError("x must be a vertex (rank-one sign matrix)")
    mm = validate_elliptope(m, diag_tol=DIAG_TOL)
    if float(np.linalg.norm(mm - x)) >= 1.0:
        raise ValueError("m must lie within unit Frobenius distance of the vertex")
    tx = ElliptopeDomain(mm.shape[0]).maximize(mm)
    return bool(np.max(np.abs(tx - np.asarray(x, dtype=float))) <= SIGN_TOL)


def classify_elliptope_fixed_point(x) -> ClassificationResult:
    """Exact dichotomy on the unit-diagonal PSD body.

    Vertices are attractive. Any other fixed point gets the label
    not_attractive together with an escape witness: arbitrarily near
    feasible matrices of strictly larger norm, from which iteration can
    never flow back (norms never decrease along a run). Nothing stronger
    than non-attractiveness is claimed for non-vertices.
    """
    a = check_symmetric(x)
    cert = fixed_point_certificate(a)
    if not cert.is_fixed:
        raise ValueError("input is not a fixed point within tolerance")
    if is_vertex(a):
        return ClassificationResult("attractive", 0.0, 0, 0, 0)
    i, j = escape_pair(a)
    norms = [float(np.vdot(xa, xa))
             for xa in (escape_curve(a, al, (i, j)) for al in ESCAPE_ALPHAS)]
    witness = EscapeWitness(i, j, list(ESCAPE_ALPHAS), norms)
    return ClassificationResult("not_attractive", 0.0, 0, 0, 0, witness)
