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

from .domains import _fast_norm
from .elliptope import (
    CERT_TOL,
    ElliptopeError,
    _certificate,
    _escape_factor,
    _gram_factor,
    _is_vertex,
    check_symmetric,
    escape_curve,  # noqa: F401  perfbench/spans.py traces this name here
    escape_pair,
    gram_to_matrix,
)
from .engine import FIXED_FACTOR, IterationConfig, fixed_point_residual, iterate

ESCAPE_ALPHAS = tuple(k / 10.0 for k in range(1, 11))  # escape witness grid


@dataclass(frozen=True)
class EscapeWitness:
    """Pair of indices driving the escape curve, with the squared norms
    along a grid of curve parameters (strictly increasing, all above the
    value at the fixed point)."""

    i: int
    j: int
    alphas: list
    norms_sq: list


@dataclass(frozen=True)
class ClassificationResult:
    """What perturbation sampling measured: the label, the ball radius and
    the tally of the samples."""

    label: str  # attractive | repelling | neither | indeterminate
    eps: float
    samples: int
    returned: int
    escaped: int

    @property
    def undecided(self) -> int:
        """Samples that neither converged back nor left the eps ball."""
        return self.samples - self.returned - self.escaped


@dataclass(frozen=True)
class ExactClassification:
    """The exact dichotomy's verdict: attractive for a vertex, which has no
    witness, or not_attractive with an escape witness."""

    label: str  # attractive | not_attractive
    witness: EscapeWitness | None


def classify_empirical(domain, x, eps, samples=32, seed=0) -> ClassificationResult:
    """Sample feasible starts within eps of a fixed point and iterate each.

    Each run takes ``IterationConfig``'s defaults, and x must lie within
    FIXED_FACTOR * tol of its image. A sample counts as returned when its
    endpoint lands that close to x, as escaped when some iterate leaves
    the eps ball. The label is attractive only when every sample returns,
    repelling only when every sample escapes, neither when nothing returns
    and nothing escapes (connected sets of fixed points behave this way),
    and indeterminate on mixed evidence. Per-sample seeds derive from
    (seed, sample index), so the verdict does not depend on scheduling. No
    evidence supports no label: samples must be positive.
    """
    if samples < 1:
        raise ValueError("classification needs at least one sample")
    if not 0.0 < eps < np.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    x = np.asarray(x, dtype=float)
    if fixed_point_residual(domain, x) > FIXED_FACTOR * IterationConfig.tol:
        raise ValueError("x is not a fixed point of the domain")
    return _sample_verdict(domain, x, eps, samples, seed, IterationConfig.tol,
                           IterationConfig.max_iter)


def _sample_verdict(domain, x, eps, samples, seed, tol, max_iter):
    """``classify_empirical`` at a point already checked to be fixed, with
    each run's tol and max_iter given."""
    cfg = IterationConfig(tol=tol, max_iter=max_iter, record_trace=True)
    returned = 0
    escaped = 0
    for k in range(samples):
        rng = np.random.default_rng([seed, k])
        y0 = domain.sample_near(x, eps, rng)
        traj = iterate(domain, y0, cfg)
        dists = [_fast_norm(p - x) for p in traj.points]
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


def classify_elliptope_fixed_point(x) -> ExactClassification:
    """Exact dichotomy on the unit-diagonal PSD body.

    Vertices are attractive. Any other fixed point gets the label
    not_attractive together with an escape witness: arbitrarily near
    feasible matrices of strictly larger norm, from which iteration can
    never flow back (norms never decrease along a run). Nothing stronger
    than non-attractiveness is claimed for non-vertices. The witness
    points are ``escape_curve``'s, all taken from one Gram factor of x.
    An x that fails ``fixed_point_certificate`` raises ElliptopeError.
    """
    a = check_symmetric(x)
    cert = _certificate(a, CERT_TOL)
    if not cert.is_fixed:
        raise ElliptopeError(f"not a fixed point (residual {cert.residual:.17g})")
    if _is_vertex(a):
        return ExactClassification("attractive", None)
    i, j = escape_pair(a)
    v = _gram_factor(a)
    norms = [float(np.vdot(xa, xa)) for xa in (
        gram_to_matrix(_escape_factor(v, a, i, j, al)) for al in ESCAPE_ALPHAS)]
    return ExactClassification(
        "not_attractive", EscapeWitness(i, j, list(ESCAPE_ALPHAS), norms))
