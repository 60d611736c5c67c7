"""Generic fixed-point iteration x_{k+1} = T(x_k) with trajectory recording.

Works on anything with a ``maximize`` rule, whether the iterates are vectors
or matrices; norms and inner products are taken entrywise. Convergence is
declared on the step norm, not on the fixed-point residual, because smooth
domains approach their fixed points without ever reaching them; the residual
at the final iterate is reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domains import _fast_norm, _norm


# A run stalls when the step norm stays above tol for STALL_WINDOW
# consecutive iterations while the squared norm gains less than
# STALL_GAIN_TOL (a creep along a connected set of fixed points).
STALL_WINDOW = 100
STALL_GAIN_TOL = 1e-14
FIXED_FACTOR = 10.0  # x within FIXED_FACTOR * tol of T(x) counts as fixed
NORM_SLACK = 1e-12  # check_monotone: slack of non-decreasing squared norms
STEP_SLACK = 1e-9  # check_monotone: slack of squared step <= norm gain
STEP_TOL = 1e-10  # default tol of a run: it converges on a step this small


class InfeasibleStartError(ValueError):
    """Starting point rejected: its squared norm overflows, or it failed
    domain validation."""


@dataclass(frozen=True)
class IterationConfig:
    # The map is defined on all of space and its first step lands in the
    # domain, so exterior starts are legal; validate_start opts in to
    # rejecting them (monotonicity of the squared norms is only guaranteed
    # from a feasible start onward).
    tol: float = STEP_TOL
    max_iter: int = 10_000
    record_trace: bool = True
    validate_start: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class Trajectory:
    """Recorded run of the iteration.

    norms_sq[k] is the squared norm of iterate k and step_norms[k] is the
    distance from iterate k to iterate k+1, so there is one more norm than
    steps. With record_trace off only the first and last iterates are kept.
    """

    points: list
    norms_sq: list
    step_norms: list
    status: str  # converged | max_iter | stalled
    residual: float  # |T(x_end) - x_end| at the final iterate

    @property
    def final(self):
        return self.points[-1]


def fixed_point_residual(domain, x) -> float:
    """|T(x) - x|: how far one application of the map moves x."""
    return _norm(domain.maximize(x) - x)


def iterate(domain, x0, config: IterationConfig | None = None) -> Trajectory:
    """Run x_{k+1} = T(x_k) until the step norm drops to tol.

    The squared norms of the iterates never decrease and each squared step
    is bounded by the corresponding norm gain, which is what guarantees a
    limit point exists; ``check_monotone`` verifies both on a recorded run.
    """
    cfg = config or IterationConfig()
    x = np.array(x0, dtype=float)
    norm_sq = float(np.vdot(x, x))  # vdot overflows to inf without a warning
    # a finite start whose squared norm is inf has no monotone record and
    # overflows the step norms; non-finite entries are the domain's to reject
    if norm_sq == np.inf and np.all(np.isfinite(x)):
        raise InfeasibleStartError("starting point's squared norm overflows")
    if cfg.validate_start and not domain.contains(x):
        raise InfeasibleStartError("starting point is not in the domain")
    points = [x.copy()]
    norms_sq = [norm_sq]
    step_norms = []
    status = "max_iter"
    stall = 0
    for _ in range(cfg.max_iter):
        xn = domain.maximize(x)
        step = _fast_norm(xn - x)
        norm_sq = float(np.vdot(xn, xn))
        gain = norm_sq - norms_sq[-1]
        step_norms.append(step)
        norms_sq.append(norm_sq)
        if cfg.record_trace:
            points.append(np.array(xn, copy=True))
        x = xn
        if step <= cfg.tol:
            status = "converged"
            break
        stall = stall + 1 if gain < STALL_GAIN_TOL else 0
        if stall >= STALL_WINDOW:
            status = "stalled"
            break
    if not cfg.record_trace:
        points.append(np.array(x, copy=True))
    return Trajectory(points, norms_sq, step_norms, status,
                      fixed_point_residual(domain, x))


@dataclass(frozen=True)
class MonotoneReport:
    passed: bool
    first_violation: int | None


def check_monotone(traj: Trajectory) -> MonotoneReport:
    """Verify the two inequalities every valid run must satisfy.

    Squared norms must be non-decreasing (within NORM_SLACK) and each
    squared step must not exceed the norm gain (within STEP_SLACK). The
    report carries the first violating transition, if any.
    """
    a, s = traj.norms_sq, traj.step_norms
    if len(a) < 2:
        raise ValueError("monotonicity check needs at least two iterates")
    for i in range(len(s)):
        # s[i] * s[i], not s[i] ** 2: a float product that overflows is
        # inf, where a power raises OverflowError
        if (a[i] - a[i + 1] > NORM_SLACK
                or s[i] * s[i] - (a[i + 1] - a[i]) > STEP_SLACK):
            return MonotoneReport(False, i)
    return MonotoneReport(True, None)
