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


# A run stalls when the step norm stays above tol for STALL_WINDOW
# consecutive iterations while the squared norm gains less than
# STALL_GAIN_TOL (a creep along a connected set of fixed points).
STALL_WINDOW = 100
STALL_GAIN_TOL = 1e-14
FIXED_FACTOR = 10.0  # x within FIXED_FACTOR * tol of T(x) counts as fixed
NORM_SLACK = 1e-12  # check_monotone: slack of non-decreasing squared norms
STEP_SLACK = 1e-9  # check_monotone: slack of squared step <= norm gain


class InfeasibleStartError(ValueError):
    """Starting point failed domain validation."""


@dataclass
class IterationConfig:
    # The map is defined on all of space and its first step lands in the
    # domain, so exterior starts are legal; validate_start opts in to
    # rejecting them (monotonicity of the squared norms is only guaranteed
    # from a feasible start onward).
    tol: float = 1e-10
    max_iter: int = 10_000
    record_trace: bool = True
    validate_start: bool = False

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
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

    def export_csv(self, path):
        """Write iter, coordinates, norm_sq, step_norm, residual rows.

        The step_norm column holds the step into the row's iterate (0 for
        the first row); the residual column holds the step out of it, which
        for the last row is the reported fixed-point residual. Floats carry
        17 significant digits so files round-trip exactly.
        """
        if len(self.points) != len(self.norms_sq):
            raise ValueError("CSV export needs a full trace (record_trace=True)")
        width = self.points[0].size
        header = ["iter"] + [f"x{j}" for j in range(width)] + [
            "norm_sq", "step_norm", "residual"]
        lines = [",".join(header)]
        for i, p in enumerate(self.points):
            step_in = self.step_norms[i - 1] if i > 0 else 0.0
            step_out = (self.step_norms[i] if i < len(self.step_norms)
                        else self.residual)
            row = [str(i)]
            row += [f"{v:.17g}" for v in np.asarray(p).ravel()]
            row += [f"{self.norms_sq[i]:.17g}", f"{step_in:.17g}",
                    f"{step_out:.17g}"]
            lines.append(",".join(row))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def iterate(domain, x0, config: IterationConfig | None = None) -> Trajectory:
    """Run x_{k+1} = T(x_k) until the step norm drops to tol.

    The squared norms of the iterates never decrease and each squared step
    is bounded by the corresponding norm gain, which is what guarantees a
    limit point exists; ``check_monotone`` verifies both on a recorded run.
    """
    cfg = config or IterationConfig()
    x = np.array(x0, dtype=float)
    if cfg.validate_start and not domain.contains(x):
        raise InfeasibleStartError("starting point is not in the domain")
    points = [x.copy()]
    norms_sq = [float(np.vdot(x, x))]
    step_norms = []
    status = "max_iter"
    stall = 0
    for _ in range(cfg.max_iter):
        xn = domain.maximize(x)
        step = float(np.linalg.norm(np.ravel(xn - x)))
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
    residual = float(np.linalg.norm(np.ravel(domain.maximize(x) - x)))
    return Trajectory(points, norms_sq, step_norms, status, residual)


@dataclass
class MonotoneReport:
    passed: bool
    first_violation: int | None
    worst_norm_drop: float
    worst_step_excess: float


def check_monotone(traj: Trajectory) -> MonotoneReport:
    """Verify the two inequalities every valid run must satisfy.

    Squared norms must be non-decreasing (within NORM_SLACK) and each
    squared step must not exceed the norm gain (within STEP_SLACK). The
    report carries the first violating transition, if any.
    """
    a, s = traj.norms_sq, traj.step_norms
    if len(a) < 2:
        raise ValueError("monotonicity check needs at least two iterates")
    first = None
    worst_drop = 0.0
    worst_excess = 0.0
    for i in range(len(s)):
        drop = a[i] - a[i + 1]
        excess = s[i] ** 2 - (a[i + 1] - a[i])
        worst_drop = max(worst_drop, drop)
        worst_excess = max(worst_excess, excess)
        if (drop > NORM_SLACK or excess > STEP_SLACK) and first is None:
            first = i
    return MonotoneReport(first is None, first, worst_drop, worst_excess)


def objective_interpretation(traj: Trajectory) -> list:
    """Per-iterate values of the objective the iteration climbs, |x|^2 / 2."""
    return [a / 2.0 for a in traj.norms_sq]
