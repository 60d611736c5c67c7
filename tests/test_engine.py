import numpy as np
import pytest

from iterlinopt import (
    BallDomain,
    EllipsoidDomain,
    ElliptopeDomain,
    InfeasibleStartError,
    IterationConfig,
    PolytopeDomain,
    Trajectory,
    check_monotone,
    iterate,
)

from feasible_points import random_feasible_point

SQUARE = [(1.0, 1.0), (1.0, -1.0), (-1.0, 1.0), (-1.0, -1.0)]


class _Rotation:
    """Synthetic norm-preserving map; not a linear-maximization rule, used
    only as a negative control for stall detection."""

    dim = 2

    def maximize(self, x):
        c, s = np.cos(0.1), np.sin(0.1)
        return np.array([c * x[0] - s * x[1], s * x[0] + c * x[1]])

    def contains(self, x, tol=0.0):
        return True


def test_disk_converges_to_attractive_point():
    dom = BallDomain([1.0, 0.0], 2.0)
    traj = iterate(dom, [0.0, 1.9], IterationConfig(tol=1e-10))
    assert traj.status == "converged"
    assert np.linalg.norm(traj.final - np.array([3.0, 0.0])) <= 1e-8
    assert traj.residual <= 1e-9


def test_polytope_one_step_then_fixed():
    dom = PolytopeDomain(SQUARE)
    traj = iterate(dom, [0.3, 0.2])
    assert traj.status == "converged"
    assert np.array_equal(traj.points[1], [1.0, 1.0])
    assert traj.step_norms[-1] == 0.0
    assert len(traj.step_norms) <= len(SQUARE) + 1


def test_centered_circle_boundary_start_is_fixed():
    dom = BallDomain([0.0, 0.0], 1.0)
    traj = iterate(dom, [0.6, 0.8])
    assert traj.status == "converged"
    assert np.linalg.norm(traj.final - np.array([0.6, 0.8])) <= 1e-12


def test_check_monotone_passes_on_disk_run():
    traj = iterate(BallDomain([1.0, 0.0], 2.0), [0.5, 0.5])
    rep = check_monotone(traj)
    assert rep.passed and rep.first_violation is None


def test_check_monotone_passes_on_ellipse_run():
    traj = iterate(EllipsoidDomain(np.diag([4.0, 1.0])), [0.1, 0.99])
    assert check_monotone(traj).passed


def test_check_monotone_fails_on_reversed_run():
    traj = iterate(BallDomain([1.0, 0.0], 2.0), [0.5, 0.5])
    # reverse the early, strictly-climbing stretch of the run
    rev = Trajectory(points=traj.points[3::-1], norms_sq=traj.norms_sq[3::-1],
                     step_norms=traj.step_norms[2::-1], status="converged",
                     residual=0.0)
    rep = check_monotone(rev)
    assert not rep.passed
    assert rep.first_violation == 0


def test_step_whose_square_overflows_is_a_violation():
    # the squared step is inf, not an OverflowError
    traj = Trajectory([np.zeros(2), np.array([1e200, 0.0])], [0.0, 1e300],
                      [1e200], "max_iter", 0.0)
    rep = check_monotone(traj)
    assert not rep.passed and rep.first_violation == 0


def test_step_whose_square_overflows_is_recorded_finite():
    # the exterior start is 2e154 from its image, whose square overflows
    traj = iterate(BallDomain([-1e154, 0.0], 1.0), [1e154, 0.0])
    assert traj.step_norms == [2e154, 0.0]
    assert traj.status == "converged"
    # the start lies outside the ball: transition 0 need not climb
    assert check_monotone(traj).first_violation == 0


def test_check_monotone_needs_two_points():
    traj = Trajectory([np.zeros(2)], [0.0], [], "converged", 0.0)
    with pytest.raises(ValueError):
        check_monotone(traj)


def test_objective_constant_at_fixed_point():
    dom = BallDomain([1.0, 0.0], 2.0)
    traj = iterate(dom, [3.0, 0.0])
    assert all(v == traj.norms_sq[0] for v in traj.norms_sq)


def test_objective_strictly_increases_until_convergence():
    traj = iterate(BallDomain([1.0, 0.0], 2.0), [0.0, 1.9])
    vals = traj.norms_sq
    diffs = np.diff(vals)
    assert np.all(diffs >= -1e-12)
    # strict climb until the value saturates at the limit in double precision
    climbing = np.array(vals[:-1]) < vals[-1] - 1e-12
    assert np.all(diffs[climbing] > 0.0)
    assert np.count_nonzero(climbing) >= 5


def test_stall_detection_on_norm_preserving_map():
    traj = iterate(_Rotation(), [1.0, 0.0], IterationConfig(max_iter=1000))
    assert traj.status == "stalled"
    assert len(traj.step_norms) == 100


def test_infeasible_start_rejected_when_validation_on():
    dom = BallDomain([1.0, 0.0], 2.0)
    with pytest.raises(InfeasibleStartError):
        iterate(dom, [10.0, 10.0], IterationConfig(validate_start=True))
    # validation off (the default): exterior starts step into the domain
    traj = iterate(dom, [10.0, 10.0])
    assert dom.contains(traj.final)


@pytest.mark.parametrize("validate", [False, True], ids=["plain", "validated"])
@pytest.mark.parametrize("domain, start", [
    (EllipsoidDomain([[4.0, 0.0], [0.0, 1.0]]), [1e300, 1e300]),
    (EllipsoidDomain([[4.0, 0.0], [0.0, 1.0]]), [1e154, 1e154]),
    (ElliptopeDomain(2), [[1e200, 0.0], [0.0, 1e200]]),
], ids=["ellipse-1e300", "ellipse-1e154", "elliptope-1e200"])
def test_start_whose_squared_norm_overflows_is_rejected(domain, start, validate):
    # rejected before the domain's membership test, which would overflow
    # too, and before a step norm overflows
    with pytest.raises(InfeasibleStartError, match="squared norm overflows"):
        iterate(domain, start, IterationConfig(validate_start=validate))


def test_largest_starts_with_a_finite_squared_norm_still_run():
    traj = iterate(EllipsoidDomain([[4.0, 0.0], [0.0, 1.0]]), [1e153, 1e153])
    assert traj.status == "converged"
    assert traj.norms_sq[0] == pytest.approx(2e306)


def test_trace_off_keeps_endpoints_only():
    traj = iterate(BallDomain([1.0, 0.0], 2.0), [0.0, 1.9],
                   IterationConfig(record_trace=False))
    assert len(traj.points) == 2
    assert np.linalg.norm(traj.final - np.array([3.0, 0.0])) <= 1e-8


def test_monotone_property_random_runs():
    rng = np.random.default_rng(42)
    for _ in range(60):
        kind = rng.integers(3)
        if kind == 0:
            d = int(rng.integers(2, 5))
            u = rng.standard_normal(d)
            u /= np.linalg.norm(u)
            r = 0.5 + rng.random()
            dom = BallDomain(0.6 * r * u, r)
        elif kind == 1:
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            a = q @ np.diag([1.0, 4.0]) @ q.T
            dom = EllipsoidDomain(0.5 * (a + a.T))
        else:
            dom = PolytopeDomain(rng.standard_normal((6, 3)))
        traj = iterate(dom, random_feasible_point(dom, rng))
        assert check_monotone(traj).passed
        if traj.status == "converged":
            assert traj.residual <= 10.0 * 1e-10
