"""Unit-diagonal PSD matrices: Gram tools, a linear-maximization oracle,
the diagonal fixed-point certificate, structure analysis and small
catalogs of fixed points.

The feasible set is the correlation-matrix body, the set of symmetric
positive semidefinite matrices with ones on the diagonal. Its points are
Gram matrices of unit vectors, which is the representation everything here
works in: the oracle does coordinate ascent directly on the Gram rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .domains import ConvexDomain, _scaled, _symmetrized, read_lines

PSD_TOL = 1e-9  # most negative eigenvalue of a feasible matrix
DIAG_TOL = 1e-8  # how far a feasible matrix's diagonal may stray from 1
ROW_TOL = 1e-9  # unit-row slack of a Gram factor (gram_to_matrix)
RANK_TOL = 1e-6  # eigenvalues above this count toward the rank
CERT_TOL = 1e-8  # fixed-point verdict allows CERT_TOL * n of Frobenius defect
ZERO_TOL = 1e-9  # support-graph zero threshold
SWEEP_TOL = 1e-13  # an ascent run stops once no row moves this far in a sweep
GRAD_TOL = 1e-14  # rows with gradient below this stay frozen
NORMAL_CONE_TOL = 1e-8  # eigenvalue slack of the vertex stop's M >= 0 test
TIE_TOL = 1e-12  # objective gaps below TIE_TOL * max(1, |obj|) are ties
GAMMA_RANK_TOL = 1e-6  # gamma * rank of a block may miss its order k by this * k
SIGN_TOL = 1e-9  # an entry this close to +-1 counts as that sign
ESCAPE_TIE_TOL = 1e-12  # rows this close in sum of squares tie (escape_pair)
GAP_SWEEPS = 16  # with a gap tolerance, a run is also tested this often
# Over-relaxation of a gap-stopped ascent, from its first GAP_SWEEPS check
# on: row i is updated to rownorm(g_i - gamma_i v_i), gamma_i = OVER_RELAX
# times <g_i, v_i> at the last check, which near the optimum is successive
# over-relaxation with omega <= 1 / (1 - OVER_RELAX).
# On the 110 relaxations of the max-cut benchmark's instances (seeds
# 1-10), 0.3 and 0.4 certified all in 3,792 and 3,408 sweeps (6,880
# unshifted), and 0.2 left 10 of them to the step stop; 0.5 is omega = 2,
# the edge of SOR's stability (Ostrowski-Reich), where 50 of them ran into
# the sweep cap. 0.3 was the middle of the window that certified all of
# them when each relaxation ran five starts (0.2-0.4).
OVER_RELAX = 0.3
SHRINK_TRIES = 60  # halvings of the perturbation in sample_near


class ElliptopeError(ValueError):
    """Matrix fails a structural requirement."""


# ---------------------------------------------------------------------------
# validation and Gram representation
# ---------------------------------------------------------------------------

def check_symmetric(m, name="matrix") -> np.ndarray:
    """A symmetrized copy of m, as ``domains._symmetrized`` checks it."""
    return _symmetrized(m, name, ElliptopeError)


def is_in_elliptope(m) -> bool:
    """Whether m is in the body: symmetric within SYM_TOL, its diagonal
    within DIAG_TOL of 1 and no eigenvalue below -PSD_TOL. The 2x2
    principal minors of m + PSD_TOL I then bound every entry by
    1 + DIAG_TOL + PSD_TOL in size."""
    try:
        a = check_symmetric(m)
    except ElliptopeError:
        return False
    return bool(np.max(np.abs(np.diag(a) - 1.0)) <= DIAG_TOL
                and np.linalg.eigvalsh(a)[0] >= -PSD_TOL)


def gram_to_matrix(v) -> np.ndarray:
    """V V^T of rows unit within ROW_TOL, renormalized; diagonal exactly 1."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ElliptopeError("Gram factor must be a 2-d array")
    if v.shape[0] == 0:
        raise ElliptopeError("Gram factor has no rows")
    if not np.all(np.isfinite(v)):  # a NaN row would pass the unit test
        raise ElliptopeError("Gram factor has non-finite entries")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise ElliptopeError("Gram factor has a zero row")
    if np.max(np.abs(norms - 1.0)) > ROW_TOL:
        raise ElliptopeError(f"Gram rows must be unit vectors within {ROW_TOL}")
    return _gram(v)


def _gram(v) -> np.ndarray:
    """``gram_to_matrix`` of a factor the package built, without its
    checks: the rows renormalized, V V^T, the diagonal set to 1."""
    v = v / np.linalg.norm(v, axis=1)[:, None]
    x = v @ v.T
    np.fill_diagonal(x, 1.0)
    return x


def gram_factor(m) -> np.ndarray:
    """Unit-row factor V with V V^T = m, columns by decreasing eigenvalue."""
    return _gram_factor(check_symmetric(m))


def _gram_factor(a) -> np.ndarray:
    """``gram_factor`` of a matrix already checked by ``check_symmetric``."""
    w, q = np.linalg.eigh(a)
    v = q[:, ::-1] * np.sqrt(np.clip(w[::-1], 0.0, None))
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise ElliptopeError("matrix has a zero Gram row (zero diagonal?)")
    return v / norms[:, None]


def random_gram(n, rank, rng) -> np.ndarray:
    """Unit rows drawn from the sphere in rank dimensions."""
    v = rng.standard_normal((n, rank))
    return v / np.linalg.norm(v, axis=1)[:, None]


# ---------------------------------------------------------------------------
# linear-maximization oracle: coordinate ascent on Gram rows
# ---------------------------------------------------------------------------

def default_rank_budget(n) -> int:
    """Factor width about sqrt(2n) + 1: some optimum has a factor this
    narrow (Pataki), and at this width the factored problem has no spurious
    second-order critical points (Boumal, Voroninski and Bandeira)."""
    return min(int(n), int(np.ceil(np.sqrt(2.0 * n))) + 1)


@dataclass(frozen=True)
class OracleConfig:
    """Knobs for the coordinate-ascent oracle.

    A call without a warm start runs one random start of width
    ``default_rank_budget(n)``, its rows drawn from a generator seeded
    seed: at that width the factored problem has no spurious second-order
    critical points, so further starts would not raise the bound. gap_tol
    > 0 also stops the run once its duality gap is certified below
    gap_tol * max(1, |objective|), both of the cost scaled so that its
    largest entry lies in [1, 2), and has the result carry that bound; 0
    keeps the exact map, which the fixed-point iteration relies on.
    """

    max_sweeps: int = 5000
    seed: int = 0
    gap_tol: float = 0.0

    def __post_init__(self):
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")
        if self.seed < 0:  # numpy seeds must be nonnegative
            raise ValueError("seed must be nonnegative")
        if not 0.0 <= self.gap_tol < np.inf:
            raise ValueError("gap_tol must be nonnegative and finite")


@dataclass(frozen=True)
class OracleResult:
    matrix: np.ndarray
    gram: np.ndarray
    objective: float
    # the ascent's objective before the vertex polish, as one entry; the
    # benchmark's counters read this, best_index and candidate_grams
    restart_objectives: list
    best_index: int  # always 0
    sweeps: int
    # a proven bound on C . X over the whole body (``_upper_bound``): a
    # gap stop's own certified test, or one more Cholesky test on the
    # ascent factor after any other stop; None when config.gap_tol is 0
    upper_bound: float | None
    candidate_grams: list  # the ascent factor
    # how the ascent stopped:
    # step_tol | max_sweeps | certified_vertex | certified_gap
    status: str


def _row_norms(a):
    """Euclidean norms along the last axis. vecdot takes each one with the
    BLAS dot that np.linalg.norm uses on a single row, so a row's norm has
    the same bits in a stack of rows as alone."""
    return np.sqrt(np.vecdot(a, a))


def _color_classes(c_off):
    """Greedy colouring of the nonzero pattern of c_off, in index order.

    Returns (perm, bounds): class k is perm[bounds[k]:bounds[k + 1]], its
    indices ascending, so rows listed in the order perm form one contiguous
    slice per class. Two indices of one class have a zero cost entry
    between them. A dense cost gives n singleton classes in index order.
    """
    n = c_off.shape[0]
    rows, cols = np.nonzero(np.tril(c_off != 0.0, -1))  # row by row, j < i
    if len(rows) == n * (n - 1) // 2:
        return np.arange(n), np.arange(n + 1)  # complete: the loop's result
    earlier = [[] for _ in range(n)]
    for i, j in zip(rows.tolist(), cols.tolist()):
        earlier[i].append(j)
    colour = []
    for nbrs in earlier:
        taken = {colour[j] for j in nbrs}
        k = 0
        while k in taken:  # the lowest colour no earlier neighbour has
            k += 1
        colour.append(k)
    perm = np.argsort(colour, kind="stable")
    return perm, np.concatenate(([0], np.cumsum(np.bincount(colour))))


def _ascend(c, c_off, v0, cfg):
    """Cyclic row updates v_i <- g_i / |g_i| with g_i = sum_{j != i} c_ij v_j,
    from the unit-row factor v0 of shape (n, r).

    The cost is coloured by ``_color_classes`` and permuted once, and the
    rows are swept one colour class at a time: rows of one class share no
    cost entry, so updating them together is exactly the cyclic sweep in
    that order. Each update maximizes the row's linear subproblem exactly,
    so with cfg.gap_tol = 0 the objective c . V V^T never decreases from
    sweep to sweep.

    The run stops once its largest row move in a sweep falls below
    SWEEP_TOL, after cfg.max_sweeps sweeps, or when its rounded vertex s
    beats it (``_better_vertex``) and ``_dual_certified`` certifies s
    optimal, a test taken after sweeps 1, 2, 4, 8, .... A certified run
    ends with the factor s (x) e_1 and its vertex's objective. Only sweeps
    whose decisions read the objective score it: checkpoints, gap checks,
    step stops, the last. With cfg.gap_tol > 0 the run also stops when
    ``_dual_certified`` proves its duality gap below the tolerance
    (``_gap_delta``), at those checkpoints and every GAP_SWEEPS sweeps,
    unless ``_gap_hopeless`` refutes the check from the gradient first.
    From the first check on a multiple of GAP_SWEEPS, such a call
    over-relaxes: each check sets the diagonal of the permuted cost the
    class products use to -gamma, gamma_i = OVER_RELAX max(0, <g_i,
    v_i>), so that a row goes to rownorm(g_i - gamma_i v_i). That moves
    the same fixed points, but no longer ascends sweep by sweep; the stop
    tests decide as before. Returns (factor, sweeps, objective, status,
    proof), status being "step_tol", "max_sweeps", "certified_vertex" or
    "certified_gap", and proof the (y, delta) a gap stop certified, y in
    the permuted order, else None.
    """
    perm, bounds = _color_classes(c_off)
    inv = np.argsort(perm)
    pc, pc_off = c[np.ix_(perm, perm)], c_off[np.ix_(perm, perm)]
    # a singleton keeps the 1-d product, so that a dense cost (all
    # singletons) gives bitwise the results of a row-by-row sweep
    blocks = [(a, b, pc_off[a] if b - a == 1 else pc_off[a:b])
              for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    v = v0[perm]
    status, proof = "max_sweeps", None
    if cfg.gap_tol:
        mag = np.abs(c)
        abs_sum, row_max = float(mag.sum()), float(mag.sum(axis=1).max())
    for sweep in range(1, cfg.max_sweeps + 1):
        start = v.copy()
        for a, b, blk in blocks:
            g = blk @ v
            if b - a == 1:
                # g @ g is the BLAS dot _row_norms takes, without building
                # stacked arrays
                ng = math.sqrt(g @ g)
                if ng >= GRAD_TOL:
                    np.divide(g, ng, out=v[a])
            else:
                ng = _row_norms(g)[:, None]
                np.divide(g, ng, out=v[a:b], where=ng >= GRAD_TOL)
        # every row moves once per sweep, so the largest row step equals
        # the largest single update of the sweep; sqrt is monotone, so it
        # is taken once, after the max
        d = v - start
        done = math.sqrt(np.vecdot(d, d).max()) < SWEEP_TOL
        checkpoint = not sweep & (sweep - 1)  # a power of two
        gap_check = cfg.gap_tol and (checkpoint or not sweep % GAP_SWEEPS)
        if not (checkpoint or gap_check or done or sweep == cfg.max_sweeps):
            continue  # no decision reads this sweep's objective
        # the row sums of terms are the y_i = <(C V)_i, v_i> of the gap test
        cv = pc @ v
        terms = cv * v
        objective = float(terms.sum())
        if done:
            status = "step_tol"
            break
        if checkpoint:
            # in index order: a permuted SVD can flip a sign of s
            better = _better_vertex(c, v[inv], objective)
            if better is not None and _dual_certified(
                    c, better[0] * (c @ better[0]), NORMAL_CONE_TOL):
                v[:] = 0.0
                v[:, 0] = better[0][perm]
                objective = better[1]
                status = "certified_vertex"
                break
        if gap_check:
            y = terms.sum(axis=1)
            delta = _gap_delta(cfg.gap_tol, objective, abs_sum, v.shape)
            if (not _gap_hopeless(cv, v, y, delta, row_max)
                    and _dual_certified(pc, y, delta)):
                status, proof = "certified_gap", (y, delta)
                break
            if not sweep % GAP_SWEEPS:
                # the class blocks are views of pc_off, so every later
                # product gives g_i - gamma_i v_i; y_i - c_ii = <g_i, v_i>
                # on unit rows
                np.fill_diagonal(pc_off, -OVER_RELAX * np.maximum(
                    0.0, y - pc.diagonal()))
    return v[inv], sweep, objective, status, proof


def _gap_delta(gap_tol, obj, abs_sum, shape) -> float:
    """The gap test's delta for a run with factor of shape (n, r) and
    objective obj, as the run summed it, on a cost whose entries have
    absolute sum abs_sum: gap_tol * max(1, |obj|) / n less a reserve, so
    that a bound ``_upper_bound`` certifies at it lies within gap_tol *
    max(1, |obj|) of obj in floating point, as a caller computes that.

    The bound sums y_i = <(C V)_i, v_i>, the stop's own row sums or, after
    another stop, its own product's; that sum and obj each
    lie within gamma_{nr + n + 1} sum_ij |c_ij| <|v_i|, |v_j|> <= (n + 1)
    (r + 1) eps abs_sum of the exact objective (gamma_k <= 2ku, u = eps /
    2), and 2 (n + 1)(r + 2) eps abs_sum covers both and the rounding of
    abs_sum and of the unit rows. 8u (1 + gap_tol) max(1, |obj|) covers
    the rounding of delta, of the bound's sum and its rounding up, and of
    the caller's product. A gap_tol within the reserve gives delta <= 0,
    a gap too small to prove."""
    n, r = shape
    eps = 2.0**-52
    m = max(1.0, abs(obj))
    return (gap_tol * m - eps * (4.0 * (1.0 + gap_tol) * m
                                 + 2 * (n + 1) * (r + 2) * abs_sum)) / n


def _dual_certified(c, y, delta) -> bool:
    """Whether lambda_min(M) > -delta, M = Diag(y) - C, is proven: the
    Cholesky factorization of A = Diag(y + delta) - C, as stored, with its
    diagonal lowered by the shift s below, runs to completion. Both stops
    of the ascent ask this, and the reported bound rests on it
    (``_upper_bound``).

    The shift. If floating-point Cholesky of a symmetric B of order n
    runs to completion, R^T R = B + dB with |dB| <= g |R^T| |R|, g =
    gamma_{n+1} = (n + 1) u / (1 - (n + 1) u) and u = eps / 2, in any
    summation order and without Strassen (Demmel; Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., Thm 10.3). Column i of R
    has |r_i|^2 <= b_ii / (1 - g), so |dB|_2 <= a tr(B) with a = g /
    (1 - g) = (n + 1) u / (1 - 2 (n + 1) u), and lambda_min(B) >
    -a tr(B). As Rump uses it ("Verification of positive definiteness",
    BIT 46, 2006), the factorization of B = A - s I then proves
    Diag(y + delta) - C positive definite when s >= a sum|a_ii| +
    u (max|y_i| + |delta| + 2 max|a_ii|): the second term covers the
    rounding of A's diagonal, y_i + delta - c_ii, and of the subtraction
    of s. s is computed from n, u, y and A's diagonal, on nonnegative
    numbers, in at most four rounded steps along any path, each low by a
    factor 1 - u at most; the factor 1 + 8u, itself rounded, lifts it
    past them. The theorem excludes underflow, as Rump's does; the cost's
    largest entry lies in [1, 2) (``_oracle``), which keeps it away.

    Gap stop, by weak duality: for any unit-diagonal PSD X and any y, a
    pass gives C . X = sum(y + delta) - (Diag(y + delta) - C) . X <
    sum(y) + n delta (``_upper_bound``). With a factor's row terms y_i =
    <(C V)_i, v_i> and delta from ``_gap_delta``, that bound is within
    the gap tolerance of the factor's objective.

    Vertex stop, by the normal cone: s s^T maximizes C . X over the body
    when C = D - M with D diagonal, M >= 0 and M s = 0. D is forced to
    Diag(s * Cs), which gives D s = Cs exactly, also in floating point, so
    M s = 0 by construction, and y = s * Cs with delta = NORMAL_CONE_TOL
    decides M >= 0."""
    n = len(y)
    u = 2.0**-53  # eps / 2
    d = y + delta - c.diagonal()  # A's diagonal, as Diag(y + delta) - C has it
    ad = np.abs(d)
    shift = ((n + 1) * u / (1.0 - 2 * (n + 1) * u) * math.fsum(ad.tolist())
             + u * (float(np.abs(y).max()) + abs(delta)
                    + 2.0 * float(ad.max())))
    a = -c
    np.fill_diagonal(a, d - shift * (1.0 + 8.0 * u))
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    return True


def _gap_hopeless(cv, v, y, delta, row_max) -> bool:
    """Whether the gap test ``_dual_certified(C, y, delta)`` on the factor V
    of shape (n, r) is refuted before its factorization, cv being the
    computed C V, y the row sums of cv * V and row_max the largest sum_j
    |c_ij|: delta >= (n + 2r) row_max 2^-44 and |R|_F^2 > 2 n delta rho
    for the gradient R = C V - Diag(y) V, where rho = max(y) + delta +
    row_max bounds lambda_max(A), A = Diag(y + delta) - C, by Weyl and
    Gershgorin's |C|_2 <= row_max. Only factorizations that would fail
    are skipped, so a skip changes no stop and no figure.

    Exactly. A pass proves A > 0. Let g_i = (C V)_i, y*_i = <g_i, v_i> /
    |v_i|^2, eta = max |y_i - y*_i| and A' = Diag(y* + d) - C with d =
    delta + eta, so that A' >= A > 0 and lambda' = lambda_max(A') <=
    lambda_max(A) + 2 eta. R* = C V - Diag(y*) V has <r*_i, v_i> = 0, so
    A'V = d V - R* gives <V, A'V> = d N, N = |V|_F^2, and |A'V|_F^2 =
    d^2 N + |R*|_F^2. As A'^2 <= lambda' A', |A'V|_F^2 <= lambda' d N:
    |R*|_F^2 <= d N lambda', and lambda' >= d, the Rayleigh quotient of V.

    Rounding, in the model of ``_dual_certified``, with n r <= 2^40 so that
    every gamma_k taken is at most 1.01 k u. cv has |cv - C V| <= gamma_n
    |C| |V| entrywise, in any summation order; y_i sums r rounded
    products; the rows, divided by their rounded norms, have ||v_i|^2 -
    1| <= (r + 5) u. So eta <= 3 (n + 2r) u row_max, and the computed R,
    two rounded operations from cv and y, has |R|_F <= (1 + u)(|R*|_F +
    kappa sqrt(N)), kappa = 5 (n + 2r) u row_max, since |C|_2 <= row_max
    bounds |(|C| |V|)|_F by row_max sqrt(N). The guard delta >= 512 (n + 2r) u row_max
    gives delta > 100 kappa and rho >= lambda_max(A) >= d - 2 eta >= 0.98
    delta, so (delta + eta)(rho + 2 eta) <= 1.031 delta rho and kappa <=
    sqrt(delta rho) / 100: after a pass the computed |R|_F^2 is below
    1.06 n delta rho, while the computed 2 n delta rho, rho summed in two
    rounded steps from figures below 2.1 row_max + delta, exceeds 1.99 n
    delta rho. Below the guard the cancellation in <V, A'V> ~ n delta can
    hide a gap, and the factorization decides, at delta <= 0 too."""
    n, r = v.shape
    if not delta >= (n + 2 * r) * row_max * 2.0**-44:
        return False
    g = cv - y[:, None] * v
    return (float(np.vdot(g, g))
            > 2.0 * n * delta * (float(y.max()) + delta + row_max))


def _sum_up(values) -> float:
    """The least float at least the exact sum of the list of floats
    values: ``math.fsum``'s correctly rounded sum, moved up one step when
    the exact remainder it leaves, itself a multiple of the smallest
    subnormal, is positive."""
    total = math.fsum(values)
    if math.fsum(values + [-total]) > 0.0:
        return math.nextafter(total, math.inf)
    return total


def _upper_bound(c, v, delta, y) -> float:
    """A proven bound on C . X over the body, on a cost whose largest
    entry lies in [1, 2): sum(y) + n delta', summed exactly and rounded up
    (``_sum_up``), where ``_dual_certified(c, y, delta')`` passes (its weak
    duality). After a gap stop, y and delta are the stop's own, its pass
    is the proof, and no product or factorization is taken: the bound is
    within the gap tolerance of the objective (``_gap_delta``), and the
    order of the y_i, permuted or not, changes neither the sum nor the
    spectrum. Otherwise y is None, y_i = <(C V)_i, v_i> is taken from the
    unit-row factor V, and delta' is the first of delta, 2 delta, 4
    delta, ... (doubling from eps at least) that passes. No X in the body
    scores above sum_ij |c_ij|, |x_ij| being at most 1, so that sum,
    rounded up by the factor 1 + n^2 eps past the rounding of its n^2
    terms, is a bound too, below 2n^2 (1 + n^2 eps): the doubling, which
    passes once delta' exceeds -lambda_min(Diag(y) - C) plus the shift,
    stops there at the latest, and it caps either bound."""
    n = len(c)
    cap = float(np.abs(c).sum()) * (1.0 + c.size * np.finfo(float).eps)
    if y is None:
        y = np.vecdot(c @ v, v)
        while not _dual_certified(c, y, delta):
            delta = max(2.0 * delta, np.finfo(float).eps)
            if math.fsum(y.tolist()) + n * delta >= cap:
                return cap
    return min(_sum_up(y.tolist() + [delta] * n), cap)


def _top_signs(v):
    """The sign of v's top left singular vector, the top eigenvector of
    V V^T."""
    u = np.linalg.svd(v, full_matrices=False)[0][:, 0]
    return np.where(u >= 0.0, 1.0, -1.0)


def _better_vertex(c, v, obj):
    """(s, s^T C s) for the vertex s rounded from the factor v when it
    beats obj by more than a tie, TIE_TOL * max(1, |obj|), else None: a
    run at a maximizer is not moved to a vertex that only ties it."""
    s = _top_signs(v)
    vertex_obj = float(s @ c @ s)
    if vertex_obj > obj + TIE_TOL * max(1.0, abs(obj)):
        return s, vertex_obj
    return None


def _polish(c, v, x, obj):
    """(v, x, obj), or (s, s s^T, s^T C s) for the vertex rounded from the
    unit-row factor v of x when it beats obj = C . x (``_better_vertex``):
    the ascent creeps sublinearly toward an optimal vertex, and the exactly
    rounded vertex is feasible and stationary."""
    better = _better_vertex(c, v, obj)
    if better is None:
        return v, x, obj
    s = better[0][:, None]
    return s, _gram(s), better[1]


def elliptope_oracle(c, config: OracleConfig | None = None,
                     warm_start=None) -> OracleResult:
    """Approximately maximize C . X over unit-diagonal PSD matrices.

    Runs coordinate ascent on Gram rows from the warm start, or without
    one from the seeded random factor of ``OracleConfig``. The run stops
    on a small step, on cfg.max_sweeps, as soon as its rounded vertex is
    certified optimal, or, when cfg.gap_tol > 0, as soon as its duality
    gap is certified below that tolerance (``_ascend``); such a call also
    reports the upper bound, proven by the same Cholesky test
    (``_upper_bound``), and its distance above the objective is how far
    the output may fall short of the maximum. The objective is the one
    the run's own stop tests read. A run that ends off a vertex is
    replaced by its rounded vertex when that scores better (``_polish``).
    Every tolerance applies to the cost divided by the power of two that
    puts its largest entry in [1, 2), so a cost scaled by 2^k gives the
    same matrix and factor, and figures scaled by exactly 2^k. A cost
    whose figures could overflow once scaled back is rejected before the
    run (``_oracle``); ``ElliptopeDomain.maximize`` passes an already
    scaled cost, and ``maxcut.WeightedGraph`` rejects weights that large,
    so neither reaches that case.
    """
    return _oracle(check_symmetric(c, name="cost matrix"),
                   config or OracleConfig(), warm_start)


def _oracle(c, cfg, warm_start) -> OracleResult:
    """``elliptope_oracle`` of a cost already checked by ``check_symmetric``:
    the run takes C / 2^e, its largest entry in [1, 2) (``_scaled``), and
    the objectives and the bound are scaled back by 2^e. On C / 2^e both
    are below 4n^2 in size (``_upper_bound``), so a cost whose 4n^2 2^e
    overflows is rejected before the first sweep."""
    c, e = _scaled(c)
    n = c.shape[0]
    if not math.isfinite(4.0 * n * n * 2.0**e):  # Python floats: no warning
        raise ElliptopeError("cost matrix too large: 4 n^2 times the power "
                             "of two of its largest entry overflows")
    c_off = c.copy()
    np.fill_diagonal(c_off, 0.0)

    if warm_start is not None:
        w = np.asarray(warm_start, dtype=float)
        if w.ndim != 2 or w.shape[0] != n:
            raise ElliptopeError("warm start must have one row per index")
        norms = np.linalg.norm(w, axis=1)
        if not np.all((norms > 0.0) & np.isfinite(norms)):
            raise ElliptopeError("warm start rows must be finite and nonzero")
        start = w / norms[:, None]
    else:
        start = random_gram(n, default_rank_budget(n),
                            np.random.default_rng(cfg.seed))
    ascent, sweeps, ascent_obj, status, proof = _ascend(c, c_off, start, cfg)
    upper = None
    if cfg.gap_tol:  # from the ascent: the polished vertex may bound worse
        y, delta = proof or (None, _gap_delta(
            cfg.gap_tol, ascent_obj, float(np.abs(c).sum()), ascent.shape))
        upper = float(np.ldexp(_upper_bound(c, ascent, delta, y), e))
    x = _gram(ascent)
    v, obj = ascent, ascent_obj
    if status != "certified_vertex":  # else already at its vertex
        v, x, obj = _polish(c, v, x, obj)
    return OracleResult(
        matrix=x,
        gram=v,
        objective=float(np.ldexp(obj, e)),
        restart_objectives=[float(np.ldexp(ascent_obj, e))],
        best_index=0,
        sweeps=sweeps,
        upper_bound=upper,
        candidate_grams=[ascent],
        status=status,
    )


class ElliptopeDomain(ConvexDomain):
    """The unit-diagonal PSD body of order n, driven by the ascent oracle.

    ``maximize`` applies the map from the query point's own Gram factor
    alone: the output scores at least as well as the input against the
    query functional (the engine's monotonicity rests on this), and at that
    full width n the ascent has no spurious local maxima.
    """

    def __init__(self, n):
        self.n = int(n)
        if self.n < 1:
            raise ElliptopeError("dimension must be at least 1")
        self.dim = self.n * self.n

    def _order(self, x):
        """x as an array, rejecting a square matrix of another order."""
        a = np.asarray(x, dtype=float)
        if a.ndim == 2 and a.shape[0] == a.shape[1] != self.n:
            raise ElliptopeError(
                f"order mismatch: expected {self.n}, got {a.shape[0]}")
        return a

    def maximize(self, x):
        # checked and scaled once: the factor and the oracle take the
        # symmetrized query, its largest entry in [1, 2)
        x = _scaled(check_symmetric(self._order(x)))[0]
        try:
            start = _gram_factor(x)
        except ElliptopeError:  # zero row: the start of a default cold call
            start = None
        return _oracle(x, OracleConfig(), start).matrix

    def contains(self, x):
        return is_in_elliptope(self._order(x))

    def sample_near(self, x, eps, rng):
        """Perturb the Gram rows and renormalize, shrinking the perturbation
        until the result lands strictly inside the eps ball. Stays feasible
        by construction, unlike entrywise rejection sampling."""
        v = gram_factor(x)
        g = rng.standard_normal(v.shape)
        scale = eps / (2.0 * np.sqrt(v.shape[0]))
        for _ in range(SHRINK_TRIES):
            w = v + scale * g
            w = w / np.linalg.norm(w, axis=1)[:, None]
            y = gram_to_matrix(w)
            dist = float(np.linalg.norm(y - x))
            if 0.0 < dist < eps:
                return y
            scale *= 0.5
        raise ElliptopeError("could not sample a nearby feasible matrix")


# ---------------------------------------------------------------------------
# fixed-point certificate and structure
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagonalCertificate:
    """Diagonal d with d_i the i-th row sum of squares, and the Frobenius
    defect of X^2 against diag(d) X. The defect vanishes exactly at the
    fixed points of the linear-maximization map."""

    d: np.ndarray
    residual: float
    is_fixed: bool


def fixed_point_certificate(m) -> DiagonalCertificate:
    """Algebraic fixed-point test: X^2 = DX with D_ii the row sum of squares.

    The diagonal is forced: if X^2 = DX holds for any diagonal D then its
    entries must be the row sums of squares, so checking this single D
    decides the matter. The verdict allows CERT_TOL * n of Frobenius defect.
    """
    return _certificate(check_symmetric(m), CERT_TOL)


def _certificate(a, tol) -> DiagonalCertificate:
    """``fixed_point_certificate`` allowing tol * n of defect, on a matrix
    that the package checked or built, as the cores below take theirs."""
    with np.errstate(over="ignore", invalid="ignore"):
        d = np.sum(a * a, axis=1)
        residual = float(np.linalg.norm(a @ a - d[:, None] * a))
    if not math.isfinite(residual):  # also catches an infinite d
        raise ElliptopeError("matrix entries overflow the certificate")
    return DiagonalCertificate(d, residual, residual <= tol * a.shape[0])


def _rank(a) -> int:
    """Eigenvalue count above RANK_TOL. Fixed points have spectra in {0, gamma}
    with gamma >= 1, so any threshold well below 1 gives the exact rank."""
    return int(np.sum(np.linalg.eigvalsh(a) > RANK_TOL))


def _components(a) -> list:
    """Connected components of the nonzero-pattern graph, diagonal ignored.

    Each component indexes an irreducible principal block; a fixed point
    restricted to any of its blocks is again a fixed point of the smaller
    body.
    """
    adj = np.abs(a) > ZERO_TOL  # a diagonal entry joins no two indices
    seen = np.zeros(a.shape[0], dtype=bool)
    comps = []
    for s in range(a.shape[0]):
        if seen[s]:
            continue
        seen[s] = True
        comp, frontier = [s], [s]
        while frontier:  # breadth first: each index joins one frontier
            frontier = np.flatnonzero(adj[frontier].any(axis=0) & ~seen).tolist()
            seen[frontier] = True
            comp += frontier
        comps.append(sorted(comp))
    return comps


def _vertex_signs(a):
    """The sign vector s of the vertex a is, or None when a is no vertex.

    s is read off row 0 (s_j = +1 where a_0j >= 0), and a is the vertex
    s s^T when every entry has |a_ij - s_i s_j| <= SIGN_TOL. Row 0 is
    first tested for entries within SIGN_TOL of +-1, which the rule
    implies, so most non-vertices are rejected in O(n). This one rule
    decides the rounding chain's stop and reads its partition, and gives
    ``analyze_fixed_point``'s label and the exact dichotomy.

    It decides as the test "every entry within SIGN_TOL of +-1 and the
    second eigenvalue at most RANK_TOL" does, on every PSD matrix of order
    n <= 1000 (eigenvalues taken exactly):
    - If that test passes, at any order, this rule passes: the sign
      pattern is consistent. The diagonal of a PSD matrix is
      nonnegative, so it lies near +1 and s_0 = +1; row 0 and the
      diagonal then agree with s s^T. Any other entry with
      sign(a_ij) != s_i s_j would make the triangle (0, i, j) frustrated:
      its principal block lies within SIGN_TOL entrywise, so within
      3 SIGN_TOL in norm, of a +-1 block similar to 2I - J, whose
      eigenvalues are {2, 2, -1}. By Cauchy interlacing the second
      eigenvalue of a would be at least 2 - 3 SIGN_TOL, above RANK_TOL.
      So |a_ij - s_i s_j| = ||a_ij| - 1| <= SIGN_TOL for every entry.
    - If this rule passes, that test passes for n <= 1000. Every entry
      is within SIGN_TOL of +-1, and
      a = s s^T + E with |E_ij| <= SIGN_TOL, so Gershgorin bounds the top
      eigenvalue of E by n SIGN_TOL and Weyl the second of a by the same.
      That is at most RANK_TOL for n <= 1000 (n <= 1001 on an exactly
      unit diagonal, where E_ii = 0).
    Above that order this rule is the definition. The eigenvalue test also
    took some non-PSD +-1 patterns for vertices, such as [[1, 1], [1, -1]]
    (second eigenvalue -sqrt(2)); this rule rejects them.
    """
    # |a_0j - s_0 s_j| >= ||a_0j| - 1|: a row 0 this far from signs fails
    if not np.max(np.abs(np.abs(a[0]) - 1.0)) <= SIGN_TOL:
        return None
    s = np.where(a[0] >= 0.0, 1, -1)
    t = a * s[:, None]  # one temporary, worked in place
    t *= s
    t -= 1.0
    return s if np.abs(t, out=t).max() <= SIGN_TOL else None


def escape_pair(x):
    """Lexicographically first ordered pair (i, j) with x_ij away from +-1
    and row i no heavier (in sum of squares) than row j."""
    a = np.asarray(x, dtype=float)
    d = np.sum(a * a, axis=1)
    ok = (np.abs(a) < 1.0 - SIGN_TOL) & (d[:, None] <= d + ESCAPE_TIE_TOL)
    np.fill_diagonal(ok, False)
    hits = np.flatnonzero(ok)  # in row-major order
    if hits.size == 0:
        raise ElliptopeError("no escape pair exists: the matrix is a vertex")
    return divmod(int(hits[0]), a.shape[0])


def _escape_factor(v, x, i, j, alpha):
    """v, a unit-row factor of x, with row i moved toward +-row j and
    renormalized, (i, j) = ``escape_pair(x)``: toward -row j when x_ij <
    -ZERO_TOL, so that roundoff in a zero entry, whose two directions gain
    alike, does not pick the direction."""
    sign = -1.0 if x[i, j] < -ZERO_TOL else 1.0
    w = (1.0 - alpha) * v[i] + alpha * sign * v[j]
    z = float(np.linalg.norm(w))
    if z == 0.0:
        raise ElliptopeError("degenerate escape direction")
    v = v.copy()
    v[i] = w / z
    return v


def escape_curve(x, alpha) -> np.ndarray:
    """Feasible deformation of a non-vertex fixed point that strictly
    increases the squared norm.

    Moves row i of x's Gram factor toward +-row j (``_escape_factor``);
    the result stays a unit-diagonal PSD matrix for every alpha in [0, 1],
    equals x at alpha 0 and has strictly larger squared norm for alpha > 0,
    increasing in alpha.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    a = check_symmetric(x)
    return gram_to_matrix(_escape_factor(_gram_factor(a), a, *escape_pair(a),
                                         alpha))


def enumerate_vertices(n) -> list:
    """All rank-one sign matrices s s^T, one per sign vector with s_0 = +1."""
    n = int(n)
    if n < 1:
        raise ElliptopeError("dimension must be at least 1")
    if n > 16:
        raise ElliptopeError("vertex enumeration is capped at n = 16")
    out = []
    for bits in itertools.product((1.0, -1.0), repeat=n - 1):
        s = np.array((1.0,) + bits)
        out.append(np.outer(s, s))
    return out


def sign_kernel_fixed_point(w) -> np.ndarray:
    """Fixed point whose support block has kernel spanned by the sign
    vector w. With p nonzeros the block entries are -w_i w_j / (p - 1);
    indices outside the support stay decoupled at the identity."""
    w = np.asarray(w, dtype=float)
    if w.ndim != 1:
        raise ElliptopeError("w must be a vector")
    if not np.all(np.isin(w, (-1.0, 0.0, 1.0))):
        raise ElliptopeError("entries of w must be 0, 1 or -1")
    sup = np.nonzero(w)[0]
    p = sup.size
    if p < 2:
        raise ElliptopeError("w needs at least two nonzero entries")
    x = np.eye(w.size)
    block = -np.outer(w[sup], w[sup]) / (p - 1.0)
    x[np.ix_(sup, sup)] = block
    x[sup, sup] = 1.0
    return x


# ---------------------------------------------------------------------------
# catalogs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CensusPoint:
    matrix: np.ndarray
    family: str  # vertex (rank 1) | edge (rank 2, reducible) | face (rank 2)


_L3_VERTEX_SIGNS = ((1, -1, -1), (1, -1, 1), (1, 1, -1), (1, 1, 1))
_L3_EDGE_KERNELS = ((1, -1, 0), (1, 1, 0), (1, 0, -1),
                    (1, 0, 1), (0, 1, -1), (0, 1, 1))
_L3_FACE_KERNELS = ((1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1))


def l3_census() -> list:
    """The full finite catalog in dimension 3.

    Fourteen points: 4 rank-one vertices, 6 reducible rank-two points
    halfway along the edges (each the average of two vertices) and 4
    irreducible rank-two points, one per curved face. Every entry passes
    the X^2 = DX certificate with zero defect.
    """
    pts = []
    for s in _L3_VERTEX_SIGNS:
        v = np.array(s, dtype=float)
        pts.append(CensusPoint(np.outer(v, v), "vertex"))
    for w in _L3_EDGE_KERNELS:
        pts.append(CensusPoint(sign_kernel_fixed_point(w), "edge"))
    for w in _L3_FACE_KERNELS:
        pts.append(CensusPoint(sign_kernel_fixed_point(w), "face"))
    return pts


def l4_family(c) -> np.ndarray:
    """One member of the continuum of fixed points in dimension 4.

    Every parameter value in (-1, 1) gives a distinct rank-two matrix X
    with X^2 = 2X.
    """
    c = float(c)
    if not -1.0 < c < 1.0:
        raise ElliptopeError("parameter must lie strictly between -1 and 1")
    s = float(np.sqrt(1.0 - c * c))
    return np.array([
        [1.0, -s, 0.0, c],
        [-s, 1.0, -c, 0.0],
        [0.0, -c, 1.0, -s],
        [c, 0.0, -s, 1.0],
    ])


def sign_kernel_census(n) -> list:
    """All sign-kernel fixed points of order n, one per kernel vector with
    leading nonzero entry +1 and at least two nonzeros."""
    n = int(n)
    out = []
    for w in itertools.product((0, 1, -1), repeat=n):
        nz = [e for e in w if e]
        if len(nz) < 2 or nz[0] != 1:
            continue
        out.append(sign_kernel_fixed_point(np.array(w, dtype=float)))
    return out


# ---------------------------------------------------------------------------
# structured report and text format
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FixedPointReport:
    is_fixed: bool
    d: np.ndarray
    residual: float
    rank: int
    components: list
    gammas: list  # per component: the block's checked gamma, or None
    label: str  # attractive | not_attractive | not_fixed


def analyze_fixed_point(m, tol=CERT_TOL) -> FixedPointReport:
    """Certificate, rank, block structure and the attractiveness verdict.

    An irreducible fixed point has D = gamma I with gamma >= 1 and gamma
    times its rank equal to its order. A block's gamma is reported only
    when all three hold: its certificate diagonal is constant within
    tol * |block|, at least 1 - tol, and gamma * rank(block) = |block|
    within GAMMA_RANK_TOL * |block|; otherwise it is None.

    Vertices are the attractive fixed points; every other fixed point
    admits arbitrarily close feasible matrices of strictly larger norm and
    is labeled not_attractive.
    """
    a = check_symmetric(m)
    cert = _certificate(a, tol)
    comps = _components(a)
    rank = _rank(a)
    gammas = []
    for comp in comps:
        k, block_d = len(comp), cert.d[comp]
        gamma = float(block_d[0])
        if float(np.max(np.abs(block_d - gamma))) > tol * k or gamma < 1.0 - tol:
            gammas.append(None)
            continue
        # a rank costs an eigendecomposition: only blocks that got here pay
        block_rank = rank if len(comps) == 1 else _rank(a[np.ix_(comp, comp)])
        gammas.append(gamma if abs(gamma * block_rank - k) <= GAMMA_RANK_TOL * k
                      else None)
    if not cert.is_fixed:
        label = "not_fixed"
    elif _vertex_signs(a) is not None:
        label = "attractive"
    else:
        label = "not_attractive"
    return FixedPointReport(cert.is_fixed, cert.d, cert.residual, rank, comps,
                            gammas, label)


def read_matrix_text(path) -> np.ndarray:
    """Parse the matrix text format: first line n, then n rows.

    Rejects ragged rows, asymmetry beyond SYM_TOL and files not in UTF-8.
    """
    lines = [line for _, line in read_lines(path, ElliptopeError)]
    if not lines:
        raise ElliptopeError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ElliptopeError(f"{path}: first line must be the dimension")
    if n < 1:
        raise ElliptopeError(f"{path}: dimension must be at least 1")
    if len(lines) != n + 1:
        raise ElliptopeError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:], 1):
        try:
            vals = [float(tok) for tok in ln.split()]
        except ValueError:
            raise ElliptopeError(f"{path}: row {k} has a non-numeric entry")
        if len(vals) != n:
            raise ElliptopeError(f"{path}: row {k} has {len(vals)} entries, expected {n}")
        rows.append(vals)
    return check_symmetric(np.array(rows), name=f"{path}")


def write_matrix_text(m, path):
    a = np.asarray(m, dtype=float)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
