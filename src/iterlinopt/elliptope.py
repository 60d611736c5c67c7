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

from .domains import SYM_TOL, ConvexDomain, read_lines

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
    """Return a symmetrized copy, rejecting an empty matrix and asymmetry
    beyond SYM_TOL; halving first keeps every finite input finite."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ElliptopeError(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ElliptopeError(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise ElliptopeError(f"{name} has non-finite entries")
    h = 0.5 * a
    if np.max(np.abs(h - h.T)) > 0.5 * SYM_TOL:
        raise ElliptopeError(f"{name} is not symmetric within {SYM_TOL}")
    return h + h.T


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
    v = v / norms[:, None]
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
    gap_tol * max(1, |objective|), and has the result carry that bound; 0
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
    # a proven bound on C . X over the whole body, from the ascent factor
    # (``_upper_bound``); None when config.gap_tol is 0
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
    adj = c_off != 0.0
    if np.count_nonzero(adj) - np.count_nonzero(adj.diagonal()) == n * (n - 1):
        return np.arange(n), np.arange(n + 1)  # complete: the loop's result
    colour = np.empty(n, dtype=np.intp)
    for i in range(n):
        taken = np.zeros(i + 1, dtype=bool)
        taken[colour[:i][adj[i, :i]]] = True
        colour[i] = taken.argmin()  # the lowest colour no earlier neighbour has
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
    SWEEP_TOL, after cfg.max_sweeps sweeps, or when ``_certify`` certifies
    its rounded vertex s, a test taken after sweeps 1, 2, 4, 8, .... A
    certified run ends with the factor s (x) e_1 and its vertex's
    objective. Only sweeps whose decisions read the objective score it:
    checkpoints, gap checks, step stops, the last. With cfg.gap_tol > 0 the
    run also stops when ``_gap_certified`` proves its duality gap below the
    tolerance, at those checkpoints and every GAP_SWEEPS sweeps. From the
    first check on a multiple of GAP_SWEEPS, such a call over-relaxes: each
    check sets the diagonal of the permuted cost the class products use to
    -gamma, gamma_i = OVER_RELAX max(0, <g_i, v_i>), so that a row goes to
    rownorm(g_i - gamma_i v_i). That moves the same fixed points, but no
    longer ascends sweep by sweep; the stop tests decide as before.
    Returns (factor, sweeps, objective, status), status being "step_tol",
    "max_sweeps", "certified_vertex" or "certified_gap".
    """
    perm, bounds = _color_classes(c_off)
    inv = np.argsort(perm)
    pc, pc_off = c[np.ix_(perm, perm)], c_off[np.ix_(perm, perm)]
    # a singleton keeps the 1-d product, so that a dense cost (all
    # singletons) gives bitwise the results of a row-by-row sweep
    blocks = [(a, b, pc_off[a] if b - a == 1 else pc_off[a:b])
              for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist())]
    v = v0[perm]
    status = "max_sweeps"
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
        terms = (pc @ v) * v
        objective = float(terms.sum())
        if done:
            status = "step_tol"
            break
        if checkpoint:
            # in index order: a permuted SVD can flip a sign of s
            cert = _certify(c, _top_signs(v[inv]), objective)
            if cert is not None:
                v[:] = 0.0
                v[:, 0] = cert[0][perm]
                objective = cert[1]
                status = "certified_vertex"
                break
        if gap_check:
            y = terms.sum(axis=1)
            if _gap_certified(pc, y, objective, cfg.gap_tol):
                status = "certified_gap"
                break
            if not sweep % GAP_SWEEPS:
                # the class blocks are views of pc_off, so every later
                # product gives g_i - gamma_i v_i; y_i - c_ii = <g_i, v_i>
                # on unit rows
                np.fill_diagonal(pc_off, -OVER_RELAX * np.maximum(
                    0.0, y - pc.diagonal()))
    return v[inv], sweep, objective, status


def _gap_certified(c, y, obj, tol) -> bool:
    """Whether the duality gap of a factor with row terms y, objective
    obj = sum(y), is proven below tol * max(1, |obj|).

    For any unit-diagonal PSD X and any y, C . X = sum(y) - M . X with
    M = Diag(y) - C, and M . X >= n lambda_min(M), so
    UB = sum(y) - n min(0, lambda_min(M)) bounds C . X over the whole body
    (``_upper_bound``). A Cholesky factor of M + delta I, delta =
    tol * max(1, |obj|) / n, exists exactly when lambda_min(M) > -delta,
    which puts UB - obj below n delta: one factorization decides, cheaper
    than the eigenvalue itself.
    """
    delta = tol * max(1.0, abs(obj)) / len(y)
    return _positive_definite(np.diag(y + delta) - c)


def _positive_definite(m) -> bool:
    """Whether the symmetric m has a Cholesky factor, which exists exactly
    when its smallest eigenvalue is positive."""
    try:
        np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        return False
    return True


def _upper_bound(c, v) -> float:
    """sum(y) - n min(0, lambda_min(Diag(y) - C)) with y_i = <(C V)_i, v_i>:
    a bound on C . X over the whole body for any unit-row factor V, and
    within the gap tolerance of V's objective when ``_gap_certified``
    passed on it. Any y gives a bound, so only the sum and the eigenvalue
    round: each is allowed n eps of its scale (sum |y|, and n |M|_F for
    n lambda_min), so that the bound holds in floating point too."""
    y = np.vecdot(c @ v, v)
    m = np.diag(y) - c
    n = len(y)
    lam = np.linalg.eigvalsh(m)[0]
    rounding = n * np.finfo(float).eps * (np.abs(y).sum() + n * np.linalg.norm(m))
    return float(y.sum() - n * min(0.0, lam) + rounding)


def _tie_tol(obj) -> float:
    """Objective gaps below this count as ties: numerical resolution."""
    return TIE_TOL * max(1.0, abs(obj))


def _top_signs(v):
    """The sign of v's top left singular vector, the top eigenvector of
    V V^T."""
    u = np.linalg.svd(v, full_matrices=False)[0][:, 0]
    return np.where(u >= 0.0, 1.0, -1.0)


def _polish(c, v, x, obj, tie_tol):
    """(v, x, obj), or (s, s s^T, s^T C s) for the vertex rounded from the
    unit-row factor v of x when it beats obj = C . x by more than tie_tol:
    the ascent creeps sublinearly toward an optimal vertex, and the exactly
    rounded vertex is feasible and stationary."""
    s = _top_signs(v)
    vertex_obj = float(s @ c @ s)
    if vertex_obj > obj + tie_tol:
        return s[:, None], gram_to_matrix(s[:, None]), vertex_obj
    return v, x, obj


def _certify(c, s, obj):
    """(s, s^T C s) when the vertex s s^T scores strictly better than obj
    and maximizes C . X over the whole body, else None.
    Optimality is C in the normal cone at X = s s^T: C = D - M with D
    diagonal, M >= 0 and M X = 0. D is forced to Diag(s * Cs), which gives
    D s = s * Cs * s = Cs exactly, also in floating point, so M X = 0 holds
    by construction, and one Cholesky factor of M + NORMAL_CONE_TOL I
    decides whether lambda_min(M) > -NORMAL_CONE_TOL.
    The strictly-better test comes first and keeps a run that already sits
    at a maximizer, a non-vertex fixed point say, from being moved to a
    vertex that only ties it.
    """
    vertex_obj = float(s @ c @ s)
    if vertex_obj > obj + _tie_tol(obj) and _positive_definite(
            np.diag(s * (c @ s) + NORMAL_CONE_TOL) - c):
        return s, vertex_obj
    return None


def elliptope_oracle(c, config: OracleConfig | None = None,
                     warm_start=None) -> OracleResult:
    """Approximately maximize C . X over unit-diagonal PSD matrices.

    Runs coordinate ascent on Gram rows from the warm start, or without
    one from the seeded random factor of ``OracleConfig``. The run stops
    on a small step, on cfg.max_sweeps, as soon as its rounded vertex is
    certified optimal, or, when cfg.gap_tol > 0, as soon as its duality
    gap is certified below that tolerance (``_ascend``); such a call also
    reports the proven upper bound, and its distance above the objective
    is how far the output may fall short of the maximum. A run that ends
    off a vertex is replaced by its rounded vertex when that scores
    better (``_polish``).
    """
    return _oracle(check_symmetric(c, name="cost matrix"),
                   config or OracleConfig(), warm_start)


def _oracle(c, cfg, warm_start) -> OracleResult:
    """``elliptope_oracle`` of a cost already checked by ``check_symmetric``."""
    n = c.shape[0]
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
    ascent, sweeps, ascent_obj, status = _ascend(c, c_off, start, cfg)
    # from the ascent factor: the polished vertex below may bound worse
    upper = _upper_bound(c, ascent) if cfg.gap_tol else None
    v = ascent
    x = gram_to_matrix(v)
    obj = float(np.vdot(c, x))
    if status != "certified_vertex":  # else already at its vertex
        v, x, obj = _polish(c, v, x, obj, _tie_tol(ascent_obj))
    return OracleResult(
        matrix=x,
        gram=v,
        objective=obj,
        restart_objectives=[ascent_obj],
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
        # checked once: the factor and the oracle take the symmetrized query
        x = check_symmetric(self._order(x))
        try:
            start = _gram_factor(x)
        except ElliptopeError:  # zero row: the start of a default cold call
            start = None
        return _oracle(x, OracleConfig(), start).matrix

    def contains(self, x):
        return is_in_elliptope(self._order(x))

    def sample(self, rng):
        return gram_to_matrix(
            random_gram(self.n, default_rank_budget(self.n), rng))

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


def _is_vertex(a) -> bool:
    """Rank-one sign matrix test: every entry within SIGN_TOL of +-1 and
    no second eigenvalue above RANK_TOL."""
    return bool(np.max(np.abs(np.abs(a) - 1.0)) <= SIGN_TOL and (
        a.shape[0] == 1 or np.linalg.eigvalsh(a)[-2] <= RANK_TOL))


def vertex_signs(m) -> np.ndarray:
    """Sign vector of a vertex, read off row 0 (rows agree up to global
    sign, so the choice of row is immaterial)."""
    a = np.asarray(m, dtype=float)
    return np.where(a[0] >= 0.0, 1, -1).astype(int)


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
            if d[i] <= d[j] + ESCAPE_TIE_TOL:
                return i, j
    raise ElliptopeError("no escape pair exists: the matrix is a vertex")


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
    rank: int
    irreducible: bool
    family: str  # vertex | edge | face


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
        pts.append(CensusPoint(np.outer(v, v), 1, True, "vertex"))
    for w in _L3_EDGE_KERNELS:
        pts.append(CensusPoint(sign_kernel_fixed_point(w), 2, False, "edge"))
    for w in _L3_FACE_KERNELS:
        pts.append(CensusPoint(sign_kernel_fixed_point(w), 2, True, "face"))
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
        if len(comps) == 1:
            block_rank = rank
        elif k == 1:
            block_rank = int(a[comp[0], comp[0]] > RANK_TOL)
        else:
            block_rank = _rank(a[np.ix_(comp, comp)])
        gammas.append(gamma if abs(gamma * block_rank - k) <= GAMMA_RANK_TOL * k
                      else None)
    if not cert.is_fixed:
        label = "not_fixed"
    elif _is_vertex(a):
        label = "attractive"
    else:
        label = "not_attractive"
    return FixedPointReport(cert.is_fixed, cert.d, cert.residual, rank, comps,
                            gammas, label)


def read_matrix_text(path) -> np.ndarray:
    """Parse the matrix text format: first line n, then n rows.

    Rejects ragged rows, asymmetry beyond SYM_TOL and files not in UTF-8.
    """
    lines = [ln.split("#", 1)[0].strip()
             for ln in read_lines(path, ElliptopeError)]
    lines = [ln for ln in lines if ln]
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
