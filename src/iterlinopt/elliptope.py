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
from dataclasses import dataclass, field

import numpy as np

from .domains import ConvexDomain

SYM_TOL = 1e-12
PSD_TOL = 1e-9
CERT_TOL = 1e-8  # fixed-point verdict allows CERT_TOL * n of Frobenius defect
ZERO_TOL = 1e-9  # support-graph zero threshold


class ElliptopeError(ValueError):
    """Matrix fails a structural requirement."""


# ---------------------------------------------------------------------------
# validation and Gram representation
# ---------------------------------------------------------------------------

def check_symmetric(m, tol=SYM_TOL, name="matrix") -> np.ndarray:
    """Return a symmetrized copy, rejecting asymmetry beyond tol."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ElliptopeError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ElliptopeError(f"{name} has non-finite entries")
    if a.size and np.max(np.abs(a - a.T)) > tol:
        raise ElliptopeError(f"{name} is not symmetric within {tol}")
    return 0.5 * (a + a.T)


def validate_elliptope(m, diag_tol=1e-12, psd_tol=PSD_TOL,
                       sym_tol=SYM_TOL) -> np.ndarray:
    """Raise unless m is a unit-diagonal PSD matrix within tolerances."""
    a = check_symmetric(m, sym_tol)
    dev = float(np.max(np.abs(np.diag(a) - 1.0)))
    if dev > diag_tol:
        raise ElliptopeError(f"diagonal deviates from 1 by {dev:.3g}")
    if np.max(np.abs(a)) > 1.0 + 1e-12:
        raise ElliptopeError("entries exceed 1 in absolute value")
    w = np.linalg.eigvalsh(a)
    if w[0] < -psd_tol:
        raise ElliptopeError(f"minimum eigenvalue {w[0]:.3g} below -{psd_tol}")
    return a


def is_in_elliptope(m, diag_tol=1e-12, psd_tol=PSD_TOL, sym_tol=SYM_TOL) -> bool:
    try:
        validate_elliptope(m, diag_tol, psd_tol, sym_tol)
    except ElliptopeError:
        return False
    return True


def normalize_gram_rows(v, tol=1e-12) -> np.ndarray:
    """Check rows are unit vectors within tol, then renormalize exactly."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 2:
        raise ElliptopeError("Gram factor must be a 2-d array")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise ElliptopeError("Gram factor has a zero row")
    if np.max(np.abs(norms - 1.0)) > tol:
        raise ElliptopeError(f"Gram rows must be unit vectors within {tol}")
    return v / norms[:, None]


def gram_to_matrix(v, row_tol=1e-12) -> np.ndarray:
    """Gram matrix V V^T of unit rows; the diagonal is set to exactly 1."""
    v = normalize_gram_rows(v, row_tol)
    x = v @ v.T
    np.fill_diagonal(x, 1.0)
    return x


def gram_factor(m, rank=None) -> np.ndarray:
    """Unit-row factor V with V V^T = m, columns by decreasing eigenvalue.

    With ``rank`` set the factor is truncated to that many columns, which
    reproduces m only when rank(m) <= rank.
    """
    a = check_symmetric(m)
    w, q = np.linalg.eigh(a)
    w = np.clip(w[::-1], 0.0, None)
    q = q[:, ::-1]
    r = a.shape[0] if rank is None else min(int(rank), a.shape[0])
    v = q[:, :r] * np.sqrt(w[:r])
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0.0):
        raise ElliptopeError("matrix has a zero Gram row (zero diagonal?)")
    return v / norms[:, None]


def random_gram(n, rank, rng) -> np.ndarray:
    """Unit rows drawn from the sphere in rank dimensions."""
    v = rng.standard_normal((n, rank))
    return v / np.linalg.norm(v, axis=1)[:, None]


def matrix_rank_psd(m, tol=1e-6) -> int:
    """Eigenvalue count above tol. Fixed points have spectra in {0, gamma}
    with gamma >= 1, so any threshold well below 1 gives the exact rank."""
    return int(np.sum(np.linalg.eigvalsh(check_symmetric(m)) > tol))


# ---------------------------------------------------------------------------
# linear-maximization oracle: coordinate ascent on Gram rows
# ---------------------------------------------------------------------------

def default_rank_budget(n) -> int:
    return min(int(n), int(np.ceil(np.sqrt(2.0 * n))) + 1)


@dataclass
class OracleConfig:
    """Knobs for the coordinate-ascent oracle.

    rank is the Gram-factor width for random restarts (default roughly
    sqrt(2n) + 1, enough for an optimal solution to exist at that rank).
    Restart k draws its starting rows from a generator seeded seed + k.
    The restarts advance together as one batch, but each stops on its own
    sweep_tol test, so every run ends as it would alone, up to rounding.
    """

    rank: int | None = None
    sweep_tol: float = 1e-13
    max_sweeps: int = 5000
    restarts: int = 5
    seed: int = 0
    grad_tol: float = 1e-14  # rows with gradient below this stay frozen

    def __post_init__(self):
        if self.rank is not None and self.rank < 1:
            raise ValueError("rank budget must be at least 1")
        if self.restarts < 0:
            raise ValueError("restarts must be nonnegative")


@dataclass
class OracleResult:
    matrix: np.ndarray
    gram: np.ndarray
    objective: float
    stationarity_residual: float
    restart_objectives: list
    best_index: int  # 0 is the warm start when one was supplied
    sweeps: int
    sweep_objectives: list  # objective after each sweep of the winning run
    candidate_grams: list = field(default_factory=list)  # every run's factor
    status: str = "step_tol"  # how the winning run stopped: step_tol | max_sweeps


def _row_norms(a):
    """Euclidean norms along the last axis. matmul takes each one with the
    BLAS dot that np.linalg.norm uses on a single row, so the rounding of a
    norm does not depend on how many runs share the batch."""
    return np.sqrt(np.matmul(a[..., None, :], a[..., :, None])[..., 0, 0])


def _ascend(c, c_off, v0, cfg):
    """Cyclic row updates v_i <- g_i / |g_i| with g_i = sum_{j != i} c_ij v_j,
    for a batch of same-width starts advanced together.

    v0 has shape (n, R, r): run k starts from the factor v0[:, k]. Each
    update maximizes the row's linear subproblem exactly, so every run's
    objective c . V V^T never decreases from sweep to sweep. A run stops
    once its largest row move in a sweep falls below sweep_tol; it is then
    frozen and dropped from the batch, so batching changes no run beyond
    rounding. Returns one (factor, sweeps, objectives, status) tuple
    per run, status being "step_tol" or "max_sweeps".
    """
    n, runs, r = v0.shape
    final = np.empty_like(v0)
    objs = [[] for _ in range(runs)]  # one entry per sweep a run took
    status = ["max_sweeps"] * runs
    active = np.arange(runs)
    v = v0.copy()
    for _ in range(cfg.max_sweeps):
        start = v.copy()
        flat = v.reshape(n, -1)
        for i in range(n):
            g = (c_off[i] @ flat).reshape(-1, r)
            ng = _row_norms(g)[:, None]
            np.divide(g, ng, out=v[i], where=ng >= cfg.grad_tol)
        # every row moves once per sweep, so the largest row step equals
        # the largest single update of the sweep
        step = _row_norms(v - start).max(axis=0)
        # each run's objective summed over its own contiguous (n, r) block
        obj = ((c @ flat).reshape(v.shape) * v).transpose(1, 0, 2).reshape(
            len(active), -1).sum(axis=1)
        for k, o in zip(active, obj):
            objs[k].append(float(o))
        done = step < cfg.sweep_tol
        if done.any():
            final[:, active[done]] = v[:, done]
            for k in active[done]:
                status[k] = "step_tol"
            # a copy, so that the rows stay contiguous and flat stays a view
            active, v = active[~done], v[:, ~done].copy()
            if not active.size:
                break
    final[:, active] = v
    final = np.ascontiguousarray(final.transpose(1, 0, 2))
    return [(final[k], len(objs[k]), objs[k], status[k]) for k in range(runs)]


def _stationarity(c_off, v) -> float:
    """max_i of the gradient component orthogonal to its own row."""
    g = c_off @ v
    proj = np.sum(g * v, axis=1)
    resid = g - proj[:, None] * v
    return float(np.max(np.linalg.norm(resid, axis=1)))


def elliptope_oracle(c, config: OracleConfig | None = None,
                     warm_start=None) -> OracleResult:
    """Approximately maximize C . X over unit-diagonal PSD matrices.

    Runs coordinate ascent on Gram rows from the warm start (when given)
    and from ``restarts`` seeded random factors, and keeps the run with the
    best objective, ties to the lowest candidate index. The stationarity
    residual at the winner measures how far the output is from satisfying
    the eigenmatrix condition exactly; it is reported, never hidden.
    """
    cfg = config or OracleConfig()
    c = check_symmetric(c, name="cost matrix")
    n = c.shape[0]
    if n == 0:
        raise ElliptopeError("cost matrix is empty")
    r = cfg.rank or default_rank_budget(n)
    c_off = c.copy()
    np.fill_diagonal(c_off, 0.0)

    batches = []
    if warm_start is not None:
        w = np.asarray(warm_start, dtype=float)
        if w.ndim != 2 or w.shape[0] != n:
            raise ElliptopeError("warm start must have one row per index")
        batches.append((w / np.linalg.norm(w, axis=1)[:, None])[:, None, :])
    if cfg.restarts:
        batches.append(np.stack(
            [random_gram(n, r, np.random.default_rng(cfg.seed + k))
             for k in range(cfg.restarts)], axis=1))
    if not batches:
        raise ElliptopeError("restarts=0 requires a warm start")
    results = [run for b in batches for run in _ascend(c, c_off, b, cfg)]

    objectives = [objs[-1] if objs else float(np.sum((c @ v) * v))
                  for v, _, objs, _ in results]
    # objective gaps below numerical resolution count as ties, and ties go
    # to the lowest candidate index; otherwise float noise could bounce the
    # output across a face of equally good maximizers
    max_obj = max(objectives)
    tie_tol = 1e-12 * max(1.0, abs(max_obj))
    best = next(i for i, o in enumerate(objectives) if o >= max_obj - tie_tol)
    v, sweeps, objs, status = results[best]
    x = gram_to_matrix(v, row_tol=1e-9)
    obj = float(np.vdot(c, x))
    # Polish: when the optimal face is a vertex the ascent creeps toward it
    # sublinearly; the exactly rounded vertex is feasible, satisfies the
    # stationarity conditions exactly, and replaces the output whenever it
    # scores strictly better.
    s = np.where(np.linalg.eigh(x)[1][:, -1] >= 0.0, 1.0, -1.0)
    vertex = np.outer(s, s)
    vertex_obj = float(np.vdot(c, vertex))
    if vertex_obj > obj + tie_tol:
        x, obj = vertex, vertex_obj
        v = s[:, None].copy()
        objs = objs + [vertex_obj]
    return OracleResult(
        matrix=x,
        gram=v,
        objective=obj,
        stationarity_residual=_stationarity(c_off, v),
        restart_objectives=[float(o) for o in objectives],
        best_index=best,
        sweeps=sweeps,
        sweep_objectives=[float(o) for o in objs],
        candidate_grams=[r[0] for r in results],
        status=status,
    )


class ElliptopeDomain(ConvexDomain):
    """The unit-diagonal PSD body of order n, driven by the ascent oracle.

    ``maximize`` warm-starts the ascent at the query point's own Gram
    factor, which guarantees the output scores at least as well as the
    input against the query functional; that is exactly the inequality the
    iteration engine's monotonicity rests on.
    """

    def __init__(self, n, config: OracleConfig | None = None):
        self.n = int(n)
        if self.n < 1:
            raise ElliptopeError("dimension must be at least 1")
        self.config = config or OracleConfig()
        self.dim = self.n * self.n

    def maximize(self, x):
        x = check_symmetric(x)
        try:
            warm = gram_factor(x)
        except ElliptopeError:
            # a zero functional (or a zero row) constrains nothing; fall back
            # to seeded random starts, where frozen rows keep their init
            warm = None
        res = elliptope_oracle(x, self.config, warm_start=warm)
        return res.matrix

    def contains(self, x, tol=PSD_TOL):
        return is_in_elliptope(x, diag_tol=1e-8, psd_tol=tol)

    def sample(self, rng):
        r = self.config.rank or default_rank_budget(self.n)
        return gram_to_matrix(random_gram(self.n, r, rng))

    def sample_near(self, x, eps, rng, max_tries=60):
        """Perturb the Gram rows and renormalize, shrinking the perturbation
        until the result lands strictly inside the eps ball. Stays feasible
        by construction, unlike entrywise rejection sampling."""
        v = gram_factor(check_symmetric(x))
        g = rng.standard_normal(v.shape)
        scale = eps / (2.0 * np.sqrt(v.shape[0]))
        for _ in range(max_tries):
            w = v + scale * g
            w = w / np.linalg.norm(w, axis=1)[:, None]
            y = gram_to_matrix(w, row_tol=1e-9)
            dist = float(np.linalg.norm(y - x))
            if 0.0 < dist < eps:
                return y
            scale *= 0.5
        raise ElliptopeError("could not sample a nearby feasible matrix")


# ---------------------------------------------------------------------------
# fixed-point certificate and structure
# ---------------------------------------------------------------------------

@dataclass
class DiagonalCertificate:
    """Diagonal d with d_i the i-th row sum of squares, and the Frobenius
    defect of X^2 against diag(d) X. The defect vanishes exactly at the
    fixed points of the linear-maximization map."""

    d: np.ndarray
    residual: float
    is_fixed: bool
    tol: float


def fixed_point_certificate(m, tol=CERT_TOL) -> DiagonalCertificate:
    """Algebraic fixed-point test: X^2 = DX with D_ii the row sum of squares.

    The diagonal is forced: if X^2 = DX holds for any diagonal D then its
    entries must be the row sums of squares, so checking this single D
    decides the matter. The verdict allows tol * n of Frobenius defect.
    """
    a = check_symmetric(m)
    d = np.sum(a * a, axis=1)
    residual = float(np.linalg.norm(a @ a - d[:, None] * a))
    return DiagonalCertificate(d, residual, residual <= tol * a.shape[0], tol)


def irreducible_components(m, zero_tol=ZERO_TOL) -> list:
    """Connected components of the nonzero-pattern graph, diagonal ignored.

    Each component indexes an irreducible principal block; a fixed point
    restricted to any of its blocks is again a fixed point of the smaller
    body.
    """
    a = check_symmetric(m)
    n = a.shape[0]
    adj = np.abs(a) > zero_tol
    np.fill_diagonal(adj, False)
    seen = np.zeros(n, dtype=bool)
    comps = []
    for s in range(n):
        if seen[s]:
            continue
        stack = [s]
        seen[s] = True
        comp = []
        while stack:
            i = stack.pop()
            comp.append(i)
            for j in np.nonzero(adj[i])[0]:
                if not seen[j]:
                    seen[j] = True
                    stack.append(int(j))
        comps.append(sorted(comp))
    return comps


def gamma_of_irreducible(m, tol=CERT_TOL) -> float:
    """Common diagonal value of an irreducible fixed point.

    For an irreducible fixed point the certificate diagonal is constant,
    at least 1, and equals n / rank. A non-constant diagonal means the
    input was reducible or not fixed, and is rejected.
    """
    a = check_symmetric(m)
    cert = fixed_point_certificate(a, tol)
    if not cert.is_fixed:
        raise ElliptopeError("not a fixed point within tolerance")
    d = cert.d
    if float(np.max(np.abs(d - d[0]))) > tol * a.shape[0]:
        raise ElliptopeError(
            "certificate diagonal is not constant (reducible or not fixed)")
    gamma = float(d[0])
    if gamma < 1.0 - tol:
        raise ElliptopeError(f"diagonal value {gamma} below 1")
    s = matrix_rank_psd(a)
    if abs(gamma * s - a.shape[0]) > 1e-6 * a.shape[0]:
        raise ElliptopeError("gamma times rank does not match the dimension")
    return gamma


def normal_cone_membership(x, y, tol=1e-8) -> bool:
    """Whether y lies in the normal cone at x.

    Membership means y = D - M with D diagonal, M positive semidefinite
    and M X = 0. D is forced to diag(Y X), so the test reduces to checking
    the recovered M.
    """
    a = validate_elliptope(x, diag_tol=1e-8)
    b = check_symmetric(y)
    d = np.diag(b @ a).copy()
    m = np.diag(d) - b
    if float(np.linalg.norm(m @ a)) > tol:
        return False
    return bool(np.linalg.eigvalsh(m)[0] >= -tol)


def is_vertex(m, tol=1e-6) -> bool:
    """Rank-one sign matrix test: all entries at +-1 and a rank of one."""
    a = check_symmetric(m)
    if float(np.max(np.abs(np.abs(a) - 1.0))) > tol:
        return False
    if a.shape[0] == 1:
        return True
    w = np.linalg.eigvalsh(a)
    return bool(w[-2] <= tol)


def vertex_signs(m) -> np.ndarray:
    """Sign vector of a vertex, read off row 0 (rows agree up to global
    sign, so the choice of row is immaterial)."""
    a = np.asarray(m, dtype=float)
    return np.where(a[0] >= 0.0, 1, -1).astype(int)


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

@dataclass
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

@dataclass
class FixedPointReport:
    is_fixed: bool
    d: np.ndarray
    residual: float
    rank: int
    components: list
    gammas: list  # per component; None when the block diagonal is not constant
    label: str  # attractive | not_attractive | not_fixed


def analyze_fixed_point(m, tol=CERT_TOL, zero_tol=ZERO_TOL) -> FixedPointReport:
    """Certificate, rank, block structure and the attractiveness verdict.

    Vertices are the attractive fixed points; every other fixed point
    admits arbitrarily close feasible matrices of strictly larger norm and
    is labeled not_attractive.
    """
    a = check_symmetric(m)
    cert = fixed_point_certificate(a, tol)
    comps = irreducible_components(a, zero_tol)
    gammas = []
    for comp in comps:
        block_d = cert.d[comp]
        if float(np.max(np.abs(block_d - block_d[0]))) <= tol * len(comp):
            gammas.append(float(block_d[0]))
        else:
            gammas.append(None)
    if not cert.is_fixed:
        label = "not_fixed"
    elif is_vertex(a):
        label = "attractive"
    else:
        label = "not_attractive"
    return FixedPointReport(cert.is_fixed, cert.d, cert.residual,
                            matrix_rank_psd(a), comps, gammas, label)


def read_matrix_text(path) -> np.ndarray:
    """Parse the matrix text format: first line n, then n rows.

    Rejects ragged rows and asymmetry beyond 1e-12.
    """
    with open(path) as fh:
        lines = [ln.split("#", 1)[0].strip() for ln in fh]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ElliptopeError(f"{path}: empty matrix file")
    try:
        n = int(lines[0])
    except ValueError:
        raise ElliptopeError(f"{path}: first line must be the dimension")
    if len(lines) != n + 1:
        raise ElliptopeError(f"{path}: expected {n} rows, found {len(lines) - 1}")
    rows = []
    for k, ln in enumerate(lines[1:], 1):
        vals = [float(tok) for tok in ln.split()]
        if len(vals) != n:
            raise ElliptopeError(f"{path}: row {k} has {len(vals)} entries, expected {n}")
        rows.append(vals)
    return check_symmetric(np.array(rows), SYM_TOL, name=f"{path}")


def write_matrix_text(m, path):
    a = np.asarray(m, dtype=float)
    lines = [str(a.shape[0])]
    for row in a:
        lines.append(" ".join(f"{v:.17g}" for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
