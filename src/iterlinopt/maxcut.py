"""Two-way max-cut: SDP relaxation over unit-diagonal PSD matrices and
deterministic rounding by norm-increasing iteration.

The relaxation maximizes -W . X over the feasible body, where W is the
symmetric weight matrix; rounding repeatedly takes an ascent step of the
linear-maximization map, each step of which is itself a relaxation of the
closest-vertex problem, until a vertex (a rank-one sign matrix encoding a
partition) is reached. Runs that settle on a non-vertex fixed point take an
explicit norm-increasing escape step and resume; if escapes run out, random
hyperplane rounding is used as a flagged fallback.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .classify import escape_curve
from .domains import read_lines
from .elliptope import (
    DIAG_TOL,
    GRAD_TOL,
    ROW_TOL,
    ElliptopeError,
    OracleConfig,
    OracleResult,
    _polish,
    _row_norms,
    _tie_tol,
    elliptope_oracle,
    fixed_point_certificate,
    gram_factor,
    gram_to_matrix,
    is_vertex,
    validate_elliptope,
    vertex_signs,
)

BRUTE_FORCE_CAP = 22
GRAPH_CAP = 2048  # one dense float64 n x n array at this size is 32 MB
FALLBACK_SAMPLES = 64  # hyperplanes tried when rounding falls back
MAX_ROUNDS = 500  # map applications and escapes before rounding falls back
# Power products per rounding step. Each product is an ascent step from
# X's own factor, which is all the norm-increasing argument needs. Every
# budget from 14 to 26 gave the cuts of rounding by 10-sweep ascent-oracle
# steps on the benchmark's instances (seeds 1-10) and K4-K40; 10-13 lose
# K27 (182 -> 180), 8 and 27-40 lose K36 (323 -> 320). 20 is the middle of
# that window.
ROUND_STEPS = 20
# The relaxation stops once its duality gap is proven below GAP_TOL times
# max(1, |objective|), and relaxation candidates within that of the best
# objective tie. At 1e-7 the winning runs of the benchmark's instances
# (seeds 1-10) and K4-K40 take 28% of the sweeps of the step stop, and
# those graphs and 300 more keep every cut of the step stop.
GAP_TOL = 1e-7
# Tied relaxation candidates farther apart than this (largest entry
# difference) are distinct rounding starts. Stopped at GAP_TOL, copies of
# one optimum were at most 7.75e-5 apart and distinct optima at least
# 0.131, over the 6,705 pairs among the output and the tied candidates of
# 447 graphs (the benchmark's instances at seeds 1-30, G(40, 0.3),
# G(30, 0.5), +-1 8x8 tori and K4-K60).
START_DIST = 1e-3
# A non-vertex fixed point is left along escape_curve at this alpha, at
# most ESCAPE_RETRIES times per chain. No caller has used other values.
ESCAPE_ALPHA = 0.25
ESCAPE_RETRIES = 5


class GraphFormatError(ValueError):
    """Malformed graph file."""


@dataclass
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, edges as (u, v, w)
    triples with u < v and no duplicates."""

    n: int
    edges: list

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if not np.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight")
            seen.add((u, v))

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        if self.edges:
            u, v, wt = zip(*self.edges)
            u, v = np.array(u, dtype=np.intp), np.array(v, dtype=np.intp)
            wt = np.array(wt, dtype=float)
            # edges are unique, so each entry is 0 + wt, as in a += loop
            np.add.at(w, (u, v), wt)
            np.add.at(w, (v, u), wt)
        return w

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def load_graph(path) -> WeightedGraph:
    """Parse edge-list lines "u v w" (0-indexed, '#' comments, weight
    defaults to 1.0). Duplicate edges are summed with a warning; self-loops,
    negative indices and non-finite weights are rejected with the offending
    line number, and a file without edges or not in UTF-8 is rejected."""
    edges = {}
    nmax = -1
    for ln, raw in enumerate(read_lines(path, GraphFormatError), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise GraphFormatError(f"{path}:{ln}: expected 'u v [w]'")
        try:
            u = int(parts[0])
            v = int(parts[1])
            w = float(parts[2]) if len(parts) == 3 else 1.0
        except ValueError:
            raise GraphFormatError(f"{path}:{ln}: could not parse 'u v [w]'")
        if u < 0 or v < 0:
            raise GraphFormatError(f"{path}:{ln}: negative vertex index")
        if u == v:
            raise GraphFormatError(f"{path}:{ln}: self-loop rejected")
        if u > v:
            u, v = v, u
        if (u, v) in edges:
            warnings.warn(f"{path}:{ln}: duplicate edge ({u}, {v}) summed",
                          stacklevel=2)
            w += edges[(u, v)]
        if not np.isfinite(w):
            raise GraphFormatError(f"{path}:{ln}: edge weight is not finite")
        edges[(u, v)] = w
        nmax = max(nmax, v)
    if not edges:
        raise GraphFormatError(f"{path}: no edges")
    return WeightedGraph(nmax + 1, [(u, v, w) for (u, v), w in sorted(edges.items())])


def relaxation_cost(g: WeightedGraph) -> np.ndarray:
    """Cost matrix C = -W; maximizing C . X maximizes the relaxed cut."""
    return -g.weight_matrix()


def relaxed_cut_value(g: WeightedGraph, x) -> float:
    """(sum over ordered pairs of W - W . X) / 4; equals the cut weight when
    x is the rank-one sign matrix of a partition."""
    w = g.weight_matrix()
    return float((np.sum(w) - np.vdot(w, x)) / 4.0)


def cut_value(g: WeightedGraph, signs) -> float:
    """Total weight of edges crossing the partition."""
    s = np.asarray(signs)
    if s.size != g.n:
        raise ValueError(f"sign vector length {s.size} does not match n={g.n}")
    return float(sum(w for u, v, w in g.edges if s[u] != s[v]))


def _signs(bits, count):
    """The 2^bits sign vectors of a counter, row i flipping entry k when bit
    k of i is set, each padded on the left by ``count - bits`` entries +1."""
    s = np.ones((1 << bits, count))
    s[:, count - bits:] = 1.0 - 2.0 * ((np.arange(1 << bits)[:, None]
                                        >> np.arange(bits)) & 1)
    return s


def _quad_rows(s, w_upper):
    """s_k^T W_upper s_k for every row s_k of s: the sum of w_uv s_u s_v
    over the edges, so that the cut of s_k is (total weight - this) / 2."""
    return np.sum((s @ w_upper) * s, axis=1)


def brute_force_maxcut(g: WeightedGraph):
    """Exhaustive optimum over all sign vectors with s_0 = +1 (desk-scale
    oracle). Ties go to the earliest vector in enumeration order, bit k of
    the counter flipping vertex k+1."""
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force is capped at n = {BRUTE_FORCE_CAP}")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    # Block A holds vertex 0 and the low half of the counter's bits, block
    # B the high half. W_upper has no BA block, so for the vector with high
    # bits j and low bits i, s^T W_upper s = q_A[i] + q_B[j]
    # + s_B[j]^T W_AB^T s_A[i]: with q_B and a ones column appended to s_B,
    # and a ones row and q_A appended to W_AB^T s_A^T, the whole
    # 2^|B| x 2^|A| table is one product. Its row-major flattening is
    # counter order, so argmin, the largest cut, keeps the first of ties.
    low = g.n // 2
    a = low + 1
    w_upper = np.triu(g.weight_matrix())
    s_a = _signs(low, a)
    s_b = _signs(g.n - a, g.n - a)
    left = np.column_stack((s_b, _quad_rows(s_b, w_upper[a:, a:]),
                            np.ones(len(s_b))))
    right = np.vstack((w_upper[:a, a:].T @ s_a.T, np.ones(len(s_a)),
                       _quad_rows(s_a, w_upper[:a, :a])))
    j, i = divmod(int(np.argmin(left @ right)), 1 << low)
    signs = np.concatenate((s_a[i], s_b[j])).astype(int)
    return signs, cut_value(g, signs)


def gw_hyperplane_round(v, g: WeightedGraph, samples=64, seed=0):
    """Random-hyperplane rounding of a Gram factor: sign of each row against
    a random direction, zero dot products broken to +1. Returns the best of
    ``samples`` draws (first winner on ties), with its cut summed over the
    edges by ``cut_value``."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    v = np.asarray(v, dtype=float)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((int(samples), v.shape[1]))
    all_signs = np.where(v @ dirs.T >= 0.0, 1, -1).T  # one row per sample
    quad = _quad_rows(all_signs.astype(float), np.triu(g.weight_matrix()))
    best = all_signs[int(np.argmax(0.5 * (g.total_weight - quad)))].astype(int)
    return best, cut_value(g, best)


def solve_relaxation(g: WeightedGraph, config: OracleConfig | None = None) -> OracleResult:
    """Maximize the relaxed cut over the unit-diagonal PSD body, stopping
    each run once its duality gap is proven below GAP_TOL (the config's
    own gap_tol is replaced); the result carries the proven upper bound."""
    if g.n < 1:
        raise ValueError("graph has no vertices")
    return elliptope_oracle(relaxation_cost(g),
                            replace(config or OracleConfig(), gap_tol=GAP_TOL))


@dataclass
class RoundingReport:
    """Everything a rounding run produced, optional fields filled when the
    corresponding extra computation was requested."""

    n: int
    iterations: int
    escapes: int
    terminal_status: str  # vertex | nonvertex_fixed_point | max_rounds
    partition_source: str  # vertex_row | hyperplane_fallback
    partition: np.ndarray
    norms_sq: list
    relaxation_objective: float | None = None
    relaxed_cut: float | None = None
    relative_gap: float | None = None  # (UB - objective) / max(1, |objective|)
    restart_spread: float | None = None
    cut_value: float | None = None
    baseline_cut: float | None = None
    brute_force_cut: float | None = None
    rounding_starts: int = 1  # tied relaxation candidates tried by the pipeline


def _power_product(v, w):
    """One generalized power step W <- rownorm(V (V^T W)), in place.

    f(W) = |V^T W|_F^2 = <V V^T, W W^T> is convex in W, so the maximizer
    of its linearization at W over unit rows, the row-normalized gradient
    X W, scores at least f(W). A row whose product has norm below
    GRAD_TOL stays as it is."""
    g = v @ (v.T @ w)
    ng = _row_norms(g)[:, None]
    np.divide(g, ng, out=w, where=ng >= GRAD_TOL)


def _power_step(x, v):
    """One rounding step from X = V V^T: ROUND_STEPS power products from V,
    then the rounded-vertex polish. Returns (W, W W^T), with
    <X, W W^T> >= <X, X>."""
    w = v.copy()
    for _ in range(ROUND_STEPS):
        _power_product(v, w)
    y = gram_to_matrix(w, row_tol=ROW_TOL)
    obj = float(np.vdot(x, y))
    # the vertex polish of elliptope_oracle: s^T X s = |V^T s|^2
    return _polish(x, w, y, obj, _tie_tol(obj))[:2]


def round_by_iteration(x0, seed=0, graph: WeightedGraph | None = None,
                       gram=None) -> RoundingReport:
    """Round a feasible matrix to a partition by iterating the map.

    Applies an ascent step of the linear-maximization map until a vertex
    appears (the partition is then read off its first row). The step
    carries X's unit-row factor V: ``_power_step`` maps X = V V^T to
    Y = W W^T with <X, Y> >= <X, X>, so |Y - X|^2 <= |Y|^2 - |X|^2, and it
    leaves X where it is exactly when X^2 = DX, so the vertices stay exact
    fixed points. gram, when given, is X's unit-row factor, which the first
    step then takes as V instead of factoring X: the power steps map V Q
    to W Q, so a factor of any width rounds X alike, and a narrow one (the
    relaxation's, say) makes each step cheaper. It must have one row per
    index and reproduce x0 within ROW_TOL. A non-vertex fixed point
    triggers a norm-increasing escape step and the run resumes, up to
    ESCAPE_RETRIES times; after that, or if MAX_ROUNDS pass without a
    vertex, hyperplane rounding of the current Gram factor, seeded with
    seed, supplies the partition and the provenance is flagged. graph, when
    given, must have x0's order; the report then carries the cut. The
    squared norm never decreases across accepted iterates.
    """
    x = validate_elliptope(np.asarray(x0, dtype=float), diag_tol=DIAG_TOL)
    if graph is not None and graph.n != x.shape[0]:
        raise ValueError(f"graph has {graph.n} vertices, x0 {x.shape[0]} rows")
    v = None  # X's unit-row factor, taken when a step first needs it
    if gram is not None:
        v = np.asarray(gram, dtype=float)
        if v.ndim != 2 or v.shape[0] != x.shape[0]:
            raise ElliptopeError(
                f"gram must have {x.shape[0]} rows, got shape {v.shape}")
        if not float(np.max(np.abs(v @ v.T - x))) <= ROW_TOL:  # NaN fails
            raise ElliptopeError(f"gram does not reproduce x0 within {ROW_TOL}")
        v = v / _row_norms(v)[:, None]
    norms = [float(np.vdot(x, x))]
    escapes = 0
    iterations = 0
    status = "max_rounds"
    partition = None
    source = None
    for _ in range(MAX_ROUNDS):
        if is_vertex(x):
            signs = vertex_signs(x)
            x = np.outer(signs, signs).astype(float)
            partition = signs
            status = "vertex"
            source = "vertex_row"
            break
        cert = fixed_point_certificate(x)
        if cert.is_fixed:
            if escapes < ESCAPE_RETRIES:
                x = escape_curve(x, ESCAPE_ALPHA)
                v = None
                escapes += 1
                norms.append(float(np.vdot(x, x)))
                continue
            status = "nonvertex_fixed_point"
            break
        if v is None:
            v = gram_factor(x)
        v, x = _power_step(x, v)
        iterations += 1
        norms.append(float(np.vdot(x, x)))
    if partition is None:
        v = gram_factor(x)
        if graph is not None:
            partition, _ = gw_hyperplane_round(v, graph, FALLBACK_SAMPLES, seed)
        else:
            partition = np.where(v[:, 0] >= 0.0, 1, -1).astype(int)
        source = "hyperplane_fallback"
        warnings.warn("rounding did not reach a vertex; hyperplane fallback used",
                      stacklevel=2)
    report = RoundingReport(
        n=x.shape[0],
        iterations=iterations,
        escapes=escapes,
        terminal_status=status,
        partition_source=source,
        partition=partition,
        norms_sq=norms,
    )
    if graph is not None:
        report.cut_value = cut_value(graph, partition)
    return report


def maxcut_pipeline(g: WeightedGraph, config: OracleConfig | None = None,
                    baseline_samples=0, brute_force=False) -> RoundingReport:
    """Full chain: relaxation, iterated rounding, optional baselines.

    The relaxation optimum is not always unique (complete graphs are the
    standard example: every centered configuration ties), and which element
    of the optimal face the solver lands on decides which vertex the
    rounding iteration reaches. The pipeline therefore rounds from every
    relaxation candidate that ties the best objective and keeps the best
    cut; each chain individually is the plain iterated rounding, started
    from the candidate's own relaxation factor (the ``gram`` of
    ``round_by_iteration``), and the number of starts tried is recorded in
    the report. Candidates tie within the relaxation's own gap tolerance
    GAP_TOL, and count as one start when they lie within START_DIST of each
    other. The relaxed cut is the certified bound: (sum over ordered pairs
    of W + UB) / 4, at least the maximum cut by weak duality.
    """
    cfg = config or OracleConfig()
    res = solve_relaxation(g, cfg)
    starts = [(res.matrix, res.gram)]  # each with its unit-row factor
    tie_tol = GAP_TOL * max(1.0, abs(res.objective))
    for obj, gram in zip(res.restart_objectives, res.candidate_grams):
        if obj >= res.objective - tie_tol:
            x = gram_to_matrix(gram, row_tol=ROW_TOL)
            if all(float(np.max(np.abs(x - s))) > START_DIST for s, _ in starts):
                starts.append((x, gram))
    report = None
    for x0, gram in starts:
        cand = round_by_iteration(x0, cfg.seed, graph=g, gram=gram)
        if report is None or cand.cut_value > report.cut_value:
            report = cand
    report.rounding_starts = len(starts)
    report.relaxation_objective = res.objective
    report.relaxed_cut = float((np.sum(g.weight_matrix())
                                + res.upper_bound) / 4.0)
    report.relative_gap = ((res.upper_bound - res.objective)
                           / max(1.0, abs(res.objective)))
    report.restart_spread = float(max(res.restart_objectives)
                                  - min(res.restart_objectives))
    if baseline_samples:
        _, baseline = gw_hyperplane_round(res.gram, g, baseline_samples, cfg.seed)
        report.baseline_cut = baseline
    if brute_force:
        _, optimum = brute_force_maxcut(g)
        report.brute_force_cut = optimum
    return report
