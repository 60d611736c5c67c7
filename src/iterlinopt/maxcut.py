"""Two-way max-cut: SDP relaxation over unit-diagonal PSD matrices and
deterministic rounding by norm-increasing iteration.

The relaxation maximizes -W . X over the feasible body, where W is the
symmetric weight matrix; rounding repeatedly applies the linear-maximization
map, each step of which is itself a relaxation of the closest-vertex
problem, until a vertex (a rank-one sign matrix encoding a partition) is
reached. Runs that settle on a non-vertex fixed point take an explicit
norm-increasing escape step and resume; if escapes run out, random
hyperplane rounding is used as a flagged fallback.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .classify import escape_curve
from .elliptope import (
    OracleConfig,
    OracleResult,
    elliptope_oracle,
    fixed_point_certificate,
    gram_factor,
    gram_to_matrix,
    is_vertex,
    validate_elliptope,
    vertex_signs,
)

BRUTE_FORCE_CAP = 22


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
        for u, v, wt in self.edges:
            w[u, v] += wt
            w[v, u] += wt
        return w

    @property
    def total_weight(self) -> float:
        return float(sum(w for _, _, w in self.edges))


def load_graph(path) -> WeightedGraph:
    """Parse edge-list lines "u v w" (0-indexed, '#' comments, weight
    defaults to 1.0). Duplicate edges are summed with a warning; self-loops
    and negative indices are rejected with the offending line number."""
    edges = {}
    nmax = -1
    with open(path) as fh:
        for ln, raw in enumerate(fh, 1):
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
                edges[(u, v)] += w
            else:
                edges[(u, v)] = w
            nmax = max(nmax, v)
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


def brute_force_maxcut(g: WeightedGraph):
    """Exhaustive optimum over all sign vectors with s_0 = +1 (desk-scale
    oracle). Ties go to the earliest vector in enumeration order, bit k of
    the counter flipping vertex k+1."""
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force is capped at n = {BRUTE_FORCE_CAP}")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    # the 2^low counters of one chunk share their high bits: the sign block
    # of the low bits is built once, and each chunk sets only the columns
    # of its high bits
    low = min(16, g.n - 1)
    w_upper = np.zeros((g.n, g.n))
    for u, v, wt in g.edges:
        w_upper[u, v] = wt
    bits = np.arange(1 << low)[:, None] >> np.arange(low)
    signs = np.ones((1 << low, g.n))
    signs[:, 1:low + 1] = 1.0 - 2.0 * (bits & 1)
    best_val = -np.inf
    best_signs = None
    for high in range(1 << (g.n - 1 - low)):
        signs[:, low + 1:] = 1.0 - 2.0 * ((high >> np.arange(g.n - 1 - low)) & 1)
        # s^T W_upper s is the sum of w_uv s_u s_v over the edges
        cuts = 0.5 * (g.total_weight - np.sum((signs @ w_upper) * signs, axis=1))
        k = int(np.argmax(cuts))
        if cuts[k] > best_val:
            best_val = float(cuts[k])
            best_signs = signs[k].astype(int)
    return best_signs, best_val


def gw_hyperplane_round(v, g: WeightedGraph, samples=64, seed=0):
    """Random-hyperplane rounding of a Gram factor: sign of each row against
    a random direction, zero dot products broken to +1. Returns the best of
    ``samples`` draws (first winner on ties)."""
    v = np.asarray(v, dtype=float)
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((int(samples), v.shape[1]))
    prods = v @ dirs.T
    all_signs = np.where(prods >= 0.0, 1, -1)
    best_val = -np.inf
    best_signs = None
    for k in range(all_signs.shape[1]):
        val = cut_value(g, all_signs[:, k])
        if val > best_val:
            best_val = val
            best_signs = all_signs[:, k].astype(int)
    return best_signs, float(best_val)


def solve_relaxation(g: WeightedGraph, config: OracleConfig | None = None) -> OracleResult:
    """Maximize the relaxed cut over the unit-diagonal PSD body."""
    if g.n < 1:
        raise ValueError("graph has no vertices")
    return elliptope_oracle(relaxation_cost(g), config)


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
    oracle_residual: float | None = None
    restart_spread: float | None = None
    cut_value: float | None = None
    baseline_cut: float | None = None
    brute_force_cut: float | None = None
    rounding_starts: int = 1  # tied relaxation candidates tried by the pipeline


def round_by_iteration(x0, config: OracleConfig | None = None,
                       graph: WeightedGraph | None = None,
                       escape_alpha=0.25, escape_retries=5, max_rounds=500,
                       vertex_tol=1e-6, gw_samples=64, gw_seed=0) -> RoundingReport:
    """Round a feasible matrix to a partition by iterating the map.

    Applies the linear-maximization map until a vertex appears (the
    partition is then read off its first row). A non-vertex fixed point
    triggers a norm-increasing escape step and the run resumes, up to
    escape_retries times; after that, or if max_rounds passes without a
    vertex, hyperplane rounding of the current Gram factor supplies the
    partition and the provenance is flagged. The squared norm never
    decreases across accepted iterates.
    """
    cfg = config or OracleConfig()
    x = validate_elliptope(np.asarray(x0, dtype=float), diag_tol=1e-8)
    norms = [float(np.vdot(x, x))]
    escapes = 0
    iterations = 0
    status = "max_rounds"
    partition = None
    source = None
    for _ in range(max_rounds):
        if is_vertex(x, vertex_tol):
            signs = vertex_signs(x)
            x = np.outer(signs, signs).astype(float)
            partition = signs
            status = "vertex"
            source = "vertex_row"
            break
        cert = fixed_point_certificate(x)
        if cert.is_fixed:
            if escapes < escape_retries:
                x = escape_curve(x, escape_alpha)
                escapes += 1
                norms.append(float(np.vdot(x, x)))
                continue
            status = "nonvertex_fixed_point"
            break
        res = elliptope_oracle(x, cfg, warm_start=gram_factor(x))
        x = res.matrix
        iterations += 1
        norms.append(float(np.vdot(x, x)))
    if partition is None:
        v = gram_factor(x)
        if graph is not None:
            partition, _ = gw_hyperplane_round(v, graph, gw_samples, gw_seed)
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
                    baseline_samples=0, brute_force=False,
                    escape_alpha=0.25, escape_retries=5,
                    max_rounds=500) -> RoundingReport:
    """Full chain: relaxation, iterated rounding, optional baselines.

    The relaxation optimum is not always unique (complete graphs are the
    standard example: every centered configuration ties), and which element
    of the optimal face the solver lands on decides which vertex the
    rounding iteration reaches. The pipeline therefore rounds from every
    relaxation candidate that ties the best objective and keeps the best
    cut; each chain individually is the plain iterated rounding, and the
    number of starts tried is recorded in the report.
    """
    cfg = config or OracleConfig()
    res = solve_relaxation(g, cfg)
    starts = [res.matrix]
    tie_tol = 1e-9 * max(1.0, abs(res.objective))
    for obj, gram in zip(res.restart_objectives, res.candidate_grams):
        if obj >= res.objective - tie_tol:
            x = gram_to_matrix(gram, row_tol=1e-9)
            if all(float(np.max(np.abs(x - s))) > 1e-12 for s in starts):
                starts.append(x)
    report = None
    for k, x0 in enumerate(starts):
        cand = round_by_iteration(x0, cfg, graph=g,
                                  escape_alpha=escape_alpha,
                                  escape_retries=escape_retries,
                                  max_rounds=max_rounds,
                                  gw_seed=cfg.seed)
        if report is None or cand.cut_value > report.cut_value:
            report = cand
    report.rounding_starts = len(starts)
    report.relaxation_objective = res.objective
    report.relaxed_cut = relaxed_cut_value(g, res.matrix)
    report.oracle_residual = res.stationarity_residual
    report.restart_spread = float(max(res.restart_objectives)
                                  - min(res.restart_objectives))
    if baseline_samples:
        _, baseline = gw_hyperplane_round(res.gram, g, baseline_samples, cfg.seed)
        report.baseline_cut = baseline
    if brute_force:
        _, optimum = brute_force_maxcut(g)
        report.brute_force_cut = optimum
    return report
