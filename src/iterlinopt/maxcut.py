"""Two-way max-cut: SDP relaxation over unit-diagonal PSD matrices and
deterministic rounding by norm-increasing iteration.

The relaxation maximizes -W . X over the feasible body, where W is the
symmetric weight matrix, and warns when it stops at its sweep cap. The
rounding carries the relaxation's unit-row factor V of X = V V^T as its
only state and repeatedly takes an ascent step of the linear-maximization
map on it, each step of which is itself a relaxation of the
closest-vertex problem, until a vertex (a rank-one sign matrix encoding a
partition) is reached. Runs that settle on a non-vertex fixed point take an
explicit norm-increasing escape step, which moves one row of V, and
resume; if escapes run out, random hyperplane rounding of V is used as a
flagged fallback. The pipeline finishes the rounded partition with a
single-flip local search.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .domains import _scaled, read_lines
from .elliptope import (
    CERT_TOL,
    GRAD_TOL,
    OracleConfig,
    OracleResult,
    _certificate,
    _escape_factor,
    _is_vertex,
    _polish,
    _row_norms,
    _sum_up,
    elliptope_oracle,
    escape_pair,
    gram_to_matrix,
    vertex_signs,
)

BRUTE_FORCE_CAP = 22
# Bytes of table brute force scores per product, 256 KiB: 2^16 float32 or
# 2^15 float64 entries, so 64 float32 rows at n = 20, 32 at n = 22, and the
# whole table (at most 2^(n - 1) entries) in one block for n <= 17 in
# float32 and n <= 16 in float64. With float32 tables at n = 18/20/22, 2^16
# entries took 0.090/0.232/0.705 ms a call, 2^15 0.093/0.242/0.772 ms and
# 2^17 0.28/0.51/1.27 ms.
BRUTE_FORCE_BLOCK = 1 << 18
# Every integer of size below 2^24 is a float32. With integer weights,
# every entry of brute force's left and right factors, every product and
# every partial sum of a table entry is an integer no larger than the sum
# of |w| over the edges, S / 2 for S the sum over ordered pairs. So when
# S < FLOAT32_EXACT, sgemm gives the float64 table exactly in any summation
# order, and the same argmin picks the same first optimum.
FLOAT32_EXACT = 1 << 24
GRAPH_CAP = 2048  # one dense float64 n x n array at this size is 32 MB
HYPERPLANES = 64  # hyperplanes of the fallback rounding and the GW baseline
MAX_ROUNDS = 500  # map applications and escapes before rounding falls back
# Power products per rounding step. Each product is an ascent step from
# X's own factor, which is all the norm-increasing argument needs. Every
# budget from 14 to 26 gave the cuts of rounding by 10-sweep ascent-oracle
# steps on the benchmark's instances (seeds 1-10) and K4-K40; 9-13 lose
# K32 (255 -> 252), 10-13 also K27 (182 -> 180), and 27-40 lose K36
# (323 -> 320). 20 is the middle of that window.
ROUND_STEPS = 20
# The relaxation stops once its duality gap is proven below GAP_TOL times
# max(1, |objective|). At 1e-7 the relaxations of the benchmark's
# instances (seeds 1-10) and K4-K40 took 28% of the sweeps of the step
# stop, and those graphs and 300 more kept every cut of the step stop.
GAP_TOL = 1e-7
# A non-vertex fixed point is left along escape_curve at this alpha, at
# most ESCAPE_RETRIES times per chain. No caller has used other values.
ESCAPE_ALPHA = 0.25
ESCAPE_RETRIES = 5


class GraphFormatError(ValueError):
    """Malformed graph file."""


@dataclass(frozen=True)
class WeightedGraph:
    """Undirected weighted graph on vertices 0..n-1, edges as (u, v, w)
    triples with u < v and no duplicates.

    The pass that validates the edges also stores them as arrays of ends
    and weights, which ``weight_matrix``, ``cut_value`` and
    ``total_weight`` read; the graph is frozen and ``edges`` is stored as a
    tuple of triples, so that they cannot drift from ``edges``.

    Every figure ``maxcut_pipeline`` forms is at most 3 n^2 |w|_max in
    magnitude, |w|_max the largest |w|: cuts, objectives and sum(W) are at
    most S, the sum of |w_ij| over ordered pairs, which is below n^2
    |w|_max, and the relaxation's bound UB at most S rounded up by a factor
    1 + n^2 eps (``elliptope._upper_bound``), so that UB - objective and
    sum(W) + UB are below 3 n^2 |w|_max. A graph whose 4 n^2 |w|_max
    overflows is rejected, so that every figure is finite and the
    oracle's own guard, on 4 n^2 2^e <= 4 n^2 |w|_max for 2^e the power
    of two of |w|_max, never rejects its cost.
    """

    n: int
    edges: tuple

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "edges",
                           tuple((u, v, w) for u, v, w in self.edges))
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u}, {v}) violates 0 <= u < v < n")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u}, {v})")
            if not np.isfinite(w):
                raise ValueError(f"edge ({u}, {v}) has non-finite weight")
            seen.add((u, v))
        u, v, w = zip(*self.edges) if self.edges else ((), (), ())
        # Python floats: an overflow gives inf, not a warning
        if not math.isfinite(4.0 * self.n * self.n
                             * max((abs(float(x)) for x in w), default=0.0)):
            raise ValueError("edge weights too large: 4 n^2 times the "
                             "largest |w| overflows")
        object.__setattr__(self, "_u", np.array(u, dtype=np.intp))
        object.__setattr__(self, "_v", np.array(v, dtype=np.intp))
        # 0 + w, as a sum from 0 gives it: a weight of -0.0 is stored as 0.0
        object.__setattr__(self, "_w", np.array(w, dtype=float) + 0.0)

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        w[self._u, self._v] = self._w
        w[self._v, self._u] = self._w
        return w

    @property
    def total_weight(self) -> float:
        """Sum of the edge weights, correctly rounded."""
        return math.fsum(self._w.tolist())


def load_graph(path) -> WeightedGraph:
    """Parse edge-list lines "u v w" (0-indexed, '#' comments, weight
    defaults to 1.0). Duplicate edges are summed with a warning; self-loops,
    negative indices and non-finite weights are rejected with the offending
    line number, and a file without edges or not in UTF-8 is rejected."""
    edges = {}
    nmax = -1
    for ln, line in read_lines(path, GraphFormatError):
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
    try:
        return WeightedGraph(nmax + 1,
                             [(u, v, w) for (u, v), w in sorted(edges.items())])
    except ValueError as exc:  # the edges are valid: their weights overflow
        raise GraphFormatError(f"{path}: {exc}") from None


def relaxation_cost(g: WeightedGraph) -> np.ndarray:
    """Cost matrix C = -W; maximizing C . X maximizes the relaxed cut."""
    return -g.weight_matrix()


def cut_value(g: WeightedGraph, signs) -> float:
    """Total weight of edges crossing the partition, correctly rounded
    (``math.fsum``), so that weights that cancel lose nothing."""
    s = np.asarray(signs)
    if s.size != g.n:
        raise ValueError(f"sign vector length {s.size} does not match n={g.n}")
    return math.fsum(g._w[s[g._u] != s[g._v]].tolist())


def _signs(bits, count):
    """The 2^bits sign vectors of a counter, row i flipping entry k when bit
    k of i is set, each padded on the left by ``count - bits`` entries +1.
    Built by doubling: rows [2^k, 2^(k + 1)) are rows [0, 2^k) with
    counter entry k flipped."""
    s = np.ones((1 << bits, count))
    for k in range(bits):
        half = 1 << k
        s[half:2 * half] = s[:half]
        s[half:2 * half, count - bits + k] = -1.0
    return s


def _quad_rows(s, w_upper):
    """s_k^T W_upper s_k for every row s_k of s: the sum of w_uv s_u s_v
    over the edges, so that the cut of s_k is (total weight - this) / 2."""
    return np.sum((s @ w_upper) * s, axis=1)


def _table_dtype(g: WeightedGraph):
    """float32 for integer weights with S < FLOAT32_EXACT, where the
    brute-force table is exact in it, and float64 otherwise."""
    w = g._w
    if np.array_equal(w, np.trunc(w)) and 2.0 * np.abs(w).sum() < FLOAT32_EXACT:
        return np.float32
    return np.float64


def brute_force_maxcut(g: WeightedGraph):
    """Exhaustive optimum over all sign vectors with s_0 = +1 (desk-scale
    oracle), scored in one reused block of BRUTE_FORCE_BLOCK bytes, in
    float32 where that is exact (FLOAT32_EXACT), so that a call holds under
    1 MiB at the cap, n = 22. Ties go to the earliest vector in enumeration
    order, bit k of the counter flipping vertex k+1."""
    if g.n > BRUTE_FORCE_CAP:
        raise ValueError(f"brute force is capped at n = {BRUTE_FORCE_CAP}")
    if g.n == 0:
        raise ValueError("graph has no vertices")
    # Block A holds vertex 0 and the low half of the counter's bits, block
    # B the high half. W_upper has no BA block, so for the vector with high
    # bits j and low bits i, s^T W_upper s = q_A[i] + q_B[j]
    # + s_B[j]^T W_AB^T s_A[i]: with q_B and a ones column appended to s_B,
    # and a ones row and q_A appended to W_AB^T s_A^T, row j of the
    # 2^|B| x 2^|A| table is row j of left times right. Rows are scored a
    # block at a time in counter order, and a block's argmin (the largest
    # cut, first of ties) replaces the best only when strictly smaller, so
    # the first of tied optima still wins.
    low = g.n // 2
    a = low + 1
    nb = g.n - a
    dtype = _table_dtype(g)
    w_upper = np.triu(g.weight_matrix())
    s_a = _signs(low, a)
    s_b = _signs(nb, nb)
    left = np.empty((len(s_b), nb + 2), dtype)
    left[:, :nb] = s_b
    left[:, nb] = _quad_rows(s_b, w_upper[a:, a:])
    left[:, nb + 1] = 1.0
    right = np.empty((nb + 2, len(s_a)), dtype)
    np.matmul(w_upper[:a, a:].T, s_a.T, out=right[:-2])
    right[-2] = 1.0
    right[-1] = _quad_rows(s_a, w_upper[:a, :a])
    # rows and len(left) are powers of two, so every block is full
    rows = min((BRUTE_FORCE_BLOCK // left.itemsize) >> low, len(left))
    block = np.empty((rows, len(s_a)), dtype)
    best, best_k = np.inf, 0
    for k in range(0, len(left), rows):
        np.matmul(left[k:k + rows], right, out=block)
        m = int(block.argmin())
        if block.flat[m] < best:
            best, best_k = block.flat[m], (k << low) + m
    j, i = divmod(best_k, 1 << low)
    signs = np.concatenate((s_a[i], s_b[j])).astype(int)
    return signs, cut_value(g, signs)


def gw_hyperplane_round(v, g: WeightedGraph, samples=HYPERPLANES, seed=0):
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


def solve_relaxation(g: WeightedGraph, seed=0) -> OracleResult:
    """Maximize the relaxed cut over the unit-diagonal PSD body, from one
    seeded start, stopping once the duality gap is proven below GAP_TOL;
    the result carries the proven upper bound. The oracle scales the cost
    -W by a power of two (``elliptope._oracle``), so that its tolerances,
    the gap stop among them, are relative to the largest weight, and
    weights scaled by a power of two give the same factors and scaled
    figures. The bound is proven by the Cholesky test that decides the
    gap stop (``elliptope._dual_certified``), and on a certified gap it
    lies within GAP_TOL max(1, |objective|) of the objective, in the
    relaxation's unit. A run that reaches the sweep cap before its gap is
    certified says so in a warning; its bound still holds."""
    if g.n < 1:
        raise ValueError("graph has no vertices")
    res = elliptope_oracle(relaxation_cost(g),
                           OracleConfig(seed=seed, gap_tol=GAP_TOL))
    if res.status == "max_sweeps":
        warnings.warn(f"relaxation stopped at its {res.sweeps}-sweep cap "
                      "before its duality gap was certified", stacklevel=2)
    return res


@dataclass(frozen=True)
class RoundingReport:
    """What a rounding chain produced: its counts, how it ended, its
    partition, the squared norms of its iterates and the partition's cut on
    the rounded graph."""

    n: int
    iterations: int
    escapes: int
    terminal_status: str  # vertex | nonvertex_fixed_point | max_rounds
    partition_source: str  # vertex_row | hyperplane_fallback
    partition: np.ndarray
    norms_sq: list
    cut_value: float
    rounding_starts = 1  # a class constant the benchmark's counters read


@dataclass(frozen=True)
class MaxcutReport(RoundingReport):
    """What ``maxcut_pipeline`` produced. The chain's fields are those of
    its ``RoundingReport`` but partition and cut_value, which are the local
    search's; rounded_cut is the chain's own cut. The optional baselines are
    None when they were not requested."""

    relaxation_objective: float
    relaxed_cut: float
    # (UB - objective) / max(u, |objective|), u the relaxation's unit
    relative_gap: float
    relaxation_status: str  # OracleResult.status of the relaxation
    relaxation_sweeps: int
    rounded_cut: float
    baseline_cut: float | None
    brute_force_cut: float | None


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
    y = gram_to_matrix(w)
    obj = float(np.vdot(x, y))
    # the vertex polish of elliptope_oracle: s^T X s = |V^T s|^2
    return _polish(x, w, y, obj)[:2]


def round_by_iteration(gram, seed=0, *, graph: WeightedGraph) -> RoundingReport:
    """Round X = V V^T, V = gram, to a partition by iterating the map.

    gram must be 2-d and finite with rows unit within ROW_TOL, which makes
    X feasible, and the chain carries it as its only state. It applies an
    ascent step of the linear-maximization map until a vertex appears (the
    partition is then read off its first row): ``_power_step`` maps V to W
    with <X, Y> >= <X, X> for Y = W W^T, so |Y - X|^2 <= |Y|^2 - |X|^2, and
    it leaves X where it is exactly when X^2 = DX, so the vertices stay
    exact fixed points. It maps V Q to W Q, so a factor of any width
    rounds X alike, and a narrow one (the relaxation's) makes each step
    cheaper. A non-vertex fixed point triggers a norm-increasing escape
    step, ``escape_curve``'s move of one row of V, and the run resumes, up
    to ESCAPE_RETRIES times; after that, or if MAX_ROUNDS pass and the
    last leaves no vertex either, hyperplane rounding of V against graph,
    seeded with seed, supplies the partition and the provenance is
    flagged. graph must have one vertex per row of gram, and the report
    carries its cut. The squared norm never decreases across accepted
    iterates.
    """
    x = gram_to_matrix(gram)
    if graph.n != x.shape[0]:
        raise ValueError(f"graph has {graph.n} vertices, gram {x.shape[0]} rows")
    v = np.asarray(gram, dtype=float)
    v = v / _row_norms(v)[:, None]
    norms = [float(np.vdot(x, x))]
    escapes = 0
    iterations = 0
    for _ in range(MAX_ROUNDS):
        if _is_vertex(x):
            status = "vertex"
            break
        if _certificate(x, CERT_TOL).is_fixed:
            if escapes < ESCAPE_RETRIES:
                v = _escape_factor(v, x, *escape_pair(x), ESCAPE_ALPHA)
                x = gram_to_matrix(v)
                escapes += 1
                norms.append(float(np.vdot(x, x)))
                continue
            status = "nonvertex_fixed_point"
            break
        v, x = _power_step(x, v)
        iterations += 1
        norms.append(float(np.vdot(x, x)))
    else:  # the budget ran out; its last round may have reached a vertex
        status = "vertex" if _is_vertex(x) else "max_rounds"
    if status == "vertex":
        partition, source = vertex_signs(x), "vertex_row"
    else:
        partition, _ = gw_hyperplane_round(v, graph, seed=seed)
        source = "hyperplane_fallback"
        warnings.warn("rounding did not reach a vertex; hyperplane fallback used",
                      stacklevel=2)
    return RoundingReport(
        n=x.shape[0],
        iterations=iterations,
        escapes=escapes,
        terminal_status=status,
        partition_source=source,
        partition=partition,
        norms_sq=norms,
        cut_value=cut_value(graph, partition),
    )


def _one_flip(w, partition):
    """Single-flip local search on the weight matrix w: while the largest
    gain g_i = s_i (W s)_i, the cut's change when vertex i flips, exceeds
    n eps sum_j |w_ij|, flip that vertex, ties to the lowest index. That
    allowance exceeds the rounding error of (W s)_i in any summation
    order, so every flip raises the exact cut and the search ends, also
    on float weights. Returns the new sign vector."""
    s = np.asarray(partition, dtype=float)
    allowance = len(s) * np.finfo(float).eps * np.abs(w).sum(axis=1)
    while True:
        gain = s * (w @ s)
        i = int(np.argmax(gain))
        if gain[i] <= allowance[i]:
            return s.astype(int)
        s[i] = -s[i]


def maxcut_pipeline(g: WeightedGraph, seed=0, baseline_samples=0,
                    brute_force=False) -> MaxcutReport:
    """Full chain: relaxation, iterated rounding, local search, optional
    baselines.

    One seeded relaxation (``solve_relaxation``) is rounded once by the
    iterated map, started from the relaxation's own factor (the ``gram``
    of ``round_by_iteration``); ``rounded_cut`` is that chain's cut. A
    single-flip local search (``_one_flip``) then takes the chain's
    partition to one that no single flip improves, which the report
    carries as ``partition`` and ``cut_value``. Where the relaxation's
    optimum is not unique (complete graphs are the standard example), the
    point the solver lands on decides the chain's vertex, which can be a
    few flips short of the best cut; the search recovers those. The
    relaxed cut is the certified bound: (sum over ordered pairs of W + UB)
    / 4, summed exactly and rounded up, at least the maximum cut by weak
    duality. The relative gap, (UB - objective) / max(2^e, |objective|),
    is what the relaxation's factorization proved, about GAP_TOL on a
    certified run (``elliptope._gap_delta``). It is taken in the
    relaxation's unit, the power of two 2^e with the largest |weight| in
    [2^e, 2^(e + 1)) (``domains._scaled``), so that it does not depend on
    the unit of the weights. The report also carries how the relaxation
    stopped and after how many sweeps.
    """
    res = solve_relaxation(g, seed)
    w = g.weight_matrix()
    chain = round_by_iteration(res.gram, seed, graph=g)
    partition = _one_flip(w, chain.partition)
    baseline = (gw_hyperplane_round(res.gram, g, baseline_samples, seed)[1]
                if baseline_samples else None)
    optimum = brute_force_maxcut(g)[1] if brute_force else None
    return MaxcutReport(
        **{**vars(chain), "partition": partition,
           "cut_value": cut_value(g, partition)},
        relaxation_objective=res.objective,
        # (sum(W) + UB) / 4 = (sum of the edge weights + UB / 2) / 2,
        # summed exactly and rounded up; halving is exact
        relaxed_cut=_sum_up(g._w.tolist() + [0.5 * res.upper_bound]) / 2.0,
        relative_gap=((res.upper_bound - res.objective)
                      / max(2.0 ** _scaled(g._w)[1], abs(res.objective))),
        relaxation_status=res.status,
        relaxation_sweeps=res.sweeps,
        rounded_cut=chain.cut_value,
        baseline_cut=baseline,
        brute_force_cut=optimum,
    )
