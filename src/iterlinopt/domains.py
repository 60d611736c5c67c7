"""Low-dimensional convex domains with closed-form linear-maximization rules.

Each domain maximizes a linear functional y -> x.y over itself and returns a
single boundary point. Wherever the maximizer is not unique the tie is broken
by a documented convention, so iteration runs are reproducible.
"""

from __future__ import annotations

import numpy as np

FEAS_TOL = 1e-10  # slack of contains on balls, ellipsoids and cones
LP_TOL = 1e-9  # max-norm slack of a polytope's contains, from its LP
CLASS_MARGIN = 1e-8  # a tangent eigenvalue this close to 1 classifies nothing
SYM_TOL = 1e-12  # largest asymmetry of an input matrix
PD_TOL = 1e-12  # shape matrix: smallest eigenvalue above PD_TOL * largest
DEDUP_TOL = 1e-12  # polytope vertices this close are duplicates
SAMPLE_TRIES = 10_000  # rejection draws of sample_near


class DomainError(ValueError):
    """Invalid domain description or query."""


def read_lines(path, error):
    """Yield (line number, text) for each line of a UTF-8 text file that
    holds more than a '#' comment, with the comment and the surrounding
    space removed. A file that does not decode raises ``error(message)``
    naming the path, so that each parser reports it as its own kind of
    error."""
    try:
        with open(path, encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if line:
                    yield ln, line
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


def _scaled(x):
    """(u, e) with x = u 2^e exactly and u's largest entry in [1, 2), or
    u = x = 0. No product or norm of u overflows or underflows, |u| >= 1,
    and a map that ignores its query's scale reads u in place of x."""
    e = int(np.frexp(np.max(np.abs(x), initial=0.0))[1]) - 1
    return np.ldexp(x, -e), e


def _norm(x) -> float:
    """|x| over all entries, taken on x scaled by a power of two: finite
    whenever the norm itself is."""
    u, e = _scaled(np.ravel(x))
    return float(np.ldexp(np.linalg.norm(u), e))


def _fast_norm(d) -> float:
    """|d| from one vdot, which overflows to inf unwarned, then by ``_norm``."""
    n = float(np.sqrt(np.vdot(d, d)))
    return _norm(d) if n == np.inf else n


def _symmetrized(m, name, error) -> np.ndarray:
    """m symmetrized, raising ``error(message)`` naming it when it is not
    square, is empty, has non-finite entries or is asymmetric beyond
    SYM_TOL. Each entry is (a_ij + a_ji) / 2, added first, so that no
    subnormal entry is halved away, and halved first only where the sum
    overflows, so that every finite input stays finite. Where both entries
    halve exactly, as every entry of size at least 2^-1021 does, both
    orders round the same exact (a_ij + a_ji) / 2 once: the same bits."""
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise error(f"{name} must be square, got shape {a.shape}")
    if a.shape[0] == 0:
        raise error(f"{name} is empty")
    if not np.all(np.isfinite(a)):
        raise error(f"{name} has non-finite entries")
    if (a == a.T).all():  # (a_ij + a_ij) / 2 is a_ij: the same bits
        return a.copy()
    h = 0.5 * a
    if np.max(np.abs(h - h.T)) > 0.5 * SYM_TOL:
        raise error(f"{name} is not symmetric within {SYM_TOL}")
    with np.errstate(over="ignore"):
        s = a + a.T
    return np.where(np.isinf(s), h + h.T, 0.5 * s)


def _check_extent(extent):
    """Reject a domain whose points lie up to ``extent`` from the origin
    when that distance's square overflows: a run in it would record inf
    squared norms, which no monotone check can read, and ``engine.iterate``
    rejects a start of that size for the same reason."""
    if extent * extent == np.inf:
        raise DomainError(f"domain reaches {extent!r} from the origin, "
                          "whose square overflows")


def _nonzero_norm(x, dim) -> float:
    nx = _norm(_point(x, dim))
    if nx == 0.0:
        raise DomainError("tangent eigenvalues need a nonzero fixed point")
    return nx


def _point(x, dim=None) -> np.ndarray:
    p = np.asarray(x, dtype=float)
    if p.ndim != 1:
        raise DomainError(f"expected a 1-d point, got shape {p.shape}")
    if not np.all(np.isfinite(p)):
        raise DomainError("point has non-finite entries")
    if dim is not None and p.size != dim:
        raise DomainError(f"dimension mismatch: expected {dim}, got {p.size}")
    return p


class ConvexDomain:
    """Base class: a compact convex set plus its linear-maximization rule.

    A domain offers what the process and its classification call:
    ``maximize``, the map T that the engine iterates; ``contains``; and
    ``sample_near``, a random feasible point near a fixed point, from which
    ``classify_empirical`` iterates. Subclasses implement the first two,
    and the rejection sampler below serves them all but the elliptope.
    Balls and ellipsoids also give ``tangent_eigenvalues``, which the
    theorem label reads. All methods are pure functions of their inputs,
    so domain objects are safe to share across threads.
    """

    dim: int

    def maximize(self, x):
        """Return a point of the domain maximizing y -> x.y."""
        raise NotImplementedError

    def contains(self, x):
        raise NotImplementedError

    def sample_near(self, x, eps, rng):
        """Random feasible point within distance eps of x, by rejection."""
        x = np.asarray(x, dtype=float)
        for _ in range(SAMPLE_TRIES):
            u = rng.standard_normal(x.size)
            nu = np.linalg.norm(u)
            if nu == 0.0:
                continue
            rad = eps * rng.random() ** (1.0 / x.size)
            y = x + (rad / nu) * u
            if _norm(y - x) > 0.0 and self.contains(y):
                return y
        raise DomainError("rejection sampling found no feasible point near x")


class BallDomain(ConvexDomain):
    """Solid ball {y : |y - center| <= radius}."""

    def __init__(self, center, radius):
        self.center = _point(center)
        self.radius = float(radius)
        if not 0.0 < self.radius < np.inf:
            raise DomainError("radius must be positive and finite")
        _check_extent(_norm(self.center) + self.radius)
        self.dim = self.center.size

    def maximize(self, x):
        x = _point(x, self.dim)
        if not x.any():
            # T(0) is the whole ball; the center is the canonical pick.
            return self.center.copy()
        u = _scaled(x)[0]
        return self.center + (self.radius / np.linalg.norm(u)) * u

    def contains(self, x):
        x = _point(x, self.dim)
        return bool(_norm(x - self.center) <= self.radius + FEAS_TOL)

    def tangent_eigenvalues(self, x) -> np.ndarray:
        """The map's tangent eigenvalues at a fixed point x: r/|x|, dim - 1
        times."""
        return np.full(self.dim - 1, self.radius / _nonzero_norm(x, self.dim))


class EllipsoidDomain(ConvexDomain):
    """{y : y^T A^{-1} y <= 1} for a symmetric positive definite matrix A."""

    def __init__(self, shape):
        self.shape_matrix = _symmetrized(shape, "shape matrix", DomainError)
        w, q = np.linalg.eigh(self.shape_matrix)
        if w[0] <= PD_TOL * max(1.0, w[-1]):
            raise DomainError("shape matrix must be positive definite")
        self._eigvals = w
        self._eigvecs = q
        self._half_exp = np.frexp(w[-1])[1] // 2  # A / 4^k has entries below 2
        self._unit_shape = np.ldexp(self.shape_matrix, -2 * self._half_exp)
        self.dim = w.size

    def maximize(self, x):
        x = _point(x, self.dim)
        if not x.any():  # T(0) is the whole ellipsoid; T(e_1) is the pick
            x = np.eye(self.dim)[0]
        # with x scaled into [-2, 2] and A to A / 4^k by powers of two, no
        # product overflows, and T(x) = Ax / sqrt(x^T A x) comes out exactly
        # 2^k times smaller
        u = _scaled(x)[0]
        au = self._unit_shape @ u
        return np.ldexp(au / np.sqrt(u @ au), self._half_exp)

    def quadratic_form(self, x) -> float:
        """y^T A^{-1} y, equal to 1 on the boundary."""
        z = self._eigvecs.T @ _point(x, self.dim)
        return float(np.sum(z * z / self._eigvals))

    def contains(self, x):
        return self.quadratic_form(x) <= 1.0 + FEAS_TOL

    def tangent_eigenvalues(self, x) -> np.ndarray:
        """The map's tangent eigenvalues at a fixed point x = +-sqrt(lambda_i)
        q_i: lambda_j / lambda_i for j != i, with lambda_i = |x|^2."""
        nx = _nonzero_norm(x, self.dim)
        i = np.argmax(np.abs(self._eigvecs.T @ x))  # q_i is along x
        return np.delete(self._eigvals, i) / nx / nx


class PolytopeDomain(ConvexDomain):
    """Convex hull of an explicit vertex list; the maximizer is a vertex.

    Ties between vertices are broken toward the lowest index, which keeps
    iteration runs deterministic.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] == 0:
            raise DomainError("polytope needs a nonempty (m, d) vertex array")
        if not np.all(np.isfinite(v)):
            raise DomainError("vertices have non-finite entries")
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                if _norm(v[i] - v[j]) <= DEDUP_TOL:
                    raise DomainError(f"duplicate vertices {i} and {j}")
        _check_extent(max(_norm(p) for p in v))
        self.vertices = v
        self.dim = v.shape[1]

    def maximize(self, x):
        scores = self.vertices @ _scaled(_point(x, self.dim))[0]
        return self.vertices[int(np.argmax(scores))].copy()

    def contains(self, x):
        """Whether some convex combination V^T lambda of the vertices lies
        within LP_TOL of x in the infinity norm: |V^T lambda - x|_inf <=
        LP_TOL, lambda >= 0 and sum(lambda) = 1 exactly."""
        # membership is feasibility of the convex-combination LP; scipy is
        # imported here, its only use, to keep it off the package import.
        # HiGHS also allows its own primal infeasibility (1e-7 by default)
        # on top of the LP's slack, so that is set well below LP_TOL
        from scipy.optimize import linprog

        x = _point(x, self.dim)
        m = len(self.vertices)
        vt = self.vertices.T
        res = linprog(np.zeros(m), A_ub=np.vstack([vt, -vt]),
                      b_ub=np.concatenate([x + LP_TOL, LP_TOL - x]),
                      A_eq=np.ones((1, m)), b_eq=[1.0],
                      bounds=[(0.0, None)] * m, method="highs",
                      options={"primal_feasibility_tolerance": LP_TOL / 10})
        return bool(res.success)


class ConeDomain(ConvexDomain):
    """Solid cone: convex hull of an apex and a disk orthogonal to the axis.

    The maximizer of a linear functional is an extreme point, so only the
    apex and the base circle are ever returned. Ties between apex and base
    go to the apex; a functional that is constant on the base circle picks
    the canonical in-plane direction (lowest coordinate axis projected into
    the base plane).
    """

    def __init__(self, apex, base_center, base_radius):
        self.apex = _point(apex)
        if self.apex.size != 3:
            raise DomainError("cone domain is three-dimensional")
        self.base_center = _point(base_center, 3)
        self.base_radius = float(base_radius)
        if not 0.0 < self.base_radius < np.inf:
            raise DomainError("base radius must be positive and finite")
        _check_extent(max(_norm(self.apex),
                          _norm(self.base_center) + self.base_radius))
        axis = self.apex - self.base_center
        h = _norm(axis)
        if h == 0.0:
            raise DomainError("apex coincides with base center")
        self.dim = 3
        self._axis = axis / h
        self._height = h
        k = int(np.argmin(np.abs(self._axis)))
        e = np.zeros(3)
        e[k] = 1.0
        u1 = e - (e @ self._axis) * self._axis
        u1 /= np.linalg.norm(u1)
        self._plane1 = u1

    def maximize(self, x):
        x = _scaled(_point(x, 3))[0]  # the map ignores x's scale
        apex_val = float(x @ self.apex)
        xp = x - (x @ self._axis) * self._axis
        if xp.any():
            # the in-plane part is scaled too, so that neither |xp| nor
            # base_radius / |xp| under- or overflows
            v, e = _scaled(xp)
            nv = float(np.linalg.norm(v))
            base_pt = self.base_center + (self.base_radius / nv) * v
            base_val = (float(x @ self.base_center)
                        + self.base_radius * float(np.ldexp(nv, e)))
        else:
            base_pt = self.base_center + self.base_radius * self._plane1
            base_val = float(x @ self.base_center)
        if apex_val >= base_val:
            return self.apex.copy()
        return base_pt

    def contains(self, x):
        x = _point(x, 3)
        d = x - self.base_center
        t = float(d @ self._axis) / self._height
        if t < -FEAS_TOL or t > 1.0 + FEAS_TOL:
            return False
        radial = d - (t * self._height) * self._axis
        limit = self.base_radius * (1.0 - min(max(t, 0.0), 1.0))
        return bool(_norm(radial) <= limit + FEAS_TOL)


def _tangent_label(mu) -> str:
    """Ostrowski's theorem on the map's tangent eigenvalues mu at a fixed
    point; one within CLASS_MARGIN of 1 decides nothing."""
    if np.all(mu < 1.0 - CLASS_MARGIN):
        return "attractive"
    above = mu > 1.0 + CLASS_MARGIN
    if np.all(above):
        return "repelling"
    return "not_attractive" if np.any(above) else "indeterminate"


def _parse_vector(text):
    return np.array([float(tok) for tok in text.replace(",", " ").split()])


def _parse_matrix(text):
    rows = [r for r in (s.strip() for s in text.split(";")) if r]
    return np.array([_parse_vector(r) for r in rows])


# the keys each kind takes besides kind itself
DOMAIN_KEYS = {
    "ball": ("center", "radius"),
    "disk": ("center", "radius"),
    "ellipsoid": ("shape",),
    "ellipse": ("shape",),
    "polytope": ("vertices",),
    "cone": ("apex", "base_center", "base_radius"),
    "elliptope": ("n",),
}


def load_domain(path):
    """Build a domain from a key=value description file.

    Recognized kinds and their keys:
      kind=ball        center=<vector>  radius=<float>
      kind=ellipsoid   shape=<rows separated by ';'>
      kind=polytope    vertices=<points separated by ';'>
      kind=cone        apex=<vector>  base_center=<vector>  base_radius=<float>
      kind=elliptope   n=<int>

    Vectors accept commas or whitespace; '#' starts a comment. A key that
    the kind does not take is rejected.
    """
    spec = {}
    for ln, line in read_lines(path, DomainError):
        if "=" not in line:
            raise DomainError(f"{path}:{ln}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        spec[key.strip().lower()] = val.strip()
    kind = spec.get("kind", "").lower()
    if kind not in DOMAIN_KEYS:
        raise DomainError(f"{path}: unknown domain kind {spec.get('kind')!r}")
    unknown = [key for key in spec if key not in ("kind", *DOMAIN_KEYS[kind])]
    if unknown:
        raise DomainError(f"{path}: kind {kind!r} takes no key {unknown[0]!r}")
    try:
        if kind in ("ball", "disk"):
            return BallDomain(_parse_vector(spec["center"]), float(spec["radius"]))
        if kind in ("ellipsoid", "ellipse"):
            return EllipsoidDomain(_parse_matrix(spec["shape"]))
        if kind == "polytope":
            return PolytopeDomain(_parse_matrix(spec["vertices"]))
        if kind == "cone":
            return ConeDomain(_parse_vector(spec["apex"]),
                              _parse_vector(spec["base_center"]),
                              float(spec["base_radius"]))
        if kind == "elliptope":
            from .elliptope import ElliptopeDomain
            return ElliptopeDomain(int(spec["n"]))
    except KeyError as exc:
        raise DomainError(f"{path}: missing key {exc.args[0]!r} for kind {kind!r}")
    except ValueError as exc:
        if isinstance(exc, DomainError):
            raise
        raise DomainError(f"{path}: {exc}")
