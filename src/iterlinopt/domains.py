"""Low-dimensional convex domains with closed-form linear-maximization rules.

Each domain maximizes a linear functional y -> x.y over itself and returns a
single boundary point. Wherever the maximizer is not unique the tie is broken
by a documented convention, so iteration runs are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

FEAS_TOL = 1e-10  # default slack of contains, which takes an override
CLASS_MARGIN = 1e-8  # curvature this close to 1/|x| classifies nothing
SYM_TOL = 1e-12  # largest asymmetry of an input matrix
PD_TOL = 1e-12  # shape matrix: smallest eigenvalue above PD_TOL * largest
DEDUP_TOL = 1e-12  # polytope vertices this close are duplicates
SAMPLE_TRIES = 10_000  # rejection draws of sample_near


class DomainError(ValueError):
    """Invalid domain description or query."""


def read_lines(path, error):
    """Yield the lines of a UTF-8 text file. A file that does not decode
    raises ``error(message)`` naming the path, so that each parser reports
    it as its own kind of error."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None


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

    Subclasses implement ``maximize`` (the map T), ``contains`` and
    ``sample``. All methods are pure functions of their inputs, so domain
    objects are safe to share across threads.
    """

    dim: int

    def maximize(self, x):
        """Return a point of the domain maximizing y -> x.y."""
        raise NotImplementedError

    def contains(self, x, tol=FEAS_TOL):
        raise NotImplementedError

    def sample(self, rng):
        """Random feasible point (coverage sampling, not exactly uniform)."""
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
            if np.linalg.norm(y - x) > 0.0 and self.contains(y):
                return y
        raise DomainError("rejection sampling found no feasible point near x")


class BallDomain(ConvexDomain):
    """Solid ball {y : |y - center| <= radius}."""

    def __init__(self, center, radius):
        self.center = _point(center)
        self.radius = float(radius)
        if not self.radius > 0.0:
            raise DomainError("radius must be positive")
        self.dim = self.center.size

    def maximize(self, x):
        x = _point(x, self.dim)
        nx = np.linalg.norm(x)
        if nx == 0.0:
            # T(0) is the whole ball; the center is the canonical pick.
            return self.center.copy()
        return self.center + (self.radius / nx) * x

    def contains(self, x, tol=FEAS_TOL):
        x = _point(x, self.dim)
        return bool(np.linalg.norm(x - self.center) <= self.radius + tol)

    def sample(self, rng):
        u = rng.standard_normal(self.dim)
        u /= np.linalg.norm(u)
        return self.center + self.radius * rng.random() ** (1.0 / self.dim) * u

    def boundary_curvature(self, x) -> float:
        return 1.0 / self.radius


@dataclass
class BallFixedPoints:
    """Fixed points of the ball map, or the centered-ball degenerate status."""

    whole_boundary: bool
    points: list  # [(point, label)] with labels "attractive" / "repelling"


def ball_fixed_points(dom: BallDomain) -> BallFixedPoints:
    """Both fixed points of a ball containing the origin.

    They sit where the line through the origin and the center crosses the
    boundary: the far crossing attracts, the near one repels. A centered
    ball degenerates to "every boundary point is fixed" and the result
    carries that status instead of a point list.
    """
    c, r = dom.center, dom.radius
    nc = float(np.linalg.norm(c))
    if nc > r + FEAS_TOL:
        raise DomainError("origin lies outside the ball; no fixed-point pair")
    if nc == 0.0:
        return BallFixedPoints(whole_boundary=True, points=[])
    attract = c * (1.0 + r / nc)
    repel = c * (1.0 - r / nc)
    return BallFixedPoints(
        whole_boundary=False,
        points=[(attract, "attractive"), (repel, "repelling")],
    )


class EllipsoidDomain(ConvexDomain):
    """{y : y^T A^{-1} y <= 1} for a symmetric positive definite matrix A."""

    def __init__(self, shape):
        a = np.asarray(shape, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DomainError("shape matrix must be square")
        if not np.all(np.isfinite(a)):
            raise DomainError("shape matrix has non-finite entries")
        if np.max(np.abs(a - a.T)) > SYM_TOL:
            raise DomainError("shape matrix must be symmetric")
        self.shape_matrix = 0.5 * (a + a.T)
        w, q = np.linalg.eigh(self.shape_matrix)
        if w[0] <= PD_TOL * max(1.0, w[-1]):
            raise DomainError("shape matrix must be positive definite")
        self._eigvals = w
        self._eigvecs = q
        self.dim = a.shape[0]

    def maximize(self, x):
        x = _point(x, self.dim)
        ax = self.shape_matrix @ x
        q = float(x @ ax)
        if q == 0.0:
            # x = 0: everything maximizes; canonical pick on the first axis.
            e1 = np.zeros(self.dim)
            e1[0] = 1.0
            return (self.shape_matrix @ e1) / np.sqrt(self.shape_matrix[0, 0])
        return ax / np.sqrt(q)

    def quadratic_form(self, x) -> float:
        """y^T A^{-1} y, equal to 1 on the boundary."""
        z = self._eigvecs.T @ _point(x, self.dim)
        return float(np.sum(z * z / self._eigvals))

    def contains(self, x, tol=FEAS_TOL):
        return self.quadratic_form(x) <= 1.0 + tol

    def sample(self, rng):
        u = rng.standard_normal(self.dim)
        u /= np.linalg.norm(u)
        u *= rng.random() ** (1.0 / self.dim)
        return self._eigvecs @ (np.sqrt(self._eigvals) * (self._eigvecs.T @ u))

    def boundary_curvature(self, x) -> float:
        """Curvature of the boundary ellipse at a boundary point (2-d only)."""
        if self.dim != 2:
            raise DomainError("curvature is only computed for 2-d ellipses")
        z = self._eigvecs.T @ _point(x, 2)
        a = np.sqrt(self._eigvals[1])
        b = np.sqrt(self._eigvals[0])
        # boundary in the eigenbasis is (a cos t, b sin t) with z = (z2, z1)
        za, zb = z[1], z[0]
        denom = (a * zb / b) ** 2 + (b * za / a) ** 2
        return float(a * b / denom ** 1.5)


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
                if np.linalg.norm(v[i] - v[j]) <= DEDUP_TOL:
                    raise DomainError(f"duplicate vertices {i} and {j}")
        self.vertices = v
        self.dim = v.shape[1]

    def maximize(self, x):
        x = _point(x, self.dim)
        scores = self.vertices @ x
        return self.vertices[int(np.argmax(scores))].copy()

    def contains(self, x, tol=1e-9):
        """Whether some convex combination V^T lambda of the vertices lies
        within tol of x in the infinity norm: |V^T lambda - x|_inf <= tol,
        lambda >= 0 and sum(lambda) = 1 exactly."""
        # membership is feasibility of the convex-combination LP; scipy is
        # imported here, its only use, to keep it off the package import
        from scipy.optimize import linprog

        x = _point(x, self.dim)
        m = len(self.vertices)
        vt = self.vertices.T
        res = linprog(np.zeros(m), A_ub=np.vstack([vt, -vt]),
                      b_ub=np.concatenate([x + tol, tol - x]),
                      A_eq=np.ones((1, m)), b_eq=[1.0],
                      bounds=[(0.0, None)] * m, method="highs")
        return bool(res.success)

    def sample(self, rng):
        w = rng.dirichlet(np.ones(len(self.vertices)))
        return w @ self.vertices


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
        if not self.base_radius > 0.0:
            raise DomainError("base radius must be positive")
        axis = self.apex - self.base_center
        h = float(np.linalg.norm(axis))
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
        self._plane2 = np.cross(self._axis, u1)

    def maximize(self, x):
        x = _point(x, 3)
        apex_val = float(x @ self.apex)
        xp = x - (x @ self._axis) * self._axis
        npx = float(np.linalg.norm(xp))
        if npx > 0.0:
            base_pt = self.base_center + (self.base_radius / npx) * xp
            base_val = float(x @ self.base_center) + self.base_radius * npx
        else:
            base_pt = self.base_center + self.base_radius * self._plane1
            base_val = float(x @ self.base_center)
        if apex_val >= base_val:
            return self.apex.copy()
        return base_pt

    def contains(self, x, tol=FEAS_TOL):
        x = _point(x, 3)
        d = x - self.base_center
        t = float(d @ self._axis) / self._height
        if t < -tol or t > 1.0 + tol:
            return False
        radial = d - (t * self._height) * self._axis
        limit = self.base_radius * (1.0 - min(max(t, 0.0), 1.0))
        return bool(np.linalg.norm(radial) <= limit + tol)

    def sample(self, rng):
        t = rng.random()
        rad = self.base_radius * (1.0 - t) * np.sqrt(rng.random())
        ang = 2.0 * np.pi * rng.random()
        return (self.base_center + t * self._height * self._axis
                + rad * (np.cos(ang) * self._plane1 + np.sin(ang) * self._plane2))


def curvature_classify_2d(k, x) -> str:
    """Classify a smooth 2-d boundary fixed point by curvature.

    Boundary curvature above 1/|x| pulls nearby iterates back in, below it
    pushes them away; within CLASS_MARGIN of the threshold the test is
    inconclusive and "indeterminate" is returned.
    """
    x = _point(x)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        raise DomainError("curvature test needs a nonzero fixed point")
    thr = 1.0 / nx
    if k > thr + CLASS_MARGIN:
        return "attractive"
    if k < thr - CLASS_MARGIN:
        return "repelling"
    return "indeterminate"


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
    for ln, raw in enumerate(read_lines(path, DomainError), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
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
