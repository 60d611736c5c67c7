"""Random feasible points anywhere in a domain, for runs that need a start.

The package's domains draw only near a point (``sample_near``), which is all
the process and its classification ask; a start anywhere in the domain is
the tests' need. The draws are coverage sampling, not exactly uniform.
"""

import numpy as np

from iterlinopt import (
    BallDomain,
    ConeDomain,
    EllipsoidDomain,
    PolytopeDomain,
    gram_to_matrix,
)
from iterlinopt.elliptope import default_rank_budget, random_gram


def random_feasible_point(dom, rng):
    """A random point of dom, drawn from rng."""
    if isinstance(dom, BallDomain):
        u = rng.standard_normal(dom.dim)
        u /= np.linalg.norm(u)
        return dom.center + dom.radius * rng.random() ** (1.0 / dom.dim) * u
    if isinstance(dom, EllipsoidDomain):
        # a point of the unit ball, mapped by A^(1/2)
        u = rng.standard_normal(dom.dim)
        u /= np.linalg.norm(u)
        u *= rng.random() ** (1.0 / dom.dim)
        return dom._eigvecs @ (np.sqrt(dom._eigvals) * (dom._eigvecs.T @ u))
    if isinstance(dom, PolytopeDomain):
        w = rng.dirichlet(np.ones(len(dom.vertices)))
        return w @ dom.vertices
    if isinstance(dom, ConeDomain):
        # a height t along the axis, then a point of the disk there
        t = rng.random()
        rad = dom.base_radius * (1.0 - t) * np.sqrt(rng.random())
        ang = 2.0 * np.pi * rng.random()
        plane2 = np.cross(dom._axis, dom._plane1)
        return (dom.base_center + t * dom._height * dom._axis
                + rad * (np.cos(ang) * dom._plane1 + np.sin(ang) * plane2))
    # the elliptope: a random Gram factor of the default width
    return gram_to_matrix(random_gram(dom.n, default_rank_budget(dom.n), rng))
