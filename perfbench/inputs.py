"""Seeded input generators for the benchmark workloads.

Everything is built locally from a numpy generator, so one seed always
gives the same inputs. Graph families with no free parameter (complete
graphs, paths, unit-weight toroidal grids) are vertex-transitive or
canonically labelled and do not depend on the seed; G(n, p) and the
signed grids do.
"""

from __future__ import annotations

import numpy as np


def gnp(n, p, rng):
    """Erdos-Renyi G(n, p) with unit weights, edges as (u, v, 1.0), u < v."""
    return n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)
               if rng.random() < p]


def complete(n):
    return n, [(u, v, 1.0) for u in range(n) for v in range(u + 1, n)]


def path(n):
    return n, [(i, i + 1, 1.0) for i in range(n - 1)]


def toroidal_grid(rows, cols, rng=None):
    """rows x cols torus, the shape behind the Gset toroidal instances.

    With ``rng`` the weights are independent +-1 signs, otherwise 1.
    """
    edges = {}
    for i in range(rows):
        for j in range(cols):
            u = i * cols + j
            for v in (((i + 1) % rows) * cols + j, i * cols + (j + 1) % cols):
                edges[(min(u, v), max(u, v))] = None
    keys = sorted(edges)
    if rng is None:
        weights = [1.0] * len(keys)
    else:
        weights = [float(w) for w in rng.choice((-1.0, 1.0), size=len(keys))]
    return rows * cols, [(u, v, w) for (u, v), w in zip(keys, weights)]


def feasible_start(n, rank, rng):
    """Gram matrix of ``n`` random unit rows in ``rank`` dimensions: a
    point of the unit-diagonal PSD body with rank at most ``rank``."""
    v = rng.standard_normal((n, rank))
    v /= np.linalg.norm(v, axis=1)[:, None]
    x = v @ v.T
    np.fill_diagonal(x, 1.0)
    return x


def sign_vector(n, rng):
    return np.where(rng.random(n) < 0.5, -1.0, 1.0)
