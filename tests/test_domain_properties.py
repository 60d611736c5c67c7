"""Property tests for the maps of the domains: the closed-form maps of the
low-dimensional domains and the ascent oracle's map on the elliptope.

Each map ignores the scale of its query, T(2^k x) = T(x), including where
the squared norm of 2^k x overflows or underflows, and its image lies in
the domain.
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from iterlinopt import (  # noqa: E402
    BallDomain,
    ConeDomain,
    EllipsoidDomain,
    ElliptopeDomain,
    PolytopeDomain,
)

DOMAINS = {
    "ball": BallDomain([0.5, -0.25, 1.0], 2.0),
    "ellipsoid": EllipsoidDomain([[4.0, 1.0, 0.0], [1.0, 2.0, 0.5],
                                  [0.0, 0.5, 1.0]]),
    "cone": ConeDomain([0.3, -0.2, 1.7], [0.1, 0.2, -0.3], 0.8),
    "polytope": PolytopeDomain([[1.0, 1.0, 1.0], [1.0, -1.0, 0.0],
                                [-1.0, 0.5, -1.0], [0.0, 0.0, 2.0],
                                [-2.0, -1.0, 0.5]]),
}

# Entries are 0 or of size 1e-3 to 1e3, so that 2^k x is exact for every
# k in [-1000, 1000]: no entry leaves the normal range of a double.
ENTRY = st.one_of(st.just(0.0),
                  st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@pytest.mark.parametrize("name", sorted(DOMAINS))
@settings(max_examples=60, deadline=None)
@given(x=st.lists(ENTRY, min_size=3, max_size=3),
       k=st.integers(-1000, 1000))
def test_map_ignores_the_scale_of_its_query(name, x, k):
    dom = DOMAINS[name]
    x = np.array(x)
    t = dom.maximize(x)
    assert np.array_equal(dom.maximize(np.ldexp(x, k)), t)
    assert dom.contains(t)


@st.composite
def symmetric_matrices(draw):
    n = draw(st.integers(2, 5))
    x = np.zeros((n, n))
    x[np.triu_indices(n)] = draw(st.lists(ENTRY, min_size=n * (n + 1) // 2,
                                          max_size=n * (n + 1) // 2))
    return x + np.triu(x, 1).T


@settings(max_examples=60, deadline=None)
@given(x=symmetric_matrices(), k=st.integers(-1000, 1000))
def test_elliptope_map_ignores_the_scale_of_its_query(x, k):
    dom = ElliptopeDomain(x.shape[0])
    t = dom.maximize(x)
    assert np.array_equal(dom.maximize(np.ldexp(x, k)), t)
    assert dom.contains(t)
