"""Hypothesis settings and strategies shared by the property tests.

Importing this module skips the importing test module when ``hypothesis``
is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from hgssl.hypergraph import gaussian_knn_adjacency, knn_indices  # noqa: E402

# Derandomized, so every run draws the same examples.
PROPERTY = settings(derandomize=True, max_examples=20, deadline=None, database=None)


@st.composite
def point_clouds(draw):
    """n in [3, 40] points on a coarse integer grid (so duplicates occur) and a valid k."""
    n = draw(st.integers(3, 40))
    dim = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
    k = draw(st.integers(1, n - 1))
    return np.array(coords, dtype=np.float64).reshape(n, dim), k


@st.composite
def outlier_clouds(draw):
    """A cloud of 25 to 40 grid points plus a tight triple past it, and a k >= 3.

    The triple lies on the first axis past the cloud's rightmost point, at the
    gap where its nearest Gaussian weight has only just not fallen below the
    adjacency's floor: that weight is stored, the triple's farther weights
    are dropped, and the graph operators mostly scale the stored one below
    the floor, where a load path that pruned would drop it.  Some gap gets
    there at 25 points or more; with fewer, sigma grows with the gap too fast.
    """
    n = draw(st.integers(25, 40))
    dim = draw(st.integers(1, 3))
    coords = draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
    base = np.array(coords, dtype=np.float64).reshape(n, dim)
    k = draw(st.integers(3, n - 1))  # the cloud's own neighbors stay in the cloud
    axis = np.eye(dim)[0]
    corner = base[np.argmax(base[:, 0])]

    def cloud(gap):
        return np.vstack([base, corner + np.outer(gap + np.array([0.0, 1e-3, 2e-3]), axis)])

    def linked(gap):
        X = cloud(gap)
        return gaussian_knn_adjacency(*knn_indices(X, k))[n:, :n].nnz > 0

    lo, hi = 0.0, 1.0  # at gap 0 the triple sits on the corner point
    while linked(hi):
        lo, hi = hi, 2 * hi
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if linked(mid) else (lo, mid)
    return cloud(lo), k


@st.composite
def shifted_clouds(draw):
    """n in [3, 30] points in 1..64 dimensions on a grid far from the origin, and a valid k.

    Coordinates are offset + c * h with c in 0..3, a power-of-two step h and an
    offset of 2^26 to 2^31 steps, so points repeat and every difference and
    squared distance is exact, while ||x||^2 + ||y||^2 - 2 x.y cancels badly.
    """
    n = draw(st.integers(3, 30))
    dim = draw(st.integers(1, 64))
    coords = draw(st.lists(st.integers(0, 3), min_size=n * dim, max_size=n * dim))
    step = 2.0 ** draw(st.integers(-12, 4))
    steps = 2 ** draw(st.integers(26, 31)) + draw(st.integers(0, 999))
    offset = draw(st.sampled_from([-1, 1])) * steps * step
    k = draw(st.integers(1, n - 1))
    return offset + step * np.array(coords, dtype=np.float64).reshape(n, dim), k
