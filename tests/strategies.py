"""Hypothesis settings and strategies shared by the property tests.

Importing this module skips the importing test module when ``hypothesis``
is not installed.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

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
