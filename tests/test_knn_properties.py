"""knn_indices against the exhaustive oracle on duplicate-heavy point clouds."""

import numpy as np

from helpers import knn_oracle
from hgssl.hypergraph import knn_indices
from strategies import PROPERTY, point_clouds  # first: skips without hypothesis
from hypothesis import given


@PROPERTY
@given(cloud=point_clouds())
def test_matches_oracle_with_ties(cloud):
    # Integer-grid coordinates repeat, so many distances tie exactly and the
    # lower-index rule decides the order.
    X, k = cloud
    assert np.array_equal(knn_indices(X, k), knn_oracle(X, k))
