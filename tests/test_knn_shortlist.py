"""knn_indices' certified shortlist on clouds where the Gram expansion cancels."""

import numpy as np

from helpers import knn_oracle
from hgssl.hypergraph import (_certified_slack, _gram_sq_distances, knn_indices,
                              pair_sq_distances)
from strategies import PROPERTY, shifted_clouds  # first: skips without hypothesis
from hypothesis import given


@PROPERTY
@given(cloud=shifted_clouds())
def test_shifted_clouds_match_oracle(cloud):
    X, k = cloud
    knn, _ = knn_indices(X, k)
    assert np.array_equal(knn, knn_oracle(X, k))


@PROPERTY
@given(cloud=shifted_clouds())
def test_slack_bounds_gram_error(cloud):
    X, _ = cloud
    n = X.shape[0]
    sq_norms = np.einsum("ij,ij->i", X, X)
    G = _gram_sq_distances(X, sq_norms, 0, n)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    error = np.abs(G[rows, cols] - pair_sq_distances(X, rows, cols))
    assert np.all(error <= _certified_slack(sq_norms, X.shape[1])[rows])
