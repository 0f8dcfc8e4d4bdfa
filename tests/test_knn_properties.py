"""knn_indices and the kNN structures against dense oracles on duplicate-heavy clouds."""

import numpy as np
import pytest

from helpers import csr_equal, knn_oracle, reference_adjacency
from hgssl.hypergraph import (_WEIGHT_FLOOR, build_knn_hypergraph, gaussian_knn_adjacency,
                              knn_indices, pair_sq_distances)
from strategies import (PROPERTY, outlier_clouds, point_clouds,  # first: skips without hypothesis
                        shifted_clouds)
from hypothesis import given
from hypothesis import strategies as st


@PROPERTY
@given(cloud=point_clouds())
def test_matches_oracle_with_ties(cloud):
    # Integer-grid coordinates repeat, so many distances tie exactly and the
    # lower-index rule decides the order.
    X, k = cloud
    knn, _ = knn_indices(X, k)
    assert np.array_equal(knn, knn_oracle(X, k))


@PROPERTY
@given(cloud=st.one_of(point_clouds(), outlier_clouds(), shifted_clouds()))
def test_distances_are_the_rerank_values(cloud):
    # Each kept distance is pair_sq_distances on its own (row, neighbor) pair,
    # bit for bit: on ties and duplicates, past outliers and where the Gram
    # expansion cancels.
    X, k = cloud
    n = len(X)
    knn, sq_dist = knn_indices(X, k)
    want = pair_sq_distances(X, np.repeat(np.arange(n), k), knn.ravel()).reshape(n, k)
    assert sq_dist.dtype == np.float64 and sq_dist.shape == (n, k)
    assert sq_dist.tobytes() == want.tobytes()


@PROPERTY
@given(cloud=st.one_of(point_clouds(), outlier_clouds(), shifted_clouds()))
def test_adjacency_matches_reference_from_features(cloud):
    # The adjacency from the kept distances stores the arrays that computing
    # every distance again from X gives, or fails the same way.
    X, k = cloud
    knn, sq_dist = knn_indices(X, k)
    try:
        want = reference_adjacency(X, knn)
    except ValueError:
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_knn_adjacency(knn, sq_dist)
        return
    assert csr_equal(gaussian_knn_adjacency(knn, sq_dist), want)


@PROPERTY
@given(cloud=st.one_of(point_clouds(), outlier_clouds()))
def test_structures_match_dense_relation_oracle(cloud):
    # i ~ j when j is in knn(i) or i is in knn(j), written out pair by pair.
    # Outlier clouds put related pairs' weights on both sides of the floor.
    X, k = cloud
    n = len(X)
    knn, sq_dist = knn_indices(X, k)
    related = np.zeros((n, n), dtype=bool)
    for i in range(n):
        for j in knn[i]:
            related[i, j] = related[j, i] = True

    H = build_knn_hypergraph(knn).incidence.toarray()
    assert np.array_equal(H, (related | np.eye(n, dtype=bool)).astype(float))

    sigma = np.sqrt([pair_sq_distances(X, [i], [knn[i, -1]])[0] for i in range(n)]).mean()
    if sigma == 0.0:  # every point's k-th neighbor is a duplicate of it
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_knn_adjacency(knn, sq_dist)
        return
    A = gaussian_knn_adjacency(knn, sq_dist)
    want = np.zeros((n, n))
    for i, j in zip(*np.nonzero(related)):
        want[i, j] = np.exp(-pair_sq_distances(X, [i], [j])[0] / (2.0 * sigma ** 2))
    want[want < _WEIGHT_FLOOR] = 0.0
    assert A.nnz == np.count_nonzero(want)
    assert A.toarray().tobytes() == want.tobytes()
    transpose = A.T.tocsr()
    transpose.sort_indices()
    assert np.array_equal(transpose.indptr, A.indptr)
    assert np.array_equal(transpose.indices, A.indices)
    assert transpose.data.tobytes() == A.data.tobytes()
