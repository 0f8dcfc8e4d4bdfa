"""Property test: multi-right-hand-side CG against single-vector CG per column."""

import numpy as np

from helpers import knn_hypergraph, single_vector_cg
from hgssl.hypergraph import hypergraph_operator
from hgssl.linalg import conjugate_gradient
from strategies import PROPERTY, point_clouds  # first: skips without hypothesis
from hypothesis import given
from hypothesis import strategies as st


@PROPERTY
@given(cloud=point_clouds(), alpha=st.sampled_from([0.5, 0.9, 0.99]),
       width=st.integers(1, 4), zero_at=st.integers(0, 4), seed=st.integers(0, 2 ** 32 - 1),
       tol=st.sampled_from([1e-12, 1e-8, 1e-4]), max_iter=st.sampled_from([1, 3, 1000]))
def test_columns_match_single_vector_cg(cloud, alpha, width, zero_at, seed, tol, max_iter):
    X, k = cloud
    op = hypergraph_operator(knn_hypergraph(X, k), "sym")
    B = np.random.default_rng(seed).standard_normal((len(X), width))
    B = np.insert(B, min(zero_at, width), 0.0, axis=1)

    def apply(V):
        return V - alpha * op.apply(V)

    result = conjugate_gradient(apply, B, tol, max_iter)
    for j in range(B.shape[1]):
        x, iterations, _ = single_vector_cg(apply, B[:, j], tol, max_iter)
        assert result.column_iterations[j] == iterations
        assert np.max(np.abs(result.x[:, j] - x)) <= 1e-12 * max(1.0, np.max(np.abs(x)))
    # The zero column costs nothing.
    assert result.column_iterations[min(zero_at, width)] == 0
    assert result.iterations == result.column_iterations.max()
    assert result.residual == result.column_residuals.max()
