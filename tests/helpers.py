"""Shared fixtures-by-hand for the test suite: small random structures."""

import numpy as np
import scipy.sparse as sp

from hgssl.hypergraph import Hypergraph, build_knn_hypergraph, hypergraph_operator
from hgssl.linalg import as_csr


def random_sparse(rng, rows, cols, density=0.3):
    """Seeded random CSR matrix with standard-normal entries."""
    mask = rng.random((rows, cols)) < density
    dense = np.where(mask, rng.standard_normal((rows, cols)), 0.0)
    return as_csr(dense), dense


def random_hypergraph(rng, n, k=3, dim=3) -> Hypergraph:
    """kNN hypergraph over seeded random points."""
    return build_knn_hypergraph(rng.standard_normal((n, dim)), k)


def random_sym_operator(rng, n, k=3, dim=3):
    return hypergraph_operator(random_hypergraph(rng, n, k, dim), "sym")


def csr_equal(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    a = as_csr(a)
    b = as_csr(b)
    return (a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


def knn_oracle(X, k):
    """Exhaustive sort by (distance, index) per query row."""
    n = X.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        pairs = sorted((np.linalg.norm(X[i] - X[j]), j) for j in range(n) if j != i)
        out[i] = [j for _, j in pairs[:k]]
    return out
