"""Shared fixtures-by-hand for the test suite: small random structures."""

import numpy as np
import scipy.sparse as sp

from hgssl import linalg
from hgssl.hypergraph import (_WEIGHT_FLOOR, Hypergraph, _symmetric_knn, build_knn_hypergraph,
                              gaussian_knn_adjacency, hypergraph_operator, knn_indices,
                              pair_sq_distances)


def random_sparse(rng, rows, cols, density=0.3):
    """Seeded random CSR matrix with standard-normal entries."""
    mask = rng.random((rows, cols)) < density
    dense = np.where(mask, rng.standard_normal((rows, cols)), 0.0)
    return sp.csr_matrix(dense), dense


def split_columns(monkeypatch, cores):
    """Make ``conjugate_gradient`` split its columns into up to ``cores`` groups, however small."""
    monkeypatch.setattr(linalg, "_cores", lambda: cores)
    monkeypatch.setattr(linalg, "_GROUP_ENTRIES", 1)


def knn_hypergraph(X, k) -> Hypergraph:
    """The kNN hypergraph over the rows of ``X``, as ``bench.build_operators`` builds it."""
    knn, _ = knn_indices(X, k)
    return build_knn_hypergraph(knn)


def knn_adjacency(X, k) -> sp.csr_matrix:
    """The Gaussian kNN adjacency over the rows of ``X`` that both graph operators take."""
    return gaussian_knn_adjacency(*knn_indices(X, k))


def reference_adjacency(X, knn) -> sp.csr_matrix:
    """The Gaussian kNN adjacency with every distance computed again from ``X``.

    The reference for ``gaussian_knn_adjacency``, which reads the distances
    the kNN pass kept: the same sigma, weights, floor and symmetric relation,
    from ``pair_sq_distances`` on each (row, neighbor) pair of ``knn``.
    """
    n = len(X)
    sq_dist = pair_sq_distances(X, np.repeat(np.arange(n), knn.shape[1]), knn.ravel())
    sigma = float(np.sqrt(sq_dist.reshape(n, -1)[:, -1]).mean())
    width = 2.0 * sigma ** 2
    if not np.finfo(np.float64).tiny <= width < np.inf:
        raise ValueError(f"sigma must be positive and 2 sigma^2 a normal float, got {sigma}")
    A = _symmetric_knn(knn, np.exp(-sq_dist / width))
    A.data[A.data < _WEIGHT_FLOOR] = 0.0
    A.eliminate_zeros()
    return A


def random_hypergraph(rng, n, k=3, dim=3) -> Hypergraph:
    """kNN hypergraph over seeded random points."""
    return knn_hypergraph(rng.standard_normal((n, dim)), k)


def random_sym_operator(rng, n, k=3, dim=3):
    return hypergraph_operator(random_hypergraph(rng, n, k, dim), "sym")


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax, the reference for the network's probabilities."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def csr_equal(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """Whether ``a`` and ``b`` store the same arrays: no sorting, summing or pruning first."""
    return (a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and a.data.dtype == b.data.dtype
            and a.data.tobytes() == b.data.tobytes())


def is_canonical(matrix: sp.csr_matrix) -> bool:
    """Whether every row of ``matrix`` stores strictly increasing column indices.

    Asked of a fresh matrix over the same arrays, so no flag cached by scipy
    on ``matrix`` can answer instead of the arrays.
    """
    fresh = sp.csr_matrix((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    return fresh.has_canonical_format


def knn_oracle(X, k):
    """Exhaustive sort by (distance, index) per query row."""
    n = X.shape[0]
    out = np.empty((n, k), dtype=np.int64)
    for i in range(n):
        pairs = sorted((np.linalg.norm(X[i] - X[j]), j) for j in range(n) if j != i)
        out[i] = [j for _, j in pairs[:k]]
    return out


def single_vector_cg(apply, b, tol, max_iter):
    """Reference conjugate gradients on one right-hand-side vector from x = 0.

    Returns (x, iterations, residual); ``hgssl.linalg.conjugate_gradient``
    must match it column by column.
    """
    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x, 0, 0.0
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    residual = np.sqrt(rs) / b_norm
    if residual <= tol:
        return x, 0, residual
    for iteration in range(1, max_iter + 1):
        Ap = apply(p)
        alpha = rs / float(p @ Ap)
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        residual = np.sqrt(rs_new) / b_norm
        if residual <= tol:
            return x, iteration, residual
        p = r + (rs_new / rs) * p
        rs = rs_new
    return x, max_iter, residual
