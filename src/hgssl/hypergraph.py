"""kNN hypergraph and graph construction and their propagation operators.

A hypergraph built from n points has one hyperedge per point: hyperedge j
contains point j itself (so every hyperedge has at least two members) plus
every point i for which i is among the k nearest neighbors of j or j is among
the k nearest neighbors of i.  Hyperedge weights are 1.

Propagation operators are the n x n smoothing operators shared by the
closed-form solvers and the neural forward passes, which use them only through
``apply`` (Theta V) and ``apply_T`` (Theta^T V).  An operator is stored as a
product of sparse factors and applied right to left:

  sym        (Dv^{-1/2} H W De^{-1}) (H^T Dv^{-1/2})  (symmetric, eigenvalues in [0, 1])
  rw         (Dv^{-1} H W De^{-1}) (H^T)              (row sums 1)
  graph_sym  D^{-1/2} A D^{-1/2} on a Gaussian-weighted kNN graph
  gcn        D~^{-1/2} (A + I) D~^{-1/2} on the same graph

The hypergraph operators keep the two incidence factors and never form
H W De^{-1} H^T, which has about 12x the nonzeros of H at k = 5.
``PropagationOperator.matrix`` multiplies the factors out on first access;
it is there for inspection (tests, demos, nnz reports) only.
"""

import os
import struct
import tempfile
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import matmul
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import DegenerateStructureError, FormatError, ShapeError
from .linalg import as_csr, as_dense, diag_scale

NORMALIZATIONS = ("sym", "rw", "graph_sym", "gcn")

# Rows per distance block: caps the blocked brute-force kNN at ~256 MB of f64.
_BLOCK_BUDGET = 1 << 25


@dataclass(frozen=True)
class Hypergraph:
    incidence: sp.csr_matrix     # n x n_e, 0/1 entries
    edge_weights: np.ndarray     # length n_e, positive
    vertex_degrees: np.ndarray   # length n, sum_e w(e) h(v, e)
    edge_degrees: np.ndarray     # length n_e, sum_v h(v, e)


@dataclass(frozen=True)
class PropagationOperator:
    """Theta = factors[0] @ factors[1] @ ..., a chain of sparse CSR factors.

    Graph operators have one factor; hypergraph operators have two.
    """
    factors: tuple
    normalization: str

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")
        if not self.factors:
            raise ValueError("an operator needs at least one factor")
        for left, right in zip(self.factors, self.factors[1:]):
            if left.shape[1] != right.shape[0]:
                raise ShapeError(f"factor shapes {left.shape} and {right.shape} do not chain")
        if self.shape[0] != self.shape[1]:
            raise ShapeError(f"operator must be square, got shape {self.shape}")

    @property
    def shape(self):
        return (self.factors[0].shape[0], self.factors[-1].shape[1])

    @cached_property
    def matrix(self) -> sp.csr_matrix:
        """Theta as one CSR matrix, multiplied out on first access; do not modify."""
        if len(self.factors) == 1:
            return self.factors[0]
        return as_csr(reduce(matmul, self.factors))

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Theta @ V, one sparse product per factor, right to left."""
        for factor in reversed(self.factors):
            V = factor @ V
        return V

    def apply_T(self, V: np.ndarray) -> np.ndarray:
        """Theta^T @ V; the same product as :meth:`apply` except for ``rw``."""
        if self.normalization != "rw":
            return self.apply(V)
        for factor in self.factors:
            V = factor.T @ V
        return V


def knn_indices(X: np.ndarray, k: int) -> np.ndarray:
    """Exact k nearest neighbors of every row of ``X`` (Euclidean, self excluded).

    Row i lists its k nearest rows sorted by ascending distance; equal
    distances are broken by the lower row index.  Distances are evaluated by
    blocked brute force, so duplicated points tie exactly.
    """
    X = np.ascontiguousarray(as_dense(X))
    n = X.shape[0]
    if not (1 <= k < n):
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    out = np.empty((n, k), dtype=np.int64)
    block = max(1, _BLOCK_BUDGET // n)
    for start in range(0, n, block):
        stop = min(start + block, n)
        D = cdist(X[start:stop], X, "sqeuclidean")
        local = np.arange(stop - start)
        D[local, start + local] = np.inf
        kth = np.partition(D, k - 1, axis=1)[:, k - 1]
        for r in local:
            candidates = np.flatnonzero(D[r] <= kth[r])
            # flatnonzero is index-ascending, so a stable sort keeps the tie rule.
            order = np.argsort(D[r, candidates], kind="stable")
            out[start + r] = candidates[order[:k]]
    return out


def build_knn_hypergraph(X: np.ndarray, k: int, knn: np.ndarray = None,
                         include_centroid: bool = True) -> Hypergraph:
    """Build the n-hyperedge kNN hypergraph over the rows of ``X``.

    ``knn`` accepts precomputed ``knn_indices(X, k)`` output for reuse.
    ``include_centroid=False`` drops point j from its own hyperedge, exposing
    the construction's sensitivity to that membership choice.
    """
    X = as_dense(X)
    n = X.shape[0]
    neighbors = knn_indices(X, k) if knn is None else np.asarray(knn)
    arange = np.arange(n, dtype=np.int64)
    cols_of = np.repeat(arange, neighbors.shape[1])
    # i in e_j when i is a neighbor of j (H[N[j,t], j]) or j is a neighbor of
    # i (H[i, N[i,t]]); the centroid adds H[j, j].
    rows = [neighbors.ravel(), cols_of]
    cols = [cols_of, neighbors.ravel()]
    if include_centroid:
        rows.append(arange)
        cols.append(arange)
    data = np.ones(sum(len(r) for r in rows))
    H = sp.coo_matrix((data, (np.concatenate(rows), np.concatenate(cols))),
                      shape=(n, n)).tocsr()
    H.sum_duplicates()
    H.data[:] = 1.0
    H.sort_indices()

    edge_weights = np.ones(n)
    vertex_degrees = np.asarray(H @ edge_weights)
    edge_degrees = np.asarray(H.sum(axis=0)).ravel()
    if edge_degrees.min(initial=np.inf) < 2:
        raise DegenerateStructureError("hyperedge with fewer than 2 vertices")
    if vertex_degrees.min(initial=np.inf) <= 0:
        raise DegenerateStructureError("vertex with zero degree")
    return Hypergraph(incidence=H, edge_weights=edge_weights,
                      vertex_degrees=vertex_degrees, edge_degrees=edge_degrees)


def hypergraph_operator(hg: Hypergraph, normalization: str) -> PropagationOperator:
    """The sym or rw hypergraph propagation operator as its two incidence factors."""
    if normalization not in ("sym", "rw"):
        raise ValueError(f"normalization must be 'sym' or 'rw', got {normalization!r}")
    if hg.vertex_degrees.min(initial=np.inf) <= 0 or hg.edge_degrees.min(initial=np.inf) <= 0:
        raise DegenerateStructureError("degrees must be strictly positive")
    # Theta = (Dv^-a H W De^-1) (H^T Dv^-b): a = b = 1/2 for sym; a = 1, b = 0 for rw.
    edge_scale = hg.edge_weights / hg.edge_degrees
    if normalization == "sym":
        inv_sqrt = 1.0 / np.sqrt(hg.vertex_degrees)
        factors = (diag_scale(hg.incidence, left=inv_sqrt, right=edge_scale),
                   diag_scale(hg.incidence.T, right=inv_sqrt))
    else:
        factors = (diag_scale(hg.incidence, left=1.0 / hg.vertex_degrees, right=edge_scale),
                   as_csr(hg.incidence.T))
    return PropagationOperator(factors=factors, normalization=normalization)


def _gaussian_knn_adjacency(X, k, sigma, knn=None):
    """Symmetrized kNN adjacency with Gaussian weights."""
    X = as_dense(X)
    n = X.shape[0]
    if n == 1:
        return sp.csr_matrix((1, 1))
    neighbors = knn_indices(X, k) if knn is None else np.asarray(knn)
    arange = np.arange(n, dtype=np.int64)
    src = np.repeat(arange, neighbors.shape[1])
    dst = neighbors.ravel()
    sq_dist = ((X[src] - X[dst]) ** 2).sum(axis=1)

    if sigma == "auto":
        # Mean distance to the k-th neighbor, the last of each row's block.
        sigma = float(np.sqrt(sq_dist.reshape(n, -1)[:, -1]).mean())
    sigma = float(sigma)
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")

    rows = np.concatenate([src, dst])
    cols = np.concatenate([dst, src])
    vals = np.exp(-np.concatenate([sq_dist, sq_dist]) / (2.0 * sigma ** 2))
    # Both directions of a mutual pair carry the same weight; keep one copy.
    linear = rows * n + cols
    _, keep = np.unique(linear, return_index=True)
    A = sp.coo_matrix((vals[keep], (rows[keep], cols[keep])), shape=(n, n)).tocsr()
    return as_csr(A)


def build_knn_graph(X: np.ndarray, k: int, sigma="auto",
                    knn: np.ndarray = None) -> PropagationOperator:
    """Symmetrically normalized Gaussian kNN graph operator D^{-1/2} A D^{-1/2}.

    Edge i-j exists when either point is among the other's k nearest
    neighbors; weights are exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero
    diagonal.  ``sigma="auto"`` uses the mean distance to the k-th neighbor.
    """
    A = _gaussian_knn_adjacency(X, k, sigma, knn=knn)
    degrees = np.asarray(A.sum(axis=1)).ravel()
    if degrees.min(initial=np.inf) <= 0:
        raise DegenerateStructureError("isolated vertex in kNN graph")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    matrix = diag_scale(A, left=inv_sqrt, right=inv_sqrt)
    return PropagationOperator(factors=(matrix,), normalization="graph_sym")


def gcn_operator(X: np.ndarray, k: int, sigma="auto",
                 knn: np.ndarray = None) -> PropagationOperator:
    """Self-loop-renormalized graph operator D~^{-1/2} (A + I) D~^{-1/2}."""
    A = _gaussian_knn_adjacency(X, k, sigma, knn=knn)
    A_tilde = as_csr(A + sp.eye(A.shape[0], format="csr"))
    degrees = np.asarray(A_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    matrix = diag_scale(A_tilde, left=inv_sqrt, right=inv_sqrt)
    return PropagationOperator(factors=(matrix,), normalization="gcn")


# ---------------------------------------------------------------------------
# Operator cache: little-endian binary, one CSR block per factor.
#
#   magic     4 bytes  b"HGOP"
#   version   u32      2
#   norm      u8       0=sym 1=rw 2=graph_sym 3=gcn
#   factors   u8       1 or 2
#   then per factor, in product order:
#     rows    u64
#     cols    u64
#     nnz     u64
#     indptr  i64[rows + 1]
#     indices i64[nnz]
#     data    f64[nnz]
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"HGOP"
CACHE_VERSION = 2
_NORM_CODES = {name: code for code, name in enumerate(NORMALIZATIONS)}
_HEADER = struct.Struct("<4sIBB")
_FACTOR_HEADER = struct.Struct("<QQQ")


def save_operator(path, op: PropagationOperator):
    """Serialize a propagation operator's factors to the binary cache format.

    The bytes go to a temporary file next to ``path`` that is renamed over it
    once complete, so ``path`` never holds a partial operator.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<IBB", CACHE_VERSION, _NORM_CODES[op.normalization],
                                 len(op.factors)))
            for factor in op.factors:
                matrix = as_csr(factor)
                fh.write(_FACTOR_HEADER.pack(*matrix.shape, matrix.nnz))
                fh.write(matrix.indptr.astype("<i8").tobytes())
                fh.write(matrix.indices.astype("<i8").tobytes())
                fh.write(matrix.data.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_factor(data, offset, path):
    """The CSR factor whose block starts at ``offset``, and the offset after it."""
    start = offset + _FACTOR_HEADER.size
    if len(data) < start:
        raise FormatError(f"{path}: truncated operator cache")
    rows, cols, nnz = _FACTOR_HEADER.unpack_from(data, offset)
    end = start + 8 * (rows + 1) + 16 * nnz
    if len(data) < end:
        raise FormatError(f"{path}: expected {end} bytes, file has {len(data)}")
    indptr = np.frombuffer(data, dtype="<i8", count=rows + 1, offset=start)
    start += 8 * (rows + 1)
    indices = np.frombuffer(data, dtype="<i8", count=nnz, offset=start)
    start += 8 * nnz
    values = np.frombuffer(data, dtype="<f8", count=nnz, offset=start)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path}: corrupt row offsets")
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise FormatError(f"{path}: column index outside [0, {cols})")
    return as_csr(sp.csr_matrix((values, indices, indptr), shape=(rows, cols))), end


def load_operator(path) -> PropagationOperator:
    """Load a propagation operator written by :func:`save_operator`."""
    data = Path(path).read_bytes()
    if len(data) < _HEADER.size:
        raise FormatError(f"{path}: truncated operator cache")
    magic, version, norm_code, count = _HEADER.unpack_from(data)
    if magic != _CACHE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    if norm_code >= len(NORMALIZATIONS):
        raise FormatError(f"{path}: unknown normalization code {norm_code}")
    if count not in (1, 2):
        raise FormatError(f"{path}: expected 1 or 2 factors, got {count}")
    offset = _HEADER.size
    factors = []
    for _ in range(count):
        factor, offset = _read_factor(data, offset, path)
        factors.append(factor)
    if offset != len(data):
        raise FormatError(f"{path}: {len(data) - offset} trailing bytes after the last factor")
    try:
        return PropagationOperator(factors=tuple(factors),
                                   normalization=NORMALIZATIONS[norm_code])
    except ShapeError as exc:
        raise FormatError(f"{path}: {exc}") from exc
