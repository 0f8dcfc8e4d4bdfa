"""kNN hypergraph and graph construction and their propagation operators.

A hypergraph built from n points has one hyperedge per point: hyperedge j
contains point j itself (so every hyperedge has at least two members) plus
every point i for which i is among the k nearest neighbors of j or j is among
the k nearest neighbors of i.  Hyperedge weights are 1.

Propagation operators are the n x n smoothing matrices shared by the
closed-form solvers and the neural forward passes, which use them only through
``apply`` (Theta V) and ``apply_T`` (Theta^T V):

  sym        Dv^{-1/2} H W De^{-1} H^T Dv^{-1/2}   (symmetric, eigenvalues in [0, 1])
  rw         Dv^{-1} H W De^{-1} H^T               (row sums 1)
  graph_sym  D^{-1/2} A D^{-1/2} on a Gaussian-weighted kNN graph
  gcn        D~^{-1/2} (A + I) D~^{-1/2} on the same graph
"""

import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp
from scipy.spatial.distance import cdist

from .errors import DegenerateStructureError, FormatError
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
    matrix: sp.csr_matrix
    normalization: str

    def __post_init__(self):
        if self.normalization not in NORMALIZATIONS:
            raise ValueError(f"unknown normalization {self.normalization!r}")

    @property
    def shape(self):
        return self.matrix.shape

    def apply(self, V: np.ndarray) -> np.ndarray:
        """Theta @ V."""
        return self.matrix @ V

    def apply_T(self, V: np.ndarray) -> np.ndarray:
        """Theta^T @ V; the same product as :meth:`apply` except for ``rw``."""
        if self.normalization == "rw":
            return self.matrix.T @ V
        return self.matrix @ V


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
    """Assemble the sym or rw hypergraph propagation operator."""
    if normalization not in ("sym", "rw"):
        raise ValueError(f"normalization must be 'sym' or 'rw', got {normalization!r}")
    if hg.vertex_degrees.min(initial=np.inf) <= 0 or hg.edge_degrees.min(initial=np.inf) <= 0:
        raise DegenerateStructureError("degrees must be strictly positive")
    scaled = diag_scale(hg.incidence, right=hg.edge_weights / hg.edge_degrees)
    kernel = as_csr(scaled @ hg.incidence.T)
    if normalization == "sym":
        inv_sqrt = 1.0 / np.sqrt(hg.vertex_degrees)
        matrix = diag_scale(kernel, left=inv_sqrt, right=inv_sqrt)
    else:
        matrix = diag_scale(kernel, left=1.0 / hg.vertex_degrees)
    return PropagationOperator(matrix=matrix, normalization=normalization)


def _gaussian_knn_adjacency(X, k, sigma, knn=None):
    """Symmetrized kNN adjacency with Gaussian weights; returns (A, sigma)."""
    X = as_dense(X)
    n = X.shape[0]
    if n == 1:
        return sp.csr_matrix((1, 1)), float(sigma) if sigma != "auto" else 1.0
    neighbors = knn_indices(X, k) if knn is None else np.asarray(knn)
    arange = np.arange(n, dtype=np.int64)
    src = np.repeat(arange, neighbors.shape[1])
    dst = neighbors.ravel()
    sq_dist = ((X[src] - X[dst]) ** 2).sum(axis=1)

    if sigma == "auto":
        # Mean distance to the k-th neighbor.
        kth_dist = np.sqrt(((X - X[neighbors[:, -1]]) ** 2).sum(axis=1))
        sigma = float(kth_dist.mean())
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
    return as_csr(A), sigma


def build_knn_graph(X: np.ndarray, k: int, sigma="auto",
                    knn: np.ndarray = None) -> PropagationOperator:
    """Symmetrically normalized Gaussian kNN graph operator D^{-1/2} A D^{-1/2}.

    Edge i-j exists when either point is among the other's k nearest
    neighbors; weights are exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero
    diagonal.  ``sigma="auto"`` uses the mean distance to the k-th neighbor.
    """
    A, _ = _gaussian_knn_adjacency(X, k, sigma, knn=knn)
    degrees = np.asarray(A.sum(axis=1)).ravel()
    if degrees.min(initial=np.inf) <= 0:
        raise DegenerateStructureError("isolated vertex in kNN graph")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    matrix = diag_scale(A, left=inv_sqrt, right=inv_sqrt)
    return PropagationOperator(matrix=matrix, normalization="graph_sym")


def gcn_operator(X: np.ndarray, k: int, sigma="auto",
                 knn: np.ndarray = None) -> PropagationOperator:
    """Self-loop-renormalized graph operator D~^{-1/2} (A + I) D~^{-1/2}."""
    A, _ = _gaussian_knn_adjacency(X, k, sigma, knn=knn)
    A_tilde = as_csr(A + sp.eye(A.shape[0], format="csr"))
    degrees = np.asarray(A_tilde.sum(axis=1)).ravel()
    inv_sqrt = 1.0 / np.sqrt(degrees)
    matrix = diag_scale(A_tilde, left=inv_sqrt, right=inv_sqrt)
    return PropagationOperator(matrix=matrix, normalization="gcn")


# ---------------------------------------------------------------------------
# Operator cache: little-endian binary CSR.
#
#   magic   4 bytes  b"HGOP"
#   version u32      1
#   norm    u8       0=sym 1=rw 2=graph_sym 3=gcn
#   rows    u64
#   cols    u64
#   nnz     u64
#   indptr  i64[rows + 1]
#   indices i64[nnz]
#   data    f64[nnz]
# ---------------------------------------------------------------------------

_CACHE_MAGIC = b"HGOP"
CACHE_VERSION = 1
_NORM_CODES = {name: code for code, name in enumerate(NORMALIZATIONS)}


def save_operator(path, op: PropagationOperator):
    """Serialize a propagation operator to the binary CSR cache format.

    The bytes go to a temporary file next to ``path`` that is renamed over it
    once complete, so ``path`` never holds a partial operator.
    """
    matrix = as_csr(op.matrix)
    rows, cols = matrix.shape
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_CACHE_MAGIC)
            fh.write(struct.pack("<IB", CACHE_VERSION, _NORM_CODES[op.normalization]))
            fh.write(struct.pack("<QQQ", rows, cols, matrix.nnz))
            fh.write(matrix.indptr.astype("<i8").tobytes())
            fh.write(matrix.indices.astype("<i8").tobytes())
            fh.write(matrix.data.astype("<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def load_operator(path) -> PropagationOperator:
    """Load a propagation operator written by :func:`save_operator`."""
    data = Path(path).read_bytes()
    header = 4 + 5 + 24
    if len(data) < header:
        raise FormatError(f"{path}: truncated operator cache")
    if data[:4] != _CACHE_MAGIC:
        raise FormatError(f"{path}: bad magic {data[:4]!r}")
    version, norm_code = struct.unpack("<IB", data[4:9])
    if version != CACHE_VERSION:
        raise FormatError(f"{path}: unsupported cache version {version}")
    if norm_code >= len(NORMALIZATIONS):
        raise FormatError(f"{path}: unknown normalization code {norm_code}")
    rows, cols, nnz = struct.unpack("<QQQ", data[9:33])
    need = header + 8 * (rows + 1) + 8 * nnz + 8 * nnz
    if len(data) < need:
        raise FormatError(f"{path}: expected {need} bytes, file has {len(data)}")
    offset = header
    indptr = np.frombuffer(data, dtype="<i8", count=rows + 1, offset=offset)
    offset += 8 * (rows + 1)
    indices = np.frombuffer(data, dtype="<i8", count=nnz, offset=offset)
    offset += 8 * nnz
    values = np.frombuffer(data, dtype="<f8", count=nnz, offset=offset)
    if indptr[0] != 0 or indptr[-1] != nnz or np.any(np.diff(indptr) < 0):
        raise FormatError(f"{path}: corrupt row offsets")
    if nnz and (indices.min() < 0 or indices.max() >= cols):
        raise FormatError(f"{path}: column index outside [0, {cols})")
    matrix = sp.csr_matrix((values, indices, indptr), shape=(rows, cols))
    return PropagationOperator(matrix=as_csr(matrix),
                               normalization=NORMALIZATIONS[norm_code])
