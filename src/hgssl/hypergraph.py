"""kNN hypergraph and graph construction and their propagation operators.

Both structures rest on one rule, the symmetric kNN relation (``_symmetric_knn``):
i ~ j when either is among the other's k nearest neighbors.  Hyperedge j of the
hypergraph holds j itself (so every hyperedge has at least two members) and every
point related to j; hyperedge weights are 1 (W = I below).

Every structure here rests on one exact kNN pass, ``knn_indices``.  It takes
squared distances from a blocked matrix product, ||x_i||^2 + ||x_j||^2 -
2 X_b X^T, keeps each row's candidates within a certified floating-point
error bound of its k-th smallest value, and reranks only those candidates
with the difference formula ``pair_sq_distances``.  The bound (derived in
``knn_indices``) is wide enough that no true neighbor or tie can fall outside
the shortlist, so the result equals an exhaustive sort by (distance, index).
The pass returns the neighbor lists with their exact squared distances, the
rerank's own values, and the builders take that output rather than
recomputing it: ``build_knn_hypergraph(knn)`` takes the lists and
``gaussian_knn_adjacency(knn, sq_dist)`` the lists and the distances, so no
distance is computed twice.  The adjacency A feeds both ``build_knn_graph(A)``
and ``gcn_operator(A)``.  Only the adjacency prunes (``_WEIGHT_FLOOR``), and
it rejects a Gaussian width whose 2 sigma^2 is not a normal float; every
sparse matrix is made canonical where it is built.

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
it is there for inspection (tests, demos, nnz reports) only.  ``save_operator``
and ``load_operator`` cache the factors in an uncompressed zip archive, whose
members zipfile checks against their CRC-32 as it reads them.
"""

import json
import os
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import matmul
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .errors import DegenerateStructureError, FormatError, ShapeError
from .linalg import as_dense, check_out, column_blocks, diag_scale

NORMALIZATIONS = ("sym", "rw", "graph_sym", "gcn")

# A kNN distance tile holds min(_TILE_ROWS, _TILE_BUDGET // n) rows, so at
# most min(256 n, 2^21) entries (16 MB of f64), or one row once n > 2^21.  Below
# about 256 rows the tile's GEMM slows at d = 784; above it a tile only adds
# memory.  The k-th-value partition copies at most _PARTITION_ROWS rows of a
# tile at a time, which is less than the whole tile while
# n < _TILE_BUDGET / _PARTITION_ROWS (32768).
_TILE_BUDGET = 1 << 21
_TILE_ROWS = 256
_PARTITION_ROWS = 64
# Coordinates gathered per chunk of pair distances: 2 MB of f64 per array.
_PAIR_BUDGET = 1 << 18
_UNIT_ROUNDOFF = 2.0 ** -53
# Smallest subnormal: a product that underflows is off by at most half of it.
_SUBNORMAL_MIN = 2.0 ** -1074
# Largest squared row norm knn_indices accepts: below it, sums of four such
# norms (the most any squared distance or its Gram expansion reaches) are finite.
_SQ_NORM_LIMIT = np.finfo(np.float64).max / 8
# Gaussian adjacency weights below this are not stored (nor are underflowed zeros).
_WEIGHT_FLOOR = 1e-15


@dataclass(frozen=True)
class Hypergraph:
    """A hypergraph with unit hyperedge weights, given by its incidence matrix.

    The degrees are derived from ``incidence``.  Every hyperedge must hold at
    least 2 vertices and every vertex must lie in some hyperedge, or
    ``DegenerateStructureError`` is raised.
    """
    incidence: sp.csr_matrix                        # n x n_e, 0/1 entries
    vertex_degrees: np.ndarray = field(init=False)  # length n, sum_e h(v, e)
    edge_degrees: np.ndarray = field(init=False)    # length n_e, sum_v h(v, e)

    def __post_init__(self):
        vertex_degrees = np.asarray(self.incidence.sum(axis=1)).ravel()
        edge_degrees = np.asarray(self.incidence.sum(axis=0)).ravel()
        if edge_degrees.min(initial=np.inf) < 2:
            raise DegenerateStructureError("hyperedge with fewer than 2 vertices")
        if vertex_degrees.min(initial=np.inf) <= 0:
            raise DegenerateStructureError("vertex with zero degree")
        object.__setattr__(self, "vertex_degrees", vertex_degrees)
        object.__setattr__(self, "edge_degrees", edge_degrees)


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
        """Theta as one sorted CSR matrix, multiplied out on first access; do not modify."""
        if len(self.factors) == 1:
            return self.factors[0]
        return reduce(matmul, self.factors).sorted_indices()

    def apply(self, V: np.ndarray, out: np.ndarray = None) -> np.ndarray:
        """Theta @ V, one sparse product per factor, right to left.

        ``out``, a float64 array of the result's shape, receives the product
        and is returned; it may be ``V`` itself, which then holds Theta V in
        place of V, every bit as a fresh result would.
        """
        if out is not None:
            check_out(out, (self.shape[0],) + V.shape[1:])
        return _chain(self.factors[::-1], V, out)

    def apply_T(self, V: np.ndarray) -> np.ndarray:
        """Theta^T @ V; the same product as :meth:`apply` except for ``rw``."""
        if self.normalization != "rw":
            return self.apply(V)
        return _chain([factor.T for factor in self.factors], V)


def _chain(factors, V: np.ndarray, out: np.ndarray = None) -> np.ndarray:
    """``factors[-1] @ ... @ factors[0] @ V``, written to ``out`` if given.

    A V wider than one block of ``linalg.column_blocks``, the CG blocks' rule,
    runs in those blocks of columns, so its intermediate products are one
    block wide.  Each column's product does not depend on the others, so the
    blocks leave every bit of the result as one product gives it, and a
    block's columns of ``out`` may overwrite the same columns of V once their
    product is formed.
    """
    blocks = column_blocks(len(V), V.shape[1]) if V.ndim == 2 else ()
    if len(blocks) > 1:
        if out is None:
            out = np.empty((factors[-1].shape[0], V.shape[1]))
        for block in blocks:
            _chain(factors, V[:, block], out[:, block])
        return out
    for factor in factors:
        V = factor @ V
    if out is None:
        return V
    out[...] = V
    return out


def pair_sq_distances(X: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """||X[rows[t]] - X[cols[t]]||^2 for every t, by the difference formula.

    This is the one definition of an exact squared distance in the package.
    The kNN rerank calls it, and the Gaussian graph weights read the values
    the rerank kept (see :func:`knn_indices`).  Pairs are
    gathered ``_PAIR_BUDGET`` coordinates at a time; each pair's sum runs over
    one contiguous row of the gathered block, so the result does not depend on
    the chunking.
    """
    out = np.empty(len(rows))
    step = max(1, _PAIR_BUDGET // max(1, X.shape[1]))
    for start in range(0, len(rows), step):
        stop = start + step
        diff = X[rows[start:stop]]
        diff -= X[cols[start:stop]]
        diff *= diff
        out[start:stop] = diff.sum(axis=1)
    return out


def _gram_sq_distances(X: np.ndarray, sq_norms: np.ndarray, start: int, stop: int) -> np.ndarray:
    """G = ||x_i||^2 + ||x_j||^2 - 2 x_i.x_j for rows start:stop against all rows.

    One matrix product, edited in place; the diagonal (each row against
    itself) is set to inf.
    """
    G = X[start:stop] @ X.T
    G *= -2.0
    G += sq_norms[start:stop, None]
    G += sq_norms
    local = np.arange(stop - start)
    G[local, start + local] = np.inf
    return G


def _certified_slack(sq_norms: np.ndarray, dim: int) -> np.ndarray:
    """s_i >= |G_ij - pair_sq_distances(i, j)| for every j, in floating point.

    s_i = 2 gamma_{d+4} (||x_i|| + max_j ||x_j||)^2 + 4 (d + 4) eta with
    gamma_m = m u / (1 - m u), u = 2^-53 and eta = 2^-1074; see
    :func:`knn_indices` for the derivation.
    """
    m = dim + 4
    gamma = m * _UNIT_ROUNDOFF / (1.0 - m * _UNIT_ROUNDOFF)
    norms = np.sqrt(sq_norms)
    return 2.0 * gamma * (norms + norms.max()) ** 2 + 4 * m * _SUBNORMAL_MIN


def knn_indices(X: np.ndarray, k: int) -> tuple:
    """Exact k nearest neighbors of every row of ``X`` (Euclidean, self excluded).

    Returns ``(knn, sq_dist)``, two n x k arrays.  Row i of ``knn`` lists its
    k nearest rows sorted by ascending distance; equal distances are broken by
    the lower row index.  ``sq_dist[i, t]`` is the squared distance from row i
    to row ``knn[i, t]``: the value of :func:`pair_sq_distances` on that
    (row, neighbor) pair, bit for bit, so duplicated points tie exactly.
    Rows holding a NaN or an infinity, or whose squared norm could overflow a
    distance, raise ``ValueError`` naming the first such row.

    Algorithm, per tile of ``min(_TILE_ROWS, _TILE_BUDGET // n)`` rows (at
    least one), so at most min(256 n, 2^21) distances at a time:

    1. G = ||x_i||^2 + ||x_j||^2 - 2 X_b X^T, one matrix product (BLAS).
    2. Shortlist every j with G_ij <= kth_i + 2 s_i, where kth_i is the k-th
       smallest G in row i, taken by partitioning ``_PARTITION_ROWS`` rows of
       G at a time, and s_i comes from :func:`_certified_slack`.
    3. Rerank only the shortlisted pairs with :func:`pair_sq_distances` and
       keep, per row, the first k in (distance, index) order, with their
       distances.

    Why the shortlist cannot miss a neighbor.  Let D_ij be the exact real
    squared distance, d_ij its computed value from step 3, u = 2^-53,
    eta = 2^-1074, gamma_m = m u / (1 - m u) and
    r_ij = (||x_i|| + ||x_j||)^2 >= D_ij.  A floating-point inner product of
    length d, in any summation order and with or without fused multiply-add,
    satisfies |fl(x.y) - x.y| <= gamma_d |x|.|y| + d (eta / 2) (1 + gamma_d):
    each product that underflows adds at most eta / 2, and additions of
    subnormals are exact.  This applies to the two squared norms and to the
    Gram entry (the factor -2 is exact); the two further additions that form
    G bring it to |G_ij - D_ij| <= gamma_{d+2} r_ij + 2 d eta (1 + gamma).
    Step 3 rounds one subtraction and one product per coordinate and d - 1
    additions of non-negative terms, so |d_ij - D_ij| <= gamma_{d+2} D_ij +
    d (eta / 2) (1 + gamma).  Hence |G_ij - d_ij| <= 2 gamma_{d+2} r_ij +
    3 d eta <= s_i.  The k columns with G_ij <= kth_i all have
    d_ij <= kth_i + s_i, so the k-th smallest d in row i, t_i, is at most
    kth_i + s_i.  Every j with d_ij <= t_i then has
    G_ij <= d_ij + s_i <= kth_i + 2 s_i and is in the shortlist, ties at t_i
    included.  s_i is evaluated with gamma_{d+4} in place of gamma_{d+2} (a
    relative margin of 2 / (d + 2)) and with 4 (d + 4) eta in place of
    3 d eta; that covers the O(d u) relative rounding in evaluating s_i
    itself and the rounding of kth_i + 2 s_i (at most u (|kth_i| + 2 s_i),
    with |kth_i| <= (1 + gamma) r_ij + 2 d eta).  The squared-norm limit
    keeps every quantity above finite.  No row needs a fallback; a row with
    many ties (duplicate points) only gets a longer shortlist.
    """
    X = np.ascontiguousarray(as_dense(X))
    n, dim = X.shape
    if not (1 <= k < n):
        raise ValueError(f"k must satisfy 1 <= k < n, got k={k}, n={n}")
    # NaN compares false, so one test catches NaN, inf and norms that overflow.
    sq_norms = np.einsum("ij,ij->i", X, X)
    bad = np.flatnonzero(~(sq_norms <= _SQ_NORM_LIMIT))
    if bad.size:
        row = int(bad[0])
        raise ValueError(f"knn_indices: row {row} of X is not finite or too large "
                         f"(squared norm {sq_norms[row]:.3g}, limit {_SQ_NORM_LIMIT:.3g})")
    slack = _certified_slack(sq_norms, dim)
    out = np.empty((n, k), dtype=np.int64)
    out_sq = np.empty((n, k))
    block = max(1, min(_TILE_ROWS, _TILE_BUDGET // n))
    for start in range(0, n, block):
        stop = min(start + block, n)
        G = _gram_sq_distances(X, sq_norms, start, stop)
        # kth_i + 2 s_i.  Partitioning a few rows at a time bounds the copy
        # np.partition makes; the k-th value of a row does not depend on it.
        bound = 2.0 * slack[start:stop]
        for row in range(0, stop - start, _PARTITION_ROWS):
            chunk = slice(row, row + _PARTITION_ROWS)
            bound[chunk] += np.partition(G[chunk], k - 1, axis=1)[:, k - 1]
        # Row-major flat positions: 2-D nonzero is an order of magnitude slower.
        flat = np.flatnonzero(G <= bound[:, None])
        del G
        local, cand = np.divmod(flat, n)
        dist = pair_sq_distances(X, local + start, cand)
        order = np.lexsort((cand, dist, local))
        # Every row has at least k candidates; take the first k of each run.
        first = np.zeros(stop - start, dtype=np.int64)
        np.cumsum(np.bincount(local, minlength=stop - start)[:-1], out=first[1:])
        keep = order[first[:, None] + np.arange(k)]
        out[start:stop] = cand[keep]
        out_sq[start:stop] = dist[keep]
    return out, out_sq


def _symmetric_knn(knn: np.ndarray, values: np.ndarray) -> sp.csr_matrix:
    """M.maximum(M.T) for M[i, knn[i, t]] = values[i k + t]: the symmetric kNN relation.

    A mutual pair keeps the larger value; no zero is stored, but a NaN would be.
    A knn that is not a 2-D integer array, or a row listing an index outside
    [0, n), twice or itself, raises ``ValueError``: scipy would cast float
    indices to integers without a word.
    """
    if knn.ndim != 2 or knn.dtype.kind not in "iu":
        raise ValueError(f"knn must be an n x k array of integer indices, got shape "
                         f"{knn.shape} of dtype {knn.dtype}")
    n, k = knn.shape
    M = sp.csr_matrix((values, knn.ravel(), np.arange(0, n * k + 1, k)), shape=(n, n))
    M.check_format(full_check=True)  # scipy's kernels index memory with unchecked columns
    M.sort_indices()
    if not M.has_canonical_format or np.any(knn == np.arange(n)[:, None]):
        raise ValueError("a row of knn repeats a neighbor or lists itself")
    return M.maximum(M.T)


def build_knn_hypergraph(knn: np.ndarray) -> Hypergraph:
    """The n-hyperedge kNN hypergraph of the neighbor lists ``knn`` of ``knn_indices``.

    Hyperedge e_j holds its centroid j and every point related to j by the
    symmetric kNN relation: H is ``_symmetric_knn`` of ones, plus I.
    """
    neighbors = np.asarray(knn)
    H = _symmetric_knn(neighbors, np.ones(neighbors.size)) + sp.eye(len(neighbors), format="csr")
    return Hypergraph(H)


def hypergraph_operator(hg: Hypergraph, normalization: str) -> PropagationOperator:
    """The sym or rw hypergraph propagation operator as its two incidence factors."""
    if normalization not in ("sym", "rw"):
        raise ValueError(f"normalization must be 'sym' or 'rw', got {normalization!r}")
    # Theta = (Dv^-a H W De^-1) (H^T Dv^-b): a = b = 1/2 for sym; a = 1, b = 0 for rw.
    edge_scale = 1.0 / hg.edge_degrees
    if normalization == "sym":
        inv_sqrt = 1.0 / np.sqrt(hg.vertex_degrees)
        factors = (diag_scale(hg.incidence, left=inv_sqrt, right=edge_scale),
                   diag_scale(hg.incidence.T, right=inv_sqrt))
    else:
        factors = (diag_scale(hg.incidence, left=1.0 / hg.vertex_degrees, right=edge_scale),
                   hg.incidence.T.tocsr())
    return PropagationOperator(factors=factors, normalization=normalization)


def gaussian_knn_adjacency(knn: np.ndarray, sq_dist: np.ndarray) -> sp.csr_matrix:
    """Symmetrized kNN adjacency A with Gaussian weights, shared by the graph operators.

    ``knn, sq_dist = knn_indices(X, k)``: the neighbor lists and their squared
    distances.  The edges are the symmetric kNN relation (``_symmetric_knn``),
    weighted exp(-||x_i - x_j||^2 / (2 sigma^2)) with zero diagonal, where
    sigma is the mean distance to the k-th neighbor.  Weights below
    ``_WEIGHT_FLOOR`` are not stored.  Distances not of the lists' shape, and
    a negative or non-finite distance, raise ``ValueError``; so do a sigma of
    0 and one whose 2 sigma^2 is not a normal float (every weight would be 0
    or NaN).
    """
    neighbors = np.asarray(knn)
    sq_dist = np.asarray(sq_dist, dtype=np.float64)
    if sq_dist.shape != neighbors.shape:
        raise ValueError(f"distances of shape {sq_dist.shape} do not match neighbor "
                         f"lists of shape {neighbors.shape}")
    # NaN compares false, so one test catches NaN, negatives and inf.
    bad = np.flatnonzero(~((0.0 <= sq_dist) & (sq_dist < np.inf)))
    if bad.size:
        row, col = np.unravel_index(bad[0], sq_dist.shape)
        raise ValueError(f"squared distance [{row}, {col}] is {float(sq_dist[row, col])!r}; "
                         f"distances must be finite and non-negative")

    # Mean distance to the k-th neighbor, the last of each row.
    sigma = float(np.sqrt(sq_dist[:, -1]).mean())
    width = 2.0 * sigma ** 2
    if not np.finfo(np.float64).tiny <= width < np.inf:
        raise ValueError("sigma must be positive and 2 sigma^2 a normal float, "
                         f"got sigma = {sigma:.3g}, 2 sigma^2 = {width:.3g}")
    # Mutual pairs' two distances are bit-equal (x_i - x_j = -(x_j - x_i) exactly).
    A = _symmetric_knn(neighbors, np.exp(-sq_dist.ravel() / width))
    A.data[A.data < _WEIGHT_FLOOR] = 0.0
    A.eliminate_zeros()
    return A


def _sym_normalized(M: sp.csr_matrix, normalization: str) -> PropagationOperator:
    """The operator D^{-1/2} M D^{-1/2}, D the row sums of ``M`` (Zhou et al. 2004)."""
    degrees = np.asarray(M.sum(axis=1)).ravel()
    if degrees.min(initial=np.inf) <= 0:
        raise DegenerateStructureError("isolated vertex in kNN graph")
    inv_sqrt = 1.0 / np.sqrt(degrees)
    return PropagationOperator(factors=(diag_scale(M, left=inv_sqrt, right=inv_sqrt),),
                               normalization=normalization)


def build_knn_graph(A: sp.csr_matrix) -> PropagationOperator:
    """Symmetrically normalized graph operator D^{-1/2} A D^{-1/2} of adjacency ``A``."""
    return _sym_normalized(A, "graph_sym")


def gcn_operator(A: sp.csr_matrix) -> PropagationOperator:
    """Self-loop-renormalized operator D~^{-1/2} (A + I) D~^{-1/2} of adjacency ``A``."""
    return _sym_normalized(A + sp.eye(A.shape[0], format="csr"), "gcn")


# ---------------------------------------------------------------------------
# Operator cache: an uncompressed zip archive (zipfile, ZIP_STORED).
#
#   meta.json   {"version": 3, "normalization": "sym" | "rw" | "graph_sym" | "gcn",
#                "shapes": [[rows, cols], ...]}     one shape per factor
#   i/indptr    i32[rows + 1]   for factor i = 0, 1 in product order,
#   i/indices   i32[nnz]        little-endian
#   i/data      f64[nnz]
#
# zipfile reads each member with one read from the open file and checks its
# CRC-32 as it does; the member's bytes then back the factor's arrays, so a
# load holds the members once.  The members read are the ones meta.json
# names, never those the archive's directory (which has no CRC) lists.
# Members carry a fixed timestamp, so saves are byte-reproducible.
# ---------------------------------------------------------------------------

CACHE_VERSION = 3
_META = "meta.json"
_MEMBER_TIME = (1980, 1, 1, 0, 0, 0)
# int32 indices, as scipy holds them, so a loaded factor needs no conversion.
_INDEX = "<i4"
_INT32_MAX = np.iinfo(np.int32).max
# What zipfile, json, numpy and scipy raise on a malformed archive or metadata.
_PARSE_ERRORS = (zipfile.BadZipFile, EOFError, KeyError, NotImplementedError, RuntimeError,
                 TypeError, ValueError, zlib.error)


def save_operator(path, op: PropagationOperator):
    """Write a propagation operator's factors to a cache archive at ``path``.

    The archive goes to a temporary file next to ``path`` that is renamed over
    it once complete, so ``path`` never holds a partial operator.  A factor
    that is not canonical CSR raises ``ValueError``, since it could not be
    loaded, as does one with 2^31 or more rows, columns or nonzeros (int32 indices).
    """
    path = Path(path)
    if not all(factor.has_canonical_format for factor in op.factors):
        raise ValueError(f"{path}: a factor's row has unsorted or repeated column indices")
    if any(max(factor.nnz, *factor.shape) > _INT32_MAX for factor in op.factors):
        raise ValueError(f"{path}: a factor is too large for int32 indices")
    meta = {"version": CACHE_VERSION, "normalization": op.normalization,
            "shapes": [factor.shape for factor in op.factors]}
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh, zipfile.ZipFile(fh, "w") as archive:
            archive.writestr(zipfile.ZipInfo(_META, _MEMBER_TIME), json.dumps(meta))
            for i, factor in enumerate(op.factors):
                for name, dtype in (("indptr", _INDEX), ("indices", _INDEX), ("data", "<f8")):
                    archive.writestr(zipfile.ZipInfo(f"{i}/{name}", _MEMBER_TIME),
                                     getattr(factor, name).astype(dtype, copy=False).tobytes())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _read_factor(archive, i, shape):
    """Factor ``i`` of the archive, checked against its metadata ``shape``."""
    rows, cols = shape
    indptr, indices = (np.frombuffer(archive.read(f"{i}/{name}"), dtype=_INDEX)
                       for name in ("indptr", "indices"))
    values = np.frombuffer(archive.read(f"{i}/data"), dtype="<f8")
    if rows < 0 or len(indptr) != rows + 1 or len(values) != len(indices):
        raise FormatError(f"factor {i}'s arrays do not fit its shape {shape}")
    if indptr[0] != 0 or indptr[-1] != len(indices) or np.any(np.diff(indptr) < 0):
        raise FormatError("corrupt row offsets")
    if len(indices) and (indices.min() < 0 or indices.max() >= cols):
        raise FormatError(f"column index outside [0, {cols})")
    factor = sp.csr_matrix((values, indices, indptr), shape=(rows, cols))
    if not factor.has_canonical_format:
        raise FormatError("a row's column indices are unsorted or repeated")
    return factor


def load_operator(path) -> PropagationOperator:
    """Load a propagation operator written by :func:`save_operator`.

    Each member is read once, straight from the open file, and the factors'
    arrays are read-only views of those bytes; the file is never held whole.
    An error opening the file keeps its type (a missing file raises
    ``FileNotFoundError``).  A file that is not such an archive, a member that
    fails its CRC-32 and content that fails a check raise ``FormatError``
    naming the file.  So does an ``OSError`` while reading the opened file (a
    seek to a corrupt member offset, or a failing disk); its message then
    says "I/O error" and keeps the OS error, so it is told apart from
    malformed content.
    """
    with open(path, "rb") as fh:
        try:
            with zipfile.ZipFile(fh) as archive:
                meta = json.loads(archive.read(_META))
                if meta["version"] != CACHE_VERSION:
                    raise FormatError(f"unsupported cache version {meta['version']}")
                if meta["normalization"] not in NORMALIZATIONS:
                    raise FormatError(f"unknown normalization {meta['normalization']!r}")
                if len(meta["shapes"]) not in (1, 2):
                    raise FormatError(f"expected 1 or 2 factors, got {len(meta['shapes'])}")
                factors = tuple(_read_factor(archive, i, shape)
                                for i, shape in enumerate(meta["shapes"]))
            return PropagationOperator(factors=factors, normalization=meta["normalization"])
        except OSError as exc:
            raise FormatError(f"{path}: I/O error reading cache: {exc}") from exc
        except _PARSE_ERRORS as exc:
            raise FormatError(f"{path}: {exc}") from exc
