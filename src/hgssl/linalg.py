"""Sparse-matrix helpers and a conjugate-gradient solver.

Dense matrices are plain float64 ``numpy.ndarray``s; sparse matrices are
``scipy.sparse.csr_matrix`` in canonical form (sorted column indices, summed
duplicates, entries below ``PRUNE_TOL`` in magnitude removed).  ``as_csr``
produces that form and every public operation returns it, so operator algebra
stays deterministic and free of explicitly stored zeros.
"""

from typing import Callable, NamedTuple, Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import NumericalError, ShapeError

# Magnitude below which stored entries are treated as exact zeros.
PRUNE_TOL = 1e-15

LinearOperator = Union[Callable[[np.ndarray], np.ndarray], sp.spmatrix, np.ndarray]


def as_dense(matrix) -> np.ndarray:
    """Return ``matrix`` as a 2-D float64 ndarray."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={X.ndim}")
    return X


def as_csr(matrix, prune_tol: float = PRUNE_TOL) -> sp.csr_matrix:
    """Canonical float64 CSR copy of ``matrix`` with near-zero entries pruned."""
    S = sp.csr_matrix(matrix, dtype=np.float64, copy=True)
    S.sum_duplicates()
    S.sort_indices()
    if S.nnz:
        S.data[np.abs(S.data) < prune_tol] = 0.0
        S.eliminate_zeros()
    return S


def diag_scale(
    S: sp.spmatrix,
    left: Optional[np.ndarray] = None,
    right: Optional[np.ndarray] = None,
) -> sp.csr_matrix:
    """Scale rows by ``left`` and columns by ``right``: D_left @ S @ D_right.

    Either side may be None, meaning no scaling on that side.  The result
    keeps the canonical structure of ``as_csr(S)``; scaled entries are not
    pruned again.
    """
    out = as_csr(S)
    if left is not None:
        left = np.asarray(left, dtype=np.float64)
        if left.shape != (out.shape[0],):
            raise ShapeError(f"left vector length {left.shape} != rows {out.shape[0]}")
        out.data *= np.repeat(left, np.diff(out.indptr))
    if right is not None:
        right = np.asarray(right, dtype=np.float64)
        if right.shape != (out.shape[1],):
            raise ShapeError(f"right vector length {right.shape} != cols {out.shape[1]}")
        out.data *= right[out.indices]
    return out


class CgResult(NamedTuple):
    x: np.ndarray
    iterations: int
    residual: float


def conjugate_gradient(
    apply: LinearOperator,
    b: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> CgResult:
    """Solve A x = b for symmetric positive-definite A by conjugate gradients.

    ``apply`` is either a callable computing A @ v or a matrix supporting ``@``.
    Iterates from x = 0 until the relative residual ||b - A x|| / ||b|| drops
    to ``tol`` or ``max_iter`` is reached; the caller inspects ``iterations``
    and ``residual`` to decide whether a non-converged solve is acceptable.
    Symmetry and positive-definiteness are the caller's responsibility.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    matvec = apply if callable(apply) else (lambda v: apply @ v)

    b = np.asarray(b, dtype=np.float64)
    x = np.zeros_like(b)
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return CgResult(x, 0, 0.0)

    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    residual = np.sqrt(rs) / b_norm
    if residual <= tol:
        return CgResult(x, 0, residual)

    for iteration in range(1, max_iter + 1):
        Ap = np.asarray(matvec(p), dtype=np.float64)
        denom = float(p @ Ap)
        if not np.isfinite(denom) or denom == 0.0:
            raise NumericalError(
                f"conjugate gradient broke down at iteration {iteration} (p.Ap = {denom})"
            )
        alpha = rs / denom
        x += alpha * p
        r -= alpha * Ap
        rs_new = float(r @ r)
        if not np.isfinite(rs_new):
            raise NumericalError(
                f"non-finite residual at conjugate gradient iteration {iteration}"
            )
        residual = np.sqrt(rs_new) / b_norm
        if residual <= tol:
            return CgResult(x, iteration, residual)
        p = r + (rs_new / rs) * p
        rs = rs_new

    return CgResult(x, max_iter, residual)
