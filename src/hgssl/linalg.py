"""Dense and sparse helpers and a multi-right-hand-side conjugate-gradient solver.

Dense matrices are plain float64 ``numpy.ndarray``s; sparse matrices are
float64 ``scipy.sparse.csr_matrix``.  There is no global pruning rule: each
matrix is made canonical (sorted, distinct column indices per row) where it
is built, and the one place a negligible weight can arise, the Gaussian kNN
adjacency, drops it there.
"""

from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, SolverError


def as_dense(matrix) -> np.ndarray:
    """Return ``matrix`` as a 2-D float64 ndarray."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={X.ndim}")
    return X


def diag_scale(
    S: sp.spmatrix,
    left: Optional[np.ndarray] = None,
    right: Optional[np.ndarray] = None,
) -> sp.csr_matrix:
    """Scale rows by ``left`` and columns by ``right``: D_left @ S @ D_right.

    Either side may be None, meaning no scaling on that side.  The result is
    a float64 CSR copy of ``S``, neither summed nor pruned, so it is canonical
    when ``S`` is.
    """
    out = sp.csr_matrix(S, dtype=np.float64, copy=True)
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
    """The solution block and how each of its columns converged.

    ``iterations`` counts operator applications, which is the slowest
    column's iteration count, and ``residual`` is the worst column's relative
    residual; ``column_iterations`` and ``column_residuals`` hold each
    column's own values.
    """
    x: np.ndarray
    iterations: int
    residual: float
    column_iterations: np.ndarray
    column_residuals: np.ndarray


def _column_dots(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->j", U, V)


def conjugate_gradient(
    apply: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 1000,
) -> CgResult:
    """Solve A X = B for symmetric positive-definite A, every column of B at once.

    ``apply`` computes A @ V for an (n, m) block V, and ``B`` is an (n, w)
    block.  Each column runs its own conjugate-gradient recurrence from x = 0
    with its own step sizes, so its iterates are those of single-vector CG up
    to rounding; the columns share only the operator applications.  (This is
    not block CG, whose shared Krylov space changes the iteration counts.)  A
    column stops once its relative residual ||b - A x|| / ||b|| drops to
    ``tol`` (a zero column at once) or after ``max_iter`` iterations, and
    leaves the active set, so every iteration applies A once at the width of
    the columns still running.  The caller inspects the residuals to decide
    whether a non-converged column is acceptable.  Symmetry and
    positive-definiteness are the caller's responsibility; a breakdown or a
    non-finite residual raises ``SolverError`` naming the column and iteration.
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    B = as_dense(B)
    X = np.zeros_like(B)
    largest = np.max(np.abs(B), axis=0, initial=0.0)
    column_iterations = np.zeros(B.shape[1], dtype=np.int64)
    # r = b at x = 0: a zero column starts converged and any other at relative
    # residual 1.  A non-finite column starts at NaN, which compares false, so
    # it stays active and raises at its first iteration.
    column_residuals = np.where(largest == 0.0, 0.0,
                                np.where(np.isfinite(largest), 1.0, np.nan))
    cols = np.flatnonzero(~(column_residuals <= tol))
    # Each column is scaled by a power of two to a largest entry in [0.5, 1).
    # That is exact for every entry that stays normal, so the iterates are the
    # unscaled ones scaled, but a squared norm can no longer underflow to a
    # "zero" column or overflow at the ends of the float range.
    _, exponents = np.frexp(largest)
    # The iterates are column-major, so each column is contiguous for its dot
    # products and step updates: at n = 12000 and ten columns these take a
    # third of their row-major time.  ``apply`` may return either layout.
    R = np.ldexp(B[:, cols], -exponents[cols], order="F")
    P = R.copy(order="F")
    X_active = np.zeros_like(R)
    rs = _column_dots(R, R)
    b_norm = np.sqrt(rs)

    for iteration in range(1, max_iter + 1):
        if not cols.size:
            break
        # Always a copy of our own, so its buffer can be reused for the updates.
        AP = np.array(apply(P), dtype=np.float64, order="F")
        denom = _column_dots(P, AP)
        bad = ~np.isfinite(denom) | (denom == 0.0)
        if bad.any():
            j = int(np.argmax(bad))
            raise SolverError(
                f"conjugate gradient broke down at iteration {iteration} "
                f"(p.Ap = {denom[j]})", columns=cols[j:j + 1])
        step = rs / denom
        AP *= step
        R -= AP
        X_active += np.multiply(P, step, out=AP)
        rs_new = _column_dots(R, R)
        bad = ~np.isfinite(rs_new)
        if bad.any():
            j = int(np.argmax(bad))
            raise SolverError(
                f"non-finite residual at conjugate gradient iteration {iteration}",
                columns=cols[j:j + 1])
        residual = np.sqrt(rs_new) / b_norm
        column_iterations[cols] = iteration
        column_residuals[cols] = residual
        done = residual <= tol
        if done.any():
            X[:, cols[done]] = X_active[:, done]
            keep = ~done
            cols, X_active, R, P = cols[keep], X_active[:, keep], R[:, keep], P[:, keep]
            rs, rs_new, b_norm = rs[keep], rs_new[keep], b_norm[keep]
        P *= rs_new / rs
        P += R
        rs = rs_new
    X[:, cols] = X_active
    np.ldexp(X, exponents, out=X)

    return CgResult(X, int(column_iterations.max(initial=0)),
                    float(column_residuals.max(initial=0.0)),
                    column_iterations, column_residuals)
