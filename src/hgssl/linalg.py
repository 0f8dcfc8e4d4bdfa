"""Dense and sparse helpers and a multi-right-hand-side conjugate-gradient solver.

The solver splits each block's columns into one group per CPU the process may
run on and iterates the groups in threads of their own; the result does not
depend on the CPU count.

Dense matrices are plain float64 ``numpy.ndarray``s; sparse matrices are
float64 ``scipy.sparse.csr_matrix``.  There is no global pruning rule: each
matrix is made canonical (sorted, distinct column indices per row) where it
is built, and the one place a negligible weight can arise, the Gaussian kNN
adjacency, drops it there.
"""

import contextvars
import os
import threading
from typing import Callable, NamedTuple, Optional

import numpy as np
import scipy.sparse as sp

from .errors import ShapeError, SolverError

# Entries (rows x columns) in one block of columns: one CG block, and one
# block of a wide operator product.  Wider blocks cost less per column per
# operator product until their work arrays outgrow the cache and raise peak
# memory.  On a 2-core machine, solving on one core, 784 feature columns at
# n = 3000 took 3.2 s one column at a time, 1.3-1.9 s in blocks of 32-128
# columns with peak RSS level, and 2.4 s as one block, which raised peak RSS
# by 92 MB.
_BLOCK_BUDGET = 2 ** 18
# Entries (rows x columns) a CG column group holds at least.  Smaller groups
# lose more to waiting for the interpreter lock than their threads gain: on 2
# cores, 10 label columns at n = 2000 took 6.5-8.1 ms as one group and
# 8.5-9.5 ms as two, while 20 columns there took 12.5 and 11.0 ms.
_GROUP_ENTRIES = 2 ** 14


def column_blocks(rows: int, width: int, budget: int) -> list:
    """Slices that split ``width`` columns of ``rows`` rows into equal blocks.

    There are as few blocks as keep each within ``budget`` entries (one column
    when a single column exceeds it), and their widths differ by at most one:
    784 columns of 3000 rows at 2^18 entries are ten blocks of 78-79 columns,
    not nine of 87 and one of a single column, which costs CG most per column.
    """
    count = -(-width // max(1, budget // max(1, rows)))
    return [slice(i * width // count, (i + 1) * width // count) for i in range(count)]


def as_dense(matrix) -> np.ndarray:
    """Return ``matrix`` as a 2-D float64 ndarray."""
    X = np.asarray(matrix, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got ndim={X.ndim}")
    return X


def check_out(out: np.ndarray, shape: tuple) -> np.ndarray:
    """Return ``out`` if it is a float64 array of ``shape``; raise ``ShapeError`` if not."""
    if out.shape != shape or out.dtype != np.float64:
        raise ShapeError(f"out is {out.dtype} {out.shape}, expected float64 {shape}")
    return out


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


def _cores() -> int:
    """The CPUs this process may run on: its affinity mask (``taskset`` narrows it)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def conjugate_gradient(
    apply: Callable[[np.ndarray], np.ndarray],
    B: np.ndarray,
    tol: float = 1e-6,
    max_iter: int = 1000,
    out: Optional[np.ndarray] = None,
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

    ``out``, a float64 array of B's shape, receives the solution and is
    returned as ``x``; it may be ``B`` itself.  A zero column is written as 0
    before any column is solved, and every other column when it stops, so a
    solve that raises leaves ``out`` part solved.  Each group copies its
    columns of B into its iterates before it writes any of them, and no group
    reads another's, so ``out=B`` gives every bit a fresh ``out`` gives.
    While columns stop, the iterates are compacted in place, so a group holds
    its three n x (group width) iterates, the operator product and whatever
    ``apply`` allocates, and no more.  Any other ``out`` raises ``ShapeError``.

    The columns to solve are split into contiguous groups, one per CPU this
    process may run on (``_cores``), but never more groups than columns and
    none of fewer than ``_GROUP_ENTRIES`` entries unless there is one.  The
    calling thread iterates the first group and one thread each of the
    others, and every thread is joined before the call returns or raises.
    ``apply`` must therefore allow calls at once from several threads, each
    on its own columns, and must not let one column's product depend on
    another's.  The result then does not depend on the number of CPUs: every
    column, iteration count and residual is the one a single group gives, and
    so is the ``SolverError``: the earliest iteration, a breakdown (p.Ap)
    before a non-finite residual in that iteration, then the lowest column.
    Once a group fails, no other runs past the iteration it failed at.  Any
    other exception from a group is raised in the caller, the lowest group's
    first.
    """
    if not 0.0 < tol < 1.0:
        raise ValueError(f"tol must be positive and below 1, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    B = as_dense(B)
    out = np.empty_like(B) if out is None else check_out(out, B.shape)
    largest = np.max(np.abs(B), axis=0, initial=0.0)
    column_iterations = np.zeros(B.shape[1], dtype=np.int64)
    # r = b at x = 0: a zero column starts converged and any other at relative
    # residual 1.  A non-finite column starts at NaN, which compares false, so
    # it stays active and raises at its first iteration.
    column_residuals = np.where(largest == 0.0, 0.0,
                                np.where(np.isfinite(largest), 1.0, np.nan))
    # Each column is scaled by a power of two to a largest entry in [0.5, 1).
    # That is exact for every entry that stays normal, so the iterates are the
    # unscaled ones scaled, but a squared norm can no longer underflow to a
    # "zero" column or overflow at the ends of the float range.
    _, exponents = np.frexp(largest)
    out[:, largest == 0.0] = 0.0

    def store(X_active, cols, columns):
        """Write ``columns`` of the iterate X_active, unscaled, to their columns of out."""
        for j in columns:
            np.ldexp(X_active[:, j], exponents[cols[j]], out=out[:, cols[j]])

    def solve(cols):
        """Iterate columns ``cols`` of B into out, column_iterations and column_residuals.

        Returns None, or the group's first failure as (iteration, check,
        column, reason) with check 0 for a breakdown and 1 for a non-finite
        residual, so the smallest tuple over all groups is the serial loop's.
        """
        # The iterates are column-major, so each column is contiguous for its
        # dot products and step updates: at n = 12000 and ten columns these
        # take a third of their row-major time.  ``apply`` may return either
        # layout.
        R = np.ldexp(B[:, cols], -exponents[cols], order="F")
        P = R.copy(order="F")
        X_active = np.zeros_like(R)
        rs = _column_dots(R, R)
        b_norm = np.sqrt(rs)
        for iteration in range(1, max_iter + 1):
            if not cols.size or iteration > last:
                break
            # Always a copy of our own, so its buffer can be reused for the updates.
            AP = np.array(apply(P), dtype=np.float64, order="F")
            denom = _column_dots(P, AP)
            bad = ~np.isfinite(denom) | (denom == 0.0)
            if bad.any():
                j = int(np.argmax(bad))
                return (iteration, 0, cols[j],
                        f"conjugate gradient broke down at iteration {iteration} "
                        f"(p.Ap = {denom[j]})")
            step = rs / denom
            AP *= step
            R -= AP
            X_active += np.multiply(P, step, out=AP)
            del AP  # freed before the next product allocates its own
            rs_new = _column_dots(R, R)
            bad = ~np.isfinite(rs_new)
            if bad.any():
                j = int(np.argmax(bad))
                return (iteration, 1, cols[j],
                        f"non-finite residual at conjugate gradient iteration {iteration}")
            residual = np.sqrt(rs_new) / b_norm
            column_iterations[cols] = iteration
            column_residuals[cols] = residual
            done = residual <= tol
            if done.any():
                store(X_active, cols, np.flatnonzero(done))
                keep = np.flatnonzero(~done)
                # Each kept column moves left over a stopped one; the leading
                # columns of an F-order array are an F-order view.
                for to, src in enumerate(keep):
                    if to != src:
                        for A in (X_active, R, P):
                            A[:, to] = A[:, src]
                X_active, R, P = (A[:, :keep.size] for A in (X_active, R, P))
                cols, rs, rs_new, b_norm = cols[keep], rs[keep], rs_new[keep], b_norm[keep]
            P *= rs_new / rs
            P += R
            rs = rs_new
        store(X_active, cols, range(cols.size))
        return None

    cols = np.flatnonzero(~(column_residuals <= tol))
    groups = np.array_split(
        cols, max(1, min(_cores(), cols.size, len(B) * cols.size // _GROUP_ENTRIES)))
    outcomes = [None] * len(groups)
    # The last iteration a group need run: none past one that failed.
    last, lock = max_iter, threading.Lock()

    def run(g):
        nonlocal last
        try:
            outcome = solve(groups[g])
        except BaseException as exc:  # raised again in the calling thread
            outcome = exc
        outcomes[g] = outcome
        if outcome is not None:
            with lock:
                last = min(last, 0 if isinstance(outcome, BaseException) else outcome[0])

    workers = []
    try:
        for g in range(1, len(groups)):
            # A copy of the caller's context carries numpy's error state over.
            worker = threading.Thread(target=contextvars.copy_context().run, args=(run, g))
            worker.start()
            workers.append(worker)
        run(0)
    finally:
        for worker in workers:
            worker.join()
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    failures = [outcome for outcome in outcomes if outcome is not None]
    if failures:
        _, _, column, reason = min(failures)
        raise SolverError(reason, columns=[column])
    return CgResult(out, int(column_iterations.max(initial=0)),
                    float(column_residuals.max(initial=0.0)),
                    column_iterations, column_residuals)
