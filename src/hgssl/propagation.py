"""Closed-form propagation solves F = (1 - alpha) (I - alpha Theta)^{-1} B.

Both entry points iterate the columns of the right-hand side together by
conjugate gradients, in the column blocks of ``linalg.column_blocks`` (the
block rule lives in ``linalg``), each block on every CPU the process may
use; each column keeps its own step sizes and stops at its own tolerance.
They require a symmetric operator (I - alpha Theta is then symmetric
positive-definite for alpha in (0, 1)); the random-walk operator is
supported by the neural forward passes but not here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, _require
from .hypergraph import PropagationOperator
from .linalg import as_dense, check_out, column_blocks, conjugate_gradient


@dataclass(frozen=True)
class PropagationConfig:
    alpha: float = 0.99
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        _require(0.0 < self.alpha < 1.0, "alpha",
                 f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        # Every nonzero column starts at relative residual 1, so a tol of 1
        # or more would accept x = 0.
        _require(0.0 < self.tol < 1.0, "tol",
                 f"tol must be positive and below 1, got {self.tol}")
        _require(self.max_iter >= 1, "max_iter",
                 f"max_iter must be a positive integer, got {self.max_iter}")


def _solve_columns(op: PropagationOperator, B: np.ndarray,
                   cfg: PropagationConfig, out: np.ndarray = None) -> np.ndarray:
    """(1 - alpha)(I - alpha Theta)^{-1} B, one CG call per block of columns.

    The result is written to ``out`` if given, a float64 array of B's shape
    that may be ``B`` itself; otherwise to a fresh array.  Each block's CG
    call solves straight into the block's columns of ``out`` (its ``out=``),
    which no later block reads, so no block-sized solution is allocated or
    copied.  A failed solve leaves ``out`` part solved.
    """
    alpha = cfg.alpha

    def apply(V):
        AV = op.apply(V)
        AV *= -alpha
        AV += V
        return AV

    n, width = B.shape
    out = np.empty_like(B) if out is None else check_out(out, B.shape)
    residuals = np.empty(width)
    for block in column_blocks(n, width):
        try:
            result = conjugate_gradient(apply, B[:, block], tol=cfg.tol,
                                        max_iter=cfg.max_iter, out=out[:, block])
        except SolverError as exc:
            raise SolverError(exc.reason, exc.residual,
                              [block.start + j for j in exc.columns]) from None
        residuals[block] = result.column_residuals
    failed = np.flatnonzero(residuals > cfg.tol)
    if failed.size:
        worst = float(residuals.max())
        raise SolverError(
            f"{failed.size} of {width} columns did not reach tol={cfg.tol} "
            f"within {cfg.max_iter} iterations (worst residual {worst:.3e})",
            residual=worst, columns=failed,
        )
    out *= 1.0 - alpha
    return out


def propagate_labels(op: PropagationOperator, Y: np.ndarray,
                     cfg: PropagationConfig = PropagationConfig(), *,
                     out: np.ndarray = None) -> np.ndarray:
    """Spread one-hot label seeds over the structure: the classic closed-form SSL.

    ``Y`` may hold several label sets side by side; each column is solved on
    its own, so a set's columns come out the same however many sets share
    the call.  ``out``, a float64 array of Y's shape, receives the scores and
    is returned; it may be ``Y`` itself, which then holds them in place of
    the seeds, every bit as a fresh result would.  A failed solve leaves such
    an ``out`` part solved.
    """
    if op.normalization not in ("sym", "graph_sym"):
        raise ValueError(
            f"closed-form label propagation needs a symmetric operator, "
            f"got {op.normalization!r}")
    return _solve_columns(op, as_dense(Y), cfg, out)


def propagate_features(op: PropagationOperator, X: np.ndarray,
                       cfg: PropagationConfig = PropagationConfig(), *,
                       out: np.ndarray = None) -> np.ndarray:
    """Smooth the raw feature matrix over the hypergraph before any network layer.

    ``out``, a float64 array of X's shape, receives the smoothed features and
    is returned; it may be ``X`` itself, which then holds them in place of X,
    every bit as a fresh result would.  A failed solve leaves such an ``out``
    part solved.
    """
    if op.normalization != "sym":
        raise ValueError(
            f"feature propagation is defined for the sym operator, got {op.normalization!r}")
    return _solve_columns(op, as_dense(X), cfg, out)
