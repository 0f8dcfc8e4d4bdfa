"""Closed-form propagation solves F = (1 - alpha) (I - alpha Theta)^{-1} B.

Both entry points iterate the columns of the right-hand side together by
conjugate gradients, in blocks of at most ``_BLOCK_BUDGET`` entries (the
budget ``linalg`` defines), each block on every CPU the process may use; each
column keeps its own step sizes and stops at its own tolerance.  They require
a symmetric operator (I - alpha Theta is then symmetric positive-definite for
alpha in (0, 1)); the random-walk operator is supported by the neural forward
passes but not here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, _require
from .hypergraph import PropagationOperator
from .linalg import _BLOCK_BUDGET, as_dense, conjugate_gradient


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
                   cfg: PropagationConfig) -> np.ndarray:
    """(1 - alpha)(I - alpha Theta)^{-1} B, one CG call per block of columns."""
    alpha = cfg.alpha

    def apply(V):
        AV = op.apply(V)
        AV *= -alpha
        AV += V
        return AV

    n, width = B.shape
    block = max(1, _BLOCK_BUDGET // n)
    out = np.empty_like(B)
    residuals = np.empty(width)
    for start in range(0, width, block):
        stop = min(start + block, width)
        try:
            result = conjugate_gradient(apply, B[:, start:stop], tol=cfg.tol,
                                        max_iter=cfg.max_iter)
        except SolverError as exc:
            raise SolverError(exc.reason, exc.residual,
                              [start + j for j in exc.columns]) from None
        out[:, start:stop] = result.x
        residuals[start:stop] = result.column_residuals
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
                     cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Spread one-hot label seeds over the structure: the classic closed-form SSL."""
    if op.normalization not in ("sym", "graph_sym"):
        raise ValueError(
            f"closed-form label propagation needs a symmetric operator, "
            f"got {op.normalization!r}")
    return _solve_columns(op, as_dense(Y), cfg)


def propagate_features(op: PropagationOperator, X: np.ndarray,
                       cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Smooth the raw feature matrix over the hypergraph before any network layer."""
    if op.normalization != "sym":
        raise ValueError(
            f"feature propagation is defined for the sym operator, got {op.normalization!r}")
    return _solve_columns(op, as_dense(X), cfg)
