"""Closed-form propagation solves F = (1 - alpha) (I - alpha Theta)^{-1} B.

Both entry points run conjugate gradients independently per column of the
right-hand side.  They require a symmetric operator (I - alpha Theta is then
symmetric positive-definite for alpha in (0, 1)); the random-walk operator is
supported by the neural forward passes but not here.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SolverError, _require
from .hypergraph import PropagationOperator
from .labels import LabelMatrix
from .linalg import as_dense, conjugate_gradient


@dataclass(frozen=True)
class PropagationConfig:
    alpha: float = 0.99
    tol: float = 1e-6
    max_iter: int = 1000

    def __post_init__(self):
        _require(0.0 < self.alpha < 1.0, "alpha",
                 f"alpha must lie strictly inside (0, 1), got {self.alpha}")
        _require(self.tol > 0, "tol", f"tol must be positive, got {self.tol}")
        _require(self.max_iter >= 1, "max_iter",
                 f"max_iter must be a positive integer, got {self.max_iter}")


def _solve_columns(op: PropagationOperator, B: np.ndarray,
                   cfg: PropagationConfig) -> np.ndarray:
    alpha = cfg.alpha

    def apply(v):
        return v - alpha * op.apply(v)

    out = np.empty_like(B)
    worst = 0.0
    failed = 0
    for j in range(B.shape[1]):
        result = conjugate_gradient(apply, B[:, j], tol=cfg.tol, max_iter=cfg.max_iter)
        out[:, j] = result.x
        worst = max(worst, result.residual)
        if result.residual > cfg.tol:
            failed += 1
    if failed:
        raise SolverError(
            f"{failed} of {B.shape[1]} columns did not reach tol={cfg.tol} "
            f"within {cfg.max_iter} iterations (worst residual {worst:.3e})",
            residual=worst,
        )
    return (1.0 - alpha) * out


def propagate_labels(op: PropagationOperator, Y: LabelMatrix,
                     cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Spread +/-1 label seeds over the structure: the classic closed-form SSL."""
    if op.normalization not in ("sym", "graph_sym"):
        raise ValueError(
            f"closed-form label propagation needs a symmetric operator, "
            f"got {op.normalization!r}")
    if Y.scheme != "pm1":
        raise ValueError(f"label propagation expects the pm1 scheme, got {Y.scheme!r}")
    return _solve_columns(op, as_dense(Y.values), cfg)


def propagate_features(op: PropagationOperator, X: np.ndarray,
                       cfg: PropagationConfig = PropagationConfig()) -> np.ndarray:
    """Smooth the raw feature matrix over the hypergraph before any network layer."""
    if op.normalization != "sym":
        raise ValueError(
            f"feature propagation is defined for the sym operator, got {op.normalization!r}")
    return _solve_columns(op, as_dense(X), cfg)
