"""PCA by covariance eigendecomposition, fit on the full transductive matrix."""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ShapeError
from .linalg import as_dense


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray                # length m
    components: np.ndarray          # m x d, orthonormal columns
    explained_variance: np.ndarray  # length d, nonincreasing, >= 0


def pca_fit(X: np.ndarray, d: int) -> PcaModel:
    """Fit a ``d``-component PCA model to the rows of ``X``.

    Components are the top-d eigenvectors of the sample covariance
    (denominator n - 1), ordered by nonincreasing eigenvalue.  Sign
    convention: within each component the entry of largest magnitude is
    positive, ties resolved toward the lowest index, which makes the fit
    deterministic.
    """
    X = as_dense(X)
    n, m = X.shape
    if not (1 <= d <= min(n - 1, m)):
        raise ValueError(f"d must be in [1, min(n-1, m)] = [1, {min(n - 1, m)}], got {d}")
    mean = X.mean(axis=0)
    centered = X - mean
    cov = (centered.T @ centered) / (n - 1)
    # The n x m centered copy is dead once cov exists; free it before eigh.
    del centered
    try:
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"covariance eigendecomposition failed: {exc}") from exc

    order = np.argsort(-eigenvalues, kind="stable")[:d]
    components = eigenvectors[:, order].copy()
    variance = np.maximum(eigenvalues[order], 0.0)
    for j in range(d):
        pivot = int(np.argmax(np.abs(components[:, j])))
        if components[pivot, j] < 0:
            components[:, j] = -components[:, j]
    return PcaModel(mean=mean, components=components, explained_variance=variance)


def pca_transform(model: PcaModel, X: np.ndarray) -> np.ndarray:
    """Project rows of ``X`` onto the model's components: (X - mean) @ components.

    Formed as X @ components - mean @ components, so no centered n x m copy of
    X is made; the result agrees with the centered product at rounding level.
    """
    X = as_dense(X)
    if X.shape[1] != model.mean.shape[0]:
        raise ShapeError(
            f"X has {X.shape[1]} columns, model was fit on {model.mean.shape[0]}")
    projected = X @ model.components
    projected -= model.mean @ model.components
    return projected
