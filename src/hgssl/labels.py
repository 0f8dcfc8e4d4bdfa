"""Label encoding, symmetric noise injection, decoding and accuracy.

Noise is symmetric and class-uniform: exactly ``round(level * l)`` training
labels are flipped, each replaced by a class drawn uniformly from the other
C - 1 classes.  All randomness flows through one PCG64 stream seeded with
``seed``, consumed in a fixed order (first the flip-set draw, then one
replacement offset per flipped index), so flips are reproducible.  On one
dataset a draw therefore depends only on its flip count and its seed, and
``noise_name`` names it by them without drawing.

``row_indices`` is the one check of a set of row indices: the labeled rows
of ``encode_labels`` and of training, and the evaluation rows of
``accuracy``.
"""

import numpy as np

from .datasets import ImageDataset, LabeledSplit
from .errors import NumericalError


def row_indices(rows, n: int) -> np.ndarray:
    """``rows`` checked as a non-empty set of distinct row indices into ``n`` rows.

    Returns it as int64.  A boolean mask, a float array, a negative, repeated
    or out-of-range index and an empty set each raise ``ValueError``: numpy
    would read them as other rows (``True`` as row 1, ``-1`` as row n - 1) or
    count a row twice.
    """
    rows = np.asarray(rows)
    if rows.ndim != 1:
        raise ValueError(f"row indices must be a 1-D index array, got ndim={rows.ndim}")
    if rows.size == 0:
        raise ValueError("row indices must be non-empty")
    if rows.dtype.kind not in "iu":
        raise ValueError(f"row indices must be integer indices, got dtype {rows.dtype}")
    low, high = rows.min(), rows.max()
    if low < 0 or high >= n:
        raise ValueError(f"row indices must lie in [0, {n}), got indices {low} to {high}")
    rows = rows.astype(np.int64, copy=False)
    counts = np.bincount(rows, minlength=n)
    if counts.max() > 1:
        raise ValueError(f"row indices must not repeat index {int(np.argmax(counts))}")
    return rows


def _flip_count(dataset: ImageDataset | LabeledSplit, level: float) -> int:
    """``round(level * l)``, the number of training labels noise ``level`` flips."""
    if not (0.0 <= level < 1.0):
        raise ValueError(f"noise level must be in [0, 1), got {level}")
    return int(round(level * len(dataset.train_indices)))


def noise_name(dataset: ImageDataset | LabeledSplit, level: float, seed: int):
    """The name of the noisy labels ``inject_noise(dataset, level, seed)`` draws.

    On one dataset the draw depends only on the flip count and the seed, so
    the name is ``(count, seed)``, or ``"clean"`` when the count is 0 and no
    label flips: equal names give equal label vectors, and naming draws nothing.
    """
    count = _flip_count(dataset, level)
    return (count, seed) if count else "clean"


def inject_noise(dataset: ImageDataset | LabeledSplit, level: float,
                 seed: int) -> np.ndarray:
    """The dataset's labels with ``round(level * l)`` training labels flipped.

    Returns a new array; ``dataset.labels`` and every test label stay as they are.
    """
    count = _flip_count(dataset, level)
    noisy = dataset.labels.copy()
    if count:
        rng = np.random.default_rng(seed)
        flipped = np.sort(rng.choice(dataset.train_indices, size=count, replace=False))
        # Uniform over the C - 1 wrong classes: draw an offset and skip the
        # clean class.
        offsets = rng.integers(0, dataset.num_classes - 1, size=count)
        noisy[flipped] = np.where(offsets < noisy[flipped], offsets, offsets + 1)
    return noisy


def encode_labels(labels: np.ndarray, labeled_set: np.ndarray,
                  num_classes: int) -> np.ndarray:
    """One-hot n x C matrix of ``labels`` on the ``labeled_set`` rows.

    A labeled row has 1 in its class column and 0 elsewhere; every other row
    is 0.  Each labeled row's label must be a class id in [0, C).
    """
    labeled_set = row_indices(labeled_set, len(labels))
    ids = labels[labeled_set]
    low, high = ids.min(), ids.max()
    if low < 0 or high >= num_classes:
        raise ValueError(f"label ids on labeled rows must lie in [0, {num_classes}), "
                         f"got {low} to {high}")
    values = np.zeros((len(labels), num_classes))
    values[labeled_set, ids] = 1.0
    return values


def decode_predictions(F: np.ndarray) -> np.ndarray:
    """Row-wise argmax of a score matrix; ties go to the lowest class index."""
    F = np.asarray(F)
    if np.isnan(F).any():
        raise NumericalError("NaN in prediction scores")
    return np.argmax(F, axis=1).astype(np.int64)


def accuracy(pred: np.ndarray, truth: np.ndarray, eval_set: np.ndarray) -> float:
    """Fraction of ``eval_set`` rows where ``pred`` equals ``truth``.

    ``pred`` and ``truth`` must have one entry per row; arrays of different
    lengths raise ``ValueError``, since one of them does not cover the rows.
    """
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if len(pred) != len(truth):
        raise ValueError(f"pred has {len(pred)} rows but truth has {len(truth)}")
    eval_set = row_indices(eval_set, len(truth))
    return float(np.mean(pred[eval_set] == truth[eval_set]))
