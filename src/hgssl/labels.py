"""Label encoding, symmetric noise injection, decoding and accuracy.

Noise is symmetric and class-uniform: exactly ``round(level * l)`` training
labels are flipped, each replaced by a class drawn uniformly from the other
C - 1 classes.  All randomness flows through one PCG64 stream seeded with
``seed``, consumed in a fixed order (first the flip-set draw, then one
replacement offset per flipped index), so flips are reproducible.
"""

from dataclasses import dataclass

import numpy as np

from .datasets import ImageDataset, LabeledSplit
from .errors import NumericalError


@dataclass(frozen=True)
class NoisySplit:
    clean_labels: np.ndarray
    noisy_labels: np.ndarray
    flipped: np.ndarray      # sorted training indices whose labels were replaced
    level: float
    seed: int


def inject_noise(dataset: ImageDataset | LabeledSplit, level: float,
                 seed: int) -> NoisySplit:
    """Corrupt ``round(level * l)`` training labels; test labels stay untouched."""
    if not (0.0 <= level < 1.0):
        raise ValueError(f"noise level must be in [0, 1), got {level}")
    clean = dataset.labels.copy()
    noisy = dataset.labels.copy()
    l = len(dataset.train_indices)
    count = int(round(level * l))
    rng = np.random.default_rng(seed)
    if count:
        flipped = np.sort(rng.choice(dataset.train_indices, size=count, replace=False))
        # Uniform over the C - 1 wrong classes: draw an offset and skip the
        # clean class.
        offsets = rng.integers(0, dataset.num_classes - 1, size=count)
        replacement = np.where(offsets < clean[flipped], offsets, offsets + 1)
        noisy[flipped] = replacement
    else:
        flipped = np.array([], dtype=np.int64)
    return NoisySplit(clean_labels=clean, noisy_labels=noisy, flipped=flipped,
                      level=float(level), seed=int(seed))


def encode_labels(split: NoisySplit, labeled_set: np.ndarray,
                  num_classes: int) -> np.ndarray:
    """One-hot n x C matrix of the (noisy) labels of ``labeled_set`` rows.

    A labeled row has 1 in its class column and 0 elsewhere; every other row
    is 0.
    """
    labeled_set = np.asarray(labeled_set, dtype=np.int64)
    n = len(split.noisy_labels)
    if len(labeled_set) and int(split.noisy_labels[labeled_set].max()) >= num_classes:
        raise ValueError(f"label id >= num_classes ({num_classes})")
    values = np.zeros((n, num_classes))
    values[labeled_set, split.noisy_labels[labeled_set]] = 1.0
    return values


def decode_predictions(F: np.ndarray) -> np.ndarray:
    """Row-wise argmax of a score matrix; ties go to the lowest class index."""
    F = np.asarray(F)
    if np.isnan(F).any():
        raise NumericalError("NaN in prediction scores")
    return np.argmax(F, axis=1).astype(np.int64)


def accuracy(pred: np.ndarray, truth: np.ndarray, eval_set: np.ndarray) -> float:
    """Fraction of ``eval_set`` rows where ``pred`` equals ``truth``."""
    eval_set = np.asarray(eval_set, dtype=np.int64)
    if eval_set.size == 0:
        raise ValueError("eval_set must be non-empty")
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    return float(np.mean(pred[eval_set] == truth[eval_set]))
