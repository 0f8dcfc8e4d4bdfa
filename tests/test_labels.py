import numpy as np
import pytest
from scipy.stats import chi2

from hgssl.datasets import synthetic_blobs
from hgssl.errors import NumericalError
from hgssl.labels import (NoisySplit, accuracy, decode_predictions, encode_labels,
                          inject_noise)


def make_split(clean, labeled=None):
    clean = np.asarray(clean, dtype=np.int64)
    return NoisySplit(clean_labels=clean, noisy_labels=clean.copy(),
                      flipped=np.array([], dtype=np.int64), level=0.0, seed=0)


class TestInjectNoise:
    def test_level_zero(self):
        ds = synthetic_blobs(50, 2, 3, 0.05, seed=1)
        split = inject_noise(ds, 0.0, seed=3)
        assert len(split.flipped) == 0
        assert np.array_equal(split.noisy_labels, split.clean_labels)

    def test_exact_flip_count_and_all_differ(self):
        # l = 1000 training rows: level 0.45 must flip exactly 450 of them.
        ds = synthetic_blobs(1430, 10, 3, 0.05, seed=2)
        assert len(ds.train_indices) == 1000
        split = inject_noise(ds, 0.45, seed=5)
        assert len(split.flipped) == 450
        assert np.all(split.noisy_labels[split.flipped]
                      != split.clean_labels[split.flipped])
        untouched = np.setdiff1d(np.arange(ds.num_samples), split.flipped)
        assert np.array_equal(split.noisy_labels[untouched],
                              split.clean_labels[untouched])

    def test_test_labels_never_corrupted(self):
        ds = synthetic_blobs(200, 4, 3, 0.05, seed=3)
        for level in (0.15, 0.45, 0.9):
            split = inject_noise(ds, level, seed=11)
            assert np.all(np.isin(split.flipped, ds.train_indices))
            assert np.array_equal(split.noisy_labels[ds.test_indices],
                                  split.clean_labels[ds.test_indices])

    def test_replacement_uniform_over_wrong_classes(self):
        # l = 10,000 and level 0.30: the replacement-offset histogram should
        # pass a chi-square uniformity test over the 9 wrong classes.
        ds = synthetic_blobs(14290, 10, 3, 0.05, seed=4)
        assert len(ds.train_indices) == 10000
        split = inject_noise(ds, 0.30, seed=17)
        assert len(split.flipped) == 3000
        clean = split.clean_labels[split.flipped]
        noisy = split.noisy_labels[split.flipped]
        offsets = np.where(noisy < clean, noisy, noisy - 1)
        counts = np.bincount(offsets, minlength=9)
        expected = len(split.flipped) / 9.0
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.999, df=8)

    def test_bit_reproducible_and_seed_sensitive(self):
        ds = synthetic_blobs(300, 3, 3, 0.05, seed=5)
        a = inject_noise(ds, 0.3, seed=7)
        b = inject_noise(ds, 0.3, seed=7)
        c = inject_noise(ds, 0.3, seed=8)
        assert np.array_equal(a.noisy_labels, b.noisy_labels)
        assert np.array_equal(a.flipped, b.flipped)
        assert not np.array_equal(a.flipped, c.flipped)

    def test_level_validation(self):
        ds = synthetic_blobs(30, 2, 2, 0.05, seed=6)
        with pytest.raises(ValueError):
            inject_noise(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            inject_noise(ds, -0.1, seed=0)


class TestEncodeLabels:
    def test_onehot_three_rows(self):
        split = make_split([0, 1, 0])
        Y = encode_labels(split, np.array([0, 1]), 2)
        assert np.array_equal(Y, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_empty_labeled_set(self):
        split = make_split([0, 1, 1])
        Y = encode_labels(split, np.array([], dtype=np.int64), 2)
        assert np.array_equal(Y, np.zeros((3, 2)))

    def test_uses_noisy_labels(self):
        clean = np.array([0, 1, 2])
        noisy = np.array([2, 1, 2])
        split = NoisySplit(clean, noisy, np.array([0]), 0.33, 0)
        Y = encode_labels(split, np.array([0, 1]), 3)
        assert np.array_equal(Y[0], [0.0, 0.0, 1.0])

    def test_class_id_out_of_range(self):
        split = make_split([0, 3])
        with pytest.raises(ValueError):
            encode_labels(split, np.array([0, 1]), 2)

    def test_encode_decode_lossless_on_labeled_rows(self):
        ds = synthetic_blobs(120, 5, 3, 0.05, seed=9)
        split = inject_noise(ds, 0.4, seed=2)
        Y = encode_labels(split, ds.train_indices, ds.num_classes)
        decoded = decode_predictions(Y)
        assert np.array_equal(decoded[ds.train_indices],
                              split.noisy_labels[ds.train_indices])


class TestDecodePredictions:
    def test_plain_argmax(self):
        F = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert np.array_equal(decode_predictions(F), [0, 1])

    def test_tie_goes_to_lowest_class(self):
        F = np.array([[0.5, 0.5, 0.5]])
        assert np.array_equal(decode_predictions(F), [0])

    def test_nan_raises(self):
        with pytest.raises(NumericalError):
            decode_predictions(np.array([[np.nan, 0.0]]))


class TestAccuracy:
    def test_identical(self):
        assert accuracy(np.array([1, 2, 0]), np.array([1, 2, 0]), np.arange(3)) == 1.0

    def test_complementary(self):
        assert accuracy(np.array([0, 0, 1]), np.array([1, 1, 0]), np.arange(3)) == 0.0

    def test_hand_count(self):
        pred = np.array([0, 1, 2, 0])
        truth = np.array([0, 1, 1, 1])
        assert accuracy(pred, truth, np.arange(4)) == 0.5

    def test_eval_subset_and_permutation_invariance(self):
        pred = np.array([0, 1, 2, 0, 1])
        truth = np.array([0, 0, 2, 1, 1])
        eval_set = np.array([0, 2, 4])
        assert accuracy(pred, truth, eval_set) == 1.0
        assert accuracy(pred, truth, eval_set[::-1]) == 1.0

    def test_empty_eval_set(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0]), np.array([0]), np.array([], dtype=np.int64))
