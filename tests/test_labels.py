import numpy as np
import pytest
from scipy.stats import chi2

from hgssl.datasets import synthetic_blobs
from hgssl.errors import NumericalError
from hgssl.labels import accuracy, decode_predictions, encode_labels, inject_noise, noise_name


def flipped_rows(noisy, ds):
    """The sorted rows whose noisy label differs from the clean one."""
    return np.flatnonzero(noisy != ds.labels)


class TestInjectNoise:
    def test_level_zero(self):
        ds = synthetic_blobs(50, 2, 3, 0.05, seed=1)
        noisy = inject_noise(ds, 0.0, seed=3)
        assert np.array_equal(noisy, ds.labels)

    @pytest.mark.parametrize("level", [0.0, 0.45])
    def test_new_array_and_dataset_untouched(self, level):
        # run_cell scores against dataset.labels, so they must stay clean.
        ds = synthetic_blobs(200, 4, 3, 0.05, seed=3)
        before = ds.labels.tobytes()
        noisy = inject_noise(ds, level, seed=11)
        assert ds.labels.tobytes() == before
        assert not np.shares_memory(noisy, ds.labels)
        assert noisy.dtype == ds.labels.dtype

    def test_exact_flip_count_and_all_differ(self):
        # l = 1000 training rows: level 0.45 must flip exactly 450 of them.
        ds = synthetic_blobs(1430, 10, 3, 0.05, seed=2)
        assert len(ds.train_indices) == 1000
        noisy = inject_noise(ds, 0.45, seed=5)
        assert len(flipped_rows(noisy, ds)) == 450

    def test_test_labels_never_corrupted(self):
        ds = synthetic_blobs(200, 4, 3, 0.05, seed=3)
        for level in (0.15, 0.45, 0.9):
            noisy = inject_noise(ds, level, seed=11)
            assert np.all(np.isin(flipped_rows(noisy, ds), ds.train_indices))
            assert np.array_equal(noisy[ds.test_indices], ds.labels[ds.test_indices])

    def test_replacement_uniform_over_wrong_classes(self):
        # l = 10,000 and level 0.30: the replacement-offset histogram should
        # pass a chi-square uniformity test over the 9 wrong classes.
        ds = synthetic_blobs(14290, 10, 3, 0.05, seed=4)
        assert len(ds.train_indices) == 10000
        noisy_labels = inject_noise(ds, 0.30, seed=17)
        flipped = flipped_rows(noisy_labels, ds)
        assert len(flipped) == 3000
        clean = ds.labels[flipped]
        noisy = noisy_labels[flipped]
        offsets = np.where(noisy < clean, noisy, noisy - 1)
        counts = np.bincount(offsets, minlength=9)
        expected = len(flipped) / 9.0
        statistic = float(((counts - expected) ** 2 / expected).sum())
        assert statistic < chi2.ppf(0.999, df=8)

    def test_bit_reproducible_and_seed_sensitive(self):
        ds = synthetic_blobs(300, 3, 3, 0.05, seed=5)
        a = inject_noise(ds, 0.3, seed=7)
        b = inject_noise(ds, 0.3, seed=7)
        c = inject_noise(ds, 0.3, seed=8)
        assert np.array_equal(a, b)
        assert not np.array_equal(flipped_rows(a, ds), flipped_rows(c, ds))

    def test_level_validation(self):
        ds = synthetic_blobs(30, 2, 2, 0.05, seed=6)
        with pytest.raises(ValueError):
            inject_noise(ds, 1.0, seed=0)
        with pytest.raises(ValueError):
            inject_noise(ds, -0.1, seed=0)


class TestNoiseName:
    # l = 140 training rows: 0.003 flips round(0.42) = 0 labels, 0.005 and
    # 0.009 flip round(0.7) = round(1.26) = 1, 0.3 and 0.302 flip 42.
    LEVELS = (0.0, 0.003, 0.005, 0.009, 0.3, 0.302)

    def test_names_by_flip_count_and_seed(self):
        ds = synthetic_blobs(200, 4, 3, 0.05, seed=8)
        assert len(ds.train_indices) == 140
        names = [noise_name(ds, level, 5) for level in self.LEVELS]
        assert names == ["clean", "clean", (1, 5), (1, 5), (42, 5), (42, 5)]

    def test_equal_names_give_equal_labels(self):
        ds = synthetic_blobs(200, 4, 3, 0.05, seed=8)
        cells = [(level, seed) for level in self.LEVELS for seed in (0, 1, 2)]
        drawn = {}
        for level, seed in cells:
            noisy = inject_noise(ds, level, seed)
            name = noise_name(ds, level, seed)
            if name == "clean":
                assert np.array_equal(noisy, ds.labels)
            drawn.setdefault(name, []).append(noisy)
        # Clean at 2 levels x 3 seeds; each nonzero count at 2 levels per seed.
        assert {name: len(vectors) for name, vectors in drawn.items()} == {
            "clean": 6, **{(count, seed): 2 for count in (1, 42) for seed in (0, 1, 2)}}
        for vectors in drawn.values():
            assert all(np.array_equal(vector, vectors[0]) for vector in vectors)
        assert not np.array_equal(drawn[(1, 0)][0], drawn[(1, 1)][0])

    def test_level_validation(self):
        # Naming draws nothing, so a level the draw would reject must not be named clean.
        ds = synthetic_blobs(30, 2, 2, 0.05, seed=6)
        for level in (-0.001, 1.0):
            with pytest.raises(ValueError, match="noise level must be in"):
                noise_name(ds, level, seed=0)


class TestEncodeLabels:
    def test_onehot_three_rows(self):
        Y = encode_labels(np.array([0, 1, 0]), np.array([0, 1]), 2)
        assert np.array_equal(Y, [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])

    def test_empty_labeled_set(self):
        with pytest.raises(ValueError, match="row indices must be non-empty"):
            encode_labels(np.array([0, 1, 1]), np.array([], dtype=np.int64), 2)

    def test_uses_noisy_labels(self):
        ds = synthetic_blobs(60, 3, 3, 0.05, seed=8)
        noisy = inject_noise(ds, 0.5, seed=0)
        flipped = flipped_rows(noisy, ds)
        assert len(flipped) > 0
        Y = encode_labels(noisy, ds.train_indices, ds.num_classes)
        assert np.array_equal(Y[flipped, noisy[flipped]], np.ones(len(flipped)))
        assert not Y[flipped, ds.labels[flipped]].any()

    def test_class_id_out_of_range(self):
        with pytest.raises(ValueError):
            encode_labels(np.array([0, 3]), np.array([0, 1]), 2)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_label_id_outside_classes_on_labeled_row(self, bad):
        # numpy would store -1 in column C - 1; an unlabeled row is never read.
        labels = np.array([0, bad, 2, 1])
        with pytest.raises(ValueError,
                           match=r"label ids on labeled rows must lie in \[0, 3\), got"):
            encode_labels(labels, np.array([0, 1, 2]), 3)
        Y = encode_labels(labels, np.array([0, 2, 3]), 3)
        assert np.array_equal(Y[1], np.zeros(3))

    def test_encode_decode_lossless_on_labeled_rows(self):
        ds = synthetic_blobs(120, 5, 3, 0.05, seed=9)
        noisy = inject_noise(ds, 0.4, seed=2)
        Y = encode_labels(noisy, ds.train_indices, ds.num_classes)
        decoded = decode_predictions(Y)
        assert np.array_equal(decoded[ds.train_indices], noisy[ds.train_indices])


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

    @pytest.mark.parametrize("pred, truth", [([0, 1, 2, 2], [0, 1]), ([0, 1], [0, 1, 2, 2])],
                             ids=["pred-longer", "truth-longer"])
    def test_lengths_differ(self, pred, truth):
        # Scored on rows 0 and 1 alone, both pairs would read 1.0.
        message = f"pred has {len(pred)} rows but truth has {len(truth)}"
        with pytest.raises(ValueError, match=message):
            accuracy(np.array(pred), np.array(truth), np.array([0, 1]))
