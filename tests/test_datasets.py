import struct
import tracemalloc

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from hgssl.datasets import (ImageDataset, _largest_remainder, load_idx_dataset,
                            load_usps_dataset, save_idx_dataset, save_usps_dataset,
                            stratified_subsample, synthetic_blobs)
from hgssl.errors import FormatError

# A well-formed USPS line: label 0 and two pixels.
GOOD_LINE = "0.0000 0.0 0.5"


def write_idx_images(path, images):
    """images: uint8 array (count, rows, cols)."""
    count, rows, cols = images.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack(">IIII", 2051, count, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    with open(path, "wb") as fh:
        fh.write(struct.pack(">II", 2049, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())


def make_idx_files(tmp_path, train_images, train_labels, test_images, test_labels):
    paths = {
        "train_images": tmp_path / "train-images",
        "train_labels": tmp_path / "train-labels",
        "test_images": tmp_path / "test-images",
        "test_labels": tmp_path / "test-labels",
    }
    write_idx_images(paths["train_images"], train_images)
    write_idx_labels(paths["train_labels"], train_labels)
    write_idx_images(paths["test_images"], test_images)
    write_idx_labels(paths["test_labels"], test_labels)
    return paths


class TestIdxLoader:
    def test_hand_built_two_image_file(self, tmp_path):
        rng = np.random.default_rng(0)
        train = rng.integers(0, 256, size=(2, 28, 28)).astype(np.uint8)
        test = rng.integers(0, 256, size=(1, 28, 28)).astype(np.uint8)
        paths = make_idx_files(tmp_path, train, [2, 0], test, [1])
        ds = load_idx_dataset(paths["train_images"], paths["train_labels"],
                              paths["test_images"], paths["test_labels"])
        assert ds.features.shape == (3, 784)
        expected = train.reshape(2, 784).astype(np.float64) / 255.0
        assert np.array_equal(ds.features[:2], expected)
        assert np.array_equal(ds.labels, [2, 0, 1])
        assert np.array_equal(ds.train_indices, [0, 1])
        assert np.array_equal(ds.test_indices, [2])
        assert ds.num_classes == 3

    def test_flattening_order(self, tmp_path):
        # Asymmetric 3x4 image: pixel (r, c) must land in column r*4 + c.
        image = np.arange(12, dtype=np.uint8).reshape(1, 3, 4)
        paths = make_idx_files(tmp_path, image, [0], image, [1])
        ds = load_idx_dataset(paths["train_images"], paths["train_labels"],
                              paths["test_images"], paths["test_labels"])
        for r in range(3):
            for c in range(4):
                assert ds.features[0, r * 4 + c] == image[0, r, c] / 255.0

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 2052, 1, 2, 2) + b"\x00" * 4)
        good = np.zeros((1, 2, 2), dtype=np.uint8)
        paths = make_idx_files(tmp_path, good, [0], good, [0])
        with pytest.raises(FormatError):
            load_idx_dataset(path, paths["train_labels"],
                             paths["test_images"], paths["test_labels"])

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "short"
        path.write_bytes(struct.pack(">IIII", 2051, 5, 28, 28) + b"\x00" * 10)
        good = np.zeros((1, 28, 28), dtype=np.uint8)
        paths = make_idx_files(tmp_path, good, [0], good, [0])
        with pytest.raises(FormatError):
            load_idx_dataset(path, paths["train_labels"],
                             paths["test_images"], paths["test_labels"])

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((2, 2, 2), dtype=np.uint8)
        paths = make_idx_files(tmp_path, images, [0, 1, 1], images, [0, 1])
        with pytest.raises(FormatError):
            load_idx_dataset(paths["train_images"], paths["train_labels"],
                             paths["test_images"], paths["test_labels"])

    @pytest.mark.parametrize("damage, message", [
        (lambda paths: paths["train_images"].write_bytes(struct.pack(">I", 2051)),
         "{train_images}: truncated IDX header"),
        (lambda paths: paths["train_images"].write_bytes(struct.pack(">II", 2051, 2)),
         "{train_images}: truncated IDX image header"),
        (lambda paths: paths["train_labels"].write_bytes(struct.pack(">IIB", 2049, 2, 0)),
         "{train_labels}: expected 10 bytes, file has 9"),
        (lambda paths: write_idx_images(paths["test_images"], np.zeros((2, 3, 2))),
         "{train_images}, {test_images}: image shapes differ between splits: (2, 2) vs (3, 2)"),
        (lambda paths: write_idx_labels(paths["test_labels"], [0, 1, 1]),
         "{test_images}, {test_labels}: test image count 2 != label count 3"),
    ], ids=["short-header", "short-image-header", "short-labels", "shapes-differ",
            "test-count-mismatch"])
    def test_malformed_file_is_named(self, tmp_path, damage, message):
        good = np.zeros((2, 2, 2), dtype=np.uint8)
        paths = make_idx_files(tmp_path, good, [0, 1], good, [0, 1])
        damage(paths)
        with pytest.raises(FormatError) as info:
            load_idx_dataset(*paths.values())
        assert str(info.value) == message.format(**paths)

    def test_zero_count_train_file(self, tmp_path):
        empty = np.zeros((0, 2, 2), dtype=np.uint8)
        test = np.zeros((2, 2, 2), dtype=np.uint8)
        paths = make_idx_files(tmp_path, empty, [], test, [0, 1])
        with pytest.raises(FormatError, match="train-labels: the train split has 0 rows"):
            load_idx_dataset(paths["train_images"], paths["train_labels"],
                             paths["test_images"], paths["test_labels"])

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(5)
        train = rng.integers(0, 256, size=(4, 4, 4)).astype(np.uint8)
        test = rng.integers(0, 256, size=(2, 4, 4)).astype(np.uint8)
        paths = make_idx_files(tmp_path, train, [0, 1, 2, 3], test, [1, 0])
        ds = load_idx_dataset(paths["train_images"], paths["train_labels"],
                              paths["test_images"], paths["test_labels"])
        out = {key: tmp_path / f"out-{key}" for key in paths}
        save_idx_dataset(ds, out["train_images"], out["train_labels"],
                         out["test_images"], out["test_labels"])
        again = load_idx_dataset(out["train_images"], out["train_labels"],
                                 out["test_images"], out["test_labels"])
        assert np.array_equal(ds.features, again.features)
        assert np.array_equal(ds.labels, again.labels)

    def test_load_holds_one_float_array(self, tmp_path):
        # The two files' bytes, one n x m float64 array and small change: no
        # split converted on its own, and no n x m check temporary.
        rng = np.random.default_rng(6)
        train = rng.integers(0, 256, size=(1500, 28, 28)).astype(np.uint8)
        test = rng.integers(0, 256, size=(500, 28, 28)).astype(np.uint8)
        paths = make_idx_files(tmp_path, train, np.arange(1500) % 10,
                               test, np.arange(500) % 10)
        tracemalloc.start()
        try:
            ds = load_idx_dataset(paths["train_images"], paths["train_labels"],
                                  paths["test_images"], paths["test_labels"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < ds.features.nbytes + 2000 * 784 + (1 << 20)
        want = np.vstack([train.reshape(1500, 784).astype(np.float64) / 255.0,
                          test.reshape(500, 784).astype(np.float64) / 255.0])
        assert ds.features.tobytes() == want.tobytes()


class TestUspsLoader:
    def test_single_line(self, tmp_path):
        train = tmp_path / "zip.train"
        train.write_text("1 " + " ".join(["0.0"] * 256) + "\n")
        test = tmp_path / "zip.test"
        test.write_text("0 " + " ".join(["0.5"] * 256) + "\n")
        ds = load_usps_dataset(train, test)
        assert ds.features.shape == (2, 256)
        assert np.array_equal(ds.labels, [1, 0])
        assert np.array_equal(ds.features[0], np.zeros(256))

    def test_three_lines_known_values(self, tmp_path):
        rows = [
            (2, np.linspace(-1.0, 1.0, 4)),
            (0, np.array([0.25, -0.5, 0.75, -1.0])),
            (1, np.array([1.0, 1.0, -1.0, -1.0])),
        ]
        train = tmp_path / "zip.train"
        train.write_text("".join(
            f"{label}.0000 " + " ".join(f"{v:.6f}" for v in pixels) + "\n"
            for label, pixels in rows[:2]))
        test = tmp_path / "zip.test"
        test.write_text(
            f"{rows[2][0]}.0000 " + " ".join(f"{v:.6f}" for v in rows[2][1]) + "\n")
        ds = load_usps_dataset(train, test)
        assert ds.features.shape == (3, 4)
        assert np.array_equal(ds.labels, [2, 0, 1])
        for i, (_, pixels) in enumerate(rows):
            assert np.allclose(ds.features[i], pixels, atol=1e-12)

    def test_wrong_field_count(self, tmp_path):
        train = tmp_path / "zip.train"
        train.write_text("3 0.0 0.0\n5 0.0\n")
        test = tmp_path / "zip.test"
        test.write_text("1 0.0 0.0\n")
        with pytest.raises(FormatError):
            load_usps_dataset(train, test)

    def test_one_class(self, tmp_path):
        # With a single class, noise injection has no other class to draw.
        train = tmp_path / "zip.train"
        train.write_text("0 0.0 0.5\n0 1.0 0.5\n")
        test = tmp_path / "zip.test"
        test.write_text("0 0.5 0.5\n")
        with pytest.raises(FormatError, match="hold 1 class between them, need at least 2"):
            load_usps_dataset(train, test)

    def test_absent_class_ids(self, tmp_path):
        # Labels 0 and 5 only: classes 1-4 would be phantom noise targets.
        train = tmp_path / "zip.train"
        train.write_text("0 0.0 0.5\n5 1.0 0.5\n")
        test = tmp_path / "zip.test"
        test.write_text("5 0.5 0.5\n")
        with pytest.raises(FormatError) as info:
            load_usps_dataset(train, test)
        message = str(info.value)
        assert str(train) in message and str(test) in message
        assert "class ids [1, 2, 3, 4] hold no row" in message

    @pytest.mark.parametrize("label, message", [
        ("1e300", "label '1e300' does not fit a 64-bit integer"),
        ("4000000000", r"class ids \[2, 3, 4, 5, 6, 7, 8, 9, 10, 11\] and 3999999988 more "
                       "hold no row; labels must use every id from 0 to 4000000000"),
    ], ids=["past-int64", "past-row-count"])
    def test_huge_label_fails_without_large_allocation(self, tmp_path, label, message):
        # Listing every id up to 4e9 would allocate 32 GB before finding the gaps.
        train = tmp_path / "zip.train"
        train.write_text(f"0 0.0 0.5\n{label} 1.0 0.5\n")
        test = tmp_path / "zip.test"
        test.write_text("1 0.5 0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(FormatError, match=message):
                load_usps_dataset(train, test)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_class_id(self, tmp_path):
        train = tmp_path / "zip.train"
        train.write_text("0 0.0 0.5\n-1 1.0 0.5\n")
        test = tmp_path / "zip.test"
        test.write_text("1 0.5 0.5\n")
        with pytest.raises(FormatError, match="negative class id -1"):
            load_usps_dataset(train, test)

    @pytest.mark.parametrize("text, message", [
        (f"{GOOD_LINE}\n1.5 1.0 0.5", "label '1.5' is not an integer"),
        (f"{GOOD_LINE}\nnan 1.0 0.5", "label 'nan' is not an integer"),
        (f"{GOOD_LINE}\ninf 1.0 0.5", "label 'inf' is not an integer"),
        (f"{GOOD_LINE}\n1e300 1.0 0.5", "label '1e300' does not fit a 64-bit integer"),
        (f"{GOOD_LINE}\n1 nan 0.5", "non-finite pixel value"),
        (f"{GOOD_LINE}\n1 1.0 -inf", "non-finite pixel value"),
        (f"{GOOD_LINE}\n\n  \n1 1.0", "expected 3 fields, got 2"),
        ("1", "no pixel values on line"),
        (f"{GOOD_LINE}\n1 0.5 x", "could not convert string to float: 'x'"),
    ], ids=["fractional-label", "nan-label", "inf-label", "huge-label", "nan-pixel",
            "inf-pixel", "blank-lines-counted", "label-only", "non-numeric-pixel"])
    def test_malformed_value_names_line(self, tmp_path, text, message):
        # The failing line is the file's last.
        train = tmp_path / "zip.train"
        train.write_text(f"{text}\n")
        test = tmp_path / "zip.test"
        test.write_text("1 0.5 0.5\n")
        with pytest.raises(FormatError) as info:
            load_usps_dataset(train, test)
        assert str(info.value) == f"{train}:{len(text.splitlines())}: {message}"

    @pytest.mark.parametrize("train_text, test_text, message", [
        ("\n  \n", "1 0.5 0.5\n", "{train}: no samples found"),
        ("0 0.0 0.5\n1 1.0 0.5\n", "1 0.5 0.5 0.5\n",
         "{train}, {test}: pixel counts differ between splits: 2 vs 3"),
    ], ids=["no-samples", "pixel-counts-differ"])
    def test_malformed_file_is_named(self, tmp_path, train_text, test_text, message):
        train = tmp_path / "zip.train"
        train.write_text(train_text)
        test = tmp_path / "zip.test"
        test.write_text(test_text)
        with pytest.raises(FormatError) as info:
            load_usps_dataset(train, test)
        assert str(info.value) == message.format(train=train, test=test)

    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = synthetic_blobs(12, 3, 5, 0.2, seed=1)
        train = tmp_path / "a.train"
        test = tmp_path / "a.test"
        save_usps_dataset(ds, train, test)
        again = load_usps_dataset(train, test)
        assert np.array_equal(ds.features, again.features)
        assert np.array_equal(ds.labels, again.labels)


class TestSyntheticBlobs:
    def test_nearest_neighbor_separability(self):
        ds = synthetic_blobs(10, 2, 2, 0.01, seed=3)
        train, test = ds.train_indices, ds.test_indices
        dists = cdist(ds.features[test], ds.features[train])
        pred = ds.labels[train][np.argmin(dists, axis=1)]
        assert np.array_equal(pred, ds.labels[test])

    def test_same_seed_bit_identical(self):
        a = synthetic_blobs(40, 4, 6, 0.1, seed=9)
        b = synthetic_blobs(40, 4, 6, 0.1, seed=9)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.train_indices, b.train_indices)
        assert np.array_equal(a.test_indices, b.test_indices)

    @staticmethod
    def _reference_blobs(n, num_classes, dim, spread, seed, separation=10.0):
        """Class-ordered matrix, then one gather into train-then-test order."""
        rng = np.random.default_rng(seed)
        sizes = np.full(num_classes, n // num_classes, dtype=np.int64)
        sizes[: n % num_classes] += 1
        features = np.empty((n, dim))
        labels = np.empty(n, dtype=np.int64)
        train_rows, test_rows = [], []
        offset = 0
        for c in range(num_classes):
            center = np.zeros(dim)
            center[c % dim] = separation * spread * (1 + c // dim)
            size = int(sizes[c])
            features[offset:offset + size] = center + spread * rng.standard_normal((size, dim))
            labels[offset:offset + size] = c
            n_train = int(size * 0.7 + 0.5)
            train_rows.append(np.arange(offset, offset + n_train))
            test_rows.append(np.arange(offset + n_train, offset + size))
            offset += size
        order = np.concatenate(train_rows + test_rows)
        return features[order], labels[order], sum(len(r) for r in train_rows)

    @pytest.mark.parametrize("n, num_classes, dim",
                             [(2000, 10, 784), (301, 7, 5), (12000, 10, 50), (13, 3, 2)])
    def test_matches_gathered_reference(self, n, num_classes, dim):
        features, labels, l = self._reference_blobs(n, num_classes, dim, 0.3, seed=21)
        ds = synthetic_blobs(n, num_classes, dim, 0.3, seed=21)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)
        assert np.array_equal(ds.train_indices, np.arange(l))
        assert np.array_equal(ds.test_indices, np.arange(l, n))

    def test_separation_sets_center_gap(self):
        features, labels, _ = self._reference_blobs(301, 7, 5, 0.3, 21, separation=3.0)
        ds = synthetic_blobs(301, 7, 5, 0.3, seed=21, separation=3.0)
        assert np.array_equal(ds.features, features)
        assert np.array_equal(ds.labels, labels)

    @pytest.mark.parametrize("separation", [0.0, -3.0, np.inf, np.nan])
    def test_separation_must_be_positive_and_finite(self, separation):
        with pytest.raises(ValueError, match="separation must be positive and finite"):
            synthetic_blobs(10, 2, 2, 0.1, seed=0, separation=separation)

    def test_balanced_classes_and_split(self):
        ds = synthetic_blobs(100, 4, 3, 0.05, seed=0)
        counts = np.bincount(ds.labels, minlength=4)
        assert np.array_equal(counts, [25, 25, 25, 25])
        assert len(ds.train_indices) == 72  # 4 * int(25 * 0.7 + 0.5)
        assert np.array_equal(ds.train_indices, np.arange(72))

    def test_center_separation(self):
        # Centers sit at least 10 * spread apart: points stay near their own class.
        ds = synthetic_blobs(200, 5, 2, 0.1, seed=7)
        for c in range(5):
            cluster = ds.features[ds.labels == c]
            center = cluster.mean(axis=0)
            assert np.linalg.norm(cluster - center, axis=1).max() < 5 * 0.1 * np.sqrt(2)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            synthetic_blobs(1, 2, 2, 0.1, seed=0)
        with pytest.raises(ValueError):
            synthetic_blobs(10, 2, 0, 0.1, seed=0)
        with pytest.raises(ValueError):
            synthetic_blobs(10, 2, 2, 0.0, seed=0)


class TestStratifiedSubsample:
    def test_preserves_train_test_ratio(self):
        ds = synthetic_blobs(700, 5, 3, 0.05, seed=2)
        sub = stratified_subsample(ds, 100, seed=0)
        assert sub.num_samples == 100
        want_train = round(100 * len(ds.train_indices) / ds.num_samples)
        assert len(sub.train_indices) == want_train
        assert len(sub.test_indices) == 100 - want_train

    def test_stratification(self):
        ds = synthetic_blobs(1000, 10, 3, 0.05, seed=4)
        sub = stratified_subsample(ds, 200, seed=1)
        counts = np.bincount(sub.labels, minlength=10)
        assert counts.min() >= 15 and counts.max() <= 25

    def test_deterministic(self):
        ds = synthetic_blobs(300, 3, 4, 0.05, seed=6)
        a = stratified_subsample(ds, 60, seed=5)
        b = stratified_subsample(ds, 60, seed=5)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_remainder_ties_go_to_the_lower_class(self):
        assert _largest_remainder([1, 1, 1], 2).tolist() == [1, 1, 0]
        assert _largest_remainder([5, 3, 1], 4).tolist() == [2, 1, 1]
        assert _largest_remainder([2, 1, 1], 2).tolist() == [1, 1, 0]

    def test_uneven_classes(self):
        # Train classes 5:3:1 and test classes 2:1:1; feature = original row.
        labels = np.array([0, 0, 0, 0, 0, 1, 1, 1, 2, 0, 0, 1, 2])
        ds = ImageDataset(np.arange(13.0)[:, None], labels, np.arange(9),
                          np.arange(9, 13), 3)
        sub = stratified_subsample(ds, 6, seed=3)
        # round(6 * 9 / 13) = 4 train rows, quotas [2, 1, 1]; 2 test rows, [1, 1, 0].
        train_counts = np.bincount(sub.labels[sub.train_indices], minlength=3)
        test_counts = np.bincount(sub.labels[sub.test_indices], minlength=3)
        assert train_counts.tolist() == [2, 1, 1]
        assert test_counts.tolist() == [1, 1, 0]
        rows = sub.features[:, 0].astype(np.int64)
        assert np.array_equal(labels[rows], sub.labels)
        assert np.all(rows[sub.train_indices] < 9) and np.all(rows[sub.test_indices] >= 9)

    def test_size_validation(self):
        ds = synthetic_blobs(30, 3, 2, 0.05, seed=0)
        with pytest.raises(ValueError):
            stratified_subsample(ds, 0, seed=0)
        with pytest.raises(ValueError):
            stratified_subsample(ds, 31, seed=0)


def _available(name):
    from pathlib import Path
    from hgssl.bench import resolve_dataset_paths
    return all(Path(p).exists() for p in resolve_dataset_paths(name, {}).values())


@pytest.mark.skipif(not _available("mnist"),
                    reason="MNIST IDX files not found under $HGSSL_DATA_DIR/mnist")
def test_mnist_full_scale_shapes():
    from hgssl.bench import ExperimentConfig, load_dataset
    from hgssl.pca import pca_fit, pca_transform
    ds = load_dataset(ExperimentConfig(dataset="mnist"))
    assert ds.features.shape == (70000, 784)
    assert len(ds.train_indices) == 60000
    assert len(ds.test_indices) == 10000
    assert ds.num_classes == 10
    model = pca_fit(ds.features, 50)
    assert pca_transform(model, ds.features).shape == (70000, 50)


@pytest.mark.skipif(not _available("usps"),
                    reason="USPS files not found under $HGSSL_DATA_DIR/usps")
def test_usps_full_scale_shapes():
    from hgssl.bench import ExperimentConfig, load_dataset
    ds = load_dataset(ExperimentConfig(dataset="usps"))
    assert ds.features.shape == (9298, 256)
    assert len(ds.train_indices) == 7291
    assert len(ds.test_indices) == 2007
    assert ds.num_classes == 10


def test_dataset_invariants_enforced():
    features = np.zeros((4, 2))
    labels = np.array([0, 1, 0, 1])
    with pytest.raises(ValueError):
        ImageDataset(features, labels, np.array([0, 1]), np.array([1, 2, 3]), 2)
    with pytest.raises(ValueError):
        ImageDataset(features, np.array([0, 1, 0, 5]), np.array([0, 1]),
                     np.array([2, 3]), 2)
    with pytest.raises(ValueError):
        ImageDataset(features * np.nan, labels, np.array([0, 1]), np.array([2, 3]), 2)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_one_nonfinite_feature_rejected(value):
    features = np.zeros((4, 2))
    features[2, 1] = value
    with pytest.raises(ValueError, match="features contain non-finite entries"):
        ImageDataset(features, np.array([0, 1, 0, 1]), np.array([0, 1]),
                     np.array([2, 3]), 2)
