"""Image dataset loading: IDX binaries, USPS text files, synthetic blobs.

Every loader produces an :class:`ImageDataset` whose feature rows are the
flattened images (pixel at row r, column c of a width-w image lands in feature
column ``r * w + c``) with all training rows stored before all test rows.
Pixel ranges: IDX images are unsigned bytes rescaled to [0, 1]; USPS text
values are kept in their native [-1, 1] range.
"""

import struct
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .errors import FormatError, _require

_IDX_IMAGES_MAGIC = 2051
_IDX_LABELS_MAGIC = 2049
# Absent class ids a FormatError lists before it counts the rest.
_ABSENT_IDS_SHOWN = 10


@dataclass(frozen=True)
class ImageDataset:
    """Flattened features with integer class labels and a train/test split."""

    features: np.ndarray       # n x m float64
    labels: np.ndarray         # n int64, each in [0, num_classes)
    train_indices: np.ndarray  # int64
    test_indices: np.ndarray   # int64
    num_classes: int

    def __post_init__(self):
        n = self.features.shape[0]
        if self.labels.shape != (n,):
            raise ValueError(f"labels shape {self.labels.shape} != ({n},)")
        combined = np.concatenate([self.train_indices, self.test_indices])
        if not np.array_equal(np.sort(combined), np.arange(n)):
            raise ValueError("train/test indices must partition [0, n) without overlap")
        if self.labels.min(initial=0) < 0 or self.labels.max(initial=0) >= self.num_classes:
            raise ValueError(f"labels must lie in [0, {self.num_classes})")
        # min and max propagate a NaN and reach any infinity, and unlike
        # isfinite(features).all() they allocate no n x m temporary.
        bounds = self.features.min(initial=0.0), self.features.max(initial=0.0)
        if not np.isfinite(bounds).all():
            raise ValueError("features contain non-finite entries")

    @property
    def num_samples(self) -> int:
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class LabeledSplit:
    """A dataset's labels and train/test split, without its features."""

    labels: np.ndarray         # n int64, each in [0, num_classes)
    train_indices: np.ndarray  # int64
    test_indices: np.ndarray   # int64
    num_classes: int


def _read_exact(path, expect_magic):
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError(f"{path}: truncated IDX header")
    magic, count = struct.unpack(">II", data[:8])
    if magic != expect_magic:
        raise FormatError(f"{path}: bad IDX magic {magic}, expected {expect_magic}")
    return data, count


def _read_idx_images(path):
    data, count = _read_exact(path, _IDX_IMAGES_MAGIC)
    if len(data) < 16:
        raise FormatError(f"{path}: truncated IDX image header")
    rows, cols = struct.unpack(">II", data[8:16])
    need = 16 + count * rows * cols
    if len(data) < need:
        raise FormatError(f"{path}: expected {need} bytes, file has {len(data)}")
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16, count=count * rows * cols)
    # Row-major flattening: pixel (r, c) -> column r*cols + c.
    return pixels.reshape(count, rows * cols), (rows, cols)


def _read_idx_labels(path):
    data, count = _read_exact(path, _IDX_LABELS_MAGIC)
    if len(data) < 8 + count:
        raise FormatError(f"{path}: expected {8 + count} bytes, file has {len(data)}")
    return np.frombuffer(data, dtype=np.uint8, offset=8, count=count).astype(np.int64)


def load_idx_dataset(images_path_train, labels_path_train,
                     images_path_test, labels_path_test) -> ImageDataset:
    """Load an MNIST-layout dataset from the four standard IDX files."""
    train_x, shape_train = _read_idx_images(images_path_train)
    train_y = _read_idx_labels(labels_path_train)
    test_x, shape_test = _read_idx_images(images_path_test)
    test_y = _read_idx_labels(labels_path_test)
    if shape_train != shape_test:
        raise FormatError(f"{images_path_train}, {images_path_test}: image shapes differ "
                          f"between splits: {shape_train} vs {shape_test}")
    if train_x.shape[0] != train_y.shape[0]:
        raise FormatError(f"{images_path_train}, {labels_path_train}: train image count "
                          f"{train_x.shape[0]} != label count {train_y.shape[0]}")
    if test_x.shape[0] != test_y.shape[0]:
        raise FormatError(f"{images_path_test}, {labels_path_test}: test image count "
                          f"{test_x.shape[0]} != label count {test_y.shape[0]}")
    return _train_then_test(train_x, train_y, test_x, test_y,
                            labels_path_train, labels_path_test, divisor=255.0)


def _absent_classes(classes: np.ndarray, num_classes: int) -> str:
    """The ids in [0, num_classes) missing from sorted distinct ``classes``, as text.

    Empty when none is missing.  The first missing ids are read off the gaps
    between the sorted ids, and the rest are counted: listing every id up to
    a label of 4e9 would take 32 GB.
    """
    ids = classes.tolist()
    absent = num_classes - len(ids)
    if not absent:
        return ""
    gaps = (range(low, high) for low, high in zip([0] + [i + 1 for i in ids],
                                                   ids + [num_classes]))
    shown = list(islice(chain.from_iterable(gaps), _ABSENT_IDS_SHOWN))
    return f"{shown} and {absent - len(shown)} more" if absent > len(shown) else str(shown)


def _train_then_test(train_x, train_y, test_x, test_y, train_path,
                     test_path, divisor=1.0) -> ImageDataset:
    """Stack the two splits, training rows first; classes are 0..max label.

    The features are one n x m float64 array, allocated once every check has
    passed.  Each split is divided by ``divisor`` straight into its rows (the
    IDX bytes by 255; dividing by 1 keeps every value), so no split is
    converted to float64 on its own first.

    Each split must hold a row and the two together at least two classes:
    otherwise the closed-form methods would score an empty labeled set and
    noise injection would have no other class to draw.  Every class id from
    0 to the largest must hold a row: noise injection would otherwise flip
    labels into a class that no row has.
    """
    for split, path, labels in (("train", train_path, train_y), ("test", test_path, test_y)):
        if not len(labels):
            raise FormatError(f"{path}: the {split} split has 0 rows")
    labels = np.concatenate([train_y, test_y])
    classes = np.unique(labels)
    if classes.size < 2:
        raise FormatError(f"{train_path}, {test_path}: the train and test splits hold "
                          f"{classes.size} class between them, need at least 2")
    if classes[0] < 0:
        raise FormatError(f"{train_path}, {test_path}: negative class id {classes[0]}")
    absent = _absent_classes(classes, int(classes[-1]) + 1)
    if absent:
        raise FormatError(f"{train_path}, {test_path}: class ids {absent} hold no "
                          f"row; labels must use every id from 0 to {classes[-1]}")
    l = train_x.shape[0]
    n = l + test_x.shape[0]
    features = np.empty((n, train_x.shape[1]))
    np.divide(train_x, divisor, out=features[:l])
    np.divide(test_x, divisor, out=features[l:])
    return ImageDataset(
        features=features,
        labels=labels,
        train_indices=np.arange(l, dtype=np.int64),
        test_indices=np.arange(l, n, dtype=np.int64),
        num_classes=int(classes.size),
    )


def save_idx_dataset(ds: ImageDataset, images_path_train, labels_path_train,
                     images_path_test, labels_path_test, image_shape=None):
    """Write ``ds`` back to the four IDX files (features must lie in [0, 1]).

    Inverse of :func:`load_idx_dataset` for byte-derived features: pixels are
    rounded to unsigned bytes, so x/255 values round-trip bit-identically.
    """
    if ds.features.min(initial=0.0) < 0.0 or ds.features.max(initial=0.0) > 1.0:
        raise ValueError("IDX export requires features in [0, 1]")
    m = ds.num_features
    if image_shape is None:
        side = int(round(np.sqrt(m)))
        if side * side != m:
            raise ValueError(f"cannot infer image shape from {m} features; pass image_shape")
        image_shape = (side, side)
    rows, cols = image_shape
    if rows * cols != m:
        raise ValueError(f"image_shape {image_shape} does not match {m} features")

    def write_split(indices, images_path, labels_path):
        pixels = np.round(ds.features[indices] * 255.0).astype(np.uint8)
        with open(images_path, "wb") as fh:
            fh.write(struct.pack(">IIII", _IDX_IMAGES_MAGIC, len(indices), rows, cols))
            fh.write(pixels.tobytes())
        with open(labels_path, "wb") as fh:
            fh.write(struct.pack(">II", _IDX_LABELS_MAGIC, len(indices)))
            fh.write(ds.labels[indices].astype(np.uint8).tobytes())

    write_split(ds.train_indices, images_path_train, labels_path_train)
    write_split(ds.test_indices, images_path_test, labels_path_test)


def _read_usps_file(path):
    rows = []
    labels = []
    width = None
    with open(path, "r") as fh:
        for lineno, line in enumerate(fh, start=1):
            fields = line.split()
            if not fields:
                continue
            if width is None:
                width = len(fields) - 1
                if width < 1:
                    raise FormatError(f"{path}:{lineno}: no pixel values on line")
            elif len(fields) - 1 != width:
                raise FormatError(
                    f"{path}:{lineno}: expected {width + 1} fields, got {len(fields)}")
            try:
                values = np.array(fields, dtype=np.float64)
            except ValueError as exc:
                raise FormatError(f"{path}:{lineno}: {exc}") from exc
            # Labels are written as reals ("6.0000"); each must be a whole
            # number that int64 holds.
            label = float(values[0])
            if not label.is_integer():
                raise FormatError(f"{path}:{lineno}: label {fields[0]!r} is not an integer")
            if not -2.0 ** 63 <= label < 2.0 ** 63:
                raise FormatError(
                    f"{path}:{lineno}: label {fields[0]!r} does not fit a 64-bit integer")
            if not np.isfinite(values[1:]).all():
                raise FormatError(f"{path}:{lineno}: non-finite pixel value")
            labels.append(int(label))
            rows.append(values[1:])
    if not rows:
        raise FormatError(f"{path}: no samples found")
    return np.array(rows, dtype=np.float64), np.array(labels, dtype=np.int64)


def load_usps_dataset(train_path, test_path) -> ImageDataset:
    """Load USPS from whitespace text files: label followed by 256 pixel reals."""
    train_x, train_y = _read_usps_file(train_path)
    test_x, test_y = _read_usps_file(test_path)
    if train_x.shape[1] != test_x.shape[1]:
        raise FormatError(f"{train_path}, {test_path}: pixel counts differ between "
                          f"splits: {train_x.shape[1]} vs {test_x.shape[1]}")
    return _train_then_test(train_x, train_y, test_x, test_y, train_path, test_path)


def save_usps_dataset(ds: ImageDataset, train_path, test_path):
    """Write ``ds`` in the USPS text layout; %.17g keeps float64 exact."""

    def write_split(indices, path):
        with open(path, "w") as fh:
            for i in indices:
                pixels = " ".join(f"{v:.17g}" for v in ds.features[i])
                fh.write(f"{ds.labels[i]} {pixels}\n")

    write_split(ds.train_indices, train_path)
    write_split(ds.test_indices, test_path)


def check_blob_args(n, num_classes, dim, spread, seed):
    """The rules on :func:`synthetic_blobs` arguments.

    Errors name the ``[dataset]`` config key (``classes`` for ``num_classes``),
    so ``SyntheticSpec`` applies the same rules before any data is made.
    """
    _require(num_classes >= 2, "classes", f"classes must be at least 2, got {num_classes}")
    _require(n >= num_classes, "n", f"n must be at least classes ({num_classes}), got {n}")
    _require(dim >= 1, "dim", f"dim must be a positive integer, got {dim}")
    _require(0 < spread < np.inf, "spread", f"spread must be positive and finite, got {spread}")
    _require(seed >= 0, "seed", f"seed must be a non-negative integer, got {seed}")


def synthetic_blobs(n: int, num_classes: int, dim: int, spread: float,
                    seed: int, separation: float = 10.0) -> ImageDataset:
    """Gaussian clusters, one per class, for desk-scale tests.

    Class centers sit at distance >= separation * spread from each other: at
    the default 10 the classes lie far apart, at 3 they overlap.  Class sizes
    are balanced, and each class is split 70/30 into train/test.  All
    randomness flows through a single PCG64 stream seeded with ``seed`` (one
    standard-normal block per class, drawn in class order), so identical
    arguments produce bit-identical datasets.
    """
    check_blob_args(n, num_classes, dim, spread, seed)
    if not 0 < separation < np.inf:
        raise ValueError(f"separation must be positive and finite, got {separation}")
    rng = np.random.default_rng(seed)

    sizes = np.full(num_classes, n // num_classes, dtype=np.int64)
    sizes[: n % num_classes] += 1

    gap = separation * spread
    n_train = (sizes * 0.7 + 0.5).astype(np.int64)
    l = int(n_train.sum())
    features = np.empty((n, dim))
    labels = np.empty(n, dtype=np.int64)
    # Rows go straight to train-then-test order: class c's train rows follow
    # those of classes < c, and its test rows follow theirs after row l.
    train_at, test_at = 0, l
    for c in range(num_classes):
        center = np.zeros(dim)
        center[c % dim] = gap * (1 + c // dim)
        size, train = int(sizes[c]), int(n_train[c])
        block = rng.standard_normal((size, dim))
        block *= spread
        block += center
        features[train_at:train_at + train] = block[:train]
        features[test_at:test_at + size - train] = block[train:]
        labels[train_at:train_at + train] = c
        labels[test_at:test_at + size - train] = c
        train_at += train
        test_at += size - train
    return ImageDataset(
        features=features,
        labels=labels,
        train_indices=np.arange(l, dtype=np.int64),
        test_indices=np.arange(l, n, dtype=np.int64),
        num_classes=num_classes,
    )


def stratified_subsample(ds: ImageDataset, size: int, seed: int) -> ImageDataset:
    """Seeded stratified subsample preserving the train:test ratio of ``ds``.

    Per-class quotas are proportional with largest-remainder rounding, and
    rows are drawn uniformly without replacement from each class pool
    (classes in ascending order, train pool before test pool).
    """
    n = ds.num_samples
    if not (0 < size <= n):
        raise ValueError(f"subsample size must be in (0, {n}], got {size}")
    rng = np.random.default_rng(seed)
    want_train = int(round(size * len(ds.train_indices) / n))
    want_test = size - want_train

    def draw(pool_indices, want):
        pools = [pool_indices[ds.labels[pool_indices] == c] for c in range(ds.num_classes)]
        quota = _largest_remainder([len(p) for p in pools], want)
        picks = []
        for pool, q in zip(pools, quota):
            if q > len(pool):
                raise ValueError("class pool smaller than its subsample quota")
            if q:
                picks.append(np.sort(rng.choice(pool, size=q, replace=False)))
        return np.concatenate(picks) if picks else np.array([], dtype=np.int64)

    train_rows = draw(ds.train_indices, want_train)
    test_rows = draw(ds.test_indices, want_test)
    order = np.concatenate([train_rows, test_rows])
    return ImageDataset(
        features=ds.features[order],
        labels=ds.labels[order],
        train_indices=np.arange(len(train_rows), dtype=np.int64),
        test_indices=np.arange(len(train_rows), size, dtype=np.int64),
        num_classes=ds.num_classes,
    )


def _largest_remainder(counts, total):
    """Integer quotas proportional to ``counts`` summing exactly to ``total``."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.sum() < total:
        raise ValueError("pool smaller than requested total")
    exact = counts * (total / counts.sum())
    quota = np.floor(exact).astype(np.int64)
    shortfall = total - int(quota.sum())
    if shortfall:
        # Break remainder ties by lower class index.
        order = np.lexsort((np.arange(len(counts)), -(exact - quota)))
        quota[order[:shortfall]] += 1
    return quota
