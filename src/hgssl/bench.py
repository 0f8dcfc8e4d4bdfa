"""Benchmark orchestration: run methods over a noise grid and render tables.

A grid cell is one (method, noise level, seed) triple.  Operators are built
once per experiment and shared read-only across cells; the feature-propagation
step of the hgnn-proposed method does not depend on labels, so it also runs
once.  Each cell's seed drives both the noise injection and, for the neural
methods, the parameter initialization.  Within one grid a closed-form cell's
accuracy depends only on its method and its noisy training labels, so cells
whose labels are equal (every seed at noise level 0) share one solve.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import hypergraph as hg
from .datasets import (ImageDataset, check_blob_args, load_idx_dataset,
                       load_usps_dataset, stratified_subsample, synthetic_blobs)
from .errors import FormatError, SolverError, _require
from .labels import accuracy, decode_predictions, encode_labels, inject_noise
from .network import TrainConfig, predict, train
from .pca import pca_fit, pca_transform
from .propagation import PropagationConfig, propagate_features, propagate_labels

METHODS = ("graph-ssl", "hypergraph-ssl", "gcn", "hgnn", "hgnn-proposed")

# The operator each method runs on.  hgnn propagates with the symmetric
# hypergraph operator, as HGNN (Feng et al., AAAI 2019) does.
_METHOD_OPERATORS = {"graph-ssl": "graph", "hypergraph-ssl": "hg_sym", "gcn": "gcn",
                     "hgnn": "hg_sym", "hgnn-proposed": "hg_sym"}
_CLOSED_FORM = ("graph-ssl", "hypergraph-ssl")
# The normalization each operator is built with; a cache file must hold it.
_OPERATOR_NORMALIZATIONS = {"hg_sym": "sym", "graph": "graph_sym", "gcn": "gcn"}

DEFAULT_PCA_DIMS = {"mnist": 50, "usps": 50, "fashion": 300, "synthetic": None}
# Marks a pca_dims left unset, which ExperimentConfig resolves from its dataset.
_PER_DATASET = object()

DATA_DIR_ENV = "HGSSL_DATA_DIR"

_IDX_FILES = {
    "train_images": "train-images-idx3-ubyte",
    "train_labels": "train-labels-idx1-ubyte",
    "test_images": "t10k-images-idx3-ubyte",
    "test_labels": "t10k-labels-idx1-ubyte",
}
# Canonical file name under <data_dir>/<dataset>/ for each dataset path key.
DATASET_FILES = {
    "mnist": _IDX_FILES,
    "fashion": _IDX_FILES,
    "usps": {"train_path": "zip.train", "test_path": "zip.test"},
    "synthetic": {},
}

CSV_HEADER = "dataset,method,noise_level,seed,accuracy,wall_time_s,pca"


@dataclass(frozen=True)
class SyntheticSpec:
    n: int = 300
    classes: int = 3
    dim: int = 10
    spread: float = 0.1
    seed: int = 1

    def __post_init__(self):
        check_blob_args(self.n, self.classes, self.dim, self.spread, self.seed)


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: str
    paths: dict = field(default_factory=dict)
    methods: tuple = METHODS
    noise_levels: tuple = (0.0, 0.15, 0.30, 0.45)
    seeds: tuple = (0, 1, 2)
    # Unset means DEFAULT_PCA_DIMS[dataset]; an explicit None means no PCA.
    pca_dims: Optional[int] = _PER_DATASET
    k: int = 5
    train: TrainConfig = TrainConfig()
    solver: PropagationConfig = PropagationConfig()
    subsample_size: Optional[int] = None
    subsample_seed: int = 0
    synthetic: Optional[SyntheticSpec] = None  # SyntheticSpec() for "synthetic"

    def __post_init__(self):
        # Every value is resolved and checked here, before any data is loaded.
        _require(self.dataset in DEFAULT_PCA_DIMS, "dataset",
                 f"unknown dataset {self.dataset!r}")
        if self.pca_dims is _PER_DATASET:
            object.__setattr__(self, "pca_dims", DEFAULT_PCA_DIMS[self.dataset])
        if self.dataset == "synthetic" and self.synthetic is None:
            object.__setattr__(self, "synthetic", SyntheticSpec())
        _require(self.dataset == "synthetic" or self.synthetic is None, "synthetic",
                 f"a synthetic spec applies only to the synthetic dataset, "
                 f"not {self.dataset!r}")
        for key in self.paths:
            _require(key in DATASET_FILES[self.dataset], "paths",
                     f"unknown path {key!r} for dataset {self.dataset!r}; known: "
                     f"{', '.join(DATASET_FILES[self.dataset]) or 'none'}")
        for name in ("methods", "noise_levels", "seeds"):
            values = getattr(self, name)
            _require(bool(values), name, f"{name} must not be empty")
            for i, value in enumerate(values):
                _require(value not in values[:i], name,
                         f"{name} lists {value!r} more than once")
        for seed in self.seeds:
            _require(seed >= 0, "seeds", f"seeds must be non-negative integers, got {seed}")
        for method in self.methods:
            _require(method in METHODS, "methods",
                     f"unknown method {method!r}; known: {', '.join(METHODS)}")
        for level in self.noise_levels:
            _require(0.0 <= level < 1.0, "noise_levels", f"noise level {level} outside [0, 1)")
        _require(self.pca_dims is None or self.pca_dims >= 1, "pca_dims",
                 f"pca_dims must be a positive integer or none, got {self.pca_dims}")
        _require(self.k >= 1, "k", f"k must be a positive integer, got {self.k}")
        _require(self.subsample_size is None or self.subsample_size >= 1, "subsample_size",
                 f"subsample_size must be a positive integer or none, "
                 f"got {self.subsample_size}")
        _require(self.subsample_seed >= 0, "subsample_seed",
                 f"subsample_seed must be a non-negative integer, got {self.subsample_seed}")


@dataclass(frozen=True)
class ResultRow:
    dataset: str
    method: str
    noise_level: float
    seed: int
    accuracy: float
    wall_time_seconds: float
    pca_used: bool


@dataclass(frozen=True)
class CellFailure:
    method: str
    noise_level: float
    seed: int
    error: str


@dataclass
class ExperimentReport:
    rows: list
    failures: list

    @property
    def ok(self) -> bool:
        return not self.failures


def default_data_dir():
    return os.environ.get(DATA_DIR_ENV, "data")


def resolve_dataset_paths(name, explicit, data_dir=None):
    """Explicit config paths win; otherwise use canonical names under data_dir/<name>/."""
    base = Path(data_dir if data_dir is not None else default_data_dir()) / name
    return {key: explicit.get(key, str(base / filename))
            for key, filename in DATASET_FILES[name].items()}


def load_dataset(cfg: ExperimentConfig, data_dir=None) -> ImageDataset:
    if cfg.dataset == "synthetic":
        spec = cfg.synthetic
        return synthetic_blobs(spec.n, spec.classes, spec.dim, spec.spread, spec.seed)
    paths = resolve_dataset_paths(cfg.dataset, cfg.paths, data_dir)
    if cfg.dataset == "usps":
        return load_usps_dataset(paths["train_path"], paths["test_path"])
    return load_idx_dataset(paths["train_images"], paths["train_labels"],
                            paths["test_images"], paths["test_labels"])


@dataclass
class PreparedExperiment:
    config: ExperimentConfig
    dataset: ImageDataset
    features: np.ndarray
    operators: dict
    propagated: Optional[np.ndarray]
    # A failed feature solve fails each hgnn-proposed cell, not the grid.
    propagation_error: Optional[SolverError] = None


def operator_cache_key(cfg: ExperimentConfig, X: np.ndarray) -> str:
    """Hex sha256 of the prepared features and every setting the operators depend on."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    digest = hashlib.sha256(
        repr((hg.CACHE_VERSION, X.shape, cfg.k)).encode())
    digest.update(X.data)
    return digest.hexdigest()


def operator_cache_path(ops_dir, key: str, op_name: str) -> Path:
    return Path(ops_dir) / f"{key}_{op_name}.hgop"


def build_operators(cfg: ExperimentConfig, X: np.ndarray, ops_dir=None) -> dict:
    """Build (or load from cache) every operator the configured methods need."""
    needed = {_METHOD_OPERATORS[method] for method in cfg.methods}
    key = operator_cache_key(cfg, X) if ops_dir is not None else None
    operators = {}
    pending = set()
    for name in needed:
        path = operator_cache_path(ops_dir, key, name) if ops_dir is not None else None
        if path is not None and path.exists():
            op = hg.load_operator(path)
            expected = (_OPERATOR_NORMALIZATIONS[name], (len(X), len(X)))
            if (op.normalization, op.shape) != expected:
                raise FormatError(f"{path}: holds a {op.normalization} operator of shape "
                                  f"{op.shape}, expected {name!r} as {expected}")
            operators[name] = op
        else:
            pending.add(name)

    if pending:
        knn = hg.knn_indices(X, cfg.k)
        if "hg_sym" in pending:
            hgraph = hg.build_knn_hypergraph(knn)
            operators["hg_sym"] = hg.hypergraph_operator(hgraph, "sym")
        if pending & {"graph", "gcn"}:
            adjacency = hg.gaussian_knn_adjacency(X, knn)
        if "graph" in pending:
            operators["graph"] = hg.build_knn_graph(adjacency)
        if "gcn" in pending:
            operators["gcn"] = hg.gcn_operator(adjacency)
        if ops_dir is not None:
            Path(ops_dir).mkdir(parents=True, exist_ok=True)
            for name in pending:
                hg.save_operator(operator_cache_path(ops_dir, key, name), operators[name])
    return operators


def prepare_features(cfg: ExperimentConfig, data_dir=None):
    """Load, optionally subsample, and optionally PCA-reduce the dataset.

    Settings whose range depends on the data are checked as soon as it is known.
    """
    dataset = load_dataset(cfg, data_dir)
    if cfg.subsample_size is not None:
        _require(cfg.subsample_size <= dataset.num_samples, "subsample_size",
                 f"subsample_size must be at most the dataset's {dataset.num_samples} "
                 f"points, got {cfg.subsample_size}")
        dataset = stratified_subsample(dataset, cfg.subsample_size, cfg.subsample_seed)
        n_train, n_test = len(dataset.train_indices), len(dataset.test_indices)
        _require(n_train > 0 and n_test > 0, "subsample_size",
                 f"subsample_size {cfg.subsample_size} draws {n_train} train and "
                 f"{n_test} test points; both splits must be non-empty")
    X = dataset.features
    n, m = X.shape
    _require(cfg.k < n, "k", f"k must be less than the {n} points, got {cfg.k}")
    if cfg.pca_dims is not None:
        _require(cfg.pca_dims <= min(n - 1, m), "pca_dims",
                 f"pca_dims must be at most min(n - 1, m) = {min(n - 1, m)} for "
                 f"{n} points of {m} features, got {cfg.pca_dims}")
        model = pca_fit(X, cfg.pca_dims)
        X = pca_transform(model, X)
    return dataset, X


def prepare_experiment(cfg: ExperimentConfig, data_dir=None,
                       ops_dir=None) -> PreparedExperiment:
    dataset, X = prepare_features(cfg, data_dir)
    operators = build_operators(cfg, X, ops_dir)
    propagated = error = None
    if "hgnn-proposed" in cfg.methods:
        try:
            propagated = propagate_features(operators["hg_sym"], X, cfg.solver)
        except SolverError as exc:
            # Kept bare: the caught error's traceback holds the solve's arrays.
            error = SolverError(exc.reason, exc.residual, exc.columns)
    return PreparedExperiment(config=cfg, dataset=dataset, features=X,
                              operators=operators, propagated=propagated,
                              propagation_error=error)


def run_cell(prepared: PreparedExperiment, method: str, level: float,
             seed: int, solved: Optional[dict] = None) -> ResultRow:
    """Run one (method, noise level, seed) cell and score it on the test split.

    ``solved`` maps (closed-form method, sha256 of the noisy training labels)
    to the accuracy of a cell of the same grid that was already solved; such
    a cell reuses it, and a cell that solves adds its own.  A solve that
    raises adds nothing.
    """
    cfg = prepared.config
    dataset = prepared.dataset
    start = time.perf_counter()
    error = prepared.propagation_error
    if method == "hgnn-proposed" and error is not None:
        # A fresh copy per cell, so the kept error gathers no frames.
        raise SolverError(error.reason, error.residual, error.columns)
    split = inject_noise(dataset, level, seed)

    op = prepared.operators[_METHOD_OPERATORS[method]]
    if method in _CLOSED_FORM:
        solved = {} if solved is None else solved
        key = (method, hashlib.sha256(split.noisy_labels[dataset.train_indices]).digest())
        if key not in solved:
            Y = encode_labels(split, dataset.train_indices, dataset.num_classes)
            pred = decode_predictions(propagate_labels(op, Y, cfg.solver))
            solved[key] = accuracy(pred, split.clean_labels, dataset.test_indices)
        acc = solved[key]
    else:
        # Never reused: the seed also draws the initial parameters.
        Y = encode_labels(split, dataset.train_indices, dataset.num_classes)
        X = prepared.propagated if method == "hgnn-proposed" else prepared.features
        params = train(op, X, Y, dataset.train_indices, cfg.train, seed=seed)
        acc = accuracy(predict(op, X, params), split.clean_labels, dataset.test_indices)
    return ResultRow(dataset=cfg.dataset, method=method, noise_level=float(level),
                     seed=int(seed), accuracy=acc,
                     wall_time_seconds=time.perf_counter() - start,
                     pca_used=cfg.pca_dims is not None)


def run_experiment(cfg: ExperimentConfig, data_dir=None, workers=1,
                   ops_dir=None) -> ExperimentReport:
    """Run the grid's cells one at a time; failed cells are reported, the rest still run.

    ``workers`` accepts only 1; it stays because the benchmark harness passes it.
    """
    _require(workers == 1, "workers", f"workers must be 1 (cells run serially), got {workers}")
    prepared = prepare_experiment(cfg, data_dir, ops_dir)
    report = ExperimentReport(rows=[], failures=[])
    solved = {}  # closed-form accuracies of this grid, see run_cell
    for method in cfg.methods:
        for level in cfg.noise_levels:
            for seed in cfg.seeds:
                try:
                    report.rows.append(run_cell(prepared, method, level, seed, solved))
                except Exception as exc:
                    report.failures.append(CellFailure(
                        method, float(level), int(seed), f"{type(exc).__name__}: {exc}"))
    return report


def median_grid(rows):
    """Seed-median accuracy per (method, noise_level), preserving method order."""
    methods, levels = [], []
    buckets = {}
    for row in rows:
        key = (row.method, row.noise_level)
        buckets.setdefault(key, []).append(row.accuracy)
        if row.method not in methods:
            methods.append(row.method)
        if row.noise_level not in levels:
            levels.append(row.noise_level)
    levels.sort()
    grid = {key: float(np.median(values)) for key, values in buckets.items()}
    return methods, levels, grid


def emit_table(rows, format: str = "csv") -> str:
    """Render result rows as a per-row CSV or an aligned seed-median text grid."""
    if not rows:
        raise ValueError("no rows to emit")
    if format == "csv":
        lines = [CSV_HEADER]
        for row in rows:
            lines.append(
                f"{row.dataset},{row.method},{row.noise_level!r},{row.seed},"
                f"{row.accuracy!r},{row.wall_time_seconds!r},"
                f"{'true' if row.pca_used else 'false'}")
        return "\n".join(lines) + "\n"
    if format == "text":
        methods, levels, grid = median_grid(rows)
        name_width = max(len("method"), max(len(m) for m in methods))
        header = "method".ljust(name_width) + "".join(
            f"{f'{level * 100:g}%':>9}" for level in levels)
        lines = [header]
        for method in methods:
            cells = []
            for level in levels:
                value = grid.get((method, level))
                cells.append(f"{value * 100:9.2f}" if value is not None else f"{'-':>9}")
            lines.append(method.ljust(name_width) + "".join(cells))
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown table format {format!r}")


def parse_results_csv(text) -> list:
    """Inverse of ``emit_table(..., 'csv')``."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing or unexpected CSV header")
    rows = []
    for line in lines[1:]:
        dataset, method, level, seed, acc, wall, pca = line.split(",")
        rows.append(ResultRow(dataset=dataset, method=method,
                              noise_level=float(level), seed=int(seed),
                              accuracy=float(acc), wall_time_seconds=float(wall),
                              pca_used=pca == "true"))
    return rows
