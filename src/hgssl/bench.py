"""Benchmark orchestration: run methods over a noise grid and render tables.

A grid cell is one (method, noise level, seed) triple.  Each cell's seed
drives both the noise injection and, for the neural methods, the parameter
initialization.  ``run_experiment`` plans each method's cells first, then
runs the plan.

Within one grid a closed-form cell's accuracy depends only on its method and
its noisy training labels.  A label set is named by what draws it,
``labels.noise_name``: the flip count ``round(level * l)`` with the seed, or
``"clean"`` when the count is 0.  Equal names give equal labels, so each
closed-form cell's *owner*, the first cell of the grid with its name, is
known before anything is drawn; every seed at noise level 0 shares one.  A
neural cell's seed also draws its initial parameters, so each neural cell
owns itself.

A method's owners, in grid order, are cut into chunks.  A closed-form chunk
holds as many sets as one block of ``linalg.column_blocks`` (the one block
rule, which the CG blocks follow) holds, and at least one.  Its sets are
drawn, each once, and solved side by side as one block, so their columns
share each operator product, and each set's scores are the ones a solve of
it alone gives, bit for bit.  A neural method's chunk is all of its cells:
their labels are drawn in grid order, all their models train in one
``network.train`` call (side by side, one per CPU), and each model is then
predicted and scored in turn.  If a chunk of two or more raises, each of its
owners is scored alone, so a cell fails exactly when its own set or training
does, with the error that scoring it alone gives.  A set that fails is not
solved again for the other cells that share it.

Then each cell, in config order, reads its owner's accuracy or error.  The
chunk's time goes in its first cell's ``wall_time_s``; every other cell
reads 0.0.

Set-up forms everything a cell reads, once per experiment, and cells only
read it: the operators, and each neural method's network input (Theta Z for
the smoothed features Z of hgnn-proposed, Theta X for gcn and hgnn).  The
features as loaded are freed once PCA has formed the features X (without PCA
they are X).  The inputs are formed in a fixed order, hgnn-proposed, then gcn,
then hgnn, and the last product that reads X writes over X's buffer.
"""

import hashlib
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from . import hypergraph as hg
from .datasets import (ImageDataset, LabeledSplit, _absent_classes, check_blob_args,
                       load_idx_dataset, load_usps_dataset, stratified_subsample,
                       synthetic_blobs)
from .errors import FormatError, SolverError, _require
from .labels import accuracy, decode_predictions, encode_labels, inject_noise, noise_name
from .linalg import column_blocks
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

# The order set-up forms the network inputs in.  The feature solve goes first,
# so while X is still needed Z is the only extra array.
_INPUT_ORDER = ("hgnn-proposed", "gcn", "hgnn")

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
            _require(_is_int(seed) and seed >= 0, "seeds",
                     f"seeds must be non-negative integers, got {seed!r}")
        for method in self.methods:
            _require(method in METHODS, "methods",
                     f"unknown method {method!r}; known: {', '.join(METHODS)}")
        for level in self.noise_levels:
            _require(0.0 <= level < 1.0, "noise_levels", f"noise level {level} outside [0, 1)")
        _require(self.pca_dims is None or _is_int(self.pca_dims) and self.pca_dims >= 1,
                 "pca_dims",
                 f"pca_dims must be a positive integer or none, got {self.pca_dims!r}")
        _require(_is_int(self.k) and self.k >= 1, "k",
                 f"k must be a positive integer, got {self.k!r}")
        _require(self.subsample_size is None
                 or _is_int(self.subsample_size) and self.subsample_size >= 1,
                 "subsample_size", f"subsample_size must be a positive integer or none, "
                                   f"got {self.subsample_size!r}")
        _require(_is_int(self.subsample_seed) and self.subsample_seed >= 0, "subsample_seed",
                 f"subsample_seed must be a non-negative integer, got {self.subsample_seed!r}")


def _is_int(value) -> bool:
    """Whether ``value`` is a Python or numpy integer; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def resolve_dataset_paths(name, explicit, data_dir=None):
    """Explicit config paths win; otherwise use canonical names under data_dir/<name>/.

    ``data_dir`` defaults to $HGSSL_DATA_DIR, then ``data``.  An empty one
    would put the canonical names under the working directory, so it raises
    ``ConfigError`` unless every path is explicit.
    """
    source = "data_dir (--data-dir)"
    if data_dir is None:
        data_dir, source = os.environ.get(DATA_DIR_ENV, "data"), f"${DATA_DIR_ENV}"
    implicit = [key for key in DATASET_FILES[name] if key not in explicit]
    _require(data_dir != "" or not implicit, "data_dir",
             f"{source} is empty; name a dataset directory or give the {name} "
             f"paths {', '.join(implicit)}")
    base = Path(data_dir) / name
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
    # The labels and train/test split; the loaded features are not kept.
    dataset: LabeledSplit
    operators: dict
    # Each configured neural method's network input, see _INPUT_ORDER.
    inputs: dict
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
    """Build (or load from cache) every operator the configured methods need.

    They are loaded, built and saved in the fixed order of
    ``_OPERATOR_NORMALIZATIONS``, whatever the process's string-hash seed.
    """
    used = {_METHOD_OPERATORS[method] for method in cfg.methods}
    needed = [name for name in _OPERATOR_NORMALIZATIONS if name in used]
    key = operator_cache_key(cfg, X) if ops_dir is not None else None
    operators = {}
    pending = []
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
            pending.append(name)

    if pending:
        knn, sq_dist = hg.knn_indices(X, cfg.k)
        if "hg_sym" in pending:
            hgraph = hg.build_knn_hypergraph(knn)
            operators["hg_sym"] = hg.hypergraph_operator(hgraph, "sym")
        if "graph" in pending or "gcn" in pending:
            adjacency = hg.gaussian_knn_adjacency(knn, sq_dist)
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

    Returns the dataset's ``LabeledSplit`` and its features as prepared, so
    the features as loaded are freed once PCA has replaced them.  Settings
    whose range depends on the data are checked as soon as it is known.
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
        # Noise injection would otherwise flip labels into a class with no row.
        absent = _absent_classes(np.unique(dataset.labels), dataset.num_classes)
        _require(not absent, "subsample_size",
                 f"subsample_size {cfg.subsample_size} keeps no row of class ids {absent}")
    X = dataset.features
    n, m = X.shape
    _require(cfg.k < n, "k", f"k must be less than the {n} points, got {cfg.k}")
    if cfg.pca_dims is not None:
        _require(cfg.pca_dims <= min(n - 1, m), "pca_dims",
                 f"pca_dims must be at most min(n - 1, m) = {min(n - 1, m)} for "
                 f"{n} points of {m} features, got {cfg.pca_dims}")
        model = pca_fit(X, cfg.pca_dims)
        X = pca_transform(model, X)
    split = LabeledSplit(dataset.labels, dataset.train_indices, dataset.test_indices,
                         dataset.num_classes)
    return split, X


def prepare_experiment(cfg: ExperimentConfig, data_dir=None,
                       ops_dir=None) -> PreparedExperiment:
    split, X = prepare_features(cfg, data_dir)
    operators = build_operators(cfg, X, ops_dir)
    neural = [method for method in _INPUT_ORDER if method in cfg.methods]
    inputs, error = {}, None
    for method in neural:
        op = operators[_METHOD_OPERATORS[method]]
        # The last product that reads X writes over it.
        out = X if method == neural[-1] else None
        if method != "hgnn-proposed":
            inputs[method] = op.apply(X, out=out)
            continue
        try:
            smoothed = propagate_features(op, X, cfg.solver, out=out)
        except SolverError as exc:
            # Kept bare: the caught error's traceback holds the solve's arrays.
            error = SolverError(exc.reason, exc.residual, exc.columns)
        else:
            inputs[method] = op.apply(smoothed, out=smoothed)
    return PreparedExperiment(config=cfg, dataset=split, operators=operators,
                              inputs=inputs, propagation_error=error)


def run_cell(prepared: PreparedExperiment, method: str, level: float,
             seed: int) -> ResultRow:
    """Run one (method, noise level, seed) cell alone and score it on the test split.

    ``method`` must be one the experiment was prepared for: only those have
    their operator and, for a neural method, its input.
    """
    cfg = prepared.config
    if method not in cfg.methods:
        raise ValueError(f"method {method!r} is not among the prepared experiment's "
                         f"methods: {', '.join(cfg.methods)}")
    start = time.perf_counter()
    acc = _score(prepared, method, [(level, seed)])[0]
    return _row(cfg, method, level, seed, acc, time.perf_counter() - start)


def _row(cfg: ExperimentConfig, method: str, level: float, seed: int, acc: float,
         seconds: float) -> ResultRow:
    return ResultRow(dataset=cfg.dataset, method=method, noise_level=float(level),
                     seed=int(seed), accuracy=acc, wall_time_seconds=seconds,
                     pca_used=cfg.pca_dims is not None)


def _score(prepared: PreparedExperiment, method: str, cells: list) -> list:
    """The test accuracy of each cell, its label sets solved or its models trained in one call."""
    error = prepared.propagation_error
    if method == "hgnn-proposed" and error is not None:
        # A fresh copy per call, so the kept error gathers no frames.
        raise SolverError(error.reason, error.residual, error.columns)
    if method in _CLOSED_FORM:
        return _solve_sets(prepared, method, cells)
    return _train_cells(prepared, method, cells)


def _solve_sets(prepared: PreparedExperiment, method: str, cells: list) -> list:
    """The test accuracy of each cell's noisy label set, the sets solved side by side in one call."""
    dataset = prepared.dataset
    C = dataset.num_classes
    # Column-major, so each set's columns are one contiguous run of the block.
    Y = np.empty((len(dataset.labels), C * len(cells)), order="F")
    for i, cell in enumerate(cells):
        Y[:, i * C:(i + 1) * C] = encode_labels(inject_noise(dataset, *cell),
                                                dataset.train_indices, C)
    op = prepared.operators[_METHOD_OPERATORS[method]]
    F = propagate_labels(op, Y, prepared.config.solver, out=Y)
    return [accuracy(decode_predictions(F[:, i * C:(i + 1) * C]), dataset.labels,
                     dataset.test_indices) for i in range(len(cells))]


def _train_cells(prepared: PreparedExperiment, method: str, cells: list) -> list:
    """The test accuracy of each cell's model, the models trained in one call."""
    dataset = prepared.dataset
    # Drawn here, one cell after another, before any model trains.
    Ys = [encode_labels(inject_noise(dataset, *cell), dataset.train_indices,
                        dataset.num_classes) for cell in cells]
    op = prepared.operators[_METHOD_OPERATORS[method]]
    x_prop = prepared.inputs[method]
    models = train(op, x_prop, Ys, dataset.train_indices, prepared.config.train,
                   seeds=[seed for _, seed in cells])
    return [accuracy(predict(op, x_prop, params), dataset.labels, dataset.test_indices)
            for params in models]


def _score_chunk(prepared: PreparedExperiment, method: str, chunk: list) -> list:
    """Each cell's accuracy, or the text of the error it raises when scored alone.

    The chunk is scored in one call.  If that raises, each of its cells is
    scored alone, so a cell fails exactly when its own labels or training do.
    """
    try:
        return _score(prepared, method, chunk)
    except Exception as exc:
        if len(chunk) == 1:
            return [f"{type(exc).__name__}: {exc}"]
    # Out of the handler, so the failed call's arrays are freed first.
    return [_score_chunk(prepared, method, [cell])[0] for cell in chunk]


def run_experiment(cfg: ExperimentConfig, data_dir=None, workers=1,
                   ops_dir=None) -> ExperimentReport:
    """Plan each method's chunks, score them, then report every cell in grid order.

    Failed cells are reported, the rest still run (see the module docstring).
    ``workers`` accepts only 1; it stays because the benchmark harness passes it.
    """
    _require(workers == 1, "workers", f"workers must be 1 (cells run serially), got {workers}")
    prepared = prepare_experiment(cfg, data_dir, ops_dir)
    dataset = prepared.dataset
    n, C = len(dataset.labels), dataset.num_classes
    cells = [(level, seed) for level in cfg.noise_levels for seed in cfg.seeds]
    report = ExperimentReport(rows=[], failures=[])
    for method in cfg.methods:
        # Each cell's owner: the first cell with its noisy labels, or itself.
        first = {}
        owner = {cell: first.setdefault(noise_name(dataset, *cell), cell)
                 if method in _CLOSED_FORM else cell for cell in cells}
        owners = list(dict.fromkeys(owner.values()))
        size = len(owners)
        if method in _CLOSED_FORM:
            # As many sets as one block of columns holds, and at least one.
            while size > 1 and len(column_blocks(n, C * size)) > 1:
                size -= 1
        results, seconds = {}, {}
        for i in range(0, len(owners), size):
            chunk = owners[i:i + size]
            start = time.perf_counter()
            results.update(zip(chunk, _score_chunk(prepared, method, chunk)))
            seconds[chunk[0]] = time.perf_counter() - start
        for level, seed in cells:
            result = results[owner[level, seed]]
            if isinstance(result, str):
                report.failures.append(CellFailure(method, float(level), int(seed), result))
            else:
                report.rows.append(_row(cfg, method, level, seed, result,
                                        seconds.get((level, seed), 0.0)))
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
    """Inverse of ``emit_table(..., 'csv')``.

    A row that does not have the header's seven fields, a number that does
    not parse, or a ``pca`` field other than ``true``/``false`` raises
    ``ValueError`` naming its line (the header is line 1; blank lines count).
    """
    lines = [(number, line) for number, line in enumerate(text.splitlines(), 1)
             if line.strip()]
    header = lines[0][1] if lines else ""
    if header != CSV_HEADER:
        raise ValueError(f"expected CSV header {CSV_HEADER!r}, got {header!r}")
    width = len(CSV_HEADER.split(","))
    flags = {"true": True, "false": False}
    rows = []
    for number, line in lines[1:]:
        fields = line.split(",")
        if len(fields) != width:
            raise ValueError(f"line {number}: expected {width} fields, got {len(fields)}")
        dataset, method, level, seed, acc, wall, pca = fields
        if pca not in flags:
            raise ValueError(f"line {number}: pca must be true or false, got {pca!r}")
        try:
            rows.append(ResultRow(dataset=dataset, method=method,
                                  noise_level=float(level), seed=int(seed),
                                  accuracy=float(acc), wall_time_seconds=float(wall),
                                  pca_used=flags[pca]))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return rows
