"""Acceptance gate.

Criteria 1-5 are the fast property suite and always run.  Criteria 6-10
reproduce the benchmark tables and need the real dataset files under
$HGSSL_DATA_DIR (or ./data): usps/zip.train, usps/zip.test, and the four
standard IDX files under mnist/ and fashion/.  They skip when the files are
absent; a stand-in for criteria 7-9 on synthetic classes that touch always
runs.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion.
"""

import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from hgssl.bench import (METHODS, ExperimentConfig, SyntheticSpec, median_grid,
                         resolve_dataset_paths, run_experiment)
from hgssl.datasets import save_usps_dataset, synthetic_blobs
from hgssl.hypergraph import build_knn_hypergraph, hypergraph_operator, knn_indices
from hgssl.labels import inject_noise
from hgssl.network import TwoLayerParams, forward, loss_and_gradients
from hgssl.propagation import (PropagationConfig, propagate_features,
                               propagate_labels)


def random_hypergraph_operator(rng, n, normalization="sym", k=3):
    hg = build_knn_hypergraph(knn_indices(rng.standard_normal((n, 3)), k)[0])
    return hypergraph_operator(hg, normalization)


def dataset_available(name):
    paths = resolve_dataset_paths(name, {})
    return all(Path(p).exists() for p in paths.values())


def report_pass(number, message, started=None):
    stamp = f" ({time.perf_counter() - started:.1f} s)" if started is not None else ""
    print(f"PASS criterion {number}: {message}{stamp}")


# ---------------------------------------------------------------------------
# Property-based suite (always runs)
# ---------------------------------------------------------------------------

def test_criterion_1_dense_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    for instance in range(20):
        n = int(rng.integers(10, 51))
        op = random_hypergraph_operator(rng, n)
        dense = op.matrix.toarray()
        labels = rng.choice([-1.0, 1.0], size=(n, 3))
        labels[n // 2:] = 0.0
        feats = rng.standard_normal((n, 3))
        for alpha in (0.5, 0.9, 0.99):
            cfg = PropagationConfig(alpha=alpha, tol=1e-12, max_iter=5000)
            inverse = np.linalg.inv(np.eye(n) - alpha * dense)
            label_out = propagate_labels(op, labels, cfg)
            assert np.max(np.abs(label_out - (1 - alpha) * inverse @ labels)) < 1e-8
            feat_out = propagate_features(op, feats, cfg)
            assert np.max(np.abs(feat_out - (1 - alpha) * inverse @ feats)) < 1e-8
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(1, "closed-form solves match the dense inverse oracle to 1e-8",
                started)


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()

    def check_instance(seed, variant):
        rng = np.random.default_rng(seed)
        n, l1, l2, c = 10, 5, 4, 3
        norm = "rw" if variant == "rw" else "sym"
        op = random_hypergraph_operator(rng, n, norm)
        X = rng.standard_normal((n, l1))
        if variant == "propagated":
            X = propagate_features(op, X, PropagationConfig(0.9, 1e-12, 5000))
        x_prop = op.apply(X)
        params = TwoLayerParams(0.4 * rng.standard_normal((l1, l2)),
                                0.4 * rng.standard_normal((l2, c)))
        Y = np.zeros((n, c))
        Y[np.arange(n), rng.integers(0, c, n)] = 1.0
        mask = np.sort(rng.choice(n, size=6, replace=False))
        _, analytic = loss_and_gradients(forward(op, x_prop, params), Y, mask, params, 0.01)

        h = 1e-5
        for name in ("theta1", "theta2"):
            matrix = getattr(params, name)
            for idx in np.ndindex(matrix.shape):
                orig = matrix[idx]
                matrix[idx] = orig + h
                up, _ = loss_and_gradients(forward(op, x_prop, params), Y, mask, params, 0.01)
                matrix[idx] = orig - h
                down, _ = loss_and_gradients(forward(op, x_prop, params), Y, mask, params, 0.01)
                matrix[idx] = orig
                numeric = (up - down) / (2 * h)
                scale = max(1.0, abs(numeric))
                assert abs(getattr(analytic, name)[idx] - numeric) / scale < 1e-5

    for variant, seeds in (("sym", (201, 202, 203)),
                           ("rw", (211, 212, 213)),
                           ("propagated", (221, 222, 223))):
        for seed in seeds:
            check_instance(seed, variant)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report_pass(2, "analytic gradients match central finite differences to 1e-5",
                started)


def test_criterion_3_operator_invariants():
    started = time.perf_counter()
    rng = np.random.default_rng(3003)
    for n in (30, 70, 100):
        hgraph = build_knn_hypergraph(knn_indices(rng.standard_normal((n, 3)), 4)[0])
        rw = hypergraph_operator(hgraph, "rw").matrix
        row_sums = np.asarray(rw.sum(axis=1)).ravel()
        assert np.max(np.abs(row_sums - 1.0)) < 1e-10
        sym = hypergraph_operator(hgraph, "sym").matrix.toarray()
        assert np.max(np.abs(sym - sym.T)) < 1e-12
        eigenvalues = np.linalg.eigvalsh(sym)
        assert eigenvalues.min() >= -1e-10
        assert eigenvalues.max() <= 1.0 + 1e-10
    two = hypergraph_operator(build_knn_hypergraph(knn_indices([[0.0], [1.0]], 1)[0]), "sym")
    assert np.allclose(two.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report_pass(3, "operator invariants hold (row sums, symmetry, spectrum, "
                   "2-vertex case)", started)


def test_criterion_4_noise_contract():
    ds = synthetic_blobs(1430, 10, 4, 0.05, seed=5)
    l = len(ds.train_indices)
    for level in (0.0, 0.15, 0.30, 0.45):
        noisy = inject_noise(ds, level, seed=40)
        flipped = np.flatnonzero(noisy != ds.labels)
        assert len(flipped) == int(round(level * l))
        assert np.all(np.isin(flipped, ds.train_indices))
        assert np.array_equal(noisy[ds.test_indices], ds.labels[ds.test_indices])
        assert np.array_equal(noisy, inject_noise(ds, level, seed=40))
    report_pass(4, "noise contract (exact counts, train-only, reproducible)")


def test_criterion_5_end_to_end_smoke():
    started = time.perf_counter()
    cfg = ExperimentConfig(
        dataset="synthetic",
        noise_levels=(0.0,),
        seeds=(0,),
        synthetic=SyntheticSpec(n=300, classes=3, dim=10, spread=0.1, seed=1),
    )
    report = run_experiment(cfg)
    assert report.ok, report.failures
    accuracies = {row.method: row.accuracy for row in report.rows}
    assert len(accuracies) == 5
    for method, acc in accuracies.items():
        assert acc >= 0.90, (method, acc)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report_pass(5, "all five methods >= 90% on separable blobs at noise 0",
                started)


# ---------------------------------------------------------------------------
# The abstract's claims on synthetic data whose classes touch (always runs)
# ---------------------------------------------------------------------------

def test_claims_on_touching_synthetic_classes(tmp_path):
    # A stand-in for criteria 7-9: 5 classes whose centers sit 3 spreads apart,
    # no PCA, alpha 0.99.  The data goes through the USPS text layout (%.17g
    # keeps every value, rows stay train-then-test), so run_experiment reads
    # it as given.  180 test rows, so one row is 0.56 points; each bound is
    # checked in rows.  Seed-medians at 45% noise, data seeds 89 / 7 / 53:
    # hgnn-proposed 92.8 / 86.7 / 90.0, the best other method 61.1 / 61.7 /
    # 61.1 (hgnn).  hgnn leads gcn at 15-45% by at least 8.3 / 6.7 / 8.9
    # points, and graph-ssl drops 33.9 / 32.8 / 39.4 points from 0% to 45%.
    started = time.perf_counter()
    ds = synthetic_blobs(600, 5, 20, 1.0, seed=89, separation=3.0)
    test_rows = len(ds.test_indices)
    assert test_rows == 180
    paths = {"train_path": str(tmp_path / "train"), "test_path": str(tmp_path / "test")}
    save_usps_dataset(ds, paths["train_path"], paths["test_path"])
    cfg = ExperimentConfig(dataset="usps", paths=paths, pca_dims=None)
    assert cfg.solver.alpha == 0.99 and cfg.seeds == (0, 1, 2)
    report = run_experiment(cfg)
    assert report.ok, report.failures
    _, _, grid = median_grid(report.rows)
    rows = {key: round(acc * test_rows) for key, acc in grid.items()}

    # hgnn-proposed within 1 row (0.56 points) of the best method at 45%.
    best = max(rows[(method, 0.45)] for method in METHODS if method != "hgnn-proposed")
    assert rows[("hgnn-proposed", 0.45)] >= best - 1, (rows, best)
    # hgnn >= gcn (0 rows) at 15%, 30% and 45%.
    for level in (0.15, 0.30, 0.45):
        assert rows[("hgnn", level)] >= rows[("gcn", level)], (level, rows)
    # graph-ssl drops at least 27 rows (15.0 points), criterion 8's USPS bound.
    drop = rows[("graph-ssl", 0.0)] - rows[("graph-ssl", 0.45)]
    assert drop >= 27, drop
    report_pass("7-9 (synthetic)", f"separation 3: proposed leads the best other method by "
                f"{rows[('hgnn-proposed', 0.45)] - best} rows at 45%, graph-ssl drops "
                f"{drop} rows", started)


# ---------------------------------------------------------------------------
# Desk-scale reproduction (needs the real datasets)
# ---------------------------------------------------------------------------

needs_usps = pytest.mark.skipif(
    not dataset_available("usps"),
    reason="USPS files not found (set HGSSL_DATA_DIR; expects usps/zip.train"
           " and usps/zip.test)")


@pytest.fixture(scope="module")
def usps_grid():
    cfg = ExperimentConfig(
        dataset="usps",
        methods=("graph-ssl", "hypergraph-ssl", "hgnn-proposed"),
        noise_levels=(0.0, 0.45),
        seeds=(0, 1, 2),
        pca_dims=50,
    )
    report = run_experiment(cfg)
    assert report.ok, report.failures
    _, _, grid = median_grid(report.rows)
    return grid


@needs_usps
def test_criterion_6_usps_level0_accuracy(usps_grid):
    target = 0.9506
    for method in ("hypergraph-ssl", "hgnn-proposed", "graph-ssl"):
        median = usps_grid[(method, 0.0)]
        assert abs(median - target) <= 0.020, (method, median)
    report_pass(6, "USPS level-0 medians within 2 points of 95.06")


@needs_usps
def test_criterion_7_usps_noise_robustness_gap(usps_grid):
    gap = usps_grid[("hgnn-proposed", 0.45)] - usps_grid[("graph-ssl", 0.45)]
    assert gap >= 0.08, gap
    report_pass(7, f"USPS 45% gap proposed-vs-graph = {gap * 100:.2f} points (>= 8)")


@needs_usps
def test_usps_monotone_degradation(usps_grid):
    # Harness sanity direction: noise never helps the median.
    for method in ("graph-ssl", "hypergraph-ssl", "hgnn-proposed"):
        assert usps_grid[(method, 0.0)] >= usps_grid[(method, 0.45)]


@needs_usps
def test_criterion_8_usps_degradation_shape(usps_grid):
    graph_drop = usps_grid[("graph-ssl", 0.0)] - usps_grid[("graph-ssl", 0.45)]
    proposed_drop = (usps_grid[("hgnn-proposed", 0.0)]
                     - usps_grid[("hgnn-proposed", 0.45)])
    assert graph_drop >= 0.15, graph_drop
    assert proposed_drop <= 0.15, proposed_drop
    report_pass(8, f"USPS degradation: graph-ssl -{graph_drop * 100:.1f}, "
                   f"proposed -{proposed_drop * 100:.1f} points")


def _subsample_grid(dataset, pca_dims, methods, levels):
    cfg = ExperimentConfig(
        dataset=dataset,
        methods=methods,
        noise_levels=levels,
        seeds=(0, 1, 2),
        pca_dims=pca_dims,
        subsample_size=10000,
        subsample_seed=0,
    )
    report = run_experiment(cfg)
    assert report.ok, report.failures
    _, _, grid = median_grid(report.rows)
    return grid


@pytest.mark.skipif(not dataset_available("mnist"),
                    reason="MNIST IDX files not found under $HGSSL_DATA_DIR/mnist")
def test_criterion_9_mnist_subsample_ordering():
    from hgssl.bench import load_dataset
    from hgssl.datasets import stratified_subsample
    ds = load_dataset(ExperimentConfig(dataset="mnist"))
    sub = stratified_subsample(ds, 10000, seed=0)
    assert len(sub.train_indices) == 8571 and len(sub.test_indices) == 1429

    grid = _subsample_grid("mnist", 50, METHODS, (0.45,))
    proposed = grid[("hgnn-proposed", 0.45)]
    for method in ("graph-ssl", "hypergraph-ssl", "gcn", "hgnn"):
        assert proposed >= grid[(method, 0.45)] - 0.010, (method, grid[(method, 0.45)])
    report_pass(9, "MNIST 10k subsample: proposed within 1 point of best at 45%")


@pytest.mark.skipif(not dataset_available("fashion"),
                    reason="Fashion-MNIST IDX files not found under $HGSSL_DATA_DIR/fashion")
def test_criterion_9_fashion_subsample_ordering():
    grid = _subsample_grid("fashion", 300, METHODS, (0.45,))
    proposed = grid[("hgnn-proposed", 0.45)]
    for method in ("graph-ssl", "hypergraph-ssl", "gcn", "hgnn"):
        assert proposed >= grid[(method, 0.45)] - 0.010, (method, grid[(method, 0.45)])
    report_pass(9, "Fashion 10k subsample: proposed within 1 point of best at 45%")


@pytest.mark.skipif(not dataset_available("fashion"),
                    reason="Fashion-MNIST IDX files not found under $HGSSL_DATA_DIR/fashion")
def test_criterion_10_fashion_no_pca_direction():
    grid = _subsample_grid("fashion", None, ("gcn", "hgnn"), (0.0,))
    gap = grid[("hgnn", 0.0)] - grid[("gcn", 0.0)]
    assert gap >= 0.02, gap
    report_pass(10, f"Fashion (no PCA) hgnn-vs-gcn gap = {gap * 100:.2f} points (>= 2)")
