from dataclasses import replace

import numpy as np
import pytest

from hgssl.bench import (METHODS, ExperimentConfig, ResultRow, SyntheticSpec,
                         build_operators, default_workers, emit_table, median_grid,
                         parse_results_csv, prepare_features, resolve_dataset_paths,
                         run_experiment)
from hgssl.errors import ConfigError
from hgssl.network import TrainConfig

FAST_TRAIN = TrainConfig(hidden=16, epochs=60)

SMALL = ExperimentConfig(
    dataset="synthetic",
    methods=METHODS,
    noise_levels=(0.0,),
    seeds=(0,),
    pca_dims=None,
    k=5,
    train=FAST_TRAIN,
    synthetic=SyntheticSpec(n=150, classes=3, dim=6, spread=0.1, seed=2),
)


def strip_time(row: ResultRow):
    return (row.dataset, row.method, row.noise_level, row.seed,
            row.accuracy, row.pca_used)


class TestRunExperiment:
    def test_all_methods_on_separable_data(self):
        report = run_experiment(SMALL)
        assert report.ok
        assert len(report.rows) == 5
        for row in report.rows:
            assert row.accuracy >= 0.9, (row.method, row.accuracy)

    def test_deterministic_rows(self):
        a = run_experiment(SMALL)
        b = run_experiment(SMALL)
        assert [strip_time(r) for r in a.rows] == [strip_time(r) for r in b.rows]

    def test_worker_pool_matches_serial(self):
        cfg = replace(SMALL, methods=("hypergraph-ssl", "graph-ssl"),
                      noise_levels=(0.0, 0.3), seeds=(0, 1))
        serial = run_experiment(cfg, workers=1)
        pooled = run_experiment(cfg, workers=4)
        assert [strip_time(r) for r in serial.rows] == [strip_time(r) for r in pooled.rows]

    def test_noise_degrades_or_holds(self):
        cfg = replace(SMALL, methods=("hypergraph-ssl", "graph-ssl"),
                      noise_levels=(0.0, 0.45), seeds=(0, 1, 2))
        report = run_experiment(cfg)
        _, _, grid = median_grid(report.rows)
        for method in cfg.methods:
            assert grid[(method, 0.0)] >= grid[(method, 0.45)]

    def test_failed_cell_keeps_others_running(self):
        # max_iter = 1 starves the closed-form solves; the gcn cells still run.
        cfg = replace(SMALL, methods=("hypergraph-ssl", "gcn"),
                      solver_max_iter=1, solver_tol=1e-14)
        report = run_experiment(cfg)
        assert not report.ok
        assert {f.method for f in report.failures} == {"hypergraph-ssl"}
        failure = report.failures[0]
        assert failure.noise_level == 0.0 and failure.seed == 0
        assert "SolverError" in failure.error
        assert {r.method for r in report.rows} == {"gcn"}

    def test_operator_cache_is_observationally_pure(self, tmp_path):
        cfg = replace(SMALL, methods=("hypergraph-ssl", "hgnn"), seeds=(0, 1))
        fresh = run_experiment(cfg)
        ops_dir = tmp_path / "ops"
        built = run_experiment(cfg, ops_dir=ops_dir)   # builds and saves
        cached = run_experiment(cfg, ops_dir=ops_dir)  # loads from cache
        assert list(ops_dir.glob("*.hgop"))
        assert [strip_time(r) for r in fresh.rows] \
            == [strip_time(r) for r in built.rows] \
            == [strip_time(r) for r in cached.rows]

    def test_operator_cache_keyed_on_content(self, tmp_path):
        ops_dir = tmp_path / "ops"
        base = replace(SMALL, methods=("hypergraph-ssl",))

        def with_data(n, seed):
            return replace(base, synthetic=replace(base.synthetic, n=n, seed=seed))

        # Another size on the same cache directory builds its own operators.
        assert run_experiment(with_data(300, 1), ops_dir=ops_dir).ok
        assert run_experiment(with_data(400, 1), ops_dir=ops_dir).ok
        # Same shape from another seed must not load the seed-1 operator.
        seed9 = with_data(300, 9)
        _, X, _ = prepare_features(seed9)
        cached = build_operators(seed9, X, ops_dir=ops_dir)["hg_sym"].matrix
        fresh = build_operators(seed9, X)["hg_sym"].matrix
        assert (cached != fresh).nnz == 0
        assert len(list(ops_dir.glob("*.hgop"))) == 3

    def test_proposed_uses_propagated_features(self):
        cfg = replace(SMALL, methods=("hgnn", "hgnn-proposed"))
        report = run_experiment(cfg)
        accs = {row.method: row.accuracy for row in report.rows}
        assert set(accs) == {"hgnn", "hgnn-proposed"}


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="synthetic", methods=("magic",))

    def test_bad_noise_level(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="synthetic", noise_levels=(1.0,))

    def test_unknown_dataset(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="imagenet")

    def test_empty_seeds(self):
        with pytest.raises(ValueError):
            ExperimentConfig(dataset="synthetic", seeds=())


class TestEmitTable:
    def make_rows(self):
        rows = []
        for m, method in enumerate(METHODS):
            for level in (0.0, 0.15, 0.30, 0.45):
                for seed in (0, 1, 2):
                    rows.append(ResultRow("synthetic", method, level, seed,
                                          accuracy=0.9 - 0.1 * level - 0.01 * seed
                                          - 0.02 * m,
                                          wall_time_seconds=0.5, pca_used=False))
        return rows

    def test_single_row_csv(self):
        row = ResultRow("usps", "hgnn", 0.15, 1, 0.9471, 12.5, True)
        text = emit_table([row], "csv")
        lines = text.strip().splitlines()
        assert len(lines) == 2
        assert lines[0] == "dataset,method,noise_level,seed,accuracy,wall_time_s,pca"
        assert lines[1].startswith("usps,hgnn,0.15,1,0.9471,")

    def test_median_grid_shape(self):
        rows = self.make_rows()
        methods, levels, grid = median_grid(rows)
        assert methods == list(METHODS)
        assert levels == [0.0, 0.15, 0.30, 0.45]
        assert len(grid) == 20
        # Median over seeds 0, 1, 2 is the seed-1 value.
        assert grid[("gcn", 0.30)] == pytest.approx(0.9 - 0.03 - 0.01 - 0.04)

    def test_text_table_layout(self):
        text = emit_table(self.make_rows(), "text")
        lines = text.strip().splitlines()
        assert len(lines) == 6  # header + five methods
        assert lines[0].split() == ["method", "0%", "15%", "30%", "45%"]
        assert lines[1].startswith("graph-ssl")
        assert all(len(line.split()) == 5 for line in lines[1:])

    def test_csv_round_trip_preserves_medians(self):
        rows = self.make_rows()
        parsed = parse_results_csv(emit_table(rows, "csv"))
        _, _, original = median_grid(rows)
        _, _, recovered = median_grid(parsed)
        assert original == recovered

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            emit_table([], "csv")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit_table(self.make_rows(), "yaml")


class TestPathResolution:
    def test_canonical_layout(self):
        paths = resolve_dataset_paths("usps", {}, data_dir="/datasets")
        assert paths == {"train_path": "/datasets/usps/zip.train",
                         "test_path": "/datasets/usps/zip.test"}

    def test_explicit_paths_win(self):
        paths = resolve_dataset_paths("usps", {"train_path": "/x/t.train"},
                                      data_dir="/datasets")
        assert paths["train_path"] == "/x/t.train"
        assert paths["test_path"] == "/datasets/usps/zip.test"

    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("HGSSL_DATA_DIR", "/from-env")
        paths = resolve_dataset_paths("mnist", {})
        assert paths["train_images"] == "/from-env/mnist/train-images-idx3-ubyte"


def test_workers_env_must_be_positive_integer(monkeypatch):
    monkeypatch.setenv("HGSSL_WORKERS", "3")
    assert default_workers() == 3
    for bad in ("two", "0", "-1", "", "1.5"):
        monkeypatch.setenv("HGSSL_WORKERS", bad)
        with pytest.raises(ConfigError, match="HGSSL_WORKERS"):
            default_workers()
