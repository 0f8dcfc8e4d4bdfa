import gc
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from helpers import csr_equal, knn_adjacency
import hgssl.bench
import hgssl.hypergraph
import hgssl.linalg
import hgssl.propagation
from hgssl import network
from hgssl.bench import (CSV_HEADER, DATASET_FILES, DEFAULT_PCA_DIMS, METHODS, CellFailure,
                         ExperimentConfig, ResultRow, SyntheticSpec, build_operators,
                         emit_table,
                         load_dataset, median_grid, operator_cache_key,
                         operator_cache_path, parse_results_csv, prepare_experiment,
                         prepare_features, resolve_dataset_paths, run_cell,
                         run_experiment)
from hgssl.datasets import (ImageDataset, save_idx_dataset, save_usps_dataset,
                            synthetic_blobs)
from hgssl.errors import ConfigError, FormatError, SolverError
from hgssl.hypergraph import PropagationOperator
from hgssl.labels import encode_labels, inject_noise
from hgssl.network import TrainConfig
from hgssl.pca import pca_fit, pca_transform
from hgssl.propagation import PropagationConfig, propagate_features

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


# The config class that owns each field; no two classes share a field name.
CONFIG_CLASSES = {f.name: cls for cls in (ExperimentConfig, SyntheticSpec, TrainConfig,
                                          PropagationConfig) for f in fields(cls)}


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
                      solver=PropagationConfig(tol=1e-14, max_iter=1))
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

    def test_warm_cache_holds_the_built_graph_operators(self, tmp_path):
        # A 12 x 12 unit grid and a tight triple 9.85 units past it: some
        # scaled graph weights fall below 1e-15, and the warm cache must keep
        # them as the cold build does (548 graph entries, not 542).
        grid = np.array([[i, j] for i in range(12) for j in range(12)], dtype=np.float64)
        X = np.vstack([grid, [[20.85, 5.0], [20.85, 5.001], [20.851, 5.0]]])
        cfg = replace(SMALL, k=3, methods=("graph-ssl", "gcn"))
        cold = build_operators(cfg, X)
        ops_dir = tmp_path / "ops"
        build_operators(cfg, X, ops_dir=ops_dir)
        warm = build_operators(cfg, X, ops_dir=ops_dir)
        assert len(list(ops_dir.glob("*.hgop"))) == 2
        assert cold["graph"].factors[0].nnz == 548
        for name in ("graph", "gcn"):
            (built,), (loaded,) = cold[name].factors, warm[name].factors
            assert np.array_equal(loaded.indptr, built.indptr), name
            assert np.array_equal(loaded.indices, built.indices), name
            assert loaded.data.tobytes() == built.data.tobytes(), name

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
        _, X = prepare_features(seed9)
        cached = build_operators(seed9, X, ops_dir=ops_dir)["hg_sym"].matrix
        fresh = build_operators(seed9, X)["hg_sym"].matrix
        assert (cached != fresh).nnz == 0
        assert len(list(ops_dir.glob("*.hgop"))) == 3

    def test_operator_cache_key_ignores_integer_type(self):
        X = np.arange(12.0).reshape(4, 3)
        key = operator_cache_key(SMALL, X)
        assert operator_cache_key(replace(SMALL, k=np.int64(SMALL.k)), X) == key
        assert operator_cache_key(replace(SMALL, k=np.int32(SMALL.k)), X) == key

    def test_graph_operators_share_one_adjacency(self, monkeypatch):
        cfg = replace(SMALL, methods=("graph-ssl", "gcn"))
        _, X = prepare_features(cfg)
        adjacency = hgssl.hypergraph.gaussian_knn_adjacency
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return adjacency(*args, **kwargs)
        monkeypatch.setattr(hgssl.hypergraph, "gaussian_knn_adjacency", counting)
        operators = build_operators(cfg, X)
        assert len(calls) == 1
        monkeypatch.undo()
        adjacency = knn_adjacency(X, cfg.k)
        assert csr_equal(operators["graph"].matrix,
                         hgssl.hypergraph.build_knn_graph(adjacency).matrix)
        assert csr_equal(operators["gcn"].matrix,
                         hgssl.hypergraph.gcn_operator(adjacency).matrix)

    def test_cache_file_of_another_operator_rejected(self, tmp_path):
        ops_dir = tmp_path / "ops"
        cfg = replace(SMALL, methods=("hypergraph-ssl", "graph-ssl"))
        assert run_experiment(cfg, ops_dir=ops_dir).ok
        _, X = prepare_features(cfg)
        key = operator_cache_key(cfg, X)
        hg_sym = operator_cache_path(ops_dir, key, "hg_sym")
        graph = operator_cache_path(ops_dir, key, "graph")
        hg_sym.rename(tmp_path / "swap")
        graph.rename(hg_sym)
        (tmp_path / "swap").rename(graph)
        with pytest.raises(FormatError, match=r"_(hg_sym|graph)\.hgop: holds a"):
            build_operators(cfg, X, ops_dir=ops_dir)

    def test_operator_order_does_not_depend_on_the_hash_seed(self, tmp_path):
        # The string-hash seed orders a set of operator names: {graph, hg_sym}
        # lists graph first under seed 1 and hg_sym first under seed 4.
        script = """
import json, sys
from dataclasses import replace
import hgssl.hypergraph as hg
from hgssl.bench import ExperimentConfig, SyntheticSpec, build_operators, prepare_features
order = []
for name in ("save_operator", "load_operator"):
    def recorded(path, *args, _name=name, _call=getattr(hg, name)):
        order.append([_name, path.stem.split("_", 1)[1]])
        return _call(path, *args)
    setattr(hg, name, recorded)
cfg = ExperimentConfig(dataset="synthetic", methods=("graph-ssl", "hypergraph-ssl"),
                       pca_dims=None, synthetic=SyntheticSpec(n=60, classes=3, dim=4))
_, X = prepare_features(cfg)
build_operators(cfg, X, ops_dir=sys.argv[1])
build_operators(cfg, X, ops_dir=sys.argv[1])
print(json.dumps(order))
"""
        orders = []
        for seed in ("1", "4"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.pathsep.join(
                [str(Path(hgssl.bench.__file__).parents[1])]
                + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
            done = subprocess.run([sys.executable, "-c", script, str(tmp_path / seed)],
                                  env=env, capture_output=True, text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            orders.append(json.loads(done.stdout))
        assert orders[0] == orders[1] == [["save_operator", "hg_sym"],
                                          ["save_operator", "graph"],
                                          ["load_operator", "hg_sym"],
                                          ["load_operator", "graph"]]

    def test_cache_file_of_another_size_rejected(self, tmp_path):
        ops_dir = tmp_path / "ops"
        base = replace(SMALL, methods=("hypergraph-ssl",))
        small, large = (replace(base, synthetic=replace(base.synthetic, n=n))
                        for n in (300, 400))
        assert run_experiment(small, ops_dir=ops_dir).ok
        (written,) = ops_dir.glob("*.hgop")
        _, X = prepare_features(large)
        target = operator_cache_path(ops_dir, operator_cache_key(large, X), "hg_sym")
        target.write_bytes(written.read_bytes())
        with pytest.raises(FormatError, match=r"shape \(300, 300\), expected 'hg_sym' "
                                               r"as \('sym', \(400, 400\)\)") as info:
            build_operators(large, X, ops_dir=ops_dir)
        assert str(target) in str(info.value)

    def test_failed_feature_solve_fails_only_proposed_cells(self):
        # max_iter = 1 starves the feature solve in set-up; the gcn cells still run.
        cfg = replace(SMALL, methods=("gcn", "hgnn-proposed"), noise_levels=(0.0, 0.3),
                      solver=PropagationConfig(tol=1e-14, max_iter=1))
        report = run_experiment(cfg)
        assert [(f.method, f.noise_level, f.seed) for f in report.failures] \
            == [("hgnn-proposed", 0.0, 0), ("hgnn-proposed", 0.3, 0)]
        assert all(f.error.startswith("SolverError: ") for f in report.failures)
        assert report.failures[0].error == report.failures[1].error
        assert [(r.method, r.noise_level) for r in report.rows] \
            == [("gcn", 0.0), ("gcn", 0.3)]

    def test_kept_feature_solve_error_holds_no_frames(self):
        # A kept traceback would pin the solve's n x width arrays for the whole grid.
        cfg = replace(SMALL, methods=("hgnn-proposed",),
                      solver=PropagationConfig(tol=1e-14, max_iter=1))
        prepared = prepare_experiment(cfg)
        error = prepared.propagation_error
        assert isinstance(error, SolverError) and error.columns
        assert prepared.inputs == {}
        for _ in range(2):
            with pytest.raises(SolverError) as raised:
                run_cell(prepared, "hgnn-proposed", 0.0, 0)
            assert raised.value is not error
            assert str(raised.value) == str(error)
            assert raised.value.columns == error.columns
        assert error.__traceback__ is None and error.__context__ is None

    def test_cell_trains_with_its_seed(self, monkeypatch):
        trained = []

        def recording(*args, **kwargs):
            models = network.train(*args, **kwargs)
            trained.extend(models)
            return models

        monkeypatch.setattr(hgssl.bench, "train", recording)
        cfg = replace(SMALL, methods=("hgnn",), noise_levels=(0.15,), seeds=(7,))
        assert run_experiment(cfg).ok
        prepared = prepare_experiment(cfg)
        ds = prepared.dataset
        Y = encode_labels(inject_noise(ds, 0.15, 7), ds.train_indices, ds.num_classes)
        op = prepared.operators["hg_sym"]
        [want] = network.train(op, op.apply(load_dataset(cfg).features), [Y],
                               ds.train_indices, FAST_TRAIN, seeds=[7])
        [got] = trained
        assert np.array_equal(got.theta1, want.theta1)
        assert np.array_equal(got.theta2, want.theta2)
        assert "seed" not in {f.name for f in fields(TrainConfig)}

    def test_grid_with_pca(self):
        cfg = replace(SMALL, methods=("graph-ssl", "hgnn"), pca_dims=3)
        X = load_dataset(cfg).features
        prepared = prepare_experiment(cfg)
        op = prepared.operators["hg_sym"]
        assert np.array_equal(prepared.inputs["hgnn"],
                              op.apply(pca_transform(pca_fit(X, 3), X)))
        report = run_experiment(cfg)
        assert report.ok and all(row.pca_used for row in report.rows)
        assert all(line.endswith(",true")
                   for line in emit_table(report.rows, "csv").splitlines()[1:])

    def test_grid_on_idx_and_usps_files(self, tmp_path):
        blobs = synthetic_blobs(120, 3, 16, 0.1, seed=3)
        low, high = blobs.features.min(), blobs.features.max()
        # Byte-valued pixels in [0, 1], so the IDX files hold them exactly.
        pixels = np.round((blobs.features - low) / (high - low) * 255.0) / 255.0
        ds = ImageDataset(pixels, blobs.labels, blobs.train_indices,
                          blobs.test_indices, blobs.num_classes)
        for name in ("mnist", "usps"):
            files = {key: tmp_path / name / filename
                     for key, filename in DATASET_FILES[name].items()}
            (tmp_path / name).mkdir()
            if name == "usps":
                save_usps_dataset(ds, files["train_path"], files["test_path"])
            else:
                save_idx_dataset(ds, files["train_images"], files["train_labels"],
                                 files["test_images"], files["test_labels"])
            cfg = ExperimentConfig(dataset=name, methods=("graph-ssl",),
                                   noise_levels=(0.0,), seeds=(0,), pca_dims=None)
            prepared = prepare_experiment(cfg, data_dir=tmp_path)
            assert np.array_equal(load_dataset(cfg, data_dir=tmp_path).features, pixels)
            assert np.array_equal(prepared.dataset.labels, ds.labels)
            report = run_experiment(cfg, data_dir=tmp_path)
            assert report.ok
            [row] = report.rows
            assert row.dataset == name and row.accuracy >= 0.9 and not row.pca_used

    def test_proposed_uses_propagated_features(self):
        cfg = replace(SMALL, methods=("hgnn", "hgnn-proposed"))
        report = run_experiment(cfg)
        accs = {row.method: row.accuracy for row in report.rows}
        assert set(accs) == {"hgnn", "hgnn-proposed"}

    @pytest.mark.parametrize("budget", [None, 150 * 4], ids=["one-block", "blocks"])
    def test_proposed_input_is_theta_times_smoothed_features(self, monkeypatch, budget):
        # Theta Z is formed in place over the solve's Z, in blocks of 3 of the 6
        # columns when the budget is small, bit for bit as a fresh product.
        if budget is not None:
            monkeypatch.setattr(hgssl.linalg, "_BLOCK_BUDGET", budget)
        cfg = replace(SMALL, methods=("hgnn-proposed",))
        prepared = prepare_experiment(cfg)
        op = prepared.operators["hg_sym"]
        want = op.apply(propagate_features(op, load_dataset(cfg).features, cfg.solver))
        assert prepared.inputs["hgnn-proposed"].tobytes() == want.tobytes()

    def test_cell_forms_its_network_input_once(self, monkeypatch):
        # train and predict get the input set-up formed; no neural cell forms it.
        inputs = {"train": [], "predict": []}
        for name, seen in inputs.items():
            original = getattr(hgssl.bench, name)

            def recording(op, x_prop, *args, original=original, seen=seen, **kwargs):
                seen.append(x_prop)
                return original(op, x_prop, *args, **kwargs)
            monkeypatch.setattr(hgssl.bench, name, recording)
        prepared = []
        prepare = hgssl.bench.prepare_experiment

        def recording_prepare(*args, **kwargs):
            prepared.append(prepare(*args, **kwargs))
            return prepared[-1]
        monkeypatch.setattr(hgssl.bench, "prepare_experiment", recording_prepare)
        cfg = replace(SMALL, methods=("gcn", "hgnn", "hgnn-proposed"))
        assert run_experiment(cfg).ok
        [prepared] = prepared
        X = load_dataset(cfg).features
        for method, trained, predicted in zip(cfg.methods, *inputs.values()):
            assert trained is predicted is prepared.inputs[method], method
            op = prepared.operators[hgssl.bench._METHOD_OPERATORS[method]]
            want = op.apply(propagate_features(op, X, cfg.solver)
                            if method == "hgnn-proposed" else X)
            assert trained.tobytes() == want.tobytes(), method


class TestKeptFeatures:
    """A prepared experiment keeps no feature matrix, only each neural method's input."""

    @staticmethod
    def loading(monkeypatch, then=None):
        """Record each dataset ``prepare_experiment`` loads; call ``then`` after each load."""
        loaded = []
        original = hgssl.bench.load_dataset

        def recording(*args, **kwargs):
            loaded.append(original(*args, **kwargs))
            if then is not None:
                then()
            return loaded[-1]

        monkeypatch.setattr(hgssl.bench, "load_dataset", recording)
        return loaded

    def traced_in_blocks(self, monkeypatch, run, cfg, block=32):
        """``run(cfg)``, its traced peak bytes from the data load on, and its block work.

        Set-up then works in blocks that do not grow with m: a kNN distance
        block of n x n, pairs gathered 8 at a time, and CG and operator
        products ``block`` columns wide.  The block work is the distance block
        and a dozen arrays of one CG block: its solution, R, P, X_active, A P
        and the operator's intermediate products.
        """
        n, dim = cfg.synthetic.n, cfg.synthetic.dim
        monkeypatch.setattr(hgssl.hypergraph, "_PAIR_BUDGET", 8 * dim)
        monkeypatch.setattr(hgssl.linalg, "_BLOCK_BUDGET", block * n)
        self.loading(monkeypatch, then=tracemalloc.reset_peak)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = run(cfg)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        return result, peak, n * n * 8 + 12 * n * block * 8

    @staticmethod
    def failing_second_feature_block(monkeypatch):
        """Fail the feature solve of a 150-point grid in its second block of columns.

        Blocks hold at most 4 columns: 3 for the labels, 3 then 3 for the 6
        features, so the first feature block has written its columns.  The
        failure names the block's third column, column 5 of the features.
        """
        monkeypatch.setattr(hgssl.linalg, "_BLOCK_BUDGET", 4 * 150)
        cg = hgssl.propagation.conjugate_gradient
        propagate = hgssl.bench.propagate_features
        feature_blocks = []  # blocks begun by each feature solve under way

        def solving_features(*args, **kwargs):
            feature_blocks.append(0)
            try:
                return propagate(*args, **kwargs)
            finally:
                feature_blocks.pop()

        def failing(apply, B, **kwargs):
            if feature_blocks:
                feature_blocks[-1] += 1
                if feature_blocks[-1] == 2:
                    raise SolverError("injected", columns=[2])
            return cg(apply, B, **kwargs)

        monkeypatch.setattr(hgssl.bench, "propagate_features", solving_features)
        monkeypatch.setattr(hgssl.propagation, "conjugate_gradient", failing)

    # Where the buffer the features were loaded into ends up: freed, or
    # overwritten by the input of the last method whose product reads X.
    @pytest.mark.parametrize("methods, pca_dims, loaded_buffer", [
        (("hgnn-proposed",), None, "hgnn-proposed"),
        (("graph-ssl", "hgnn-proposed"), 3, None),
        (("graph-ssl", "hypergraph-ssl"), None, None),
        (("gcn", "hgnn-proposed"), None, "gcn"),
        (("hgnn",), 3, None),
    ])
    def test_features_kept_only_for_gcn_or_hgnn(self, monkeypatch, methods, pca_dims,
                                                loaded_buffer):
        cfg = replace(SMALL, methods=methods, pca_dims=pca_dims)
        raw = load_dataset(cfg).features
        X = raw if pca_dims is None else pca_transform(pca_fit(raw, pca_dims), raw)
        loaded = self.loading(monkeypatch)
        prepared = prepare_experiment(cfg)
        buffer = weakref.ref(loaded.pop().features)
        gc.collect()
        if loaded_buffer is None:
            assert buffer() is None
        else:
            assert buffer() is prepared.inputs[loaded_buffer]
        assert list(prepared.inputs) == [method for method in hgssl.bench._INPUT_ORDER
                                         if method in methods]
        for method in {"gcn", "hgnn"} & set(methods):
            op = prepared.operators[hgssl.bench._METHOD_OPERATORS[method]]
            assert np.array_equal(prepared.inputs[method], op.apply(X))
        assert not hasattr(prepared, "features")
        assert not hasattr(prepared.dataset, "features")
        held = [*vars(prepared.dataset).values(), *prepared.inputs.values()]
        assert not any(np.array_equal(value, matrix) for value in held for matrix in (raw, X))

    def test_cell_of_an_unprepared_method_rejected(self):
        # hgnn shares hgnn-proposed's operator, but its input was not formed.
        prepared = prepare_experiment(replace(SMALL, methods=("hgnn-proposed",)))
        with pytest.raises(ValueError, match="'hgnn' is not among .*: hgnn-proposed$"):
            run_cell(prepared, "hgnn", 0.0, 0)

    def test_proposed_only_setup_allocates_no_second_feature_matrix(self, monkeypatch):
        # After the data loads, the X the operators are built from is the one
        # n x m array: the feature solve and Theta Z write into it.  The rest
        # of set-up works in blocks that do not grow with m.
        n, dim = 200, 2400
        cfg = replace(SMALL, methods=("hgnn-proposed",),
                      synthetic=SyntheticSpec(n=n, classes=3, dim=dim, spread=0.1, seed=2))
        prepared, peak, block_work = self.traced_in_blocks(monkeypatch, prepare_experiment, cfg)
        feature_bytes = n * dim * 8
        assert prepared.inputs["hgnn-proposed"].nbytes == feature_bytes
        assert peak <= feature_bytes + block_work, (peak, feature_bytes, block_work)

    def test_failed_in_place_feature_solve_fails_only_proposed_cells(self, monkeypatch):
        # The feature solve fails in its second block, after the first has
        # overwritten its columns of X; the closed-form cells read only their
        # operators, so their rows are those of a grid without hgnn-proposed.
        cfg = replace(SMALL, methods=("graph-ssl", "hypergraph-ssl", "hgnn-proposed"),
                      noise_levels=(0.0, 0.3))
        closed_form = run_experiment(replace(cfg, methods=cfg.methods[:2]))
        self.failing_second_feature_block(monkeypatch)
        prepared = prepare_experiment(cfg)
        assert prepared.inputs == {}
        assert prepared.propagation_error.columns == (5,)
        report = run_experiment(cfg)
        assert [(f.method, f.noise_level) for f in report.failures] \
            == [("hgnn-proposed", 0.0), ("hgnn-proposed", 0.3)]
        assert all(f.error == "SolverError: injected; column 5" for f in report.failures)
        assert [strip_time(r) for r in report.rows] \
            == [strip_time(r) for r in closed_form.rows]

    def test_failed_feature_solve_leaves_x_for_gcn_and_hgnn(self, monkeypatch):
        # With gcn or hgnn configured the feature solve writes a fresh Z, so a
        # solve that fails part-way leaves X, and their rows, as they were.
        cfg = replace(SMALL, methods=("gcn", "hgnn", "hgnn-proposed"), noise_levels=(0.0, 0.3))
        neural = run_experiment(replace(cfg, methods=cfg.methods[:2]))
        self.failing_second_feature_block(monkeypatch)
        report = run_experiment(cfg)
        assert [(f.method, f.noise_level) for f in report.failures] \
            == [("hgnn-proposed", 0.0), ("hgnn-proposed", 0.3)]
        assert [strip_time(r) for r in report.rows] \
            == [strip_time(r) for r in neural.rows]

    def test_each_input_formed_once(self, monkeypatch):
        # Set-up applies each neural method's operator once outside the feature
        # solve, and the input it keeps is Theta X or Theta Z bit for bit.
        cfg = replace(SMALL, methods=METHODS)
        X = load_dataset(cfg).features
        products, solving = [], []
        apply = PropagationOperator.apply

        def counted(op, V, **kwargs):
            if not solving:
                products.append(op.normalization)
            return apply(op, V, **kwargs)

        propagate = hgssl.bench.propagate_features

        def solve(*args, **kwargs):
            solving.append(True)
            try:
                return propagate(*args, **kwargs)
            finally:
                solving.pop()

        monkeypatch.setattr(PropagationOperator, "apply", counted)
        monkeypatch.setattr(hgssl.bench, "propagate_features", solve)
        prepared = prepare_experiment(cfg)
        monkeypatch.undo()
        # hgnn-proposed, gcn, hgnn: the order set-up forms the inputs in.
        assert products == ["sym", "gcn", "sym"]
        ops = prepared.operators
        Z = propagate_features(ops["hg_sym"], X, cfg.solver)
        for method, V in (("hgnn-proposed", Z), ("gcn", X), ("hgnn", X)):
            want = ops[hgssl.bench._METHOD_OPERATORS[method]].apply(V)
            assert prepared.inputs[method].tobytes() == want.tobytes(), method

    @pytest.mark.parametrize("methods", [
        ("gcn",), ("hgnn",), ("hgnn-proposed",), ("gcn", "hgnn"), ("gcn", "hgnn-proposed"),
        ("hgnn", "hgnn-proposed"), ("gcn", "hgnn", "hgnn-proposed"),
    ])
    def test_grid_holds_one_feature_array_per_neural_method(self, monkeypatch, methods):
        # From the load on, a grid's peak is one n x m array per network input:
        # the last product that reads X writes over it, and cells allocate
        # none.  The rest does not grow with m beyond the parameters: set-up's
        # blocks and training's arrays of m x hidden (theta1, its gradient,
        # Adam's moments and their temporaries) and of n x hidden.
        n, dim, hidden = 200, 2400, 4
        cfg = replace(SMALL, methods=methods, train=TrainConfig(hidden=hidden, epochs=2),
                      synthetic=SyntheticSpec(n=n, classes=3, dim=dim, spread=0.1, seed=2))
        report, peak, block_work = self.traced_in_blocks(monkeypatch, run_experiment, cfg)
        assert report.ok
        feature_bytes = n * dim * 8
        train_work = 8 * (dim + n) * hidden * 8
        bound = len(methods) * feature_bytes + block_work + train_work
        assert peak <= bound, (peak / feature_bytes, bound / feature_bytes)


class TestClosedFormReuse:
    """Closed-form cells of one grid whose noisy training labels are equal share a solve."""

    @staticmethod
    def counting(monkeypatch, name, delay=0.0):
        calls = []
        original = getattr(hgssl.bench, name)

        def counted(*args, **kwargs):
            calls.append(args)
            time.sleep(delay)
            return original(*args, **kwargs)

        monkeypatch.setattr(hgssl.bench, name, counted)
        return calls

    def test_level_that_flips_no_label_reuses_the_clean_solve(self, monkeypatch):
        # round(0.001 * 280) = 0 flips, so every cell of a method has the clean labels.
        cfg = replace(SMALL, methods=("graph-ssl", "hypergraph-ssl"),
                      noise_levels=(0.0, 0.001), seeds=(0, 1),
                      synthetic=SyntheticSpec(n=400, classes=4, dim=6, spread=0.6, seed=5))
        solves = self.counting(monkeypatch, "propagate_labels")
        report = run_experiment(cfg)
        assert report.ok and len(report.rows) == 8
        assert len(solves) == 2
        prepared = prepare_experiment(cfg)
        assert len(prepared.dataset.train_indices) == 280
        for row in report.rows:
            assert row.accuracy == run_cell(prepared, row.method, 0.0, 0).accuracy

    def test_each_set_drawn_once_by_the_chunk_that_solves_it(self, monkeypatch):
        # Per method 5 distinct sets in 6 cells: the chunk that solves them
        # draws each once, in grid order, and the second clean cell draws nothing.
        cfg = replace(SMALL, methods=("graph-ssl", "hypergraph-ssl"),
                      noise_levels=(0.0, 0.15, 0.3), seeds=(0, 1))
        draws = self.counting(monkeypatch, "inject_noise")
        report = run_experiment(cfg)
        assert report.ok and len(report.rows) == 12
        per_method = [(0.0, 0), (0.15, 0), (0.15, 1), (0.3, 0), (0.3, 1)]
        assert [(level, seed) for _, level, seed in draws] == 2 * per_method

    def test_neural_cells_train_once_each(self, monkeypatch):
        # One train call per method, its cells' models in grid order.
        cfg = replace(SMALL, methods=("gcn", "hgnn"), noise_levels=(0.0, 0.3), seeds=(0, 1))
        seeds = []
        original = hgssl.bench.train

        def counted(*args, **kwargs):
            seeds.append(kwargs["seeds"])
            return original(*args, **kwargs)

        monkeypatch.setattr(hgssl.bench, "train", counted)
        draws = self.counting(monkeypatch, "inject_noise")
        report = run_experiment(cfg)
        assert report.ok and len(report.rows) == 8
        assert seeds == [[0, 1, 0, 1]] * 2
        assert [(level, seed) for _, level, seed in draws] \
            == 2 * [(0.0, 0), (0.0, 1), (0.3, 0), (0.3, 1)]

    def test_neural_chunk_time_goes_on_its_first_cell(self, monkeypatch):
        cfg = replace(SMALL, methods=("hgnn",), seeds=(0, 1, 2))
        self.counting(monkeypatch, "train", delay=0.3)
        first, *looked_up = run_experiment(cfg).rows
        assert first.wall_time_seconds >= 0.3
        assert [row.seed for row in looked_up] == [1, 2]
        assert all(row.wall_time_seconds == 0.0 for row in looked_up)

    def test_cell_with_non_finite_labels_fails_alone(self, monkeypatch):
        # The chunk's training raises, so each cell trains alone: only the
        # poisoned cell fails, and the others score as in a clean grid.
        cfg = replace(SMALL, methods=("gcn",), noise_levels=(0.0, 0.3), seeds=(0, 1, 2))
        monkeypatch.setattr(hgssl.linalg, "_cores", lambda: 2)
        clean = run_experiment(cfg)
        assert clean.ok
        ds = prepare_experiment(cfg).dataset
        poisoned = inject_noise(ds, 0.3, 1)
        encode = hgssl.bench.encode_labels

        def encoded(noisy, rows, num_classes):
            Y = encode(noisy, rows, num_classes)
            return Y * np.nan if np.array_equal(noisy, poisoned) else Y

        monkeypatch.setattr(hgssl.bench, "encode_labels", encoded)
        trained = self.counting(monkeypatch, "train")
        report = run_experiment(cfg)
        assert [(f.method, f.noise_level, f.seed) for f in report.failures] \
            == [("gcn", 0.3, 1)]
        assert report.failures[0].error == "NumericalError: non-finite loss at epoch 1"
        assert [strip_time(row) for row in report.rows] \
            == [strip_time(row) for row in clean.rows if (row.noise_level, row.seed) != (0.3, 1)]
        assert [len(Ys) for _, _, Ys, *_ in trained] == [6] + [1] * 6

    def test_failed_solve_is_not_reused(self, monkeypatch):
        # Each method's one set (every cell has the clean labels) is solved
        # once, and its failure is reported for each of its cells.
        cfg = replace(SMALL, methods=("graph-ssl", "hypergraph-ssl"), seeds=(0, 1, 2),
                      solver=PropagationConfig(tol=1e-14, max_iter=1))
        solves = self.counting(monkeypatch, "propagate_labels")
        report = run_experiment(cfg)
        assert not report.rows
        assert [(f.method, f.seed) for f in report.failures] \
            == [(m, s) for m in cfg.methods for s in cfg.seeds]
        assert len(solves) == 2
        monkeypatch.undo()
        prepared = prepare_experiment(cfg)
        for failure in report.failures:
            with pytest.raises(SolverError) as info:
                run_cell(prepared, failure.method, failure.noise_level, failure.seed)
            assert failure.error == f"SolverError: {info.value}"

    def test_set_that_cannot_converge_fails_only_its_cells(self, monkeypatch):
        # At max_iter 25 the graph-ssl set of (0.15, seed 0) needs 26
        # iterations and every other set converges.  At n = 120 each method's
        # 5 distinct sets (3 columns each) make one chunk, so graph-ssl's
        # chunk fails and each of its sets is then solved alone.
        cfg = replace(SMALL, methods=("graph-ssl", "hypergraph-ssl"),
                      noise_levels=(0.0, 0.15, 0.30), seeds=(0, 1),
                      solver=PropagationConfig(max_iter=25),
                      synthetic=SyntheticSpec(n=120, classes=3, dim=4, spread=0.5, seed=3))
        solves = self.counting(monkeypatch, "propagate_labels")
        report = run_experiment(cfg)
        assert [Y.shape[1] for _, Y, *_ in solves] == [15, 3, 3, 3, 3, 3, 15]
        monkeypatch.undo()
        prepared = prepare_experiment(cfg)
        rows, failures = [], []
        for method in cfg.methods:
            for level in cfg.noise_levels:
                for seed in cfg.seeds:
                    try:
                        rows.append(run_cell(prepared, method, level, seed))
                    except SolverError as exc:
                        failures.append(CellFailure(method, level, seed, f"SolverError: {exc}"))
        assert report.failures == failures
        assert [(f.method, f.noise_level, f.seed) for f in failures] == [("graph-ssl", 0.15, 0)]
        assert "1 of 3 columns did not reach" in failures[0].error
        assert [strip_time(r) for r in report.rows] == [strip_time(r) for r in rows]

    def test_reused_row_has_its_own_wall_time(self, monkeypatch):
        cfg = replace(SMALL, methods=("hypergraph-ssl",), seeds=(0, 1, 2))
        solves = self.counting(monkeypatch, "propagate_labels", delay=0.3)
        first, *reused = run_experiment(cfg).rows
        assert len(solves) == 1
        assert first.wall_time_seconds >= 0.3
        assert [row.seed for row in reused] == [1, 2]
        assert all(row.wall_time_seconds == 0.0 for row in reused)
        assert all(row.accuracy == first.accuracy for row in reused)


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

    def test_empty_noise_levels(self):
        with pytest.raises(ConfigError, match="noise_levels must not be empty"):
            ExperimentConfig(dataset="synthetic", noise_levels=())

    @pytest.mark.parametrize("kwargs, field", [
        ({"seeds": (0.5, 0.7)}, "seeds"),
        ({"seeds": (0, 1.0)}, "seeds"),
        ({"seeds": (True,)}, "seeds"),
        ({"k": 2.5}, "k"),
        ({"k": True}, "k"),
        ({"pca_dims": 3.5}, "pca_dims"),
        ({"subsample_size": 150.5}, "subsample_size"),
        ({"subsample_size": np.float64(150)}, "subsample_size"),
        ({"subsample_seed": 1.5}, "subsample_seed"),
        ({"subsample_seed": False}, "subsample_seed"),
        ({"seeds": 5}, "seeds"),
        ({"noise_levels": 0.3}, "noise_levels"),
        ({"n": 300.5}, "n"),
        ({"seed": 1.5}, "seed"),
        ({"classes": 3.0}, "classes"),
        ({"dim": True}, "dim"),
        ({"hidden": 16.5}, "hidden"),
        ({"hidden": True}, "hidden"),
        ({"epochs": 2.5}, "epochs"),
        ({"max_iter": 2.5}, "max_iter"),
    ])
    def test_integer_setting_must_be_an_integer(self, kwargs, field):
        # The field picks its config class, which keeps each case's id short.
        config = CONFIG_CLASSES[field]
        if config is ExperimentConfig:
            kwargs = {"dataset": "synthetic", **kwargs}
        with pytest.raises(ConfigError) as info:
            config(**kwargs)
        assert info.value.field == field

    def test_numpy_integer_settings_accepted(self):
        cfg = ExperimentConfig(dataset="synthetic", seeds=(np.int64(0), 1), k=np.int32(4),
                               pca_dims=np.int64(3), subsample_size=np.int64(150),
                               subsample_seed=np.uint8(2))
        assert cfg.k == 4
        spec = SyntheticSpec(n=np.int64(30), classes=np.int32(3), dim=np.uint8(4),
                             seed=np.int64(2))
        assert spec.n == 30
        assert TrainConfig(hidden=np.int64(8), epochs=np.int16(2)).epochs == 2
        assert PropagationConfig(max_iter=np.int64(4)).max_iter == 4


class TestResolvedSettings:
    """ExperimentConfig resolves its dataset-dependent settings itself."""

    @pytest.mark.parametrize("dataset", sorted(DEFAULT_PCA_DIMS))
    def test_pca_dims_default_per_dataset(self, dataset):
        assert ExperimentConfig(dataset=dataset).pca_dims == DEFAULT_PCA_DIMS[dataset]
        assert ExperimentConfig(dataset=dataset, pca_dims=None).pca_dims is None
        assert ExperimentConfig(dataset=dataset, pca_dims=7).pca_dims == 7

    def test_resolved_config_survives_replace(self):
        cfg = replace(ExperimentConfig(dataset="mnist"), k=7)
        assert cfg.pca_dims == 50

    def test_synthetic_without_spec_runs_default_spec(self):
        cfg = ExperimentConfig(dataset="synthetic", methods=("graph-ssl",),
                               noise_levels=(0.0,), seeds=(0,))
        assert cfg.synthetic == SyntheticSpec()
        spec = SyntheticSpec()
        want = synthetic_blobs(spec.n, spec.classes, spec.dim, spec.spread, spec.seed)
        assert np.array_equal(load_dataset(cfg).features, want.features)
        assert run_experiment(cfg).ok

    @pytest.mark.parametrize("kwargs, field", [
        ({"dataset": "usps", "synthetic": SyntheticSpec(n=9)}, "synthetic"),
        ({"dataset": "mnist", "paths": {"train_path": "zip.train"}}, "paths"),
        ({"dataset": "usps", "paths": {"train_path": "a", "tset_path": "b"}}, "paths"),
        ({"dataset": "synthetic", "paths": {"train_path": "a"}}, "paths"),
    ], ids=["spec-on-usps", "usps-key-on-mnist", "misspelt-key", "path-on-synthetic"])
    def test_setting_of_another_dataset_rejected(self, kwargs, field):
        with pytest.raises(ConfigError) as info:
            ExperimentConfig(**kwargs)
        assert info.value.field == field


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

    @pytest.mark.parametrize("header", ["", "dataset,method,level", CSV_HEADER + ",extra"])
    def test_wrong_csv_header_names_it(self, header):
        text = f"{header}\nsynthetic,gcn,0.0,0,1.0,0.1,false\n"
        with pytest.raises(ValueError) as info:
            parse_results_csv(text)
        assert str(info.value) == (f"expected CSV header {CSV_HEADER!r}, "
                                   f"got {text.strip().splitlines()[0]!r}")

    @pytest.mark.parametrize("row, message", [
        ("synthetic,gcn,0.0,0,1.0,0.1,maybe", "line 4: pca must be true or false, got 'maybe'"),
        ("synthetic,gcn,0.0", "line 4: expected 7 fields, got 3"),
        ("synthetic,gcn,0.0,0,1.0,0.1,false,x", "line 4: expected 7 fields, got 8"),
        ("synthetic,gcn,x,0,1.0,0.1,false",
         "line 4: could not convert string to float: 'x'"),
        ("synthetic,gcn,0.0,0.5,1.0,0.1,true",
         "line 4: invalid literal for int() with base 10: '0.5'"),
    ], ids=["pca-maybe", "short-row", "long-row", "non-numeric-level", "fractional-seed"])
    def test_bad_csv_row_names_its_line(self, row, message):
        # Line 2 is valid, and the blank line 3 still counts.
        text = f"{CSV_HEADER}\nsynthetic,gcn,0.0,0,1.0,0.1,false\n\n{row}\n"
        with pytest.raises(ValueError) as info:
            parse_results_csv(text)
        assert str(info.value) == message

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

    @pytest.mark.parametrize("source, data_dir, env", [
        ("data_dir (--data-dir)", "", "/from-env"),
        ("$HGSSL_DATA_DIR", None, ""),
    ], ids=["argument", "env"])
    def test_empty_data_dir_rejected(self, monkeypatch, source, data_dir, env):
        # It would put the canonical names under the working directory.
        monkeypatch.setenv("HGSSL_DATA_DIR", env)
        with pytest.raises(ConfigError,
                           match=f"^{re.escape(source)} is empty; .* paths test_path$") as info:
            resolve_dataset_paths("usps", {"train_path": "/x/t.train"}, data_dir)
        assert info.value.field == "data_dir"
        explicit = {"train_path": "/x/t.train", "test_path": "/x/t.test"}
        assert resolve_dataset_paths("usps", explicit, data_dir) == explicit
        assert resolve_dataset_paths("synthetic", {}, data_dir) == {}


def test_run_experiment_accepts_only_one_worker(tmp_path, monkeypatch):
    cfg = replace(SMALL, methods=("graph-ssl",))
    assert run_experiment(cfg, workers=1, ops_dir=tmp_path / "ops").ok

    def no_data(*args, **kwargs):
        raise AssertionError("data loaded before workers was checked")
    monkeypatch.setattr(hgssl.bench, "load_dataset", no_data)
    with pytest.raises(ConfigError, match="workers must be 1") as info:
        run_experiment(cfg, workers=2, ops_dir=tmp_path / "ops")
    assert info.value.field == "workers"
