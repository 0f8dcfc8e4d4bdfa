"""The benchmark's workloads (benchmarks/workloads.py) and the calls its harness
makes into ``hgssl.bench`` still fit the package."""

import hashlib
import inspect
from pathlib import Path

import pytest

import hgssl.bench as bench
from hgssl.bench import ResultRow, SyntheticSpec
from hgssl.labels import inject_noise

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    import workloads
    return workloads.WORKLOADS


def test_workload_configs_resolve_as_passed(workloads):
    assert set(workloads) == {"noise-grid", "raw-wide", "ssl-cached"}
    for workload in workloads.values():
        cfg = workload.config(11)
        assert cfg.dataset == "synthetic"
        assert cfg.pca_dims == workload.pca_dims
        assert cfg.synthetic == SyntheticSpec(n=workload.n, classes=10, dim=workload.dim,
                                              spread=1.0, seed=11)
        assert (cfg.methods, cfg.noise_levels, cfg.seeds) \
            == (workload.methods, workload.noise_levels, workload.seeds)


def test_harness_calls_bind(workloads, tmp_path):
    cfg = workloads["noise-grid"].config(11)
    rows = [ResultRow("synthetic", "gcn", 0.0, 0, 0.5, 0.1, True)]
    text = bench.emit_table(rows, "csv")
    inspect.signature(bench.run_experiment).bind(cfg, workers=1, ops_dir=tmp_path)
    inspect.signature(bench.prepare_experiment).bind(cfg, ops_dir=tmp_path)
    inspect.signature(bench.emit_table).bind(rows, "csv")
    inspect.signature(bench.parse_results_csv).bind(text)
    assert bench.parse_results_csv(text) == rows


def test_ssl_cached_repeats_clean_label_cells(workloads):
    # Its gain comes from closed-form cells whose noisy labels are equal: the
    # 5 clean-label cells of each method share one solve, the 15 noisy ones do not.
    workload = workloads["ssl-cached"]
    dataset = bench.load_dataset(workload.config(11))
    assert dataset.num_samples == 12000 and dataset.num_features == 50
    digests = {hashlib.sha256(
                   inject_noise(dataset, level, seed)[dataset.train_indices]
               ).digest()
               for level in workload.noise_levels for seed in workload.seeds}
    assert len(workload.noise_levels) * len(workload.seeds) == 20
    assert len(digests) == 16
