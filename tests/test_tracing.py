"""The benchmark's tracer (benchmarks/tracing.py) still reads a traced grid."""

import json
import math
from pathlib import Path

from hgssl import linalg
from hgssl.bench import ExperimentConfig, SyntheticSpec, emit_table, run_experiment
from hgssl.network import TrainConfig

ROOT = Path(__file__).resolve().parent.parent


def test_traced_grid_reports_every_layer_metric(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "benchmarks"))
    from tracing import Tracer, layer_metrics, spans_consistent

    n, classes, dim = 150, 3, 6
    cfg = ExperimentConfig(
        dataset="synthetic", noise_levels=(0.0, 0.3), seeds=(0,),
        train=TrainConfig(hidden=8, epochs=20),
        synthetic=SyntheticSpec(n=n, classes=classes, dim=dim, spread=0.1, seed=2))
    # Blocks of 4 columns: the 6 features take two CG calls, each label solve one.
    monkeypatch.setattr(linalg, "_BLOCK_BUDGET", 4 * n)
    tracer = Tracer()
    with tracer.installed(), tracer.span("bench.grid", "bench") as root:
        report = run_experiment(cfg)
        emit_table(report.rows, "csv")
    assert report.ok

    metrics = layer_metrics(tracer.spans, root)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # The harness adds the overhead itself: it compares traced and untraced grids.
    missing = {m["name"] for m in declared} - {"trace.overhead_s"} - set(metrics)
    assert not missing
    assert spans_consistent(tracer.spans, root)
    # bench reaches each construction stage through its hypergraph-module
    # attribute, once per grid; a call around them would show no span.
    stages = ("knn_indices", "build_knn_hypergraph", "hypergraph_operator",
              "build_knn_graph", "gcn_operator")
    names = [span.name for span in tracer.spans]
    assert {stage: names.count(f"hypergraph.{stage}") for stage in stages} \
        == dict.fromkeys(stages, 1)
    label_solves = 2 * len(cfg.noise_levels) * math.ceil(classes / 4)
    assert metrics["linalg.cg_solves"] == label_solves + math.ceil(dim / 4)
    assert metrics["propagation.features_cols"] == dim
