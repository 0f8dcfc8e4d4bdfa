"""Spans around the public functions that ``hgssl.bench`` calls in each module.

Tracing replaces module attributes from outside the package: ``hgssl.bench``
and ``hgssl.propagation`` look their callees up as module globals at call
time, and ``hgssl.bench`` reaches the hypergraph layer through the module
object, so patching those attributes sees every call without editing the
package.  Spans are kept in memory and written out by the caller at the end.
"""

import inspect
import os
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

from hgssl.bench import METHODS

LAYERS = ("datasets", "pca", "hypergraph", "linalg", "propagation", "network",
          "labels", "bench")
OPERATORS = ("hg_sym", "graph", "gcn")


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    layer: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _cg_attrs(args, result):
    return {"iterations": int(result.iterations), "residual": float(result.residual)}


def _file_bytes(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _operator_nnz(args, result):
    return {"nnz": {name: int(op.matrix.nnz) for name, op in result.items()}}


def _feature_cols(args, result):
    return {"cols": int(args["X"].shape[1])}


def _epochs(args, result):
    return {"epochs": int(args["cfg"].epochs)}


def _method(args, result):
    return {"method": args["method"]}


def _targets():
    """(module, attribute, layer, attrs-from-(bound args, result)) per traced call."""
    import hgssl.bench as bench
    import hgssl.hypergraph as hypergraph
    import hgssl.propagation as propagation
    return [
        (bench, "synthetic_blobs", "datasets", None),
        (bench, "stratified_subsample", "datasets", None),
        (bench, "pca_fit", "pca", None),
        (bench, "pca_transform", "pca", None),
        (hypergraph, "knn_indices", "hypergraph", None),
        (hypergraph, "build_knn_hypergraph", "hypergraph", None),
        (hypergraph, "hypergraph_operator", "hypergraph", None),
        (hypergraph, "build_knn_graph", "hypergraph", None),
        (hypergraph, "gcn_operator", "hypergraph", None),
        (hypergraph, "save_operator", "hypergraph", _file_bytes),
        (hypergraph, "load_operator", "hypergraph", _file_bytes),
        (propagation, "conjugate_gradient", "linalg", _cg_attrs),
        (bench, "propagate_features", "propagation", _feature_cols),
        (bench, "propagate_labels", "propagation", None),
        (bench, "train", "network", _epochs),
        (bench, "predict", "network", None),
        (bench, "inject_noise", "labels", None),
        (bench, "encode_labels", "labels", None),
        (bench, "decode_predictions", "labels", None),
        (bench, "accuracy", "labels", None),
        (bench, "run_experiment", "bench", None),
        (bench, "prepare_experiment", "bench", None),
        (bench, "build_operators", "bench", _operator_nnz),
        (bench, "run_cell", "bench", _method),
        (bench, "emit_table", "bench", None),
    ]


class Tracer:
    """Records nested spans; ``installed()`` patches every traced call."""

    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, layer):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, original, name, layer, attrs_of):
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            with self.span(name, layer) as span:
                result = original(*args, **kwargs)
            if attrs_of is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.attrs = attrs_of(bound.arguments, result)
            return result
        return traced

    @contextmanager
    def installed(self):
        patched = []
        try:
            for module, attr, layer, attrs_of in _targets():
                original = getattr(module, attr)
                patched.append((module, attr, original))
                setattr(module, attr,
                        self._wrap(original, f"{layer}.{attr}", layer, attrs_of))
            yield self
        finally:
            for module, attr, original in reversed(patched):
                setattr(module, attr, original)

    def to_json(self):
        return [asdict(span) for span in self.spans]


def self_times(spans):
    """Per-layer self time: each span's duration minus its children's.

    Calls are sequential (one worker), so a span's children do not overlap
    and the time they cover is the sum of their durations.
    """
    covered = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.seconds
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        per_layer[span.layer] += span.seconds - covered[span.id]
    return per_layer


def spans_consistent(spans, root) -> bool:
    """Every span but the root nests inside its parent, and self times add up."""
    for span in spans:
        if span is root:
            continue
        if span.parent is None:
            return False
        parent = spans[span.parent]
        if not (parent.start <= span.start <= span.end <= parent.end):
            return False
    total = sum(self_times(spans).values())
    return abs(total - root.seconds) <= 1e-9 * len(spans) + 1e-6


def layer_metrics(spans, root) -> dict:
    """The per-layer metrics of one traced grid whose outermost span is ``root``."""
    by_name = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def total(*names):
        return sum(span.seconds for name in names for span in by_name[name])

    def p50(durations):
        return statistics.median(durations) if durations else 0.0

    # A call that raised has no attributes; it adds nothing to the counts.
    def attr_sum(name, key):
        return sum(span.attrs.get(key, 0) for span in by_name[name])

    cg = by_name["linalg.conjugate_gradient"]
    built = by_name["bench.build_operators"]
    nnz = built[-1].attrs.get("nnz", {}) if built else {}
    train_s = total("network.train")
    epochs = attr_sum("network.train", "epochs")

    metrics = {
        "datasets.load_s": total("datasets.synthetic_blobs", "datasets.stratified_subsample"),
        "pca.fit_s": total("pca.pca_fit"),
        "pca.transform_s": total("pca.pca_transform"),
        "hypergraph.knn_s": total("hypergraph.knn_indices"),
        "hypergraph.hypergraph_s": total("hypergraph.build_knn_hypergraph",
                                         "hypergraph.hypergraph_operator"),
        "hypergraph.graph_s": total("hypergraph.build_knn_graph", "hypergraph.gcn_operator"),
    }
    for name in OPERATORS:
        metrics[f"hypergraph.op_nnz.{name}"] = nnz.get(name, 0)
    metrics.update({
        "hypergraph.cache_write_s": total("hypergraph.save_operator"),
        "hypergraph.cache_write_bytes": attr_sum("hypergraph.save_operator", "bytes"),
        "hypergraph.cache_read_s": total("hypergraph.load_operator"),
        "hypergraph.cache_read_bytes": attr_sum("hypergraph.load_operator", "bytes"),
        "hypergraph.cache_hits": len(by_name["hypergraph.load_operator"]),
        "hypergraph.cache_misses": len(by_name["hypergraph.save_operator"]),
        "linalg.cg_solves": len(cg),
        "linalg.cg_iters": attr_sum("linalg.conjugate_gradient", "iterations"),
        "linalg.cg_iters_max": max((span.attrs.get("iterations", 0) for span in cg),
                                   default=0),
        "linalg.cg_residual_max": max((span.attrs.get("residual", 0.0) for span in cg),
                                      default=0.0),
        "linalg.cg_s": total("linalg.conjugate_gradient"),
        "propagation.features_s": total("propagation.propagate_features"),
        "propagation.features_cols": attr_sum("propagation.propagate_features", "cols"),
        "propagation.labels_s": total("propagation.propagate_labels"),
        "propagation.labels_call_s_p50": p50(
            [span.seconds for span in by_name["propagation.propagate_labels"]]),
        "network.train_s": train_s,
        "network.train_call_s_p50": p50([span.seconds for span in by_name["network.train"]]),
        "network.epochs_per_s": epochs / train_s if train_s > 0 else 0.0,
        "network.predict_s": total("network.predict"),
        "labels.noise_s": total("labels.inject_noise", "labels.encode_labels",
                                "labels.decode_predictions", "labels.accuracy"),
    })
    for method in METHODS:
        metrics[f"bench.cell_s.{method}"] = p50(
            [span.seconds for span in by_name["bench.run_cell"]
             if span.attrs.get("method") == method])
    metrics["bench.emit_s"] = total("bench.emit_table")
    for layer, seconds in self_times(spans).items():
        metrics[f"{layer}.self_s"] = seconds
    metrics["trace.grid_s"] = root.seconds
    metrics["trace.spans"] = len(spans)
    return metrics
