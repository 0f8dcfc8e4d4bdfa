"""Transductive semi-supervised classification on graphs and hypergraphs.

Five methods over a shared kNN structure: closed-form label propagation on a
pairwise graph or a hypergraph, two-layer graph and hypergraph networks, and
the feature-propagated hypergraph network.  The bench module measures their
accuracy under injected training-label noise.
"""

from .bench import (ExperimentConfig, ExperimentReport, ResultRow, SyntheticSpec,
                    emit_table, run_experiment)
from .datasets import (ImageDataset, load_idx_dataset, load_usps_dataset,
                       stratified_subsample, synthetic_blobs)
from .hypergraph import (Hypergraph, PropagationOperator, build_knn_graph,
                         build_knn_hypergraph, gaussian_knn_adjacency, gcn_operator,
                         hypergraph_operator, knn_indices, load_operator, save_operator)
from .labels import accuracy, decode_predictions, encode_labels, inject_noise
from .linalg import CgResult, conjugate_gradient, diag_scale
from .network import (ForwardTrace, TrainConfig, TwoLayerParams, forward,
                      loss_and_gradients, predict, train)
from .pca import PcaModel, pca_fit, pca_transform
from .propagation import PropagationConfig, propagate_features, propagate_labels

__version__ = "0.1.0"

__all__ = [
    "CgResult", "ExperimentConfig", "ExperimentReport", "ForwardTrace",
    "Hypergraph", "ImageDataset", "PcaModel",
    "PropagationConfig", "PropagationOperator", "ResultRow", "SyntheticSpec",
    "TrainConfig", "TwoLayerParams", "accuracy", "build_knn_graph",
    "build_knn_hypergraph", "conjugate_gradient", "decode_predictions",
    "diag_scale", "emit_table", "encode_labels", "forward", "gaussian_knn_adjacency",
    "gcn_operator", "hypergraph_operator", "inject_noise", "knn_indices",
    "load_idx_dataset", "load_operator", "load_usps_dataset",
    "loss_and_gradients", "pca_fit", "pca_transform", "predict",
    "propagate_features", "propagate_labels", "run_experiment", "save_operator",
    "stratified_subsample", "synthetic_blobs", "train",
]
