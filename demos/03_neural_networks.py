#!/usr/bin/env python3
"""Train the three two-layer networks and compare them under label noise.

All three share the same architecture, Z = softmax(Theta ReLU(Theta X theta1)
theta2), trained full batch with Adam on a masked cross-entropy loss.  They
differ only in Theta and in the input: the graph network uses the self-loop
graph operator on raw features, the hypergraph network uses the hypergraph
operator on raw features, and the feature-propagated variant runs the
hypergraph network on pre-smoothed features.  ``train`` and ``predict`` take
the propagated input Theta X, formed once per network with ``op.apply``.
One ``train`` call trains one model per label matrix; large enough models
train side by side, one per CPU.
"""

import io

import numpy as np

from hgssl import (PropagationConfig, TrainConfig, accuracy,
                   build_knn_hypergraph, encode_labels, gaussian_knn_adjacency,
                   gcn_operator, hypergraph_operator, inject_noise, knn_indices,
                   predict, propagate_features, synthetic_blobs, train)

ds = synthetic_blobs(n=500, num_classes=3, dim=10, spread=0.35, seed=7)
knn, sq_dist = knn_indices(ds.features, k=5)
hyper_op = hypergraph_operator(build_knn_hypergraph(knn), "sym")
graph_op = gcn_operator(gaussian_knn_adjacency(knn, sq_dist))
smoothed = propagate_features(hyper_op, ds.features, PropagationConfig(alpha=0.99))
smoothed_input = hyper_op.apply(smoothed)
cfg = TrainConfig(hidden=64, epochs=200)

runs = (
    ("graph network", graph_op, graph_op.apply(ds.features)),
    ("hypergraph network", hyper_op, hyper_op.apply(ds.features)),
    ("feature-propagated network", hyper_op, smoothed_input),
)

levels = (0.0, 0.45)
noisy = [inject_noise(ds, level, seed=1) for level in levels]
Ys = [encode_labels(labels, ds.train_indices, ds.num_classes) for labels in noisy]
# Per network, one call trains its model at each noise level.
scores = {name: [accuracy(predict(op, x_prop, params), ds.labels, ds.test_indices)
                 for params in train(op, x_prop, Ys, ds.train_indices, cfg,
                                     seeds=[0] * len(levels))]
          for name, op, x_prop in runs}

for i, level in enumerate(levels):
    flipped = np.flatnonzero(noisy[i] != ds.labels)
    print(f"--- noise level {level * 100:.0f}% "
          f"({len(flipped)} of {len(ds.train_indices)} labels flipped)")
    for name, _, _ in runs:
        print(f"{name:28s} test accuracy: {scores[name][i] * 100:6.2f}%")

# The per-epoch training log of a one-model call is a CSV stream: epoch,
# loss, train accuracy.
log = io.StringIO()
train(hyper_op, smoothed_input, Ys[-1:], ds.train_indices,
      TrainConfig(hidden=64, epochs=50), seeds=[0], log_stream=log)
lines = log.getvalue().splitlines()
print("\ntraining log head:")
print("\n".join(lines[:4]))
print("training log tail:")
print("\n".join(lines[-2:]))
