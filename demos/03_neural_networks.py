#!/usr/bin/env python3
"""Train the three two-layer networks and compare them under label noise.

All three share the same architecture, Z = softmax(Theta ReLU(Theta X theta1)
theta2), trained full batch with Adam on a masked cross-entropy loss.  They
differ only in Theta and in the input: the graph network uses the self-loop
graph operator on raw features, the hypergraph network uses the hypergraph
operator on raw features, and the feature-propagated variant runs the
hypergraph network on pre-smoothed features.  ``train`` and ``predict`` take
the propagated input Theta X, formed once per network with ``op.apply``.
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

for level in (0.0, 0.45):
    noisy = inject_noise(ds, level, seed=1)
    Y = encode_labels(noisy, ds.train_indices, ds.num_classes)
    flipped = np.flatnonzero(noisy != ds.labels)
    print(f"--- noise level {level * 100:.0f}% "
          f"({len(flipped)} of {len(ds.train_indices)} labels flipped)")
    for name, op, x_prop in runs:
        params = train(op, x_prop, Y, ds.train_indices, cfg, seed=0)
        acc = accuracy(predict(op, x_prop, params), ds.labels, ds.test_indices)
        print(f"{name:28s} test accuracy: {acc * 100:6.2f}%")

# The per-epoch training log is a CSV stream: epoch, loss, train accuracy.
Y = encode_labels(inject_noise(ds, 0.45, seed=1), ds.train_indices, ds.num_classes)
log = io.StringIO()
train(hyper_op, smoothed_input, Y, ds.train_indices,
      TrainConfig(hidden=64, epochs=50), seed=0, log_stream=log)
lines = log.getvalue().splitlines()
print("\ntraining log head:")
print("\n".join(lines[:4]))
print("training log tail:")
print("\n".join(lines[-2:]))
