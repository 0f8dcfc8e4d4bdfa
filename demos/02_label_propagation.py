#!/usr/bin/env python3
"""Closed-form label propagation on a graph and on a hypergraph.

A few labeled points per class spread their labels over the kNN structure by
solving (I - alpha Theta) F = (1 - alpha) Y with conjugate gradients, one
right-hand side per class.  The one-hot encoding puts 1 in a labeled row's
class column and 0 everywhere else; the unlabeled rows are read off with a
row-wise argmax.

On cleanly clustered data the solve behaves like per-cluster majority voting,
so symmetric label noise below 50% leaves the argmax intact -- accuracy holds
while the decision margin (top score minus runner-up) shrinks with the noise.
The accuracy collapse reported on real images comes from kNN edges that cross
class boundaries, which this generator deliberately avoids.
"""

import numpy as np

from hgssl import (PropagationConfig, accuracy, build_knn_graph,
                   build_knn_hypergraph, decode_predictions, encode_labels,
                   gaussian_knn_adjacency, hypergraph_operator, inject_noise,
                   knn_indices, propagate_labels, synthetic_blobs)

ds = synthetic_blobs(n=600, num_classes=4, dim=8, spread=0.15, seed=3)
print(f"{ds.num_samples} points, {ds.num_classes} classes, "
      f"{len(ds.train_indices)} labeled / {len(ds.test_indices)} to predict")

# One kNN pass feeds both structures: the graph weighs its neighbor lists by
# the squared distances the pass kept, the hypergraph reads the lists alone.
knn, sq_dist = knn_indices(ds.features, k=5)
graph_op = build_knn_graph(gaussian_knn_adjacency(knn, sq_dist))
hyper_op = hypergraph_operator(build_knn_hypergraph(knn), "sym")
cfg = PropagationConfig(alpha=0.99)

for level in (0.0, 0.15, 0.30, 0.45):
    noisy = inject_noise(ds, level, seed=0)
    Y = encode_labels(noisy, ds.train_indices, ds.num_classes)
    for name, op in (("graph", graph_op), ("hypergraph", hyper_op)):
        F = propagate_labels(op, Y, cfg)
        pred = decode_predictions(F)
        acc = accuracy(pred, ds.labels, ds.test_indices)
        scores = np.sort(F[ds.test_indices], axis=1)
        margin = float(np.mean(scores[:, -1] - scores[:, -2]))
        print(f"noise {level * 100:4.0f}%  {name:10s} "
              f"accuracy {acc * 100:6.2f}%   mean margin {margin:.4f}")

Y = encode_labels(inject_noise(ds, 0.0, seed=0), ds.train_indices, ds.num_classes)
F = propagate_labels(hyper_op, Y, cfg)
row = ds.test_indices[0]
print(f"\nscores of unlabeled row {row} (true class {ds.labels[row]}):",
      np.round(F[row], 4))
