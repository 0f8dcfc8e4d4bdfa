#!/usr/bin/env python3
"""PCA preprocessing and the operator cache.

The image benchmarks reduce features with PCA before any graph construction;
this keeps the kNN search cheap and strips noisy directions.  Expensive
operators can be saved as a zip archive of their CSR factors, which is checked
against each member's CRC-32 on load, and reloaded without changing any
downstream result.
"""

import tempfile
from pathlib import Path

import numpy as np

from hgssl import (build_knn_hypergraph, hypergraph_operator, knn_indices,
                   load_operator, pca_fit, pca_transform, save_operator,
                   synthetic_blobs)

# 64-dimensional blobs whose informative structure lives in a few directions.
ds = synthetic_blobs(n=400, num_classes=3, dim=64, spread=0.4, seed=11)

model = pca_fit(ds.features, d=8)
reduced = pca_transform(model, ds.features)
total = model.explained_variance.sum()
print("explained variance of the top components:")
for j in range(4):
    print(f"  component {j}: {model.explained_variance[j]:8.4f}")
print(f"top-8 components keep shape {reduced.shape} of {ds.features.shape}")

# Distances are preserved up to the discarded directions, so the kNN
# structure built on the reduced matrix is essentially the one built on raw
# features, at an eighth of the distance cost.
knn_raw, _ = knn_indices(ds.features, k=5)
knn_red, _ = knn_indices(reduced, k=5)
op_raw = hypergraph_operator(build_knn_hypergraph(knn_raw), "sym")
op_red = hypergraph_operator(build_knn_hypergraph(knn_red), "sym")
overlap = (op_raw.matrix.toarray() > 0) & (op_red.matrix.toarray() > 0)
print(f"\nshared nonzero pattern raw-vs-reduced: "
      f"{overlap.sum() / (op_raw.matrix.nnz):.1%}")

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "operator.hgop"
    save_operator(path, op_red)
    loaded = load_operator(path)
    same = (np.array_equal(loaded.matrix.data, op_red.matrix.data)
            and np.array_equal(loaded.matrix.indices, op_red.matrix.indices))
    print(f"cache file: {path.stat().st_size} bytes, "
          f"round-trip bit-identical: {same}")
