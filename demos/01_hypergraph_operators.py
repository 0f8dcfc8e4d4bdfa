#!/usr/bin/env python3
"""Build a kNN hypergraph from a handful of points and inspect its operators.

Every point spawns one hyperedge containing itself, its k nearest neighbors,
and every point that counts it among their own k nearest neighbors.  Two
propagation operators derive from the incidence structure.  The symmetric
one drives the closed-form solvers and both hypergraph networks; the
random-walk one, whose rows sum to 1, is a library alternative that the
networks accept but no benchmark method uses.
"""

import numpy as np

from hgssl import build_knn_hypergraph, hypergraph_operator, knn_indices

rng = np.random.default_rng(0)

# Two tight clusters of four points each, far apart.
points = np.vstack([
    rng.normal(loc=0.0, scale=0.3, size=(4, 2)),
    rng.normal(loc=5.0, scale=0.3, size=(4, 2)),
])

# The kNN pass returns the neighbor lists and their squared distances; the
# hypergraph reads only the lists.
knn, _ = knn_indices(points, k=2)
hg = build_knn_hypergraph(knn)
print("incidence matrix H (rows = vertices, columns = hyperedges):")
print(hg.incidence.toarray().astype(int))
print("\nvertex degrees d(v):", hg.vertex_degrees)
print("hyperedge degrees d(e):", hg.edge_degrees)

# No hyperedge crosses the gap between the clusters.
dense = hg.incidence.toarray()
cross = dense[:4, 4:].sum() + dense[4:, :4].sum()
print("\nmemberships crossing the cluster gap:", int(cross))

sym = hypergraph_operator(hg, "sym")
rw = hypergraph_operator(hg, "rw")
print("\nsymmetric operator (block structure mirrors the clusters):")
print(np.round(sym.matrix.toarray(), 3))

print("\nrandom-walk operator row sums (always 1):",
      np.round(np.asarray(rw.matrix.sum(axis=1)).ravel(), 12))

eigenvalues = np.linalg.eigvalsh(sym.matrix.toarray())
print("\nsymmetric operator spectrum lies in [0, 1]:",
      f"min={eigenvalues.min():.6f} max={eigenvalues.max():.6f}")
