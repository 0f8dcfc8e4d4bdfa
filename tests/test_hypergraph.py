import json
import struct
import time
import tracemalloc
import zipfile

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import (csr_equal, is_canonical, knn_adjacency, knn_hypergraph, knn_oracle,
                     random_hypergraph, reference_adjacency)
import hgssl.hypergraph
import hgssl.linalg
from hgssl.errors import DegenerateStructureError, FormatError, ShapeError
from hgssl.hypergraph import (CACHE_VERSION, Hypergraph, build_knn_graph,
                              build_knn_hypergraph, gaussian_knn_adjacency, gcn_operator,
                              hypergraph_operator, knn_indices, load_operator,
                              save_operator)


def same_knn(a, b) -> bool:
    """Whether two ``knn_indices`` results hold the same lists and distance bits."""
    return np.array_equal(a[0], b[0]) and a[1].tobytes() == b[1].tobytes()


class TestKnnIndices:
    def test_three_collinear_points(self):
        X = np.array([[0.0], [1.0], [10.0]])
        knn, sq_dist = knn_indices(X, 1)
        assert np.array_equal(knn, [[1], [0], [1]])
        assert np.array_equal(sq_dist, [[1.0], [1.0], [81.0]])

    def test_duplicate_points_tie_by_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        neighbors, sq_dist = knn_indices(X, 2)
        # Points 1, 2, 3 coincide; ties resolve toward the lower row index.
        assert np.array_equal(neighbors[0], [1, 2])
        assert np.array_equal(neighbors[1], [2, 3])
        assert np.array_equal(neighbors[2], [1, 3])
        assert np.array_equal(neighbors[3], [1, 2])
        assert np.array_equal(sq_dist, [[2.0, 2.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 4))
        assert np.array_equal(knn_indices(X, 5)[0], knn_oracle(X, 5))

    def test_k_out_of_range(self):
        X = np.zeros((3, 2))
        with pytest.raises(ValueError):
            knn_indices(X, 3)
        with pytest.raises(ValueError):
            knn_indices(X, 0)

    def test_blocked_equals_unblocked(self, monkeypatch):
        import hgssl.hypergraph as hgm
        rng = np.random.default_rng(14)
        X = rng.standard_normal((37, 3))
        full = knn_indices(X, 4)
        # Tiles of 5 rows, a last one of 2: set once by the budget, once by the row cap.
        monkeypatch.setattr(hgm, "_TILE_BUDGET", 5 * 37)
        assert same_knn(hgm.knn_indices(X, 4), full)
        monkeypatch.undo()
        monkeypatch.setattr(hgm, "_TILE_ROWS", 5)
        assert same_knn(hgm.knn_indices(X, 4), full)

    def test_uneven_blocks_and_partition_chunks(self, monkeypatch):
        import hgssl.hypergraph as hgm
        # Integer coordinates give exact ties.  Blocks of 11 rows leave a last
        # block of 8; chunks of 4 rows leave a last chunk of 3 in every full block.
        X = np.random.default_rng(15).integers(0, 4, (41, 2)).astype(np.float64)
        monkeypatch.setattr(hgm, "_TILE_BUDGET", 11 * 41)
        monkeypatch.setattr(hgm, "_PARTITION_ROWS", 4)
        assert np.array_equal(hgm.knn_indices(X, 3)[0], knn_oracle(X, 3))

    def test_peak_memory_bounded_by_block_budget(self):
        import hgssl.hypergraph as hgm
        n = 2000
        X = np.random.default_rng(16).standard_normal((n, 50))
        tracemalloc.start()
        try:
            knn_indices(X, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # One 256-row Gram tile (4.1 MB, where the budget alone would allow 1048
        # rows) plus two pair-gather chunks, which also cover the 64-row partition
        # copy and the shortlist mask: the tile is never copied whole.
        assert peak <= 8 * hgm._TILE_ROWS * n + 2 * 8 * hgm._PAIR_BUDGET, peak

    @staticmethod
    def _count_reranked(monkeypatch):
        """Record how many pairs each knn_indices block sends to the exact rerank."""
        counts = []
        exact = hgssl.hypergraph.pair_sq_distances

        def counting(X, rows, cols):
            counts.append(len(rows))
            return exact(X, rows, cols)
        monkeypatch.setattr(hgssl.hypergraph, "pair_sq_distances", counting)
        return counts

    def test_shortlist_wider_than_k_on_shifted_duplicates(self, monkeypatch):
        # Every point appears three times, so each row ties with two copies of
        # itself and more; the +1e4 shift makes the Gram expansion inexact.
        rng = np.random.default_rng(5)
        X = np.repeat(rng.integers(0, 3, (20, 3)).astype(np.float64), 3, axis=0) + 1e4
        counts = self._count_reranked(monkeypatch)
        assert np.array_equal(knn_indices(X, 2)[0], knn_oracle(X, 2))
        assert sum(counts) > X.shape[0] * 2

    def test_far_outlier_loosens_slack_not_answer(self, monkeypatch):
        # One norm 1e6 times the rest sets every row's slack through max ||x_j||.
        rng = np.random.default_rng(3)
        X = rng.standard_normal((60, 4))
        X[17] *= 1e6 * np.linalg.norm(X, axis=1).mean() / np.linalg.norm(X[17])
        sq_norms = np.einsum("ij,ij->i", X, X)
        assert hgssl.hypergraph._certified_slack(sq_norms, 4).min() > 1e-3
        counts = self._count_reranked(monkeypatch)
        assert np.array_equal(knn_indices(X, 5)[0], knn_oracle(X, 5))
        assert sum(counts) > X.shape[0] * 5

    def test_subnormal_scale_matches_exhaustive_rerank(self):
        # At 1e-162 the squared distances are subnormal or zero, where only the
        # slack's absolute term covers the products that underflow.
        rng = np.random.default_rng(8)
        X = rng.standard_normal((40, 3)) * 1e-162
        n = X.shape[0]
        rows, cols = np.nonzero(~np.eye(n, dtype=bool))
        dist = hgssl.hypergraph.pair_sq_distances(X, rows, cols)
        order = np.lexsort((cols, dist, rows))
        exhaustive = cols[order].reshape(n, n - 1)
        exhaustive_sq = dist[order].reshape(n, n - 1)
        for k in (1, 7, 20):
            knn, sq_dist = knn_indices(X, k)
            assert np.array_equal(knn, exhaustive[:, :k])
            assert sq_dist.tobytes() == exhaustive_sq[:, :k].tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1e200], ids=["nan", "inf", "overflow"])
    def test_non_finite_row_rejected(self, value):
        X = np.random.default_rng(4).standard_normal((20, 3))
        X[4, 1] = value
        X[9, 0] = value
        with pytest.raises(ValueError, match="row 4 "):
            knn_indices(X, 3)


class TestPairSqDistances:
    def test_matches_difference_formula(self):
        rng = np.random.default_rng(6)
        X = rng.standard_normal((30, 7))
        rows = rng.integers(0, 30, 100)
        cols = rng.integers(0, 30, 100)
        want = ((X[rows] - X[cols]) ** 2).sum(axis=1)
        assert np.array_equal(hgssl.hypergraph.pair_sq_distances(X, rows, cols), want)

    def test_chunking_leaves_operators_unchanged(self, monkeypatch):
        rng = np.random.default_rng(7)
        X = rng.standard_normal((80, 9))
        knn = knn_indices(X, 5)
        adjacency = gaussian_knn_adjacency(*knn)
        # 20 coordinates per chunk: two pairs at a time.  Both graph operators
        # read the pair distances only through the kNN pass and the adjacency.
        monkeypatch.setattr(hgssl.hypergraph, "_PAIR_BUDGET", 20)
        chunked = knn_indices(X, 5)
        assert same_knn(chunked, knn)
        assert csr_equal(gaussian_knn_adjacency(*chunked), adjacency)


class TestBuildKnnHypergraph:
    def test_two_points(self):
        hg = knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        assert np.array_equal(hg.incidence.toarray(), np.ones((2, 2)))
        assert np.array_equal(hg.vertex_degrees, [2.0, 2.0])
        assert np.array_equal(hg.edge_degrees, [2.0, 2.0])

    def test_three_collinear_points(self):
        # kNN: 0 -> 1, 1 -> 0, 2 -> 1.  Membership of hyperedge j is
        # {j} + kNN(j) + {i : j in kNN(i)}, so e0 = {0,1}, e1 = {0,1,2}
        # (1 is the nearest neighbor of 2), e2 = {1,2}.
        hg = knn_hypergraph(np.array([[0.0], [1.0], [10.0]]), 1)
        want = np.array([
            [1.0, 1.0, 0.0],
            [1.0, 1.0, 1.0],
            [0.0, 1.0, 1.0],
        ])
        assert np.array_equal(hg.incidence.toarray(), want)
        assert hg.vertex_degrees[1] == 3.0

    def test_symmetric_closure_and_cardinality(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((50, 3))
        neighbors, _ = knn_indices(X, 5)
        hg = build_knn_hypergraph(neighbors)
        dense = hg.incidence.toarray()
        # Every hyperedge contains its centroid and its k nearest neighbors.
        assert np.all(hg.edge_degrees >= 6)
        for i in range(50):
            for j in neighbors[i]:
                assert dense[i, j] == 1.0  # i in e_j whenever j in kNN(i)
                assert dense[j, i] == 1.0  # and j in e_i by the direct rule

    def test_every_hyperedge_holds_its_centroid(self):
        for k in (1, 2, 5):
            X = np.random.default_rng(k).standard_normal((30, 2))
            assert np.all(knn_hypergraph(X, k).incidence.diagonal() == 1.0)

    def test_cardinality_at_least_two_for_k1(self):
        rng = np.random.default_rng(3)
        for seed in range(4):
            X = np.random.default_rng(seed).standard_normal((20, 2))
            hg = knn_hypergraph(X, 1)
            assert hg.edge_degrees.min() >= 2

    @pytest.mark.parametrize("knn, message", [
        ([[1], [0], [3]], "indices must be < 3"),
        ([[1], [0], [-1]], "indices must be >= 0"),
        ([[1, 2], [0, 2], [2, 0]], "lists itself"),
        ([[1, 1], [0, 2], [0, 1]], "repeats a neighbor"),
        ([[1.0], [0.0], [1.0]], "integer indices"),
    ], ids=["past-n", "negative", "self", "repeated", "float"])
    def test_malformed_neighbor_lists_rejected(self, knn, message):
        # An index outside [0, n) must not reach scipy's unchecked kernels.
        knn = np.array(knn)
        with pytest.raises(ValueError, match=message):
            build_knn_hypergraph(knn)
        with pytest.raises(ValueError, match=message):
            gaussian_knn_adjacency(knn, np.ones(knn.shape))

    def test_single_vertex_hyperedges_rejected(self):
        # Each of the two hyperedges holds only the other point.
        incidence = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(DegenerateStructureError, match="fewer than 2 vertices"):
            Hypergraph(incidence)

    def test_vertex_in_no_hyperedge_rejected(self):
        incidence = sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(DegenerateStructureError, match="zero degree"):
            Hypergraph(incidence)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 3))
        perm = rng.permutation(20)
        hg = knn_hypergraph(X, 3)
        hg_perm = knn_hypergraph(X[perm], 3)
        dense = hg.incidence.toarray()
        dense_perm = hg_perm.incidence.toarray()
        # Old vertex i and old hyperedge j land at position inverse[.] after
        # permuting the rows, so pulling both axes back recovers the original.
        inverse = np.argsort(perm)
        assert np.array_equal(dense_perm[np.ix_(inverse, inverse)], dense)


class TestHypergraphOperator:
    def test_two_vertex_sym(self):
        hg = knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        op = hypergraph_operator(hg, "sym")
        assert np.allclose(op.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_two_vertex_rw_equals_sym(self):
        hg = knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        rw = hypergraph_operator(hg, "rw")
        assert np.allclose(rw.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)
        assert np.allclose(np.asarray(rw.matrix.sum(axis=1)).ravel(), 1.0, atol=1e-12)

    def test_rw_row_sums_one(self):
        rng = np.random.default_rng(7)
        for n, k in ((20, 2), (45, 4), (80, 5)):
            hg = random_hypergraph(rng, n, k)
            op = hypergraph_operator(hg, "rw")
            sums = np.asarray(op.matrix.sum(axis=1)).ravel()
            assert np.max(np.abs(sums - 1.0)) < 1e-10

    def test_sym_is_symmetric(self):
        rng = np.random.default_rng(8)
        op = hypergraph_operator(random_hypergraph(rng, 60, 4), "sym")
        dense = op.matrix.toarray()
        assert np.max(np.abs(dense - dense.T)) < 1e-12
        assert dense.min() >= 0.0

    def test_matrix_is_sorted(self):
        # The factors' product comes out of scipy with unsorted rows.
        hg = random_hypergraph(np.random.default_rng(8), 60, 4)
        for norm in ("sym", "rw"):
            assert is_canonical(hypergraph_operator(hg, norm).matrix), norm

    def test_rw_similar_to_sym(self):
        # Theta_rw = Dv^{-1/2} Theta_sym Dv^{1/2}: the operators are similar.
        rng = np.random.default_rng(9)
        hg = random_hypergraph(rng, 30, 3)
        sym = hypergraph_operator(hg, "sym").matrix.toarray()
        rw = hypergraph_operator(hg, "rw").matrix.toarray()
        scale = np.sqrt(hg.vertex_degrees)
        want = (sym * scale[np.newaxis, :]) / scale[:, np.newaxis]
        assert np.max(np.abs(rw - want)) < 1e-12

    def test_sym_spectrum_in_unit_interval(self):
        rng = np.random.default_rng(11)
        for n in (25, 60, 100):
            op = hypergraph_operator(random_hypergraph(rng, n, 4), "sym")
            eigenvalues = np.linalg.eigvalsh(op.matrix.toarray())
            assert eigenvalues.min() >= -1e-10
            assert eigenvalues.max() <= 1.0 + 1e-10

    def test_unknown_normalization(self):
        hg = knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        with pytest.raises(ValueError):
            hypergraph_operator(hg, "graph_sym")


class TestGaussianAdjacency:
    def test_weight_below_floor_not_stored(self):
        # 99 unit-spaced points and one 20 units past the last: sigma = 1.19,
        # so the far pair's weight exp(-400 / (2 sigma^2)) ~ 5e-62 is positive
        # but below the floor, and the far point has no edge.
        X = np.append(np.arange(99.0), 118.0)[:, None]
        A = gaussian_knn_adjacency(*knn_indices(X, 1))
        sigma = (99 + 20) / 100
        assert 0.0 < np.exp(-400 / (2 * sigma ** 2)) < hgssl.hypergraph._WEIGHT_FLOOR
        assert A[99].nnz == 0 and A[:, 99].nnz == 0
        assert A.nnz == 2 * 98
        assert A.data.min() >= hgssl.hypergraph._WEIGHT_FLOOR
        assert is_canonical(A)

    @pytest.mark.parametrize("n, dim, k", [(2, 1, 1), (50, 3, 5), (200, 784, 7)])
    def test_matches_reference_from_features(self, n, dim, k):
        X = np.random.default_rng(n + k).standard_normal((n, dim))
        knn, sq_dist = knn_indices(X, k)
        assert csr_equal(gaussian_knn_adjacency(knn, sq_dist), reference_adjacency(X, knn))

    @pytest.mark.parametrize("shape", [(4, 2), (3, 3), (6,), (3, 2, 1)],
                             ids=["transposed", "extra-column", "flat", "3-d"])
    def test_distances_of_another_shape_rejected(self, shape):
        knn = np.array([[1, 2], [0, 2], [0, 1]])
        with pytest.raises(ValueError, match="do not match neighbor lists"):
            gaussian_knn_adjacency(knn, np.ones(shape))

    @pytest.mark.parametrize("value", [-1.0, -1e-300, np.nan, np.inf],
                             ids=["negative", "tiny-negative", "nan", "inf"])
    def test_negative_or_non_finite_distance_rejected(self, value):
        knn = np.array([[1, 2], [0, 2], [0, 1]])
        sq_dist = np.ones(knn.shape)
        sq_dist[2, 0] = value
        with pytest.raises(ValueError, match=r"squared distance \[2, 0\]"):
            gaussian_knn_adjacency(knn, sq_dist)

    def test_graph_peak_memory_is_o_nk(self):
        # The adjacency reads the kept distances and gathers no coordinates of
        # X, so at d = 784 the graph allocates less than one 2 MB gather chunk.
        X = np.random.default_rng(17).standard_normal((1000, 784))
        knn, sq_dist = knn_indices(X, 5)
        tracemalloc.start()
        try:
            build_knn_graph(gaussian_knn_adjacency(knn, sq_dist))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1 MiB for the O(n k) pair and edge arrays.
        assert peak <= 2 ** 20, peak


class TestBuildKnnGraph:
    def test_two_points(self):
        X = np.array([[0.0], [2.0]])
        op = build_knn_graph(knn_adjacency(X, 1))
        assert np.allclose(op.matrix.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
        assert op.normalization == "graph_sym"

    def test_equilateral_triangle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        op = build_knn_graph(knn_adjacency(X, 2))
        dense = op.matrix.toarray()
        want = (np.ones((3, 3)) - np.eye(3)) / 2.0
        assert np.max(np.abs(dense - want)) < 1e-12

    def test_random_operator_properties(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((50, 3))
        op = build_knn_graph(knn_adjacency(X, 5))
        dense = op.matrix.toarray()
        assert np.max(np.abs(dense - dense.T)) < 1e-12
        assert dense.min() >= 0.0 and dense.max() <= 1.0
        # Spectral radius <= 1 via power iteration on the densified operator.
        v = rng.standard_normal(50)
        for _ in range(200):
            v = dense @ v
            v /= np.linalg.norm(v)
        radius = abs(v @ (dense @ v))
        assert radius <= 1.0 + 1e-10

    def test_sigma_validation(self):
        # Every k-th-neighbor distance is 0, and so is their mean.
        X = np.zeros((3, 1))
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_knn_adjacency(*knn_indices(X, 1))

    def test_underflowing_width_rejected(self):
        # sigma ~ 1.5e-164 is positive, but 2 sigma^2 underflows to 0, which
        # would make every weight 0 or NaN and leave the graph empty.
        X = np.random.default_rng(17).standard_normal((300, 3)) * 1e-162
        with pytest.raises(ValueError, match=r"sigma = .*2 sigma\^2 = 0"):
            gaussian_knn_adjacency(*knn_indices(X, 5))

    def test_isolated_vertex_degenerate(self):
        # The far point's only weight falls below the adjacency's floor.
        X = np.append(np.arange(99.0), 118.0)[:, None]
        with pytest.raises(DegenerateStructureError):
            build_knn_graph(knn_adjacency(X, 1))


class TestGcnOperator:
    def test_single_vertex(self):
        op = gcn_operator(sp.csr_matrix((1, 1)))
        assert np.array_equal(op.matrix.toarray(), [[1.0]])
        assert op.normalization == "gcn"

    def test_two_points_hand_values(self):
        X = np.array([[0.0], [1.0]])
        op = gcn_operator(knn_adjacency(X, 1))
        w = np.exp(-0.5)  # exp(-d^2 / (2 sigma^2)) with d = 1 and auto sigma = 1
        want = np.array([[1.0, w], [w, 1.0]]) / (1.0 + w)
        assert np.max(np.abs(op.matrix.toarray() - want)) < 1e-12

    def test_random_operator_properties(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((50, 4))
        op = gcn_operator(knn_adjacency(X, 5))
        dense = op.matrix.toarray()
        assert np.max(np.abs(dense - dense.T)) < 1e-12
        assert dense.min() >= 0.0
        eigenvalues = np.linalg.eigvalsh(dense)
        assert np.abs(eigenvalues).max() <= 1.0 + 1e-10


class TestApply:
    @pytest.mark.parametrize("norm", ["sym", "rw", "graph_sym", "gcn"])
    def test_apply_and_apply_T_match_dense(self, norm):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((30, 3))
        if norm == "graph_sym":
            op = build_knn_graph(knn_adjacency(X, 4))
        elif norm == "gcn":
            op = gcn_operator(knn_adjacency(X, 4))
        else:
            op = hypergraph_operator(knn_hypergraph(X, 4), norm)
        assert op.normalization == norm
        dense = op.matrix.toarray()
        V = rng.standard_normal((30, 5))
        assert np.max(np.abs(op.apply(V) - dense @ V)) < 1e-12
        assert np.max(np.abs(op.apply_T(V) - dense.T @ V)) < 1e-12

    @pytest.mark.parametrize("norm", ["sym", "rw"])
    def test_column_blocks_match_one_product(self, monkeypatch, norm):
        # Blocks of 3 columns split 8 into 3 + 3 + 2; every bit is kept.
        rng = np.random.default_rng(23)
        op = hypergraph_operator(random_hypergraph(rng, 30), norm)
        V = rng.standard_normal((30, 8))
        right, left = op.factors[1], op.factors[0]
        whole, whole_T = left @ (right @ V), right.T @ (left.T @ V)
        monkeypatch.setattr(hgssl.linalg, "_BLOCK_BUDGET", 3 * 30)
        assert op.apply(V).tobytes() == whole.tobytes()
        assert op.apply_T(V).tobytes() == (whole if norm == "sym" else whole_T).tobytes()
        assert op.apply(V[:, 0]).tobytes() == whole[:, 0].tobytes()

    @pytest.mark.parametrize("norm", ["sym", "rw", "graph_sym", "gcn"])
    @pytest.mark.parametrize("budget", [None, 3 * 30], ids=["one-block", "blocks"])
    def test_apply_in_place_matches_fresh_result(self, monkeypatch, norm, budget):
        # Blocks of 3 columns split 8 into 3 + 3 + 2, each overwriting its own columns.
        rng = np.random.default_rng(29)
        X = rng.standard_normal((30, 3))
        if norm == "graph_sym":
            op = build_knn_graph(knn_adjacency(X, 4))
        elif norm == "gcn":
            op = gcn_operator(knn_adjacency(X, 4))
        else:
            op = hypergraph_operator(knn_hypergraph(X, 4), norm)
        if budget is not None:
            monkeypatch.setattr(hgssl.linalg, "_BLOCK_BUDGET", budget)
        V = rng.standard_normal((30, 8))
        want = op.apply(V)
        result = op.apply(V, out=V)
        assert result is V
        assert V.tobytes() == want.tobytes()
        out = np.empty(30)
        assert op.apply(want[:, 0], out=out) is out
        assert out.tobytes() == op.apply(want[:, 0]).tobytes()

    @pytest.mark.parametrize("out", [np.empty((30, 7)), np.empty((29, 8)),
                                     np.empty((30, 8), dtype=np.float32)],
                             ids=["narrow", "short", "float32"])
    def test_apply_rejects_mismatched_out(self, out):
        # A (30, 1) result would broadcast over a wider out unnoticed.
        op = hypergraph_operator(random_hypergraph(np.random.default_rng(31), 30), "sym")
        V = np.ones((30, 8))
        with pytest.raises(ShapeError, match="out is"):
            op.apply(V, out=out)
        with pytest.raises(ShapeError, match="out is"):
            op.apply(V[:, :1], out=np.empty((30, 8)))


def write_cache(path, factors, meta=None, members=None):
    """Cache archive holding ``factors`` in the member layout save_operator writes.

    A dense factor is stored as its canonical CSR; a CSR factor's arrays are
    stored as they are.  ``meta`` entries replace those of the metadata and
    ``members`` (name -> bytes) replace or add members.  zipfile writes every
    member's CRC-32, so the file reaches load_operator's own checks.
    """
    matrices = [factor if sp.issparse(factor)
                else sp.csr_matrix(np.asarray(factor, dtype=np.float64)) for factor in factors]
    header = {"version": CACHE_VERSION, "normalization": "sym",
              "shapes": [list(matrix.shape) for matrix in matrices]}
    contents = {"meta.json": json.dumps({**header, **(meta or {})}).encode()}
    for i, matrix in enumerate(matrices):
        contents[f"{i}/indptr"] = matrix.indptr.astype("<i4").tobytes()
        contents[f"{i}/indices"] = matrix.indices.astype("<i4").tobytes()
        contents[f"{i}/data"] = matrix.data.astype("<f8").tobytes()
    contents.update(members or {})
    with zipfile.ZipFile(path, "w") as archive:
        for name, payload in contents.items():
            archive.writestr(name, payload)
    return path


class TestOperatorCache:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(19)
        for norm in ("sym", "rw"):
            op = hypergraph_operator(random_hypergraph(rng, 25, 3), norm)
            path = tmp_path / f"{norm}.hgop"
            save_operator(path, op)
            loaded = load_operator(path)
            assert loaded.normalization == norm
            assert csr_equal(loaded.matrix, op.matrix)

    def test_saves_are_byte_identical(self, tmp_path, monkeypatch):
        op = hypergraph_operator(random_hypergraph(np.random.default_rng(17), 12, 2), "sym")
        save_operator(tmp_path / "first.hgop", op)
        # A wall-clock member timestamp would differ between the two saves.
        monkeypatch.setattr(time, "time", lambda: 2.0e9)
        save_operator(tmp_path / "second.hgop", op)
        assert (tmp_path / "first.hgop").read_bytes() == (tmp_path / "second.hgop").read_bytes()

    def test_indices_stored_as_int32(self, tmp_path, monkeypatch):
        op = hypergraph_operator(random_hypergraph(np.random.default_rng(41), 12, 2), "sym")
        path = tmp_path / "op.hgop"
        save_operator(path, op)
        with zipfile.ZipFile(path) as archive:
            assert len(archive.read("0/indices")) == 4 * op.factors[0].nnz
        assert all(f.indices.dtype == np.int32 for f in load_operator(path).factors)
        # A factor past int32's range is refused, not wrapped around.
        monkeypatch.setattr(hgssl.hypergraph, "_INT32_MAX", 11)
        with pytest.raises(ValueError, match=r"big\.hgop.*too large for int32 indices"):
            save_operator(tmp_path / "big.hgop", op)
        assert [p.name for p in tmp_path.iterdir()] == ["op.hgop"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_operator(tmp_path / "absent.hgop")

    def test_member_offset_before_file_start(self, tmp_path):
        # zipfile places each member at its directory offset plus the gap it
        # infers between the end record's directory offset and the directory's
        # real position.  Raising the end record's directory offset (the u32
        # 6 bytes from the end; no comment) past the file's size makes that gap
        # negative, so every member points before the start of the file, and
        # the seek there fails inside the opened archive.
        blob = bytearray(write_cache(tmp_path / "ok.hgop", [np.eye(3)]).read_bytes())
        offset = struct.unpack_from("<I", blob, len(blob) - 6)[0]
        struct.pack_into("<I", blob, len(blob) - 6, offset + len(blob))
        path = tmp_path / "before.hgop"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"before\.hgop: I/O error reading cache"):
            load_operator(path)

    def test_load_holds_members_once(self, tmp_path):
        # The members are read straight from the file and back the factors'
        # arrays, so a load allocates about the file's size, not the whole
        # file and then a copy of each member (about twice the size).
        X = np.random.default_rng(47).standard_normal((600, 20))
        path = tmp_path / "op.hgop"
        save_operator(path, hypergraph_operator(knn_hypergraph(X, 10), "sym"))
        size = path.stat().st_size
        assert 2 ** 17 < size < 2 ** 20, size
        tracemalloc.start()
        try:
            load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * size, (peak, size)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.hgop"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(FormatError):
            load_operator(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(23)
        op = hypergraph_operator(random_hypergraph(rng, 10, 2), "sym")
        path = tmp_path / "t.hgop"
        save_operator(path, op)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(FormatError):
            load_operator(path)

    def test_column_index_out_of_range(self, tmp_path):
        rng = np.random.default_rng(29)
        op = hypergraph_operator(random_hypergraph(rng, 30, 3), "sym")
        path = tmp_path / "patched.hgop"
        for bad in (10**6, 30, -1):
            # The patched slot is the first factor's first column index.
            indices = op.factors[0].indices.astype("<i4")
            indices[0] = bad
            write_cache(path, op.factors, members={"0/indices": indices.tobytes()})
            with pytest.raises(FormatError, match=r"patched\.hgop.*column index outside"):
                load_operator(path)

    def test_row_offsets_out_of_order(self, tmp_path):
        indptr = np.array([0, 2, 1, 3], dtype="<i4")
        path = write_cache(tmp_path / "offsets.hgop", [np.eye(3)],
                           members={"0/indptr": indptr.tobytes()})
        with pytest.raises(FormatError, match=r"offsets\.hgop.*corrupt row offsets"):
            load_operator(path)

    def test_arrays_do_not_fit_shape(self, tmp_path):
        path = write_cache(tmp_path / "fit.hgop", [np.eye(3)], meta={"shapes": [[4, 4]]})
        with pytest.raises(FormatError, match=r"fit\.hgop.*do not fit its shape"):
            load_operator(path)

    @pytest.mark.parametrize("meta", [b"[]", b"{", b'{"version": 3}', b'{"version": 3, '
                                      b'"normalization": "sym", "shapes": [[3, 3, 3]]}'],
                             ids=["list", "not-json", "no-normalization", "bad-shape"])
    def test_malformed_metadata(self, tmp_path, meta):
        path = write_cache(tmp_path / "meta.hgop", [np.eye(3)], members={"meta.json": meta})
        with pytest.raises(FormatError, match=r"meta\.hgop"):
            load_operator(path)

    def test_unknown_normalization(self, tmp_path):
        path = write_cache(tmp_path / "norm.hgop", [np.eye(3)], meta={"normalization": "lap"})
        with pytest.raises(FormatError, match=r"norm\.hgop.*unknown normalization 'lap'"):
            load_operator(path)

    def test_hand_written_file_loads(self, tmp_path):
        left = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
        right = np.array([[1.0, 0.0, 1.0], [0.0, 3.0, 0.0]])
        op = load_operator(write_cache(tmp_path / "ok.hgop", [left, right]))
        assert np.array_equal(op.matrix.toarray(), left @ right)

    @pytest.mark.parametrize("row_indices", [[2, 0], [0, 0]], ids=["reversed", "repeated"])
    def test_unsorted_or_repeated_row_rejected(self, tmp_path, row_indices):
        # Row 1 of a 3 x 3 factor stores its two column indices out of order or twice.
        factor = sp.csr_matrix((np.array([1.0, 0.5, 0.5, 1.0]),
                                np.array([0] + row_indices + [2]),
                                np.array([0, 1, 3, 4])), shape=(3, 3))
        path = write_cache(tmp_path / "order.hgop", [factor])
        with pytest.raises(FormatError, match=r"order\.hgop.*unsorted or repeated"):
            load_operator(path)
        factor.sum_duplicates()  # sorted and summed in place: the same file, canonical
        load_operator(write_cache(path, [factor]))

    def test_non_canonical_factor_not_saved(self, tmp_path):
        # A hand-built incidence whose row 1 lists its columns in reverse.
        incidence = sp.csr_matrix((np.ones(7), np.array([0, 1, 2, 1, 0, 1, 2]),
                                   np.array([0, 2, 5, 7])), shape=(3, 3))
        op = hypergraph_operator(Hypergraph(incidence), "sym")
        with pytest.raises(ValueError, match=r"bad\.hgop.*unsorted or repeated"):
            save_operator(tmp_path / "bad.hgop", op)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("count", [0, 3, 255])
    def test_factor_count_not_one_or_two(self, tmp_path, count):
        path = write_cache(tmp_path / "count.hgop", [np.eye(3)] * count)
        with pytest.raises(FormatError, match=r"count\.hgop.*factors"):
            load_operator(path)

    def test_factors_do_not_chain(self, tmp_path):
        path = write_cache(tmp_path / "chain.hgop", [np.ones((3, 2)), np.ones((4, 3))])
        with pytest.raises(FormatError, match=r"chain\.hgop.*do not chain"):
            load_operator(path)

    def test_non_square_product(self, tmp_path):
        path = write_cache(tmp_path / "square.hgop", [np.ones((3, 2)), np.ones((2, 4))])
        with pytest.raises(FormatError, match=r"square\.hgop.*square"):
            load_operator(path)

    def test_unsupported_version(self, tmp_path):
        path = write_cache(tmp_path / "v2.hgop", [np.eye(3)], meta={"version": 2})
        with pytest.raises(FormatError, match=r"v2\.hgop.*unsupported cache version 2"):
            load_operator(path)

    def test_version_2_file(self, tmp_path):
        # A v2 file: magic, u32 version, u8 normalization, u8 factor count, then
        # per factor u64 rows, cols, nnz and its arrays; it is not a zip archive.
        matrix = sp.csr_matrix(np.eye(3))
        blob = (b"HGOP" + struct.pack("<IBB", 2, 0, 1)
                + struct.pack("<QQQ", 3, 3, 3)
                + matrix.indptr.astype("<i8").tobytes()
                + matrix.indices.astype("<i8").tobytes()
                + matrix.data.astype("<f8").tobytes())
        path = tmp_path / "old.hgop"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"old\.hgop"):
            load_operator(path)

    def test_trailing_bytes(self, tmp_path):
        # zipfile finds the archive from its end record and reads only the
        # members named in the metadata, so appended bytes either leave the
        # load bit-identical or are rejected; they never change a value.
        op = hypergraph_operator(random_hypergraph(np.random.default_rng(37), 12, 2), "sym")
        path = tmp_path / "long.hgop"
        save_operator(path, op)
        blob = path.read_bytes()
        for extra in (b"\x00", b"PK\x05\x06" + b"\x00" * 18):  # a zero; a bare end record
            path.write_bytes(blob + extra)
            try:
                loaded = load_operator(path)
            except FormatError as exc:
                assert "long.hgop" in str(exc)
            else:
                assert loaded.normalization == "sym" and len(loaded.factors) == 2
                assert all(csr_equal(a, b) for a, b in zip(loaded.factors, op.factors))

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        op = hypergraph_operator(random_hypergraph(rng, 12, 2), "sym")
        kept = tmp_path / "kept.hgop"
        save_operator(kept, op)
        before = kept.read_bytes()
        # The second factor's data member fails after the members before it are written.
        writestr = zipfile.ZipFile.writestr

        def failing_writestr(archive, info, payload):
            if info.filename == "1/data":
                raise OSError("disk full")
            return writestr(archive, info, payload)

        monkeypatch.setattr(zipfile.ZipFile, "writestr", failing_writestr)
        with pytest.raises(OSError, match="disk full"):
            save_operator(tmp_path / "new.hgop", op)
        with pytest.raises(OSError, match="disk full"):
            save_operator(kept, op)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.hgop"]
        assert kept.read_bytes() == before
