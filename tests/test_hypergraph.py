import struct

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import csr_equal, knn_oracle, random_hypergraph
import hgssl.hypergraph
from hgssl.errors import DegenerateStructureError, FormatError
from hgssl.hypergraph import (CACHE_VERSION, build_knn_graph, build_knn_hypergraph,
                              gcn_operator, hypergraph_operator, knn_indices,
                              load_operator, save_operator)


class TestKnnIndices:
    def test_three_collinear_points(self):
        X = np.array([[0.0], [1.0], [10.0]])
        assert np.array_equal(knn_indices(X, 1), [[1], [0], [1]])

    def test_duplicate_points_tie_by_index(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        neighbors = knn_indices(X, 2)
        # Points 1, 2, 3 coincide; ties resolve toward the lower row index.
        assert np.array_equal(neighbors[0], [1, 2])
        assert np.array_equal(neighbors[1], [2, 3])
        assert np.array_equal(neighbors[2], [1, 3])
        assert np.array_equal(neighbors[3], [1, 2])

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 4))
        assert np.array_equal(knn_indices(X, 5), knn_oracle(X, 5))

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
        monkeypatch.setattr(hgm, "_BLOCK_BUDGET", 5 * 37)
        assert np.array_equal(hgm.knn_indices(X, 4), full)


class TestBuildKnnHypergraph:
    def test_two_points(self):
        hg = build_knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        assert np.array_equal(hg.incidence.toarray(), np.ones((2, 2)))
        assert np.array_equal(hg.vertex_degrees, [2.0, 2.0])
        assert np.array_equal(hg.edge_degrees, [2.0, 2.0])

    def test_three_collinear_points(self):
        # kNN: 0 -> 1, 1 -> 0, 2 -> 1.  Membership of hyperedge j is
        # {j} + kNN(j) + {i : j in kNN(i)}, so e0 = {0,1}, e1 = {0,1,2}
        # (1 is the nearest neighbor of 2), e2 = {1,2}.
        hg = build_knn_hypergraph(np.array([[0.0], [1.0], [10.0]]), 1)
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
        neighbors = knn_indices(X, 5)
        hg = build_knn_hypergraph(X, 5, knn=neighbors)
        dense = hg.incidence.toarray()
        # Every hyperedge contains its centroid and its k nearest neighbors.
        assert np.all(hg.edge_degrees >= 6)
        for i in range(50):
            for j in neighbors[i]:
                assert dense[i, j] == 1.0  # i in e_j whenever j in kNN(i)
                assert dense[j, i] == 1.0  # and j in e_i by the direct rule

    def test_centroid_toggle(self):
        X = np.array([[0.0], [1.0], [2.1], [3.3]])
        with_centroid = build_knn_hypergraph(X, 2, include_centroid=True)
        without = build_knn_hypergraph(X, 2, include_centroid=False)
        assert np.all(with_centroid.incidence.diagonal() == 1.0)
        assert np.all(with_centroid.edge_degrees >= without.edge_degrees)

    def test_cardinality_at_least_two_for_k1(self):
        rng = np.random.default_rng(3)
        for seed in range(4):
            X = np.random.default_rng(seed).standard_normal((20, 2))
            hg = build_knn_hypergraph(X, 1)
            assert hg.edge_degrees.min() >= 2

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((20, 3))
        perm = rng.permutation(20)
        hg = build_knn_hypergraph(X, 3)
        hg_perm = build_knn_hypergraph(X[perm], 3)
        dense = hg.incidence.toarray()
        dense_perm = hg_perm.incidence.toarray()
        # Old vertex i and old hyperedge j land at position inverse[.] after
        # permuting the rows, so pulling both axes back recovers the original.
        inverse = np.argsort(perm)
        assert np.array_equal(dense_perm[np.ix_(inverse, inverse)], dense)


class TestHypergraphOperator:
    def test_two_vertex_sym(self):
        hg = build_knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        op = hypergraph_operator(hg, "sym")
        assert np.allclose(op.matrix.toarray(), [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_two_vertex_rw_equals_sym(self):
        hg = build_knn_hypergraph(np.array([[0.0], [1.0]]), 1)
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
        # Canonical CSR: strictly increasing column indices within each row
        # (sorted, no duplicates) and no stored zeros or sub-PRUNE_TOL entries.
        matrix = op.matrix
        rows = np.repeat(np.arange(60), np.diff(matrix.indptr))
        assert np.all((np.diff(matrix.indices) > 0) | (np.diff(rows) > 0))
        assert np.all(np.abs(matrix.data) >= 1e-15)

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
        hg = build_knn_hypergraph(np.array([[0.0], [1.0]]), 1)
        with pytest.raises(ValueError):
            hypergraph_operator(hg, "graph_sym")


class TestBuildKnnGraph:
    def test_two_points_any_sigma(self):
        X = np.array([[0.0], [2.0]])
        for sigma in ("auto", 0.5, 3.0):
            op = build_knn_graph(X, 1, sigma=sigma)
            assert np.allclose(op.matrix.toarray(), [[0.0, 1.0], [1.0, 0.0]], atol=1e-12)
            assert op.normalization == "graph_sym"

    def test_equilateral_triangle(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3.0) / 2.0]])
        op = build_knn_graph(X, 2)
        dense = op.matrix.toarray()
        want = (np.ones((3, 3)) - np.eye(3)) / 2.0
        assert np.max(np.abs(dense - want)) < 1e-12

    def test_random_operator_properties(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((50, 3))
        op = build_knn_graph(X, 5)
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
        X = np.array([[0.0], [1.0]])
        with pytest.raises(ValueError):
            build_knn_graph(X, 1, sigma=0.0)

    def test_isolated_vertex_degenerate(self):
        # Huge separation underflows the Gaussian weight to zero.
        X = np.array([[0.0], [1e6]])
        with pytest.raises(DegenerateStructureError):
            build_knn_graph(X, 1, sigma=1.0)


class TestGcnOperator:
    def test_single_vertex(self):
        op = gcn_operator(np.array([[5.0]]), 1)
        assert np.array_equal(op.matrix.toarray(), [[1.0]])
        assert op.normalization == "gcn"

    def test_two_points_hand_values(self):
        X = np.array([[0.0], [1.0]])
        op = gcn_operator(X, 1, sigma=1.0)
        w = np.exp(-0.5)  # exp(-d^2 / (2 sigma^2)) with d = sigma = 1
        want = np.array([[1.0, w], [w, 1.0]]) / (1.0 + w)
        assert np.max(np.abs(op.matrix.toarray() - want)) < 1e-12

    def test_random_operator_properties(self):
        rng = np.random.default_rng(16)
        X = rng.standard_normal((50, 4))
        op = gcn_operator(X, 5)
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
            op = build_knn_graph(X, 4)
        elif norm == "gcn":
            op = gcn_operator(X, 4)
        else:
            op = hypergraph_operator(build_knn_hypergraph(X, 4), norm)
        assert op.normalization == norm
        dense = op.matrix.toarray()
        V = rng.standard_normal((30, 5))
        assert np.max(np.abs(op.apply(V) - dense @ V)) < 1e-12
        assert np.max(np.abs(op.apply_T(V) - dense.T @ V)) < 1e-12


# v2 cache layout: magic, u32 version, u8 normalization, u8 factor count;
# then per factor u64 rows, cols, nnz before its arrays.
FILE_HEADER = 4 + 4 + 1 + 1
FACTOR_HEADER = 3 * 8


def write_cache(path, factors, version=CACHE_VERSION, norm_code=0, count=None):
    """Hand-written cache file holding ``factors`` (dense arrays) in the v2 layout."""
    count = len(factors) if count is None else count
    blob = b"HGOP" + struct.pack("<IBB", version, norm_code, count)
    for dense in factors:
        matrix = sp.csr_matrix(np.asarray(dense, dtype=np.float64))
        blob += struct.pack("<QQQ", *matrix.shape, matrix.nnz)
        blob += matrix.indptr.astype("<i8").tobytes()
        blob += matrix.indices.astype("<i8").tobytes()
        blob += matrix.data.astype("<f8").tobytes()
    path.write_bytes(blob)
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
        save_operator(path, op)
        raw = bytearray(path.read_bytes())
        rows = op.factors[0].shape[0]
        first_index = FILE_HEADER + FACTOR_HEADER + 8 * (rows + 1)
        # The patched slot is the first factor's first column index.
        assert int.from_bytes(raw[first_index:first_index + 8], "little") \
            == op.factors[0].indices[0]
        for bad in (10**6, 30, -1):
            raw[first_index:first_index + 8] = int(bad).to_bytes(8, "little", signed=True)
            path.write_bytes(bytes(raw))
            with pytest.raises(FormatError, match="patched.hgop"):
                load_operator(path)

    def test_hand_written_file_loads(self, tmp_path):
        left = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 2.0]])
        right = np.array([[1.0, 0.0, 1.0], [0.0, 3.0, 0.0]])
        op = load_operator(write_cache(tmp_path / "ok.hgop", [left, right]))
        assert np.array_equal(op.matrix.toarray(), left @ right)

    @pytest.mark.parametrize("count", [0, 3, 255])
    def test_factor_count_not_one_or_two(self, tmp_path, count):
        path = write_cache(tmp_path / "count.hgop", [np.eye(3)], count=count)
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

    def test_version_1_file(self, tmp_path):
        # A v1 file: one CSR block straight after a u32 version and u8 norm.
        matrix = sp.csr_matrix(np.eye(3))
        blob = (b"HGOP" + struct.pack("<IB", 1, 0)
                + struct.pack("<QQQ", 3, 3, 3)
                + matrix.indptr.astype("<i8").tobytes()
                + matrix.indices.astype("<i8").tobytes()
                + matrix.data.astype("<f8").tobytes())
        path = tmp_path / "old.hgop"
        path.write_bytes(blob)
        with pytest.raises(FormatError, match=r"old\.hgop.*unsupported cache version 1"):
            load_operator(path)

    def test_trailing_bytes(self, tmp_path):
        path = write_cache(tmp_path / "long.hgop", [np.eye(3)])
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match=r"long\.hgop.*trailing"):
            load_operator(path)

    def test_failed_save_leaves_no_partial_file(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(31)
        op = hypergraph_operator(random_hypergraph(rng, 12, 2), "sym")
        kept = tmp_path / "kept.hgop"
        save_operator(kept, op)
        before = kept.read_bytes()
        # The normalization code is looked up after the magic is written.
        monkeypatch.setattr(hgssl.hypergraph, "_NORM_CODES", {})
        with pytest.raises(KeyError):
            save_operator(tmp_path / "new.hgop", op)
        with pytest.raises(KeyError):
            save_operator(kept, op)
        assert [p.name for p in tmp_path.iterdir()] == ["kept.hgop"]
        assert kept.read_bytes() == before
