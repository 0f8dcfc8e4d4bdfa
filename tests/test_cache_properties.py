"""Property tests for the operator cache over small drawn point clouds."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import csr_equal, knn_hypergraph
from hgssl.errors import FormatError
from hgssl.hypergraph import (build_knn_graph, gaussian_knn_adjacency, gcn_operator,
                              hypergraph_operator, knn_indices, load_operator,
                              save_operator)
from strategies import PROPERTY, outlier_clouds, point_clouds  # first: skips without hypothesis
from hypothesis import assume, given
from hypothesis import strategies as st


def build(norm, X, k):
    if norm == "sym" or norm == "rw":
        return hypergraph_operator(knn_hypergraph(X, k), norm)
    # The auto sigma is 0 when every point's k-th neighbor coincides with it.
    knn, sq_dist = knn_indices(X, k)
    assume(np.any(X[knn[:, -1]] != X))
    A = gaussian_knn_adjacency(knn, sq_dist)
    if norm == "gcn":
        return gcn_operator(A)
    # A point whose every weight fell below the floor has no graph operator.
    assume(np.diff(A.indptr).min() > 0)
    return build_knn_graph(A)


def cache_bytes(op):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.hgop"
        save_operator(path, op)
        return path.read_bytes()


def load_bytes(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.hgop"
        path.write_bytes(blob)
        return load_operator(path)


NORMS = ["sym", "rw", "graph_sym", "gcn"]


@pytest.mark.parametrize("norm", NORMS)
@PROPERTY
@given(cloud=st.one_of(point_clouds(), outlier_clouds()))
def test_round_trip_is_bit_identical(norm, cloud):
    op = build(norm, *cloud)
    loaded = load_bytes(cache_bytes(op))
    assert loaded.normalization == norm
    assert len(loaded.factors) == len(op.factors)
    for got, want in zip(loaded.factors, op.factors):
        assert csr_equal(got, want)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("norm", NORMS)
@PROPERTY
@given(cloud=point_clouds(), seed=st.integers(0, 2**32 - 1))
def test_apply_matches_materialized(norm, cloud, seed):
    op = build(norm, *cloud)
    V = np.random.default_rng(seed).standard_normal((op.shape[0], 3))
    assert np.max(np.abs(op.apply(V) - op.matrix @ V)) < 1e-12
    assert np.max(np.abs(op.apply_T(V) - op.matrix.T @ V)) < 1e-12


@pytest.mark.parametrize("norm", NORMS)
@PROPERTY
@given(cloud=point_clouds(), data=st.data())
def test_truncation_is_rejected(norm, cloud, data):
    blob = cache_bytes(build(norm, *cloud))
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(FormatError):
        load_bytes(blob[:cut])


@pytest.mark.parametrize("norm", NORMS)
def test_single_bit_flips_never_load_changed_values(norm):
    # One bit flipped in every byte in turn, cycling through the bit positions:
    # each file must fail with FormatError or load bit-identical to the saved one.
    X = np.random.default_rng(43).standard_normal((5, 2))
    if norm in ("sym", "rw"):
        op = hypergraph_operator(knn_hypergraph(X, 2), norm)
    else:
        A = gaussian_knn_adjacency(*knn_indices(X, 2))
        op = gcn_operator(A) if norm == "gcn" else build_knn_graph(A)
    blob = cache_bytes(op)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "op.hgop"
        for offset in range(len(blob)):
            flipped = bytearray(blob)
            flipped[offset] ^= 1 << (offset % 8)
            path.write_bytes(flipped)
            try:
                loaded = load_operator(path)
            except FormatError:
                continue
            assert loaded.normalization == norm
            assert len(loaded.factors) == len(op.factors), offset
            for got, want in zip(loaded.factors, op.factors):
                assert csr_equal(got, want), offset
