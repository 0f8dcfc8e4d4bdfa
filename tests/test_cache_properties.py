"""Property tests for the operator cache over small drawn point clouds."""

import tempfile
from pathlib import Path

import numpy as np
import pytest

from helpers import csr_equal
from hgssl.errors import FormatError
from hgssl.hypergraph import (build_knn_graph, build_knn_hypergraph, gcn_operator,
                              hypergraph_operator, load_operator, save_operator)
from strategies import PROPERTY, point_clouds  # first: skips without hypothesis
from hypothesis import given
from hypothesis import strategies as st


def build(norm, X, k):
    if norm == "graph_sym":
        return build_knn_graph(X, k, sigma=1.0)
    if norm == "gcn":
        return gcn_operator(X, k, sigma=1.0)
    return hypergraph_operator(build_knn_hypergraph(X, k), norm)


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
@given(cloud=point_clouds())
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
