"""Operator construction on a fixed point set against a stored table.

The points have small integer coordinates, so every squared distance is an
exact integer: the kNN lists (ties included, which break toward the lower
row index) and the structures do not depend on BLAS or SIMD summation order.
Each factor's ``indptr`` and ``indices`` must match the table exactly and its
values to 1e-13 relative, both as built and as loaded back from the operator
cache, and every factor must be canonical CSR with float64 values.  The table
is keyed by ``CACHE_VERSION``: a change to how operators are built must bump
the version, because an operator cache written by the old code would
otherwise still load.

Regenerate the table with ``PYTHONPATH=src python tests/test_operator_table.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from helpers import is_canonical
from hgssl import bench
from hgssl import hypergraph as hg

TABLE = Path(__file__).resolve().parent / "operator_table.json"
CHANGED = "operator construction changed: bump CACHE_VERSION and regenerate this table"

POINTS = np.array([[0, 0], [1, 0], [0, 1], [1, 1], [3, 0], [4, 0],
                   [3, 1], [0, 3], [0, 4], [2, 2], [4, 4], [3, 3]], dtype=np.float64)
K = 3
RTOL = 1e-13
NAMES = ["sym", "rw", "graph_sym", "gcn"]


def build_operators():
    """The four operators over POINTS, by normalization.

    ``bench.build_operators`` builds the three the methods run on; the
    library's rw operator is built from the same hypergraph directly.
    """
    operators = bench.build_operators(bench.ExperimentConfig(dataset="synthetic", k=K), POINTS)
    rw = hg.hypergraph_operator(hg.build_knn_hypergraph(hg.knn_indices(POINTS, K)[0]), "rw")
    return {"sym": operators["hg_sym"], "rw": rw,
            "graph_sym": operators["graph"], "gcn": operators["gcn"]}


def table_of(operators):
    return {
        "cache_version": hg.CACHE_VERSION,
        "operators": {
            name: [{"shape": list(f.shape), "indptr": f.indptr.tolist(),
                    "indices": f.indices.tolist(), "data": f.data.tolist()}
                   for f in op.factors]
            for name, op in operators.items()},
    }


def check_against_table(name, op):
    table = json.loads(TABLE.read_text())
    assert table["cache_version"] == hg.CACHE_VERSION, \
        f"the table was made at CACHE_VERSION {table['cache_version']}, the code is at " \
        f"{hg.CACHE_VERSION}: regenerate this table"
    assert op.normalization == name
    stored = table["operators"][name]
    assert len(op.factors) == len(stored), CHANGED
    for i, (factor, want) in enumerate(zip(op.factors, stored)):
        where = f"{CHANGED} ({name} factor {i})"
        assert is_canonical(factor), f"{name} factor {i} is not canonical CSR"
        assert factor.data.dtype == np.float64, f"{name} factor {i}: {factor.data.dtype}"
        assert list(factor.shape) == want["shape"], where
        assert np.array_equal(factor.indptr, want["indptr"]), where
        assert np.array_equal(factor.indices, want["indices"]), where
        assert np.allclose(factor.data, want["data"], rtol=RTOL, atol=0.0), where


@pytest.mark.parametrize("name", NAMES)
def test_operator_matches_table(name):
    check_against_table(name, build_operators()[name])


@pytest.mark.parametrize("name", NAMES)
def test_loaded_operator_matches_table(name, tmp_path):
    path = tmp_path / f"{name}.hgop"
    hg.save_operator(path, build_operators()[name])
    check_against_table(name, hg.load_operator(path))


if __name__ == "__main__":
    table = table_of(build_operators())
    # One line per factor keeps the file short and its diffs readable.
    body = ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(f)}" for f in factors)
        + "\n ]" for name, factors in table["operators"].items())
    TABLE.write_text(f'{{"cache_version": {table["cache_version"]}, "operators": {{\n'
                     f'{body}\n}}}}\n')
