import tracemalloc

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from helpers import knn_adjacency, knn_hypergraph, random_hypergraph, split_columns
from hgssl import linalg, propagation
from hgssl.datasets import synthetic_blobs
from hgssl.errors import ShapeError, SolverError
from hgssl.hypergraph import build_knn_graph, hypergraph_operator
from hgssl.labels import accuracy, decode_predictions, encode_labels, inject_noise
from hgssl.linalg import column_blocks, conjugate_gradient
from hgssl.propagation import (PropagationConfig, propagate_features,
                               propagate_labels)

TIGHT = PropagationConfig(alpha=0.99, tol=1e-12, max_iter=5000)


def dense_solve(op, alpha, B):
    """Direct-inverse oracle for F = (1 - alpha)(I - alpha Theta)^{-1} B."""
    n = op.matrix.shape[0]
    return (1.0 - alpha) * np.linalg.solve(np.eye(n) - alpha * op.matrix.toarray(), B)


class TestPropagateLabels:
    def test_zero_labels_give_zero(self):
        rng = np.random.default_rng(1)
        op = hypergraph_operator(random_hypergraph(rng, 20), "sym")
        Y = np.zeros((20, 3))
        assert np.array_equal(propagate_labels(op, Y, TIGHT), np.zeros((20, 3)))

    def test_tiny_alpha_reproduces_labels(self):
        rng = np.random.default_rng(2)
        op = hypergraph_operator(random_hypergraph(rng, 25), "sym")
        values = rng.choice([-1.0, 1.0], size=(25, 4))
        cfg = PropagationConfig(alpha=1e-12, tol=1e-13, max_iter=100)
        F = propagate_labels(op, values, cfg)
        assert np.max(np.abs(F - values)) < 1e-9

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(3)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        values = rng.choice([-1.0, 1.0], size=(40, 3))
        values[25:] = 0.0
        F = propagate_labels(op, values, TIGHT)
        assert np.max(np.abs(F - dense_solve(op, 0.99, values))) < 1e-8

    def test_graph_operator_accepted(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 3))
        op = build_knn_graph(knn_adjacency(X, 4))
        values = np.zeros((30, 2))
        values[:5, 0] = 1.0
        values[:5, 1] = -1.0
        F = propagate_labels(op, values, TIGHT)
        assert np.max(np.abs(F - dense_solve(op, 0.99, values))) < 1e-8

    def test_rw_operator_rejected(self):
        rng = np.random.default_rng(5)
        op = hypergraph_operator(random_hypergraph(rng, 15), "rw")
        Y = np.zeros((15, 2))
        with pytest.raises(ValueError):
            propagate_labels(op, Y, TIGHT)

    def test_solver_error_carries_residual(self):
        rng = np.random.default_rng(7)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        values = rng.choice([-1.0, 1.0], size=(40, 2))
        cfg = PropagationConfig(alpha=0.99, tol=1e-14, max_iter=1)
        with pytest.raises(SolverError) as info:
            propagate_labels(op, values, cfg)
        assert info.value.residual > 0

    def test_solver_error_names_failing_columns(self):
        # Columns 0 and 2 are the eigenvalue-1 eigenvector, which one iteration
        # solves; column 1 cannot reach tol in one iteration.
        rng = np.random.default_rng(14)
        hg = random_hypergraph(rng, 40)
        op = hypergraph_operator(hg, "sym")
        top = np.sqrt(hg.vertex_degrees)
        B = np.column_stack([top, rng.standard_normal(40), -top])
        cfg = PropagationConfig(alpha=0.99, tol=1e-10, max_iter=1)
        with pytest.raises(SolverError, match=r"1 of 3 columns .*; column 1$") as info:
            propagate_features(op, B, cfg)
        assert info.value.columns == (1,)

    def test_solver_error_lists_first_columns(self):
        rng = np.random.default_rng(16)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        Y = rng.choice([-1.0, 1.0], size=(40, 8))
        cfg = PropagationConfig(alpha=0.99, tol=1e-14, max_iter=1)
        pattern = r"8 of 8 columns .*; columns 0, 1, 2, 3, 4, \.\.\.$"
        with pytest.raises(SolverError, match=pattern) as info:
            propagate_labels(op, Y, cfg)
        assert info.value.columns == tuple(range(8))

    def test_linearity(self):
        rng = np.random.default_rng(8)
        op = hypergraph_operator(random_hypergraph(rng, 30), "sym")
        A = rng.standard_normal((30, 2))
        B = rng.standard_normal((30, 2))
        fa = propagate_labels(op, A, TIGHT)
        fb = propagate_labels(op, B, TIGHT)
        fab = propagate_labels(op, A + B, TIGHT)
        assert np.max(np.abs(fab - (fa + fb))) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("alpha", [0.5, 0.9, 0.99])
    def test_onehot_seeds_predict_as_pm1_seeds(self, alpha, seed):
        # The +/-1 seed 2 Y - 1_L (1_L: the labeled rows' indicator in every
        # column) adds the same (I - alpha Theta)^{-1} 1_L term to each score
        # of a row, so its argmax is the one-hot seed's.  At alpha = 0.99
        # some of these connected instances predict one class for every row.
        rng = np.random.default_rng(seed)
        n, classes = 80, 4
        X = rng.standard_normal((n, 3))
        op = hypergraph_operator(knn_hypergraph(X, 4), "sym")
        assert connected_components(op.matrix, directed=False)[0] == 1
        clean = (X[:, 0] > 0) + 2 * (X[:, 1] > 0)
        labeled = np.sort(rng.choice(n, size=n // 2, replace=False))
        flipped = np.sort(rng.choice(labeled, size=len(labeled) * 3 // 10, replace=False))
        noisy = clean.copy()
        noisy[flipped] = (clean[flipped] + rng.integers(1, classes, len(flipped))) % classes
        Y = encode_labels(noisy, labeled, classes)
        pm1 = 2.0 * Y
        pm1[labeled] -= 1.0
        want = np.argmax(dense_solve(op, alpha, pm1), axis=1)
        got = decode_predictions(propagate_labels(op, Y, PropagationConfig(alpha=alpha)))
        assert np.array_equal(got, want)


class TestPropagateFeatures:
    def test_zero_features(self):
        rng = np.random.default_rng(9)
        op = hypergraph_operator(random_hypergraph(rng, 20), "sym")
        assert np.array_equal(propagate_features(op, np.zeros((20, 4)), TIGHT),
                              np.zeros((20, 4)))

    def test_top_eigenvector_is_fixed_point(self):
        # Dv^{1/2} 1 is the eigenvalue-1 eigenvector of the sym operator, so
        # (1 - alpha) / (1 - alpha * 1) = 1 leaves it unchanged.
        rng = np.random.default_rng(10)
        hg = random_hypergraph(rng, 30)
        op = hypergraph_operator(hg, "sym")
        column = 2.5 * np.sqrt(hg.vertex_degrees).reshape(-1, 1)
        out = propagate_features(op, column, TIGHT)
        assert np.max(np.abs(out - column)) < 1e-8

    def test_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(11)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        X = rng.standard_normal((40, 3))
        F = propagate_features(op, X, TIGHT)
        assert np.max(np.abs(F - dense_solve(op, 0.99, X))) < 1e-8

    def test_graph_operator_rejected(self):
        rng = np.random.default_rng(12)
        op = build_knn_graph(knn_adjacency(rng.standard_normal((20, 3)), 3))
        with pytest.raises(ValueError):
            propagate_features(op, np.zeros((20, 2)), TIGHT)

    def test_smoothing_increases_with_alpha(self):
        # Rayleigh quotient of each output column w.r.t. I - Theta is
        # nonincreasing in alpha: larger alpha smooths harder.
        rng = np.random.default_rng(13)
        hg = random_hypergraph(rng, 50)
        op = hypergraph_operator(hg, "sym")
        laplacian = np.eye(50) - op.matrix.toarray()
        X = rng.standard_normal((50, 3))
        previous = None
        for alpha in (0.3, 0.6, 0.9, 0.99):
            cfg = PropagationConfig(alpha=alpha, tol=1e-12, max_iter=5000)
            F = propagate_features(op, X, cfg)
            quotients = np.array([
                (F[:, j] @ (laplacian @ F[:, j])) / (F[:, j] @ F[:, j])
                for j in range(3)
            ])
            if previous is not None:
                assert np.all(quotients <= previous + 1e-9)
            previous = quotients


def test_column_blocks_match_one_block(monkeypatch):
    rng = np.random.default_rng(15)
    op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
    X = rng.standard_normal((40, 7))
    results = []

    def recording(*args, **kwargs):
        results.append(conjugate_gradient(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(propagation, "conjugate_gradient", recording)
    whole = propagate_features(op, X, TIGHT)
    assert len(results) == 1
    # At most 3 columns a block: 7 columns are 2 + 2 + 3, not 3 + 3 + 1.
    monkeypatch.setattr(linalg, "_BLOCK_BUDGET", 3 * 40)
    split = propagate_features(op, X, TIGHT)
    assert [r.x.shape[1] for r in results[1:]] == [2, 2, 3]
    assert split.tobytes() == whole.tobytes()
    assert np.array_equal(np.concatenate([r.column_iterations for r in results[1:]]),
                          results[0].column_iterations)


@pytest.mark.parametrize("block", [1, 2, 7])
def test_features_do_not_depend_on_the_core_count(monkeypatch, block):
    # Blocks of 7 split into 4+3, 3+2+2 and 2+2+2+1 column groups.
    rng = np.random.default_rng(19)
    op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
    X = rng.standard_normal((40, 7))
    monkeypatch.setattr(linalg, "_BLOCK_BUDGET", block * 40)
    outputs = []
    for cores in (1, 2, 3, 4):
        split_columns(monkeypatch, cores)
        outputs.append(propagate_features(op, X, TIGHT).tobytes())
    assert outputs[1:] == outputs[:1] * 3


@pytest.mark.parametrize("block", [None, 3], ids=["one-block", "blocks"])
def test_features_solved_in_place_match_a_fresh_result(monkeypatch, block):
    # out=X overwrites each block of X only after CG has copied it in.
    rng = np.random.default_rng(20)
    op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
    X = rng.standard_normal((40, 7))
    if block is not None:
        monkeypatch.setattr(linalg, "_BLOCK_BUDGET", block * 40)
    want = propagate_features(op, X, TIGHT)
    got = propagate_features(op, X, TIGHT, out=X)
    assert got is X
    assert X.tobytes() == want.tobytes()


@pytest.mark.parametrize("cores", [1, 2, 3, 4])
@pytest.mark.parametrize("structure", ["hypergraph", "graph"])
def test_stacked_label_sets_solved_in_place_match_each_set_alone(monkeypatch, structure,
                                                                 cores):
    # A grid's chunk: four label sets side by side in one column-major block,
    # solved in place.  Each set's columns must be the bits of its own solve,
    # however the block's 12 columns split into groups (6+6, 4+4+4, 3+3+3+3).
    ds = synthetic_blobs(120, 3, 4, 0.5, seed=3)
    op = (hypergraph_operator(knn_hypergraph(ds.features, 5), "sym")
          if structure == "hypergraph" else build_knn_graph(knn_adjacency(ds.features, 5)))
    sets = [encode_labels(inject_noise(ds, level, seed), ds.train_indices, 3)
            for level, seed in ((0.0, 0), (0.15, 0), (0.30, 1), (0.45, 2))]
    alone = [propagate_labels(op, Y) for Y in sets]
    split_columns(monkeypatch, cores)
    stacked = np.asfortranarray(np.hstack(sets))
    assert propagate_labels(op, stacked, out=stacked) is stacked
    for i, want in enumerate(alone):
        assert np.ascontiguousarray(stacked[:, 3 * i:3 * i + 3]).tobytes() == want.tobytes(), i


def test_wide_feature_solve_holds_five_blocks():
    # Raw 784-pixel features at n = 3000, solved in place as set-up does.  Each
    # group's three iterates plus its operator product's two arrays come to
    # five blocks over all groups, whatever their number.  A solution block
    # per call, a copy of it, the last product kept through the next, and
    # compacted copies of the iterates would each add up to one block more.
    X = synthetic_blobs(3000, 10, 784, 1.0, 89).features
    op = hypergraph_operator(knn_hypergraph(X, 5), "sym")
    width = max(b.stop - b.start for b in column_blocks(3000, 784))
    block_bytes = 3000 * width * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        propagate_features(op, X, PropagationConfig(), out=X)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * block_bytes


@pytest.mark.parametrize("out", [np.empty((40, 6)), np.empty((40, 7), dtype=np.float32),
                                 np.empty(280)], ids=["width", "dtype", "ndim"])
def test_features_out_of_another_shape_rejected(out):
    rng = np.random.default_rng(21)
    op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
    with pytest.raises(ShapeError, match="expected float64 \\(40, 7\\)"):
        propagate_features(op, rng.standard_normal((40, 7)), TIGHT, out=out)


def test_breakdown_names_column_of_the_whole_rhs(monkeypatch):
    rng = np.random.default_rng(18)
    op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
    X = rng.standard_normal((40, 7))
    X[3, 5] = np.nan
    monkeypatch.setattr(linalg, "_BLOCK_BUDGET", 3 * 40)
    with pytest.raises(SolverError, match=r"iteration 1 .*; column 5$") as info:
        propagate_features(op, X, TIGHT)
    assert info.value.columns == (5,)


class TestPropagationConfig:
    def test_alpha_bounds(self):
        with pytest.raises(ValueError):
            PropagationConfig(alpha=0.0)
        with pytest.raises(ValueError):
            PropagationConfig(alpha=1.0)

    def test_tol_and_iter_bounds(self):
        with pytest.raises(ValueError):
            PropagationConfig(tol=0.0)
        # Every nonzero column starts at relative residual 1: a tol of 1 would
        # accept x = 0 and predict class 0 everywhere.
        with pytest.raises(ValueError, match="tol must be positive and below 1, got 1.0"):
            PropagationConfig(tol=1.0)
        with pytest.raises(ValueError):
            PropagationConfig(max_iter=0)


def test_classic_hypergraph_ssl_on_blobs():
    # End-to-end: well-separated clusters propagate to >= 95% test accuracy.
    ds = synthetic_blobs(300, 3, 10, 0.1, seed=1)
    hg = knn_hypergraph(ds.features, 5)
    op = hypergraph_operator(hg, "sym")
    noisy = inject_noise(ds, 0.0, seed=0)
    Y = encode_labels(noisy, ds.train_indices, ds.num_classes)
    F = propagate_labels(op, Y, PropagationConfig())
    pred = decode_predictions(F)
    assert accuracy(pred, ds.labels, ds.test_indices) >= 0.95
