import io

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import knn_adjacency, knn_hypergraph, random_hypergraph
from hgssl.datasets import synthetic_blobs
from hgssl.errors import NumericalError
from hgssl.hypergraph import PropagationOperator, gcn_operator, hypergraph_operator
from hgssl.labels import accuracy, decode_predictions, encode_labels, inject_noise
from hgssl.network import (ForwardTrace, TrainConfig, TwoLayerParams, forward,
                           init_params, labeled_rows, loss_and_gradients, predict,
                           row_softmax, train)
from hgssl.propagation import PropagationConfig, propagate_features

IDENTITY_OP = PropagationOperator((sp.eye(6, format="csr"),), "sym")


def random_instance(seed, n=10, l1=5, l2=4, c=3, norm="sym"):
    rng = np.random.default_rng(seed)
    op = hypergraph_operator(random_hypergraph(rng, n, 3), norm)
    X = rng.standard_normal((n, l1))
    params = TwoLayerParams(0.4 * rng.standard_normal((l1, l2)),
                            0.4 * rng.standard_normal((l2, c)))
    Y = np.zeros((n, c))
    Y[np.arange(n), rng.integers(0, c, n)] = 1.0
    mask = np.sort(rng.choice(n, size=max(2, n // 2), replace=False))
    return op, X, params, Y, mask


def finite_difference_grads(op, X, params, Y, mask, weight_decay, h=1e-5):
    """Central-difference oracle for both parameter matrices."""
    grads = TwoLayerParams(np.zeros_like(params.theta1),
                           np.zeros_like(params.theta2))
    for name in ("theta1", "theta2"):
        matrix = getattr(params, name)
        grad = getattr(grads, name)
        for idx in np.ndindex(matrix.shape):
            original = matrix[idx]
            matrix[idx] = original + h
            up, _ = loss_and_gradients(forward(op, X, params), Y, mask, params,
                                       weight_decay)
            matrix[idx] = original - h
            down, _ = loss_and_gradients(forward(op, X, params), Y, mask, params,
                                         weight_decay)
            matrix[idx] = original
            grad[idx] = (up - down) / (2.0 * h)
    return grads


def assert_grads_close(analytic, numeric, rel=1e-5):
    for name in ("theta1", "theta2"):
        a = getattr(analytic, name)
        n = getattr(numeric, name)
        denom = np.maximum(1.0, np.abs(n))
        assert np.max(np.abs(a - n) / denom) < rel, name


class TestForward:
    def test_zero_theta1_gives_uniform(self):
        rng = np.random.default_rng(0)
        op = hypergraph_operator(random_hypergraph(rng, 12, 3), "sym")
        params = TwoLayerParams(np.zeros((4, 5)), rng.standard_normal((5, 3)))
        trace = forward(op, rng.standard_normal((12, 4)), params)
        assert np.max(np.abs(trace.probs - 1.0 / 3.0)) < 1e-15

    def test_identity_operator_reduces_to_softmax(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(0.0, 2.0, size=(6, 6))  # nonnegative: ReLU is identity
        params = TwoLayerParams(np.eye(6), np.eye(6))
        trace = forward(IDENTITY_OP, X, params)
        assert np.max(np.abs(trace.probs - row_softmax(X))) < 1e-12

    @pytest.mark.parametrize("norm", ["sym", "rw"])
    def test_matches_dense_oracle(self, norm):
        op, X, params, _, _ = random_instance(seed=7, n=8, norm=norm)
        dense = op.matrix.toarray()
        hidden = np.maximum(dense @ X @ params.theta1, 0.0)
        logits = dense @ hidden @ params.theta2
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        trace = forward(op, X, params)
        assert np.max(np.abs(trace.probs - want)) < 1e-12
        assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) < 1e-12

    def test_rw_operator_supported(self):
        op, X, params, _, _ = random_instance(seed=8, norm="rw")
        trace = forward(op, X, params)
        assert np.max(np.abs(trace.probs.sum(axis=1) - 1.0)) < 1e-12

    def test_shape_validation(self):
        op, X, params, _, _ = random_instance(seed=9)
        with pytest.raises(ValueError):
            forward(op, X[:, :2], params)

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_nonfinite_logits_raise(self):
        params = TwoLayerParams(np.full((6, 4), 1e308), np.full((4, 2), 1e308))
        with pytest.raises(NumericalError):
            forward(IDENTITY_OP, np.full((6, 6), 1e30), params)


class TestSoftmax:
    def test_extreme_logits_rows_sum_to_one(self):
        rng = np.random.default_rng(2)
        logits = rng.uniform(-1e3, 1e3, size=(40, 7))
        Z = row_softmax(logits)
        assert np.max(np.abs(Z.sum(axis=1) - 1.0)) < 1e-12
        assert Z.min() >= 0.0 and Z.max() <= 1.0

    def test_row_shift_invariance(self):
        rng = np.random.default_rng(3)
        logits = rng.standard_normal((10, 4))
        shifts = rng.uniform(-50.0, 50.0, size=(10, 1))
        assert np.max(np.abs(row_softmax(logits + shifts) - row_softmax(logits))) < 1e-12


class TestLossAndGradients:
    def test_zero_params_loss_is_log_c(self):
        for c in (2, 3, 10):
            rng = np.random.default_rng(c)
            op = hypergraph_operator(random_hypergraph(rng, 9, 2), "sym")
            params = TwoLayerParams(np.zeros((3, 4)), np.zeros((4, c)))
            Y = np.zeros((9, c))
            Y[np.arange(9), rng.integers(0, c, 9)] = 1.0
            trace = forward(op, rng.standard_normal((9, 3)), params)
            loss, _ = loss_and_gradients(trace, Y, np.arange(9), params, 0.0)
            assert abs(loss - np.log(c)) < 1e-12

    def test_perfect_prediction_loss_near_zero(self):
        classes = np.array([0, 1, 2, 0, 1, 2])
        X = np.zeros((6, 3))
        X[np.arange(6), classes] = 100.0  # rows strongly aligned with their class
        targets = np.zeros((6, 3))
        targets[np.arange(6), classes] = 1.0
        params = TwoLayerParams(np.eye(3), np.eye(3))
        op = PropagationOperator((sp.eye(6, format="csr"),), "sym")
        trace = forward(op, X, params)
        loss, _ = loss_and_gradients(trace, targets, np.arange(6), params, 0.0)
        assert loss < 1e-6

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_gradients_match_finite_differences_sym(self, seed):
        op, X, params, Y, mask = random_instance(seed, n=10, l1=5, l2=4, c=3)
        _, analytic = loss_and_gradients(forward(op, X, params), Y, mask,
                                         params, 0.01)
        numeric = finite_difference_grads(op, X, params, Y, mask, 0.01)
        assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_gradients_match_finite_differences_rw(self, seed):
        op, X, params, Y, mask = random_instance(seed, n=9, l1=4, l2=5, c=4,
                                                 norm="rw")
        _, analytic = loss_and_gradients(forward(op, X, params), Y, mask,
                                         params, 0.005)
        numeric = finite_difference_grads(op, X, params, Y, mask, 0.005)
        assert_grads_close(analytic, numeric)

    @pytest.mark.parametrize("seed", [31, 32, 33])
    def test_gradients_match_finite_differences_propagated(self, seed):
        op, _, params, Y, mask = random_instance(seed, n=12, l1=6, l2=4, c=3)
        rng = np.random.default_rng(seed + 1000)
        raw = rng.standard_normal((12, 6))
        feats = propagate_features(op, raw, PropagationConfig(0.9, 1e-12, 5000))
        _, analytic = loss_and_gradients(forward(op, feats, params),
                                         Y, mask, params, 0.01)
        numeric = finite_difference_grads(op, feats, params, Y, mask, 0.01)
        assert_grads_close(analytic, numeric)

    def test_empty_mask_rejected(self):
        op, X, params, Y, _ = random_instance(seed=41)
        with pytest.raises(ValueError):
            loss_and_gradients(forward(op, X, params), Y, np.array([], dtype=int),
                               params, 0.0)

    def test_logistic_regression_equivalence(self):
        # Identity operator, identity theta1 and nonnegative X: the network is
        # exactly multinomial logistic regression on X.
        rng = np.random.default_rng(42)
        X = rng.uniform(0.0, 1.5, size=(6, 6))
        theta2 = rng.standard_normal((6, 3))
        params = TwoLayerParams(np.eye(6), theta2)
        targets = np.zeros((6, 3))
        targets[np.arange(6), rng.integers(0, 3, 6)] = 1.0
        mask = np.arange(6)
        trace = forward(IDENTITY_OP, X, params)

        logits = X @ theta2
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        assert np.max(np.abs(trace.probs - probs)) < 1e-12

        _, grads = loss_and_gradients(trace, targets, mask, params, 0.0)
        want = X.T @ (probs - targets) / 6.0
        assert np.max(np.abs(grads.theta2 - want)) < 1e-12


class TestForwardPropagated:
    def test_requires_sym_operator(self):
        # The sym requirement lives in the feature-propagation step.
        op, X, _, _, _ = random_instance(seed=51, norm="rw")
        with pytest.raises(ValueError):
            propagate_features(op, X)

    def test_tiny_alpha_matches_plain_forward(self):
        op, X, params, _, _ = random_instance(seed=52)
        cfg = PropagationConfig(alpha=1e-12, tol=1e-13, max_iter=100)
        feats = propagate_features(op, X, cfg)
        a = forward(op, feats, params)
        b = forward(op, X, params)
        assert np.max(np.abs(a.probs - b.probs)) < 1e-6

    def test_matches_dense_end_to_end_oracle(self):
        op, X, params, _, _ = random_instance(seed=53, n=9)
        cfg = PropagationConfig(alpha=0.9, tol=1e-13, max_iter=5000)
        feats = propagate_features(op, X, cfg)
        dense = op.matrix.toarray()
        feats_oracle = 0.1 * np.linalg.solve(np.eye(9) - 0.9 * dense, X)
        hidden = np.maximum(dense @ feats_oracle @ params.theta1, 0.0)
        logits = dense @ hidden @ params.theta2
        want = np.exp(logits - logits.max(axis=1, keepdims=True))
        want /= want.sum(axis=1, keepdims=True)
        trace = forward(op, feats, params)
        assert np.max(np.abs(trace.probs - want)) < 1e-10


class TestTrain:
    def test_blobs_reach_95_percent(self):
        ds = synthetic_blobs(300, 3, 10, 0.1, seed=1)
        hg = knn_hypergraph(ds.features, 5)
        op = hypergraph_operator(hg, "sym")
        split = inject_noise(ds, 0.0, seed=0)
        Y = encode_labels(split, ds.train_indices, ds.num_classes)
        params = train(op, ds.features, Y, ds.train_indices,
                       TrainConfig(epochs=200), seed=0)
        pred = predict(op, ds.features, params)
        assert accuracy(pred, ds.labels, ds.test_indices) >= 0.95

    def test_same_seed_bit_identical(self):
        op, X, _, Y, mask = random_instance(seed=62)
        cfg = TrainConfig(hidden=6, epochs=20)
        a = train(op, X, Y, mask, cfg, seed=9)
        b = train(op, X, Y, mask, cfg, seed=9)
        assert np.array_equal(a.theta1, b.theta1)
        assert np.array_equal(a.theta2, b.theta2)

    def test_training_log_finite_losses(self):
        op, X, _, Y, mask = random_instance(seed=63)
        stream = io.StringIO()
        train(op, X, Y, mask, TrainConfig(hidden=5, epochs=15), seed=0,
              log_stream=stream)
        lines = stream.getvalue().strip().splitlines()
        assert lines[0] == "epoch,loss,train_accuracy"
        assert len(lines) == 16
        losses = [float(line.split(",")[1]) for line in lines[1:]]
        assert np.all(np.isfinite(losses))

    @pytest.mark.parametrize("norm", ["sym", "rw"])
    def test_matches_dense_reference_loop(self, norm):
        # Dense Theta, the network associated as (Theta ReLU(Theta X theta1)) theta2,
        # and Adam written out step by step at learning rate 0.01 and L2 weight
        # 5e-4 (Kipf & Welling's values, which train fixes).
        op, X, _, Y, mask = random_instance(seed=64, n=12, l1=5, c=3, norm=norm)
        cfg = TrainConfig(hidden=6, epochs=20)
        dense = op.matrix.toarray()
        init = init_params(X.shape[1], cfg.hidden, Y.shape[1], seed=4)
        thetas = [init.theta1, init.theta2]
        m1 = [np.zeros_like(t) for t in thetas]
        m2 = [np.zeros_like(t) for t in thetas]
        targets = Y[mask]
        x_prop = dense @ X
        for epoch in range(1, cfg.epochs + 1):
            theta1, theta2 = thetas
            hidden_pre = x_prop @ theta1
            hidden_prop = dense @ np.maximum(hidden_pre, 0.0)
            logits = hidden_prop @ theta2
            probs = np.exp(logits - logits.max(axis=1, keepdims=True))
            probs /= probs.sum(axis=1, keepdims=True)
            grad_logits = np.zeros_like(probs)
            grad_logits[mask] = (probs[mask] - targets) / mask.size
            grad_hidden = (dense.T @ grad_logits) @ theta2.T * (hidden_pre > 0.0)
            grads = (x_prop.T @ grad_hidden + 5e-4 * theta1,
                     hidden_prop.T @ grad_logits + 5e-4 * theta2)
            for i, g in enumerate(grads):
                m1[i] = 0.9 * m1[i] + (1 - 0.9) * g
                m2[i] = 0.999 * m2[i] + (1 - 0.999) * g * g
                m_hat = m1[i] / (1 - 0.9 ** epoch)
                v_hat = m2[i] / (1 - 0.999 ** epoch)
                thetas[i] = thetas[i] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)
        theta1, theta2 = thetas
        want_pred = np.argmax(dense @ np.maximum(x_prop @ theta1, 0.0) @ theta2, axis=1)

        trained = train(op, X, Y, mask, cfg, seed=4)
        assert np.max(np.abs(trained.theta1 - theta1)) < 1e-12
        assert np.max(np.abs(trained.theta2 - theta2)) < 1e-12
        assert np.array_equal(predict(op, X, trained), want_pred)

    @pytest.mark.parametrize("norm", ["sym", "rw", "gcn"])
    def test_fused_epoch_matches_unfused_loop_exactly(self, norm):
        # The unfused epoch on the same sparse operator: a full-row softmax, a
        # separate log-softmax on the labeled rows, an out-of-place ReLU mask
        # and out-of-place Adam.  The fused epoch takes each row's shift, exp,
        # sum and log in the same order, so every value is bit-identical.
        rng = np.random.default_rng(65)
        n, c = 30, 4
        X = rng.standard_normal((n, 5))
        if norm == "gcn":
            op = gcn_operator(knn_adjacency(X, 4))
        else:
            op = hypergraph_operator(knn_hypergraph(X, 4), norm)
        Y = np.zeros((n, c))
        Y[np.arange(n), rng.integers(0, c, n)] = 1.0
        mask = rng.choice(n, size=17, replace=False)  # unsorted on purpose
        cfg = TrainConfig(hidden=8, epochs=25)
        wd, b1, b2 = 5e-4, 0.9, 0.999

        init = init_params(X.shape[1], cfg.hidden, c, seed=5)
        thetas = [init.theta1.copy(), init.theta2.copy()]
        m1 = [np.zeros_like(t) for t in thetas]
        m2 = [np.zeros_like(t) for t in thetas]
        targets = Y[mask]
        x_prop = op.apply(X)
        for epoch in range(1, cfg.epochs + 1):
            theta1, theta2 = thetas
            hidden = np.maximum(x_prop @ theta1, 0.0)
            logits = op.apply(hidden @ theta2)
            probs = row_softmax(logits)
            shifted = logits[mask] - logits[mask].max(axis=1, keepdims=True)
            log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            loss = -float((targets * log_probs).sum()) / mask.size + 0.5 * wd * (
                float((theta1 ** 2).sum()) + float((theta2 ** 2).sum()))
            grad_logits = np.zeros_like(probs)
            grad_logits[mask] = (probs[mask] - targets) / mask.size
            grad_projected = op.apply_T(grad_logits)
            grad_theta2 = hidden.T @ grad_projected + wd * theta2
            grad_hidden = grad_projected @ theta2.T * (hidden > 0.0)
            grad_theta1 = x_prop.T @ grad_hidden + wd * theta1
            current = TwoLayerParams(theta1, theta2)
            trace = forward(op, X, current)
            fused_loss, fused = loss_and_gradients(trace, Y, mask, current, wd)
            assert "probs" not in vars(trace)  # the full softmax is never taken
            assert fused_loss == loss
            assert np.array_equal(fused.theta1, grad_theta1)
            assert np.array_equal(fused.theta2, grad_theta2)
            assert np.array_equal(trace.probs, probs)
            for i, g in enumerate((grad_theta1, grad_theta2)):
                m1[i] = b1 * m1[i] + (1 - b1) * g
                m2[i] = b2 * m2[i] + (1 - b2) * g * g
                m_hat = m1[i] / (1 - b1 ** epoch)
                v_hat = m2[i] / (1 - b2 ** epoch)
                thetas[i] = thetas[i] - 0.01 * m_hat / (np.sqrt(v_hat) + 1e-8)

        trained = train(op, X, Y, mask, cfg, seed=5)
        assert np.array_equal(trained.theta1, thetas[0])
        assert np.array_equal(trained.theta2, thetas[1])
        trace = forward(op, X, trained)
        assert np.array_equal(trace.probs, row_softmax(trace.logits))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(hidden=0)


class TestLabeledRows:
    """Labeled rows must be distinct in-range integer indices, or training stops."""

    N = 10

    @pytest.mark.parametrize("rows, message", [
        (np.ones(N, dtype=bool), "integer indices, got dtype bool"),
        (np.array([0.0, 3.0]), "integer indices, got dtype float64"),
        (np.array([-1, 0]), r"must lie in \[0, 10\), got indices -1 to 0"),
        (np.array([2, 5, 2]), "repeat index 2"),
        (np.array([3, N]), r"must lie in \[0, 10\), got indices 3 to 10"),
        (np.array([], dtype=np.int64), "must be non-empty"),
        (np.array([[0, 1]]), "1-D index array, got ndim=2"),
    ], ids=["bool-mask", "float", "negative", "repeated", "past-the-end", "empty",
            "two-dimensional"])
    def test_rejected_by_train_and_loss(self, rows, message):
        op, X, params, Y, _ = random_instance(seed=81, n=self.N)
        with pytest.raises(ValueError, match=message):
            train(op, X, Y, rows, TrainConfig(hidden=4, epochs=1), seed=0)
        with pytest.raises(ValueError, match=message):
            loss_and_gradients(forward(op, X, params), Y, rows, params, 0.0)

    @pytest.mark.parametrize("label_rows", [20, 8])
    def test_label_matrix_of_another_height_rejected(self, label_rows):
        # Row indices would read the first rows of a taller matrix unchecked.
        op, X, params, _, mask = random_instance(seed=82, n=12)
        Y = np.zeros((label_rows, 3))
        Y[:, 0] = 1.0
        with pytest.raises(ValueError, match=f"label matrix has {label_rows} rows, but X has 12"):
            train(op, X, Y, mask, TrainConfig(hidden=4, epochs=1), seed=0)
        with pytest.raises(ValueError,
                           match=f"label matrix has {label_rows} rows, but the logits have 12"):
            loss_and_gradients(forward(op, X, params), Y, mask, params, 0.0)

    def test_accepted_rows_come_back_as_int64(self):
        rows = labeled_rows(np.array([7, 0, 3], dtype=np.uint8), self.N)
        assert rows.dtype == np.int64
        assert np.array_equal(rows, [7, 0, 3])


class TestPredict:
    def test_uniform_probs_tie_to_class_zero(self):
        rng = np.random.default_rng(71)
        op = hypergraph_operator(random_hypergraph(rng, 10, 2), "sym")
        params = TwoLayerParams(np.zeros((3, 4)), np.zeros((4, 3)))
        pred = predict(op, rng.standard_normal((10, 3)), params)
        assert np.array_equal(pred, np.zeros(10, dtype=np.int64))

    def test_matches_decode_of_forward(self):
        op, X, params, _, _ = random_instance(seed=72)
        trace = forward(op, X, params)
        assert np.array_equal(predict(op, X, params),
                              decode_predictions(trace.probs))
