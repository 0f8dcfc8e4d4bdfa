"""Two-layer graph/hypergraph networks: forward, backprop, Adam training.

The forward pass is Z = softmax(Theta ReLU(Theta X theta1) theta2), full batch,
for any of the four propagation operators.  It is evaluated as
Theta (ReLU(Theta X theta1) theta2): the second-layer projection runs before
the operator, so every sparse product inside the training loop is C columns
wide (C classes) rather than hidden-width, and the backward pass reuses one
Theta^T dlogits for both gradients.  The feature-propagated variant runs the
identical network on features smoothed by ``propagate_features``, which
accepts only the sym operator.
Loss is masked cross-entropy over the labeled rows plus an L2 penalty on both
parameter matrices; gradients are analytic.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, _require
from .hypergraph import PropagationOperator
from .labels import LabelMatrix
from .linalg import as_dense


@dataclass
class TwoLayerParams:
    theta1: np.ndarray  # L1 x L2
    theta2: np.ndarray  # L2 x C


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 64
    learning_rate: float = 0.01
    epochs: int = 200
    weight_decay: float = 5e-4
    seed: int = 0  # the benchmark grid passes each cell's seed instead
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        _require(self.hidden >= 1, "hidden",
                 f"hidden must be a positive integer, got {self.hidden}")
        _require(self.learning_rate >= 0, "learning_rate",
                 f"learning_rate must be >= 0, got {self.learning_rate}")
        _require(self.epochs >= 1, "epochs",
                 f"epochs must be a positive integer, got {self.epochs}")


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation."""

    op: PropagationOperator
    x_prop: np.ndarray   # Theta X
    hidden: np.ndarray   # ReLU(Theta X theta1)
    logits: np.ndarray   # Theta (hidden theta2)
    probs: np.ndarray


def row_softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax (row-max subtracted before exp)."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def _row_log_softmax(logits):
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def forward(op: PropagationOperator, X: np.ndarray, params: TwoLayerParams,
            x_prop: np.ndarray = None) -> ForwardTrace:
    """Full-batch forward pass of the two-layer network.

    ``x_prop`` accepts a precomputed ``op.apply(X)``; the product does not
    depend on the parameters, so the training loop hoists it out.
    """
    X = as_dense(X)
    if X.shape[1] != params.theta1.shape[0]:
        raise ValueError(
            f"input has {X.shape[1]} features, theta1 expects {params.theta1.shape[0]}")
    if params.theta1.shape[1] != params.theta2.shape[0]:
        raise ValueError("theta1 and theta2 have inconsistent hidden sizes")
    if x_prop is None:
        x_prop = op.apply(X)
    hidden = np.maximum(x_prop @ params.theta1, 0.0)
    logits = op.apply(hidden @ params.theta2)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite logits in forward pass")
    return ForwardTrace(op=op, x_prop=x_prop, hidden=hidden, logits=logits,
                        probs=row_softmax(logits))


def loss_and_gradients(trace: ForwardTrace, Y: LabelMatrix, labeled_mask,
                       params: TwoLayerParams, weight_decay: float):
    """Masked cross-entropy + L2 loss and its analytic parameter gradients.

    loss = -(1/|mask|) sum_{i in mask} log Z[i, y_i]
           + (weight_decay / 2) (||theta1||_F^2 + ||theta2||_F^2)

    The ReLU subgradient at exactly 0 is taken as 0.
    """
    if Y.scheme != "onehot":
        raise ValueError(f"training expects onehot labels, got {Y.scheme!r}")
    labeled = np.asarray(labeled_mask, dtype=np.int64)
    if labeled.size == 0:
        raise ValueError("labeled_mask must be non-empty")
    m = labeled.size
    targets = Y.values[labeled]

    log_probs = _row_log_softmax(trace.logits[labeled])
    data_loss = -float((targets * log_probs).sum()) / m
    reg = 0.5 * weight_decay * (
        float((params.theta1 ** 2).sum()) + float((params.theta2 ** 2).sum()))
    loss = data_loss + reg

    grad_logits = np.zeros_like(trace.probs)
    grad_logits[labeled] = (trace.probs[labeled] - targets) / m

    # logits = Theta hidden theta2, so both gradients go through Theta^T dlogits.
    grad_projected = trace.op.apply_T(grad_logits)
    grad_theta2 = trace.hidden.T @ grad_projected + weight_decay * params.theta2
    grad_hidden = grad_projected @ params.theta2.T
    # ReLU(h) > 0 exactly where h > 0, so the mask needs only the activations.
    grad_hidden_pre = grad_hidden * (trace.hidden > 0.0)
    grad_theta1 = trace.x_prop.T @ grad_hidden_pre + weight_decay * params.theta1
    return loss, TwoLayerParams(theta1=grad_theta1, theta2=grad_theta2)


def glorot_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def init_params(input_dim: int, hidden: int, num_classes: int,
                seed: int) -> TwoLayerParams:
    """Seeded Glorot-uniform initialization; theta1 is drawn before theta2."""
    rng = np.random.default_rng(seed)
    return TwoLayerParams(
        theta1=glorot_uniform(rng, input_dim, hidden),
        theta2=glorot_uniform(rng, hidden, num_classes),
    )


def train(op: PropagationOperator, X: np.ndarray, Y: LabelMatrix, labeled_mask,
          cfg: TrainConfig = TrainConfig(), log_stream=None) -> TwoLayerParams:
    """Full-batch Adam training for ``cfg.epochs`` steps; no early stopping.

    Deterministic under ``cfg.seed``.  When ``log_stream`` is given, one CSV
    line per epoch (epoch, loss, train_accuracy) is written to it.
    """
    X = as_dense(X)
    labeled = np.asarray(labeled_mask, dtype=np.int64)
    params = init_params(X.shape[1], cfg.hidden, Y.values.shape[1], cfg.seed)

    m1 = [np.zeros_like(params.theta1), np.zeros_like(params.theta2)]
    m2 = [np.zeros_like(params.theta1), np.zeros_like(params.theta2)]
    b1, b2, eps, lr = cfg.adam_beta1, cfg.adam_beta2, cfg.adam_eps, cfg.learning_rate

    if log_stream is not None:
        log_stream.write("epoch,loss,train_accuracy\n")
    target_ids = np.argmax(Y.values[labeled], axis=1)
    x_prop = op.apply(X)

    for epoch in range(1, cfg.epochs + 1):
        trace = forward(op, X, params, x_prop=x_prop)
        loss, grads = loss_and_gradients(trace, Y, labeled, params, cfg.weight_decay)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        if log_stream is not None:
            train_acc = float(np.mean(
                np.argmax(trace.probs[labeled], axis=1) == target_ids))
            log_stream.write(f"{epoch},{loss:.10g},{train_acc:.6f}\n")

        thetas = [params.theta1, params.theta2]
        for i, g in enumerate((grads.theta1, grads.theta2)):
            m1[i] = b1 * m1[i] + (1 - b1) * g
            m2[i] = b2 * m2[i] + (1 - b2) * g * g
            m_hat = m1[i] / (1 - b1 ** epoch)
            v_hat = m2[i] / (1 - b2 ** epoch)
            thetas[i] = thetas[i] - lr * m_hat / (np.sqrt(v_hat) + eps)
        params = TwoLayerParams(*thetas)
    return params


def predict(op: PropagationOperator, X: np.ndarray,
            params: TwoLayerParams) -> np.ndarray:
    """Class ids from the forward pass: row argmax, ties to the lowest index."""
    trace = forward(op, X, params)
    return np.argmax(trace.probs, axis=1).astype(np.int64)
