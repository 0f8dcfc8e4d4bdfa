"""Two-layer graph/hypergraph networks: forward, backprop, Adam training.

Adam runs at Kingma & Ba's defaults, the constant ``ADAM``: moment decays
beta1 = 0.9 and beta2 = 0.999, and epsilon = 1e-8.  Its learning rate
``LEARNING_RATE`` = 0.01 and the L2 weight ``WEIGHT_DECAY`` = 5e-4 are Kipf &
Welling's (ICLR 2017) GCN training settings.

The forward pass is Z = softmax(Theta ReLU(Theta X theta1) theta2), full batch,
for any of the four propagation operators.  ``forward``, ``train`` and
``predict`` take the network's propagated input ``x_prop = op.apply(X)``,
which does not depend on the parameters: the caller forms it once and
passes the same array to ``train`` and ``predict``, and none of the three
applies the operator to the input.  The rest is evaluated as
Theta (ReLU(x_prop theta1) theta2): the second-layer projection runs before
the operator, so every sparse product inside them is C columns wide (C
classes) rather than hidden-width, and the backward pass reuses one
Theta^T dlogits for both gradients.  The feature-propagated variant runs the
identical network on features smoothed by ``propagate_features``, which
accepts only the sym operator.

The two products with the n-row input, x_prop theta1 and x_prop^T
dhidden, take x_prop as the right-hand GEMM operand when it is at least
``_WIDE_INPUT`` (8) times as wide as the hidden layer, as unreduced 784-pixel
images are: (theta1^T x_prop^T)^T and (dhidden^T x_prop)^T.  That choice
reads only the shapes, and the hidden activations stay C-contiguous either
way.  Narrower inputs are the left operand, where that is faster.

Loss is masked cross-entropy over the labeled rows plus an L2 penalty on both
parameter matrices; gradients are analytic.  While training, the softmax is
taken on the labeled rows only, and one row-max shift gives both their
probabilities and log-probabilities.  ``predict`` and the training log
decide classes by ``decode_predictions`` of the logits.  The ReLU, its
backward mask and the Adam step all work in place, in the same operation
order as the out-of-place formulas, so the trained parameters are
bit-identical to theirs.

One ``train`` call trains any number of models on the same operator, input
and labeled rows, each with its own label matrix and seed.  One model trains
in the calling thread at the process's BLAS thread count.  Several train side
by side, one per CPU, each at one BLAS thread: one training's products are
too small to keep two BLAS threads busy, so two trainings at once finish
sooner than two in a row.  A pooled model's parameters are those of the same
model trained alone at one BLAS thread, bit for bit.
"""

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import NumericalError, _require_int
from .hypergraph import PropagationOperator
from .labels import decode_predictions, row_indices
from .linalg import as_dense

ADAM = 0.9, 0.999, 1e-8  # beta1, beta2, epsilon
LEARNING_RATE = 0.01
WEIGHT_DECAY = 5e-4
# An input at least _WIDE_INPUT times as wide as the hidden layer is the
# right-hand GEMM operand of both of its products, (theta1^T x_prop^T)^T and
# (grad_hidden^T x_prop)^T; OpenBLAS then packs the narrow operand instead of
# the n-row input.  Training ms per epoch, plain -> right-hand, at hidden 64
# (hgnn sym operator, 10 classes, 40 epochs, medians of 8 alternating runs on
# 2 cores at 2 BLAS threads):
#     m    n = 2000        n = 3000
#    50    3.17 -> 3.21    4.20 -> 4.49
#   100    3.38 -> 3.66    4.82 -> 5.33
#   300    4.75 -> 4.50    8.26 -> 8.11
#   512    6.66 -> 6.84    9.55 -> 9.33
#   784    9.29 -> 8.78   15.02 -> 12.65
# At hidden 32, m = 256 read 3.40 -> 3.36 and 5.11 -> 4.79.  Below 8 times
# the hidden width the right-hand form loses or is within noise.  At 784
# columns and n = 3000 it also adds 0.9 MB to peak RSS during training, not
# 8.1 MB.  On numpy 2.4.6's OpenBLAS 0.3.31 both forms give the same bits
# when m is a multiple of 8; at m = 100 or 300 the backward product differs
# at rounding level.
_WIDE_INPUT = 8


@dataclass
class TwoLayerParams:
    theta1: np.ndarray  # L1 x L2
    theta2: np.ndarray  # L2 x C


@dataclass(frozen=True)
class TrainConfig:
    hidden: int = 64
    epochs: int = 200

    def __post_init__(self):
        _require_int(self.hidden, "hidden", 1, "a positive integer")
        _require_int(self.epochs, "epochs", 1, "a positive integer")


@dataclass
class ForwardTrace:
    """Everything the backward pass needs from one forward evaluation."""

    op: PropagationOperator
    x_prop: np.ndarray   # Theta X, the caller's
    hidden: np.ndarray   # ReLU(x_prop theta1)
    logits: np.ndarray   # Theta (hidden theta2)


def _input_on_right(x_prop: np.ndarray, theta1: np.ndarray) -> bool:
    """Whether the products with ``x_prop`` take it as the right-hand GEMM operand."""
    return x_prop.shape[1] >= _WIDE_INPUT * theta1.shape[1]


def forward(op: PropagationOperator, x_prop: np.ndarray,
            params: TwoLayerParams) -> ForwardTrace:
    """Full-batch forward pass of the two-layer network on ``x_prop = op.apply(X)``."""
    x_prop = as_dense(x_prop)
    if x_prop.shape[1] != params.theta1.shape[0]:
        raise ValueError(
            f"input has {x_prop.shape[1]} features, theta1 expects {params.theta1.shape[0]}")
    if params.theta1.shape[1] != params.theta2.shape[0]:
        raise ValueError("theta1 and theta2 have inconsistent hidden sizes")
    if _input_on_right(x_prop, params.theta1):
        # The product comes out in F order; the ReLU writes it to C order.
        hidden = np.maximum((params.theta1.T @ x_prop.T).T, 0.0,
                            out=np.empty((x_prop.shape[0], params.theta1.shape[1])))
    else:
        hidden = x_prop @ params.theta1
        np.maximum(hidden, 0.0, out=hidden)
    logits = op.apply(hidden @ params.theta2)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite logits in forward pass")
    return ForwardTrace(op=op, x_prop=x_prop, hidden=hidden, logits=logits)


def loss_and_gradients(trace: ForwardTrace, Y: np.ndarray, labeled,
                       params: TwoLayerParams, weight_decay: float):
    """Masked cross-entropy + L2 loss and its analytic parameter gradients.

    loss = -(1/|labeled|) sum_{i in labeled} log Z[i, y_i]
           + (weight_decay / 2) (||theta1||_F^2 + ||theta2||_F^2)

    The ReLU subgradient at exactly 0 is taken as 0.  The softmax is taken
    on the labeled rows only.
    """
    n = trace.logits.shape[0]
    if Y.shape[0] != n:
        raise ValueError(f"label matrix has {Y.shape[0]} rows, but the logits have {n}")
    return _loss_and_gradients(trace, Y, row_indices(labeled, n), params,
                               weight_decay)


def _loss_and_gradients(trace: ForwardTrace, Y: np.ndarray, labeled: np.ndarray,
                        params: TwoLayerParams, weight_decay: float):
    """``loss_and_gradients`` for rows and labels its caller has already checked.

    ``labeled`` is what ``row_indices`` returned for the logits' row count,
    and Y has that many rows; ``train`` checks both once, not every epoch.
    """
    m = labeled.size
    targets = np.take(Y, labeled, axis=0)

    # One shift per row feeds both softmax and log-softmax.  The row max is
    # exact, so a column loop gives the max(axis=1) value at a quarter of the cost.
    shifted = np.take(trace.logits, labeled, axis=0)
    row_max = shifted[:, 0].copy()
    for j in range(1, shifted.shape[1]):
        np.maximum(row_max, shifted[:, j], out=row_max)
    shifted -= row_max[:, None]
    exp = np.exp(shifted)
    sums = exp.sum(axis=1, keepdims=True)
    shifted -= np.log(sums)  # now the log-probabilities
    data_loss = -float((targets * shifted).sum()) / m
    reg = 0.5 * weight_decay * (
        float((params.theta1 ** 2).sum()) + float((params.theta2 ** 2).sum()))
    loss = data_loss + reg

    exp /= sums  # now the probabilities, then the loss gradient
    exp -= targets
    exp /= m
    grad_logits = np.zeros_like(trace.logits)
    grad_logits[labeled] = exp

    # logits = Theta hidden theta2, so both gradients go through Theta^T dlogits.
    grad_projected = trace.op.apply_T(grad_logits)
    # The decay term is added in place: the same sum, without a third array.
    grad_theta2 = trace.hidden.T @ grad_projected
    grad_theta2 += weight_decay * params.theta2
    grad_hidden = grad_projected @ params.theta2.T
    # ReLU(h) > 0 exactly where h > 0, so the mask needs only the activations.
    np.multiply(grad_hidden, trace.hidden > 0.0, out=grad_hidden)
    grad_theta1 = weight_decay * params.theta1
    if _input_on_right(trace.x_prop, params.theta1):
        grad_theta1 += (grad_hidden.T @ trace.x_prop).T
    else:
        grad_theta1 += trace.x_prop.T @ grad_hidden
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


def train(op: PropagationOperator, x_prop: np.ndarray, Ys, labeled,
          cfg: TrainConfig = TrainConfig(), *, seeds, log_stream=None) -> list:
    """Full-batch Adam training of one model per label matrix, ``cfg.epochs`` steps each.

    Model i fits the one-hot label matrix ``Ys[i]`` on the rows ``labeled`` of
    ``x_prop = op.apply(X)``, from the initial parameters that ``seeds[i]``
    draws; one ``TwoLayerParams`` per model comes back, in order.  No early
    stopping.  When ``log_stream`` is given (a one-model call only), one CSV
    line per epoch (epoch, loss, train_accuracy) is written to it.

    The models run in ``T = min(linalg._cores(), len(seeds))`` threads,
    started by ``linalg._in_threads`` as CG's column groups are: thread t
    (the calling thread is thread 0) trains models t, t + T, ... in turn.
    While T >= 2, numpy's bundled OpenBLAS is held at one thread
    (``linalg._BLAS_THREADS``) and its count is restored before the call
    returns or raises, so a pooled model's parameters are those of the same
    model trained alone at one BLAS thread, bit for bit.  One model, one
    CPU, or a BLAS whose thread count cannot be set gives T = 1: the calling
    thread alone, at the current BLAS thread count.  Once a model raises, no
    model numbered above it starts or begins another epoch, and the
    lowest-numbered model's error is raised; an exception that is not an
    ``Exception`` (``KeyboardInterrupt``, say) stops every model.  Each
    running model holds its own n x hidden activations.
    """
    x_prop = as_dense(x_prop)
    n = x_prop.shape[0]
    Ys, seeds = list(Ys), list(seeds)
    if len(Ys) != len(seeds):
        raise ValueError(f"{len(Ys)} label matrices for {len(seeds)} seeds")
    for Y in Ys:
        if Y.shape[0] != n:
            raise ValueError(f"label matrix has {Y.shape[0]} rows, but the input has {n}")
    if log_stream is not None and len(seeds) != 1:
        raise ValueError(f"log_stream needs a one-model call, got {len(seeds)} models")
    labeled = row_indices(labeled, n)

    models = [None] * len(seeds)
    failures = [None] * len(seeds)  # each written only by its model's thread

    def stopped(i):
        """Whether model i is not to start or go on, for another model's failure."""
        return any(exc is not None and (j < i or not isinstance(exc, Exception))
                   for j, exc in enumerate(failures))

    def run(t):
        for i in range(t, len(seeds), threads):
            if stopped(i):
                return
            try:
                models[i] = _train_one(op, x_prop, Ys[i], labeled, cfg, seeds[i],
                                       log_stream, lambda: stopped(i))
            except BaseException as exc:  # raised again in the calling thread
                failures[i] = exc

    threads = 1 if linalg._BLAS_THREADS is None else max(1, min(linalg._cores(), len(seeds)))
    if threads > 1:
        set_blas_threads, get_blas_threads = linalg._BLAS_THREADS
        blas_threads = get_blas_threads()
        set_blas_threads(1)
    try:
        linalg._in_threads(run, threads)
    finally:
        if threads > 1:
            set_blas_threads(blas_threads)
    for exc in failures:
        if exc is not None:
            raise exc
    return models


def _train_one(op: PropagationOperator, x_prop: np.ndarray, Y: np.ndarray,
               labeled: np.ndarray, cfg: TrainConfig, seed: int,
               log_stream, stopped) -> TwoLayerParams:
    """One model of ``train``, on checked inputs, cut short once ``stopped()`` is true."""
    params = init_params(x_prop.shape[1], cfg.hidden, Y.shape[1], seed)
    thetas = (params.theta1, params.theta2)

    m1 = [np.zeros_like(theta) for theta in thetas]
    m2 = [np.zeros_like(theta) for theta in thetas]
    scratch = [np.empty_like(theta) for theta in thetas]
    b1, b2, eps = ADAM

    if log_stream is not None:
        log_stream.write("epoch,loss,train_accuracy\n")
        target_ids = np.argmax(Y[labeled], axis=1)

    for epoch in range(1, cfg.epochs + 1):
        if stopped():
            break
        trace = forward(op, x_prop, params)
        loss, grads = _loss_and_gradients(trace, Y, labeled, params, WEIGHT_DECAY)
        if not np.isfinite(loss):
            raise NumericalError(f"non-finite loss at epoch {epoch}")
        if log_stream is not None:
            train_acc = float(np.mean(
                decode_predictions(trace.logits[labeled]) == target_ids))
            log_stream.write(f"{epoch},{loss:.10g},{train_acc:.6f}\n")

        # In place, in the order of: m1 = b1 m1 + (1 - b1) g;
        # m2 = b2 m2 + (1 - b2) g g; theta -= lr m_hat / (sqrt(v_hat) + eps).
        # The fresh gradient g is the last step's scratch buffer.
        for theta, g, mean, var, buf in zip(thetas, (grads.theta1, grads.theta2),
                                            m1, m2, scratch):
            mean *= b1
            mean += np.multiply(g, 1 - b1, out=buf)
            np.multiply(g, 1 - b2, out=buf)
            buf *= g
            var *= b2
            var += buf
            np.divide(mean, 1 - b1 ** epoch, out=g)
            g *= LEARNING_RATE
            np.divide(var, 1 - b2 ** epoch, out=buf)
            np.sqrt(buf, out=buf)
            buf += eps
            g /= buf
            theta -= g
        # Freed before the next forward pass allocates their successors.
        del trace, grads
    return params


def predict(op: PropagationOperator, x_prop: np.ndarray,
            params: TwoLayerParams) -> np.ndarray:
    """Class ids from the forward pass on ``x_prop``: ``decode_predictions`` of the logits.

    Softmax keeps each row's order, so the logits' argmax is the
    probabilities' argmax too, except where softmax rounds two different
    logits to one probability; the larger logit then wins.
    """
    return decode_predictions(forward(op, x_prop, params).logits)
