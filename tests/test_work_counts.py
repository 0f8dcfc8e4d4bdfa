"""Work budgets of the synthetic smoke grid, counted without any timing.

``configs/synthetic.cfg`` has no PCA, so its features, and with them every
count below, do not depend on the BLAS build.  The number of block solves and
every count of the networks' operator products are fixed by the grid's shape
and are pinned exactly.  A CG solve splits a block into column groups, each
making its own operator applications from a thread of its own; the grid runs
with every block split into up to four groups, however small, and its CG work
is counted in terms that do not depend on the split: the iterations of each
block (the applications of a one-group solve) are pinned as an upper bound,
and the column applications (the sum of block widths over all applications)
exactly.  The nnz of every factor of each operator the grid builds, and the
width of every CG block in call order, are pinned exactly in
``work_pins.json``: dropping the centroid from its hyperedge, re-forming
H H^T or splitting a block changes them.  A change that lowers a
count updates its pin; raising one needs a stated reason.

Regenerate ``work_pins.json`` with ``PYTHONPATH=src python tests/test_work_counts.py``.
"""

import json
import threading
from pathlib import Path

import numpy as np
import pytest

import hgssl.bench
import hgssl.network
import hgssl.propagation
from hgssl.bench import _CLOSED_FORM, prepare_experiment, run_cell, run_experiment
from hgssl.config import load_config
from hgssl.hypergraph import PropagationOperator, hypergraph_operator
from hgssl.network import TrainConfig, predict, train
from helpers import random_hypergraph, split_columns

ROOT = Path(__file__).resolve().parent.parent
CONFIG = "configs/synthetic.cfg"
PINS = Path(__file__).resolve().parent / "work_pins.json"

# 1 block for the hgnn-proposed features, plus 1 per closed-form method: at
# n = 400 and 4 classes one block holds all 10 distinct label sets of a method
# (4 levels x 3 seeds - 2 repeated clean-label cells), solved as one chunk.
BLOCK_SOLVES = 3
MAX_APPLICATIONS = 64
# As when each set was solved on its own: every column does the same work.
COLUMN_APPLICATIONS = 1873
# gcn, hgnn and hgnn-proposed x 4 levels x 3 seeds, none of them reused.
NEURAL_CELLS = 36
# Noisy label vectors drawn: one per neural cell, and each closed-form
# method's 10 distinct sets once, by the chunk that solves them.
NOISE_DRAWS = NEURAL_CELLS + 2 * 10
# The network inputs, each formed once per experiment in set-up: Theta Z for
# hgnn-proposed and Theta X for gcn and hgnn.
INPUT_PRODUCTS = 3


def train_products(epochs):
    """Per epoch one forward and one backward product; the caller forms Theta X."""
    return 2 * epochs


PREDICT_PRODUCTS = 1  # Theta (hidden theta2)


class OperatorProducts:
    """Counts PropagationOperator.apply/apply_T calls made from outside them.

    ``apply_T`` of a symmetric operator calls ``apply``; that inner call is
    the same product and is not counted again.  CG column groups call
    ``apply`` from several threads at once, so the nesting depth is kept per
    thread and the count under a lock.
    """

    def __init__(self, patch):
        self.count = 0
        self._lock = threading.Lock()
        self._local = threading.local()
        for name in ("apply", "apply_T"):
            patch.setattr(PropagationOperator, name,
                          self._counted(getattr(PropagationOperator, name)))

    def _counted(self, method):
        def counted(op, V, **kwargs):
            depth = getattr(self._local, "depth", 0)
            if depth == 0:
                with self._lock:
                    self.count += 1
            self._local.depth = depth + 1
            try:
                return method(op, V, **kwargs)
            finally:
                self._local.depth = depth
        return counted

    def per_call(self, patch, module, name, calls):
        """Patch ``module.name`` to append the products of each call to ``calls``.

        A call that returns one model per seed (``train``) appends its
        products divided among them, once per model; they must divide evenly.
        """
        original = getattr(module, name)

        def wrapped(*args, **kwargs):
            before = self.count
            result = original(*args, **kwargs)
            models = len(kwargs.get("seeds", [None]))
            per_model, left = divmod(self.count - before, models)
            assert not left, f"{self.count - before} products over {models} models"
            calls.extend([per_model] * models)
            return result
        patch.setattr(module, name, wrapped)


def smoke_grid_counts(patch):
    """Run the smoke grid; return its config, report and counted work.

    The counts are each CG call's iterations, operator applications, column
    applications and block width, the operator products of each model
    ``train`` trains (a call trains a method's models side by side, so they
    are counted per call and divided among its models) and of each
    ``predict`` call and of the whole grid, the noisy label vectors
    drawn, and the nnz of each factor of each built operator.
    """
    cfg = load_config(ROOT / CONFIG)
    original = hgssl.propagation.conjugate_gradient
    cg = {"iterations": [], "applications": [], "column_applications": []}
    widths = []
    lock = threading.Lock()
    neural = {"train": [], "predict": []}
    factor_nnz = {}

    def counting(apply, B, **kwargs):
        widths.append(B.shape[1])
        counts = [0, 0]

        def counted(V):
            with lock:
                counts[0] += 1
                counts[1] += V.shape[1]
            return apply(V)
        result = original(counted, B, **kwargs)
        cg["iterations"].append(result.iterations)
        cg["applications"].append(counts[0])
        cg["column_applications"].append(counts[1])
        return result

    build = hgssl.bench.build_operators
    draws = []
    inject_noise = hgssl.bench.inject_noise

    def drawn(*args, **kwargs):
        draws.append(args)
        return inject_noise(*args, **kwargs)

    def built(*args, **kwargs):
        operators = build(*args, **kwargs)
        factor_nnz.update((name, [f.nnz for f in op.factors])
                          for name, op in sorted(operators.items()))
        return operators

    patch.setattr(hgssl.propagation, "conjugate_gradient", counting)
    patch.setattr(hgssl.bench, "build_operators", built)
    patch.setattr(hgssl.bench, "inject_noise", drawn)
    # Each method's models also train side by side in up to four threads.
    split_columns(patch, 4)
    products = OperatorProducts(patch)
    for name, calls in neural.items():
        products.per_call(patch, hgssl.bench, name, calls)
    report = run_experiment(cfg)
    pins = {"config": CONFIG, "factor_nnz": factor_nnz, "cg_block_widths": widths}
    return cfg, report, cg, neural, products.count, len(draws), pins


@pytest.fixture(scope="module")
def smoke_grid():
    with pytest.MonkeyPatch.context() as patch:
        return smoke_grid_counts(patch)


def test_block_solves_and_applications(smoke_grid):
    _, report, cg, _, _, _, _ = smoke_grid
    assert report.ok and len(report.rows) == 60
    assert len(cg["iterations"]) == BLOCK_SOLVES
    assert sum(cg["iterations"]) <= MAX_APPLICATIONS
    assert sum(cg["column_applications"]) == COLUMN_APPLICATIONS
    # The column groups each applied the operator: the counts ran under threads.
    assert sum(cg["applications"]) > sum(cg["iterations"])


def test_factor_nnz_and_block_widths(smoke_grid):
    *_, pins = smoke_grid
    assert pins == json.loads(PINS.read_text())


def test_neural_operator_products(smoke_grid):
    cfg, _, cg, neural, total, _, _ = smoke_grid
    per_train = train_products(cfg.train.epochs)
    assert neural["train"] == [per_train] * NEURAL_CELLS
    assert neural["predict"] == [PREDICT_PRODUCTS] * NEURAL_CELLS
    # Every other operator product of the grid is a CG application.
    assert total == (sum(cg["applications"]) + INPUT_PRODUCTS
                     + NEURAL_CELLS * (per_train + PREDICT_PRODUCTS))


def test_each_label_set_drawn_once(smoke_grid):
    *_, draws, _ = smoke_grid
    assert draws == NOISE_DRAWS


@pytest.mark.parametrize("norm", ["sym", "rw"])
def test_train_and_predict_products(norm):
    # rw is the one operator whose apply_T does not go through apply.
    rng = np.random.default_rng(3)
    op = hypergraph_operator(random_hypergraph(rng, 12, 3), norm)
    x_prop = op.apply(rng.standard_normal((12, 4)))
    Y = np.eye(3)[rng.integers(0, 3, 12)]
    with pytest.MonkeyPatch.context() as patch:
        products = OperatorProducts(patch)
        [params] = train(op, x_prop, [Y], np.arange(6), TrainConfig(hidden=5, epochs=7),
                         seeds=[0])
        after_train = products.count
        predict(op, x_prop, params)
    assert after_train == train_products(7)
    assert products.count - after_train == PREDICT_PRODUCTS


def test_reused_solves_match_separate_cells(smoke_grid):
    cfg, report, _, _, _, _, _ = smoke_grid
    prepared = prepare_experiment(cfg)
    rows = [row for row in report.rows if row.method in _CLOSED_FORM]
    assert len(rows) == 24
    for row in rows:
        alone = run_cell(prepared, row.method, row.noise_level, row.seed)
        assert row.accuracy == alone.accuracy, (row.method, row.noise_level, row.seed)


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        *_, pins = smoke_grid_counts(patch)
    PINS.write_text(json.dumps(pins, indent=1) + "\n")
