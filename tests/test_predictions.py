"""Predicted labels and score fingerprints of the synthetic smoke grid.

Every cell of ``configs/synthetic.cfg`` that predicts labels (each distinct
closed-form solve and every neural cell) is keyed by method, noise level and
seed.  Two stored tables describe it:

- ``predicted_labels.json`` maps each cell to the sha256 of its int64
  predicted labels over all n rows.  The hashes must match exactly: a
  changed label is a changed result.
- ``cell_fingerprints.json`` maps each cell to numbers of its scores (the
  closed-form solve, or the trained network's logits): the minimum and
  median top-1 - top-2 margin over the test rows and the Frobenius norm of
  the scores, and for a neural cell the Frobenius norms of theta1 and
  theta2.  Each must match to ``RTOL`` relative, since moving between BLAS
  thread counts changes trained parameters by ~1e-11.  Scores may move at
  the solver's tolerance without a test failing here, but a change to the
  solve or to training shows up in them before it changes a label.

The grid solves each closed-form method's distinct noisy label sets in
chunks, side by side, in grid order.  Each set's scores are its own columns
of the chunk's scores, and its entry is keyed by the set's owner: the first
cell of the grid with those noisy labels.  Closed-form cells that reuse an
earlier solve own no set and have no entry.  A neural method's cells are
one chunk, whose models train in one ``train`` call; each model's entry is
keyed by its own cell.  Each solve or training is credited to the first
owner of the chunk that makes it.  Pooled models train at one BLAS thread,
so the fingerprints' 1e-9 covers them as it covers any other change of BLAS
thread count.  Regenerate both tables with
``PYTHONPATH=src python tests/test_predictions.py``.

The grid runs three times against the same tables: at the default block
budget, where one block holds each closed-form method's 10 distinct sets (40
columns at n = 400 and 4 classes); at ``linalg._BLOCK_BUDGET`` = 3,200
entries (2 sets x 4 classes x 400 rows), where they solve as 5 chunks of 2;
and at the default budget with ``linalg._cores`` patched to 2, so each
method's models train side by side in two threads on any machine.  Each
chunk's label solve is one ``conjugate_gradient`` call over all its columns.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import hgssl.bench
import hgssl.linalg
import hgssl.network
import hgssl.propagation
from hgssl.bench import _CLOSED_FORM
from hgssl.config import load_config
from hgssl.labels import inject_noise
from hgssl.network import forward

ROOT = Path(__file__).resolve().parent.parent
LABELS = Path(__file__).resolve().parent / "predicted_labels.json"
FINGERPRINTS = Path(__file__).resolve().parent / "cell_fingerprints.json"
CONFIG = "configs/synthetic.cfg"
RTOL = 1e-9
# Block budgets the grid runs at (None: the default) and, at each, the width
# of each closed-form chunk's one CG call, in grid order.
BUDGETS = {None: [40] * 2, 3200: [8] * 10}


def label_hash(pred) -> str:
    return hashlib.sha256(np.ascontiguousarray(pred, dtype="<i8").tobytes()).hexdigest()


def score_fingerprint(scores, test_rows) -> dict:
    top2 = np.sort(scores[test_rows], axis=1)[:, -2:]
    margins = top2[:, 1] - top2[:, 0]
    return {"margin_min": float(margins.min()), "margin_median": float(np.median(margins)),
            "scores_fro": float(np.linalg.norm(scores))}


def cell_name(method, level, seed) -> str:
    return f"{method},{level!r},{seed}"


def set_owners(prepared) -> dict:
    """Per closed-form method, the first cell of each distinct noisy label set, in grid order."""
    cfg, dataset = prepared.config, prepared.dataset
    owners = {}
    for method in cfg.methods:
        if method not in _CLOSED_FORM:
            continue
        seen = set()
        for level in cfg.noise_levels:
            for seed in cfg.seeds:
                labels = inject_noise(dataset, level, seed)[dataset.train_indices].tobytes()
                if labels not in seen:
                    seen.add(labels)
                    owners.setdefault(method, []).append(cell_name(method, level, seed))
    return owners


def smoke_grid_records(patch):
    """Run the smoke grid; return each cell's label hash and score fingerprint.

    Also returned: per closed-form label solve, the width of each
    ``conjugate_gradient`` call it made.
    """
    hashes, fingerprints = {}, {}
    label_cg = []  # per label solve, the widths of its CG calls
    current = []  # (first owner, method, dataset) of the chunk being scored
    owners = {}  # per closed-form method, the owners of its sets not yet solved
    untrained = {}  # per neural method, its cells whose models are not trained yet
    unscored = []  # the owners of solved sets and trained models not scored yet

    def in_chunk(score):
        def wrapped(prepared, method, cells):
            if not owners:
                owners.update(set_owners(prepared))
                cfg = prepared.config
                untrained.update((m, [cell_name(m, lv, s) for lv in cfg.noise_levels
                                      for s in cfg.seeds])
                                 for m in cfg.methods if m not in _CLOSED_FORM)
            current.append((cell_name(method, *cells[0]), method, prepared.dataset))
            try:
                return score(prepared, method, cells)
            finally:
                current.pop()
        return wrapped

    def record(table, cell, value):
        assert cell not in table, f"cell {cell} recorded twice"
        table[cell] = value

    def decoded(decode_predictions):
        def wrapped(*args, **kwargs):
            pred = decode_predictions(*args, **kwargs)
            record(hashes, unscored.pop(0), label_hash(pred))
            return pred
        return wrapped

    def predicted(predict):
        def wrapped(*args, **kwargs):
            pred = predict(*args, **kwargs)
            record(hashes, unscored.pop(0), label_hash(pred))
            return pred
        return wrapped

    def solving(conjugate_gradient):
        def wrapped(apply, B, *args, **kwargs):
            if current and current[-1][1] in _CLOSED_FORM:  # a chunk's label solve
                label_cg[-1].append(B.shape[1])
            return conjugate_gradient(apply, B, *args, **kwargs)
        return wrapped

    def solved(propagate_labels):
        def wrapped(*args, **kwargs):
            label_cg.append([])
            scores = propagate_labels(*args, **kwargs)
            cell, method, dataset = current[-1]
            C = dataset.num_classes
            chunk = owners[method][:scores.shape[1] // C]
            del owners[method][:len(chunk)]
            assert chunk[0] == cell, f"the chunk of {cell} solved the set of {chunk[0]} first"
            for i, owner in enumerate(chunk):
                # Row-major, as a solve of the set alone returns it: the norm
                # sums the entries in memory order.
                own = np.ascontiguousarray(scores[:, i * C:(i + 1) * C])
                record(fingerprints, owner, score_fingerprint(own, dataset.test_indices))
            unscored.extend(chunk)
            return scores
        return wrapped

    def trained(train):
        def wrapped(op, x_prop, *args, seeds, **kwargs):
            models = train(op, x_prop, *args, seeds=seeds, **kwargs)
            cell, method, dataset = current[-1]
            chunk = untrained[method][:len(models)]
            del untrained[method][:len(chunk)]
            assert chunk[0] == cell, f"the chunk of {cell} trained the model of {chunk[0]} first"
            assert [int(owner.rsplit(",", 1)[1]) for owner in chunk] == list(seeds)
            for owner, params in zip(chunk, models):
                logits = forward(op, x_prop, params).logits
                record(fingerprints, owner,
                       {**score_fingerprint(logits, dataset.test_indices),
                        "theta1_fro": float(np.linalg.norm(params.theta1)),
                        "theta2_fro": float(np.linalg.norm(params.theta2))})
            unscored.extend(chunk)
            return models
        return wrapped

    patch.setattr(hgssl.bench, "_solve_sets", in_chunk(hgssl.bench._solve_sets))
    patch.setattr(hgssl.bench, "_train_cells", in_chunk(hgssl.bench._train_cells))
    patch.setattr(hgssl.bench, "decode_predictions",
                  decoded(hgssl.bench.decode_predictions))
    patch.setattr(hgssl.bench, "predict", predicted(hgssl.bench.predict))
    patch.setattr(hgssl.bench, "propagate_labels", solved(hgssl.bench.propagate_labels))
    patch.setattr(hgssl.propagation, "conjugate_gradient",
                  solving(hgssl.propagation.conjugate_gradient))
    patch.setattr(hgssl.bench, "train", trained(hgssl.bench.train))
    report = hgssl.bench.run_experiment(load_config(ROOT / CONFIG))
    assert report.ok, report.failures
    assert not unscored and not any(owners.values()) and not any(untrained.values()), \
        "a solved set or a trained model was not scored"
    return hashes, fingerprints, label_cg


@pytest.fixture(scope="module", params=[(None, False), (3200, False), (None, True)],
                ids=["default-blocks", "two-set-chunks", "pooled-training"])
def smoke_grid(request):
    """The grid's records at one block budget, with the label CG widths it must give.

    The pooled run trains each method's models two at a time at one BLAS
    thread each, as a machine of two or more CPUs does; the other runs train
    them as this machine does.
    """
    budget, pooled = request.param
    with pytest.MonkeyPatch.context() as patch:
        if budget is not None:
            patch.setattr(hgssl.linalg, "_BLOCK_BUDGET", budget)
        if pooled:
            patch.setattr(hgssl.linalg, "_cores", lambda: 2)
        return (*smoke_grid_records(patch), BUDGETS[budget])


def load_table(path):
    table = json.loads(path.read_text())
    assert table["config"] == CONFIG
    return table["cells"]


def relative_change(got: float, want: float) -> float:
    if got == want:
        return 0.0
    return abs(got - want) / abs(want) if want else float("inf")


def largest_change(got: dict, want: dict):
    """(relative change, name) of the value of ``got`` furthest from ``want``."""
    if set(got) != set(want):
        return float("inf"), f"keys {sorted(got)} != {sorted(want)}"
    return max((relative_change(got[name], want[name]), name) for name in want)


def test_predicted_labels_match_table(smoke_grid):
    got, *_ = smoke_grid
    want = load_table(LABELS)
    changed = sorted(cell for cell in set(got) | set(want) if got.get(cell) != want.get(cell))
    assert not changed, f"predicted labels changed in {len(changed)} cells: {changed}"


def test_cell_fingerprints_match_table(smoke_grid):
    _, got, *_ = smoke_grid
    want = load_table(FINGERPRINTS)
    assert sorted(got) == sorted(want), "the grid's cells changed"
    changes = {cell: largest_change(got[cell], want[cell]) for cell in want}
    if any(change > RTOL for change, _ in changes.values()):
        report = "\n".join(f"  {cell}: {change:.3e} ({name})"
                           f"{'  > RTOL' if change > RTOL else ''}"
                           for cell, (change, name) in changes.items())
        pytest.fail(f"score fingerprints moved beyond {RTOL:g} relative; the "
                    f"largest relative change of each cell:\n{report}")


def test_each_chunk_is_one_cg_call(smoke_grid):
    *_, label_cg, want = smoke_grid
    assert label_cg == [[width] for width in want]


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        hashes, fingerprints, _ = smoke_grid_records(patch)
    for path, cells in ((LABELS, hashes), (FINGERPRINTS, fingerprints)):
        path.write_text(json.dumps({"config": CONFIG, "cells": cells}, indent=1) + "\n")
