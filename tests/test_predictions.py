"""Predicted labels of the synthetic smoke grid against a stored table.

Every cell of ``configs/synthetic.cfg`` that predicts labels (each distinct
closed-form solve and every neural cell) is keyed by method, noise level and
seed, and maps to the sha256 of its int64 predicted labels over all n rows.
The hashes must match exactly: scores may move at the solver's tolerance or
at rounding level, but a changed label is a changed result.  Closed-form
cells that reuse an earlier solve predict nothing of their own and have no
entry.

Regenerate the table with ``PYTHONPATH=src python tests/test_predictions.py``.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import hgssl.bench
from hgssl.config import load_config

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "predicted_labels.json"
CONFIG = "configs/synthetic.cfg"


def label_hash(pred) -> str:
    return hashlib.sha256(np.ascontiguousarray(pred, dtype="<i8").tobytes()).hexdigest()


def predicted_label_hashes(patch) -> dict:
    """Run the smoke grid and hash the labels each cell predicts."""
    hashes = {}
    current = []

    def in_cell(run_cell):
        def wrapped(prepared, method, level, seed, *args, **kwargs):
            current.append(f"{method},{level!r},{seed}")
            try:
                return run_cell(prepared, method, level, seed, *args, **kwargs)
            finally:
                current.pop()
        return wrapped

    def recorded(predicts):
        def wrapped(*args, **kwargs):
            pred = predicts(*args, **kwargs)
            cell = current[-1]
            assert cell not in hashes, f"cell {cell} predicted twice"
            hashes[cell] = label_hash(pred)
            return pred
        return wrapped

    patch.setattr(hgssl.bench, "run_cell", in_cell(hgssl.bench.run_cell))
    for name in ("decode_predictions", "predict"):
        patch.setattr(hgssl.bench, name, recorded(getattr(hgssl.bench, name)))
    report = hgssl.bench.run_experiment(load_config(ROOT / CONFIG))
    assert report.ok, report.failures
    return hashes


def test_predicted_labels_match_table(monkeypatch):
    table = json.loads(TABLE.read_text())
    assert table["config"] == CONFIG
    got = predicted_label_hashes(monkeypatch)
    want = table["cells"]
    changed = sorted(cell for cell in set(got) | set(want) if got.get(cell) != want.get(cell))
    assert not changed, f"predicted labels changed in {len(changed)} cells: {changed}"


if __name__ == "__main__":
    with pytest.MonkeyPatch.context() as patch:
        cells = predicted_label_hashes(patch)
    TABLE.write_text(json.dumps({"config": CONFIG, "cells": cells}, indent=1) + "\n")
