"""Work budgets of the synthetic smoke grid, counted without any timing.

``configs/synthetic.cfg`` has no PCA, so its features, and with them every
count below, do not depend on the BLAS build.  The number of block solves is
fixed by the grid's shape and is pinned exactly; the operator applications
depend on the values and are pinned as an upper bound.  A change that lowers
a count updates its pin; raising one needs a stated reason.
"""

from pathlib import Path

import pytest

import hgssl.propagation
from hgssl.bench import _CLOSED_FORM, prepare_experiment, run_cell, run_experiment
from hgssl.config import load_config

ROOT = Path(__file__).resolve().parent.parent

# 2 closed-form methods x (4 levels x 3 seeds - 2 repeated clean-label cells),
# plus 1 block for the hgnn-proposed features.
BLOCK_SOLVES = 21
MAX_APPLICATIONS = 470


@pytest.fixture(scope="module")
def smoke_grid():
    """The smoke grid's report, and the operator applications of each CG call."""
    cfg = load_config(ROOT / "configs" / "synthetic.cfg")
    original = hgssl.propagation.conjugate_gradient
    applications = []

    def counting(apply, B, **kwargs):
        applications.append(0)

        def counted(V):
            applications[-1] += 1
            return apply(V)
        return original(counted, B, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(hgssl.propagation, "conjugate_gradient", counting)
        report = run_experiment(cfg)
    return cfg, report, applications


def test_block_solves_and_applications(smoke_grid):
    _, report, applications = smoke_grid
    assert report.ok and len(report.rows) == 60
    assert len(applications) == BLOCK_SOLVES
    assert sum(applications) <= MAX_APPLICATIONS


def test_reused_solves_match_separate_cells(smoke_grid):
    cfg, report, _ = smoke_grid
    prepared = prepare_experiment(cfg)
    rows = [row for row in report.rows if row.method in _CLOSED_FORM]
    assert len(rows) == 24
    for row in rows:
        alone = run_cell(prepared, row.method, row.noise_level, row.seed)
        assert row.accuracy == alone.accuracy, (row.method, row.noise_level, row.seed)
