import sys
import threading
import time

import numpy as np
import pytest
import scipy.sparse as sp

from helpers import random_hypergraph, random_sparse, split_columns
from hgssl import linalg
from hgssl.errors import NumericalError, ShapeError, SolverError
from hgssl.hypergraph import hypergraph_operator
import hgssl.linalg
from hgssl.linalg import column_blocks, conjugate_gradient, diag_scale


class TestDiagScale:
    def test_all_ones_is_identity(self):
        rng = np.random.default_rng(4)
        S, dense = random_sparse(rng, 6, 6)
        got = diag_scale(S, np.ones(6), np.ones(6))
        assert np.array_equal(got.toarray(), dense)

    def test_left_scaling_of_identity(self):
        got = diag_scale(sp.eye(2, format="csr"), left=np.array([2.0, 3.0]))
        assert np.array_equal(got.toarray(), np.diag([2.0, 3.0]))

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        S, dense = random_sparse(rng, 7, 5)
        left = rng.uniform(0.5, 2.0, 7)
        right = rng.uniform(0.5, 2.0, 5)
        want = np.diag(left) @ dense @ np.diag(right)
        assert np.max(np.abs(diag_scale(S, left, right).toarray() - want)) < 1e-14

    def test_length_mismatch(self):
        S = sp.eye(3, format="csr")
        with pytest.raises(ShapeError):
            diag_scale(S, left=np.ones(4))
        with pytest.raises(ShapeError):
            diag_scale(S, right=np.ones(2))


# A column that ``poisoned`` never faults: its last entry stays zero.
UNPOISONED = [1.0, 1.0, 1.0, 0.0]


def poisoned(V):
    """A @ V for A = diag(1, 2, 3, 4), with faults that depend only on each column.

    A column of V whose last entry is negative maps to NaN, so p.Ap breaks
    down.  One whose first entry is zero gets 1e300 in the first row, which
    leaves p.Ap finite but overflows the residual.  Since A is diagonal, a
    zero entry of b stays zero in every direction.
    """
    AV = np.diag([1.0, 2.0, 3.0, 4.0]) @ V
    AV[:, V[-1] < 0] = np.nan
    AV[0, V[0] == 0] = 1e300
    return AV


@pytest.mark.parametrize("rows, width, budget, widths", [
    (3000, 784, 2 ** 18, [78, 78, 79, 78, 79, 78, 78, 79, 78, 79]),
    (40, 7, 3 * 40, [2, 2, 3]),
    (40, 6, 3 * 40, [3, 3]),
    (40, 7, 7 * 40, [7]),
    (40, 3, 39, [1, 1, 1]),  # one column alone is over the budget
    (40, 0, 3 * 40, []),
])
def test_column_blocks_are_equal_and_within_budget(monkeypatch, rows, width, budget, widths):
    monkeypatch.setattr(hgssl.linalg, "_BLOCK_BUDGET", budget)
    blocks = column_blocks(rows, width)
    assert [b.stop - b.start for b in blocks] == widths
    assert [b.start for b in blocks] == [sum(widths[:i]) for i in range(len(widths))]


class TestConjugateGradient:
    def test_identity_system_single_iteration(self):
        result = conjugate_gradient(lambda V: V, np.array([[1.0], [2.0], [3.0]]))
        assert result.iterations <= 1
        assert np.allclose(result.x, [[1.0], [2.0], [3.0]], atol=1e-12)

    def test_2x2_against_direct_inverse(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        result = conjugate_gradient(lambda V: A @ V, np.array([[1.0], [2.0]]), tol=1e-14)
        # Direct inverse: det = 11, x = [1/11, 7/11].
        assert np.max(np.abs(result.x[:, 0] - np.array([1.0, 7.0]) / 11.0)) < 1e-12

    def test_hypergraph_system_matches_dense_solve(self):
        rng = np.random.default_rng(13)
        op = hypergraph_operator(random_hypergraph(rng, 50), "sym")
        B = rng.standard_normal((50, 3))
        result = conjugate_gradient(lambda V: V - 0.99 * (op.matrix @ V), B,
                                    tol=1e-12, max_iter=5000)
        want = np.linalg.solve(np.eye(50) - 0.99 * op.matrix.toarray(), B)
        assert np.max(np.abs(result.x - want)) < 1e-8

    def test_rhs_scaling_invariance(self):
        rng = np.random.default_rng(21)
        op = hypergraph_operator(random_hypergraph(rng, 30), "sym")
        B = rng.standard_normal((30, 2))
        apply = lambda V: V - 0.9 * (op.matrix @ V)
        x = conjugate_gradient(apply, B, tol=1e-12).x
        cx = conjugate_gradient(apply, 3.5 * B, tol=1e-12).x
        assert np.max(np.abs(cx - 3.5 * x)) < 1e-10 * max(1.0, np.max(np.abs(3.5 * x)))

    def test_zero_rhs(self):
        result = conjugate_gradient(lambda V: V, np.zeros((4, 2)))
        assert result.iterations == 0
        assert np.array_equal(result.column_iterations, [0, 0])
        assert np.array_equal(result.x, np.zeros((4, 2)))

    def test_columns_at_the_ends_of_the_float_range(self):
        # Squared norms of the first two columns underflow to zero and of the
        # third overflow; each must still be solved like the unit column.
        A = np.diag([1.0, 2.0, 3.0])
        scales = np.array([1e-170, 1e-310, 1e300, 1.0])
        result = conjugate_gradient(lambda V: A @ V, np.ones((3, 4)) * scales, tol=1e-12)
        want = np.array([1.0, 0.5, 1.0 / 3.0])[:, None]
        assert np.max(np.abs(result.x / scales - want)) < 1e-12
        assert np.array_equal(result.column_iterations, [3, 3, 3, 3])

    def test_max_iter_reports_residual(self):
        rng = np.random.default_rng(17)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        B = rng.standard_normal((40, 2))
        result = conjugate_gradient(lambda V: V - 0.99 * (op.matrix @ V), B,
                                    tol=1e-15, max_iter=1)
        assert result.iterations == 1
        assert np.array_equal(result.column_iterations, [1, 1])
        assert result.residual == result.column_residuals.max() > 1e-15

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalError):
            conjugate_gradient(lambda V: V * np.nan, np.ones((3, 1)))

    def test_breakdown_names_column_and_iteration(self, monkeypatch):
        # Column 0 is an eigenvector and finishes at iteration 1, so the
        # second application sees columns 1 and 2 only.  Column 2's second
        # direction is the first with a negative last entry, which poisons it;
        # column 1 has none in that row, and A keeps it zero.
        B = np.column_stack([[1.0, 0.0, 0.0, 0.0], UNPOISONED, np.arange(1.0, 5.0)])
        for cores in (1, 2, 3):
            split_columns(monkeypatch, cores)
            with pytest.raises(SolverError, match=r"iteration 2 .*; column 2$") as info:
                conjugate_gradient(poisoned, B, tol=1e-12)
            assert info.value.columns == (2,)

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_earliest_failing_iteration_wins_across_groups(self, monkeypatch, cores):
        # Column 1 breaks down at iteration 2 and the non-finite column 3 at
        # iteration 1; with two or more groups they fail in different ones.
        split_columns(monkeypatch, cores)
        B = np.column_stack([UNPOISONED, np.arange(1.0, 5.0), UNPOISONED,
                             [1.0, np.nan, 1.0, 1.0]])
        with pytest.raises(SolverError, match=r"broke down at iteration 1 .*; column 3$") as info:
            conjugate_gradient(poisoned, B, tol=1e-12)
        assert info.value.columns == (3,)

    @pytest.mark.parametrize("cores", [1, 2, 3, 4])
    def test_breakdown_wins_over_nonfinite_residual_of_a_lower_column(self, monkeypatch, cores):
        # In iteration 1, column 1's residual overflows and column 3 breaks
        # down; the serial loop checks every column's p.Ap first.
        split_columns(monkeypatch, cores)
        B = np.column_stack([UNPOISONED, [0.0, 1.0, 1.0, 0.0], UNPOISONED,
                             [1.0, np.nan, 1.0, 1.0]])
        with pytest.raises(SolverError, match=r"broke down at iteration 1 .*; column 3$") as info:
            conjugate_gradient(poisoned, B, tol=1e-12)
        assert info.value.columns == (3,)
        with pytest.raises(SolverError, match=r"^non-finite residual at .* 1; column 1$"):
            conjugate_gradient(poisoned, B[:, :3], tol=1e-12)

    def test_groups_stop_after_another_fails(self, monkeypatch):
        # Column 1 alone takes over 90 iterations of 1 ms each; once
        # column 0 breaks down at iteration 1, its group stops too.
        split_columns(monkeypatch, 2)
        A = np.arange(1.0, 201.0)[:, None]
        calls = []

        def apply(V):
            if np.isfinite(V).all():
                calls.append(V.shape[1])
                time.sleep(1e-3)
            return A * V

        B = np.ones((200, 2))
        B[0, 0] = np.nan
        assert conjugate_gradient(apply, B[:, 1:], tol=1e-12).iterations > 90
        calls.clear()
        with pytest.raises(SolverError, match=r"iteration 1 .*; column 0$"):
            conjugate_gradient(apply, B, tol=1e-12)
        assert len(calls) < 20

    def test_other_exceptions_reach_the_caller(self, monkeypatch):
        split_columns(monkeypatch, 2)

        def apply(V):
            if (V[-1] < 0).any():
                raise ValueError("bad block")
            return poisoned(V)

        # Column 2, alone in the second group, raises in its thread.
        B = np.column_stack([UNPOISONED, UNPOISONED, np.arange(1.0, 5.0)])
        with pytest.raises(ValueError, match="bad block"):
            conjugate_gradient(apply, B, tol=1e-12)

    def test_groups_keep_the_callers_numpy_error_state(self, monkeypatch):
        # Only column 1, alone in the second group's thread, overflows.
        split_columns(monkeypatch, 2)
        B = np.column_stack([UNPOISONED, [0.0, 1.0, 1.0, 0.0]])

        def apply(V):
            return V * np.where(V[0] == 0, 1e308, 1.0) * 10.0

        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            conjugate_gradient(apply, B)

    @pytest.mark.parametrize("fails", [False, True])
    def test_every_thread_ends_with_the_call(self, monkeypatch, fails):
        split_columns(monkeypatch, 4)
        threads = set()

        def apply(V):
            threads.add(threading.current_thread())
            return poisoned(V)

        B = np.column_stack([UNPOISONED] * 3 + [np.arange(1.0, 5.0) if fails else UNPOISONED])
        before = threading.active_count()
        if fails:
            with pytest.raises(SolverError):
                conjugate_gradient(apply, B, tol=1e-12)
        else:
            conjugate_gradient(apply, B, tol=1e-12)
        assert len(threads) == 4
        assert threading.active_count() == before

    @pytest.mark.parametrize("rows, width, groups", [
        (4, 4, 1), (linalg._GROUP_ENTRIES // 2, 3, 1), (linalg._GROUP_ENTRIES, 3, 3),
        (linalg._GROUP_ENTRIES, 5, 4)])
    def test_groups_hold_a_minimum_of_entries(self, monkeypatch, rows, width, groups):
        monkeypatch.setattr(linalg, "_cores", lambda: 4)
        threads = set()

        def apply(V):
            threads.add(threading.current_thread())
            return V

        conjugate_gradient(apply, np.ones((rows, width)))
        assert len(threads) == groups

    @pytest.mark.parametrize("width", [1, 2, 7])
    def test_result_does_not_depend_on_the_core_count(self, monkeypatch, width):
        # 7 columns split 7, 4+3, 3+2+2 and 2+2+2+1.
        rng = np.random.default_rng(width)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        B = rng.standard_normal((40, width))
        results = []
        for cores in (1, 2, 3, 4):
            split_columns(monkeypatch, cores)
            results.append(conjugate_gradient(lambda V: V - 0.99 * op.apply(V), B, 1e-10))
        want = results[0]
        for result in results[1:]:
            assert result.iterations == want.iterations
            assert result.residual == want.residual
            for got, expected in [(result.x, want.x),
                                  (result.column_iterations, want.column_iterations),
                                  (result.column_residuals, want.column_residuals)]:
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("cores", [1, 2])
    def test_out_gives_the_fresh_result_bit_for_bit(self, monkeypatch, cores):
        # Zero columns (one of them -0.0), and columns that stop at iterations
        # 1, 2 and later, so each group compacts its iterates while others run.
        split_columns(monkeypatch, cores)
        A = np.arange(1.0, 41.0)[:, None]
        B = np.random.default_rng(30).standard_normal((40, 7))
        B[:, 1] = 0.0
        B[:, 2] = np.eye(40)[5]
        B[:, 4] = np.eye(40)[3] + np.eye(40)[9]
        B[:, 6] = -0.0

        def solve(out=None):
            return conjugate_gradient(lambda V: A * V, B, tol=1e-12, out=out)

        want = solve()
        assert want.column_iterations[[1, 2, 4, 6]].tolist() == [0, 1, 2, 0]
        assert want.column_iterations.max() > 2
        nan_filled = np.full_like(B, np.nan)
        results = [solve(out=nan_filled)]
        assert results[0].x is nan_filled
        results.append(solve(out=B))
        assert results[1].x is B
        for result in results:
            assert result.x.tobytes() == want.x.tobytes()
            assert result.column_iterations.tobytes() == want.column_iterations.tobytes()
            assert result.column_residuals.tobytes() == want.column_residuals.tobytes()

    @pytest.mark.parametrize("out", [np.empty((4, 2)), np.empty((4, 3), dtype=np.float32),
                                     np.empty(12)], ids=["width", "dtype", "ndim"])
    def test_out_of_another_shape_rejected(self, out):
        with pytest.raises(ShapeError, match=r"expected float64 \(4, 3\)"):
            conjugate_gradient(lambda V: V, np.ones((4, 3)), out=out)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            conjugate_gradient(lambda V: V, np.ones((2, 1)), tol=0.0)
        with pytest.raises(ValueError):
            conjugate_gradient(lambda V: V, np.ones((2, 1)), max_iter=0)
        with pytest.raises(ShapeError):
            conjugate_gradient(lambda V: V, np.ones(2))

    @pytest.mark.parametrize("tol", [1.0, 2.0])
    def test_tol_of_one_or_more_rejected(self, tol):
        # From x = 0 every nonzero column starts at relative residual 1.
        with pytest.raises(ValueError, match=f"tol must be positive and below 1, got {tol}"):
            conjugate_gradient(lambda V: V, np.ones((2, 1)), tol=tol)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        op = hypergraph_operator(random_hypergraph(rng, 25), "sym")
        B = rng.standard_normal((25, 3))
        apply = lambda V: V - 0.5 * (op.matrix @ V)
        assert np.array_equal(conjugate_gradient(apply, B).x,
                              conjugate_gradient(apply, B).x)


def test_many_groups_under_frequent_thread_switches(monkeypatch):
    # More groups than cores, switching threads every few microseconds: a
    # lost or misplaced write into the shared result arrays changes a bit.
    rng = np.random.default_rng(9)
    op = hypergraph_operator(random_hypergraph(rng, 60), "sym")
    B = rng.standard_normal((60, 16))

    def apply(V):
        return V - 0.99 * op.apply(V)

    want = conjugate_gradient(apply, B, tol=1e-10)
    split_columns(monkeypatch, 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [conjugate_gradient(apply, B, tol=1e-10) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    for result in got:
        assert result.x.tobytes() == want.x.tobytes()
        assert result.column_iterations.tobytes() == want.column_iterations.tobytes()
        assert result.column_residuals.tobytes() == want.column_residuals.tobytes()


def test_shifted_operator_is_positive_definite():
    # I - alpha * Theta_sym must be SPD for alpha in (0, 1).
    rng = np.random.default_rng(33)
    for n in (20, 60, 100):
        op = hypergraph_operator(random_hypergraph(rng, n), "sym")
        for alpha in (0.5, 0.99):
            dense = np.eye(n) - alpha * op.matrix.toarray()
            smallest = np.linalg.eigvalsh(dense).min()
            assert smallest > 0.0
