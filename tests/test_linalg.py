import numpy as np
import pytest
import scipy.sparse as sp

from helpers import random_hypergraph, random_sparse
from hgssl.errors import NumericalError, ShapeError, SolverError
from hgssl.hypergraph import hypergraph_operator
from hgssl.linalg import conjugate_gradient, diag_scale


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

    def test_breakdown_names_column_and_iteration(self):
        # Column 0 is an eigenvector and finishes at iteration 1, so the
        # second application sees columns 1 and 2 only; it poisons the last.
        A = np.diag([1.0, 2.0, 3.0, 4.0])
        calls = []

        def apply(V):
            calls.append(V.shape[1])
            AV = A @ V
            if len(calls) == 2:
                AV[:, -1] = np.nan
            return AV

        B = np.column_stack([[1.0, 0.0, 0.0, 0.0], np.ones(4), np.arange(1.0, 5.0)])
        with pytest.raises(SolverError, match=r"iteration 2 .*; column 2$") as info:
            conjugate_gradient(apply, B, tol=1e-12)
        assert info.value.columns == (2,)
        assert calls == [3, 2]

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            conjugate_gradient(lambda V: V, np.ones((2, 1)), tol=0.0)
        with pytest.raises(ValueError):
            conjugate_gradient(lambda V: V, np.ones((2, 1)), max_iter=0)
        with pytest.raises(ShapeError):
            conjugate_gradient(lambda V: V, np.ones(2))

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        op = hypergraph_operator(random_hypergraph(rng, 25), "sym")
        B = rng.standard_normal((25, 3))
        apply = lambda V: V - 0.5 * (op.matrix @ V)
        assert np.array_equal(conjugate_gradient(apply, B).x,
                              conjugate_gradient(apply, B).x)


def test_shifted_operator_is_positive_definite():
    # I - alpha * Theta_sym must be SPD for alpha in (0, 1).
    rng = np.random.default_rng(33)
    for n in (20, 60, 100):
        op = hypergraph_operator(random_hypergraph(rng, n), "sym")
        for alpha in (0.5, 0.99):
            dense = np.eye(n) - alpha * op.matrix.toarray()
            smallest = np.linalg.eigvalsh(dense).min()
            assert smallest > 0.0
