import numpy as np
import pytest
import scipy.sparse as sp

from helpers import random_hypergraph, random_sparse
from hgssl.errors import NumericalError, ShapeError
from hgssl.hypergraph import hypergraph_operator
from hgssl.linalg import as_csr, conjugate_gradient, diag_scale


class TestSparseSparseMul:
    def test_result_is_canonical(self):
        # hypergraph_operator forms its kernel as as_csr(a @ b).
        rng = np.random.default_rng(9)
        A, _ = random_sparse(rng, 12, 12)
        got = as_csr(A @ A)
        assert got.has_sorted_indices
        assert np.all(np.abs(got.data) >= 1e-15)


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
        result = conjugate_gradient(sp.eye(3, format="csr"), np.array([1.0, 2.0, 3.0]))
        assert result.iterations <= 1
        assert np.allclose(result.x, [1.0, 2.0, 3.0], atol=1e-12)

    def test_2x2_against_direct_inverse(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        result = conjugate_gradient(lambda v: A @ v, np.array([1.0, 2.0]), tol=1e-14)
        # Direct inverse: det = 11, x = [1/11, 7/11].
        assert np.max(np.abs(result.x - np.array([1.0, 7.0]) / 11.0)) < 1e-12

    def test_hypergraph_system_matches_dense_solve(self):
        rng = np.random.default_rng(13)
        op = hypergraph_operator(random_hypergraph(rng, 50), "sym")
        b = rng.standard_normal(50)
        result = conjugate_gradient(lambda v: v - 0.99 * (op.matrix @ v), b,
                                    tol=1e-12, max_iter=5000)
        want = np.linalg.solve(np.eye(50) - 0.99 * op.matrix.toarray(), b)
        assert np.max(np.abs(result.x - want)) < 1e-8

    def test_rhs_scaling_invariance(self):
        rng = np.random.default_rng(21)
        op = hypergraph_operator(random_hypergraph(rng, 30), "sym")
        b = rng.standard_normal(30)
        apply = lambda v: v - 0.9 * (op.matrix @ v)
        x = conjugate_gradient(apply, b, tol=1e-12).x
        cx = conjugate_gradient(apply, 3.5 * b, tol=1e-12).x
        assert np.max(np.abs(cx - 3.5 * x)) < 1e-10 * max(1.0, np.max(np.abs(3.5 * x)))

    def test_zero_rhs(self):
        result = conjugate_gradient(sp.eye(4, format="csr"), np.zeros(4))
        assert result.iterations == 0
        assert np.array_equal(result.x, np.zeros(4))

    def test_max_iter_reports_residual(self):
        rng = np.random.default_rng(17)
        op = hypergraph_operator(random_hypergraph(rng, 40), "sym")
        b = rng.standard_normal(40)
        result = conjugate_gradient(lambda v: v - 0.99 * (op.matrix @ v), b,
                                    tol=1e-15, max_iter=1)
        assert result.iterations == 1
        assert result.residual > 1e-15

    def test_nonfinite_raises(self):
        with pytest.raises(NumericalError):
            conjugate_gradient(lambda v: v * np.nan, np.ones(3))

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            conjugate_gradient(sp.eye(2, format="csr"), np.ones(2), tol=0.0)
        with pytest.raises(ValueError):
            conjugate_gradient(sp.eye(2, format="csr"), np.ones(2), max_iter=0)

    def test_deterministic(self):
        rng = np.random.default_rng(6)
        op = hypergraph_operator(random_hypergraph(rng, 25), "sym")
        b = rng.standard_normal(25)
        apply = lambda v: v - 0.5 * (op.matrix @ v)
        assert np.array_equal(conjugate_gradient(apply, b).x,
                              conjugate_gradient(apply, b).x)


def test_shifted_operator_is_positive_definite():
    # I - alpha * Theta_sym must be SPD for alpha in (0, 1).
    rng = np.random.default_rng(33)
    for n in (20, 60, 100):
        op = hypergraph_operator(random_hypergraph(rng, n), "sym")
        for alpha in (0.5, 0.99):
            dense = np.eye(n) - alpha * op.matrix.toarray()
            smallest = np.linalg.eigvalsh(dense).min()
            assert smallest > 0.0


def test_as_csr_prunes_tiny_entries():
    dense = np.array([[1.0, 1e-16], [0.0, 2.0]])
    S = as_csr(dense)
    assert S.nnz == 2
    assert np.array_equal(S.toarray(), np.array([[1.0, 0.0], [0.0, 2.0]]))
