"""Tests for the complex linear-algebra primitives."""

import numpy as np
import pytest

from fddjam.linalg import (
    HermitianEvd,
    haar_orthonormal_columns,
    hermitian_evd,
    require_orthonormal_columns,
    sample_complex_gaussian,
    solve_hpd,
)
from oracles import jacobi_eigenvalues, random_hermitian

# Relative Frobenius tolerance for rebuilding a matrix from its eigenpairs.
EVD_RECONSTRUCTION_RTOL = 1e-9

# Relative residual guaranteed by the positive-definite solver.
HPD_RESIDUAL_RTOL = 1e-10


def exp_corr(n, r):
    return (r ** np.abs(np.subtract.outer(np.arange(n), np.arange(n)))).astype(
        np.complex128
    )


class TestHermitianEvd:
    def test_identity_keeps_index_order(self):
        evd = hermitian_evd(np.eye(3))
        np.testing.assert_allclose(evd.eigenvalues, np.ones(3))
        # degenerate spectrum: stable tie-break keeps the standard basis order
        np.testing.assert_allclose(evd.eigenvectors, np.eye(3), atol=1e-12)

    def test_two_by_two_closed_form(self):
        evd = hermitian_evd([[1.0, 0.5], [0.5, 1.0]])
        np.testing.assert_allclose(evd.eigenvalues, [1.5, 0.5], atol=1e-14)
        top = evd.eigenvectors[:, 0]
        overlap = abs(np.vdot(top, np.array([1.0, 1.0]) / np.sqrt(2)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_exponential_4x4_matches_independent_solver(self):
        a = exp_corr(4, 0.7)
        evd = hermitian_evd(a)
        np.testing.assert_allclose(evd.eigenvalues, jacobi_eigenvalues(a), atol=1e-9)

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_eigenvalue_sum_equals_trace(self, n):
        a = random_hermitian(n, np.random.default_rng(n))
        evd = hermitian_evd(a)
        trace = float(np.trace(a).real)
        assert evd.eigenvalues.sum() == pytest.approx(trace, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("n", [2, 8, 32])
    def test_orthonormality_and_reconstruction(self, n):
        a = random_hermitian(n, np.random.default_rng(100 + n))
        evd = hermitian_evd(a)
        gram = evd.eigenvectors.conj().T @ evd.eigenvectors
        assert np.linalg.norm(gram - np.eye(n)) <= 1e-10
        rebuilt = (evd.eigenvectors * evd.eigenvalues) @ evd.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - a) / np.linalg.norm(a)
        assert rel <= EVD_RECONSTRUCTION_RTOL

    def test_eigenvalues_descending(self):
        evd = hermitian_evd(random_hermitian(12, np.random.default_rng(3)))
        assert np.all(np.diff(evd.eigenvalues) <= 0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            hermitian_evd(np.ones((2, 3)))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            hermitian_evd([[1.0, 1e-8], [0.0, 1.0]])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="finite"):
            hermitian_evd([[np.nan, 0.0], [0.0, 1.0]])

    def test_evd_type_rejects_unsorted(self):
        with pytest.raises(ValueError, match="descending"):
            HermitianEvd(np.array([0.5, 1.5]), np.eye(2, dtype=complex))


class TestSolveHpd:
    def test_identity(self):
        b = np.arange(6, dtype=float).reshape(3, 2) + 0j
        np.testing.assert_allclose(solve_hpd(np.eye(3), b), b)

    def test_scalar_matrix(self):
        x = solve_hpd(2.0 * np.eye(3), np.eye(3))
        np.testing.assert_allclose(x, 0.5 * np.eye(3), atol=1e-14)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_residual_bound_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        a = random_hermitian(5, rng, definite=True)
        b = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
        x = solve_hpd(a, b)
        residual = np.linalg.norm(a @ x - b) / np.linalg.norm(b)
        assert residual <= HPD_RESIDUAL_RTOL

    def test_vector_rhs(self):
        rng = np.random.default_rng(7)
        a = random_hermitian(4, rng, definite=True)
        b = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        x = solve_hpd(a, b)
        assert x.shape == (4,)
        np.testing.assert_allclose(a @ x, b, atol=1e-10)

    def test_rejects_indefinite(self):
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd(-np.eye(3), np.eye(3))

    def test_rejects_singular(self):
        x = np.random.default_rng(0).standard_normal((5, 2))
        with pytest.raises(np.linalg.LinAlgError):
            solve_hpd((x @ x.T).astype(complex), np.eye(5))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            solve_hpd(np.eye(3), np.ones((4, 2)))


class TestComplexGaussianSampling:
    def test_zero_covariance_gives_zero_vector(self):
        evd = hermitian_evd(np.zeros((4, 4)))
        v = sample_complex_gaussian(evd, np.random.default_rng(0))
        assert v.shape == (4,)
        assert np.all(v == 0)

    def test_identity_covariance_lln(self):
        n, trials = 8, 100_000
        evd = hermitian_evd(np.eye(n))
        v = sample_complex_gaussian(evd, np.random.default_rng(42), size=trials)
        empirical = (v @ v.conj().T) / trials
        rel = np.linalg.norm(empirical - np.eye(n)) / np.linalg.norm(np.eye(n))
        assert rel <= 0.05

    def test_exponential_covariance_lln(self):
        n, trials = 8, 100_000
        cov = exp_corr(n, 0.5)
        v = sample_complex_gaussian(hermitian_evd(cov), np.random.default_rng(11), size=trials)
        empirical = (v @ v.conj().T) / trials
        rel = np.linalg.norm(empirical - cov) / np.linalg.norm(cov)
        assert rel <= 0.05

    def test_reproducible_for_fixed_seed(self):
        evd = hermitian_evd(exp_corr(6, 0.7))
        a = sample_complex_gaussian(evd, np.random.default_rng(5), size=100)
        b = sample_complex_gaussian(evd, np.random.default_rng(5), size=100)
        assert np.array_equal(a, b)

    def test_circular_symmetry(self):
        n, trials = 8, 100_000
        evd = hermitian_evd(np.eye(n))
        v = sample_complex_gaussian(evd, np.random.default_rng(9), size=trials)
        mean = v.mean(axis=1)
        assert np.linalg.norm(mean) <= 0.02 * np.sqrt(n)
        pseudo = (v @ v.T) / trials  # E[v v^T], zero for circular symmetry
        assert np.linalg.norm(pseudo) <= 0.05 * np.sqrt(n)

    def test_clamps_roundoff_negative_eigenvalues(self):
        evd = HermitianEvd(np.array([1.0, -5e-13]), np.eye(2, dtype=complex))
        v = sample_complex_gaussian(evd, np.random.default_rng(1), size=10)
        assert np.all(v[1] == 0)

    def test_rejects_negative_eigenvalue_below_floor(self):
        evd = HermitianEvd(np.array([1.0, -1e-11]), np.eye(2, dtype=complex))
        with pytest.raises(ValueError, match="semidefinite"):
            sample_complex_gaussian(evd, np.random.default_rng(1))


class TestHaarColumns:
    @pytest.mark.parametrize("rows,cols", [(4, 1), (6, 3), (5, 5)])
    def test_orthonormal(self, rows, cols):
        q = haar_orthonormal_columns(rows, cols, np.random.default_rng(rows * 7 + cols))
        require_orthonormal_columns(q)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            haar_orthonormal_columns(3, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            haar_orthonormal_columns(3, 0, np.random.default_rng(0))

    def test_left_invariance_moment(self):
        # First column of a Haar frame is uniform on the sphere: its entries
        # should have equal mean squared magnitude in every coordinate.
        rng = np.random.default_rng(23)
        rows, draws = 4, 4000
        acc = np.zeros(rows)
        for _ in range(draws):
            q = haar_orthonormal_columns(rows, 2, rng)
            acc += np.abs(q[:, 0]) ** 2
        acc /= draws
        np.testing.assert_allclose(acc, np.full(rows, 1.0 / rows), atol=0.02)
