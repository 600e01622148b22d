"""Tests for covariance construction and channel sampling from its EVD."""

import numpy as np
import pytest

from fddjam.channel import (
    ChannelCovariance,
    _exponential_block,
    exponential_covariance,
    exponential_spectrum,
)
from oracles import sample_complex_gaussian


class TestExponentialCovariance:
    def test_zero_coefficient_is_identity(self):
        cov = exponential_covariance(3, 0.0)
        assert np.array_equal(cov.matrix, np.eye(3, dtype=complex))

    def test_half_coefficient_exact_entries(self):
        cov = exponential_covariance(3, 0.5)
        expected = np.array(
            [[1, 0.5, 0.25], [0.5, 1, 0.5], [0.25, 0.5, 1]], dtype=complex
        )
        assert np.array_equal(cov.matrix, expected)

    def test_unit_coefficient_rank_one(self):
        with pytest.warns(RuntimeWarning, match="rank-one"):
            cov = exponential_covariance(3, 1.0)
        assert np.array_equal(cov.matrix, np.ones((3, 3), dtype=complex))
        np.testing.assert_allclose(cov.eigenvalues, [3.0, 0.0, 0.0], atol=1e-12)

    def test_rank_one_warns_on_every_request(self):
        # the second request is a cache hit and still warns
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="rank-one"):
                exponential_covariance(4, 1.0)

    @pytest.mark.filterwarnings("error")
    def test_unit_coefficient_single_antenna_is_not_degenerate(self):
        cov = exponential_covariance(1, 1.0)
        assert np.array_equal(cov.matrix, np.eye(1, dtype=complex))

    @pytest.mark.parametrize("bad", [-0.1, 1.2, np.nan])
    def test_rejects_out_of_range_coefficient(self, bad):
        with pytest.raises(ValueError, match="coefficient"):
            exponential_covariance(4, bad)

    @pytest.mark.parametrize("bad", [0, -3, 2.5])
    def test_rejects_bad_size(self, bad):
        with pytest.raises(ValueError, match="size"):
            exponential_covariance(bad, 0.5)

    @pytest.mark.parametrize("r", [0.0, 0.3, 0.7, 0.99])
    @pytest.mark.parametrize("n", [1, 8, 64])
    def test_trace_equals_size(self, n, r):
        cov = exponential_covariance(n, r)
        assert float(np.trace(cov.matrix).real) == pytest.approx(n, abs=1e-12)

    @pytest.mark.parametrize("n", [4, 64, 256])
    @pytest.mark.parametrize("r", [0.5, 0.9, 0.99])
    def test_positive_definite_below_unit_coefficient(self, n, r):
        cov = exponential_covariance(n, r)
        assert float(cov.eigenvalues.min()) > 0

    def test_largest_eigenvalue_nondecreasing_in_coefficient(self):
        tops = [
            float(exponential_covariance(16, r).eigenvalues[0])
            for r in np.arange(0.0, 0.95, 0.1)
        ]
        assert np.all(np.diff(tops) >= 0)

    def test_cached_evd_reconstructs_matrix(self):
        cov = exponential_covariance(12, 0.8)
        rebuilt = (cov.eigenvectors * cov.eigenvalues) @ cov.eigenvectors.conj().T
        rel = np.linalg.norm(rebuilt - cov.matrix) / np.linalg.norm(cov.matrix)
        assert rel <= 1e-9

    def test_matrix_is_read_only(self):
        cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 2.0


class TestExponentialSpectrum:
    @pytest.mark.parametrize(("n", "r"), [(1, 0.5), (12, 0.0), (12, 0.8), (100, 0.7)])
    def test_matches_complex_evd(self, n, r):
        matrix = exponential_covariance(n, r).matrix.astype(np.complex128)
        expected = ChannelCovariance.from_matrix(matrix).eigenvalues
        np.testing.assert_allclose(exponential_spectrum(n, r), expected, rtol=0, atol=1e-12)

    def test_cached_and_read_only(self):
        spectrum = exponential_spectrum(9, 0.6)
        assert exponential_spectrum(9, 0.6) is spectrum
        with pytest.raises(ValueError):
            spectrum[0] = 0.0
        cov = exponential_covariance(9, 0.6)
        assert exponential_covariance(9, 0.6) is cov
        with pytest.raises(ValueError):
            cov.matrix[0, 0] = 0.0

    def test_rank_one_warns_on_every_request(self):
        for _ in range(2):
            with pytest.warns(RuntimeWarning, match="rank-one"):
                spectrum = exponential_spectrum(4, 1.0)
        # the null eigenvalues are round-off of zero, stored as exact zeros
        assert spectrum[0] == pytest.approx(4.0, abs=1e-12)
        assert spectrum[1:].tolist() == [0.0] * 3

    @pytest.mark.parametrize("bad", [(0, 0.5), (4, 1.5)])
    def test_rejects_bad_input(self, bad):
        with pytest.raises(ValueError):
            exponential_spectrum(*bad)

    def test_block_is_top_left_of_covariance(self):
        block = _exponential_block(7, 0.6, 3)
        assert np.array_equal(block, exponential_covariance(7, 0.6).matrix[:3, :3].real)


class TestFromMatrix:
    def test_rejects_non_unit_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            ChannelCovariance.from_matrix(2.0 * np.eye(3))

    def test_unit_diagonal_check_can_be_disabled(self):
        cov = ChannelCovariance.from_matrix(2.0 * np.eye(3), unit_diagonal=False)
        assert cov.size == 3

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="semidefinite"):
            ChannelCovariance.from_matrix([[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            ChannelCovariance.from_matrix([[1.0, 0.5], [0.0, 1.0]])

    def test_rejects_a_matrix_of_strings(self):
        with pytest.raises(ValueError):
            ChannelCovariance.from_matrix([["1", "0"], ["0", "x"]])

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_arrays_are_read_only_copies(self, dtype):
        # the matrix and its eigenvectors keep the input's dtype
        source = np.array([[1.0, 0.5], [0.5, 1.0]], dtype=dtype)
        cov = ChannelCovariance.from_matrix(source)
        assert cov.eigenvalues.dtype == np.float64
        assert cov.matrix.dtype == cov.eigenvectors.dtype == dtype
        for array in (cov.matrix, cov.eigenvalues, cov.eigenvectors):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0
        before = [a.copy() for a in (cov.matrix, cov.eigenvalues, cov.eigenvectors)]
        source[0, 1] = source[1, 0] = 0.9
        after = (cov.matrix, cov.eigenvalues, cov.eigenvectors)
        assert all(np.array_equal(a, b) for a, b in zip(before, after))


def draw(cov, seed, size):
    """``size`` channel draws from ``cov``'s eigenpairs, one per column."""
    rng = np.random.default_rng(seed)
    return sample_complex_gaussian(cov.eigenvalues, cov.eigenvectors, rng, size=size)


class TestSampleChannel:
    def test_mean_energy_matches_trace(self):
        cov = exponential_covariance(2, 0.0)
        draws = draw(cov, 0, 20_000)
        energy = float((np.abs(draws) ** 2).sum(axis=0).mean())
        assert energy == pytest.approx(2.0, abs=0.05)

    def test_correlated_lln(self):
        n, trials = 16, 100_000
        cov = exponential_covariance(n, 0.9)
        draws = draw(cov, 4, trials)
        empirical = (draws @ draws.conj().T) / trials
        rel = np.linalg.norm(empirical - cov.matrix) / np.linalg.norm(cov.matrix)
        assert rel <= 0.05

    def test_single_draw_shape(self):
        cov = exponential_covariance(5, 0.3)
        (v,) = draw(cov, 1, 1).T
        assert v.shape == (5,)
