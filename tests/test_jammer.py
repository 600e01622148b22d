"""Tests for jamming strategies and the design-verification oracle."""

import numpy as np
import pytest

from fddjam.channel import ChannelCovariance, exponential_covariance
from fddjam.jammer import (
    jamming_objective,
    optimal_jamming,
    single_shot_jamming,
    verify_lemma,
)
from fddjam.linalg import haar_orthonormal_columns
from fddjam.training import (
    TrainingConfig,
    UnitaryBlock,
    optimal_pilots,
    scenario_closed_form_mse,
)
from oracles import full_dimension_mse

# Off-diagonal Frobenius mass allowed where a congruence should be diagonal.
DIAGONALITY_TOL = 1e-9


def make_cfg(M, N, L, pb=5.0, pj=5.0, nv=1.0, r=0.7, rg=None):
    return TrainingConfig(
        num_bs_antennas=M,
        num_jammer_antennas=N,
        pilot_length=L,
        bs_power_db=pb,
        jammer_power_db=pj,
        noise_variance=nv,
        bs_correlation=r,
        jammer_correlation=rg,
    )


class TestOptimalJamming:
    def test_identity_covariance_uses_index_order(self):
        cov = exponential_covariance(4, 0.0)
        jam = optimal_jamming(cov, 2)
        np.testing.assert_allclose(jam.matrix, np.eye(4, dtype=complex)[:, :2], atol=1e-12)

    def test_objective_is_top_eigenvalue_sum(self):
        # covariance with eigenvalues (3, 2, 1); diagonal need not be one
        u = haar_orthonormal_columns(3, 3, np.random.default_rng(0))
        cov = ChannelCovariance.from_matrix(
            (u * np.array([3.0, 2.0, 1.0])) @ u.conj().T, unit_diagonal=False
        )
        jam = optimal_jamming(cov, 2)
        assert jamming_objective(jam, cov) == pytest.approx(5.0, abs=1e-9)

    def test_congruence_is_diagonal_with_top_eigenvalues(self):
        cov = exponential_covariance(8, 0.7)
        jam = optimal_jamming(cov, 3)
        congruence = jam.matrix.conj().T @ cov.matrix @ jam.matrix
        target = np.diag(cov.evd.eigenvalues[:3])
        assert np.linalg.norm(congruence - target) <= DIAGONALITY_TOL
        off = congruence - np.diag(np.diagonal(congruence))
        assert np.linalg.norm(off) <= DIAGONALITY_TOL

    def test_rejects_too_few_antennas(self):
        cov = exponential_covariance(3, 0.5)
        with pytest.raises(ValueError, match="antennas"):
            optimal_jamming(cov, 4)


class TestSingleShotJamming:
    def test_canonical_construction(self):
        jam = single_shot_jamming(3, 2)
        assert np.array_equal(
            jam.matrix, np.array([[1, 0], [0, 1], [0, 0]], dtype=complex)
        )

    @pytest.mark.parametrize("n,l", [(1, 1), (8, 3), (64, 64), (64, 1)])
    def test_exactly_orthonormal(self, n, l):
        jam = single_shot_jamming(n, l)
        assert np.array_equal(jam.matrix.conj().T @ jam.matrix, np.eye(l, dtype=complex))

    def test_matches_eigen_optimal_for_uncorrelated_channel(self):
        cov = exponential_covariance(5, 0.0)
        ss = single_shot_jamming(5, 3)
        eig = optimal_jamming(cov, 3)
        assert jamming_objective(ss, cov) == pytest.approx(3.0, abs=1e-12)
        assert jamming_objective(ss, cov) == pytest.approx(
            jamming_objective(eig, cov), abs=1e-9
        )

    def test_rejects_too_few_antennas(self):
        with pytest.raises(ValueError, match="antennas"):
            single_shot_jamming(2, 3)


class TestJammingObjective:
    def test_single_shot_on_unit_diagonal_equals_length(self):
        cov = exponential_covariance(6, 0.8)
        jam = single_shot_jamming(6, 4)
        assert jamming_objective(jam, cov) == pytest.approx(4.0, abs=1e-12)

    def test_random_candidates_never_beat_eigen_optimal(self):
        cov = exponential_covariance(6, 0.8)
        top = float(cov.evd.eigenvalues[:3].sum())
        rng = np.random.default_rng(17)
        for _ in range(500):
            jam = UnitaryBlock(haar_orthonormal_columns(6, 3, rng))
            assert jamming_objective(jam, cov) <= top + 1e-9

    def test_bounded_by_extreme_eigenvalue_sums(self):
        cov = exponential_covariance(6, 0.9)
        lo = float(cov.evd.eigenvalues[-3:].sum())
        hi = float(cov.evd.eigenvalues[:3].sum())
        rng = np.random.default_rng(19)
        for _ in range(100):
            value = jamming_objective(UnitaryBlock(haar_orthonormal_columns(6, 3, rng)), cov)
            assert lo - 1e-9 <= value <= hi + 1e-9

    def test_rejects_size_mismatch(self):
        cov = exponential_covariance(6, 0.5)
        with pytest.raises(ValueError):
            jamming_objective(single_shot_jamming(4, 2), cov)


class TestJammingMatrixType:
    def test_validates_orthonormal_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            UnitaryBlock(np.ones((4, 2), dtype=complex))

    def test_matrix_is_read_only(self):
        jam = single_shot_jamming(4, 2)
        with pytest.raises(ValueError):
            jam.matrix[0, 0] = 0


class TestVerifyLemma:
    def test_uncorrelated_jammer_channel_ties_everything(self):
        M, N, L = 6, 4, 3
        cfg = make_cfg(M, N, L, r=0.7, rg=0.0)
        bs_cov = exponential_covariance(M, 0.7)
        jam_cov = exponential_covariance(N, 0.0)
        pilots = optimal_pilots(bs_cov, L)
        verdict = verify_lemma(bs_cov, jam_cov, pilots, cfg, 100, np.random.default_rng(2))
        assert verdict.optimal_objective == pytest.approx(L, abs=1e-9)
        assert verdict.best_random_objective == pytest.approx(L, abs=1e-9)
        assert verdict.best_random_mse == pytest.approx(verdict.optimal_mse, abs=1e-9)
        assert not verdict.mse_counterexample_found

    def test_small_grid_verdict(self):
        M, N, L = 8, 4, 2
        cfg = make_cfg(M, N, L, r=0.7)
        bs_cov = exponential_covariance(M, 0.7)
        jam_cov = exponential_covariance(N, 0.7)
        pilots = optimal_pilots(bs_cov, L)
        verdict = verify_lemma(bs_cov, jam_cov, pilots, cfg, 2000, np.random.default_rng(3))
        assert verdict.num_samples == 2000
        assert verdict.best_random_objective <= verdict.optimal_objective + 1e-9
        assert verdict.optimal_objective == pytest.approx(
            float(jam_cov.evd.eigenvalues[:L].sum()), abs=1e-9
        )
        assert isinstance(verdict.mse_counterexample_found, bool)

    def test_zero_samples_reports_only_optimal(self):
        M, N, L = 6, 3, 2
        cfg = make_cfg(M, N, L)
        bs_cov = exponential_covariance(M, 0.7)
        jam_cov = exponential_covariance(N, 0.7)
        verdict = verify_lemma(
            bs_cov, jam_cov, optimal_pilots(bs_cov, L), cfg, 0, np.random.default_rng(0)
        )
        assert verdict.num_samples == 0
        assert verdict.best_random_objective is None
        assert verdict.best_random_mse is None
        assert not verdict.mse_counterexample_found
        assert verdict.optimal_mse > 0

    def test_trace_identity_matches_full_estimate_covariance(self):
        # the oracle evaluates MSE on the training-length system; it must
        # agree with the full-size estimate-covariance path
        M, N, L = 8, 4, 3
        cfg = make_cfg(M, N, L, r=0.6, rg=0.8)
        bs_cov = exponential_covariance(M, 0.6)
        jam_cov = exponential_covariance(N, 0.8)
        pilots = optimal_pilots(bs_cov, L)
        verdict = verify_lemma(bs_cov, jam_cov, pilots, cfg, 0, np.random.default_rng(0))
        jam = optimal_jamming(jam_cov, L)
        full = full_dimension_mse(pilots, jam, bs_cov, jam_cov, cfg, "jammer-aware")
        assert verdict.optimal_mse == pytest.approx(full, abs=1e-10)

    def test_rejects_jammer_covariance_size_mismatch(self):
        cfg = make_cfg(4, 3, 2)
        bs_cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError, match="jamm"):
            verify_lemma(
                bs_cov, exponential_covariance(2, 0.5), optimal_pilots(bs_cov, 2), cfg, 0,
                np.random.default_rng(0),
            )

    def test_rejects_negative_samples(self):
        cfg = make_cfg(4, 2, 2)
        bs_cov = exponential_covariance(4, 0.5)
        jam_cov = exponential_covariance(2, 0.5)
        with pytest.raises(ValueError, match="num_random"):
            verify_lemma(
                bs_cov, jam_cov, optimal_pilots(bs_cov, 2), cfg, -1,
                np.random.default_rng(0),
            )


class TestStrategyDominance:
    @pytest.mark.parametrize("rg", [0.4, 0.7, 0.9])
    @pytest.mark.parametrize("n_jam", [8, 16])
    @pytest.mark.parametrize("length", [2, 4, 8])
    def test_eigen_optimal_dominates_single_shot(self, rg, n_jam, length):
        M = 16
        cfg = make_cfg(M, n_jam, length, r=0.7, rg=rg)
        bs_cov = exponential_covariance(M, 0.7)
        jam_cov = exponential_covariance(n_jam, rg)
        pilots = optimal_pilots(bs_cov, length)
        mse_eig = scenario_closed_form_mse(
            pilots, optimal_jamming(jam_cov, length), bs_cov, jam_cov, cfg
        )
        mse_ss = scenario_closed_form_mse(
            pilots, single_shot_jamming(n_jam, length), bs_cov, jam_cov, cfg
        )
        assert mse_eig >= mse_ss - 1e-12
