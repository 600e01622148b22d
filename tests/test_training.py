"""Tests for pilot design, MMSE estimation and the closed-form and Monte-Carlo MSE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fddjam.training
from fddjam.channel import ChannelCovariance, exponential_covariance
from fddjam.jammer import optimal_jamming, single_shot_jamming
from fddjam.linalg import haar_orthonormal_columns
from fddjam.tolerances import HERMITIAN_ATOL
from fddjam.training import (
    ESTIMATOR_MODES,
    TrainingConfig,
    UnitaryBlock,
    _mmse_filter,
    empirical_mse,
    optimal_pilots,
    random_unitary_pilots,
    scenario_closed_form_mse,
    worst_case_pilots,
)
from oracles import estimate_covariance, full_dimension_mse

# Smallest admissible eigenvalue of the estimation-error covariance.
ERROR_COV_PSD_FLOOR = -1e-9


def make_cfg(M=8, N=4, L=4, pb=5.0, pj=5.0, nv=1.0, r=0.7, rg=None):
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


class TestTrainingConfig:
    def test_db_to_linear_relative_to_noise(self):
        cfg = make_cfg(pb=5.0, nv=1.0)
        assert cfg.bs_power == pytest.approx(10 ** 0.5)
        cfg = make_cfg(pb=0.0, nv=4.0)
        assert cfg.bs_power == pytest.approx(4.0)

    def test_noiseless_mode_uses_unit_reference(self):
        cfg = make_cfg(pb=0.0, nv=0.0)
        assert cfg.bs_power == pytest.approx(1.0)

    def test_minus_infinity_db_means_off(self):
        cfg = make_cfg(pb=float("-inf"))
        assert cfg.bs_power == 0.0

    def test_jammer_correlation_defaults_to_bs(self):
        cfg = make_cfg(r=0.6, rg=None)
        assert cfg.jammer_correlation == 0.6
        cfg = make_cfg(r=0.6, rg=0.2)
        assert cfg.jammer_correlation == 0.2

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="pilot_length"):
            make_cfg(M=4, L=5)
        with pytest.raises(ValueError, match="noise_variance"):
            make_cfg(nv=-1.0)
        with pytest.raises(ValueError, match="bs_correlation"):
            make_cfg(r=1.5)
        with pytest.raises(ValueError, match="num_bs_antennas"):
            make_cfg(M=0)
        with pytest.raises(ValueError, match="bs_power_db"):
            make_cfg(pb=float("nan"))
        with pytest.raises(ValueError, match="jammer_power_db"):
            make_cfg(pj=3100.0)
        with pytest.raises(ValueError, match="jammer_power_db"):
            make_cfg(pj=float("inf"))


class TestPilotDesigns:
    def test_optimal_identity_covariance_is_standard_basis(self):
        cov = exponential_covariance(5, 0.0)
        pilots = optimal_pilots(cov, 3)
        np.testing.assert_allclose(pilots.matrix, np.eye(5, dtype=complex)[:, :3], atol=1e-12)

    def test_optimal_two_antenna_closed_form(self):
        cov = exponential_covariance(2, 0.5)
        pilots = optimal_pilots(cov, 1)
        overlap = abs(np.vdot(pilots.matrix[:, 0], np.array([1, 1]) / np.sqrt(2)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_optimal_diagonalizes_covariance(self):
        cov = exponential_covariance(8, 0.7)
        pilots = optimal_pilots(cov, 3)
        congruence = pilots.matrix.conj().T @ cov.matrix @ pilots.matrix
        np.testing.assert_allclose(
            congruence, np.diag(cov.evd.eigenvalues[:3]), atol=1e-9
        )

    def test_worst_case_identity_is_complement(self):
        cov = exponential_covariance(5, 0.0)
        pilots = worst_case_pilots(cov, 2)
        np.testing.assert_allclose(pilots.matrix, np.eye(5, dtype=complex)[:, 3:], atol=1e-12)

    def test_worst_case_two_antenna_closed_form(self):
        cov = exponential_covariance(2, 0.5)
        pilots = worst_case_pilots(cov, 1)
        overlap = abs(np.vdot(pilots.matrix[:, 0], np.array([1, -1]) / np.sqrt(2)))
        assert overlap == pytest.approx(1.0, abs=1e-12)

    def test_worst_case_mse_at_least_optimal(self):
        cov = exponential_covariance(8, 0.7)
        cfg = make_cfg(M=8, L=3)
        m_opt = scenario_closed_form_mse(optimal_pilots(cov, 3), None, cov, None, cfg)
        m_wc = scenario_closed_form_mse(worst_case_pilots(cov, 3), None, cov, None, cfg)
        assert m_wc >= m_opt - 1e-12

    def test_random_unitary_orthonormal_over_draws(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            p = random_unitary_pilots(6, 3, rng)
            defect = np.linalg.norm(p.matrix.conj().T @ p.matrix - np.eye(3))
            assert defect <= 1e-10

    def test_square_case_is_unitary(self):
        p = random_unitary_pilots(4, 4, np.random.default_rng(1))
        np.testing.assert_allclose(
            p.matrix @ p.matrix.conj().T, np.eye(4), atol=1e-10
        )

    def test_random_pilot_mse_between_optimal_and_worst(self):
        cov = exponential_covariance(16, 0.7)
        cfg = make_cfg(M=16, L=4)
        m_opt = scenario_closed_form_mse(optimal_pilots(cov, 4), None, cov, None, cfg)
        m_wc = scenario_closed_form_mse(worst_case_pilots(cov, 4), None, cov, None, cfg)
        rng = np.random.default_rng(2)
        values = [
            scenario_closed_form_mse(random_unitary_pilots(16, 4, rng), None, cov, None, cfg)
            for _ in range(200)
        ]
        mean = float(np.mean(values))
        assert m_opt < mean < m_wc

    def test_rejects_bad_length(self):
        cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError):
            optimal_pilots(cov, 5)
        with pytest.raises(ValueError):
            worst_case_pilots(cov, 0)

    def test_pilot_matrix_validates_columns(self):
        with pytest.raises(ValueError, match="orthonormal"):
            UnitaryBlock(np.ones((4, 2), dtype=complex))


class TestEstimateCovariance:
    def test_identity_covariance_closed_form(self):
        M, L = 5, 3
        cfg = make_cfg(M=M, L=L, pb=0.0, nv=1.0, r=0.0)
        cov = exponential_covariance(M, 0.0)
        pilots = optimal_pilots(cov, L)
        est = estimate_covariance(pilots, None, cov, None, cfg)
        # pb = 1 linear: estimate covariance is L*pb/(L*pb + nv) on the pilot span
        gain = L * 1.0 / (L * 1.0 + 1.0)
        np.testing.assert_allclose(
            est, gain * (pilots.matrix @ pilots.matrix.conj().T), atol=1e-12
        )
        assert float(np.trace(est).real) == pytest.approx(gain * L, abs=1e-12)

    def test_vanishes_when_noise_dominates(self):
        # powers pinned in linear units while the noise grows; the estimate
        # covariance trace is M * (1 - MSE)
        cfg = make_cfg(M=8, L=4, pb=-80.0, nv=1e8, r=0.7)
        assert cfg.bs_power == pytest.approx(1.0)
        cov = exponential_covariance(8, 0.7)
        mse = scenario_closed_form_mse(optimal_pilots(cov, 4), None, cov, None, cfg)
        assert 8 * (1.0 - mse) <= 1e-6

    def test_matches_explicit_inverse_oracle(self):
        cfg = make_cfg(M=8, N=4, L=4, r=0.7)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(4, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = optimal_jamming(jcov, 4)
        est = estimate_covariance(pilots, jam, cov, jcov, cfg)
        mse = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg)
        # oracle path: same formula with an explicit matrix inverse
        phi, z = pilots.matrix, jam.matrix
        inner = (
            phi.conj().T @ cov.matrix @ phi
            + (cfg.jammer_power / cfg.bs_power) * (z.conj().T @ jcov.matrix @ z)
            + (cfg.noise_variance / (4 * cfg.bs_power)) * np.eye(4)
        )
        oracle = cov.matrix @ phi @ np.linalg.inv(inner) @ phi.conj().T @ cov.matrix
        assert abs(8 * (1.0 - mse) - np.trace(oracle).real) <= 1e-9
        np.testing.assert_allclose(est, oracle, atol=1e-9)

    @pytest.mark.parametrize("jamming_kind", ["silent", "single-shot", "eigen-optimal"])
    def test_hermitian_psd_and_error_covariance_psd(self, jamming_kind):
        cfg = make_cfg(M=12, N=6, L=4, r=0.8)
        cov = exponential_covariance(12, 0.8)
        jcov = exponential_covariance(6, 0.8)
        pilots = optimal_pilots(cov, 4)
        jam = {
            "silent": None,
            "single-shot": single_shot_jamming(6, 4),
            "eigen-optimal": optimal_jamming(jcov, 4),
        }[jamming_kind]
        est = estimate_covariance(pilots, jam, cov, jcov, cfg)
        assert np.max(np.abs(est - est.conj().T)) <= HERMITIAN_ATOL
        assert float(np.linalg.eigvalsh(est).min()) >= ERROR_COV_PSD_FLOOR
        assert float(np.linalg.eigvalsh(cov.matrix - est).min()) >= ERROR_COV_PSD_FLOOR

    def test_rejects_zero_bs_power(self):
        cfg = make_cfg(M=4, L=2, pb=float("-inf"))
        cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError, match="positive"):
            scenario_closed_form_mse(optimal_pilots(cov, 2), None, cov, None, cfg)


class TestClosedFormMse:
    def test_zero_estimate_covariance(self):
        # a vanishing BS power leaves the estimate at zero
        cfg = make_cfg(M=4, L=2, pb=-400.0)
        cov = exponential_covariance(4, 0.7)
        mse = scenario_closed_form_mse(optimal_pilots(cov, 2), None, cov, None, cfg)
        assert mse == pytest.approx(1.0)

    def test_perfect_estimate(self):
        # noiseless full-length training recovers the channel exactly
        cfg = make_cfg(M=4, L=4, pb=0.0, nv=0.0)
        cov = exponential_covariance(4, 0.7)
        mse = scenario_closed_form_mse(optimal_pilots(cov, 4), None, cov, None, cfg)
        assert mse == pytest.approx(0.0, abs=1e-15)

    def test_identity_covariance_analytic_value(self):
        cfg = make_cfg(M=4, L=2, pb=0.0, nv=1.0, r=0.0)
        cov = exponential_covariance(4, 0.0)
        mse = scenario_closed_form_mse(optimal_pilots(cov, 2), None, cov, None, cfg)
        assert mse == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_rejects_inconsistent_negative(self, monkeypatch):
        # a solver result inflated beyond the channel energy is caught
        cfg = make_cfg(M=4, L=2, r=0.0)
        cov = exponential_covariance(4, 0.0)
        solve = fddjam.training.solve_hpd
        monkeypatch.setattr(fddjam.training, "solve_hpd", lambda a, b: 1e6 * solve(a, b))
        with pytest.raises(ArithmeticError):
            scenario_closed_form_mse(optimal_pilots(cov, 2), None, cov, None, cfg)

    def test_monotone_in_pilot_length(self):
        cov = exponential_covariance(12, 0.7)
        values = []
        for L in range(1, 13):
            cfg = make_cfg(M=12, N=12, L=L)
            values.append(
                scenario_closed_form_mse(optimal_pilots(cov, L), None, cov, None, cfg)
            )
        assert np.all(np.diff(values) <= 1e-12)

    def test_jamming_never_helps(self):
        cfg = make_cfg(M=8, N=8, L=4, r=0.7)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(8, 0.7)
        pilots = optimal_pilots(cov, 4)
        silent = scenario_closed_form_mse(pilots, None, cov, jcov, cfg)
        rng = np.random.default_rng(8)
        for _ in range(50):
            jam = UnitaryBlock(haar_orthonormal_columns(8, 4, rng))
            jammed = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg)
            assert jammed >= silent - 1e-12


def random_covariance(size, rng, general):
    """Exponential covariance, or a general PSD one of random rank and scale."""
    if not general:
        return exponential_covariance(size, float(rng.uniform(0.0, 0.99)))
    rank = int(rng.integers(1, size + 1))
    a = rng.standard_normal((size, rank)) + 1j * rng.standard_normal((size, rank))
    c = float(rng.uniform(0.1, 3.0)) * (a @ a.conj().T) / rank
    return ChannelCovariance.from_matrix(0.5 * (c + c.conj().T), unit_diagonal=False)


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(
        m=st.integers(1, 12),
        n=st.integers(1, 12),
        data=st.data(),
        pb=st.floats(-10.0, 20.0),
        pj=st.floats(-10.0, 20.0),
        nv=st.floats(0.1, 10.0),
        general=st.booleans(),
        pilot=st.sampled_from(["random-unitary", "worst-case"]),
        jamming=st.sampled_from(["silent", "single-shot", "random-unitary"]),
        mode=st.sampled_from(ESTIMATOR_MODES),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_full_dimension_oracle(
        self, m, n, data, pb, pj, nv, general, pilot, jamming, mode, seed
    ):
        length = data.draw(st.integers(1, min(m, n)), label="length")
        rng = np.random.default_rng(seed)
        cfg = make_cfg(M=m, N=n, L=length, pb=pb, pj=pj, nv=nv)
        cov = random_covariance(m, rng, general)
        jcov = random_covariance(n, rng, general)
        pilots = (
            random_unitary_pilots(m, length, rng) if pilot == "random-unitary"
            else worst_case_pilots(cov, length)
        )
        jam = {
            "silent": None,
            "single-shot": single_shot_jamming(n, length),
            "random-unitary": UnitaryBlock(haar_orthonormal_columns(n, length, rng)),
        }[jamming]
        closed = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg, mode)
        oracle = full_dimension_mse(pilots, jam, cov, jcov, cfg, mode)
        assert abs(closed - oracle) <= 1e-10


class TestMmseEstimate:
    # the estimate from a received block y is _mmse_filter(...) @ y
    def test_zero_input_gives_zero_estimate(self):
        cfg = make_cfg(M=6, L=3)
        cov = exponential_covariance(6, 0.7)
        pilots = optimal_pilots(cov, 3)
        est = _mmse_filter(pilots, None, cov, None, cfg, "jammer-aware") @ np.zeros(3)
        assert np.all(est == 0)

    def test_noiseless_invertible_limit_recovers_channel(self):
        # full-length pilots, fixed unit power, noise pushed to 1e-10
        M = 6
        cfg = make_cfg(M=M, L=M, pb=100.0, nv=1e-10, r=0.7)
        assert cfg.bs_power == pytest.approx(1.0)
        cov = exponential_covariance(M, 0.7)
        pilots = optimal_pilots(cov, M)
        rng = np.random.default_rng(4)
        h = cov.evd.eigenvectors @ (
            np.sqrt(cov.evd.eigenvalues)
            * np.sqrt(0.5)
            * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        )
        noise = np.sqrt(cfg.noise_variance * 0.5) * (
            rng.standard_normal(M) + 1j * rng.standard_normal(M)
        )
        y = np.sqrt(M * cfg.bs_power) * (pilots.matrix.conj().T @ h) + noise
        est = _mmse_filter(pilots, None, cov, None, cfg, "jammer-aware") @ y
        assert np.linalg.norm(est - h) / np.linalg.norm(h) <= 1e-4

    def test_unaware_mode_drops_jamming_statistics(self):
        cfg = make_cfg(M=8, N=4, L=4)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(4, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = optimal_jamming(jcov, 4)
        y = np.ones(4, dtype=complex)
        aware = _mmse_filter(pilots, jam, cov, jcov, cfg, "jammer-aware") @ y
        unaware = _mmse_filter(pilots, jam, cov, jcov, cfg, "jammer-unaware") @ y
        silent_filter = _mmse_filter(pilots, None, cov, jcov, cfg, "jammer-aware") @ y
        assert not np.allclose(aware, unaware)
        np.testing.assert_allclose(unaware, silent_filter, atol=1e-12)

    def test_rejects_unknown_mode(self):
        cfg = make_cfg(M=4, L=2)
        cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError, match="estimator mode"):
            _mmse_filter(optimal_pilots(cov, 2), None, cov, None, cfg, "psychic")


class TestUnawareClosedForm:
    def test_reduces_to_aware_without_jammer(self):
        cfg = make_cfg(M=8, L=4)
        cov = exponential_covariance(8, 0.7)
        pilots = optimal_pilots(cov, 4)
        aware = scenario_closed_form_mse(pilots, None, cov, None, cfg, "jammer-aware")
        unaware = scenario_closed_form_mse(pilots, None, cov, None, cfg, "jammer-unaware")
        assert unaware == pytest.approx(aware, abs=1e-12)

    def test_mismatch_cannot_beat_mmse(self):
        cfg = make_cfg(M=8, N=8, L=4, r=0.7)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(8, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = optimal_jamming(jcov, 4)
        aware = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg, "jammer-aware")
        unaware = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg, "jammer-unaware")
        assert unaware >= aware - 1e-12

    def test_matches_monte_carlo(self):
        cfg = make_cfg(M=8, N=4, L=4, r=0.7)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(4, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = optimal_jamming(jcov, 4)
        closed = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg, "jammer-unaware")
        mc = empirical_mse(
            pilots, jam, cov, jcov, cfg,
            trials=50_000, rng=np.random.default_rng(12),
            estimator_mode="jammer-unaware",
        )
        assert abs(mc.mean - closed) <= 3 * mc.std_error


class TestEmpiricalMse:
    def test_single_noiseless_trial_is_exact(self):
        M = 4
        cfg = make_cfg(M=M, N=2, L=M, pb=0.0, nv=0.0, r=0.7)
        cov = exponential_covariance(M, 0.7)
        pilots = optimal_pilots(cov, M)
        mc = empirical_mse(
            pilots, None, cov, None, cfg, trials=1, rng=np.random.default_rng(0)
        )
        assert mc.mean <= 1e-12
        assert mc.std_error == 0.0

    def test_identity_scenario_matches_analytic_value(self):
        cfg = make_cfg(M=4, N=2, L=2, pb=0.0, nv=1.0, r=0.0)
        cov = exponential_covariance(4, 0.0)
        pilots = optimal_pilots(cov, 2)
        mc = empirical_mse(
            pilots, None, cov, None, cfg, trials=10_000, rng=np.random.default_rng(21)
        )
        assert abs(mc.mean - 2.0 / 3.0) <= 3 * mc.std_error

    def test_desk_scale_matches_closed_form(self):
        cfg = make_cfg(M=32, N=16, L=8, r=0.7)
        cov = exponential_covariance(32, 0.7)
        jcov = exponential_covariance(16, 0.7)
        pilots = optimal_pilots(cov, 8)
        jam = optimal_jamming(jcov, 8)
        closed = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg)
        mc = empirical_mse(
            pilots, jam, cov, jcov, cfg, trials=10_000, rng=np.random.default_rng(33)
        )
        assert abs(mc.mean - closed) / closed <= 0.02

    def test_deterministic_for_fixed_seed(self):
        cfg = make_cfg(M=8, N=4, L=4)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(4, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = single_shot_jamming(4, 4)
        a = empirical_mse(pilots, jam, cov, jcov, cfg, trials=5000, rng=np.random.default_rng(5))
        b = empirical_mse(pilots, jam, cov, jcov, cfg, trials=5000, rng=np.random.default_rng(5))
        assert a == b

    def test_rejects_bad_trials(self):
        cfg = make_cfg(M=4, L=2)
        cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError, match="trials"):
            empirical_mse(
                optimal_pilots(cov, 2), None, cov, None, cfg,
                trials=0, rng=np.random.default_rng(0),
            )

