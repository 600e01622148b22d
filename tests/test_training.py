"""Tests for pilot design, MMSE estimation and the closed-form and Monte-Carlo MSE."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fddjam.training
from fddjam.channel import ChannelCovariance, exponential_covariance
from fddjam.experiments import (
    JAMMING_CHOICES,
    Scenario,
    _build_jamming,
    _build_pilots,
    _covariances,
    _evaluate_point,
    _evaluate_scenario,
    config_for_point,
    figure_spec,
)
from fddjam.jammer import _LEMMA_STACK, optimal_jamming, single_shot_jamming, verify_lemma
from fddjam.linalg import _real_times, haar_orthonormal_columns
from fddjam.tolerances import HERMITIAN_ATOL
from fddjam.training import (
    ESTIMATOR_MODES,
    PILOT_DESIGNS,
    TrainingConfig,
    UnitaryBlock,
    _closed_form,
    _eigen_system,
    _MC_CHUNK,
    _jamming_term,
    _pilot_terms,
    _planes_times,
    _scales,
    _squared_errors,
    optimal_pilots,
    random_unitary_pilots,
    scenario_closed_form_mse,
    worst_case_pilots,
)
from oracles import (
    empirical_mse_direct,
    estimate_covariance,
    full_dimension_mse,
    mmse_filter,
    monte_carlo_mse,
    whitened_trials,
)

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
        cfg = make_cfg(pj=float("-inf"))
        assert cfg.jammer_power == 0.0

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
        with pytest.raises(ValueError, match="pilot_length"):
            make_cfg(L=True)
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
            congruence, np.diag(cov.eigenvalues[:3]), atol=1e-9
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
        with pytest.raises(ValueError, match="bs_power_db -inf leaves no finite noise_variance"):
            make_cfg(M=4, L=2, pb=float("-inf"))

    def test_rejects_bs_power_whose_system_bound_overflows(self):
        # noise_variance / bs_power is 1e308, finite; twice M plus it is not
        with pytest.raises(
            ValueError,
            match=r"bs_power_db -3080.0 overflows twice num_bs_antennas \+ noise_variance",
        ):
            make_cfg(M=2, L=1, pb=-3080.0)


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


class TestStackedJamming:
    """A stack of jamming terms, as the lemma oracle evaluates its candidates."""

    def inputs(self, M=8, N=6, L=3, n=9):
        cfg = make_cfg(M=M, N=N, L=L, rg=0.5)
        cov, jcov = exponential_covariance(M, 0.7), exponential_covariance(N, 0.5)
        zs = haar_orthonormal_columns(N, L, np.random.default_rng(n), n)
        return _pilot_terms(optimal_pilots(cov, L), cov, cfg), zs, jcov, cfg

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    @pytest.mark.parametrize("L", [1, 3, 6])
    def test_each_value_is_its_term_alone(self, L, mode):
        terms, zs, jcov, cfg = self.inputs(L=L)
        jams = _jamming_term(zs, _real_times(jcov.matrix, zs), cfg)
        assert jams.shape == (len(zs), L, L)
        for z, jam in zip(zs, jams):
            assert np.array_equal(jam, _jamming_term(z, _real_times(jcov.matrix, z), cfg))
        aware = mode == "jammer-aware"
        values = _closed_form(terms, jams, aware)
        assert values == [_closed_form(terms, jam, aware) for jam in jams]


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


@st.composite
def scenario_configs(draw):
    """Random feasible training configurations whose systems are definite."""
    m = draw(st.integers(1, 12), label="M")
    n = draw(st.integers(1, 12), label="N")
    return make_cfg(
        M=m,
        N=n,
        L=draw(st.integers(1, min(m, n)), label="L"),
        pb=draw(st.floats(-10.0, 20.0)),
        pj=draw(st.floats(-10.0, 20.0)),
        nv=draw(st.floats(0.1, 10.0)),
        r=draw(st.floats(0.0, 0.99)),
        rg=draw(st.floats(0.0, 0.99)),
    )


def row_mse(cfg, pilot, jamming, mode="jammer-aware", seed=0):
    """Closed-form MSE of one scenario as a sweep computes it."""
    [row] = _evaluate_point(
        cfg, (Scenario(pilot, jamming, mode),), 0, np.random.SeedSequence(seed), cfg.pilot_length
    )
    return row.closed_form_mse


class TestEigenInputs:
    """Closed-form inputs from eigenvalues against inputs built from blocks."""

    @settings(max_examples=200, deadline=None)
    @given(
        cfg=scenario_configs(),
        pilot=st.sampled_from(["optimal", "worst-case"]),
        jamming=st.sampled_from(JAMMING_CHOICES),
        mode=st.sampled_from(ESTIMATOR_MODES),
    )
    def test_match_block_inputs_and_oracle(self, cfg, pilot, jamming, mode):
        eigen = _closed_form(*_eigen_system(pilot, jamming, cfg), mode == "jammer-aware")
        cov, jcov = _covariances(cfg)
        length = cfg.pilot_length
        pilots = (optimal_pilots if pilot == "optimal" else worst_case_pilots)(cov, length)
        jam = {
            "silent": None,
            "single-shot": single_shot_jamming(cfg.num_jammer_antennas, length),
            "eigen-optimal": optimal_jamming(jcov, length),
        }[jamming]
        blocks = scenario_closed_form_mse(pilots, jam, cov, jcov, cfg, mode)
        oracle = full_dimension_mse(pilots, jam, cov, jcov, cfg, mode)
        assert abs(eigen - blocks) <= 1e-10
        assert abs(eigen - oracle) <= 1e-10

    def test_diagonal_system_with_zero_pivot_is_singular(self):
        terms = (np.array([4.0, 0.0]), np.array([4.0, 0.0]), 4.0, 4)
        with pytest.raises(np.linalg.LinAlgError, match="not positive definite"):
            _closed_form(terms, None, jammer_aware=True)

    def test_unit_correlation_spectrum_gives_singular_noiseless_system(self):
        cfg = make_cfg(M=4, N=4, L=2, nv=0.0, r=1.0)
        with pytest.warns(RuntimeWarning, match="rank-one"):
            terms, _ = _eigen_system("optimal", "silent", cfg)
        with pytest.raises(np.linalg.LinAlgError):
            _closed_form(terms, None, jammer_aware=True)


def spy_solves(monkeypatch):
    """``(lhs, rhs, result)`` dtypes of every ``solve_hpd`` call in training."""
    dtypes = []
    solve = fddjam.training.solve_hpd

    def spy(a, b):
        x = solve(a, b)
        dtypes.append((a.dtype, b.dtype, x.dtype))
        return x

    monkeypatch.setattr(fddjam.training, "solve_hpd", spy)
    return dtypes


def single_shot_figure_points():
    """(config, scenario) of every single-shot row of figures 1-3."""
    for figure in (1, 2, 3):
        spec = figure_spec(figure)
        for value in spec.axis_values:
            cfg = config_for_point(spec.base, spec.sweep_axis, value)
            for scenario in spec.scenarios:
                if scenario.jamming == "single-shot":
                    yield cfg, scenario


class TestSingleShotRows:
    """Single-shot rows are the closed-form rows that solve a real L x L system."""

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    def test_vector_g_equals_diagonal_matrix_bit_for_bit(self, mode):
        points = list(single_shot_figure_points())
        assert len(points) == 76
        for cfg, scenario in points:
            (k, g, trace_c, m), jam = _eigen_system(scenario.pilot_design, scenario.jamming, cfg)
            aware = mode == "jammer-aware"
            by_vector = _closed_form((k, g, trace_c, m), jam, aware)
            by_matrix = _closed_form((k, np.diag(g), trace_c, m), jam, aware)
            assert by_vector == by_matrix, (cfg, scenario)

    def test_solve_stays_real(self, monkeypatch):
        dtypes = spy_solves(monkeypatch)
        cfg, scenario = next(single_shot_figure_points())
        row_mse(cfg, scenario.pilot_design, scenario.jamming)
        assert dtypes == [(np.float64,) * 3]


class TestTrainingSystem:
    """``solve_hpd`` checks no symmetry: every system it is given is exactly Hermitian."""

    def test_every_lhs_is_finite_and_exactly_hermitian(self, monkeypatch):
        systems, solve = [], fddjam.training.solve_hpd

        def spy(a, b):
            systems.append(a)
            return solve(a, b)

        monkeypatch.setattr(fddjam.training, "solve_hpd", spy)
        # the 18 rows of tests/data/mse-18.txt
        cfg = make_cfg(M=16, N=16, L=4, pb=5.0, pj=5.0, r=0.7)
        for pilot in PILOT_DESIGNS:
            for jamming in JAMMING_CHOICES:
                for mode in ESTIMATOR_MODES:
                    _evaluate_point(
                        cfg, (Scenario(pilot, jamming, mode),), 500, np.random.SeedSequence(3), 4
                    )
        bs_cov, jam_cov = _covariances(cfg)
        pilots = random_unitary_pilots(16, 4, np.random.default_rng(1))
        verify_lemma(bs_cov, jam_cov, pilots, cfg, 2 * _LEMMA_STACK + 1, np.random.default_rng(2))
        # the eigen-optimal block, then two whole Haar stacks and one of one
        assert [len(a) for a in systems if a.ndim == 3] == [1, _LEMMA_STACK, _LEMMA_STACK, 1]
        for a in systems:
            assert np.all(np.isfinite(a))
            assert np.array_equal(a, a.conj().swapaxes(-2, -1))


def real_and_complex(cfg, pilot, jamming):
    """Scenario inputs ``(pilots, jamming, cov, jcov)`` from the exponential
    model as float64, and the same values stored as complex128."""
    cov, jcov = _covariances(cfg)
    real = (_build_pilots(pilot, cov, cfg.pilot_length, None),
            _build_jamming(jamming, jcov, cfg), cov, jcov)
    blocks = (None if b is None else UnitaryBlock(b.matrix.astype(complex)) for b in real[:2])
    covs = (ChannelCovariance(c.matrix.astype(complex), c.eigenvalues,
                              c.eigenvectors.astype(complex)) for c in real[2:])
    return real, (*blocks, *covs)


class TestRealDtype:
    """Blocks built from the exponential model are float64, and the dtype
    alone picks real arithmetic."""

    def test_eigen_blocks_are_float64(self):
        cov = exponential_covariance(8, 0.7)
        blocks = (optimal_pilots(cov, 3), worst_case_pilots(cov, 3),
                  optimal_jamming(cov, 3), single_shot_jamming(8, 3))
        assert cov.matrix.dtype == cov.eigenvectors.dtype == np.float64
        assert [b.matrix.dtype for b in blocks] == [np.float64] * 4
        haar = random_unitary_pilots(8, 3, np.random.default_rng(0))
        assert haar.matrix.dtype == np.complex128

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    @pytest.mark.parametrize("jamming", JAMMING_CHOICES)
    @pytest.mark.parametrize("pilot", ["optimal", "worst-case"])
    def test_eigen_pilot_filter_solves_in_float64(self, monkeypatch, pilot, jamming, mode):
        dtypes = spy_solves(monkeypatch)
        cfg = make_cfg(M=8, N=6, L=3, rg=0.5)
        a = mmse_filter(*real_and_complex(cfg, pilot, jamming)[0], cfg, mode)
        assert dtypes == [(np.float64,) * 3]
        assert a.dtype == np.float64

    def test_random_pilot_filter_solves_in_complex128(self, monkeypatch):
        dtypes = spy_solves(monkeypatch)
        cfg = make_cfg(M=8, N=6, L=3, rg=0.5)
        cov, jcov = _covariances(cfg)
        pilots = random_unitary_pilots(8, 3, np.random.default_rng(1))
        mmse_filter(pilots, optimal_jamming(jcov, 3), cov, jcov, cfg, "jammer-aware")
        assert dtypes == [(np.complex128,) * 3]

    @settings(max_examples=200, deadline=None)
    @given(
        cfg=scenario_configs(),
        pilot=st.sampled_from(["optimal", "worst-case"]),
        jamming=st.sampled_from(JAMMING_CHOICES),
        mode=st.sampled_from(ESTIMATOR_MODES),
    )
    def test_closed_form_agrees_with_complex128_storage(self, cfg, pilot, jamming, mode):
        real, complex_ = real_and_complex(cfg, pilot, jamming)
        got = scenario_closed_form_mse(*real, cfg, mode)
        want = scenario_closed_form_mse(*complex_, cfg, mode)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want))

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    @pytest.mark.parametrize("jamming", JAMMING_CHOICES)
    @pytest.mark.parametrize("pilot", ["optimal", "worst-case"])
    def test_monte_carlo_agrees_with_complex128_storage(self, pilot, jamming, mode):
        cfg = make_cfg(M=12, N=8, L=5, rg=0.5)
        real, complex_ = real_and_complex(cfg, pilot, jamming)
        got, want = (
            monte_carlo_mse(*inputs, cfg, trials=500, rng=np.random.default_rng(9),
                            estimator_mode=mode)
            for inputs in (real, complex_)
        )
        assert got.mean == pytest.approx(want.mean, rel=1e-13, abs=0)
        assert got.std_error == pytest.approx(want.std_error, rel=1e-13, abs=0)


class TestClosedFormInvariants:
    @settings(max_examples=150, deadline=None)
    @given(
        cfg=scenario_configs(),
        pilot=st.sampled_from(PILOT_DESIGNS),
        jamming=st.sampled_from(["single-shot", "eigen-optimal"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_aware_bounds_and_jamming_order(self, cfg, pilot, jamming, seed):
        silent = row_mse(cfg, pilot, "silent", seed=seed)
        aware = row_mse(cfg, pilot, jamming, seed=seed)
        unaware = row_mse(cfg, pilot, jamming, "jammer-unaware", seed=seed)
        for value in (silent, aware):
            assert 0.0 <= value <= 1.0  # tr C / M of a unit-diagonal covariance
        assert aware >= silent - 1e-12  # jamming never lowers the MMSE
        assert aware <= unaware + 1e-12  # the mismatched filter never beats it

    # Under jamming neither order holds in general: the acceptance suite has a
    # crossover against worst-case pilots.
    @settings(max_examples=100, deadline=None)
    @given(
        m=st.integers(1, 16),
        pb=st.floats(-10.0, 20.0),
        nv=st.floats(0.1, 10.0),
        r=st.floats(0.0, 0.99),
    )
    def test_silent_optimal_pilots_improve_with_length(self, m, pb, nv, r):
        optimal, worst = [], []
        for length in range(1, m + 1):
            cfg = make_cfg(M=m, N=m, L=length, pb=pb, nv=nv, r=r)
            optimal.append(row_mse(cfg, "optimal", "silent"))
            worst.append(row_mse(cfg, "worst-case", "silent"))
        assert np.all(np.diff(optimal) <= 1e-12)
        assert np.all(np.array(optimal) <= np.array(worst) + 1e-12)


class TestMmseEstimate:
    # the estimate from a received block y is mmse_filter(...) @ y
    def test_zero_input_gives_zero_estimate(self):
        cfg = make_cfg(M=6, L=3)
        cov = exponential_covariance(6, 0.7)
        pilots = optimal_pilots(cov, 3)
        est = mmse_filter(pilots, None, cov, None, cfg, "jammer-aware") @ np.zeros(3)
        assert np.all(est == 0)

    def test_noiseless_invertible_limit_recovers_channel(self):
        # full-length pilots, fixed unit power, noise pushed to 1e-10
        M = 6
        cfg = make_cfg(M=M, L=M, pb=100.0, nv=1e-10, r=0.7)
        assert cfg.bs_power == pytest.approx(1.0)
        cov = exponential_covariance(M, 0.7)
        pilots = optimal_pilots(cov, M)
        rng = np.random.default_rng(4)
        h = cov.eigenvectors @ (
            np.sqrt(cov.eigenvalues)
            * np.sqrt(0.5)
            * (rng.standard_normal(M) + 1j * rng.standard_normal(M))
        )
        noise = np.sqrt(cfg.noise_variance * 0.5) * (
            rng.standard_normal(M) + 1j * rng.standard_normal(M)
        )
        y = np.sqrt(M * cfg.bs_power) * (pilots.matrix.conj().T @ h) + noise
        est = mmse_filter(pilots, None, cov, None, cfg, "jammer-aware") @ y
        assert np.linalg.norm(est - h) / np.linalg.norm(h) <= 1e-4

    def test_unaware_mode_drops_jamming_statistics(self):
        cfg = make_cfg(M=8, N=4, L=4)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(4, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = optimal_jamming(jcov, 4)
        y = np.ones(4, dtype=complex)
        aware = mmse_filter(pilots, jam, cov, jcov, cfg, "jammer-aware") @ y
        unaware = mmse_filter(pilots, jam, cov, jcov, cfg, "jammer-unaware") @ y
        silent_filter = mmse_filter(pilots, None, cov, jcov, cfg, "jammer-aware") @ y
        assert not np.allclose(aware, unaware)
        np.testing.assert_allclose(unaware, silent_filter, atol=1e-12)

    def test_rejects_unknown_mode(self):
        cfg = make_cfg(M=4, L=2)
        cov = exponential_covariance(4, 0.5)
        with pytest.raises(ValueError, match="estimator mode"):
            mmse_filter(optimal_pilots(cov, 2), None, cov, None, cfg, "psychic")


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
        mc = monte_carlo_mse(
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
        mc = monte_carlo_mse(
            pilots, None, cov, None, cfg, trials=1, rng=np.random.default_rng(0)
        )
        assert mc.mean <= 1e-12
        assert mc.std_error == 0.0

    def test_identity_scenario_matches_analytic_value(self):
        cfg = make_cfg(M=4, N=2, L=2, pb=0.0, nv=1.0, r=0.0)
        cov = exponential_covariance(4, 0.0)
        pilots = optimal_pilots(cov, 2)
        mc = monte_carlo_mse(
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
        mc = monte_carlo_mse(
            pilots, jam, cov, jcov, cfg, trials=10_000, rng=np.random.default_rng(33)
        )
        assert abs(mc.mean - closed) / closed <= 0.02

    def test_deterministic_for_fixed_seed(self):
        cfg = make_cfg(M=8, N=4, L=4)
        cov = exponential_covariance(8, 0.7)
        jcov = exponential_covariance(4, 0.7)
        pilots = optimal_pilots(cov, 4)
        jam = single_shot_jamming(4, 4)
        a, b = (
            monte_carlo_mse(pilots, jam, cov, jcov, cfg, trials=5000, rng=np.random.default_rng(5))
            for _ in range(2)
        )
        assert a == b


class TestWhitenedMonteCarlo:
    """The trial on real and imaginary planes in the eigenbasis against the
    complex-vector trial in the antenna basis, on the same normals."""

    @staticmethod
    def assert_matches_direct(pilots, jamming, cov, jcov, cfg, trials, mode="jammer-aware"):
        args = (pilots, jamming, cov, jcov, cfg)
        got = monte_carlo_mse(*args, trials=trials, rng=np.random.default_rng(7),
                              estimator_mode=mode)
        want = empirical_mse_direct(*args, trials=trials, rng=np.random.default_rng(7),
                                    estimator_mode=mode)
        assert got.mean == pytest.approx(want.mean, rel=1e-12, abs=0)
        assert got.std_error == pytest.approx(want.std_error, rel=1e-12, abs=0)

    @pytest.mark.parametrize("nv", [1.0, 0.0])
    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    @pytest.mark.parametrize("jamming", JAMMING_CHOICES)
    @pytest.mark.parametrize("design", ["optimal", "random-unitary"])
    def test_matches_complex_trials(self, design, jamming, mode, nv):
        # eigen pilots give real gains and a real filter; random ones complex
        M, N, L = 8, 6, 3
        cfg = make_cfg(M=M, N=N, L=L, nv=nv, rg=0.5)
        cov, jcov = exponential_covariance(M, 0.7), exponential_covariance(N, 0.5)
        if design == "optimal":
            pilots = optimal_pilots(cov, L)
        else:
            pilots = random_unitary_pilots(M, L, np.random.default_rng(3))
        block = {"silent": None, "single-shot": single_shot_jamming(N, L),
                 "eigen-optimal": optimal_jamming(jcov, L)}[jamming]
        self.assert_matches_direct(pilots, block, cov, jcov, cfg, 300, mode)

    def test_trials_spanning_two_chunks(self):
        cfg = make_cfg(M=4, N=4, L=2)
        cov = exponential_covariance(4, 0.7)
        jam = optimal_jamming(cov, 2)
        self.assert_matches_direct(optimal_pilots(cov, 2), jam, cov, cov, cfg, _MC_CHUNK + 37)

    def test_general_covariances(self):
        # complex eigenvectors and a rank-deficient spectrum on both links
        rng = np.random.default_rng(11)
        cov = random_covariance(7, rng, general=True)
        jcov = random_covariance(5, rng, general=True)
        cfg = make_cfg(M=7, N=5, L=3)
        pilots = random_unitary_pilots(7, 3, rng)
        jam = UnitaryBlock(haar_orthonormal_columns(5, 3, rng))
        for mode in ESTIMATOR_MODES:
            self.assert_matches_direct(pilots, jam, cov, jcov, cfg, 200, mode)

    def test_real_gain_multiplies_each_plane(self):
        rng = np.random.default_rng(5)
        gain, x = rng.standard_normal((5, 3)), rng.standard_normal((2, 3, 9))
        got = _planes_times(gain, x)
        assert np.array_equal(got[0], gain @ x[0]) and np.array_equal(got[1], gain @ x[1])

    def test_vector_gain_is_a_diagonal_matrix(self):
        rng = np.random.default_rng(6)
        gain, x = rng.standard_normal(4), rng.standard_normal((2, 4, 9))
        assert np.array_equal(_planes_times(gain, x), np.diag(gain) @ x)

    @pytest.mark.parametrize("imaginary", [0.0, 1.0])
    def test_planes_product_is_the_complex_product(self, imaginary):
        rng = np.random.default_rng(4)
        gain = rng.standard_normal((5, 3)) + imaginary * 1j * rng.standard_normal((5, 3))
        x = rng.standard_normal((2, 3, 9))
        got = _planes_times(gain, x)
        want = gain @ (x[0] + 1j * x[1])
        assert got.shape == (2, 5, 9)
        np.testing.assert_allclose(got[0] + 1j * got[1], want, rtol=1e-13, atol=1e-13)


class TestSpectralTrial:
    """Eigen pilots run their Monte-Carlo trial from the spectra; per trial it
    matches the dense whitened trial on the same planes to round-off."""

    @pytest.mark.filterwarnings("ignore:correlation coefficient 1:RuntimeWarning")
    @pytest.mark.parametrize("r", [0.7, 1.0], ids=["r0.7", "rank-one"])
    @pytest.mark.parametrize("M,L", [(8, 1), (8, 7), (8, 8), (16, 1), (16, 15), (16, 16)])
    def test_matches_dense_trial_per_trial(self, M, L, r):
        self.check(make_cfg(M=M, N=M, L=L, r=r, rg=0.5))

    def test_left_out_row_energy_keeps_its_digits(self):
        # At 40 dB the selected rows' error is small and the one left-out row
        # is weak (r = 0.99): taking its energy as all rows' energy minus the
        # selected rows' loses about 1e-11 relative per trial.
        self.check(make_cfg(M=8, N=8, L=7, r=0.99, rg=0.5, pb=40.0))

    @staticmethod
    def check(cfg):
        M, L = cfg.num_bs_antennas, cfg.pilot_length
        bs_cov, jam_cov = _covariances(cfg)
        rng = np.random.default_rng(M * L)
        e, g, n = (rng.standard_normal((2, rows, 64)) for rows in (M, M, L))
        cases = [(design, jamming, mode) for design in ("optimal", "worst-case")
                 for jamming in JAMMING_CHOICES for mode in ESTIMATOR_MODES]
        # one call for every case, as a sweep's chunk shares its planes
        gains = [
            _evaluate_scenario(cfg, Scenario(*case), 1, (bs_cov, jam_cov), None)[1]
            for case in cases
        ]
        noise = np.sqrt(cfg.noise_variance * 0.5) * n
        got = _squared_errors(gains, _scales(bs_cov), e, g, noise) / M
        for row, (design, jamming, mode) in zip(got, cases):
            pilots = _build_pilots(design, bs_cov, L, None)
            block = _build_jamming(jamming, jam_cov, cfg)
            want = whitened_trials(pilots, block, bs_cov, jam_cov, cfg, mode, e, g, n)
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0,
                                       err_msg=f"{design}/{jamming}/{mode}")
