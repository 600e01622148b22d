"""Tests for jamming strategies and the design-verification oracle."""

import threading

import numpy as np
import pytest

import fddjam.jammer
import fddjam.training
from fddjam.channel import ChannelCovariance, exponential_covariance
from fddjam.jammer import (
    _LEMMA_STACK,
    _lemma_terms,
    optimal_jamming,
    single_shot_jamming,
    verify_lemma,
)
from fddjam.linalg import _real_times, haar_orthonormal_columns
from fddjam.training import (
    ESTIMATOR_MODES,
    TrainingConfig,
    UnitaryBlock,
    _closed_form,
    _jamming_term,
    _pilot_terms,
    optimal_pilots,
    random_unitary_pilots,
    scenario_closed_form_mse,
    worst_case_pilots,
)
from oracles import full_dimension_mse, jamming_objective, verify_lemma_one_by_one

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
        target = np.diag(cov.eigenvalues[:3])
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
        top = float(cov.eigenvalues[:3].sum())
        rng = np.random.default_rng(17)
        for _ in range(500):
            jam = UnitaryBlock(haar_orthonormal_columns(6, 3, rng))
            assert jamming_objective(jam, cov) <= top + 1e-9

    def test_bounded_by_extreme_eigenvalue_sums(self):
        cov = exponential_covariance(6, 0.9)
        lo = float(cov.eigenvalues[-3:].sum())
        hi = float(cov.eigenvalues[:3].sum())
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
            float(jam_cov.eigenvalues[:L].sum()), abs=1e-9
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


# (M, N, L, pilot design): N != M both ways, L = 1 and L = N.
LEMMA_CONFIGS = [
    (8, 6, 3, "optimal"),
    (6, 9, 2, "worst-case"),
    (7, 5, 1, "random-unitary"),
    (8, 4, 4, "optimal"),
    (5, 5, 5, "random-unitary"),
]


def lemma_inputs(M, N, L, design, seed):
    """Covariances, pilots, config and generator of one lemma run."""
    cfg = make_cfg(M, N, L, r=0.7, rg=0.5)
    bs_cov = exponential_covariance(M, 0.7)
    jam_cov = exponential_covariance(N, 0.5)
    rng = np.random.default_rng(seed)
    pilots = {
        "optimal": lambda: optimal_pilots(bs_cov, L),
        "worst-case": lambda: worst_case_pilots(bs_cov, L),
        "random-unitary": lambda: random_unitary_pilots(M, L, rng),
    }[design]()
    return bs_cov, jam_cov, pilots, cfg, rng


def lemma_outcome(run, config, seed, num_random):
    """A lemma run's verdict and generator state, or its error's type and message."""
    bs_cov, jam_cov, pilots, cfg, rng = lemma_inputs(*config, seed)
    try:
        return run(bs_cov, jam_cov, pilots, cfg, num_random, rng), rng.bit_generator.state
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


class TestStackedLemma:
    """verify_lemma against the one-candidate-at-a-time loop it replaced."""

    @pytest.mark.parametrize("num_random", [0, 1, 31, 32, 33, 100])
    def test_bit_identical_for_any_stack_split(self, num_random):
        config = LEMMA_CONFIGS[0]
        got = lemma_outcome(verify_lemma, config, 11, num_random)
        assert got == lemma_outcome(verify_lemma_one_by_one, config, 11, num_random)
        assert got[0].num_samples == num_random

    @pytest.mark.parametrize("config", LEMMA_CONFIGS, ids=lambda c: "M{}-N{}-L{}-{}".format(*c))
    def test_bit_identical_for_every_design_and_shape(self, config):
        got = lemma_outcome(verify_lemma, config, 4, 100)
        assert got == lemma_outcome(verify_lemma_one_by_one, config, 4, 100)

    def test_draws_whole_stacks(self, monkeypatch):
        draw, counts = fddjam.jammer.haar_orthonormal_columns, []

        def counted_draw(rows, cols, rng, count, *, workspace):
            counts.append(count)
            return draw(rows, cols, rng, count, workspace=workspace)

        monkeypatch.setattr(fddjam.jammer, "haar_orthonormal_columns", counted_draw)
        lemma_outcome(verify_lemma, LEMMA_CONFIGS[0], 1, 2 * _LEMMA_STACK + 5)
        assert counts == [_LEMMA_STACK, _LEMMA_STACK, 5]

    def test_singular_system_raises_like_the_loop(self):
        # noiseless, rank-one covariances: K + J is singular for L = 3
        cfg = make_cfg(6, 6, 3, nv=0.0, r=1.0, rg=1.0)
        with pytest.warns(RuntimeWarning, match="rank-one"):
            cov = exponential_covariance(6, 1.0)
        inputs = (cov, cov, optimal_pilots(cov, 3), cfg)
        before = threading.active_count()
        with pytest.raises(np.linalg.LinAlgError) as got:
            verify_lemma(*inputs, 100, np.random.default_rng(0))
        assert threading.active_count() == before
        with pytest.raises(np.linalg.LinAlgError) as want:
            verify_lemma_one_by_one(*inputs, 100, np.random.default_rng(0))
        assert str(got.value) == str(want.value) == "matrix is not positive definite"

    @staticmethod
    def fail_solves_above(monkeypatch, threshold):
        """Make ``_closed_form``'s solves fail where Re K_est[0, 1] > threshold.

        The message carries the largest value of the call, so a stacked call
        with two failing candidates names another candidate than a single
        one. Returns the log of each call's values.
        """
        solve, calls = fddjam.training.solve_hpd, []

        def failing_solve(a, b):
            off = np.asarray(a)[..., 0, 1].real.reshape(-1)
            calls.append(off)
            if np.any(off > threshold):
                raise np.linalg.LinAlgError(f"injected at {off.max()!r}")
            return solve(a, b)

        monkeypatch.setattr(fddjam.training, "solve_hpd", failing_solve)
        return calls

    def test_one_failing_candidate_raises_like_the_loop(self, monkeypatch):
        # With seed 2, candidate 55 is the only one of the second stack, and
        # the first of all candidates, above 0.36; the first stack passes.
        calls = self.fail_solves_above(monkeypatch, 0.36)
        config = LEMMA_CONFIGS[0]
        got = lemma_outcome(verify_lemma, config, 2, 200)
        assert len(calls) == 1 + 2  # the optimal block, then two stacks
        assert np.flatnonzero(calls[-1] > 0.36).tolist() == [55 - _LEMMA_STACK]
        calls.clear()
        want = lemma_outcome(verify_lemma_one_by_one, config, 2, 200)
        assert len(calls) == 1 + 56  # the optimal block, then candidates 0..55
        assert want[0] is np.linalg.LinAlgError
        assert got == want


class TestLemmaTerms:
    """verify_lemma's pilot terms, with R of CP = QR in place of CP."""

    @staticmethod
    def mses_both_ways(bs_cov, jam_cov, pilots, cfg, rng, mode):
        """Closed-form MSEs of the eigen-optimal block and 40 Haar blocks from
        the ``R`` terms and from the ``CP`` terms, and that ``R``."""
        zs = np.concatenate([
            optimal_jamming(jam_cov, pilots.length).matrix[None],
            haar_orthonormal_columns(jam_cov.size, pilots.length, rng, 40),
        ])
        jams = _jamming_term(zs, _real_times(jam_cov.matrix, zs), cfg)
        aware = mode == "jammer-aware"
        r_terms = _lemma_terms(pilots, bs_cov, cfg)
        return (_closed_form(r_terms, jams, aware),
                _closed_form(_pilot_terms(pilots, bs_cov, cfg), jams, aware), r_terms[1])

    @pytest.mark.parametrize("mode", ESTIMATOR_MODES)
    @pytest.mark.parametrize("config", LEMMA_CONFIGS, ids=lambda c: "M{}-N{}-L{}-{}".format(*c))
    def test_r_terms_give_the_cp_terms_mses(self, config, mode):
        bs_cov, jam_cov, pilots, cfg, rng = lemma_inputs(*config, 8)
        got, want, r = self.mses_both_ways(bs_cov, jam_cov, pilots, cfg, rng, mode)
        length = config[2]
        assert r.shape == (length, length)
        # random pilots make CP, and so R, complex
        assert np.iscomplexobj(r) == (config[3] == "random-unitary")
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("design", ["optimal", "random-unitary"])
    def test_rank_one_bs_covariance(self, design):
        # C = 11ᵀ makes CP rank one, so R has one nonzero row
        M, N, L = 8, 6, 3
        cfg = make_cfg(M, N, L, r=1.0, rg=0.5)
        with pytest.warns(RuntimeWarning, match="rank-one"):
            bs_cov = exponential_covariance(M, 1.0)
        rng = np.random.default_rng(9)
        pilots = (optimal_pilots(bs_cov, L) if design == "optimal"
                  else random_unitary_pilots(M, L, rng))
        got, want, r = self.mses_both_ways(
            bs_cov, exponential_covariance(N, 0.5), pilots, cfg, rng, "jammer-aware"
        )
        assert np.linalg.matrix_rank(r) == 1
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_pilot_lemma_matches_its_cp_terms(self, monkeypatch, seed):
        # the verdict of a 32x8 random-pilot lemma run, against every MSE
        # evaluated from the CP terms
        M, N, L = 32, 32, 8
        cfg = make_cfg(M, N, L, r=0.7)
        bs_cov = exponential_covariance(M, 0.7)
        rng = np.random.default_rng(seed)
        pilots = random_unitary_pilots(M, L, rng)
        cp_terms = _pilot_terms(pilots, bs_cov, cfg)
        evaluate, seen = fddjam.jammer._closed_form, []

        def spy(terms, jam, aware):
            mses = evaluate(terms, jam, aware)
            np.testing.assert_allclose(mses, evaluate(cp_terms, jam, aware), rtol=1e-12, atol=0)
            seen.extend(mses)
            return mses

        monkeypatch.setattr(fddjam.jammer, "_closed_form", spy)
        verdict = verify_lemma(bs_cov, bs_cov, pilots, cfg, 100, rng)
        assert len(seen) == 1 + 100
        assert verdict.best_random_mse == max(seen[1:])


class TestSquareBlocks:
    """With N = L every block is unitary, so every trace objective is tr C_j.

    Householder Q keeps each objective within round-off of it; forming J
    from the Gaussian block and R⁻¹ instead of Q put one of 20,000
    objectives at 16x16 2.5e-9 above it, past KY_FAN_SLACK.
    """

    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("size", [16, 5])
    def test_every_objective_is_the_trace(self, monkeypatch, size, seed):
        cfg = make_cfg(16, size, size, rg=0.9)
        bs_cov, jam_cov = exponential_covariance(16, 0.7), exponential_covariance(size, 0.9)
        evaluate, objectives = fddjam.jammer._closed_form, []

        def spy(terms, jam, aware):
            # equal powers make J the congruence (C_jZ)ᴴZ itself
            objectives.extend(np.trace(jam, axis1=-2, axis2=-1).real)
            return evaluate(terms, jam, aware)

        monkeypatch.setattr(fddjam.jammer, "_closed_form", spy)
        assert cfg.jammer_power / cfg.bs_power == 1.0
        verdict = verify_lemma(
            bs_cov, jam_cov, optimal_pilots(bs_cov, size), cfg, 2000,
            np.random.default_rng(seed),
        )
        trace = float(size)  # the unit diagonal
        assert len(objectives) == 1 + 2000
        assert verdict.optimal_objective == objectives[0]
        assert verdict.best_random_objective == max(objectives[1:])
        assert np.max(np.abs(np.array(objectives) - trace)) <= 1e-12 * trace


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
