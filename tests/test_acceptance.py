"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion.
"""

import numpy as np
import pytest

from fddjam.channel import exponential_covariance
from fddjam.experiments import (
    Scenario,
    ExperimentSpec,
    figure_spec,
    load_metadata_spec,
    metadata_path,
    run_sweep,
    write_results,
)
from fddjam.jammer import optimal_jamming, single_shot_jamming
from fddjam.linalg import haar_orthonormal_columns
from fddjam.training import (
    TrainingConfig,
    empirical_mse,
    optimal_pilots,
    random_unitary_pilots,
    scenario_closed_form_mse,
    worst_case_pilots,
)
from oracles import estimate_covariance


def report(criterion, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def figure_rows():
    return {n: run_sweep(figure_spec(n)) for n in (1, 2, 3)}


def curve(rows, pilot, jamming):
    """(axis, closed-form MSE) points of one scenario, in axis order."""
    return [
        (r.axis_value, r.closed_form_mse)
        for r in rows
        if r.pilot_design == pilot and r.jamming == jamming
    ]


def test_criterion_1_saturation_under_attack(figure_rows):
    # full scale: M=100, both correlations, optimal pilots under
    # eigen-optimal jamming saturate near 0.5 at L = M
    endpoints = {}
    for figure in (1, 2):
        points = curve(figure_rows[figure], "optimal", "eigen-optimal")
        assert points[-1][0] == 100
        endpoints[figure] = points[-1][1]
    ok = all(abs(v - 0.5) <= 0.1 for v in endpoints.values())
    report(
        1, ok,
        f"jammed MSE at L=100: r=0.4 -> {endpoints[1]:.4f}, "
        f"r=0.7 -> {endpoints[2]:.4f} (window 0.5 +/- 0.1)",
    )


def test_criterion_2_no_jammer_decay(figure_rows):
    details = []
    ok = True
    for figure in (1, 2):
        values = [v for _, v in curve(figure_rows[figure], "optimal", "silent")]
        decreasing = all(b < a + 1e-12 and b != a for a, b in zip(values, values[1:]))
        endpoint = values[-1]
        ok = ok and decreasing and endpoint <= 0.05
        details.append(f"fig{figure}: decreasing={decreasing}, MSE(L=100)={endpoint:.5f}")
    report(2, ok, "; ".join(details) + " (threshold 0.05)")


def test_criterion_3_worst_case_crossover(figure_rows):
    jammed = curve(figure_rows[1], "optimal", "eigen-optimal")
    worst_silent = curve(figure_rows[1], "worst-case", "silent")
    axis = [a for a, _ in jammed]
    top_quartile = axis[-(len(axis) // 4):]
    flips = [
        a for (a, mj), (_, mw) in zip(jammed, worst_silent)
        if a in top_quartile and mj >= mw - 1e-12
    ]
    report(
        3, bool(flips),
        f"jammed/optimal meets or exceeds silent/worst-case at L in {flips} "
        f"(top quartile {top_quartile})",
    )


def test_criterion_4_growing_array_non_monotonic(figure_rows):
    values = [v for _, v in curve(figure_rows[3], "optimal", "eigen-optimal")]
    axis = [a for a, _ in curve(figure_rows[3], "optimal", "eigen-optimal")]
    i = int(np.argmin(values))
    interior = 0 < i < len(values) - 1
    ok = interior and values[i] < values[0] and values[i] < values[-1]
    report(
        4, ok,
        f"minimum {values[i]:.4f} at M={axis[i]} vs endpoints "
        f"{values[0]:.4f} (M={axis[0]}) and {values[-1]:.4f} (M={axis[-1]})",
    )


def test_criterion_5_monte_carlo_agreement():
    cfg = TrainingConfig(
        num_bs_antennas=32, num_jammer_antennas=16, pilot_length=8,
        bs_power_db=5.0, jammer_power_db=5.0, bs_correlation=0.7,
    )
    bs_cov = exponential_covariance(32, 0.7)
    jam_cov = exponential_covariance(16, 0.7)
    pilots = optimal_pilots(bs_cov, 8)
    strategies = {
        "silent": None,
        "single-shot": single_shot_jamming(16, 8),
        "eigen-optimal": optimal_jamming(jam_cov, 8),
    }
    details = []
    ok = True
    for index, (name, jam) in enumerate(strategies.items()):
        closed = scenario_closed_form_mse(pilots, jam, bs_cov, jam_cov, cfg)
        coarse = empirical_mse(
            pilots, jam, bs_cov, jam_cov, cfg,
            trials=10_000, rng=np.random.default_rng(100 + index),
        )
        fine = empirical_mse(
            pilots, jam, bs_cov, jam_cov, cfg,
            trials=100_000, rng=np.random.default_rng(200 + index),
        )
        within_se = abs(coarse.mean - closed) <= 3 * coarse.std_error
        within_rel = abs(fine.mean - closed) / closed <= 0.02
        ok = ok and within_se and within_rel
        details.append(
            f"{name}: closed={closed:.4f}, 1e4-trial dev="
            f"{abs(coarse.mean - closed) / coarse.std_error:.2f} SE, "
            f"1e5-trial rel={abs(fine.mean - closed) / closed:.4%}"
        )
    report(5, ok, "; ".join(details))


def test_criterion_6_ky_fan_property_suite():
    rng = np.random.default_rng(2024)
    worst_excess = -np.inf
    worst_attain = 0.0
    checked = 0
    for n_jam in (4, 8, 16):
        for length in range(1, n_jam + 1):
            for corr in (0.0, 0.4, 0.7, 0.9, 0.99):
                cov = exponential_covariance(n_jam, corr)
                top_sum = float(cov.evd.eigenvalues[:length].sum())
                optimal = optimal_jamming(cov, length)
                attained = float(
                    np.vdot(optimal.matrix, cov.matrix @ optimal.matrix).real
                )
                worst_attain = max(worst_attain, abs(attained - top_sum))
                for _ in range(500):
                    z = haar_orthonormal_columns(n_jam, length, rng)
                    objective = float(np.vdot(z, cov.matrix @ z).real)
                    worst_excess = max(worst_excess, objective - attained)
                checked += 500
    ok = worst_excess <= 1e-9 and worst_attain <= 1e-9
    report(
        6, ok,
        f"{checked} random blocks: max excess over eigen-optimal "
        f"{worst_excess:.2e} (<= 1e-9), max |attained - top eigenvalue sum| "
        f"{worst_attain:.2e} (<= 1e-9)",
    )


def test_criterion_7_pilot_optimality_suite():
    rng = np.random.default_rng(4096)
    worst_beat_optimal = -np.inf
    worst_beat_worst_case = -np.inf
    checked = 0
    for n_bs in (8, 16):
        for length in (2, 4, 8):
            for corr in (0.4, 0.7, 0.9):
                cfg = TrainingConfig(
                    num_bs_antennas=n_bs, num_jammer_antennas=n_bs,
                    pilot_length=length, bs_power_db=5.0, jammer_power_db=5.0,
                    bs_correlation=corr,
                )
                cov = exponential_covariance(n_bs, corr)
                mse_opt = scenario_closed_form_mse(
                    optimal_pilots(cov, length), None, cov, None, cfg
                )
                mse_wc = scenario_closed_form_mse(
                    worst_case_pilots(cov, length), None, cov, None, cfg
                )
                for _ in range(500):
                    pilots = random_unitary_pilots(n_bs, length, rng)
                    value = scenario_closed_form_mse(pilots, None, cov, None, cfg)
                    worst_beat_optimal = max(worst_beat_optimal, mse_opt - value)
                    worst_beat_worst_case = max(worst_beat_worst_case, value - mse_wc)
                checked += 500
    ok = worst_beat_optimal <= 1e-12 and worst_beat_worst_case <= 1e-12
    report(
        7, ok,
        f"{checked} random pilots: max improvement over optimal "
        f"{worst_beat_optimal:.2e} (<= 1e-12), max excess over worst-case "
        f"{worst_beat_worst_case:.2e} (<= 1e-12)",
    )


def test_criterion_8_structural_invariants(tmp_path):
    # invariants over a mixed scenario grid
    grids = [
        (100, 100, 20, 0.4),
        (100, 100, 60, 0.7),
        (32, 16, 8, 0.7),
        (16, 8, 8, 0.9),
    ]
    checks = 0
    for n_bs, n_jam, length, corr in grids:
        cfg = TrainingConfig(
            num_bs_antennas=n_bs, num_jammer_antennas=n_jam, pilot_length=length,
            bs_power_db=5.0, jammer_power_db=5.0, bs_correlation=corr,
        )
        bs_cov = exponential_covariance(n_bs, corr)
        jam_cov = exponential_covariance(n_jam, corr)
        for pilots in (optimal_pilots(bs_cov, length), worst_case_pilots(bs_cov, length)):
            for jam in (None, single_shot_jamming(n_jam, length),
                        optimal_jamming(jam_cov, length)):
                gram_p = pilots.matrix.conj().T @ pilots.matrix
                assert np.linalg.norm(gram_p - np.eye(length)) <= 1e-10
                if jam is not None:
                    gram_z = jam.matrix.conj().T @ jam.matrix
                    assert np.linalg.norm(gram_z - np.eye(length)) <= 1e-10
                est = estimate_covariance(pilots, jam, bs_cov, jam_cov, cfg)
                assert np.max(np.abs(est - est.conj().T)) <= 1e-10
                assert float(np.linalg.eigvalsh(est).min()) >= -1e-9
                assert float(np.linalg.eigvalsh(bs_cov.matrix - est).min()) >= -1e-9
                mse = scenario_closed_form_mse(pilots, jam, bs_cov, jam_cov, cfg)
                assert 0.0 <= mse <= 1.0
                checks += 1

    # any CSV regenerates byte-identically from its metadata seed
    spec = ExperimentSpec(
        base=TrainingConfig(
            num_bs_antennas=16, num_jammer_antennas=8, pilot_length=2,
            bs_power_db=5.0, jammer_power_db=5.0, bs_correlation=0.7,
        ),
        sweep_axis="pilot_length",
        axis_values=(2, 4, 8),
        scenarios=(
            Scenario("optimal", "silent"),
            Scenario("optimal", "eigen-optimal"),
            Scenario("random-unitary", "single-shot"),
        ),
        monte_carlo_trials=500,
        seed=42,
    )
    first = tmp_path / "run.csv"
    write_results(run_sweep(spec), first, spec=spec)
    rebuilt_spec = load_metadata_spec(metadata_path(first))
    second = tmp_path / "rerun.csv"
    write_results(run_sweep(rebuilt_spec), second, spec=rebuilt_spec)
    regenerated = first.read_bytes() == second.read_bytes()

    report(
        8, regenerated,
        f"{checks} scenario points satisfy Hermitian/PSD/unitarity/MSE-range "
        f"invariants; CSV regenerated byte-identically from sidecar: {regenerated}",
    )
