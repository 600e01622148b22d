"""Jamming-signal strategies and the oracle that stress-tests the optimal one.

Every strategy transmits a unitary-column block over the training symbols
(equal power per symbol). The eigen-optimal strategy aligns the block with
the strongest eigenvectors of the jammer's own channel covariance, which
maximizes the received jamming power ``trace(Z^H C Z)`` over all such blocks
(the Ky Fan bound). ``verify_lemma`` additionally measures whether that
trace-maximizing choice also maximizes the victim's estimation MSE, instead
of assuming it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelCovariance, _exponential_block, exponential_spectrum
from .linalg import _count, haar_orthonormal_columns
from .tolerances import KY_FAN_SLACK
from .training import (
    TrainingConfig,
    _BLOCK_LENGTH,
    UnitaryBlock,
    _check_dimensions,
    _closed_form,
    _jamming_term,
    _pilot_terms,
    optimal_pilots,
)

__all__ = [
    "LemmaVerdict",
    "jamming_objective",
    "optimal_jamming",
    "single_shot_jamming",
    "verify_lemma",
]


# Eigen-optimal jamming, ``optimal_jamming(jam_cov, pilot_length)``: the
# block of the strongest eigenvectors of the jammer's own channel, built
# exactly like optimal pilots. By Ky Fan it maximizes ``trace(Z^H C Z)`` over
# all blocks with orthonormal columns, and ``Z^H C Z`` is then the diagonal
# of the top eigenvalues.
optimal_jamming = optimal_pilots


def single_shot_jamming(num_antennas: int, pilot_length: int) -> UnitaryBlock:
    """Statistics-agnostic baseline: one antenna active per training symbol.

    Uses the canonical antenna order (first ``pilot_length`` identity
    columns); the antenna permutation is irrelevant for unit-diagonal
    covariances, where every choice yields the same received power.
    """
    num_antennas = _count(num_antennas, "num_antennas", 1)
    pilot_length = _count(pilot_length, _BLOCK_LENGTH, 1, num_antennas)
    return UnitaryBlock(np.eye(num_antennas, pilot_length, dtype=np.complex128))


def _eigen_jamming_term(strategy: str, cfg: TrainingConfig) -> np.ndarray | None:
    """Jamming term ``J`` of a strategy, from the exponential jammer covariance.

    None for a silent jammer. Single-shot jamming sends the first ``L``
    identity columns, so ``J = ρ·T_L``, the real top-left ``L x L`` block of
    the jammer covariance. Eigen-optimal jamming sends the top eigenvectors,
    so ``J = ρ·diag(μ_1..μ_L)``, returned as its diagonal. Here
    ``ρ = jammer_power / bs_power`` as in ``_jamming_term``.
    """
    if strategy == "silent":
        return None
    if strategy not in ("single-shot", "eigen-optimal"):
        raise ValueError(f"jamming strategy {strategy!r} has no eigenvalue form")
    num_antennas = cfg.num_jammer_antennas
    length = _count(cfg.pilot_length, _BLOCK_LENGTH, 1, num_antennas)
    ratio = cfg.jammer_power / cfg.bs_power
    if strategy == "single-shot":
        return ratio * _exponential_block(num_antennas, cfg.jammer_correlation, length)
    return ratio * exponential_spectrum(num_antennas, cfg.jammer_correlation)[:length]


def jamming_objective(jamming: UnitaryBlock, jam_cov: ChannelCovariance) -> float:
    """Received jamming power proxy ``trace(Z^H C Z)``.

    Bounded between the sums of the bottom and top ``pilot_length``
    eigenvalues of the covariance.
    """
    if jamming.num_antennas != jam_cov.size:
        raise ValueError(
            f"jamming matrix has {jamming.num_antennas} antennas, covariance "
            f"has {jam_cov.size}"
        )
    return _trace_objective(jamming.matrix, jam_cov)


def _trace_objective(z: np.ndarray, jam_cov: ChannelCovariance) -> float:
    # trace(Z^H C Z) of a raw block, so verify_lemma's Haar candidates skip
    # UnitaryBlock's orthonormality check.
    return float(np.vdot(z, jam_cov.matrix @ z).real)


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of stress-testing the eigen-optimal jamming design.

    ``optimal_*`` describe the eigen-optimal block; ``best_random_*`` hold
    the best values seen among the random candidates (None when none were
    drawn). ``mse_counterexample_found`` is True when some random candidate
    achieved a strictly higher closed-form MSE than the eigen-optimal block,
    beyond numerical slack.
    """

    optimal_objective: float
    optimal_mse: float
    best_random_objective: float | None
    best_random_mse: float | None
    num_samples: int
    mse_counterexample_found: bool


def verify_lemma(
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance,
    pilots: UnitaryBlock,
    cfg: TrainingConfig,
    num_random: int,
    rng: np.random.Generator,
) -> LemmaVerdict:
    """Compare eigen-optimal jamming against random unitary candidates.

    Evaluates the trace objective and the closed-form estimation MSE for the
    eigen-optimal block and for ``num_random`` Haar-random candidates. The
    trace bound (no candidate above the eigen-optimal objective) holds
    unconditionally and a violation raises ``ArithmeticError``; the MSE
    comparison is recorded, not presumed, so a candidate with a strictly
    larger MSE surfaces through ``mse_counterexample_found``.

    Both MSEs come from the training-length closed form that
    ``scenario_closed_form_mse`` uses; the pilot-side terms are computed once,
    so each candidate costs one congruence ``Z^H C_jam Z`` and one ``L x L``
    solve.
    Meant for oracle-scale dimensions (tens of antennas, hundreds to
    thousands of samples).
    """
    num_random = _count(num_random, "num_random")
    length = pilots.length
    z_opt = optimal_jamming(jam_cov, length)
    _check_dimensions(pilots, z_opt, bs_cov, jam_cov, cfg)
    terms = _pilot_terms(pilots, bs_cov, cfg)
    optimal_objective = jamming_objective(z_opt, jam_cov)
    optimal_mse = _closed_form(
        terms, _jamming_term(z_opt.matrix, jam_cov, cfg), jammer_aware=True
    )

    best_objective: float | None = None
    best_mse: float | None = None
    for _ in range(num_random):
        z = haar_orthonormal_columns(jam_cov.size, length, rng)
        objective = _trace_objective(z, jam_cov)
        mse = _closed_form(terms, _jamming_term(z, jam_cov, cfg), jammer_aware=True)
        if best_objective is None or objective > best_objective:
            best_objective = objective
        if best_mse is None or mse > best_mse:
            best_mse = mse

    if best_objective is not None and best_objective > optimal_objective + KY_FAN_SLACK:
        raise ArithmeticError(
            f"trace bound violated: random objective {best_objective:.12g} exceeds "
            f"eigen-optimal objective {optimal_objective:.12g}"
        )
    found = best_mse is not None and best_mse > optimal_mse + KY_FAN_SLACK
    return LemmaVerdict(
        optimal_objective=optimal_objective,
        optimal_mse=optimal_mse,
        best_random_objective=best_objective,
        best_random_mse=best_mse,
        num_samples=num_random,
        mse_counterexample_found=found,
    )
