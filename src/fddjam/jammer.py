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

from .channel import ChannelCovariance
from .linalg import as_complex_matrix, haar_orthonormal_columns, require_orthonormal_columns

# Not called here: the solves run in the training module. The name stays so
# the benchmark's trace target ``fddjam.jammer.solve_hpd`` still resolves.
from .linalg import solve_hpd  # noqa: F401
from .tolerances import KY_FAN_SLACK
from .training import (
    PilotMatrix,
    TrainingConfig,
    _closed_form,
    _jamming_term,
    _pilot_terms,
)

__all__ = [
    "JAMMING_STRATEGIES",
    "JammingMatrix",
    "LemmaVerdict",
    "jamming_objective",
    "optimal_jamming",
    "random_unitary_jamming",
    "single_shot_jamming",
    "verify_lemma",
]

JAMMING_STRATEGIES = ("single-shot", "eigen-optimal", "random-unitary")


@dataclass(frozen=True)
class JammingMatrix:
    """Unitary-column jamming block sent during the training phase.

    ``matrix`` has shape (num_jammer_antennas, pilot_length) with orthonormal
    columns; ``strategy`` records how it was constructed.
    """

    matrix: np.ndarray
    strategy: str

    def __post_init__(self) -> None:
        if self.strategy not in JAMMING_STRATEGIES:
            raise ValueError(
                f"unknown jamming strategy {self.strategy!r}; "
                f"expected one of {JAMMING_STRATEGIES}"
            )
        m = as_complex_matrix(self.matrix, name="jamming matrix").copy()
        require_orthonormal_columns(m, name="jamming matrix")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def length(self) -> int:
        return self.matrix.shape[1]


def _check_block_shape(pilot_length: int, num_antennas: int) -> None:
    if int(pilot_length) != pilot_length or pilot_length < 1:
        raise ValueError(f"pilot_length must be a positive integer, got {pilot_length!r}")
    if pilot_length > num_antennas:
        raise ValueError(
            f"jamming a block of {pilot_length} symbols needs at least "
            f"{pilot_length} jammer antennas, have {num_antennas}"
        )


def optimal_jamming(jam_cov: ChannelCovariance, pilot_length: int) -> JammingMatrix:
    """Jamming aligned with the strongest eigenvectors of the jammer channel.

    Maximizes ``trace(Z^H C Z)`` over all blocks with orthonormal columns;
    the congruence ``Z^H C Z`` then equals the diagonal of the top
    eigenvalues. The strategy only needs the jammer's own channel covariance
    and the training length.
    """
    _check_block_shape(pilot_length, jam_cov.size)
    return JammingMatrix(
        jam_cov.evd.eigenvectors[:, :pilot_length], strategy="eigen-optimal"
    )


def single_shot_jamming(num_antennas: int, pilot_length: int) -> JammingMatrix:
    """Statistics-agnostic baseline: one antenna active per training symbol.

    Uses the canonical antenna order (first ``pilot_length`` identity
    columns); the antenna permutation is irrelevant for unit-diagonal
    covariances, where every choice yields the same received power.
    """
    _check_block_shape(pilot_length, num_antennas)
    return JammingMatrix(
        np.eye(int(num_antennas), int(pilot_length), dtype=np.complex128),
        strategy="single-shot",
    )


def random_unitary_jamming(
    num_antennas: int, pilot_length: int, rng: np.random.Generator
) -> JammingMatrix:
    """Haar-random orthonormal jamming block (used for oracle sampling)."""
    _check_block_shape(pilot_length, num_antennas)
    return JammingMatrix(
        haar_orthonormal_columns(int(num_antennas), int(pilot_length), rng),
        strategy="random-unitary",
    )


def jamming_objective(jamming: JammingMatrix, jam_cov: ChannelCovariance) -> float:
    """Received jamming power proxy ``trace(Z^H C Z)``.

    Bounded between the sums of the bottom and top ``pilot_length``
    eigenvalues of the covariance.
    """
    if jamming.num_antennas != jam_cov.size:
        raise ValueError(
            f"jamming matrix has {jamming.num_antennas} antennas, covariance "
            f"has {jam_cov.size}"
        )
    z = jamming.matrix
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
    pilots: PilotMatrix,
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
    so each candidate costs one congruence ``Z^H C_jam Z`` and one solve.
    Meant for oracle-scale dimensions (tens of antennas, hundreds to
    thousands of samples).
    """
    if int(num_random) != num_random or num_random < 0:
        raise ValueError(f"num_random must be a non-negative integer, got {num_random!r}")
    if pilots.num_antennas != bs_cov.size or pilots.num_antennas != cfg.num_bs_antennas:
        raise ValueError(
            f"pilot matrix shape {pilots.matrix.shape} does not match the BS "
            f"covariance ({bs_cov.size}) or config ({cfg.num_bs_antennas})"
        )
    if pilots.length != cfg.pilot_length:
        raise ValueError(
            f"pilot length {pilots.length} does not match config {cfg.pilot_length}"
        )
    if jam_cov.size != cfg.num_jammer_antennas:
        raise ValueError(
            f"jammer covariance size {jam_cov.size} does not match config "
            f"{cfg.num_jammer_antennas}"
        )
    length = pilots.length
    terms = _pilot_terms(pilots, bs_cov, cfg)
    z_opt = optimal_jamming(jam_cov, length)
    optimal_objective = jamming_objective(z_opt, jam_cov)
    optimal_mse = _closed_form(
        terms, _jamming_term(z_opt.matrix, jam_cov, cfg), jammer_aware=True
    )

    best_objective: float | None = None
    best_mse: float | None = None
    for _ in range(int(num_random)):
        z = haar_orthonormal_columns(jam_cov.size, length, rng)
        objective = float(np.vdot(z, jam_cov.matrix @ z).real)
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
        num_samples=int(num_random),
        mse_counterexample_found=found,
    )
