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
from .linalg import _count, _real_times, haar_orthonormal_columns
from .tolerances import KY_FAN_SLACK
from .training import (
    TrainingConfig,
    _BLOCK_LENGTH,
    UnitaryBlock,
    _check_dimensions,
    _closed_form,
    _pilot_terms,
    optimal_pilots,
)

__all__ = [
    "LemmaVerdict",
    "optimal_jamming",
    "single_shot_jamming",
    "verify_lemma",
]


# Haar candidates of verify_lemma drawn and evaluated per stack. 32 amortize
# numpy's per-call overhead. A block of N x L costs its share of one stacked
# QR, one real N x N by N x 2L product C_jZ, one L x N x L congruence and one
# L x L Cholesky check and solve with L right-hand sides. A call holds one
# workspace for a stack, 32 * (6 N L + 2 L^2) float64s (the normals, the
# Gaussian blocks, C_jZ and J): 1.6 MiB at 64x16.
_LEMMA_STACK = 32


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
    return UnitaryBlock(np.eye(num_antennas, pilot_length))


def _lemma_terms(pilots: UnitaryBlock, bs_cov: ChannelCovariance, cfg: TrainingConfig):
    """``verify_lemma``'s closed-form pilot terms ``(K, R, tr C, M)``: those of
    ``_pilot_terms`` with ``G = CP`` replaced by ``R`` of ``CP = QR``, an
    ``L x L`` factor with ``RᴴR = GᴴG``, all that ``_closed_form`` reads of
    ``G``. ``R`` is real for a float64 ``CP``."""
    k, cp, trace_c, num_antennas = _pilot_terms(pilots, bs_cov, cfg)
    return k, np.linalg.qr(cp, mode="r"), trace_c, num_antennas


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
    ``scenario_closed_form_mse`` uses, through one evaluator of a stack of
    blocks; the eigen-optimal block is a stack of one. The pilot-side terms
    are computed once, with ``R`` of ``CP = QR`` in place of ``G = CP``: the
    closed form reads ``G`` only through ``GᴴG = RᴴR``, so each block's
    solve has an ``L x L`` right-hand side, not an ``L x M`` one. Each block
    then costs one product ``C_jam Z``, real for a float64 ``C_jam``, one
    ``L x L`` congruence ``(C_jam Z)ᴴZ``, whose trace is the objective and
    which scaled is ``J``, and one ``L x L`` solve.

    Candidates are drawn from ``rng`` and evaluated in stacks of
    ``_LEMMA_STACK``, with one stacked call per step, on the calling thread.
    The normals, the Gaussian blocks, ``C_jam Z`` and ``J`` are written into
    one workspace per call, which the last, partial stack uses a leading
    slice of; only the QR and the solve allocate per stack. The verdict, and
    ``rng``'s state after the call, are bit for bit those of drawing and
    evaluating the candidates one at a time. A stack that fails a check
    raises what its stacked call raises, once ``rng`` has drawn the whole
    stack. With one failing candidate in the stack, that is the type and
    message the candidate raises alone: ``solve_hpd``'s messages do not
    depend on the other candidates, and each MSE is checked in candidate
    order. Only a stack whose candidates fail different checks raises the
    stack's first check rather than the earlier candidate's.

    Meant for oracle-scale dimensions (tens of antennas, hundreds to
    thousands of samples).
    """
    num_random = _count(num_random, "num_random")
    length = pilots.length
    z_opt = optimal_jamming(jam_cov, length)
    _check_dimensions(pilots, z_opt, bs_cov, jam_cov, cfg)
    terms = _lemma_terms(pilots, bs_cov, cfg)
    ratio = cfg.jammer_power / cfg.bs_power

    def evaluate(zs, cz, jam) -> tuple[list[float], list[float]]:
        """Trace objectives and jammer-aware MSEs of an ``(n, N, L)`` stack of
        blocks, forming ``C_jam Z`` in ``cz`` and ``J`` in ``jam``."""
        _real_times(jam_cov.matrix, zs, out=cz)
        # (C_jam Z)ᴴZ, then J with the bits of training._jamming_term
        np.matmul(np.conj(cz, out=cz).mT, zs, out=jam)
        objectives = np.trace(jam, axis1=-2, axis2=-1).real.tolist()
        jam *= ratio
        return objectives, _closed_form(terms, jam, True)

    z = z_opt.matrix[None]
    dtype = np.result_type(jam_cov.matrix, z)
    (optimal_objective,), (optimal_mse,) = evaluate(
        z, np.empty(z.shape, dtype), np.empty((1, length, length), dtype)
    )
    # One buffer holds the normals, the Gaussian blocks, C_jZ and J. As four
    # arrays, a warm 64x16 call took 1,800-2,900 minor page faults in some
    # process layouts, as one buffer 0-910 in every layout tried.
    stack, n = min(_LEMMA_STACK, num_random), jam_cov.size
    block, square = 2 * stack * n * length, 2 * stack * length * length
    workspace = np.empty(3 * block + square)
    normals = workspace[:block].reshape(stack, 2, n, length)
    blocks, cz = (
        workspace[i * block:(i + 1) * block].view(np.complex128).reshape(stack, n, length)
        for i in (1, 2)
    )
    jam = workspace[3 * block:].view(np.complex128).reshape(stack, length, length)
    objectives, mses = [], []
    for start in range(0, num_random, _LEMMA_STACK):
        size = min(_LEMMA_STACK, num_random - start)
        zs = haar_orthonormal_columns(
            n, length, rng, size, workspace=(normals[:size], blocks[:size])
        )
        stack_objectives, stack_mses = evaluate(zs, cz[:size], jam[:size])
        objectives += stack_objectives
        mses += stack_mses
    best_objective = max(objectives, default=None)
    best_mse = max(mses, default=None)

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
