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

import contextlib
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .channel import ChannelCovariance
from .linalg import _complex_normals, _count, _haar_q, _real_times
from .tolerances import KY_FAN_SLACK
from .training import (
    TrainingConfig,
    _BLOCK_LENGTH,
    UnitaryBlock,
    _block_system,
    _check_dimensions,
    _closed_form,
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
# workspace for a stack, 32 * (8 N L + 2 L^2) float64s (the normals, two
# draw buffers of Gaussian blocks, C_jZ and J): 2.1 MiB at 64x16.
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


def _drawn_ahead(draw, count: int, rng: np.random.Generator):
    """Yield ``draw(0), ..., draw(count - 1)``, each made on one helper
    thread: ``draw(i + 1)`` runs while the caller works on ``draw(i)``.

    ``draw`` takes numbers from ``rng`` in call order, and the caller must
    not use ``rng`` or what ``draw(i + 1)`` writes until it is yielded. A
    draw's exception is raised to the caller when it asks for that draw.
    Closed early, the generator waits for the draw in flight and sets
    ``rng`` back to its state after the last draw yielded, then joins the
    helper, so no draw the caller did not ask for leaks into ``rng``.
    """
    todo, done = queue.SimpleQueue(), queue.SimpleQueue()

    def helper():
        while (i := todo.get()) is not None:
            try:
                done.put((draw(i), None))
            except BaseException as exc:  # raised again on the calling thread
                done.put((None, exc))

    thread = threading.Thread(target=helper, name="fddjam-lemma-draw")
    thread.start()
    pending, state = count > 0, rng.bit_generator.state
    try:
        if pending:
            todo.put(0)
        for i in range(count):
            drawn, exc = done.get()
            pending = False
            if exc is not None:
                raise exc
            if i + 1 < count:
                state = rng.bit_generator.state
                todo.put(i + 1)
                pending = True
            yield drawn
    finally:
        if pending:
            done.get()
            rng.bit_generator.state = state
        todo.put(None)
        thread.join()


def _lemma_terms(pilots: UnitaryBlock, bs_cov: ChannelCovariance, cfg: TrainingConfig):
    """``verify_lemma``'s closed-form pilot terms ``(K, R, tr C, M)``: those of
    ``training._block_system`` with ``G = ΛX`` replaced by ``R`` of ``ΛX =
    QR``, an ``L x L`` factor with ``RᴴR = GᴴG``, all that ``_closed_form``
    reads of ``G``. ``R`` is real for a float64 ``ΛX``."""
    _, (k, g, trace_c, num_antennas), _ = _block_system(pilots, None, bs_cov, None, cfg)
    return k, np.linalg.qr(g, mode="r"), trace_c, num_antennas


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
    are computed once, in the eigenbasis of the BS covariance, with ``R`` of
    ``ΛX = QR`` in place of ``G = ΛX`` (``_lemma_terms``): the closed form
    reads ``G`` only through ``GᴴG = RᴴR``, so each block's solve has an
    ``L x L`` right-hand side, not an ``L x M`` one. Each block
    then costs one product ``C_jam Z``, real for a float64 ``C_jam``, one
    ``L x L`` congruence ``(C_jam Z)ᴴZ``, whose trace is the objective and
    which scaled is ``J``, and one ``L x L`` solve.

    Candidates are drawn from ``rng`` and evaluated in stacks of
    ``_LEMMA_STACK``, with one stacked call per step, as a two-stage
    pipeline: one helper thread draws the next stack's normals and Gaussian
    blocks (``linalg._complex_normals``, in stack order) while the calling
    thread runs this stack's QR (``linalg._haar_q``) and evaluation, and
    folds the maxima in candidate order. The helper lives for one call.
    The normals, two draw buffers of Gaussian blocks, ``C_jam Z`` and ``J``
    are written into one workspace per call, which the last, partial stack
    uses a leading slice of; only the QR and the solve allocate per stack.
    The verdict, and ``rng``'s state after the call, are bit for bit those
    of drawing and evaluating the candidates one at a time. A stack that
    fails a check raises what its stacked call raises, once ``rng`` has
    drawn the whole stack and no more: the next stack's draw, made ahead,
    is undone. With one failing candidate in the stack, that is the type and
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
    # One buffer holds the normals, two draw buffers, C_jZ and J. As four
    # arrays, a warm 64x16 call took 1,800-2,900 minor page faults in some
    # process layouts, as one buffer 0-910 in every layout tried.
    stack, n = min(_LEMMA_STACK, num_random), jam_cov.size
    block, square = 2 * stack * n * length, 2 * stack * length * length
    workspace = np.empty(4 * block + square)
    normals = workspace[:block].reshape(stack, 2, n, length)
    *drawn, cz = (
        workspace[i * block:(i + 1) * block].view(np.complex128).reshape(stack, n, length)
        for i in (1, 2, 3)
    )
    jam = workspace[4 * block:].view(np.complex128).reshape(stack, length, length)
    sizes = [min(_LEMMA_STACK, num_random - start) for start in range(0, num_random, _LEMMA_STACK)]

    def draw(i):
        """Stack ``i``'s Gaussian blocks, into draw buffer ``i % 2``."""
        size = sizes[i]
        return _complex_normals(
            rng, (size, n, length), np.sqrt(0.5), (normals[:size], drawn[i % 2][:size])
        )

    objectives, mses = [], []
    with contextlib.closing(_drawn_ahead(draw, len(sizes), rng)) as stacks:
        for x in stacks:
            stack_objectives, stack_mses = evaluate(_haar_q(x), cz[:len(x)], jam[:len(x)])
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
