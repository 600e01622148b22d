"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own code paths (and LAPACK where the
library relies on it) so cross-checks stay meaningful: the full-dimension
formulas solve through scipy's Cholesky routines, not the library's numpy
solve. The one-candidate-at-a-time lemma loop is the exception: it is a
bit-for-bit reference, so it keeps the single-matrix closed form. The
one-scenario helpers ``mmse_filter`` and ``monte_carlo_mse`` are not
oracles: they run the library's own filter and Monte-Carlo loop, as a
sweep does, for tests of one scenario. The complex-vector Monte-Carlo
trial after them is a round-off reference for the whitened real one, with
the same filter. The shared-draws sweep loop at the very end is a
bit-for-bit reference too: it runs each scenario's trial on its own, on
draws made once for all scenarios.
"""

import math

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from fddjam.channel import exponential_covariance
from fddjam.jammer import LemmaVerdict, _lemma_terms, optimal_jamming, single_shot_jamming
from fddjam.linalg import _count, _real_times
from fddjam.tolerances import KY_FAN_SLACK, PSD_EIG_FLOOR
from fddjam.training import (
    _MC_CHUNK,
    MonteCarloMse,
    _check_dimensions,
    _closed_form,
    _filter,
    _jamming_term,
    _monte_carlo,
    _planes_times,
    _scenario_terms,
    _trial_gains,
    optimal_pilots,
    random_unitary_pilots,
    worst_case_pilots,
)


def solve_hpd(a, b):
    """Solve ``a @ x = b`` for Hermitian positive-definite ``a`` by Cholesky."""
    return cho_solve(cho_factor(a, lower=True), b)


def jacobi_eigenvalues(matrix, sweeps=100, tol=1e-13):
    """Eigenvalues of a complex Hermitian matrix via cyclic Jacobi rotations.

    Hand-rolled two-sided Jacobi: each (p, q) pivot is phase-rotated to a
    real 2x2 subproblem and annihilated with a plane rotation. Returns the
    eigenvalues sorted in descending order. O(n^4)-ish, fine for the small
    matrices used in tests.
    """
    a = np.array(matrix, dtype=np.complex128)
    n = a.shape[0]
    for _ in range(sweeps):
        off = math.sqrt(
            max(float((np.abs(a) ** 2).sum() - (np.abs(np.diag(a)) ** 2).sum()), 0.0)
        )
        if off <= tol:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                beta = a[p, q]
                if abs(beta) <= 1e-300:
                    continue
                alpha = a[p, p].real
                gamma = a[q, q].real
                u = beta / abs(beta)
                theta = 0.5 * math.atan2(2.0 * abs(beta), alpha - gamma)
                c, s = math.cos(theta), math.sin(theta)
                w = np.array([[u * c, -u * s], [s, c]], dtype=np.complex128)
                a[:, [p, q]] = a[:, [p, q]] @ w
                a[[p, q], :] = w.conj().T @ a[[p, q], :]
    return np.sort(np.diag(a).real)[::-1]


def random_hermitian(n, rng, *, definite=False):
    """Random dense Hermitian (optionally positive-definite) test matrix."""
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if definite:
        return x @ x.conj().T + np.eye(n)
    h = x + x.conj().T
    return 0.5 * (h + h.conj().T)


# Full-dimension (M x M) closed-form formulas of the original implementation,
# kept unchanged as the reference for the library's training-length closed
# form: they form the estimate and error covariances explicitly instead of
# using trace identities on the L x L system.


def pilot_cross_cov(pilots, bs_cov, cfg):
    """Covariance between the channel and the received block, shape (M, L)."""
    return np.sqrt(pilots.length * cfg.bs_power) * (bs_cov.matrix @ pilots.matrix)


def received_cov(pilots, jamming, bs_cov, jam_cov, cfg, include_jamming):
    """Covariance of the received block, with or without the jamming term."""
    length = pilots.length
    gram = pilots.matrix.conj().T @ bs_cov.matrix @ pilots.matrix
    cov = (length * cfg.bs_power) * gram + cfg.noise_variance * np.eye(length)
    if include_jamming and jamming is not None:
        z = jamming.matrix
        cov = cov + (length * cfg.jammer_power) * (z.conj().T @ jam_cov.matrix @ z)
    return 0.5 * (cov + cov.conj().T)


def estimate_covariance(pilots, jamming, bs_cov, jam_cov, cfg):
    """Covariance of the MMSE channel estimate, an (M, M) matrix."""
    if cfg.bs_power <= 0:
        raise ValueError("BS training power must be positive for estimation")
    length = pilots.length
    cross = pilots.matrix.conj().T @ bs_cov.matrix  # (L, M)
    inner = cross @ pilots.matrix
    if jamming is not None:
        z = jamming.matrix
        inner = inner + (cfg.jammer_power / cfg.bs_power) * (
            z.conj().T @ jam_cov.matrix @ z
        )
    inner = inner + (cfg.noise_variance / (length * cfg.bs_power)) * np.eye(length)
    inner = 0.5 * (inner + inner.conj().T)
    solved = solve_hpd(inner, cross)
    est_cov = cross.conj().T @ solved
    return 0.5 * (est_cov + est_cov.conj().T)


def unaware_error_covariance(pilots, jamming, bs_cov, jam_cov, cfg):
    """Error covariance of the jammer-unaware (mismatched) filter, (M, M)."""
    cross = pilot_cross_cov(pilots, bs_cov, cfg)
    model_cov = received_cov(pilots, jamming, bs_cov, jam_cov, cfg, include_jamming=False)
    a = solve_hpd(model_cov, cross.conj().T).conj().T
    true_cov = received_cov(pilots, jamming, bs_cov, jam_cov, cfg, include_jamming=True)
    t = a @ cross.conj().T
    return bs_cov.matrix - t - t.conj().T + a @ true_cov @ a.conj().T


def full_dimension_mse(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode):
    """Per-antenna trace of the (M, M) error covariance, without clipping."""
    if estimator_mode == "jammer-aware":
        err_cov = bs_cov.matrix - estimate_covariance(pilots, jamming, bs_cov, jam_cov, cfg)
    else:
        err_cov = unaware_error_covariance(pilots, jamming, bs_cov, jam_cov, cfg)
    return float(np.trace(err_cov).real) / bs_cov.size


# The lemma oracle as it was before it evaluated candidates in stacks: one
# Haar draw, one congruence and one solve per Python call. Stacked draws
# and ``verify_lemma`` must reproduce it bit for bit, generator state
# included.


def jamming_objective(jamming, jam_cov):
    """Received jamming power proxy ``trace(Z^H C Z)``, the lemma's trace objective.

    Bounded between the sums of the bottom and top ``pilot_length``
    eigenvalues of the covariance.
    """
    if jamming.num_antennas != jam_cov.size:
        raise ValueError(
            f"jamming matrix has {jamming.num_antennas} antennas, covariance "
            f"has {jam_cov.size}"
        )
    z = jamming.matrix
    return float(np.vdot(z, _real_times(jam_cov.matrix, z)).real)


def haar_one_by_one(rows, cols, rng):
    """One Haar matrix per call; a rank-deficient draw raises."""
    x = np.sqrt(0.5) * (
        rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    )
    q, r = np.linalg.qr(x, mode="reduced")
    d = np.diagonal(r)
    if not float(np.min(np.abs(d))) > 1e-12:
        raise np.linalg.LinAlgError("random matrix is rank deficient")
    return q * (d / np.abs(d))


def verify_lemma_one_by_one(bs_cov, jam_cov, pilots, cfg, num_random, rng):
    """``jammer.verify_lemma``, drawing and evaluating one candidate at a time.

    It takes the same pilot terms, with ``R`` of ``CP`` (``_lemma_terms``),
    and the same objective, the trace of ``(C_jZ)ᴴZ``.
    """
    length = pilots.length
    z_opt = optimal_jamming(jam_cov, length)
    _check_dimensions(pilots, z_opt, bs_cov, jam_cov, cfg)
    terms = _lemma_terms(pilots, bs_cov, cfg)

    def evaluate(z):
        cz = _real_times(jam_cov.matrix, z)
        objective = float(np.trace(cz.conj().T @ z).real)
        return objective, _closed_form(terms, _jamming_term(z, cz, cfg), jammer_aware=True)

    optimal_objective, optimal_mse = evaluate(z_opt.matrix)
    best_objective = best_mse = None
    for _ in range(num_random):
        objective, mse = evaluate(haar_one_by_one(jam_cov.size, length, rng))
        if best_objective is None or objective > best_objective:
            best_objective = objective
        if best_mse is None or mse > best_mse:
            best_mse = mse
    if best_objective is not None and best_objective > optimal_objective + KY_FAN_SLACK:
        raise ArithmeticError(
            f"trace bound violated: random objective {best_objective:.12g} exceeds "
            f"eigen-optimal objective {optimal_objective:.12g}"
        )
    return LemmaVerdict(
        optimal_objective=optimal_objective,
        optimal_mse=optimal_mse,
        best_random_objective=best_objective,
        best_random_mse=best_mse,
        num_samples=num_random,
        mse_counterexample_found=best_mse is not None
        and best_mse > optimal_mse + KY_FAN_SLACK,
    )


# One scenario through the library's Monte-Carlo path, and its estimator.


def mmse_filter(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode):
    """The MMSE estimator ``A`` of one scenario (the estimate is ``A @ y``):
    ``Wᴴ / sqrt(L·P_b)`` with the scenario's solve ``W = K_est⁻¹Gᴴ``."""
    w = _filter(*_scenario_terms(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode))
    return w.conj().T / np.sqrt(pilots.length * cfg.bs_power)


def monte_carlo_mse(pilots, jamming, bs_cov, jam_cov, cfg, *, trials, rng,
                    estimator_mode="jammer-aware"):
    """One scenario's ``MonteCarloMse`` as a sweep computes it: its filter's
    trial gains, run through ``training._monte_carlo`` alone."""
    w = _filter(*_scenario_terms(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode))
    gains = _trial_gains(pilots, jamming, bs_cov, jam_cov, cfg, w)
    return _monte_carlo([gains], bs_cov, cfg, trials, rng)[0]


# The Monte-Carlo trial as it was before it ran whitened on the raw normal
# planes: channels drawn as complex vectors through the covariance's
# eigenvectors, complex products throughout. ``monte_carlo_mse`` consumes
# the same normals from the same streams and must agree to round-off.


def complex_normals(rng, shape, scale):
    """``scale * (re + 1j * im)``, drawn as ``linalg._complex_normals`` draws
    it (each trailing matrix's ``re``, then its ``im``), as that expression."""
    normals = rng.standard_normal((*shape[:-2], 2, *shape[-2:]))
    return scale * (normals[..., 0, :, :] + 1j * normals[..., 1, :, :])


def sample_complex_gaussian(eigenvalues, eigenvectors, rng, size):
    """Circularly symmetric complex Gaussian vectors ``U diag(sqrt(w)) e``, one per
    column, from the covariance's eigenpairs; ``e`` has unit-variance complex
    normal entries. Eigenvalues in ``[PSD_EIG_FLOOR, 0]`` count as zero, and
    one below the floor raises ``ValueError``."""
    w = eigenvalues
    if w.size and float(w.min()) < PSD_EIG_FLOOR:
        raise ValueError(
            f"covariance is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    e = complex_normals(rng, (w.shape[0], _count(size, "size")), np.sqrt(0.5))
    return eigenvectors @ (np.sqrt(np.clip(w, 0.0, None))[:, None] * e)


def empirical_mse_direct(pilots, jamming, bs_cov, jam_cov, cfg, *, trials, rng,
                         estimator_mode="jammer-aware"):
    """``monte_carlo_mse`` with channels drawn as complex vectors and the
    error ``h - Ay`` formed in the antenna basis."""
    a = mmse_filter(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode)
    length = pilots.length
    bs_gain = np.sqrt(length * cfg.bs_power) * pilots.matrix.conj().T
    jam_gain = None
    if jamming is not None:
        jam_gain = np.sqrt(length * cfg.jammer_power) * jamming.matrix.conj().T
    noise_scale = np.sqrt(cfg.noise_variance * 0.5)
    per_trial = np.empty(trials)
    start = 0
    for stream in rng.spawn(-(-trials // _MC_CHUNK)):
        k = min(_MC_CHUNK, trials - start)
        h = sample_complex_gaussian(bs_cov.eigenvalues, bs_cov.eigenvectors, stream, k)
        y = bs_gain @ h
        if jam_gain is not None:
            g = sample_complex_gaussian(jam_cov.eigenvalues, jam_cov.eigenvectors, stream, k)
            y = y + jam_gain @ g
        y = y + complex_normals(stream, (length, k), noise_scale)
        err = h - a @ y
        per_trial[start : start + k] = (np.abs(err) ** 2).sum(axis=0) / cfg.num_bs_antennas
        start += k
    std_error = float(per_trial.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloMse(mean=float(per_trial.mean()), std_error=std_error)


def whitened_trials(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode, e, g, n):
    """Per-trial squared errors of one scenario on the given normal planes,
    with ``training._monte_carlo``'s arithmetic, written out for one
    scenario."""
    a = mmse_filter(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode)
    length = pilots.length

    def scales(cov):
        return np.sqrt(0.5) * np.sqrt(np.clip(cov.eigenvalues, 0.0, None))

    s = scales(bs_cov)
    bs_gain = np.sqrt(length * cfg.bs_power) * (pilots.matrix.conj().T @ bs_cov.eigenvectors) * s
    y = _planes_times(bs_gain, e)
    if jamming is not None:
        jam_gain = np.sqrt(length * cfg.jammer_power) * (
            jamming.matrix.conj().T @ jam_cov.eigenvectors
        ) * scales(jam_cov)
        y += _planes_times(jam_gain, g)
    y += np.sqrt(cfg.noise_variance * 0.5) * n
    err = _planes_times(bs_cov.eigenvectors.conj().T @ a, y)
    err -= s[:, None] * e
    return np.einsum("ijk,ijk->k", err, err) / cfg.num_bs_antennas


def shared_draws_axis_value(cfg, scenarios, trials, seed):
    """``(mean, std_error)`` of each scenario of one sweep axis value.

    One generator seeded with ``seed`` draws each random-unitary scenario's
    pilots in scenario order, then spawns the trial chunks. Each chunk
    draws ``e``, then ``g`` if any scenario jams, then ``n``, once, and every
    scenario's trial runs on those planes (``whitened_trials``).
    """
    bs_cov = exponential_covariance(cfg.num_bs_antennas, cfg.bs_correlation)
    jam_cov = exponential_covariance(cfg.num_jammer_antennas, cfg.jammer_correlation)
    rng = np.random.default_rng(seed)
    length = cfg.pilot_length
    blocks = []
    for scenario in scenarios:
        if scenario.pilot_design == "random-unitary":
            pilots = random_unitary_pilots(cfg.num_bs_antennas, length, rng)
        else:
            design = optimal_pilots if scenario.pilot_design == "optimal" else worst_case_pilots
            pilots = design(bs_cov, length)
        jamming = {
            "silent": None,
            "single-shot": single_shot_jamming(cfg.num_jammer_antennas, length),
            "eigen-optimal": optimal_jamming(jam_cov, length),
        }[scenario.jamming]
        blocks.append((pilots, jamming, scenario.estimator_mode))
    jams = any(jamming is not None for _, jamming, _ in blocks)
    per_trial = np.empty((len(blocks), trials))
    start = 0
    for stream in rng.spawn(-(-trials // _MC_CHUNK)):
        k = min(_MC_CHUNK, trials - start)
        e = stream.standard_normal((2, cfg.num_bs_antennas, k))
        g = stream.standard_normal((2, cfg.num_jammer_antennas, k)) if jams else None
        n = stream.standard_normal((2, length, k))
        for row, (pilots, jamming, mode) in zip(per_trial, blocks):
            row[start : start + k] = whitened_trials(
                pilots, jamming, bs_cov, jam_cov, cfg, mode, e, g, n
            )
        start += k
    return [(float(row.mean()), float(row.std(ddof=1) / np.sqrt(trials))) for row in per_trial]
