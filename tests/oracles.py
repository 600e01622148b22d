"""Independent numerical oracles used by the tests.

These deliberately avoid the library's own code paths (and LAPACK where the
library relies on it) so cross-checks stay meaningful.
"""

import math

import numpy as np

from fddjam.linalg import solve_hpd


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
