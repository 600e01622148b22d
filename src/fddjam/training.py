"""Downlink training: pilot design, MMSE estimation and its MSE.

The user terminal receives, over a block of ``L`` training symbols,

    y = sqrt(L * P_bs) * pilots^H @ h + sqrt(L * P_jam) * jamming^H @ g + noise

where ``h`` is the base-station channel, ``g`` the jammer channel and the
noise is white complex Gaussian. Pilot and jamming blocks both have
orthonormal columns (equal power per symbol). The MMSE channel estimate and
its error statistics follow in closed form from the joint Gaussian model;
Monte-Carlo evaluation is provided as an independent check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ChannelCovariance, exponential_spectrum
from .linalg import (
    _count,
    as_complex_matrix,
    haar_orthonormal_columns,
    require_orthonormal_columns,
    sample_complex_gaussian,
    solve_hpd,
)
from .tolerances import MSE_NEGATIVE_FLOOR

__all__ = [
    "ESTIMATOR_MODES",
    "PILOT_DESIGNS",
    "MonteCarloMse",
    "TrainingConfig",
    "UnitaryBlock",
    "empirical_mse",
    "optimal_pilots",
    "random_unitary_pilots",
    "scenario_closed_form_mse",
    "worst_case_pilots",
]

PILOT_DESIGNS = ("optimal", "worst-case", "random-unitary")

# "jammer-aware" matches the closed-form error statistics; "jammer-unaware"
# builds the estimator without the jamming statistics (model mismatch).
ESTIMATOR_MODES = ("jammer-aware", "jammer-unaware")

# A block spans at most one symbol per antenna of its transmitter.
_BLOCK_LENGTH = "pilot_length (at most the transmitter's antennas)"

# Monte-Carlo trials per spawned stream; changing it changes every MC result.
_MC_CHUNK = 4096


@dataclass(frozen=True)
class UnitaryBlock:
    """Unitary-column block sent over the training symbols.

    Both the base station's pilots and the jammer's block use this type.
    ``matrix`` has shape (antennas, pilot_length) with orthonormal columns
    and is stored read-only.
    """

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = as_complex_matrix(self.matrix, name="block").copy()
        require_orthonormal_columns(m, name="block")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def num_antennas(self) -> int:
        return self.matrix.shape[0]

    @property
    def length(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class TrainingConfig:
    """Scalar parameters of one training scenario.

    Powers are given in dB relative to the noise variance: the linear powers
    are ``noise_variance * 10 ** (db / 10)``. ``noise_variance = 0`` is
    accepted as a noiseless testing mode; the dB values are then read against
    a unit reference instead. ``jammer_correlation`` defaults to
    ``bs_correlation`` when left unset.
    """

    num_bs_antennas: int
    num_jammer_antennas: int
    pilot_length: int
    bs_power_db: float
    jammer_power_db: float
    noise_variance: float = 1.0
    bs_correlation: float = 0.0
    jammer_correlation: float | None = None

    def __post_init__(self) -> None:
        for field in ("num_bs_antennas", "num_jammer_antennas"):
            object.__setattr__(self, field, _count(getattr(self, field), field, 1))
        object.__setattr__(
            self, "pilot_length",
            _count(self.pilot_length, _BLOCK_LENGTH, 1, self.num_bs_antennas),
        )
        if not 0 <= self.noise_variance < math.inf:
            raise ValueError(
                f"noise_variance must be finite and >= 0, got {self.noise_variance}"
            )
        for field in ("bs_power_db", "jammer_power_db"):
            value = getattr(self, field)
            # -inf dB is a switched-off transmitter; NaN or a power that
            # overflows would only fail later, inside a solver
            try:
                linear = _db_to_linear(value, self.noise_variance)
            except OverflowError:
                linear = math.inf
            if math.isnan(value) or not math.isfinite(linear):
                raise ValueError(
                    f"{field} must be a number whose linear power is finite, got {value!r}"
                )
        if not 0.0 <= self.bs_correlation <= 1.0:
            raise ValueError(
                f"bs_correlation must lie in [0, 1], got {self.bs_correlation}"
            )
        if self.jammer_correlation is None:
            object.__setattr__(self, "jammer_correlation", float(self.bs_correlation))
        elif not 0.0 <= self.jammer_correlation <= 1.0:
            raise ValueError(
                f"jammer_correlation must lie in [0, 1], got {self.jammer_correlation}"
            )

    @property
    def bs_power(self) -> float:
        """Base-station training power in linear units."""
        return _db_to_linear(self.bs_power_db, self.noise_variance)

    @property
    def jammer_power(self) -> float:
        """Jammer transmit power in linear units."""
        return _db_to_linear(self.jammer_power_db, self.noise_variance)


def _db_to_linear(power_db: float, noise_variance: float) -> float:
    reference = noise_variance if noise_variance > 0 else 1.0
    return reference * 10.0 ** (power_db / 10.0)


@dataclass(frozen=True)
class MonteCarloMse:
    """Sample mean of the per-antenna squared error and its standard error.

    ``std_error`` is zero when fewer than two trials were run.
    """

    mean: float
    std_error: float
    trials: int


def optimal_pilots(bs_cov: ChannelCovariance, pilot_length: int) -> UnitaryBlock:
    """Pilots spanning the strongest eigenvectors of the BS channel covariance.

    This is the MSE-minimizing unitary pilot design in the absence of a
    jammer: the columns are the first ``pilot_length`` eigenvectors in
    descending-eigenvalue order (deterministic tie-break). On the jammer's
    covariance it is ``jammer.optimal_jamming``.
    """
    pilot_length = _count(pilot_length, _BLOCK_LENGTH, 1, bs_cov.size)
    return UnitaryBlock(bs_cov.evd.eigenvectors[:, :pilot_length])


def worst_case_pilots(bs_cov: ChannelCovariance, pilot_length: int) -> UnitaryBlock:
    """Pilots spanning the weakest eigenvectors: the MSE-maximizing benchmark."""
    start = bs_cov.size - _count(pilot_length, _BLOCK_LENGTH, 1, bs_cov.size)
    return UnitaryBlock(bs_cov.evd.eigenvectors[:, start:])


def random_unitary_pilots(
    num_antennas: int, pilot_length: int, rng: np.random.Generator
) -> UnitaryBlock:
    """Haar-random orthonormal pilot columns (baseline design)."""
    num_antennas = _count(num_antennas, "num_antennas", 1)
    pilot_length = _count(pilot_length, _BLOCK_LENGTH, 1, num_antennas)
    return UnitaryBlock(haar_orthonormal_columns(num_antennas, pilot_length, rng))


def _check_dimensions(
    pilots: UnitaryBlock,
    jamming: UnitaryBlock | None,
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance | None,
    cfg: TrainingConfig,
) -> None:
    if pilots.num_antennas != cfg.num_bs_antennas or pilots.length != cfg.pilot_length:
        raise ValueError(
            f"pilot matrix shape {pilots.matrix.shape} does not match config "
            f"({cfg.num_bs_antennas} antennas, {cfg.pilot_length} symbols)"
        )
    if bs_cov.size != cfg.num_bs_antennas:
        raise ValueError(
            f"BS covariance size {bs_cov.size} does not match "
            f"num_bs_antennas {cfg.num_bs_antennas}"
        )
    if jamming is not None:
        if jam_cov is None:
            raise ValueError("jam_cov is required when a jamming matrix is given")
        if jamming.num_antennas != cfg.num_jammer_antennas:
            raise ValueError(
                f"jamming matrix has {jamming.num_antennas} antennas, config "
                f"says {cfg.num_jammer_antennas}"
            )
        if jamming.length != pilots.length:
            raise ValueError(
                f"jamming block length {jamming.length} does not match "
                f"pilot length {pilots.length}"
            )
        if jam_cov.size != cfg.num_jammer_antennas:
            raise ValueError(
                f"jammer covariance size {jam_cov.size} does not match "
                f"num_jammer_antennas {cfg.num_jammer_antennas}"
            )


def _hermitian_part(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.conj().T)


def _noise_term(cfg: TrainingConfig, length: int) -> float:
    """Noise level ``noise_variance / (L * bs_power)`` of the scaled training system."""
    if cfg.bs_power <= 0:
        raise ValueError("BS training power must be positive for estimation")
    return cfg.noise_variance / (length * cfg.bs_power)


def _pilot_terms(pilots: UnitaryBlock, bs_cov: ChannelCovariance, cfg: TrainingConfig):
    """Pilot-side terms ``(K, CP, tr C, M)`` of a pilot block ``P``.

    Scaled by ``1 / (L * bs_power)``, the received block has covariance
    ``K + J`` with ``K = PᴴCP + noise_variance / (L * bs_power) * I`` and the
    jamming term ``J`` of ``_jamming_term``; its cross-covariance with the
    channel is ``CP / sqrt(L * bs_power)``. The tuple is what
    ``_closed_form`` takes, with ``G = CP``.
    """
    length = pilots.length
    noise = _noise_term(cfg, length)
    cp = bs_cov.matrix @ pilots.matrix
    k = pilots.matrix.conj().T @ cp + noise * np.eye(length)
    trace_c = float(np.trace(bs_cov.matrix).real)
    return _hermitian_part(k), cp, trace_c, bs_cov.size


def _eigen_pilot_terms(design: str, cfg: TrainingConfig):
    """Closed-form inputs ``(K, G, tr C, M)`` of optimal or worst-case pilots.

    Their columns are eigenvectors of the exponential BS covariance, so
    ``K = diag(λ_sel) + noise * I`` and, in the ``L``-dimensional eigenbasis,
    ``G = diag(λ_sel)`` follow from the selected eigenvalues ``λ_sel`` alone
    and are returned as their diagonals; the unit diagonal makes ``tr C``
    the antenna count.
    """
    if design not in ("optimal", "worst-case"):
        raise ValueError(f"pilot design {design!r} has no eigenvalue form")
    m, length = cfg.num_bs_antennas, cfg.pilot_length
    noise = _noise_term(cfg, length)
    spectrum = exponential_spectrum(m, cfg.bs_correlation)
    selected = spectrum[:length] if design == "optimal" else spectrum[m - length:]
    return selected + noise, selected, float(m), m


def _jamming_term(z: np.ndarray, jam_cov: ChannelCovariance, cfg: TrainingConfig) -> np.ndarray:
    """Jamming term ``J = (jammer_power / bs_power) * ZᴴC_jZ`` of the received block."""
    return (cfg.jammer_power / cfg.bs_power) * (z.conj().T @ jam_cov.matrix @ z)


def _as_matrix(a: np.ndarray) -> np.ndarray:
    """A closed-form input as a matrix; a 1-D input is the diagonal of one."""
    return np.diag(a) if np.ndim(a) == 1 else a


def _estimator_k(k: np.ndarray, jam: np.ndarray | None, jammer_aware: bool) -> np.ndarray:
    """The ``K_est`` an estimator models: ``K + J`` when it is jammer-aware
    and a jammer transmits, else ``K``. Inputs are both matrices or both
    1-D diagonals."""
    return _hermitian_part(k + jam) if jammer_aware and jam is not None else k


def _closed_form(terms, jam, jammer_aware: bool) -> float:
    """Per-antenna MSE from the ``L x L`` training system.

    ``terms`` is ``(K, G, tr C, M)`` with ``GᴴG = PᴴC²P``; ``jam`` is the
    jamming term ``J`` or None for a silent jammer. ``K`` and ``J`` are each
    an ``L x L`` matrix and ``G`` has ``L`` columns (``CP``); each may
    instead be the 1-D diagonal of a real diagonal ``L x L`` matrix. With
    ``X = (K_est⁻¹Gᴴ)G`` for the ``K_est`` the estimator models (``K + J``
    when it is jammer-aware, else ``K``), the error-covariance trace is
    ``tr C - tr X + tr(K⁻¹ J X)``, where the last term is the jamming the
    estimator leaves out.

    When every input is 1-D the system is solved elementwise; otherwise the
    1-D inputs become diagonal matrices and one Cholesky-checked solve
    serves both ``K_est⁻¹Gᴴ`` and ``K⁻¹J``. ``GᴴG`` is never formed: with a
    rank-deficient ``C`` its round-off, amplified by ``K⁻¹J``, cost the
    unaware value about 1e-10 against the full-dimension formula.

    Raises ``numpy.linalg.LinAlgError`` when ``K_est`` is not positive
    definite and ``ArithmeticError`` if the value is negative beyond
    round-off tolerance (an internal-consistency failure).
    """
    k, g, trace_c, num_antennas = terms
    leaves_out = not jammer_aware and jam is not None
    inputs = (k, g) if jam is None else (k, g, jam)
    if all(np.ndim(a) == 1 for a in inputs):
        k_est = _estimator_k(k, jam, jammer_aware)
        if not np.all(k_est > 0):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        x = (g * g) / k_est
        value = trace_c - float(np.sum(x))
        if leaves_out:
            value += float(np.sum((jam / k_est) * x))
    else:
        k, g = _as_matrix(k), _as_matrix(g)
        jam = None if jam is None else _as_matrix(jam)
        k_est = _estimator_k(k, jam, jammer_aware)
        rows = g.shape[0]
        rhs = g.conj().T
        solved = solve_hpd(k_est, np.hstack([rhs, jam]) if leaves_out else rhs)
        x = solved[:, :rows] @ g
        value = trace_c - float(np.trace(x).real)
        if leaves_out:
            # tr(K⁻¹ J X) as the elementwise product of K⁻¹J with Xᵀ
            value += float(np.sum(solved[:, rows:] * x.T).real)
    value /= num_antennas
    if value < MSE_NEGATIVE_FLOOR:
        raise ArithmeticError(
            f"closed-form MSE {value:.3e} is negative beyond tolerance"
        )
    if leaves_out:
        # a mismatched estimator's error can exceed the channel energy
        return max(value, 0.0)
    return min(max(value, 0.0), trace_c / num_antennas)


def _scenario_terms(
    pilots: UnitaryBlock,
    jamming: UnitaryBlock | None,
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance | None,
    cfg: TrainingConfig,
    estimator_mode: str,
):
    """Checked estimator inputs: ``(pilot terms, J or None, jammer_aware)``."""
    if estimator_mode not in ESTIMATOR_MODES:
        raise ValueError(
            f"unknown estimator mode {estimator_mode!r}; expected one of {ESTIMATOR_MODES}"
        )
    _check_dimensions(pilots, jamming, bs_cov, jam_cov, cfg)
    terms = _pilot_terms(pilots, bs_cov, cfg)
    jam = None if jamming is None else _jamming_term(jamming.matrix, jam_cov, cfg)
    return terms, jam, estimator_mode == "jammer-aware"


def _mmse_filter(
    pilots: UnitaryBlock,
    jamming: UnitaryBlock | None,
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance | None,
    cfg: TrainingConfig,
    estimator_mode: str,
) -> np.ndarray:
    """Linear estimator matrix ``A`` such that the estimate is ``A @ received``.

    ``A = (K_est⁻¹PᴴC)ᴴ / sqrt(L * bs_power)``. In ``jammer-unaware`` mode
    the filter is built without the jamming statistics even when a jammer is
    present in the signal (model mismatch).
    """
    (k, cp, *_), jam, jammer_aware = _scenario_terms(
        pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode
    )
    w = solve_hpd(_estimator_k(k, jam, jammer_aware), cp.conj().T)
    return w.conj().T / np.sqrt(pilots.length * cfg.bs_power)


def scenario_closed_form_mse(
    pilots: UnitaryBlock,
    jamming: UnitaryBlock | None,
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance | None,
    cfg: TrainingConfig,
    estimator_mode: str = "jammer-aware",
) -> float:
    """Closed-form MSE for a pilot / jamming / estimator combination.

    ``jammer-aware`` gives the MMSE, which lies in [0, 1] for unit-diagonal
    covariances. ``jammer-unaware`` gives the exact error of the filter that
    ignores the jamming statistics while the received signal still contains
    them, so under strong jamming it can exceed one.

    Raises ``ValueError`` for a non-positive BS power and
    ``numpy.linalg.LinAlgError`` when the training-length system is singular,
    which requires a zero noise variance together with a rank-deficient
    pilot/covariance combination.
    """
    terms, jam, jammer_aware = _scenario_terms(
        pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode
    )
    return _closed_form(terms, jam, jammer_aware)


def empirical_mse(
    pilots: UnitaryBlock,
    jamming: UnitaryBlock | None,
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance | None,
    cfg: TrainingConfig,
    *,
    trials: int,
    rng: np.random.Generator,
    estimator_mode: str = "jammer-aware",
) -> MonteCarloMse:
    """Monte-Carlo estimate of the per-antenna channel-estimation MSE.

    Draws independent channel, jammer-channel and noise realizations, runs
    the (possibly mismatched) MMSE estimator and averages the squared error
    norm over ``trials`` trials. Trials are generated in chunks of
    ``_MC_CHUNK``, each from its own stream spawned off ``rng``, so the result
    depends only on the generator state and ``trials``, not on how chunks are
    scheduled. The mean uses numpy's pairwise summation.
    """
    trials = _count(trials, "trials", 1)
    a = _mmse_filter(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode)
    length = pilots.length
    bs_gain = np.sqrt(length * cfg.bs_power) * pilots.matrix.conj().T
    jam_gain = None
    if jamming is not None:
        jam_gain = np.sqrt(length * cfg.jammer_power) * jamming.matrix.conj().T
    noise_scale = np.sqrt(cfg.noise_variance * 0.5)
    m = cfg.num_bs_antennas

    per_trial = np.empty(trials)
    n_chunks = -(-trials // _MC_CHUNK)
    start = 0
    for stream in rng.spawn(n_chunks):
        k = min(_MC_CHUNK, trials - start)
        h = sample_complex_gaussian(bs_cov.evd, stream, size=k)
        y = bs_gain @ h
        if jam_gain is not None:
            g = sample_complex_gaussian(jam_cov.evd, stream, size=k)
            y = y + jam_gain @ g
        y = y + noise_scale * (
            stream.standard_normal((length, k)) + 1j * stream.standard_normal((length, k))
        )
        err = h - a @ y
        per_trial[start : start + k] = (np.abs(err) ** 2).sum(axis=0) / m
        start += k
    mean = float(per_trial.mean())
    std_error = float(per_trial.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return MonteCarloMse(mean=mean, std_error=std_error, trials=trials)
