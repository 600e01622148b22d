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
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ChannelCovariance, _exponential_block, exponential_spectrum
from .linalg import (
    _count,
    _finite_matrix,
    _real,
    _real_times,
    haar_orthonormal_columns,
    require_orthonormal_columns,
    solve_hpd,
)
from .tolerances import MSE_NEGATIVE_FLOOR

__all__ = [
    "ESTIMATOR_MODES",
    "PILOT_DESIGNS",
    "MonteCarloMse",
    "TrainingConfig",
    "UnitaryBlock",
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

# TrainingConfig's real fields and their bounds
_REAL_FIELDS = (
    ("noise_variance", 0.0, sys.float_info.max),
    ("bs_correlation", 0.0, 1.0),
    ("jammer_correlation", 0.0, 1.0),
    ("bs_power_db", -math.inf, math.inf),
    ("jammer_power_db", -math.inf, math.inf),
)

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
        m = _finite_matrix(self.matrix, "block")
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
    are ``noise_variance * 10 ** (db / 10)``, and ``-inf`` dB switches the
    jammer off. The BS power must be positive, and twice ``num_bs_antennas +
    (noise_variance + num_jammer_antennas * jammer_power) / bs_power``, the
    bound on an entry of the scaled training system, finite.
    ``noise_variance = 0`` is accepted as a noiseless testing mode; the dB
    values are then read against a unit reference instead.
    ``jammer_power_db`` and ``jammer_correlation`` default to ``bs_power_db``
    and ``bs_correlation`` when left unset (None). Every real field must be a
    real number, not a bool, and is stored as a ``float``; anything else
    raises ``ValueError`` naming the field.
    """

    num_bs_antennas: int
    num_jammer_antennas: int
    pilot_length: int
    bs_power_db: float
    jammer_power_db: float | None = None
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
        if self.jammer_power_db is None:
            object.__setattr__(self, "jammer_power_db", self.bs_power_db)
        if self.jammer_correlation is None:
            object.__setattr__(self, "jammer_correlation", self.bs_correlation)
        for field, low, high in _REAL_FIELDS:
            object.__setattr__(self, field, _real(getattr(self, field), field, low, high))
        for field in ("bs_power_db", "jammer_power_db"):
            value = getattr(self, field)
            # a power that overflows would only fail later, inside a solver
            try:
                linear = _db_to_linear(value, self.noise_variance)
            except OverflowError:
                linear = math.inf
            if not math.isfinite(linear):
                raise ValueError(
                    f"{field} must be a number whose linear power is finite, got {value!r}"
                )
        # The training system is scaled by 1 / bs_power, and _hermitian_part adds
        # it to its transpose, so twice its largest entry must be finite: at most
        # M + noise_variance / bs_power, plus N * jammer_power / bs_power jamming.
        bs_power = self.bs_power
        ratio = math.inf if not bs_power > 0 else self.noise_variance / bs_power
        if not math.isfinite(ratio):
            raise ValueError(f"bs_power_db {self.bs_power_db!r} leaves no finite "
                             "noise_variance / bs_power")
        top = self.num_bs_antennas + ratio
        if not math.isfinite(2 * top):
            raise ValueError(f"bs_power_db {self.bs_power_db!r} overflows twice "
                             "num_bs_antennas + noise_variance / bs_power")
        jamming = self.num_jammer_antennas * (self.jammer_power / bs_power)
        if not math.isfinite(2 * (top + jamming)):
            raise ValueError(f"jammer_power_db {self.jammer_power_db!r} over bs_power_db "
                             f"{self.bs_power_db!r} overflows the jamming term")

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


def optimal_pilots(bs_cov: ChannelCovariance, pilot_length: int) -> UnitaryBlock:
    """Pilots spanning the strongest eigenvectors of the BS channel covariance.

    This is the MSE-minimizing unitary pilot design in the absence of a
    jammer: the columns are the first ``pilot_length`` eigenvectors in
    descending-eigenvalue order (deterministic tie-break). On the jammer's
    covariance it is ``jammer.optimal_jamming``.
    """
    pilot_length = _count(pilot_length, _BLOCK_LENGTH, 1, bs_cov.size)
    return UnitaryBlock(bs_cov.eigenvectors[:, :pilot_length])


def worst_case_pilots(bs_cov: ChannelCovariance, pilot_length: int) -> UnitaryBlock:
    """Pilots spanning the weakest eigenvectors: the MSE-maximizing benchmark."""
    start = bs_cov.size - _count(pilot_length, _BLOCK_LENGTH, 1, bs_cov.size)
    return UnitaryBlock(bs_cov.eigenvectors[:, start:])


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
    # .mT transposes each matrix of a stack; a 1-D diagonal is its own transpose
    return 0.5 * (a + (a.conj().mT if a.ndim > 1 else a.conj()))


def _pilot_terms(pilots: UnitaryBlock, bs_cov: ChannelCovariance, cfg: TrainingConfig):
    """Pilot-side terms ``(K, CP, tr C, M)`` of a pilot block ``P``.

    Scaled by ``1 / (L * bs_power)``, the received block has covariance
    ``K + J`` with ``K = PᴴCP + noise_variance / (L * bs_power) * I`` and the
    jamming term ``J`` of ``_jamming_term``; its cross-covariance with the
    channel is ``CP / sqrt(L * bs_power)``. The tuple is what
    ``_closed_form`` takes, with ``G = CP``.
    """
    length = pilots.length
    noise = cfg.noise_variance / (length * cfg.bs_power)
    cp = bs_cov.matrix @ pilots.matrix
    k = pilots.matrix.conj().T @ cp + noise * np.eye(length)
    trace_c = float(np.trace(bs_cov.matrix).real)
    return _hermitian_part(k), cp, trace_c, bs_cov.size


def _eigen_system(design: str, jamming: str, cfg: TrainingConfig):
    """Closed-form inputs ``((K, G, tr C, M), J)`` of a scenario with optimal
    or worst-case pilots, from the covariance spectra alone.

    The pilots are eigenvectors of the exponential BS covariance, so
    ``K = diag(λ_sel) + noise * I`` and, in the ``L``-dimensional eigenbasis,
    ``G = diag(λ_sel)`` follow from the selected eigenvalues ``λ_sel`` and
    are returned as their diagonals; the unit diagonal makes ``tr C`` the
    antenna count. ``J`` is None for a silent jammer. Single-shot jamming
    sends the first ``L`` identity columns, so ``J = ρ·T_L``, the real
    top-left ``L x L`` block of the jammer covariance. Eigen-optimal jamming
    sends the top eigenvectors, so ``J = ρ·diag(μ_1..μ_L)``, returned as its
    diagonal. Here ``ρ = jammer_power / bs_power`` as in ``_jamming_term``.
    """
    m, length = cfg.num_bs_antennas, cfg.pilot_length
    noise = cfg.noise_variance / (length * cfg.bs_power)
    spectrum = exponential_spectrum(m, cfg.bs_correlation)
    selected = spectrum[:length] if design == "optimal" else spectrum[m - length:]
    jam = None
    if jamming != "silent":
        n = cfg.num_jammer_antennas
        _count(length, _BLOCK_LENGTH, 1, n)
        ratio = cfg.jammer_power / cfg.bs_power
        if jamming == "single-shot":
            jam = ratio * _exponential_block(n, cfg.jammer_correlation, length)
        else:
            jam = ratio * exponential_spectrum(n, cfg.jammer_correlation)[:length]
    return (selected + noise, selected, float(m), m), jam


def _jamming_term(z: np.ndarray, cz: np.ndarray, cfg: TrainingConfig) -> np.ndarray:
    """Jamming term ``J = (jammer_power / bs_power) * (C_jZ)ᴴZ`` of the received block.

    ``cz`` is ``C_jZ``, formed as ``_real_times(jam_cov.matrix, z)``. ``z``
    and ``cz`` may be ``(n, N, L)`` stacks, giving an ``(n, L, L)`` stack of
    terms. ``jammer.verify_lemma`` forms the same bits in its workspace,
    where it also takes the trace of ``(C_jZ)ᴴZ`` before the scaling.
    """
    return (cfg.jammer_power / cfg.bs_power) * (cz.conj().mT @ z)


def _as_matrix(a: np.ndarray) -> np.ndarray:
    """A closed-form input as a matrix; a 1-D input is the diagonal of one."""
    return np.diag(a) if np.ndim(a) == 1 else a


def _estimator_k(k: np.ndarray, jam: np.ndarray | None, jammer_aware: bool) -> np.ndarray:
    """The ``K_est`` an estimator models: ``K + J`` when it is jammer-aware
    and a jammer transmits, else ``K``. Inputs are both matrices or both
    1-D diagonals."""
    return _hermitian_part(k + jam) if jammer_aware and jam is not None else k


def _filter(terms, jam, jammer_aware: bool) -> np.ndarray:
    """The estimator's solve ``W = K_est⁻¹Gᴴ`` of the ``L x L`` training system.

    ``terms`` and ``jam`` are as in ``_closed_form``; ``K_est`` is ``K + J``
    for a jammer-aware estimator and a transmitting jammer, else ``K``. A 1-D
    ``K``, ``G`` or ``J`` is the diagonal of a matrix. The solve is
    Cholesky-checked and real when the inputs are. An ``(n, L, L)`` stack of
    ``J`` gives an ``(n, L, M)`` stack of ``W`` when the estimator models
    ``J``, else the one ``W`` of ``K``.
    """
    k, g, *_ = terms
    jam = None if jam is None else _as_matrix(jam)
    return solve_hpd(_estimator_k(_as_matrix(k), jam, jammer_aware), _as_matrix(g).conj().T)


def _closed_form(terms, jam, jammer_aware: bool) -> float | list[float]:
    """Per-antenna MSE from the ``L x L`` training system.

    ``terms`` is ``(K, G, tr C, M)`` with ``GᴴG = PᴴC²P``; ``jam`` is the
    jamming term ``J`` or None for a silent jammer. ``K`` and ``J`` are each
    an ``L x L`` matrix and ``G`` has ``L`` columns (``CP``); each may
    instead be the 1-D diagonal of a real diagonal ``L x L`` matrix. With the
    filter ``W = K_est⁻¹Gᴴ`` of ``_filter``, the error-covariance trace is
    ``tr C - tr(WG)``, plus ``tr(WᴴJW)`` for a jammer-unaware estimator: the
    jamming its filter passes but does not model.

    When every input is 1-D the system is solved elementwise; otherwise one
    solve gives ``W``, and a 1-D ``G`` then scales its columns instead of
    multiplying by ``diag(G)``. ``GᴴG`` is never formed: with a
    rank-deficient ``C`` its round-off, amplified by the jamming, cost the
    unaware value about 1e-10 against the full-dimension formula.

    ``J`` may also be an ``(n, L, L)`` stack of jamming terms, for either
    estimator: one stacked solve then gives a list of ``n`` MSEs, each with
    the bits of that ``J`` evaluated alone. A check that fails for one of
    them fails the call.

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
        return _checked_mse(value, trace_c, num_antennas, leaves_out)
    w = _filter(terms, jam, jammer_aware)
    # a 1-D G scales columns: the same bits as a product with diag(G)
    x = w * g if np.ndim(g) == 1 else w @ g
    values = trace_c - np.trace(x, axis1=-2, axis2=-1).real
    if leaves_out:
        values += np.sum(w.conj() * (_as_matrix(jam) @ w), axis=(-2, -1)).real
    mses = [_checked_mse(float(v), trace_c, num_antennas, leaves_out) for v in np.ravel(values)]
    return mses if np.ndim(jam) == 3 else mses[0]


def _checked_mse(value: float, trace_c: float, num_antennas: int, leaves_out: bool) -> float:
    """An error-covariance trace as a per-antenna MSE, checked and clipped."""
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
    jam = None if jamming is None else _jamming_term(
        jamming.matrix, _real_times(jam_cov.matrix, jamming.matrix), cfg
    )
    return terms, jam, estimator_mode == "jammer-aware"


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

    Raises ``numpy.linalg.LinAlgError`` when the training-length system is
    singular, which requires a zero noise variance together with a
    rank-deficient pilot/covariance combination.
    """
    return _closed_form(*_scenario_terms(pilots, jamming, bs_cov, jam_cov, cfg, estimator_mode))


def _planes_times(gain: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``gain @ x`` for a complex block stored as its real and imaginary planes.

    ``x`` is a ``(2, n, k)`` float64 array holding the real plane, then the
    imaginary plane, of an ``(n, k)`` block; the result holds those of the
    ``(m, k)`` product. A float64 gain multiplies each plane as a real
    matrix. A complex gain multiplies the ``(2n, k)`` view as its real
    block ``[[Gr, -Gi], [Gi, Gr]]``.
    """
    if not np.iscomplexobj(gain):
        return gain @ x
    block = np.block([[gain.real, -gain.imag], [gain.imag, gain.real]])
    return (block @ x.reshape(2 * x.shape[1], -1)).reshape(2, gain.shape[0], -1)


def _scales(cov: ChannelCovariance) -> np.ndarray:
    """``sqrt(1/2)·Λ^(1/2)`` of ``C = UΛUᴴ``, round-off negative eigenvalues taken as 0."""
    return np.sqrt(0.5) * np.sqrt(np.clip(cov.eigenvalues, 0.0, None))


def _trial_gains(
    pilots: UnitaryBlock,
    jamming: UnitaryBlock | None,
    bs_cov: ChannelCovariance,
    jam_cov: ChannelCovariance | None,
    cfg: TrainingConfig,
    w: np.ndarray,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """``(B, B_j, UᴴA)`` of one scenario's Monte-Carlo trial (see ``_monte_carlo``).

    ``B = sqrt(L·P_b)·PᴴU·diag(s)`` takes the channel planes ``e`` into the
    received block and ``B_j`` (None for a silent jammer) the jammer's.
    From the scenario's solve ``w``, ``W = K_est⁻¹Gᴴ`` of ``_filter``, the
    MMSE filter is ``A = Wᴴ / sqrt(L·P_b)`` (the estimate is ``A @ y``),
    returned in the eigenbasis of ``C = UΛUᴴ``.
    """
    length = pilots.length
    a = w.conj().T / np.sqrt(length * cfg.bs_power)
    bs_gain = np.sqrt(length * cfg.bs_power) * (
        pilots.matrix.conj().T @ bs_cov.eigenvectors
    ) * _scales(bs_cov)
    jam_gain = None
    if jamming is not None:
        jam_gain = np.sqrt(length * cfg.jammer_power) * (
            jamming.matrix.conj().T @ jam_cov.eigenvectors
        ) * _scales(jam_cov)
    return bs_gain, jam_gain, bs_cov.eigenvectors.conj().T @ a


def _monte_carlo(
    gains, bs_cov: ChannelCovariance, cfg: TrainingConfig, trials: int,
    rng: np.random.Generator,
) -> list[MonteCarloMse]:
    """Monte-Carlo MSEs of scenarios that share ``cfg`` and one set of draws.

    Each trial draws a channel, a jammer channel and noise, runs each
    scenario's (possibly mismatched) MMSE estimator on the received block
    and takes the per-antenna squared error; ``gains`` holds one
    ``_trial_gains`` triple per scenario. Trials run in chunks of
    ``_MC_CHUNK``, each from its own stream spawned off ``rng``, so the
    results depend only on the generator state and ``trials``, not on how
    chunks are scheduled. Each mean uses numpy's pairwise summation.

    A trial runs in the eigenbasis of ``C = UΛUᴴ`` on the raw normals: the
    channel is ``h = U·s·e`` with ``s = sqrt(Λ/2)`` and ``e`` the real and
    imaginary planes of one ``standard_normal`` draw, and the jammer's
    channel likewise. With the filter ``A``, the error is measured as
    ``s·e - UᴴAy``, whose norm is that of ``h - Ay`` because ``U`` is
    unitary. Every product with a float64 matrix is real (``_planes_times``).

    Each chunk draws the planes ``e``, then ``g`` when some scenario jams,
    then ``n``, once, and each scenario forms its own ``y = B e + B_j g +
    σn`` from them (common random numbers; see ``experiments.run_sweep``).
    """
    m = cfg.num_bs_antennas
    s = _scales(bs_cov)
    noise_scale = np.sqrt(cfg.noise_variance * 0.5)
    jams = any(jam_gain is not None for _, jam_gain, _ in gains)
    per_trial = np.empty((len(gains), trials))
    n_chunks = -(-trials // _MC_CHUNK)
    start = 0
    for stream in rng.spawn(n_chunks):
        k = min(_MC_CHUNK, trials - start)
        e = stream.standard_normal((2, m, k))
        g = stream.standard_normal((2, cfg.num_jammer_antennas, k)) if jams else None
        noise = stream.standard_normal((2, cfg.pilot_length, k))
        noise *= noise_scale
        for row, (bs_gain, jam_gain, w) in zip(per_trial, gains):
            y = _planes_times(bs_gain, e)
            if jam_gain is not None:
                y += _planes_times(jam_gain, g)
            y += noise
            err = _planes_times(w, y)
            err -= s[:, None] * e
            row[start : start + k] = np.einsum("ijk,ijk->k", err, err) / m
        start += k
    return [
        MonteCarloMse(
            mean=float(row.mean()),
            std_error=float(row.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        )
        for row in per_trial
    ]

