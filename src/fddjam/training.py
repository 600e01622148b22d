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
    # .mT transposes each matrix of a stack
    return 0.5 * (a + a.conj().mT)


def _training_system(x, spectrum: np.ndarray, trace_c: float, cfg: TrainingConfig):
    """Closed-form terms ``(K, G, tr C, M)`` of pilots at coordinates ``x``
    in the eigenbasis of the BS covariance ``C = UΛUᴴ``.

    ``x`` is ``X = UᴴP`` of a pilot block ``P``, or the slice ``S`` of the
    eigenbasis rows that optimal or worst-case pilots select, and
    ``spectrum`` is ``Λ``. Scaled by ``1 / (L * bs_power)``, the received
    block has covariance ``K + J`` with ``K = XᴴΛX + noise_variance / (L *
    bs_power) * I`` and the jamming term ``J`` of ``_jamming_term``; its
    cross-covariance with the channel's coordinates ``Uᴴh`` is ``G / sqrt(L
    * bs_power)`` with ``G = ΛX``. A slice gives both as 1-D diagonals,
    ``λ_S + noise`` and ``λ_S``. The tuple is what ``_closed_form`` takes.
    """
    m, length = cfg.num_bs_antennas, cfg.pilot_length
    noise = cfg.noise_variance / (length * cfg.bs_power)
    if isinstance(x, slice):
        g = spectrum[x]
        return g + noise, g, trace_c, m
    g = spectrum[:, None] * x
    return _hermitian_part(x.conj().T @ g + noise * np.eye(length)), g, trace_c, m


def _block_system(pilots: UnitaryBlock, jamming: UnitaryBlock | None,
                  bs_cov: ChannelCovariance, jam_cov: ChannelCovariance | None,
                  cfg: TrainingConfig):
    """Checked ``(X, terms, J)`` of a pilot block and a jamming block or None:
    the pilots' coordinates ``X = UᴴP``, ``_training_system``'s terms on the
    spectrum of ``bs_cov`` and ``J`` of ``_jamming_term`` (None for a silent
    jammer)."""
    _check_dimensions(pilots, jamming, bs_cov, jam_cov, cfg)
    x = _real_times(bs_cov.eigenvectors.conj().T, pilots.matrix)
    trace_c = float(np.trace(bs_cov.matrix).real)
    jam = None if jamming is None else _jamming_term(
        jamming.matrix, _real_times(jam_cov.matrix, jamming.matrix), cfg
    )
    return x, _training_system(x, bs_cov.eigenvalues, trace_c, cfg), jam


def _eigen_system(design: str, jamming: str, cfg: TrainingConfig):
    """``(S, terms, J)`` of a scenario with optimal or worst-case pilots,
    from the covariance spectra alone.

    The pilots are the eigenvectors ``S`` of the exponential BS covariance,
    rows ``0..L-1`` of its eigenbasis for optimal pilots and ``M-L..M-1``
    for worst-case ones, so ``_training_system`` gives ``K`` and ``G`` as
    1-D diagonals; the unit diagonal makes ``tr C`` the antenna count. ``J``
    is None for a silent jammer. Single-shot jamming sends the first ``L``
    identity columns, so ``J = ρ·T_L``, the real top-left ``L x L`` block of
    the jammer covariance. Eigen-optimal jamming sends the top eigenvectors,
    so ``J = ρ·diag(μ_1..μ_L)``, returned as its diagonal. Here ``ρ =
    jammer_power / bs_power`` as in ``_jamming_term``.
    """
    m, length = cfg.num_bs_antennas, cfg.pilot_length
    rows = slice(0, length) if design == "optimal" else slice(m - length, m)
    terms = _training_system(rows, exponential_spectrum(m, cfg.bs_correlation), float(m), cfg)
    jam = None
    if jamming != "silent":
        n = cfg.num_jammer_antennas
        _count(length, _BLOCK_LENGTH, 1, n)
        ratio = cfg.jammer_power / cfg.bs_power
        if jamming == "single-shot":
            jam = ratio * _exponential_block(n, cfg.jammer_correlation, length)
        else:
            jam = ratio * exponential_spectrum(n, cfg.jammer_correlation)[:length]
    return rows, terms, jam


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
    1-D diagonals. A sum of matrices is made exactly Hermitian; a sum of
    real diagonals already is, and ``0.5 * (a + a)`` would return its bits."""
    if not jammer_aware or jam is None:
        return k
    return k + jam if np.ndim(k) == 1 else _hermitian_part(k + jam)


def _filter(terms, jam, jammer_aware: bool) -> np.ndarray:
    """The estimator's solve ``W = K_est⁻¹Gᴴ`` of the ``L x L`` training system.

    ``terms`` and ``jam`` are as in ``_closed_form``; ``K_est`` is ``K + J``
    for a jammer-aware estimator and a transmitting jammer, else ``K``. When
    ``K``, ``G`` and ``K_est`` are 1-D diagonals, ``W`` is the 1-D
    ``g / k_est``, checked positive. Otherwise a 1-D input is the diagonal
    of a matrix, and the solve is Cholesky-checked and real when the inputs
    are. An ``(n, L, L)`` stack of ``J`` gives an ``(n, L, M)`` stack of
    ``W`` when the estimator models ``J``, else the one ``W`` of ``K``.
    """
    k, g, *_ = terms
    if np.ndim(k) == np.ndim(g) == 1 and (np.ndim(jam) < 2 or not jammer_aware):
        k_est = _estimator_k(k, jam, jammer_aware)
        if not np.all(k_est > 0):
            raise np.linalg.LinAlgError("matrix is not positive definite")
        return g / k_est
    jam = None if jam is None else _as_matrix(jam)
    return solve_hpd(_estimator_k(_as_matrix(k), jam, jammer_aware), _as_matrix(g).conj().T)


def _closed_form(terms, jam, jammer_aware: bool, w=None) -> float | list[float]:
    """Per-antenna MSE from the ``L x L`` training system.

    ``terms`` is ``(K, G, tr C, M)`` with ``GᴴG = PᴴC²P``; ``jam`` is the
    jamming term ``J`` or None for a silent jammer. ``K`` and ``J`` are each
    an ``L x L`` matrix and ``G`` has ``L`` columns (``ΛX`` of
    ``_training_system``, or any ``G`` with that Gram matrix); each may
    instead be the 1-D diagonal of a real diagonal ``L x L`` matrix. With
    the filter ``W = K_est⁻¹Gᴴ`` of ``_filter``, the error-covariance trace
    is ``tr C - tr(WG)``, plus ``tr(WᴴJW)`` for a jammer-unaware estimator:
    the jamming its filter passes but does not model.

    When ``_filter`` gives a 1-D ``W`` (``K_est`` diagonal), the system is
    summed elementwise from ``g² / k_est``, with the diagonal of ``J`` for
    the unaware term. Otherwise one solve gives ``W``, and a 1-D ``G`` then
    scales its columns instead of multiplying by ``diag(G)``. A caller that
    has made that solve already, for its Monte-Carlo filter, passes it as
    ``w`` and it is not repeated. ``GᴴG`` is never formed: with a
    rank-deficient ``C`` its round-off, amplified by the jamming, cost the
    unaware value about 1e-10 against the full-dimension formula.

    ``J`` may also be an ``(n, L, L)`` stack of jamming terms with a matrix
    ``K``, for either estimator: one stacked solve then gives a list of
    ``n`` MSEs, each with the bits of that ``J`` evaluated alone. A check
    that fails for one of them fails the call.

    Raises ``numpy.linalg.LinAlgError`` when ``K_est`` is not positive
    definite and ``ArithmeticError`` if the value is negative beyond
    round-off tolerance (an internal-consistency failure).
    """
    k, g, trace_c, num_antennas = terms
    leaves_out = not jammer_aware and jam is not None
    if w is None:
        w = _filter(terms, jam, jammer_aware)
    if np.ndim(w) == 1:
        k_est = _estimator_k(k, jam, jammer_aware)
        x = (g * g) / k_est
        value = trace_c - float(np.sum(x))
        if leaves_out:
            diagonal = jam if np.ndim(jam) == 1 else np.diagonal(jam)
            value += float(np.sum((diagonal / k_est) * x))
        return _checked_mse(value, trace_c, num_antennas, leaves_out)
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


def _jammer_aware(estimator_mode: str) -> bool:
    """Whether ``estimator_mode`` models the jamming; an unknown mode raises ``ValueError``."""
    if estimator_mode not in ESTIMATOR_MODES:
        raise ValueError(
            f"unknown estimator mode {estimator_mode!r}; expected one of {ESTIMATOR_MODES}"
        )
    return estimator_mode == "jammer-aware"


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
    aware = _jammer_aware(estimator_mode)
    _, terms, jam = _block_system(pilots, jamming, bs_cov, jam_cov, cfg)
    return _closed_form(terms, jam, aware)


def _planes_times(gain: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``gain @ x`` for a complex block stored as its real and imaginary planes.

    ``x`` is a ``(2, n, k)`` float64 array holding the real plane, then the
    imaginary plane, of an ``(n, k)`` block; the result holds those of the
    ``(m, k)`` product. A 1-D gain is the diagonal of a real matrix, as in
    ``_closed_form``, and scales the rows of each plane. A float64 gain
    multiplies each plane as a real matrix. A complex gain multiplies the
    ``(2n, k)`` view as its real block ``[[Gr, -Gi], [Gi, Gr]]``.
    """
    if gain.ndim == 1:
        return gain[:, None] * x
    if not np.iscomplexobj(gain):
        return gain @ x
    block = np.block([[gain.real, -gain.imag], [gain.imag, gain.real]])
    return (block @ x.reshape(2 * x.shape[1], -1)).reshape(2, gain.shape[0], -1)


def _scales(cov: ChannelCovariance) -> np.ndarray:
    """``sqrt(1/2)·Λ^(1/2)`` of ``C = UΛUᴴ``, round-off negative eigenvalues taken as 0."""
    return np.sqrt(0.5) * np.sqrt(np.clip(cov.eigenvalues, 0.0, None))


def _gain(xh, cov: ChannelCovariance, power: float, length: int) -> np.ndarray:
    """A block's trial gain ``sqrt(L·P)·Xᴴ·diag(s)`` on the planes of ``cov``'s eigenbasis.

    ``xh`` is the block's ``Xᴴ`` (``L`` rows), or a slice of eigenbasis rows
    the block selects, which gives the 1-D ``sqrt(L·P)·s[xh]``.
    """
    root = np.sqrt(length * power)
    return root * _scales(cov)[xh] if isinstance(xh, slice) else root * xh * _scales(cov)


def _trial_gains(
    x, jamming: UnitaryBlock | None, jam: np.ndarray | None, w: np.ndarray,
    bs_cov: ChannelCovariance, jam_cov: ChannelCovariance, cfg: TrainingConfig,
) -> tuple[slice, np.ndarray, np.ndarray | None, np.ndarray]:
    """``(rows, B, B_j, A)`` of a scenario's Monte-Carlo trial (see ``_monte_carlo``).

    ``x`` is the pilots' coordinates of ``_training_system``. The slice
    ``S`` of eigen pilots is ``rows`` and gives the 1-D ``B =
    sqrt(L·P_b)·s_S``, which scales those rows of the channel planes ``e``.
    ``X = UᴴP`` of any other block sees all ``M`` rows, with ``B =
    sqrt(L·P_b)·Xᴴ·diag(s)``. From the scenario's solve ``w``, ``W =
    K_est⁻¹Gᴴ`` of ``_filter``, the MMSE filter in the eigenbasis is ``A =
    Wᴴ / sqrt(L·P_b)``, 1-D when ``w`` is, and estimates ``rows`` of the
    whitened channel.

    ``B_j`` takes the jammer planes ``g`` into the received block; it is
    None for a silent jammer (``jam`` None). With a jamming block
    ``jamming`` it is ``sqrt(L·P_j)·ZᴴU_j·diag(s_j)``. Without one the
    form of ``J`` names the jamming of ``_eigen_system``: eigen-optimal (1-D
    ``J``) scales the first ``L`` rows of ``g`` by ``sqrt(L·P_j)·s_j[:L]``,
    and single-shot (matrix ``J``) takes the row slice ``U_j[:L, :]``.
    """
    length = cfg.pilot_length
    rows, xh = (x, x) if isinstance(x, slice) else (slice(0, bs_cov.size), x.conj().T)
    jam_gain = None
    if jam is not None:
        if jamming is not None:
            zh = jamming.matrix.conj().T @ jam_cov.eigenvectors
        elif np.ndim(jam) == 1:
            zh = slice(0, length)
        else:
            zh = jam_cov.eigenvectors[:length]
        jam_gain = _gain(zh, jam_cov, cfg.jammer_power, length)
    return (rows, _gain(xh, bs_cov, cfg.bs_power, length), jam_gain,
            w.conj().T / np.sqrt(length * cfg.bs_power))


def _squared_errors(gains, s: np.ndarray, e: np.ndarray, g: np.ndarray | None,
                    noise: np.ndarray) -> np.ndarray:
    """Each scenario's per-trial ``|s·e - Ay|²`` on one chunk's planes.

    ``gains`` holds one ``(rows, B, B_j, A)`` per scenario
    (``_trial_gains``), ``noise`` is already scaled, and the result has one
    row per scenario and one column per trial. ``B`` acts on the channel
    planes ``e[:, rows]`` and ``B_j`` on the jammer planes ``g``, on
    their first ``L`` rows when it is 1-D. ``A`` estimates ``rows`` of the
    whitened channel ``s·e``. The rows outside ``rows`` are estimated as
    zero, so their error is ``Σ s_i²|e_i|²``: it is summed once for each
    distinct ``rows``, not subtracted from a total, which cancels when few
    rows are left.
    """
    m, length = e.shape[1], noise.shape[1]
    whitened = s[:, None] * e
    rest_energy = {}
    out = np.empty((len(gains), e.shape[2]))
    for row, (rows, bs_gain, jam_gain, a) in zip(out, gains):
        y = _planes_times(bs_gain, e[:, rows])
        if jam_gain is not None:
            y += _planes_times(jam_gain, g if jam_gain.ndim == 2 else g[:, :length])
        y += noise
        err = _planes_times(a, y)
        err -= whitened[:, rows]
        row[:] = np.einsum("ijk,ijk->k", err, err)
        # rows is a prefix or a suffix of the M rows
        rest = slice(rows.stop, m) if rows.start == 0 else slice(0, rows.start)
        if rest.start < rest.stop:
            key = (rest.start, rest.stop)
            if key not in rest_energy:
                left = whitened[:, rest]
                rest_energy[key] = np.einsum("ijk,ijk->k", left, left)
            row += rest_energy[key]
    return out


def _monte_carlo(
    gains, bs_cov: ChannelCovariance, cfg: TrainingConfig, trials: int,
    rng: np.random.Generator,
) -> list[MonteCarloMse]:
    """Monte-Carlo MSEs of scenarios that share ``cfg`` and one set of draws.

    Each trial draws a channel, a jammer channel and noise, runs each
    scenario's (possibly mismatched) MMSE estimator on the received block
    and takes the per-antenna squared error; ``gains`` holds one
    ``_trial_gains`` tuple per scenario. Trials run in chunks of
    ``_MC_CHUNK``, each from its own stream spawned off ``rng``, so the
    results depend only on the generator state and ``trials``, not on how
    chunks are scheduled. Each mean uses numpy's pairwise summation.

    A trial runs in the eigenbasis of ``C = UΛUᴴ`` on the raw normals: the
    channel is ``h = U·s·e`` with ``s = sqrt(Λ/2)`` and ``e`` the real and
    imaginary planes of one ``standard_normal`` draw, and the jammer's
    channel likewise. The filter ``A`` estimates ``Uᴴh = s·e``, so the
    error is measured as ``s·e - Ay``, whose norm is that of the antenna
    basis error because ``U`` is unitary (``_squared_errors``). Every
    product with a float64 matrix is real (``_planes_times``).

    Every scenario's gains come from its pilots' coordinates in that basis
    (``_trial_gains``). Optimal and worst-case pilots select ``L`` of its
    rows, so the channel gain and, unless the jammer-aware estimator models
    single-shot jamming, the filter act elementwise on those rows; only
    single-shot jamming's ``L x N`` gain and that one ``L x L`` filter are
    products. Random pilots see all ``M`` rows, with ``L x M``, ``L x N``
    and ``M x L`` products.

    Each chunk draws the planes ``e``, then ``g`` when some scenario jams,
    then ``n``, once, and each scenario forms its own ``y = B e + B_j g +
    σn`` from them (common random numbers; see ``experiments.run_sweep``).
    """
    s = _scales(bs_cov)
    noise_scale = np.sqrt(cfg.noise_variance * 0.5)
    jams = any(jam_gain is not None for _, _, jam_gain, _ in gains)
    per_trial = np.empty((len(gains), trials))
    n_chunks = -(-trials // _MC_CHUNK)
    start = 0
    for stream in rng.spawn(n_chunks):
        k = min(_MC_CHUNK, trials - start)
        e = stream.standard_normal((2, cfg.num_bs_antennas, k))
        g = stream.standard_normal((2, cfg.num_jammer_antennas, k)) if jams else None
        noise = stream.standard_normal((2, cfg.pilot_length, k))
        noise *= noise_scale
        per_trial[:, start : start + k] = (
            _squared_errors(gains, s, e, g, noise) / cfg.num_bs_antennas
        )
        start += k
    return [
        MonteCarloMse(
            mean=float(row.mean()),
            std_error=float(row.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0,
        )
        for row in per_trial
    ]
