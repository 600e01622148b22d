"""Spatial-correlation covariances of the channels, with their cached EVD.

Covers both links seen by the user terminal: base station to user and
jammer to user. Both use the same exponential correlation family, with
independent coefficients.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianEvd, _count, as_complex_matrix, hermitian_evd
from .tolerances import PSD_EIG_FLOOR, SPECTRUM_RANK_EPS, UNIT_DIAGONAL_ATOL

__all__ = [
    "ChannelCovariance",
    "exponential_covariance",
    "exponential_spectrum",
]

# Distinct (size, coefficient) spectra kept per process. The built-in figures
# use 37; an entry is one float64 per antenna.
_SPECTRUM_CACHE_SIZE = 128


@dataclass(frozen=True)
class ChannelCovariance:
    """Hermitian PSD covariance of a channel vector, with cached EVD.

    The diagonal is normalized to one (path loss and shadow fading are folded
    into the transmit powers), so the trace equals the antenna count.
    """

    matrix: np.ndarray
    evd: HermitianEvd

    @classmethod
    def from_matrix(cls, matrix, *, unit_diagonal: bool = True) -> "ChannelCovariance":
        """Validate a plain covariance matrix and wrap it with its EVD.

        ``unit_diagonal=False`` skips the unit path-loss check, for general
        PSD covariances used in stress tests.
        """
        m = as_complex_matrix(matrix, name="covariance")
        if m.shape[0] != m.shape[1]:
            raise ValueError(f"covariance must be square, got shape {m.shape}")
        evd = hermitian_evd(m)
        if evd.size and float(evd.eigenvalues.min()) < PSD_EIG_FLOOR:
            raise ValueError(
                "covariance is not positive semidefinite "
                f"(min eigenvalue {evd.eigenvalues.min():.3e})"
            )
        if unit_diagonal:
            defect = float(np.max(np.abs(np.diagonal(m) - 1.0)))
            if defect > UNIT_DIAGONAL_ATOL:
                raise ValueError(
                    f"covariance diagonal must be one (max deviation {defect:.3e})"
                )
        m = m.copy()
        m.setflags(write=False)
        return cls(matrix=m, evd=evd)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def _checked_exponential(size: int, coefficient: float) -> tuple[int, float]:
    """Validated ``(size, coefficient)`` of an exponential covariance.

    Warns on every request for a rank-one covariance (coefficient one, more
    than one antenna), cached or not.
    """
    size = _count(size, "size", 1)
    c = float(coefficient)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"correlation coefficient must lie in [0, 1], got {c}")
    if c == 1.0 and size > 1:
        warnings.warn(
            "correlation coefficient 1 gives a rank-one (singular) covariance",
            RuntimeWarning,
            stacklevel=3,
        )
    return size, c


def _exponential_toeplitz(size: int, c: float) -> np.ndarray:
    # Real Toeplitz matrix c ** |i - j|, indexed by lag
    lags = np.arange(size)
    return (c ** lags)[np.abs(lags[:, None] - lags)]


def exponential_covariance(size: int, coefficient: float) -> ChannelCovariance:
    """Covariance with entries ``coefficient ** |i - j|`` for a uniform array.

    ``coefficient = 0`` gives uncorrelated antennas (identity); values close
    to one concentrate the spectrum in a few eigenmodes. Exactly one yields
    the rank-one all-ones matrix, accepted with a ``RuntimeWarning``
    (downstream estimation still works because the noise term regularizes
    every inversion); for ``size = 1`` that matrix is the full-rank 1x1
    identity and does not warn.
    """
    size, c = _checked_exponential(size, coefficient)
    return ChannelCovariance.from_matrix(_exponential_toeplitz(size, c).astype(np.complex128))


def _exponential_block(size: int, coefficient: float, length: int) -> np.ndarray:
    """Top-left ``length x length`` block of ``exponential_covariance(size, coefficient)``.

    Real and Toeplitz; it warns like ``exponential_covariance``. The caller
    checks that ``length`` is a valid block length for ``size``.
    """
    _, c = _checked_exponential(size, coefficient)
    return _exponential_toeplitz(length, c)


def exponential_spectrum(size: int, coefficient: float) -> np.ndarray:
    """Descending eigenvalues of ``exponential_covariance(size, coefficient)``.

    Real ``eigvalsh`` of the real matrix, kept read-only in a bounded
    per-process cache keyed by ``(size, coefficient)``; no eigenvectors and
    no matrix are kept. Eigenvalues within round-off of zero (see
    ``SPECTRUM_RANK_EPS``) are exact zeros. It warns like
    ``exponential_covariance``.
    """
    return _cached_spectrum(*_checked_exponential(size, coefficient))


@functools.lru_cache(maxsize=_SPECTRUM_CACHE_SIZE)
def _cached_spectrum(size: int, c: float) -> np.ndarray:
    w = np.linalg.eigvalsh(_exponential_toeplitz(size, c))[::-1]
    w = np.where(w <= size * SPECTRUM_RANK_EPS * w[0], 0.0, w)
    w.setflags(write=False)
    return w
