"""Spatial-correlation covariances of the channels, with their cached EVD.

Covers both links seen by the user terminal: base station to user and
jammer to user. Both use the same exponential correlation family, with
independent coefficients.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .linalg import HermitianEvd, as_complex_matrix, hermitian_evd
from .tolerances import PSD_EIG_FLOOR, UNIT_DIAGONAL_ATOL

__all__ = ["ChannelCovariance", "exponential_covariance"]


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


def exponential_covariance(size: int, coefficient: float) -> ChannelCovariance:
    """Covariance with entries ``coefficient ** |i - j|`` for a uniform array.

    ``coefficient = 0`` gives uncorrelated antennas (identity); values close
    to one concentrate the spectrum in a few eigenmodes. Exactly one yields
    the rank-one all-ones matrix, accepted with a ``RuntimeWarning``
    (downstream estimation still works because the noise term regularizes
    every inversion); for ``size = 1`` that matrix is the full-rank 1x1
    identity and does not warn.
    """
    if int(size) != size or size < 1:
        raise ValueError(f"size must be a positive integer, got {size!r}")
    c = float(coefficient)
    if not 0.0 <= c <= 1.0:
        raise ValueError(f"correlation coefficient must lie in [0, 1], got {c}")
    if c == 1.0 and size > 1:
        warnings.warn(
            "correlation coefficient 1 gives a rank-one (singular) covariance",
            RuntimeWarning,
            stacklevel=2,
        )
    lags = np.arange(int(size))
    matrix = (c ** lags)[np.abs(lags[:, None] - lags)].astype(np.complex128)
    return ChannelCovariance.from_matrix(matrix)
