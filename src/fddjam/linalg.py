"""Dense complex linear-algebra primitives shared by the whole library.

Matrices are numpy ``complex128`` arrays. Channel vectors are one
dimensional; batches of vectors are stacked column-wise.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .tolerances import HERMITIAN_ATOL, ORTHONORMAL_TOL, PSD_EIG_FLOOR

__all__ = [
    "HermitianEvd",
    "as_complex_matrix",
    "haar_orthonormal_columns",
    "hermitian_evd",
    "require_orthonormal_columns",
    "sample_complex_gaussian",
    "solve_hpd",
]


def _count(value, name: str, low: int = 0, high: float = math.inf, error=ValueError) -> int:
    """``value`` as an ``int`` from ``low`` to ``high``, else ``error`` naming ``name``.

    An int, a numpy integer or an integral float is a count; a bool (an int
    subclass, but true is no count), None, a string or a fraction is not.
    """
    integral = isinstance(value, (int, np.integer)) or (
        isinstance(value, (float, np.floating)) and value.is_integer()
    )
    if integral and not isinstance(value, bool) and low <= value <= high:
        return int(value)
    bounds = f"from {low} to {high}" if high < math.inf else f">= {low}"
    raise error(f"{name} must be an integer {bounds}, got {value!r}")


def as_complex_matrix(a, *, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a 2-d complex128 array, rejecting non-finite entries."""
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def require_orthonormal_columns(matrix: np.ndarray, *, name: str = "matrix") -> None:
    """Raise if the columns of ``matrix`` are not an orthonormal frame."""
    rows, cols = matrix.shape
    if not 1 <= cols <= rows:
        raise ValueError(
            f"{name} must have between 1 and {rows} columns, got shape {matrix.shape}"
        )
    gram = matrix.conj().T @ matrix
    defect = float(np.linalg.norm(gram - np.eye(cols)))
    if defect > ORTHONORMAL_TOL:
        raise ValueError(f"{name} columns are not orthonormal (defect {defect:.3e})")


@dataclass(frozen=True)
class HermitianEvd:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and sorted in descending order; column ``i`` of
    ``eigenvectors`` is the unit eigenvector paired with ``eigenvalues[i]``.
    Arrays are stored read-only.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        w = np.array(self.eigenvalues, dtype=np.float64)
        v = np.array(self.eigenvectors, dtype=np.complex128)
        if w.ndim != 1 or v.ndim != 2 or v.shape[1] != w.shape[0]:
            raise ValueError(
                f"inconsistent eigenpair shapes: {w.shape} values, {v.shape} vectors"
            )
        if w.size and np.any(np.diff(w) > 0):
            raise ValueError("eigenvalues must be sorted in descending order")
        w.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "eigenvalues", w)
        object.__setattr__(self, "eigenvectors", v)

    @property
    def size(self) -> int:
        return self.eigenvalues.shape[0]


def hermitian_evd(matrix) -> HermitianEvd:
    """Eigendecompose a Hermitian matrix with eigenvalues in descending order.

    Ties between equal eigenvalues keep the LAPACK (ascending) output order
    via a stable sort, so degenerate spectra still produce a deterministic
    eigenbasis; the identity matrix yields the standard basis in index order.

    Parameters
    ----------
    matrix : array_like
        Square matrix, Hermitian to within ``HERMITIAN_ATOL``.

    Raises
    ------
    ValueError
        If the input is not square or not Hermitian within tolerance.
    """
    a = as_complex_matrix(matrix)
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.size:
        asymmetry = float(np.max(np.abs(a - a.conj().T)))
        if asymmetry > HERMITIAN_ATOL:
            raise ValueError(f"matrix is not Hermitian (max asymmetry {asymmetry:.3e})")
    w, v = np.linalg.eigh(a)
    order = np.argsort(-w, kind="stable")
    return HermitianEvd(w[order], v[:, order])


def solve_hpd(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` for Hermitian positive-definite ``a``.

    A Cholesky factorization checks positive definiteness; the solve itself
    is numpy's LU solve, which never forms the inverse explicitly. ``b`` may
    be a vector or a matrix of right-hand sides.

    Raises
    ------
    numpy.linalg.LinAlgError
        If the factorization fails, i.e. ``a`` is not positive definite.
    ValueError
        On shape mismatch or non-Hermitian ``a``.
    """
    a = as_complex_matrix(a, name="lhs")
    if a.shape[0] != a.shape[1]:
        raise ValueError(f"lhs must be square, got shape {a.shape}")
    asymmetry = float(np.max(np.abs(a - a.conj().T))) if a.size else 0.0
    if asymmetry > HERMITIAN_ATOL:
        raise ValueError(f"lhs is not Hermitian (max asymmetry {asymmetry:.3e})")
    rhs = np.asarray(b, dtype=np.complex128)
    if rhs.ndim not in (1, 2) or rhs.shape[0] != a.shape[0]:
        raise ValueError(f"rhs shape {rhs.shape} does not match lhs shape {a.shape}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite entries")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("matrix is not positive definite") from exc
    return np.linalg.solve(a, rhs)


def sample_complex_gaussian(
    evd: HermitianEvd, rng: np.random.Generator, size: int | None = None
) -> np.ndarray:
    """Draw circularly symmetric complex Gaussian vectors.

    The covariance is supplied through its eigendecomposition; samples are
    ``U diag(sqrt(w)) e`` with ``e`` having i.i.d. unit-variance complex
    normal entries (independent real and imaginary parts of variance 1/2).

    With ``size=None`` one vector of shape ``(n,)`` is returned, otherwise an
    ``(n, size)`` array with one sample per column. Identical generator state
    gives a bit-identical sample sequence.

    Eigenvalues inside ``[PSD_EIG_FLOOR, 0]`` are clamped to zero; anything
    below the floor raises ``ValueError`` (covariance is not PSD).
    """
    w = evd.eigenvalues
    if w.size and float(w.min()) < PSD_EIG_FLOOR:
        raise ValueError(
            f"covariance is not positive semidefinite (min eigenvalue {w.min():.3e})"
        )
    k = 1 if size is None else _count(size, "size")
    scale = np.sqrt(np.clip(w, 0.0, None))
    e = np.sqrt(0.5) * (
        rng.standard_normal((evd.size, k)) + 1j * rng.standard_normal((evd.size, k))
    )
    out = evd.eigenvectors @ (scale[:, None] * e)
    return out[:, 0] if size is None else out


def haar_orthonormal_columns(
    rows: int, cols: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw a Haar-distributed ``(rows, cols)`` matrix with orthonormal columns.

    QR of an i.i.d. complex Gaussian matrix, with the phases of the
    triangular factor's diagonal folded back into Q so the distribution is
    invariant under left multiplication by any fixed unitary matrix.

    A rank-deficient draw (probability zero) is retried up to three times
    before raising ``numpy.linalg.LinAlgError``.
    """
    rows = _count(rows, "rows", 1)
    cols = _count(cols, "cols", 1, rows)
    for _ in range(3):
        x = np.sqrt(0.5) * (
            rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
        )
        q, r = np.linalg.qr(x, mode="reduced")
        d = np.diagonal(r)
        if float(np.min(np.abs(d))) > 1e-12:
            return q * (d / np.abs(d))
    raise np.linalg.LinAlgError("random matrix stayed rank deficient after 3 draws")


# A numpy wheel bundles its own OpenBLAS, with its own thread count, in
# numpy.libs: (package, suffix of the library's name and symbols).
_OPENBLAS_COPIES = ((np, "64_"),)


@functools.cache
def _openblas_copies() -> tuple:
    """``(get, set)`` thread-count functions of each bundled OpenBLAS found."""
    copies = []
    for package, suffix in _OPENBLAS_COPIES:
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        try:
            path = next(libs.glob(f"lib*openblas{suffix}-*.so*"))
            # The symbols carry the library's name: lib<name>64_-<hash>.so
            # exports <name>_get_num_threads64_.
            name = path.name[len("lib"):path.name.index(f"{suffix}-")]
            # Opened by its path, a loaded library is the instance in use.
            lib = ctypes.CDLL(str(path))
            get = getattr(lib, f"{name}_get_num_threads{suffix}")
            set_ = getattr(lib, f"{name}_set_num_threads{suffix}")
        except (StopIteration, OSError, AttributeError):
            continue  # an MKL or system BLAS build
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        copies.append((get, set_))
    return tuple(copies)


def _one_blas_thread() -> None:
    """Run every bundled OpenBLAS of this process on one thread.

    Also a process pool's worker initializer: a worker started by ``spawn``
    or ``forkserver`` does not inherit its parent's thread count.
    """
    for _, set_ in _openblas_copies():
        set_(1)


@contextlib.contextmanager
def _single_blas_thread():
    """Run every bundled OpenBLAS on one thread, then restore the counts."""
    copies = _openblas_copies()
    saved = [get() for get, _ in copies]
    _one_blas_thread()
    try:
        yield
    finally:
        for (_, set_), threads in zip(copies, saved):
            set_(threads)
