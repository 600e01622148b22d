"""Dense linear-algebra primitives shared by the whole library.

Covariances, eigenvectors, pilot and jamming blocks are numpy float64
arrays when real (the exponential covariance, its eigenvectors and the
blocks built from them) and complex128 otherwise (Haar blocks, general
covariances): the dtype alone says which. A covariance's eigendecomposition
lives in ``channel.ChannelCovariance``. Products keep real arithmetic where
the dtypes allow it: ``solve_hpd`` solves a real system in float64,
``_real_times`` multiplies a real matrix into a complex block as one real
GEMM, and the Monte-Carlo trials of ``training._monte_carlo`` (reached
through ``experiments.run_sweep`` and ``fddjam mse``) run on the raw normal
draws, as real and imaginary planes, in the eigenbasis of the covariance.
Channel vectors are 1-d; batches are stacked column-wise.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
from pathlib import Path

import numpy as np

from .tolerances import ORTHONORMAL_TOL

__all__ = [
    "haar_orthonormal_columns",
    "require_orthonormal_columns",
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


def _real(value, name: str, low: float, high: float) -> float:
    """``value`` as a ``float`` from ``low`` to ``high``, else ``ValueError`` naming ``name``.

    A Python or numpy real is a number; a bool, None, a string, a complex or
    NaN is not.
    """
    # a float skips the ABC check, which takes a microsecond, on every closed-form row
    if isinstance(value, float) or (isinstance(value, numbers.Real) and type(value) is not bool):
        try:
            if low <= (number := float(value)) <= high:
                return number
        except OverflowError:  # an int past the float range
            pass
    raise ValueError(f"{name} must be a real number in [{low:g}, {high:g}], got {value!r}")


def _finite_matrix(a, name: str) -> np.ndarray:
    """A C-ordered copy of ``a`` as a 2-d array, rejecting non-finite entries.

    A complex ``a`` is copied as complex128, any other as float64.
    """
    arr = np.array(a, dtype=np.complex128 if np.iscomplexobj(a) else np.float64, order="C")
    if arr.ndim != 2:
        raise ValueError(f"{name} must be two-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _real_times(a: np.ndarray, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ x``, with ``x`` one matrix or a stack of them, written into
    ``out`` when given (C-contiguous, of the product's shape and dtype).

    A float64 ``a`` times a complex ``x`` multiplies the float64 view of
    ``x``, one real GEMM with half the flops of the complex one; the view
    puts each column's real and imaginary parts side by side. Any other
    pair is a plain product.
    """
    if np.iscomplexobj(a) or not np.iscomplexobj(x):
        return np.matmul(a, x, out=out)
    real_out = None if out is None else out.view(np.float64)
    return np.matmul(a, np.ascontiguousarray(x).view(np.float64), out=real_out).view(np.complex128)


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


def solve_hpd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``a @ x = b`` for the training system of ``training._filter``.

    Its one caller passes an exactly Hermitian float64 or complex128 ``a``
    and ``b = Gᴴ``, whose rows match. Checked here: ``a`` is finite (numpy's
    Cholesky factors an infinite diagonal without an error) and, by a
    Cholesky factorization, positive definite. The solve is numpy's LU
    solve, which never forms the inverse.

    ``a`` may be an ``(n, L, L)`` stack sharing one ``b``; each entry of
    ``x`` then has the bits of that matrix's solve alone, and one matrix
    that fails a check fails the call. Float64 ``a`` and ``b`` give a real
    solve and a float64 ``x``; otherwise it is complex128.

    Raises ``numpy.linalg.LinAlgError`` if ``a`` is not positive definite
    and ``ValueError`` if it has non-finite entries.
    """
    if not np.all(np.isfinite(a)):
        raise ValueError("lhs contains non-finite entries")
    try:
        np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError("matrix is not positive definite") from exc
    return np.linalg.solve(a, b)


def _complex_normals(
    rng: np.random.Generator, shape: tuple, scale: float, workspace: tuple | None = None
) -> np.ndarray:
    """``scale * (re + 1j * im)`` for standard normals ``re`` and ``im`` of
    ``shape``, with the bits of that expression. One draw gives each
    trailing matrix's ``re`` then ``im``, as two draws would; both scaled
    planes are written straight into the result's float64 view.

    ``workspace``, a pair of C-contiguous arrays, float64 of the draw's
    shape ``(*shape[:-2], 2, *shape[-2:])`` and complex128 of ``shape``,
    receives the draw and the result, which is then the second array; the
    stream and the bits are those without it.
    """
    drawn = (*shape[:-2], 2, *shape[-2:])
    if workspace is None:
        normals, x = np.empty(drawn), np.empty(shape, np.complex128)
    else:
        normals, x = workspace
        if (normals.shape, normals.dtype, x.shape, x.dtype) != (
            drawn, np.float64, tuple(shape), np.complex128
        ):
            raise ValueError(
                f"workspace must be float64 {drawn} and complex128 {tuple(shape)} arrays, "
                f"got {normals.dtype} {normals.shape} and {x.dtype} {x.shape}"
            )
    rng.standard_normal(out=normals)
    np.multiply(normals[..., 0, :, :], scale, out=x.real)
    np.multiply(normals[..., 1, :, :], scale, out=x.imag)
    return x


def haar_orthonormal_columns(
    rows: int,
    cols: int,
    rng: np.random.Generator,
    count: int | None = None,
    *,
    workspace: tuple | None = None,
) -> np.ndarray:
    """Draw a Haar-distributed ``(rows, cols)`` matrix with orthonormal columns.

    QR of an i.i.d. complex Gaussian matrix, with the phases of the
    triangular factor's diagonal folded back into Q so the distribution is
    invariant under left multiplication by any fixed unitary matrix.

    With ``count``, a ``(count, rows, cols)`` stack comes back from one draw
    of normals and one stacked QR: bit for bit the matrices, and the
    generator state after, of ``count`` calls without it. A single matrix
    is the stack of one.

    ``workspace`` lets a caller that draws many stacks keep the draw's two
    arrays, float64 ``(count, 2, rows, cols)`` normals and the complex128
    ``(count, rows, cols)`` Gaussian matrices (``count`` 1 without it), for
    every stack, so that only the QR allocates: the same stream, the same
    bits. The returned ``Q`` is the QR's own array.

    A rank-deficient draw (probability zero) raises ``numpy.linalg.LinAlgError``.
    """
    rows = _count(rows, "rows", 1)
    cols = _count(cols, "cols", 1, rows)
    size = 1 if count is None else _count(count, "count", 1)
    x = _complex_normals(rng, (size, rows, cols), np.sqrt(0.5), workspace)
    q, r = np.linalg.qr(x, mode="reduced")
    d = np.diagonal(r, axis1=-2, axis2=-1)
    if not float(np.min(np.abs(d))) > 1e-12:
        raise np.linalg.LinAlgError("random matrix is rank deficient")
    q *= (d / np.abs(d))[:, None, :]
    return q[0] if count is None else q


@functools.cache
def _bundled_openblas() -> tuple | None:
    """``(get, set)`` thread-count functions of the OpenBLAS a numpy wheel
    bundles in numpy.libs, with its own thread count; None without one."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        path = next(libs.glob("lib*openblas64_-*.so*"))
        # The symbols carry the library's name: lib<name>64_-<hash>.so
        # exports <name>_get_num_threads64_.
        name = path.name[len("lib"):path.name.index("64_-")]
        # Opened by its path, a loaded library is the instance in use.
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, f"{name}_get_num_threads64_")
        set_ = getattr(lib, f"{name}_set_num_threads64_")
    except (StopIteration, OSError, AttributeError):
        return None  # an MKL or system BLAS build
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _one_blas_thread() -> None:
    """Run the bundled OpenBLAS of this process on one thread.

    Also a process pool's worker initializer: a worker started by ``spawn``
    or ``forkserver`` does not inherit its parent's thread count.
    """
    if (blas := _bundled_openblas()) is not None:
        blas[1](1)


@contextlib.contextmanager
def _single_blas_thread():
    """Run the bundled OpenBLAS on one thread, then restore its count."""
    blas = _bundled_openblas()
    saved = None if blas is None else blas[0]()
    _one_blas_thread()
    try:
        yield
    finally:
        if blas is not None:
            blas[1](saved)
