"""Live thread counts of the OpenBLAS copies bundled with numpy and scipy.

numpy and scipy wheels each ship their own OpenBLAS, and each copy keeps its
own thread count. ``threadpoolctl`` is not a dependency here, so both are
reached through ctypes. The libraries are opened by the path they were
loaded from, which returns the instances numpy and scipy already use.
"""

from __future__ import annotations

import ctypes
import glob
import os

# (package, file pattern in <package>.libs, getter symbol, setter symbol)
_COPIES = (
    ("numpy", "libscipy_openblas64_*.so*",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy", "libscipy_openblas-*.so*",
     "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


class _Copy:
    def __init__(self, package: str, path: str, getter: str, setter: str):
        self.package = package
        self.path = path
        lib = ctypes.CDLL(path)
        self._get = getattr(lib, getter)
        self._get.argtypes = []
        self._get.restype = ctypes.c_int
        self._set = getattr(lib, setter)
        self._set.argtypes = [ctypes.c_int]
        self._set.restype = None

    def get(self) -> int:
        return int(self._get())

    def set(self, threads: int) -> None:
        self._set(int(threads))


def bundled_copies() -> list[_Copy]:
    """The OpenBLAS copies found next to the installed numpy and scipy.

    numpy and scipy.linalg are imported first so that the copies opened
    here are the ones already loaded. A copy that cannot be found (a
    different BLAS build) is left out.
    """
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    copies = []
    for package, pattern, getter, setter in _COPIES:
        module = __import__(package)
        libs = os.path.join(os.path.dirname(os.path.dirname(module.__file__)), f"{package}.libs")
        for path in sorted(glob.glob(os.path.join(libs, pattern))):
            try:
                copies.append(_Copy(package, path, getter, setter))
            except (OSError, AttributeError):
                continue
            break
    return copies


def thread_counts(copies) -> dict[str, int]:
    """Live thread count of each copy, keyed by the package that ships it."""
    return {copy.package: copy.get() for copy in copies}


class limited_threads:
    """Context manager: every copy runs ``threads`` threads, then is restored."""

    def __init__(self, copies, threads: int):
        self._copies = copies
        self._threads = threads
        self._saved: list[int] = []

    def __enter__(self):
        self._saved = [copy.get() for copy in self._copies]
        for copy in self._copies:
            copy.set(self._threads)
        return self

    def __exit__(self, *exc):
        for copy, threads in zip(self._copies, self._saved):
            copy.set(threads)
        return False
