"""One BLAS thread budget for every OpenBLAS copy in the process.

numpy and scipy each ship their own OpenBLAS. The Sherman sweep runs on
scipy's copy and the SVD path on numpy's, so at the default count the idle
threads of one copy spin while the other copy works. The copies are the
OpenBLAS libraries mapped into the process, however numpy and scipy were
installed.
"""

from __future__ import annotations

import ctypes
import functools
import warnings
from pathlib import Path

import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS; numpy's is loaded)

# scipy-openblas wheels (numpy >= 2.0, scipy >= 1.13) prefix every symbol;
# older wheels and system builds export the plain OpenBLAS names.
_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
            "openblas_set_num_threads64_", "openblas_set_num_threads")
_GETTERS = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_", "openblas_get_num_threads")


@functools.cache
def _libraries() -> tuple:
    """(name, handle) for each OpenBLAS mapped into this process, read
    on first use."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        maps = ""
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    if not paths:
        warnings.warn("no OpenBLAS library is loaded; the BLAS thread count "
                      "is left to the environment", RuntimeWarning)
    return tuple((f"{Path(p).parent.name}/{Path(p).name}", ctypes.CDLL(p))
                 for p in paths)


def _copies(symbols):
    """(name, first of ``symbols`` the copy exports, or None) per copy."""
    for name, lib in _libraries():
        yield name, next((getattr(lib, s) for s in symbols if hasattr(lib, s)), None)


def set_blas_threads(n: int) -> None:
    """Set every OpenBLAS copy to ``n`` threads; a copy that exports no
    setter keeps its count, with a warning. OpenBLAS reads ``n < 1`` as
    "every CPU", so that raises ValueError and no copy changes."""
    if n < 1:
        raise ValueError(f"BLAS thread count must be at least 1, got {n}")
    for name, setter in _copies(_SETTERS):
        if setter is None:
            warnings.warn(f"{name} exports no set_num_threads symbol; "
                          "its thread count is unchanged", RuntimeWarning)
        else:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(n)


def blas_threads() -> dict:
    """Thread count of each OpenBLAS copy (None if it exports no getter)."""
    counts = {}
    for name, getter in _copies(_GETTERS):
        counts[name] = None
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts[name] = getter()
    return counts
