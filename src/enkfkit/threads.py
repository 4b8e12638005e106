"""The BLAS thread budget of every OpenBLAS copy in the process.

numpy and scipy each ship their own OpenBLAS. The sweep's products and
the factorizations (``dpotrf``/``dpotrs``, the Cholesky path's
``dsfrk``/``dpftrf``/``dpftrs`` and the SVD's ``dgesdd``) run on scipy's
copy; numpy's copy keeps the Nens x Nens
products and the SVD path's two products with U. The default budget gives
every copy one thread, so no idle workers of one copy spin against the
other. The one exception is chosen from the problem size: a dense Cholesky
solve of at least PARALLEL_ORDER observations runs every copy but numpy's
own on min(PARALLEL_THREADS, allowed CPUs) threads for its duration
(:func:`factorization_threads`). A thread variable in the environment
turns the budget off: every copy then stays as the variable made it. The
copies are the OpenBLAS libraries mapped into the process, however numpy
and scipy were installed.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
import warnings
from collections.abc import Mapping
from pathlib import Path

import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS; numpy's is loaded)

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
# Read once, at import: OpenBLAS reads the variables when it is loaded.
_SET_BY_ENVIRONMENT = any(os.environ.get(k) for k in THREAD_VARIABLES)

# Dense Cholesky solves from this many observations up run on more than one
# thread. On a 2-vCPU machine two threads took 0.57-0.76 of the one-thread
# time from 1000 to 10000 observations (Nens 16 to 64), 0.71-0.94 at 500,
# and 1.14-1.16 at 250-300.
PARALLEL_ORDER = 1000
# The largest count measured; more threads are left to a measurement on a
# machine with more CPUs.
PARALLEL_THREADS = 2

# The cgroup v2 CPU limit of the process ("max <period>" or "<quota> <period>").
_CPU_MAX = Path("/sys/fs/cgroup/cpu.max")

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


def allowed_cpus() -> int:
    """The number of CPUs this process may use: its affinity mask
    (``os.cpu_count()`` where the platform has none), lowered to a cgroup v2
    CPU quota, rounded down, where one is set."""
    affinity = getattr(os, "sched_getaffinity", None)
    n = len(affinity(0)) if affinity else os.cpu_count() or 1
    try:
        quota, period = _CPU_MAX.read_text().split()
        if quota != "max":
            n = min(n, max(1, int(quota) // int(period)))
    except (OSError, ValueError):
        pass
    return n


def use_default_budget() -> None:
    """Give every copy one thread, unless a thread variable is set."""
    if not _SET_BY_ENVIRONMENT:
        set_blas_threads(1)


# Large factorizations running now, in any thread, and the budget to give
# back when the last of them ends.
_lock = threading.Lock()
_running = 0
_before: dict = {}


@contextlib.contextmanager
def factorization_threads(order: int):
    """Run the block with every copy but numpy's own at (at least)
    min(PARALLEL_THREADS, allowed_cpus()) threads if ``order``, the number
    of observations of a dense solve, is at least PARALLEL_ORDER, and give
    each copy its count back when the last such block in the process ends.
    Below that order, with one allowed CPU, or when a thread variable is
    set, the budget is left alone."""
    global _running, _before
    if (order < PARALLEL_ORDER or _SET_BY_ENVIRONMENT
            or (n := min(PARALLEL_THREADS, allowed_cpus())) < 2):
        yield
        return
    with _lock:
        if _running == 0:
            _before = blas_threads()
            set_blas_threads({name: max(n, c) for name, c in _before.items()
                              if c is not None and not name.startswith("numpy.libs/")})
        _running += 1
    try:
        yield
    finally:
        with _lock:
            _running -= 1
            if _running == 0:
                set_blas_threads(_before)


def set_blas_threads(n: int | Mapping[str, int]) -> None:
    """Set every OpenBLAS copy to ``n`` threads, or each copy named in the
    mapping ``n`` to its own count, so ``set_blas_threads(blas_threads())``
    restores a budget (a copy that is not named, or named with None, keeps
    its count). A copy that exports no setter keeps its count, with a
    warning. OpenBLAS reads a count below 1 as "every CPU", so that raises
    ValueError and no copy changes."""
    uniform = not isinstance(n, Mapping)
    if uniform:
        counts = {name: n for name, _ in _libraries()}
    else:
        counts = {name: c for name, c in n.items() if c is not None}
    for c in [n] if uniform else counts.values():
        if c < 1:
            raise ValueError(f"BLAS thread count must be at least 1, got {c}")
    for name, setter in _copies(_SETTERS):
        if name not in counts:
            continue
        if setter is None:
            warnings.warn(f"{name} exports no set_num_threads symbol; "
                          "its thread count is unchanged", RuntimeWarning)
        else:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(counts[name])


def blas_threads() -> dict:
    """Thread count of each OpenBLAS copy (None if it exports no getter)."""
    counts = {}
    for name, getter in _copies(_GETTERS):
        counts[name] = None
        if getter is not None:
            getter.argtypes, getter.restype = [], ctypes.c_int
            counts[name] = getter()
    return counts
