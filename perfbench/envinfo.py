"""The environment a run measured in: versions, CPUs and the BLAS copies.

numpy and scipy each load their own OpenBLAS. Their thread counts are read
through each copy's ``scipy_openblas_get_num_threads*`` symbol and never
set.
"""

from __future__ import annotations

import ctypes
import os
import platform
from pathlib import Path

_THREAD_SYMBOLS = ("scipy_openblas_get_num_threads64_",
                   "scipy_openblas_get_num_threads")
_CONFIG_SYMBOLS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config")


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def _symbol(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = restype
            return fn
    return None


def openblas_copies() -> list[dict]:
    """Every OpenBLAS mapped into this process, with its thread count."""
    maps = _read("/proc/self/maps")
    if maps is None:
        return []
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and ".so" in line})
    copies = []
    for path in paths:
        lib = ctypes.CDLL(path)
        threads = _symbol(lib, _THREAD_SYMBOLS, ctypes.c_int)
        config = _symbol(lib, _CONFIG_SYMBOLS, ctypes.c_char_p)
        copies.append({
            "library": path.rsplit("/", 2)[-2] + "/" + path.rsplit("/", 1)[-1],
            "threads": threads() if threads else None,
            "config": config().decode() if config else None,
        })
    return copies


def environment() -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "cgroup_v1_cfs_quota_us": _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us"),
        "cgroup_v1_cfs_period_us": _read(
            "/sys/fs/cgroup/cpu/cpu.cfs_period_us"),
        "openblas": openblas_copies(),
        "thread_variables": {k: os.environ.get(k) for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
