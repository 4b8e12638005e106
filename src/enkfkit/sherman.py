"""Iterative rank-one-update solver for the analysis system (R + V V') Z = D.

The observation-space system matrix is a positive diagonal R plus a sum of
Nens rank-one terms v_k v_k'. Rather than forming the Nobs x Nobs matrix,
the solver sweeps one Sherman-Morrison update per ensemble column over a
shared workspace G = [V-part, D-part] of 2 Nens columns:

* level 0 divides every column of G by r elementwise (the pure-R solve);
* level k picks the pivot column u_k (the k-th V-part column, which at this
  point holds (R + sum_{i<k} v_i v_i')^{-1} v_k), forms
  h_k = u_k / (1 + v_k' u_k), and applies
  ``col -= h_k * (v_k' col)`` to every column that later levels still need.

Column k of G is frozen after level k: it is neither read nor written again.
After Nens levels the D-part holds Z. The solve costs
3 (Nens^2 Nobs + Nens Nobs) multiplications and divisions and
O(Nobs Nens) memory.

The production path batches GROUP_LEVELS consecutive updates into one
compound operator I - H C V' (with C a small lower-triangular composition
matrix) and applies it to the trailing columns with matrix-matrix kernels,
so the workspace is streamed once per group rather than once per level.
The algebra is identical to the level-by-level form; `count_ops=True` and
`verify_frozen=True` run the plain one-update-per-level reference sweep,
whose operation count matches the closed form exactly.

`solve_sherman_blocked` partitions the updated trailing columns into
contiguous blocks handled by a thread pool; each column is touched by one
worker with a fixed per-column operation order, so results match the serial
sweep to rounding (bitwise for one worker).

`solve_sherman_recursive` evaluates the same identity by literal recursion,
re-solving shared subproblems. Its cost grows as 2^Nens base solves, so it
is capped at small ensembles and kept only as a correctness oracle for the
iterative sweep.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dgemm, dger

from .errors import SingularUpdateError

# Guard for |1 + v'u|. The analysis matrix is SPD for valid inputs, so a
# denominator this small signals corrupted input rather than a hard case.
SINGULAR_TOL = 1e-14


@dataclass
class SolverResult:
    """Solution of one analysis system plus bookkeeping.

    Attributes
    ----------
    z : ndarray, Nobs x Nens
        Solution of (diag(r) + V V') Z = D.
    seconds : float
        Wall-clock time of the solve.
    long_ops : int or None
        Multiplications + divisions performed, when counting was requested.
    """

    z: np.ndarray
    seconds: float
    long_ops: int | None = None


def long_op_count(nens: int, nobs: int) -> int:
    """Closed-form count of multiplications and divisions for one solve.

    Level 0 contributes 2 Nobs Nens; level k contributes 2 Nobs for the
    pivot vector plus 2 Nobs per updated column, which sums to
    3 (Nens^2 Nobs + Nens Nobs).
    """
    if nens < 1 or nobs < 1:
        raise ValueError("nens and nobs must be at least 1")
    return 3 * (nens * nens * nobs + nens * nobs)


def validate_system(r, v, d):
    """Return the analysis system as float arrays; every public solver calls
    this before its clock starts, so bad input raises the same ValueError."""
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    d = np.asarray(d, dtype=float)
    if r.ndim != 1:
        raise ValueError(f"r must be a vector, got shape {r.shape}")
    if v.ndim != 2 or d.ndim != 2:
        raise ValueError("V and D must be matrices")
    if v.shape[0] != r.shape[0] or d.shape[0] != r.shape[0]:
        raise ValueError(
            f"row mismatch: r has {r.shape[0]}, V has {v.shape[0]}, "
            f"D has {d.shape[0]}"
        )
    if v.shape[1] != d.shape[1]:
        raise ValueError(
            f"column mismatch: V has {v.shape[1]}, D has {d.shape[1]}"
        )
    if v.shape[1] < 1:
        raise ValueError("need at least one ensemble column")
    if np.any(r <= 0):
        raise ValueError("observation variances must be positive")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d)) and np.all(np.isfinite(r))):
        raise ValueError("inputs contain non-finite entries")
    return r, v, d


def _partition(lo: int, hi: int, parts: int) -> list[tuple[int, int]]:
    """Split the column range [lo, hi) into at most ``parts`` contiguous
    blocks whose sizes differ by at most one."""
    span = hi - lo
    parts = min(parts, span)
    if parts <= 0:
        return []
    size, extra = divmod(span, parts)
    blocks = []
    start = lo
    for i in range(parts):
        stop = start + size + (1 if i < extra else 0)
        blocks.append((start, stop))
        start = stop
    return blocks


# Levels applied per compound trailing update. A group of rank-one updates
# composes into I - H C V' (C small lower-triangular), so the bulk of the
# workspace is touched once per group with matrix-matrix kernels instead of
# once per level; the arithmetic is algebraically identical.
GROUP_LEVELS = 8


def _init_workspace(r, v, d):
    nobs, nens = v.shape
    g = np.empty((nobs, 2 * nens), order="F")
    np.divide(v, r[:, None], out=g[:, :nens])
    np.divide(d, r[:, None], out=g[:, nens:])
    return g


def _sweep(r, v, d, workers: int):
    """Grouped level iteration (the production path); returns z."""
    nobs, nens = v.shape
    g = _init_workspace(r, v, d)

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        for k0 in range(0, nens, GROUP_LEVELS):
            width = min(GROUP_LEVELS, nens - k0)
            hs = np.empty((nobs, width), order="F")
            c = np.zeros((width, width))
            for j in range(width):
                k = k0 + j
                vk = v[:, k]
                u = g[:, k]
                denom = 1.0 + float(vk @ u)
                if abs(denom) < SINGULAR_TOL:
                    raise SingularUpdateError(k + 1, denom)
                h = u / denom
                hs[:, j] = h
                if j > 0:
                    # compose (I - h v') with the accumulated group operator
                    w = vk @ hs[:, :j]
                    c[j, :j] = -(w @ c[:j, :j])
                c[j, j] = 1.0
                if j + 1 < width:
                    # the remaining pivot columns of the group need this
                    # level eagerly; the trailing columns can wait
                    panel = g[:, k + 1:k0 + width]
                    s = vk @ panel
                    dger(-1.0, h, s, a=panel, overwrite_a=1)

            vblk = v[:, k0:k0 + width]
            blocks = _partition(k0 + width, 2 * nens, workers)
            if pool is None or len(blocks) <= 1:
                for lo, hi in blocks:
                    _update_trailing(g, lo, hi, vblk, hs, c)
            else:
                futures = [
                    pool.submit(_update_trailing, g, lo, hi, vblk, hs, c)
                    for lo, hi in blocks
                ]
                for fut in futures:  # group barrier
                    fut.result()
    finally:
        if pool is not None:
            pool.shutdown(wait=False)

    return g[:, nens:].copy()


def _update_trailing(g, lo, hi, vblk, hs, c):
    trailing = g[:, lo:hi]
    s = c @ (vblk.T @ trailing)
    if trailing.flags.f_contiguous:
        dgemm(-1.0, hs, s, beta=1.0, c=trailing, overwrite_c=1)
    else:
        trailing -= hs @ s


def _sweep_reference(r, v, d, count_ops: bool, verify_frozen: bool):
    """One rank-one update per level, exactly as the cost accounting counts
    it; used for operation counting and the frozen-column assertion."""
    nobs, nens = v.shape
    g = _init_workspace(r, v, d)
    ops = 2 * nobs * nens if count_ops else 0

    frozen: list[np.ndarray] = []
    for k in range(nens):
        vk = v[:, k]
        u = g[:, k]
        denom = 1.0 + float(vk @ u)
        if abs(denom) < SINGULAR_TOL:
            raise SingularUpdateError(k + 1, denom)
        h = u / denom
        if count_ops:
            ops += 2 * nobs  # the dot v'u and the division by the scalar
        if verify_frozen:
            frozen.append(g[:, k].copy())

        blk = g[:, k + 1:]
        s = vk @ blk
        dger(-1.0, h, s, a=blk, overwrite_a=1)
        if count_ops:
            ops += 2 * nobs * (2 * nens - k - 1)

        if verify_frozen:
            for i, col in enumerate(frozen):
                if not np.array_equal(col, g[:, i]):
                    raise AssertionError(
                        f"frozen column {i} mutated at level {k + 1}"
                    )

    return g[:, nens:].copy(), (ops if count_ops else None)


def solve_sherman(
    r: np.ndarray,
    v: np.ndarray,
    d: np.ndarray,
    *,
    count_ops: bool = False,
    verify_frozen: bool = False,
) -> SolverResult:
    """Solve (diag(r) + V V') Z = D by the iterative rank-one sweep.

    Parameters
    ----------
    r : positive observation-error variances, length Nobs.
    v : Nobs x Nens matrix of scaled ensemble deviations in observation
        space (carrying the 1/sqrt(Nens-1) factor).
    d : Nobs x Nens right-hand side of innovations.
    count_ops : when True, the result reports the number of
        multiplications/divisions performed (matches
        :func:`long_op_count`).
    verify_frozen : debugging aid; assert that finished pivot columns are
        never touched again.

    Raises
    ------
    ValueError on inconsistent shapes or non-finite input;
    SingularUpdateError when an update denominator vanishes.
    """
    r, v, d = validate_system(r, v, d)
    t0 = time.perf_counter()
    if count_ops or verify_frozen:
        z, ops = _sweep_reference(r, v, d, count_ops, verify_frozen)
    else:
        z, ops = _sweep(r, v, d, workers=1), None
    return SolverResult(z=z, seconds=time.perf_counter() - t0, long_ops=ops)


def solve_sherman_blocked(
    r: np.ndarray,
    v: np.ndarray,
    d: np.ndarray,
    workers: int = 1,
) -> SolverResult:
    """Column-blocked variant of :func:`solve_sherman`.

    The trailing columns updated by each level group are split into
    contiguous per-worker blocks; a barrier separates groups, and the
    pivot vectors and composition matrix are computed once per group and
    shared read-only. Each column is always processed by exactly one
    worker with a fixed operation order, so with ``workers=1`` this runs
    the exact serial code path (bitwise-equal output to
    :func:`solve_sherman`) and for any worker count the result agrees
    with the serial sweep to 1e-12 elementwise.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    r, v, d = validate_system(r, v, d)
    t0 = time.perf_counter()
    z = _sweep(r, v, d, workers=workers)
    return SolverResult(z=z, seconds=time.perf_counter() - t0)


# ---------------------------------------------------------------------------
# Recursive reference form (oracle only)

_RECURSIVE_MAX_NENS = 8


def solve_sherman_recursive(
    r: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    k: int | None = None,
    base_log: list | None = None,
) -> np.ndarray:
    """Evaluate (R + sum_{i<=k} v_i v_i')^{-1} x by literal recursion.

    Each recursion level spawns two subproblems (for the running
    right-hand side and for the next pivot column) without memoization,
    so identical subproblems are re-solved and the number of base-case
    R-solves grows as 2^k. This is intentional: the function exists as an
    independent oracle for the iterative sweep and is limited to
    Nens <= 8.

    Parameters
    ----------
    r, v : system data as in :func:`solve_sherman`.
    x : right-hand side vector, length Nobs.
    k : recursion depth (number of rank-one terms); defaults to Nens.
    base_log : optional list; every base-case solve appends a tag to it
        (0 for the original right-hand side, i for pivot column v_i,
        1-based), so tests can count repeated subproblems.

    Returns
    -------
    Solution vector of length Nobs.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != r.shape[0] or v.shape[0] != r.shape[0]:
        raise ValueError("inconsistent dimensions")
    nens = v.shape[1]
    if nens > _RECURSIVE_MAX_NENS:
        raise ValueError(
            f"recursive oracle limited to Nens <= {_RECURSIVE_MAX_NENS} "
            f"(cost grows as 2^Nens), got {nens}"
        )
    if k is None:
        k = nens
    if not 0 <= k <= nens:
        raise ValueError(f"recursion depth must be in [0, {nens}], got {k}")
    return _recurse(r, v, x, k, 0, base_log)


def _recurse(r, v, x, k, tag, log):
    if k == 0:
        if log is not None:
            log.append(tag)
        return x / r
    f = _recurse(r, v, x, k - 1, tag, log)
    g = _recurse(r, v, v[:, k - 1], k - 1, k, log)
    vk = v[:, k - 1]
    denom = 1.0 + float(vk @ g)
    if abs(denom) < SINGULAR_TOL:
        raise SingularUpdateError(k, denom)
    return f - g * (float(vk @ f) / denom)
