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

The production path batches levels into compound operators I - H C V_b',
where H holds the pivots h_i of the batched levels, V_b their columns of V,
and C = (I + L)^{-1} with L the strictly lower part of V_b' H; matrix-matrix
kernels apply them. Once level k is done, h_k overwrites column k of the
V-part. Groups of GROUP_LEVELS levels update only the V-part, whose later
columns the next pivots need; each group first copies its columns of V
into one Fortran-ordered buffer of the solve. After the last group the
D-part takes all Nens levels at once, Z = R^{-1} D - H C V' R^{-1} D with
H the whole V-part: two products with k = Nobs, one Nens x Nens
unit-triangular solve and one product with k = Nens. That is about
4 Nens^2 Nobs multiplications, against the 3 Nens^2 Nobs of the literal
sweep, but no group carries the Nens D-part columns along, and the
D-part's products are well-shaped matrix-matrix calls. `count_ops=True`
runs the algebraically identical one-update-per-level reference sweep, whose
operation count matches the closed form. Both sweeps send every
Nobs-sized product to ``scipy.linalg.blas``: numpy and scipy each load
their own OpenBLAS, and a sweep that switches between the two makes their
threads wait on each other.

The literal recursive evaluation of the same identity, an exponential-cost
oracle for this sweep, lives in :mod:`enkfkit.verify`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot, dgemm, dgemv, dger, dtrsm

from .errors import SingularUpdateError

# Guard for |1 + v'u|. The analysis matrix is SPD for valid inputs, so a
# denominator this small, or an overflowed one, signals corrupted input.
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
    if min(v.shape) < 1:
        raise ValueError("need at least one observation and one ensemble column")
    if np.any(r <= 0):
        raise ValueError("observation variances must be positive")
    if not (np.all(np.isfinite(v)) and np.all(np.isfinite(d)) and np.all(np.isfinite(r))):
        raise ValueError("inputs contain non-finite entries")
    return r, v, d


# Levels per compound update I - H C V' (see the module docstring).
GROUP_LEVELS = 8

# Rows per block when gathering a group's columns of V: the strided rows of
# a C-ordered V that one block reads stay in cache until they are copied.
_GATHER_ROWS = 1024


def _init_workspace(r, v, d):
    nobs, nens = v.shape
    g = np.empty((nobs, 2 * nens), order="F")
    np.divide(v, r[:, None], out=g[:, :nens])
    np.divide(d, r[:, None], out=g[:, nens:])
    return g


def check_denominator(denom: float, level: int) -> None:
    """Raise SingularUpdateError unless SINGULAR_TOL <= |denom| < inf; the
    one guard of both sweeps and of the recursive oracle (``level`` is
    1-based)."""
    if not SINGULAR_TOL <= abs(denom) < np.inf:  # also false for nan
        raise SingularUpdateError(level, denom)


def _pivot(vk, u, k, out=None):
    """Level k's pivot h = u / (1 + vk' u), written to ``out`` if given."""
    denom = 1.0 + ddot(vk, u)
    check_denominator(denom, k + 1)
    return np.divide(u, denom, out=out)


def _apply_levels(vb, h, t, trans_a=1):
    """T -= H (I + L)^{-1} Vb' T in place, L strictly lower in Vb' H: the
    product of the levels whose pivots are the columns of H. ``vb`` is Vb
    (or Vb' if ``trans_a`` is 0); column slices of the Fortran-ordered
    workspace are F-contiguous, so dgemm updates T in place."""
    s = dgemm(1.0, vb, t, trans_a=trans_a)
    s = dtrsm(1.0, dgemm(1.0, vb, h, trans_a=trans_a), s, lower=1, diag=1,
              overwrite_b=1)
    dgemm(-1.0, h, s, beta=1.0, c=t, overwrite_c=1)


def _sweep(r, v, d):
    """Grouped level iteration (the production path); returns z."""
    nobs, nens = v.shape
    g = _init_workspace(r, v, d)
    vg = np.empty((nobs, GROUP_LEVELS), order="F")

    for k0 in range(0, nens, GROUP_LEVELS):
        width = min(GROUP_LEVELS, nens - k0)
        for i in range(0, nobs, _GATHER_ROWS):
            rows = slice(i, i + _GATHER_ROWS)
            vg[rows, :width] = v[rows, k0:k0 + width]
        for j in range(width):
            k = k0 + j
            vk = vg[:, j]
            # h_k overwrites u_k, which no later level reads
            _pivot(vk, g[:, k], k, out=g[:, k])
            if j + 1 < width:
                # the remaining pivot columns of the group need this
                # level eagerly; the trailing columns can wait
                panel = g[:, k + 1:k0 + width]
                s = dgemv(1.0, panel, vk, trans=1)
                dger(-1.0, g[:, k], s, a=panel, overwrite_a=1)
        if k0 + width < nens:
            _apply_levels(vg[:, :width], g[:, k0:k0 + width],
                          g[:, k0 + width:nens])

    # all Nens levels at once on the D-part; V' of a C-ordered V is an
    # F-contiguous view that dgemm reads without a copy, and any other
    # layout gets one C-ordered copy, so Z does not depend on the layout
    _apply_levels(np.ascontiguousarray(v).T, g[:, :nens], g[:, nens:],
                  trans_a=0)
    return g[:, nens:].copy()


def _sweep_reference(r, v, d):
    """One rank-one update per level, exactly as the cost accounting counts
    it; returns z and the multiplications and divisions performed."""
    nobs, nens = v.shape
    g = _init_workspace(r, v, d)
    ops = 2 * nobs * nens

    for k in range(nens):
        h = _pivot(v[:, k], g[:, k], k)
        # columns 0..k are frozen from here on: the update starts at k + 1
        blk = g[:, k + 1:]
        s = dgemv(1.0, blk, v[:, k], trans=1)
        dger(-1.0, h, s, a=blk, overwrite_a=1)
        # the dot v'u, the division by the scalar, and the column updates
        ops += 2 * nobs + 2 * nobs * (2 * nens - k - 1)

    return g[:, nens:].copy(), ops


def solve_sherman(r: np.ndarray, v: np.ndarray, d: np.ndarray, *,
                  count_ops: bool = False) -> SolverResult:
    """Solve (diag(r) + V V') Z = D by the iterative rank-one sweep.

    Parameters
    ----------
    r : positive observation-error variances, length Nobs.
    v : Nobs x Nens matrix of scaled ensemble deviations in observation
        space (carrying the 1/sqrt(Nens-1) factor).
    d : Nobs x Nens right-hand side of innovations.
    count_ops : when True, run the level-by-level reference sweep instead
        of the grouped one and report the number of multiplications and
        divisions performed (matches :func:`long_op_count`).

    Raises
    ------
    ValueError on inconsistent shapes or non-finite input;
    SingularUpdateError when an update denominator vanishes or overflows.
    """
    r, v, d = validate_system(r, v, d)
    t0 = time.perf_counter()
    if count_ops:
        z, ops = _sweep_reference(r, v, d)
    else:
        z, ops = _sweep(r, v, d), None
    return SolverResult(z=z, seconds=time.perf_counter() - t0, long_ops=ops)
