"""Iterative rank-one-update solver for the analysis system (R + V V') Z = D.

The observation-space system matrix is a positive diagonal R plus a sum of
Nens rank-one terms v_k v_k'. Rather than forming the Nobs x Nobs matrix,
the paper's algorithm sweeps one Sherman-Morrison update per ensemble
column over a shared workspace G = [V-part, D-part] of 2 Nens columns:

* level 0 divides every column of G by r elementwise (the pure-R solve);
* level k picks the pivot column u_k (the k-th V-part column, which at this
  point holds (R + sum_{i<k} v_i v_i')^{-1} v_k), forms
  h_k = u_k / (1 + v_k' u_k), and applies
  ``col -= h_k * (v_k' col)`` to every column that later levels still need.

Column k of G is frozen after level k: it is neither read nor written again.
After Nens levels the D-part holds Z. The solve costs
3 (Nens^2 Nobs + Nens Nobs) multiplications and divisions and
O(Nobs Nens) memory.

The production path runs the same recurrence in ensemble space. Level
k's denominator 1 + v_k' u_k is the k-th pivot of the LDL' factorization of
the Nens x Nens capacitance matrix C = I + V' R^{-1} V (the Schur complement
of the earlier levels, by Woodbury), so the sweep's result is
Z = R^{-1} (D - V Y) with Y = C^{-1} V' R^{-1} D. Two products with
k = Nobs form C and S = V' R^{-1} D, a Cholesky factorization and solve
give Y, and one product with k = Nens subtracts V Y: 3 Nens^2 Nobs +
O(Nens^3) multiplications, the sweep's leading term. The Nobs-sized work
is two passes over row blocks of ``BLOCK_DOUBLES`` entries
(:func:`woodbury_terms`, :func:`subtract_correction`): the first adds
each block's V_b' P_b and P_b' D_b, with P_b = R^{-1} V_b, to C and S;
the second writes Z_b = R^{-1} (D_b - V_b Y). One block of V, P, D or Z
takes 256 KB, so the blocks one step reads stay in the 2 MB L2 cache,
where five sweeps over whole Nobs x Nens arrays ran at half the core's
``dgemm`` rate: at 20000x64 the solve took 18.6 ms (best, one thread)
against 21.8 ms for the five sweeps. Blocks of 8192 to 131072 entries
were all within 6% of each other at 20000x64; 32768 was the fastest at
8000x16 and 4000x16, where blocks of 8192 (512 rows) took 7-18% longer.
P_b goes into a C-ordered block buffer that each thread reuses while the
block's shape stays the same: a fresh 256 KB block per call comes back as
zero-filled pages above glibc's mmap threshold, 471 minor faults per
500x200 solve. So the solve
allocates no Nobs x Nens array but Z and keeps no workspace of 2 Nens
columns: it works in the caller's C order, and the BLAS calls read the
transposed blocks as Fortran-ordered views without a copy. The tall SVD
solve shares both passes, with C^{-1} replaced by W diag(1/(1+s^2)) W'
from the SVD of the whitened V, and skips C. The squared diagonal of the
factor holds the sweep's denominators. When the factorization stops or a
pivot fails the guard, the solve falls back to the literal sweep, which
forms every denominator from Nobs-space vectors: it raises at the level
that fails, or returns Z where the pivots of C lost their digits (a
duplicated column of a large V). `count_ops=True` runs the literal sweep
too, and its operation count matches the closed form. Every Nobs-sized
product goes to ``scipy.linalg.blas`` and the factorization to
``scipy.linalg.lapack``: numpy and scipy each load their own OpenBLAS, and
a solve that switches between the two makes their threads wait on each
other.

The literal recursive evaluation of the same identity, an exponential-cost
oracle for this sweep, lives in :mod:`enkfkit.verify`.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import ddot, dgemm, dgemv, dger
from scipy.linalg.lapack import dpotrf, dpotrs

from .errors import SingularUpdateError
from .linalg import all_finite

# Guard for |1 + v'u|. The analysis matrix is SPD for valid inputs, so a
# denominator this small, or an overflowed one, signals corrupted input.
SINGULAR_TOL = 1e-14

# Entries in one row block of an Nobs x Nens array (256 KB), so that the
# blocks of V, P and D that one step reads stay in the 2 MB L2 cache.
BLOCK_DOUBLES = 32768

_local = threading.local()


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
    if not np.all(r > 0):  # also false for a NaN
        raise ValueError("observation variances must be positive")
    if not (r.max() < np.inf and all_finite(v) and all_finite(d)):
        raise ValueError("inputs contain non-finite entries")
    return r, v, d


def usable_pivots(denoms) -> bool:
    """Whether SINGULAR_TOL <= |d| < inf for every denominator d (false for
    nan): the one guard of the sweep and of the recursive oracle."""
    size = np.abs(denoms)
    return bool(np.all((SINGULAR_TOL <= size) & (size < np.inf)))


def check_denominator(denom: float, level: int) -> None:
    """Raise SingularUpdateError unless ``usable_pivots(denom)`` (1-based level)."""
    if not usable_pivots(denom):
        raise SingularUpdateError(level, denom)


def woodbury_terms(r, v, d, *, gram=True):
    """(V' R^{-1} V, V' R^{-1} D) for a C-ordered ``v``, both Nens x Nens,
    in one pass over row blocks of ``BLOCK_DOUBLES`` entries: each block
    of P = R^{-1} V goes into this thread's block buffer, and ``dgemm``
    adds V_b' P_b and P_b' D_b to the two sums. With ``gram=False`` the
    first is None: the SVD solve needs only the second."""
    nobs, nens = v.shape
    rows = min(nobs, max(1, BLOCK_DOUBLES // nens))
    # this thread's block buffer, kept for the last shape only
    p = getattr(_local, "p", None)
    if p is None or p.shape != (rows, nens):
        p = _local.p = np.empty((rows, nens))
    g = np.zeros((nens, nens), order="F") if gram else None
    s = np.zeros((nens, nens), order="F")
    for i in range(0, nobs, rows):
        vb = v[i:i + rows]
        pb = np.divide(vb, r[i:i + rows, None], out=p[:len(vb)])
        if gram:
            dgemm(1.0, vb.T, pb.T, beta=1.0, c=g, trans_b=1, overwrite_c=1)
        dgemm(1.0, pb.T, d[i:i + rows].T, beta=1.0, c=s, trans_b=1,
              overwrite_c=1)
    return g, s


def subtract_correction(r, v, d, y):
    """Z = R^{-1} (D - V Y), C-ordered, for a C-ordered ``v`` and an
    Nens x Nens ``y``, in one pass over the row blocks of
    :func:`woodbury_terms`: each block of Z is a copy of D's, less
    V_b Y (written through the transposed views as Z_b' -= Y' V_b'),
    divided by r_b."""
    nobs, nens = v.shape
    rows = max(1, BLOCK_DOUBLES // nens)
    z = np.empty((nobs, nens))
    for i in range(0, nobs, rows):
        zb = z[i:i + rows]
        np.copyto(zb, d[i:i + rows])
        dgemm(-1.0, y, v[i:i + rows].T, beta=1.0, c=zb.T, trans_a=1,
              overwrite_c=1)
        np.divide(zb, r[i:i + rows, None], out=zb)
    return z


def _sweep(r, v, d):
    """All Nens levels in ensemble space (the production path); returns z."""
    nens = v.shape[1]
    # one C-ordered V whatever the caller's layout, so Z does not depend on it
    v = np.ascontiguousarray(v)
    c, s = woodbury_terms(r, v, d)
    c.flat[::nens + 1] += 1.0
    c, info = dpotrf(c, lower=1, overwrite_a=1)
    # the squared diagonal of the factor holds the sweep's denominators;
    # when one fails the guard, or the factorization stops, the literal
    # sweep forms them from Nobs-space vectors and decides
    pivots = np.diag(c) ** 2
    if info > 0 or not usable_pivots(pivots):
        return _sweep_reference(r, v, d)[0]
    s, _ = dpotrs(c, s, lower=1, overwrite_b=1)
    return subtract_correction(r, v, d, s)


def _sweep_reference(r, v, d):
    """One rank-one update per level, exactly as the cost accounting counts
    it; returns z and the multiplications and divisions performed."""
    nobs, nens = v.shape
    g = np.empty((nobs, 2 * nens), order="F")
    np.divide(v, r[:, None], out=g[:, :nens])
    np.divide(d, r[:, None], out=g[:, nens:])
    ops = 2 * nobs * nens

    for k in range(nens):
        denom = 1.0 + ddot(v[:, k], g[:, k])
        check_denominator(denom, k + 1)
        h = g[:, k] / denom
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
    count_ops : when True, run the literal level-by-level sweep instead
        of its ensemble-space form and report the number of
        multiplications and divisions performed (matches
        :func:`long_op_count`).

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
