"""Cholesky and SVD analysis solvers, and the solver registry.

All three solvers produce the solution Z of the observation-space system

    (diag(r) + V V') Z = D

where V carries the 1/sqrt(Nens-1) deviation scaling, and all three check
their input with :func:`enkfkit.sherman.validate_system` before the clock
starts. The Cholesky path forms the Nobs x Nobs matrix on purpose (it is
the dense baseline whose cost profile the cheaper solvers are measured
against), but only its lower triangle, in rectangular full packed storage
(:mod:`enkfkit.linalg`): Nobs(Nobs+1)/2 doubles. The SVD path works in
whitened coordinates with a thin factorization.
"""

from __future__ import annotations

import time
from enum import Enum

import numpy as np
from scipy.linalg import lapack

from .errors import NumericalFailureError
from .linalg import cholesky_factor, svd_thin, sym_rank_k_update
from .sherman import SolverResult, solve_sherman, validate_system
from .threads import factorization_threads


class SolverChoice(str, Enum):
    """The interchangeable analysis-step solvers."""

    SHERMAN = "sherman"
    CHOLESKY = "cholesky"
    SVD = "svd"


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
    whitened coordinates B = diag(r)^{-1/2} V with B = U diag(s) W', the
    system matrix acts as the identity on the orthogonal complement of U,
    so only the thin Nobs x Nens factor is ever formed:

        Z = R^{-1/2} (U (diag{1/(s_i^2 + 1)} - I) U' + I) R^{-1/2} D

    Raises ValueError on invalid input, and NumericalFailureError if the
    SVD does not converge or the whitened V overflows (its singular values
    come back NaN, which would turn all of Z into NaN).
    """
    r, v, d = validate_system(r, v, d)
    t0 = time.perf_counter()
    root_r = np.sqrt(r)
    # whitened straight into the Fortran order dgesdd factors in place
    b = np.divide(v, root_r[:, None], out=np.empty(v.shape, order="F"))
    u, s, _ = svd_thin(b, overwrite_a=True)
    del b  # destroyed by dgesdd; freed before Z and the products with U
    if not np.isfinite(s).all():
        raise NumericalFailureError(
            f"diag(r)^(-1/2) V overflowed: singular values {s}")
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
