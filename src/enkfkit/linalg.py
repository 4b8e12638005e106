"""Dense linear-algebra kernels used by the analysis solvers.

Thin wrappers over LAPACK/BLAS (through scipy) that pin down the error
behaviour and conventions the rest of the toolkit relies on: explicit
pivot reporting for failed Cholesky factorizations, a rank-k update that
fills one triangle (all the factorization reads), and an SVD whose factors
satisfy A = U diag(s) V'.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from .errors import NotPositiveDefiniteError, NumericalFailureError


def cholesky_factor(a: np.ndarray, *, overwrite_a: bool = False) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a, read from the lower triangle
    of ``a`` only (its strict upper triangle is never looked at).

    ``a`` is left as it was unless ``overwrite_a`` is set; then a
    Fortran-ordered float64 ``a`` is factored in place and returned (and
    is left partly factored if the factorization fails), so a caller that
    owns ``a``, like the W of :func:`sym_rank_k_update`, saves a copy.

    Raises
    ------
    ValueError
        if ``a`` is not square or contains non-finite entries.
    NotPositiveDefiniteError
        carrying the 0-based index of the first non-positive pivot.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    c, info = lapack.dpotrf(a, lower=1, overwrite_a=overwrite_a, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:  # pragma: no cover - argument errors are caught above
        raise ValueError(f"invalid argument {-info} to dpotrf")
    return c


def svd_thin(a: np.ndarray, *, overwrite_a: bool = False):
    """Economy singular value decomposition A = U diag(s) V', with U of
    shape rows x min(rows, cols), computed by LAPACK ``dgesdd`` on scipy's
    BLAS.

    ``a`` is left as it was unless ``overwrite_a`` is set; then a
    Fortran-ordered float64 ``a`` is factored in place (and destroyed), so
    a caller that owns ``a`` saves ``dgesdd`` a copy.

    Returns
    -------
    (u, s, v) with singular values ``s`` in descending order and
    ``a == u @ diag(s) @ v.T`` up to rounding. Note ``v`` is returned,
    not its transpose. ``u`` is C-ordered, as numpy's SVD returns it, so
    products with it round the same way.

    Raises
    ------
    ValueError if ``a`` is not a non-empty matrix or contains NaN;
    NumericalFailureError if the underlying iteration does not converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"expected a non-empty matrix, got shape {a.shape}")
    u, s, vt, info = lapack.dgesdd(a, full_matrices=0,
                                   overwrite_a=overwrite_a)
    if info > 0:
        raise NumericalFailureError(f"SVD did not converge (dgesdd info {info})")
    if info < 0:  # the one argument the checks above leave: a NaN in a
        raise ValueError(f"invalid argument {-info} to dgesdd")
    return np.ascontiguousarray(u), s, vt.T


def sym_rank_k_update(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Assemble W = V @ V.T + diag(r) in the lower triangle of a
    Fortran-ordered matrix whose strict upper triangle is zero.

    The V V' part is the symmetric rank-k BLAS update, and ``r``, the
    diagonal of the observation-error covariance, is added to its diagonal
    in place.
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {v.shape}")
    if r.ndim != 1 or r.shape[0] != v.shape[0]:
        raise ValueError(
            f"diagonal length {r.shape} does not match matrix rows {v.shape[0]}"
        )
    w = blas.dsyrk(1.0, v, lower=1)
    w[np.diag_indices(v.shape[0])] += r
    return w
