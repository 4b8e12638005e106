"""Dense linear-algebra kernels used by the analysis solvers.

Thin wrappers over LAPACK (through scipy) that pin down the error
behaviour and conventions the rest of the toolkit relies on: explicit
pivot reporting for failed Cholesky factorizations, a rank-k update and a
Cholesky factorization that hold only the lower triangle, and an SVD whose
factors satisfy A = U diag(s) V'.

The triangle is stored in rectangular full packed (RFP) format
(Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 2010; LAPACK's
``TRANSR='N'``, ``UPLO='L'``): the n(n+1)/2 entries of an n x n lower
triangle in one 1-D array, laid out so that ``dsfrk``, ``dpftrf`` and
``dpftrs`` run Level-3 kernels on it. ``lapack.dtrttf`` packs a full matrix
this way and ``lapack.dtfttr`` unpacks it.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError, NumericalFailureError


def rfp_diagonal(n: int) -> np.ndarray:
    """Positions of a[0, 0], ..., a[n-1, n-1] in the RFP array of an n x n
    lower triangle (``TRANSR='N'``, ``UPLO='L'``)."""
    i = np.arange(n)
    if n % 2 == 0:
        half = n // 2
        return np.where(i < half, 1 + i * (n + 2), (i - half) * (n + 2))
    k = (n + 1) // 2
    return np.where(i < k, i * (n + 1), n + (i - k) * (n + 1))


def cholesky_factor(a: np.ndarray, *, overwrite_a: bool = False) -> np.ndarray:
    """The lower Cholesky factor L, with L @ L.T == a, of a symmetric
    matrix given as the RFP array of its lower triangle, returned as the
    RFP array of L (LAPACK ``dpftrf``).

    ``a`` is left as it was unless ``overwrite_a`` is set; then a
    contiguous float64 ``a`` is factored in place and returned (and is
    left partly factored if the factorization fails), so a caller that
    owns ``a``, like the W of :func:`sym_rank_k_update`, saves a copy.

    Raises
    ------
    ValueError
        if ``a`` is not an RFP array or contains non-finite entries.
    NotPositiveDefiniteError
        carrying the 0-based index of the first non-positive pivot.
    """
    a = np.asarray(a, dtype=float)
    n = (math.isqrt(8 * a.size + 1) - 1) // 2
    if a.ndim != 1 or n < 1 or n * (n + 1) // 2 != a.size:
        raise ValueError(f"expected an RFP array of length n(n+1)/2, "
                         f"got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    c, info = lapack.dpftrf(n, a, transr="N", uplo="L", overwrite_a=overwrite_a)
    if info > 0:  # the order of the first minor that is not positive definite
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:  # pragma: no cover - argument errors are caught above
        raise ValueError(f"invalid argument {-info} to dpftrf")
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
    """W = V @ V.T + diag(r) as the RFP array of its lower triangle,
    n(n+1)/2 doubles for n = ``v.shape[0]``.

    ``r``, the diagonal of the observation-error covariance, is written
    into a zero array at the diagonal positions, and one symmetric rank-k
    update (``dsfrk``) adds V V' to it in place. It reads V' as a
    Fortran-ordered view, so a C-ordered ``v`` is not copied.
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {v.shape}")
    if r.ndim != 1 or r.shape[0] != v.shape[0]:
        raise ValueError(
            f"diagonal length {r.shape} does not match matrix rows {v.shape[0]}"
        )
    n, k = v.shape
    w = np.zeros(n * (n + 1) // 2)
    w[rfp_diagonal(n)] = r
    return lapack.dsfrk(n, k, 1.0, v.T, 1.0, w, transr="N", uplo="L",
                        trans="T", overwrite_c=1)
