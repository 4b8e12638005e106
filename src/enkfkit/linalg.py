"""Dense linear-algebra kernels used by the analysis solvers.

Thin wrappers over LAPACK/BLAS (through scipy) that pin down the error
behaviour and conventions the rest of the toolkit relies on: explicit
pivot reporting for failed Cholesky factorizations, an exactly symmetric
rank-k update, and an SVD whose factors satisfy A = U diag(s) V'.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from .errors import NotPositiveDefiniteError, NumericalFailureError

_SYMMETRY_RTOL = 1e-12


def cholesky_factor(a: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == a.

    Parameters
    ----------
    a : symmetric matrix.

    Raises
    ------
    ValueError
        if ``a`` is not square/symmetric or contains non-finite entries.
    NotPositiveDefiniteError
        carrying the 0-based index of the first non-positive pivot.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix contains non-finite entries")
    scale = max(a.max(), -a.min())
    # a - a.T is antisymmetric, so its max is its largest absolute entry
    if scale > 0 and (a - a.T).max() > _SYMMETRY_RTOL * scale:
        raise ValueError("matrix is not symmetric")
    c, info = lapack.dpotrf(a, lower=1, clean=1)
    if info > 0:
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:  # pragma: no cover - argument errors are caught above
        raise ValueError(f"invalid argument {-info} to dpotrf")
    return c


def svd_thin(a: np.ndarray):
    """Economy singular value decomposition A = U diag(s) V', with U of
    shape rows x min(rows, cols).

    Returns
    -------
    (u, s, v) with singular values ``s`` in descending order and
    ``a == u @ diag(s) @ v.T`` up to rounding. Note ``v`` is returned,
    not its transpose.

    Raises
    ------
    NumericalFailureError if the underlying iteration does not converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {a.shape}")
    try:
        u, s, vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"SVD did not converge: {exc}") from exc
    return u, s, vt.T


def sym_rank_k_update(v: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Assemble W = V @ V.T + diag(r), exactly symmetric.

    The V V' part is computed with the symmetric rank-k BLAS update
    (only one triangle), then mirrored, so the result is symmetric to the
    bit. ``r`` is the diagonal of the observation-error covariance.
    """
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    if v.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {v.shape}")
    if r.ndim != 1 or r.shape[0] != v.shape[0]:
        raise ValueError(
            f"diagonal length {r.shape} does not match matrix rows {v.shape[0]}"
        )
    lower = np.asarray(blas.dsyrk(1.0, v, lower=1))
    # dsyrk leaves the upper triangle zero, so lower + lower.T mirrors it
    # and only double-counts the diagonal, which is rewritten.
    w = lower + lower.T
    diag = np.diag_indices(v.shape[0])
    w[diag] = lower[diag] + r
    return w
