"""Dense linear-algebra kernels used by the analysis solvers.

Thin wrappers over LAPACK (through scipy) that pin down the error
behaviour and conventions the rest of the toolkit relies on: explicit
pivot reporting for failed Cholesky factorizations, a rank-k update and a
Cholesky factorization that hold only the lower triangle, an SVD whose
factors satisfy A = U diag(s) V', and one finiteness check for all of them.

An SVD is one ``dgesdd`` call. The ensemble-space SVD solve of a tall
system needs only the singular values and the right factor of the
whitened V, which the n x n triangle R of its QR factorization has too,
so it calls ``svd_thin`` on the R of :func:`whitened_r`: a sequential
TSQR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci. Comput. 2012)
that whitens and factors one cache-sized row block at a time with the
recursive Level-3 panels of ``dgeqrt`` (Elmroth and Gustavson, IBM J.
Res. Dev. 2000), and forms no whitened copy of V. ``dgesdd`` takes a QR
first by itself for tall input, but its ``dgeqrf`` factors each panel
with Level-2 kernels, which at 20000x64 took about 33 ms of its 76
against 11 ms for ``dgeqrt``.

The Cholesky triangle is stored in rectangular full packed (RFP) format
(Gustavson, Wasniewski, Dongarra and Langou, ACM TOMS 2010; LAPACK's
``TRANSR='N'``, ``UPLO='L'``): the n(n+1)/2 entries of an n x n lower
triangle in one 1-D array, laid out so that ``dsfrk``, ``dpftrf`` and
``dpftrs`` run Level-3 kernels on it. ``lapack.dtrttf`` packs a full matrix
this way and ``lapack.dtfttr`` unpacks it.
"""

from __future__ import annotations

import math
import threading

import numpy as np
from scipy.linalg import lapack

from .errors import NotPositiveDefiniteError, NumericalFailureError

# whitened_r's dgeqrt block size, capped at the column count. 16 made a
# QR-first SVD 4-14% slower from 2000x64 to 20000x64 (best times).
QR_BLOCK = 32
# Entries in one row block of whitened_r (1 MB). Best whitened_r times at
# 20000x64, one thread: 12.2 ms at 1024 rows, 10.5 at 2048 (1 MB), 12.2 at
# 4096, against 13.7 for one dgeqrt of the whole whitened V. A block also
# has at least QR_ROW_MIN times as many rows as columns, since each block
# refactors the triangle stacked on it: at 1000x200, two blocks of 1 MB
# (655 rows) took 4.2 ms against 3.0 for one, and at 20000x200 blocks of 8
# and 16 times the columns took 70.2 and 67.1 ms against 84.6 for the
# whole array. So 500x200 and 1000x200 are one block.
QR_ROW_DOUBLES = 131072
QR_ROW_MIN = 16

_local = threading.local()


def all_finite(a: np.ndarray) -> bool:
    """Whether every entry of the matrix ``a`` is finite.

    One BLAS product with a zero vector, whose entry is NaN for each row
    that holds a NaN or an inf (0 * inf is NaN): a single pass and one
    double per row, where ``np.isfinite(a).all()`` makes a boolean array
    the size of ``a``.
    """
    with np.errstate(invalid="ignore"):
        return not np.isnan(a @ np.zeros(a.shape[1])).any()


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
    # the RFP array is LAPACK's (n + 1) x n/2 matrix for even n, n x (n + 1)/2 for odd
    if not all_finite(a.reshape(n + 1 - n % 2, -1)):
        raise ValueError("matrix contains non-finite entries")
    c, info = lapack.dpftrf(n, a, transr="N", uplo="L", overwrite_a=overwrite_a)
    if info > 0:  # the order of the first minor that is not positive definite
        raise NotPositiveDefiniteError(info - 1)
    if info < 0:  # pragma: no cover - argument errors are caught above
        raise ValueError(f"invalid argument {-info} to dpftrf")
    return c


def svd_thin(a: np.ndarray, *, overwrite_a: bool = False):
    """Economy singular value decomposition A = U diag(s) V', with U of
    shape rows x min(rows, cols), by one LAPACK ``dgesdd`` call.

    ``a`` is left as it was unless ``overwrite_a`` is set; then a
    Fortran-ordered float64 ``a`` is factored in place (and destroyed), so
    a caller that owns ``a`` saves the factorization a copy.

    Returns
    -------
    (u, s, v) with singular values ``s`` in descending order and
    ``a == u @ diag(s) @ v.T`` up to rounding. Note ``v`` is returned,
    not its transpose. ``u`` is C-ordered, as numpy's SVD returns it, so
    products with it round the same way.

    Raises
    ------
    ValueError if ``a`` is not a non-empty matrix or contains non-finite
    entries; NumericalFailureError if the underlying iteration does not
    converge.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or min(a.shape) < 1:
        raise ValueError(f"expected a non-empty matrix, got shape {a.shape}")
    if not all_finite(a):
        raise ValueError("matrix contains non-finite entries")
    u, s, vt, info = lapack.dgesdd(a, full_matrices=0,
                                   overwrite_a=overwrite_a)
    if info > 0:
        raise NumericalFailureError(f"SVD did not converge (dgesdd info {info})")
    if info < 0:  # pragma: no cover - argument errors are caught above
        raise ValueError(f"invalid argument {-info} to dgesdd")
    return np.ascontiguousarray(u), s, vt.T


def whitened_r(v: np.ndarray, root_r: np.ndarray) -> np.ndarray:
    """The n x n upper triangle R of a QR factorization of
    diag(root_r)^{-1} V, for an m x n ``v`` with m >= n, built one row block
    at a time (a sequential TSQR).

    Each block of V is divided by ``root_r`` straight into this thread's
    Fortran-ordered block buffer, under the R of the rows before it, and
    ``dgeqrt`` factors the stack; the triangle of its result is the R so
    far. The first block holds the rows left over by whole blocks (with
    one whole block if fewer than n are left), so every later block fills
    the buffer, and a matrix that fits in one block gets the bits of one
    ``dgeqrt`` of the whole whitened V.
    """
    m, n = v.shape
    rows = max(QR_ROW_DOUBLES // n, QR_ROW_MIN * n)
    first = m % rows
    if first < n:  # too few rows left over for a triangle: add a block
        first = min(m, first + rows)
    # this thread's block buffer, kept for the last size only, and read
    # through Fortran-ordered prefix views that dgeqrt factors in place
    size = n * (first if first == m else rows + n)
    buf = getattr(_local, "qr", None)
    if buf is None or buf.size != size:
        # on a 64-byte boundary: dgeqrt's best time at 2000x32 was 0.23
        # ms there against 0.28-0.37 ms 16, 32 or 48 bytes past it
        raw = np.empty(size + 7)
        skip = -raw.ctypes.data % 64 // 8
        buf = _local.qr = raw[skip:skip + size]
    nb = min(QR_BLOCK, n)
    a = buf[:first * n].reshape((first, n), order="F")
    np.divide(v[:first], root_r[:first, None], out=a)
    qr = lapack.dgeqrt(nb, a, overwrite_a=1)[0]
    for i in range(first, m, rows):
        a = buf.reshape((rows + n, n), order="F")
        a[:n] = np.triu(qr[:n])  # a copy, so the overlap of a and qr is safe
        np.divide(v[i:i + rows], root_r[i:i + rows, None], out=a[n:])
        qr = lapack.dgeqrt(nb, a, overwrite_a=1)[0]
    return np.triu(qr[:n])


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
