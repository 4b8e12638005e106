"""Deterministic random streams and Gaussian sampling.

Every stochastic input of an experiment (observation noise, ensemble
perturbations, truth initialization) is drawn from a Philox counter-based
generator, so a 64-bit seed fully determines the run on any platform.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int) -> np.random.Generator:
    """Return a Philox-4x64-backed generator for the given seed.

    Philox is a counter-based generator with fixed round constants; equal
    seeds give bit-identical sample sequences across processes and
    platforms, which the reproducibility contracts of the harness rely on.
    """
    return np.random.Generator(np.random.Philox(seed))


def gaussian_matrix(
    rng: np.random.Generator,
    rows: int,
    cols: int,
    mean: float = 0.0,
    std: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Sample a rows x cols matrix of independent normals.

    Parameters
    ----------
    rng : generator from :func:`make_rng`
    rows, cols : matrix shape
    mean : common mean of all entries
    std : scalar, or one standard deviation per row (length ``rows``)

    Returns
    -------
    ndarray of shape (rows, cols); entry (i, j) ~ N(mean, std_i**2).

    Raises
    ------
    ValueError if any standard deviation is negative or nan, or ``std`` has
    the wrong length.
    """
    if rows < 0 or cols < 0:
        raise ValueError("matrix dimensions must be non-negative")
    std_arr = np.asarray(std, dtype=float)
    if not np.all(std_arr >= 0):  # a nan std fails too
        raise ValueError("standard deviations must be non-negative")
    if std_arr.ndim == 0:
        scale = std_arr
    elif std_arr.shape == (rows,):
        scale = std_arr[:, None]
    else:
        raise ValueError(
            f"std must be a scalar or have one entry per row, "
            f"got shape {std_arr.shape} for {rows} rows"
        )
    return mean + rng.standard_normal((rows, cols)) * scale
