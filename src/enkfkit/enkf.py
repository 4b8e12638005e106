"""Ensemble statistics and the assimilation cycle.

Ensembles are plain ndarrays of shape (Nstate, Nens), one model state per
column. Scaling convention: :func:`member_deviations` returns deviations
already divided by sqrt(Nens - 1), so S S' is the unbiased sample
covariance and every solver receives V = H(S) directly. That function is
the single place the factor lives.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import gaussian_matrix
from .solvers import SolverChoice, solve_analysis


@dataclass(frozen=True)
class SelectionOperator:
    """Observation operator selecting state components by index.

    ``indices`` must be strictly increasing and within range; ``None``
    means the identity (every component observed).
    """

    indices: np.ndarray | None

    @classmethod
    def identity(cls) -> "SelectionOperator":
        return cls(indices=None)

    @classmethod
    def from_indices(cls, indices) -> "SelectionOperator":
        idx = np.asarray(indices, dtype=np.intp)
        if idx.ndim != 1 or idx.size < 1:
            raise ValueError("need a non-empty 1-D index array")
        if np.any(np.diff(idx) <= 0):
            raise ValueError("indices must be strictly increasing")
        if idx[0] < 0:
            raise ValueError("indices must be non-negative")
        return cls(indices=idx)

    def nobs(self, nstate: int) -> int:
        return nstate if self.indices is None else self.indices.size

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Select observed rows of a state vector or ensemble matrix."""
        if self.indices is None:
            return x
        if self.indices[-1] >= x.shape[0]:
            raise IndexError(
                f"observation index {self.indices[-1]} out of range "
                f"for state size {x.shape[0]}"
            )
        return x[self.indices]


@dataclass(frozen=True)
class ObservationBatch:
    """One observation vector with its per-member perturbed copies.

    ``perturbed[:, j] == y + perturbations[:, j]`` exactly.
    """

    y: np.ndarray
    perturbed: np.ndarray
    perturbations: np.ndarray


def ensemble_mean(x: np.ndarray) -> np.ndarray:
    """Mean over ensemble columns."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 1:
        raise ValueError("expected a non-empty (nstate, nens) matrix")
    return x.mean(axis=1)


def member_deviations(x: np.ndarray) -> np.ndarray:
    """Mean-removed members scaled by 1/sqrt(Nens - 1).

    With this scaling S @ S.T is the unbiased sample covariance of the
    columns. Requires at least two members.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] < 2:
        raise ValueError("need at least 2 ensemble members for deviations")
    nens = x.shape[1]
    return (x - x.mean(axis=1, keepdims=True)) / np.sqrt(nens - 1.0)


def perturb_observations(
    y: np.ndarray,
    r: np.ndarray,
    nens: int,
    rng: np.random.Generator,
) -> ObservationBatch:
    """Draw per-member perturbed copies of an observation vector.

    Column j is y + eps_j with eps_j ~ N(0, diag(r)); the perturbations
    are stored so they can be hashed and replicated across solver runs.
    """
    y = np.asarray(y, dtype=float)
    r = np.asarray(r, dtype=float)
    if y.shape != r.shape:
        raise ValueError("y and r must have the same length")
    eps = gaussian_matrix(rng, y.shape[0], nens, 0.0, np.sqrt(r))
    return ObservationBatch(y=y, perturbed=y[:, None] + eps, perturbations=eps)


def innovations(
    obs: ObservationBatch,
    h: SelectionOperator,
    x: np.ndarray,
) -> np.ndarray:
    """Right-hand side D = Y - H(X) of the analysis system."""
    return obs.perturbed - h.apply(np.asarray(x, dtype=float))


def inflate(x: np.ndarray, alpha: float) -> np.ndarray:
    """Scale deviations about the ensemble mean by alpha (>= 1).

    The mean is preserved exactly and the sample covariance scales by
    alpha^2.
    """
    if alpha < 1.0:
        raise ValueError(f"inflation factor must be >= 1, got {alpha}")
    x = np.asarray(x, dtype=float)
    if alpha == 1.0:
        return x
    mean = x.mean(axis=1, keepdims=True)
    return mean + alpha * (x - mean)


def influence_matrix_cyclic(
    nstate: int,
    h: SelectionOperator,
    scale: float | None = None,
) -> np.ndarray:
    """Distance-based impact factors for a periodic 1-D state.

    Entry (i, j) is exp(-d(i, p_j) / scale) where p_j is the state index
    of observation j and d is the cyclic index distance
    min(|i - p|, Nstate - |i - p|). The default scale is Nstate itself
    (a very broad taper); small ensembles want a much shorter scale.
    Values lie in (0, 1].
    """
    if scale is None:
        scale = float(nstate)
    if scale <= 0:
        raise ValueError("influence scale must be positive")
    if h.indices is None:
        obs_idx = np.arange(nstate)
    else:
        obs_idx = h.indices
        if obs_idx[-1] >= nstate:
            raise ValueError("observation index out of range")
    i = np.arange(nstate)[:, None]
    raw = np.abs(i - obs_idx[None, :])
    dist = np.minimum(raw, nstate - raw)
    return np.exp(-dist / scale)


def analysis_step(
    x: np.ndarray,
    obs: ObservationBatch,
    h: SelectionOperator,
    r: np.ndarray,
    solver: SolverChoice | str = SolverChoice.SHERMAN,
    localization: np.ndarray | None = None,
    workers: int = 1,
) -> np.ndarray:
    """One assimilation update of the background ensemble.

    Solves the observation-space system for Z and applies the correction
    X_a = X_b + S (V' Z). With an influence matrix ``localization``
    (Nstate x Nobs, entries in [0, 1]) the correction entry (i, l)
    becomes sum_k S_ik sum_j delta_ij V_kj Z_jl, i.e. the Schur product
    of the influence matrix with S V' before applying Z.
    """
    x = np.asarray(x, dtype=float)
    s = member_deviations(x)  # raises ValueError below 2 members
    v = h.apply(s)
    d = innovations(obs, h, x)
    result = solve_analysis(solver, r, v, d, workers=workers)
    if localization is None:
        return x + s @ (v.T @ result.z)
    delta = np.asarray(localization, dtype=float)
    if delta.shape != (x.shape[0], v.shape[0]):
        raise ValueError(
            f"influence matrix shape {delta.shape} does not match "
            f"(nstate, nobs) = ({x.shape[0]}, {v.shape[0]})"
        )
    return x + (delta * (s @ v.T)) @ result.z


def forecast_step(model, x: np.ndarray, t0: float, t1: float) -> np.ndarray:
    """Advance every ensemble column with the model operator.

    ``model`` must expose ``advance(x, t0, t1)`` acting column-wise on
    (nstate, nens) arrays. Integration failures carry the member index.
    """
    if t1 < t0:
        raise ValueError(f"forecast window is reversed: {t0} > {t1}")
    if t1 == t0:
        return np.asarray(x, dtype=float)
    return model.advance(np.asarray(x, dtype=float), t0, t1)
