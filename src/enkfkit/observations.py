"""Truth trajectories, observation operators and synthetic observations.

Twin experiments observe a known reference ("truth") trajectory through a
selection operator plus Gaussian noise. Everything here is deterministic
given the seeds, and the error realizations drawn for one experiment are
reused verbatim for every solver being compared.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .enkf import SelectionOperator
from .rng import gaussian_matrix, make_rng


@dataclass
class TruthTrajectory:
    """Reference states at strictly increasing times."""

    times: np.ndarray
    states: np.ndarray  # (nstate, len(times))

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if self.states.shape[1] != self.times.shape[0]:
            raise ValueError("one state column per time is required")

    def state_at(self, idx: int) -> np.ndarray:
        return self.states[:, idx]


def propagate_truth(model, x0: np.ndarray, times) -> TruthTrajectory:
    """Advance a reference state through the listed times."""
    times = np.asarray(times, dtype=float)
    x = np.asarray(x0, dtype=float)
    states = np.empty((x.shape[0], times.shape[0]))
    states[:, 0] = x
    for i in range(1, times.shape[0]):
        x = model.advance(x, times[i - 1], times[i])
        states[:, i] = x
    return TruthTrajectory(times=times, states=states)


def build_selection_operator(
    nstate: int,
    pobs: float,
    strategy: str = "uniform-stride",
    seed: int | None = None,
) -> SelectionOperator:
    """Choose which state components are observed.

    The number of observations is floor(pobs * nstate), clamped to at
    least 1; truncation (rather than rounding) reproduces the standard
    table sizes for the QG grids (e.g. 480/672/864 components of a 961
    state at 50/70/90 percent).

    strategy "uniform-stride" spreads indices evenly and deterministically
    (index k is floor(k * nstate / nobs)); "random" draws a sorted sample
    without replacement from the given seed.
    """
    if not 0.0 < pobs <= 1.0:
        raise ValueError(f"pobs must be in (0, 1], got {pobs}")
    nobs = max(1, int(pobs * nstate))
    if strategy == "uniform-stride":
        indices = (np.arange(nobs) * nstate) // nobs
    elif strategy == "random":
        if seed is None:
            raise ValueError("random strategy needs a seed")
        rng = make_rng(seed)
        indices = np.sort(rng.choice(nstate, size=nobs, replace=False))
    else:
        raise ValueError(f"unknown selection strategy {strategy!r}")
    if nobs == nstate:
        return SelectionOperator.identity()
    return SelectionOperator.from_indices(indices)


def synthesize_observation(
    x_true: np.ndarray,
    h: SelectionOperator,
    r: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Observe the truth with additive Gaussian noise: y = H(x) + eps."""
    x_true = np.asarray(x_true, dtype=float)
    r = np.asarray(r, dtype=float)
    hx = h.apply(x_true)
    if hx.shape != r.shape:
        raise ValueError("observation variance length does not match H(x)")
    eps = gaussian_matrix(rng, hx.shape[0], 1, 0.0, np.sqrt(r))[:, 0]
    return hx + eps


def build_initial_ensemble_lorenz(
    x_true0: np.ndarray,
    pct: float,
    nens: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Members scattered about the truth with per-component std pct * |truth|."""
    if pct <= 0:
        raise ValueError("pct must be positive")
    x_true0 = np.asarray(x_true0, dtype=float)
    noise = gaussian_matrix(rng, x_true0.shape[0], nens, 0.0,
                            pct * np.abs(x_true0))
    return x_true0[:, None] + noise


def build_initial_ensemble_qg(
    x_true0: np.ndarray,
    std_ens: float,
    nens: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Members scattered about the truth, scaled by its mean magnitude.

    With C the mean absolute value of the reference state, member i is
    x_true0 + eps_i * C, eps_i ~ N(0, std_ens^2) per component. For the
    usual std_ens values (2.5 to 7.5) this is a deliberately huge spread.
    """
    if std_ens <= 0:
        raise ValueError("std_ens must be positive")
    x_true0 = np.asarray(x_true0, dtype=float)
    c = np.abs(x_true0).mean()
    eps = gaussian_matrix(rng, x_true0.shape[0], nens, 0.0, std_ens)
    return x_true0[:, None] + eps * c
