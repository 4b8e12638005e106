"""Forced advection-dissipation chain on a periodic ring of variables.

dx_i/dt = (x_{i+1} - x_{i-2}) x_{i-1} - x_i + F, indices cyclic. With
F = 8 the dynamics are chaotic and the model is a standard assimilation
testbed. Functions accept a single state (n,) or an ensemble (n, m) and
act column-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DivergenceError


@dataclass(frozen=True)
class Lorenz96Config:
    nstate: int
    forcing: float = 8.0
    dt: float = 0.05

    def __post_init__(self):
        if self.nstate < 4:
            raise ValueError("the periodic stencil needs at least 4 variables")
        if self.dt <= 0:
            raise ValueError("dt must be positive")


def tendency(x: np.ndarray, forcing: float) -> np.ndarray:
    """Right-hand side of the ring ODE, cyclic in the first axis.

    x[i+1], x[i-2] and x[i-1] are row slices of one wrap-padded copy
    (x[n-2], x[n-1], x[0], ..., x[n-1], x[0]); the expression is evaluated
    in place in its written order.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if n < 4:
        raise ValueError("state must have at least 4 components")
    wrapped = np.concatenate((x[-2:], x, x[:1]))
    dx = np.subtract(wrapped[3:], wrapped[:n])  # x[i+1] - x[i-2]
    dx *= wrapped[1:n + 1]
    dx -= x
    dx += forcing
    return dx


def rk4_step(x: np.ndarray, dt: float, forcing: float) -> np.ndarray:
    """One classical fourth-order Runge-Kutta step (dt = 0 is the identity)."""
    x = np.asarray(x, dtype=float)
    return rk4(lambda y: tendency(y, forcing), x, dt, np.empty_like(x))


def rk4(f, x: np.ndarray, dt: float, stage: np.ndarray) -> np.ndarray:
    """x + dt/6 (k1 + 2 k2 + 2 k3 + k4) for the tendency ``f`` (both models).

    The sum goes left to right into k1, each term as soon as it is known,
    so the next tendency can reuse the memory of the last; the stage states
    share the buffer ``stage``. The arithmetic and its order are the plain
    expression's, so the bits are too.
    """
    def stage_state(k: np.ndarray, h: float) -> np.ndarray:  # x + h k
        return np.add(x, np.multiply(k, h, out=stage), out=stage)

    k1 = f(x)
    k2 = f(stage_state(k1, 0.5 * dt))
    stage_state(k2, 0.5 * dt)
    k1 += np.multiply(k2, 2.0, out=k2)
    del k2
    k3 = f(stage)
    stage_state(k3, dt)
    k1 += np.multiply(k3, 2.0, out=k3)
    del k3
    k1 += f(stage)
    k1 *= dt / 6.0
    k1 += x
    return k1


def checked(x: np.ndarray, ok, message: str) -> np.ndarray:
    """``x``, or DivergenceError naming the first member where ``ok`` fails."""
    good = ok(x)
    if good.all():
        return x
    member = int(np.argmax(~good.all(axis=0))) if x.ndim == 2 else None
    raise DivergenceError(message, member=member)


def advance(step, x: np.ndarray, t0: float, t1: float, dt: float):
    """Apply ``step`` from t0 to t1, a whole number of steps of dt."""
    if t1 < t0:
        raise ValueError(f"window is reversed: {t0} > {t1}")
    nsteps = round((t1 - t0) / dt)
    if abs(nsteps * dt - (t1 - t0)) > 1e-9 * max(1.0, abs(t1 - t0)):
        raise ValueError(
            f"window [{t0}, {t1}] is not a whole number of steps of dt={dt}"
        )
    x = np.asarray(x, dtype=float)
    for _ in range(nsteps):
        x = step(x)
    return x


class Lorenz96:
    """Model operator advancing states with fixed-step RK4."""

    def __init__(self, config: Lorenz96Config):
        self.config = config

    def step(self, x: np.ndarray) -> np.ndarray:
        out = rk4_step(x, self.config.dt, self.config.forcing)
        return checked(out, np.isfinite, "state became non-finite")

    def advance(self, x: np.ndarray, t0: float, t1: float) -> np.ndarray:
        return advance(self.step, x, t0, t1, self.config.dt)
