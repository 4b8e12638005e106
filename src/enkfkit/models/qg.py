"""Barotropic vorticity dynamics on a rectangular ocean basin.

The prognostic variable is potential vorticity q on the interior of an
N x M grid; boundary values of q, the stream function psi and the relative
vorticity zeta are held at zero (homogeneous Dirichlet), so the state
vector has length (N-2)(M-2). The stream function is diagnosed from

    (lap - F) psi = q

and the tendency is

    dq/dt = -r J(psi, q) - beta dpsi/dx - rkb zeta + rkh lap zeta
            - rkh2 lap^2 zeta + sin(2 pi y),
    zeta = q + F psi,
    J(psi, q) = dq/dx dpsi/dy - dq/dy dpsi/dx.

Spatial operators are second-order centered differences; the advection
Jacobian uses the average-of-three conservative stencil; the bilaplacian
is the 5-point Laplacian applied twice with zero extension at each
application. Time stepping is fixed-step RK4.

States are handled flat: shape (nstate,) or (nstate, nmem) with C-order
flattening of the (N-2, M-2) interior grid, x-major. Grid spacing is
hx = Lx/(N-1), hy = Ly/(M-1) (grid points span the closed domain).

Stability: all QG presets have tiny friction coefficients and the beta
term is damped by the elliptic inversion (growth rates below
beta / (2 sqrt(F)) ~ 0.0125 per time unit), so the default dt = 1.0 sits
far inside the RK4 stability region for the QG33 preset.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

from .lorenz96 import advance, checked, rk4

_BLOWUP_LIMIT = 1.0e6


@dataclass(frozen=True)
class QGConfig:
    """Grid geometry and physical coefficients.

    n, m : number of grid points in x and y (boundaries included)
    lx, ly : domain lengths
    rkb : bottom friction
    rkh : horizontal friction
    rkh2 : biharmonic horizontal friction
    beta : planetary vorticity gradient
    rossby : scaling of the advection Jacobian
    froude : F in q = zeta - F psi
    dt : time step
    """

    n: int
    m: int
    lx: float
    ly: float
    rkb: float
    rkh: float
    rkh2: float
    beta: float
    rossby: float
    froude: float = 1600.0
    dt: float = 1.0

    def __post_init__(self):
        if self.n < 5 or self.m < 5:
            raise ValueError("grid needs at least 5 points per direction")
        if min(self.rkb, self.rkh, self.rkh2) < 0:
            raise ValueError("friction coefficients must be non-negative")
        if self.lx <= 0 or self.ly <= 0 or self.dt <= 0:
            raise ValueError("lx, ly and dt must be positive")

    @property
    def hx(self) -> float:
        return self.lx / (self.n - 1)

    @property
    def hy(self) -> float:
        return self.ly / (self.m - 1)

    @property
    def interior_shape(self) -> tuple[int, int]:
        return (self.n - 2, self.m - 2)

    @property
    def nstate(self) -> int:
        return (self.n - 2) * (self.m - 2)


QG33 = QGConfig(n=33, m=33, lx=0.4, ly=0.4, rkb=1e-6, rkh=1e-7,
                rkh2=2e-12, beta=1.0, rossby=1e-5)
QG65 = QGConfig(n=65, m=65, lx=1.0, ly=1.0, rkb=1e-6, rkh=1e-7,
                rkh2=2e-12, beta=1.0, rossby=1e-5)
QG129 = QGConfig(n=129, m=129, lx=1.0, ly=1.0, rkb=1e-6, rkh=1e-7,
                 rkh2=2e-12, beta=1.0, rossby=1e-5)


def _to_grid(q: np.ndarray, cfg: QGConfig) -> np.ndarray:
    """Flat state (nstate,) or (nstate, k) -> interior grid (nx, ny[, k])."""
    q = np.asarray(q, dtype=float)
    nx, ny = cfg.interior_shape
    if q.shape[0] != cfg.nstate:
        raise ValueError(
            f"state length {q.shape[0]} does not match grid "
            f"{cfg.n}x{cfg.m} interior ({cfg.nstate})"
        )
    if q.ndim == 1:
        return q.reshape(nx, ny)
    return q.reshape(nx, ny, q.shape[1])


def _to_flat(grid: np.ndarray, cfg: QGConfig) -> np.ndarray:
    if grid.ndim == 2:
        return grid.reshape(cfg.nstate)
    return grid.reshape(cfg.nstate, grid.shape[2])


def _pad(grid: np.ndarray) -> np.ndarray:
    """Surround the interior with the zero boundary ring."""
    shape = (grid.shape[0] + 2, grid.shape[1] + 2) + grid.shape[2:]
    padded = np.zeros(shape)
    padded[1:-1, 1:-1] = grid
    return padded


def _laplacian(padded: np.ndarray, hx: float, hy: float,
               out: np.ndarray | None = None,
               work: np.ndarray | None = None) -> np.ndarray:
    """5-point Laplacian of a padded field, evaluated on the interior.

    ``out`` and ``work`` are optional interior-shaped buffers (``out`` may
    be a view); without them the result and one temporary are allocated.
    """
    c2 = np.multiply(padded[1:-1, 1:-1], 2.0, out=out)
    lap_y = np.subtract(padded[1:-1, 2:], c2, out=work)
    lap_y += padded[1:-1, :-2]
    lap_y /= hy * hy
    lap = np.subtract(padded[2:, 1:-1], c2, out=c2)
    lap += padded[:-2, 1:-1]
    lap /= hx * hx
    lap += lap_y
    return lap


@lru_cache(maxsize=8)
def _helmholtz_lu(cfg: QGConfig):
    nx, ny = cfg.interior_shape
    dxx = sp.diags_array(
        [np.ones(nx - 1), -2.0 * np.ones(nx), np.ones(nx - 1)],
        offsets=[-1, 0, 1],
    ) / (cfg.hx * cfg.hx)
    dyy = sp.diags_array(
        [np.ones(ny - 1), -2.0 * np.ones(ny), np.ones(ny - 1)],
        offsets=[-1, 0, 1],
    ) / (cfg.hy * cfg.hy)
    a = (
        sp.kron(dxx, sp.eye_array(ny))
        + sp.kron(sp.eye_array(nx), dyy)
        - cfg.froude * sp.eye_array(cfg.nstate)
    )
    return splu(sp.csc_array(a))


def helmholtz_solve(q: np.ndarray, cfg: QGConfig) -> np.ndarray:
    """Stream function psi with (lap - F) psi = q, psi = 0 on the boundary.

    Accepts and returns flat states, (nstate,) or (nstate, k). The
    factorized operator is cached per configuration, so repeated solves
    cost one sparse triangular pass each.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[0] != cfg.nstate:
        raise ValueError(
            f"state length {q.shape[0]} does not match interior size {cfg.nstate}"
        )
    return _helmholtz_lu(cfg).solve(q)


def helmholtz_apply(psi: np.ndarray, cfg: QGConfig) -> np.ndarray:
    """Apply (lap - F) to a flat interior field (the inverse of the solve).

    Stencil-based, independent of the assembled sparse factorization, so
    the pair solve/apply cross-checks itself.
    """
    grid = _to_grid(psi, cfg)
    out = _laplacian(_pad(grid), cfg.hx, cfg.hy) - cfg.froude * grid
    return _to_flat(out, cfg)


class _Scratch:
    """Work arrays for one interior grid shape (nx, ny[, k]).

    Held per thread by :func:`_scratch` and reused by every call, so a
    tendency allocates only what it returns. The padded fields are zeroed
    once and only their interiors are written, so the zero ring stays.
    """

    def __init__(self, shape: tuple[int, ...]):
        nx, ny, batch = shape[0], shape[1], shape[2:]

        def grid(ex: int, ey: int, fill=np.empty) -> np.ndarray:
            return fill((nx + ex, ny + ey) + batch)

        # Padded Jacobian operands f and g, and zeta and lap zeta.
        self.fp, self.gp, self.zp, self.lp = (grid(2, 2, np.zeros)
                                              for _ in range(4))
        self.f, self.g = self.fp[1:-1, 1:-1], self.gp[1:-1, 1:-1]
        # gdx[i] = g[i+1] - g[i-1] on every column of the pad, gdy the same
        # along y on every row; j2 reads f gdy and f gdx at two shifts each.
        self.gdx, self.f_gdx = grid(0, 2), grid(0, 2)
        self.gdy, self.f_gdy = grid(2, 0), grid(2, 0)
        # j3's diagonal differences: anti[a, b] = g[a, b+1] - g[a+1, b]
        # and diag[a, b] = g[a+1, b+1] - g[a, b].
        self.anti, self.diag = grid(1, 1), grid(1, 1)
        self.work, self.work2, self.psi_x, self.bilap = (grid(0, 0)
                                                         for _ in range(4))
        self.stage = np.empty((nx * ny,) + batch)  # the flat RK4 stage state

    def load(self, f: np.ndarray, g: np.ndarray) -> None:
        """Pad ``f`` and ``g`` and take the differences of ``g``."""
        self.f[...] = f
        self.g[...] = g
        gp = self.gp
        np.subtract(gp[2:], gp[:-2], out=self.gdx)
        np.subtract(gp[:, 2:], gp[:, :-2], out=self.gdy)

    def jacobian(self, hx: float, hy: float) -> np.ndarray:
        """Arakawa Jacobian of the loaded fields, into a new array."""
        fp, gp, gdx, gdy = self.fp, self.gp, self.gdx, self.gdy
        t, u = self.work, self.work2
        jac = np.empty(t.shape)
        # j1 = f_x g_y - f_y g_x
        np.subtract(fp[2:, 1:-1], fp[:-2, 1:-1], out=t)
        np.multiply(t, gdy[1:-1], out=jac)
        np.subtract(fp[1:-1, 2:], fp[1:-1, :-2], out=u)
        u *= gdx[:, 1:-1]
        jac -= u
        # j2 = (f g_y)[i+1] - (f g_y)[i-1] - (f g_x)[j+1] + (f g_x)[j-1]
        f_gdy = np.multiply(fp[:, 1:-1], gdy, out=self.f_gdy)
        f_gdx = np.multiply(fp[1:-1], gdx, out=self.f_gdx)
        np.subtract(f_gdy[2:], f_gdy[:-2], out=t)
        t -= f_gdx[:, 2:]
        t += f_gdx[:, :-2]
        jac += t
        # j3, the corner terms
        anti = np.subtract(gp[:-1, 1:], gp[1:, :-1], out=self.anti)
        diag = np.subtract(gp[1:, 1:], gp[:-1, :-1], out=self.diag)
        np.multiply(fp[2:, 2:], anti[1:, 1:], out=t)
        t -= np.multiply(fp[:-2, :-2], anti[:-1, :-1], out=u)
        t -= np.multiply(fp[:-2, 2:], diag[:-1, 1:], out=u)
        t += np.multiply(fp[2:, :-2], diag[1:, :-1], out=u)
        jac += t
        jac /= 12.0 * hx * hy
        return jac


_SCRATCH_SHAPES = 4  # grid shapes whose work arrays a thread keeps
_local = threading.local()


def _scratch(shape: tuple[int, ...]) -> _Scratch:
    """This thread's work arrays for ``shape``, least recently used evicted."""
    sets = _local.__dict__.setdefault("sets", {})
    scratch = sets.pop(shape, None) or _Scratch(shape)
    sets[shape] = scratch
    if len(sets) > _SCRATCH_SHAPES:
        del sets[next(iter(sets))]
    return scratch


def arakawa_jacobian(f: np.ndarray, g: np.ndarray,
                     hx: float, hy: float) -> np.ndarray:
    """Conservative discretization of df/dx dg/dy - df/dy dg/dx.

    ``f`` and ``g`` are interior grid fields (x along axis 0, y along
    axis 1, optional trailing batch axis) implicitly surrounded by zeros.
    The average of the three second-order forms is antisymmetric in
    (f, g) and conserves the grid sums of J, f J and g J; the sum of J
    alone telescopes to zero over the whole grid including the boundary
    ring (where J is generally nonzero even though the fields vanish),
    while the f- and g-weighted sums vanish already on the interior.

    Fields that :func:`tendency` has already loaded into this thread's
    work arrays are used in place.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError(f"field shapes differ: {f.shape} and {g.shape}")
    scratch = _scratch(f.shape)
    if f is not scratch.f or g is not scratch.g:
        scratch.load(f, g)
    return scratch.jacobian(hx, hy)


@lru_cache(maxsize=8)
def _forcing_field(cfg: QGConfig) -> np.ndarray:
    y = np.arange(1, cfg.m - 1) * cfg.hy
    return np.broadcast_to(
        np.sin(2.0 * np.pi * y)[None, :], cfg.interior_shape
    ).copy()


def tendency(q: np.ndarray, cfg: QGConfig) -> np.ndarray:
    """Right-hand side dq/dt for flat states (nstate,) or (nstate, k).

    The terms of the module docstring are summed left to right, in place
    into the array the Jacobian returns.
    """
    q = np.asarray(q, dtype=float)
    psi = helmholtz_solve(q, cfg)
    qg = _to_grid(q, cfg)
    pg = _to_grid(psi, cfg)
    s = _scratch(qg.shape)
    s.load(qg, pg)  # the Jacobian below reads the loaded fields in place
    psi_x = np.divide(s.gdx[:, 1:-1], 2.0 * cfg.hx, out=s.psi_x)
    zeta = np.multiply(s.g, cfg.froude, out=s.zp[1:-1, 1:-1])
    np.add(s.f, zeta, out=zeta)
    dq = arakawa_jacobian(s.f, s.g, cfg.hx, cfg.hy)
    lap_zeta = _laplacian(s.zp, cfg.hx, cfg.hy, s.lp[1:-1, 1:-1], s.work)
    bilap_zeta = _laplacian(s.lp, cfg.hx, cfg.hy, s.bilap, s.work)
    forcing = _forcing_field(cfg)
    if q.ndim == 2:
        forcing = forcing[:, :, None]

    dq *= -cfg.rossby
    psi_x *= cfg.beta
    dq -= psi_x
    dq -= np.multiply(zeta, cfg.rkb, out=s.work)
    dq += np.multiply(lap_zeta, cfg.rkh, out=s.work)
    bilap_zeta *= cfg.rkh2
    dq -= bilap_zeta
    dq += forcing
    return _to_flat(dq, cfg)


def rk4_step(q: np.ndarray, cfg: QGConfig, dt: float | None = None) -> np.ndarray:
    """One RK4 step (dt defaults to the configured step; dt = 0 is the identity).

    The stage states share this thread's scratch buffer for the shape.
    """
    q = np.asarray(q, dtype=float)
    stage = _scratch(cfg.interior_shape + q.shape[1:]).stage
    dt = cfg.dt if dt is None else dt
    return rk4(lambda y: tendency(y, cfg), q, dt, stage)


class QGModel:
    """Model operator advancing flat vorticity states with fixed-step RK4."""

    def __init__(self, config: QGConfig):
        self.config = config

    def step(self, q: np.ndarray) -> np.ndarray:
        return checked(rk4_step(q, self.config),  # NaN fails the bound too
                       lambda y: np.abs(y) <= _BLOWUP_LIMIT,
                       "vorticity blew up")

    def advance(self, q: np.ndarray, t0: float, t1: float) -> np.ndarray:
        return advance(self.step, q, t0, t1, self.config.dt)

    def stream_function(self, q: np.ndarray) -> np.ndarray:
        return helmholtz_solve(q, self.config)
