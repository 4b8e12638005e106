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

The stencils work on the padded (N, M[, k]) grid, interior plus zero ring,
held as one flat C-ordered buffer of N M k values (k = 1 for one state).
A step in x is an offset of X = M k in it and a step in y one of Y = k,
so each stencil term is one contiguous pass over the band [X+Y, NMk-X-Y)
from the first interior point to the last, its neighbours read from the
band shifted by +-X and +-Y. Every interior point sees the operations of
the plain array expressions in the same order. The band also holds the
ring columns y = 0 and y = M-1 of the interior rows, where the passes
write junk; before a Laplacian reads zeta or lap zeta, their ring columns
are zeroed again. A thread's work arrays for one shape build every view
the tendency reads or writes once, when they are made: each array's band
at the nine shifts, the wider ranges of the differences of psi and of
the Jacobian's products, the Jacobian's interior and the two ring-column
views. After its first call for a shape, a tendency makes only its ufunc
calls, the elliptic solve and the array it returns.

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


class _Band:
    """The flat layout of one padded grid shape (nx+2, ny+2[, k]).

    ``at(a, dx, dy)`` is the band of the flat buffer ``a`` shifted by dx
    steps in x (X = (ny+2)k values each) and dy steps in y (Y = k each);
    ``at.shifts(a)`` maps each shift (dx, dy) in -1..1 to that band.
    """

    def __init__(self, shape: tuple[int, ...]):
        k = shape[2] if len(shape) > 2 else 1
        self.shape = shape
        self.x, self.y = shape[1] * k, k
        self.size = shape[0] * self.x
        self.lo, self.hi = self.x + self.y, self.size - self.x - self.y

    def __call__(self, a: np.ndarray, dx: int = 0, dy: int = 0) -> np.ndarray:
        o = dx * self.x + dy * self.y
        return a[self.lo + o:self.hi + o]

    def shifts(self, a: np.ndarray) -> dict:
        return {(dx, dy): self(a, dx, dy)
                for dx in (-1, 0, 1) for dy in (-1, 0, 1)}

    def interior(self, a: np.ndarray) -> np.ndarray:
        return a.reshape(self.shape)[1:-1, 1:-1]

    def ring(self, a: np.ndarray) -> np.ndarray:
        """The ring columns y = 0 and y = ny+1 that the band holds."""
        return a.reshape(self.shape)[1:-1, ::self.shape[1] - 1]


def _laplacian(p: dict, hx: float, hy: float, out: np.ndarray,
               work: np.ndarray | None = None) -> np.ndarray:
    """5-point Laplacian on the band, into and returning the band ``out``.

    ``p`` is :meth:`_Band.shifts` of the padded input; one contiguous pass
    per term. ``work`` is an optional band-sized buffer.
    """
    c2 = np.multiply(p[0, 0], 2.0, out=out)
    lap_y = np.subtract(p[0, 1], c2, out=work)
    lap_y += p[0, -1]
    lap_y /= hy * hy
    lap = np.subtract(p[1, 0], c2, out=c2)
    lap += p[-1, 0]
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
    padded = _pad(grid)
    at = _Band(padded.shape)
    out = np.empty(at.size)
    _laplacian(at.shifts(padded.reshape(-1)), cfg.hx, cfg.hy, at(out))
    return _to_flat(at.interior(out) - cfg.froude * grid, cfg)


class _Scratch:
    """Work arrays for one interior grid shape (nx, ny[, k]), and their views.

    Held per thread by :func:`_scratch` and reused by every call, so a
    tendency allocates only what it returns. Each array is one flat buffer
    in the padded layout of the module docstring, zeroed once. Every view
    the tendency uses is built here, once per set: each array's band at
    every shift, held as ``fp[dx, dy]`` (see :meth:`_Band.shifts`); the
    wider ranges of :meth:`load`'s differences and of the Jacobian's
    products and diagonal differences, as ufunc operand tuples
    (``*_args``, output last); the interior of ``jac``; and the ring
    columns of zeta and lap zeta. The padded q and psi (``fp``, ``gp``)
    are written only in their interiors, so their ring stays zero. The
    others are written on the band, junk in its ring columns y = 0 and
    y = ny+1 included; :func:`tendency` zeroes those of zeta and lap zeta
    before a Laplacian reads them.
    """

    def __init__(self, shape: tuple[int, ...]):
        nx, ny = shape[:2]
        at = _Band((nx + 2, ny + 2) + shape[2:])
        x, y, n = at.x, at.y, at.size
        # fp and gp are the Jacobian operands f and g; gdx = g[i+1] - g[i-1]
        # on every interior row and gdy = g[j+1] - g[j-1] on every row, as
        # j2 reads f gdx and f gdy at two shifts each; jac holds the
        # Jacobian, then the tendency's sum.
        flat = [np.zeros(n) for _ in range(11)]
        fp, gp, zp, lp, gdx, gdy, f_gdx, f_gdy, _, _, jac = flat
        (self.fp, self.gp, self.zp, self.lp, self.gdx, self.gdy, self.f_gdx,
         self.f_gdy, self.t, self.u, self.jac) = map(at.shifts, flat)
        self.f, self.g, self.jac_interior = map(at.interior, (fp, gp, jac))
        self.zeta_ring, self.lap_ring = at.ring(zp), at.ring(lp)
        self.gdx_args = gp[2 * x:], gp[:n - 2 * x], gdx[x:n - x]
        self.gdy_args = gp[2 * y:], gp[:n - 2 * y], gdy[y:n - y]
        self.f_gdx_args = fp[x:n - x], gdx[x:n - x], f_gdx[x:n - x]
        self.f_gdy_args = fp[y:n - y], gdy[y:n - y], f_gdy[y:n - y]
        # j3's diagonal differences anti = g[j+1] - g[i+1] and
        # diag = g[i+1, j+1] - g, in the buffers j2 is done with
        m = n - x - y
        self.anti_args = gp[y:y + m], gp[x:x + m], f_gdx[:m]
        self.diag_args = gp[x + y:], gp[:m], f_gdy[:m]
        self.stage = np.empty((nx * ny,) + shape[2:])  # the RK4 stage state

    def load(self, f: np.ndarray, g: np.ndarray) -> None:
        """Pad ``f`` and ``g`` and take the differences of ``g``."""
        self.f[...] = f
        self.g[...] = g
        np.subtract(*self.gdx_args)
        np.subtract(*self.gdy_args)

    def jacobian(self, hx: float, hy: float) -> np.ndarray:
        """Arakawa Jacobian of the loaded fields into ``jac``; its interior."""
        fp, t, u, jac = self.fp, self.t[0, 0], self.u[0, 0], self.jac[0, 0]
        # j1 = f_x g_y - f_y g_x
        np.subtract(fp[1, 0], fp[-1, 0], out=t)
        np.multiply(t, self.gdy[0, 0], out=jac)
        np.subtract(fp[0, 1], fp[0, -1], out=u)
        u *= self.gdx[0, 0]
        jac -= u
        # j2 = (f g_y)[i+1] - (f g_y)[i-1] - (f g_x)[j+1] + (f g_x)[j-1]
        np.multiply(*self.f_gdy_args)
        np.multiply(*self.f_gdx_args)
        np.subtract(self.f_gdy[1, 0], self.f_gdy[-1, 0], out=t)
        t -= self.f_gdx[0, 1]
        t += self.f_gdx[0, -1]
        jac += t
        # j3, the corner terms
        np.subtract(*self.anti_args)
        np.subtract(*self.diag_args)
        anti, diag = self.f_gdx, self.f_gdy
        np.multiply(fp[1, 1], anti[0, 0], out=t)
        t -= np.multiply(fp[-1, -1], anti[-1, -1], out=u)
        t -= np.multiply(fp[-1, 1], diag[-1, 0], out=u)
        t += np.multiply(fp[1, -1], diag[0, -1], out=u)
        jac += t
        jac /= 12.0 * hx * hy
        return self.jac_interior


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
    work arrays are used in place, and the result is then the interior of
    the work array ``jac``; any other call returns a new array.
    """
    f = np.asarray(f, dtype=float)
    g = np.asarray(g, dtype=float)
    if f.shape != g.shape:
        raise ValueError(f"field shapes differ: {f.shape} and {g.shape}")
    scratch = _scratch(f.shape)
    loaded = f is scratch.f and g is scratch.g
    if not loaded:
        scratch.load(f, g)
    jac = scratch.jacobian(hx, hy)
    return jac if loaded else jac.copy()


@lru_cache(maxsize=8)
def _forcing_field(cfg: QGConfig, ndim: int) -> np.ndarray:
    """sin(2 pi y) on the interior grid, for flat states of ``ndim`` axes."""
    y = np.arange(1, cfg.m - 1) * cfg.hy
    forcing = np.broadcast_to(
        np.sin(2.0 * np.pi * y)[None, :], cfg.interior_shape
    ).copy()
    return forcing if ndim == 1 else forcing[:, :, None]


def tendency(q: np.ndarray, cfg: QGConfig) -> np.ndarray:
    """Right-hand side dq/dt for flat states (nstate,) or (nstate, k).

    The terms of the module docstring are summed left to right, in place
    on the band of the Jacobian's work array; adding the forcing gathers
    the interior into the new array returned.
    """
    q = np.asarray(q, dtype=float)
    psi = helmholtz_solve(q, cfg)
    qg = _to_grid(q, cfg)
    s = _scratch(qg.shape)
    s.load(qg, _to_grid(psi, cfg))  # the Jacobian reads them in place
    hx, hy = cfg.hx, cfg.hy
    arakawa_jacobian(s.f, s.g, hx, hy)
    dq, t = s.jac[0, 0], s.t[0, 0]
    zeta = np.multiply(s.gp[0, 0], cfg.froude, out=s.zp[0, 0])
    np.add(s.fp[0, 0], zeta, out=zeta)
    s.zeta_ring.fill(0.0)
    lap_zeta = _laplacian(s.zp, hx, hy, s.lp[0, 0], t)
    s.lap_ring.fill(0.0)
    bilap_zeta = _laplacian(s.lp, hx, hy, s.u[0, 0], t)

    dq *= -cfg.rossby
    psi_x = np.divide(s.gdx[0, 0], 2.0 * hx, out=t)
    psi_x *= cfg.beta
    dq -= psi_x
    dq -= np.multiply(zeta, cfg.rkb, out=t)
    dq += np.multiply(lap_zeta, cfg.rkh, out=t)
    bilap_zeta *= cfg.rkh2
    dq -= bilap_zeta
    out = np.add(s.jac_interior, _forcing_field(cfg, q.ndim),
                 out=np.empty(qg.shape))
    return _to_flat(out, cfg)


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
