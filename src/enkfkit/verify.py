"""Built-in oracle and property checks, runnable from the command line.

Each check recomputes an expected result through an independent route
(dense solves, literal recursion, manufactured solutions, closed-form
counts) and compares the production path against it. `run_all` prints one
line per check and returns True only if every check passes. Each check
and its tolerance exists once, here; the tests call these functions, with
their own instance counts and seeds, rather than restate them:

- `check_solver_agreement`: acceptance criterion 1;
- `check_recursive_oracle`: criterion 2;
- `check_kalman_oracle`: criterion 3;
- `check_op_count`: criterion 4;
- `check_helmholtz`, `check_arakawa` and `check_lorenz_rk4_order`:
  criterion 9;
- `check_rank_k_update`: only through `run_all`, which
  `tests/test_harness.py::TestCli::test_verify_subcommand_passes` runs
  via `enkfkit verify`.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import lapack

from .enkf import SelectionOperator, ObservationBatch, analysis_step, member_deviations
from .linalg import sym_rank_k_update
from .models import lorenz96, qg
from .models.qg import QGConfig
from .rng import make_rng
from .sherman import check_denominator, long_op_count, solve_sherman
from .solvers import solve_cholesky, solve_svd

# (Nens, Nobs) pairs of the operation-count audit.
OP_COUNT_PAIRS = ((1, 1), (1, 9), (2, 5), (3, 3), (4, 10), (5, 40),
                  (8, 17), (16, 100), (23, 7), (32, 250))


def random_system(rng, nobs, nens):
    """A random analysis system: r uniform in [0.5, 2], V and D standard
    normal."""
    r = rng.uniform(0.5, 2.0, size=nobs)
    v = rng.standard_normal((nobs, nens))
    d = rng.standard_normal((nobs, nens))
    return r, v, d


def _log_uniform(rng, lo, hi):
    return int(round(np.exp(rng.uniform(np.log(lo), np.log(hi)))))


# Largest ensemble the exponential-cost recursive oracle accepts.
_RECURSIVE_MAX_NENS = 8


def solve_sherman_recursive(
    r: np.ndarray,
    v: np.ndarray,
    x: np.ndarray,
    k: int | None = None,
    base_log: list | None = None,
) -> np.ndarray:
    """Evaluate (R + sum_{i<=k} v_i v_i')^{-1} x by literal recursion.

    Each recursion level spawns two subproblems (for the running
    right-hand side and for the next pivot column) without memoization,
    so identical subproblems are re-solved and the number of base-case
    R-solves grows as 2^k. This is intentional: the function exists as an
    independent oracle for the iterative sweep and is limited to
    Nens <= 8.

    Parameters
    ----------
    r, v : system data as in :func:`enkfkit.sherman.solve_sherman`.
    x : right-hand side vector, length Nobs.
    k : recursion depth (number of rank-one terms); defaults to Nens.
    base_log : optional list; every base-case solve appends a tag to it
        (0 for the original right-hand side, i for pivot column v_i,
        1-based), so tests can count repeated subproblems.

    Returns
    -------
    Solution vector of length Nobs.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.shape[0] != r.shape[0] or v.shape[0] != r.shape[0]:
        raise ValueError("inconsistent dimensions")
    nens = v.shape[1]
    if nens > _RECURSIVE_MAX_NENS:
        raise ValueError(
            f"recursive oracle limited to Nens <= {_RECURSIVE_MAX_NENS} "
            f"(cost grows as 2^Nens), got {nens}"
        )
    if k is None:
        k = nens
    if not 0 <= k <= nens:
        raise ValueError(f"recursion depth must be in [0, {nens}], got {k}")
    return _recurse(r, v, x, k, 0, base_log)


def _recurse(r, v, x, k, tag, log):
    if k == 0:
        if log is not None:
            log.append(tag)
        return x / r
    f = _recurse(r, v, x, k - 1, tag, log)
    g = _recurse(r, v, v[:, k - 1], k - 1, k, log)
    vk = v[:, k - 1]
    denom = 1.0 + float(vk @ g)
    check_denominator(denom, k)
    return f - g * (float(vk @ f) / denom)


def check_solver_agreement(instances: int = 100, seed: int = 101) -> bool:
    """On systems of log-uniform size (Nobs in [10, 500], Nens in [2, 64])
    Cholesky agrees with Sherman to 1e-9 and SVD to 1e-8, relative to the
    largest entry of Z."""
    rng = make_rng(seed)
    for _ in range(instances):
        nobs = _log_uniform(rng, 10, 500)
        nens = _log_uniform(rng, 2, 64)
        r, v, d = random_system(rng, nobs, nens)
        z_sher = solve_sherman(r, v, d).z
        z_chol = solve_cholesky(r, v, d).z
        z_svd = solve_svd(r, v, d).z
        scale = np.abs(z_sher).max()
        if np.abs(z_sher - z_chol).max() > 1e-9 * scale:
            return False
        if np.abs(z_sher - z_svd).max() > 1e-8 * scale:
            return False
    return True


def check_recursive_oracle(instances: int = 50, seed: int = 202) -> bool:
    """The iterative sweep equals the literal recursion to 1e-12 for
    Nens = 1..6, and the recursion re-solves shared subproblems: at depth
    3 the base solves of x, v_1, v_2 and v_3 run 1, 4, 2 and 1 times."""
    rng = make_rng(seed)
    for i in range(instances):
        nens = 1 + i % 6
        nobs = int(rng.integers(4, 40))
        r, v, d = random_system(rng, nobs, nens)
        z = solve_sherman(r, v, d).z
        for col in range(nens):
            zi = solve_sherman_recursive(r, v, d[:, col])
            if np.abs(zi - z[:, col]).max() > 1e-12:
                return False

    # without memoization the base solve for pivot column i appears once
    # per leaf path: 2^(3 - i) times at depth 3, the right-hand side once
    r = rng.uniform(0.5, 2.0, 9)
    v = rng.standard_normal((9, 3))
    log = []
    solve_sherman_recursive(r, v, rng.standard_normal(9), base_log=log)
    return [log.count(tag) for tag in range(4)] == [1, 4, 2, 1]


def check_op_count(seed: int = 303) -> bool:
    """The instrumented sweep reports exactly 3 (Nens^2 Nobs + Nens Nobs)
    multiplications and divisions on every pair of OP_COUNT_PAIRS."""
    rng = make_rng(seed)
    for nens, nobs in OP_COUNT_PAIRS:
        r, v, d = random_system(rng, nobs, nens)
        result = solve_sherman(r, v, d, count_ops=True)
        if not (result.long_ops == long_op_count(nens, nobs)
                == 3 * (nens * nens * nobs + nens * nobs)):
            return False
    return True


def check_kalman_oracle(instances: int = 20, seed: int = 404) -> bool:
    """The analysis step matches the dense explicit-gain update to 1e-9
    with each of the three solvers."""
    rng = make_rng(seed)
    for _ in range(instances):
        nstate = int(rng.integers(6, 21))
        nens = int(rng.integers(3, 7))
        nobs = int(rng.integers(2, min(nstate, 10) + 1))
        x = rng.standard_normal((nstate, nens))
        idx = np.sort(rng.choice(nstate, size=nobs, replace=False))
        h = SelectionOperator.from_indices(idx)
        r = rng.uniform(0.2, 1.0, size=nobs)
        y = rng.standard_normal(nobs)
        eps = 0.2 * rng.standard_normal((nobs, nens))
        obs = ObservationBatch(y=y, perturbed=y[:, None] + eps, perturbations=eps)

        s = member_deviations(x)
        p = s @ s.T
        hmat = np.zeros((nobs, nstate))
        hmat[np.arange(nobs), idx] = 1.0
        gain = p @ hmat.T @ np.linalg.inv(hmat @ p @ hmat.T + np.diag(r))
        expected = x + gain @ (obs.perturbed - hmat @ x)
        for solver in ("sherman", "cholesky", "svd"):
            xa = analysis_step(x, obs, h, r, solver=solver)
            if np.abs(xa - expected).max() > 1e-9:
                return False
    return True


def check_rank_k_update(seed: int = 505) -> bool:
    """The RFP array LAPACK assembles, unpacked, equals the naive
    triple-loop product on the lower triangle, the one it holds, and has a
    zero strict upper triangle."""
    rng = make_rng(seed)
    nobs, nens = 15, 4
    r = rng.uniform(0.5, 2.0, size=nobs)
    v = rng.standard_normal((nobs, nens))
    w, info = lapack.dtfttr(nobs, sym_rank_k_update(v, r), transr="N", uplo="L")
    naive = np.zeros((nobs, nobs))
    for i in range(nobs):
        for j in range(nobs):
            naive[i, j] = sum(v[i, k] * v[j, k] for k in range(nens))
    naive += np.diag(r)
    return bool(info == 0
                and np.abs(np.tril(w - naive)).max() <= 1e-13 * np.abs(naive).max()
                and not np.triu(w, 1).any())


def check_lorenz_rk4_order() -> bool:
    """Measured convergence order of the time stepper is at least 3.8."""
    x0 = 8.0 + np.sin(np.arange(40))
    ref = x0.copy()
    for _ in range(4000):
        ref = lorenz96.rk4_step(ref, 0.00025, 8.0)
    errors = []
    for dt in (0.02, 0.01):
        x = x0.copy()
        for _ in range(round(1.0 / dt)):
            x = lorenz96.rk4_step(x, dt, 8.0)
        errors.append(np.abs(x - ref).max())
    order = np.log2(errors[0] / errors[1])
    return bool(order >= 3.8)


def check_helmholtz() -> bool:
    """Manufactured solution converges at second order; solve inverts apply."""
    errors = []
    sizes = (17, 33, 65)
    for n in sizes:
        cfg = QGConfig(n=n, m=n, lx=1.0, ly=1.0, rkb=0, rkh=0, rkh2=0,
                       beta=0, rossby=0, froude=100.0)
        xs = (np.arange(1, n - 1) * cfg.hx)[:, None]
        ys = (np.arange(1, n - 1) * cfg.hy)[None, :]
        psi_exact = np.sin(np.pi * xs) * np.sin(np.pi * ys)
        q = (-(np.pi ** 2 + np.pi ** 2) - cfg.froude) * psi_exact
        psi = qg.helmholtz_solve(q.reshape(cfg.nstate), cfg)
        errors.append(np.abs(psi - psi_exact.reshape(cfg.nstate)).max())
        rhs = qg.helmholtz_apply(psi, cfg)
        if np.abs(rhs - q.reshape(cfg.nstate)).max() > 1e-8 * np.abs(q).max():
            return False
    hs = [1.0 / (n - 1) for n in sizes]
    slope = np.polyfit(np.log(hs), np.log(errors), 1)[0]
    return bool(1.9 <= slope <= 2.1)


def check_arakawa(seed: int = 606) -> bool:
    """Advection stencil conserves the three domain sums, is antisymmetric,
    J(f, g) = -J(g, f), and gives J(f, f) = 0."""
    rng = make_rng(seed)
    f = rng.standard_normal((12, 9))
    g = rng.standard_normal((12, 9))

    def ring(a):  # include the boundary ring, where J is nonzero
        out = np.zeros((a.shape[0] + 2, a.shape[1] + 2))
        out[1:-1, 1:-1] = a
        return out

    jac = qg.arakawa_jacobian(ring(f), ring(g), 0.1, 0.2)
    jmax = np.abs(jac).max()
    scale = jmax * jac.size
    return bool(
        abs(jac.sum()) <= 1e-10 * scale
        and abs((ring(f) * jac).sum()) <= 1e-10 * scale
        and abs((ring(g) * jac).sum()) <= 1e-10 * scale
        and np.abs(jac + qg.arakawa_jacobian(ring(g), ring(f), 0.1, 0.2)
                   ).max() <= 1e-12 * jmax
        and np.abs(qg.arakawa_jacobian(f, f, 0.1, 0.2)).max() <= 1e-12 * jmax
    )


CHECKS = [
    ("solver agreement (sherman / cholesky / svd)", check_solver_agreement),
    ("recursive oracle equals iterative sweep", check_recursive_oracle),
    ("operation count audit", check_op_count),
    ("dense Kalman-gain oracle (sherman / cholesky / svd)",
     check_kalman_oracle),
    ("symmetric rank-k update vs naive product", check_rank_k_update),
    ("Lorenz-96 RK4 convergence order", check_lorenz_rk4_order),
    ("Helmholtz manufactured solution", check_helmholtz),
    ("advection Jacobian conservation", check_arakawa),
]


def run_all(verbose: bool = True) -> bool:
    ok = True
    for label, check in CHECKS:
        passed = check()
        ok = ok and passed
        if verbose:
            print(f"{'PASS' if passed else 'FAIL'}  {label}")
    return ok
