"""Timing sweeps of the analysis solvers over synthetic systems.

The sweep times just the observation-space solve on random systems,
which is where the solvers differ: the rank-one sweep is linear in the
number of observations at fixed ensemble size, while the dense
Cholesky baseline pays for assembling and factoring the full matrix.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError
from .rng import make_rng
from .solvers import solve_analysis
from .verify import random_system

SWEEP_AXES = ("nobs", "nens")


@dataclass
class ScalingRow:
    solver: str
    nobs: int
    nens: int
    seconds: float


@dataclass
class ScalingStudy:
    axis: str
    rows: list[ScalingRow] = field(default_factory=list)
    slopes: dict = field(default_factory=dict)

    def seconds_for(self, solver: str) -> list[float]:
        return [row.seconds for row in self.rows if row.solver == solver]


def check_sweep(solvers: list, axis: str, values, fixed: int) -> list[int]:
    """The sweep values as ints; ConfigError for a study that cannot run."""
    if axis not in SWEEP_AXES:
        raise ConfigError(f"sweep axis must be one of {SWEEP_AXES}, got {axis!r}")
    values = [int(v) for v in values]
    if len(values) < 3:
        raise ConfigError(
            f"a scaling sweep needs at least 3 grid points, got {len(values)}"
        )
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError("sweep values must be strictly increasing")
    if fixed < 1 or values[0] < 1:
        raise ConfigError("sweep values and the fixed dimension must be positive")
    if not solvers:
        raise ConfigError("at least one solver is required")
    return values


def run_scaling_study(
    solvers,
    axis: str,
    values,
    fixed: int,
    repeats: int = 3,
    seed: int = 1234,
) -> ScalingStudy:
    """Time each solver over a sweep of nobs or nens.

    Parameters
    ----------
    solvers : iterable of solver names ("sherman", "cholesky", "svd").
    axis : the swept dimension, "nobs" or "nens".
    values : at least 3 sweep points, strictly increasing.
    fixed : the value of the non-swept dimension.
    repeats : minimum timings per point; fast measurements are repeated
        until 0.1 s of samples accumulate (up to 100 runs) so scheduler
        and allocator noise cannot distort the cheap end of a sweep. The
        minimum is recorded.

    Returns
    -------
    ScalingStudy with one row per (solver, nobs, nens) and the fitted
    log-log slope of time versus the swept value per solver.
    """
    solvers = list(solvers)
    values = check_sweep(solvers, axis, values, fixed)
    study = ScalingStudy(axis=axis)
    for i, value in enumerate(values):
        nobs, nens = (value, fixed) if axis == "nobs" else (fixed, value)
        r, v, d = random_system(make_rng(seed + i), nobs, nens)
        for solver in solvers:
            solve_analysis(solver, r, v, d)  # warmup, excluded from timing
            best = np.inf
            total = 0.0
            runs = 0
            while runs < repeats or (total < 0.1 and runs < 100):
                t0 = time.perf_counter()
                solve_analysis(solver, r, v, d)
                elapsed = time.perf_counter() - t0
                best = min(best, elapsed)
                total += elapsed
                runs += 1
            study.rows.append(ScalingRow(solver, nobs, nens, best))

    log_x = np.log(np.asarray(values, dtype=float))
    for solver in solvers:
        log_t = np.log(np.asarray(study.seconds_for(solver)))
        study.slopes[solver] = float(np.polyfit(log_x, log_t, 1)[0])
    return study


def emit_scaling_csv(study: ScalingStudy, outdir: str | Path) -> Path:
    """Write scaling.csv (one row per measurement, slopes appended)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / "scaling.csv"
    lines = ["solver,nobs,nens,seconds"]
    for row in study.rows:
        lines.append(f"{row.solver},{row.nobs},{row.nens},{row.seconds!r}")
    lines.append("")
    lines.append(f"# log-log slope vs {study.axis}")
    for solver, slope in study.slopes.items():
        lines.append(f"# {solver},{slope:.3f}")
    path.write_text("\n".join(lines) + "\n")
    return path
