"""The benchmark's workloads, the timed loops that drive them, and their checks.

Twin workloads run a shipped preset through the public API exactly as
``enkfkit run`` does: ``load_config``, ``run_experiment`` over all three
solvers, then ``emit_csv``. One work unit is one assimilation cycle
(forecast, inflation, analysis and error). The untraced loop reads the clock
only at work-unit boundaries, through a wrapper on
``enkfkit.experiment.forecast_step`` that stamps each cycle start; a cycle
ends where the next one starts, or where ``run_experiment`` returns.

``tall-obs`` is the paper's many-observations regime: a synthetic system
with Nobs = 20000 and Nens = 64, solved over and over by
``solve_analysis``. One work unit is one ``solve_analysis`` call.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from pathlib import Path

import numpy as np

from enkfkit import enkf, experiment, sherman, solvers

from spans import Tracer, clock, patch, unpatch

WORKLOADS = ("lorenz-small", "lorenz-500", "qg33-short", "tall-obs")
SOLVERS = ("sherman", "cholesky", "svd")

# lorenz-500 keeps the preset's shape (nstate = Nobs = 500, Nens = 200, an
# analysis every step, inflation 1.02) but runs 10 cycles instead of 200, so
# one run_experiment takes about 3 s at default BLAS threads and a run holds
# several of them.
LORENZ500_STEPS = 10

# --seed picks one of SEED_SETS seed triples: index k adds k to each of the
# preset's truth, ensemble and observation seeds (k = 0 is the preset as
# shipped). reference.json holds the expected RMSE for every triple.
SEED_SETS = 8

TALL_NOBS = 20000
TALL_NENS = 64
# The dense Cholesky path assembles an Nobs x Nobs matrix several times over;
# at Nobs = 20000 one copy is 3.2 GB. On tall-obs it solves the leading
# TALL_CHOLESKY_NOBS observations of the same system instead.
TALL_CHOLESKY_NOBS = 2000

# Tolerances of the checks, relative.
# Stored reference: the mean analysis RMSE moves by at most 1.2e-9 between
# 1 and 2 BLAS threads (qg33-short, 4.4e-10 on lorenz-500; reference.py
# re-measures this for every seed triple), so 1e-7 leaves a wide margin for
# other thread counts and CPUs while catching any change of the algorithm.
RMSE_REFERENCE_RTOL = 1e-7
# Across solvers the RMSE differs by up to 2.7e-8 on qg33-short, the worst
# conditioned preset.
RMSE_SOLVER_RTOL = 1e-6
# tall-obs: Sherman and SVD solutions of one system.
Z_AGREEMENT_RTOL = 1e-8
# tall-obs: max |(diag(r) + V V') Z - D| / max |D| for every timed solve.
RESIDUAL_RTOL = 1e-10

BLAS1_CALLS_PER_SOLVER = 10


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


# ---------------------------------------------------------------------------
# Twin experiments


def twin_config(workload: str, seed: int | None) -> experiment.ExperimentConfig:
    overrides = {"workers": 1}
    if workload == "lorenz-500":
        overrides["steps"] = LORENZ500_STEPS
    cfg = experiment.load_config(workload, overrides)
    k = 0 if seed is None else seed % SEED_SETS
    return dataclasses.replace(
        cfg,
        seed_truth=cfg.seed_truth + k,
        seed_ensemble=cfg.seed_ensemble + k,
        seed_observations=cfg.seed_observations + k,
    )


class _SetupDone(Exception):
    """Raised at the first forecast of a set-up-only pass."""


@dataclasses.dataclass
class TwinRun:
    start: int
    stamps: list        # clock at each cycle start, solvers in config order
    run_end: int        # run_experiment returned
    end: int            # emit_csv returned
    manifest: object
    emitted: list

    @property
    def setup_ns(self) -> int:
        return self.stamps[0] - self.start

    def cycle_ns(self, cycles: int, index: int) -> list[int]:
        """Durations of the cycles of the index-th solver."""
        bounds = self.stamps[index * cycles:(index + 1) * cycles + 1]
        if len(bounds) == cycles:
            bounds = bounds + [self.run_end]
        return [b - a for a, b in zip(bounds, bounds[1:])]


def setup_only(cfg) -> int:
    """Nanoseconds from the run_experiment call to its first forecast."""
    def stop(original):
        def stopped(*args, **kwargs):
            raise _SetupDone(clock())
        return stopped
    undo = []
    patch(experiment, "forecast_step", stop, undo)
    try:
        start = clock()
        experiment.run_experiment(cfg)
    except _SetupDone as done:
        return done.args[0] - start
    finally:
        unpatch(undo)
    raise RuntimeError("run_experiment finished without a forecast")


def run_twin(cfg, outdir: Path, tracer: Tracer | None = None) -> TwinRun:
    """One run_experiment plus emit_csv, stamping every cycle start.

    With a tracer, the run, its set-up (from the call to the first
    forecast) and each cycle also become spans, so the layer spans nest
    under them.
    """
    cycles = cfg.steps // cfg.analysis_interval
    stamps: list[int] = []

    def stamp(original):
        def stamped(*args, **kwargs):
            now = clock()
            if tracer is not None:
                # closes the set-up span or the previous cycle
                tracer.close(tracer.stack[-1], end=now)
                tracer.open("experiment.cycle",
                            {"solver": cfg.solvers[len(stamps) // cycles]},
                            start=now)
            stamps.append(now)
            return original(*args, **kwargs)
        return stamped

    undo = []
    patch(experiment, "forecast_step", stamp, undo)
    depth = len(tracer.stack) if tracer is not None else 0
    try:
        start = clock()
        if tracer is not None:
            run_span = tracer.open("experiment.run", start=start)
            tracer.open("experiment.setup", start=start)
        manifest = experiment.run_experiment(cfg)
        run_end = clock()
        if tracer is not None:
            tracer.close(tracer.stack[-1], end=run_end)
        emitted = experiment.emit_csv(manifest, outdir)
        end = clock()
        if tracer is not None:
            tracer.close(run_span, end=end)
    finally:
        unpatch(undo)
        if tracer is not None:
            tracer.unwind(depth)
    return TwinRun(start, stamps, run_end, end, manifest, emitted)


class TwinChecks:
    """Checks made on every run_experiment of a twin workload."""

    def __init__(self, workload: str, seed: int | None, reference: dict):
        k = 0 if seed is None else seed % SEED_SETS
        self.expected = reference[workload][str(k)]
        self.metrics_digest = None
        self.problems: list[str] = []

    def check(self, cfg, run: TwinRun) -> list[str]:
        """Names of the solvers whose run failed a check."""
        manifest = run.manifest
        failed = set()
        cycles = cfg.steps // cfg.analysis_interval
        if manifest.cycles != cycles or len(run.stamps) != cycles * len(cfg.solvers):
            self.problems.append(
                f"expected {cycles} cycles per solver, manifest has "
                f"{manifest.cycles} and {len(run.stamps)} cycles were stamped")
            return list(cfg.solvers)
        rmse = {s: manifest.run_for(s).rmse_analysis for s in cfg.solvers}
        for solver, value in rmse.items():
            want = self.expected[solver]
            if not np.isfinite(value) or rel_diff(value, want) > RMSE_REFERENCE_RTOL:
                self.problems.append(
                    f"{solver}: RMSE {value!r} differs from the stored "
                    f"{want!r} by {rel_diff(value, want):.3g} relative")
                failed.add(solver)
        for a in cfg.solvers:
            for b in cfg.solvers:
                if a < b and rel_diff(rmse[a], rmse[b]) > RMSE_SOLVER_RTOL:
                    self.problems.append(
                        f"RMSE of {a} and {b} differ by "
                        f"{rel_diff(rmse[a], rmse[b]):.3g} relative")
                    failed.update((a, b))
        metrics_csv = next(Path(p) for p in run.emitted
                           if Path(p).name == "metrics.csv")
        lines = metrics_csv.read_text().splitlines()
        if lines[0] != "cycle,time,solver,rse_forecast,rse_analysis" or \
                len(lines) != 1 + cycles * len(cfg.solvers):
            self.problems.append(f"{metrics_csv} has unexpected content")
            failed.update(cfg.solvers)
        digest = hashlib.sha256(metrics_csv.read_bytes()).hexdigest()
        if self.metrics_digest is None:
            self.metrics_digest = digest
        elif digest != self.metrics_digest:
            self.problems.append("metrics.csv differs between two runs of "
                                 "one process")
            failed.update(cfg.solvers)
        return sorted(failed)


@dataclasses.dataclass
class Measured:
    """Work-unit times per solver, run/setup times and the check tally."""

    unit_ns: dict
    run_ns: list
    setup_ns: list
    attempted: int = 0
    failed: int = 0
    problems: list = dataclasses.field(default_factory=list)
    extra: dict = dataclasses.field(default_factory=dict)


def measure_twin(workload, seed, seconds, outdir, reference,
                 tracer: Tracer | None = None, setup_passes=False):
    cfg = twin_config(workload, seed)
    cycles = cfg.steps // cfg.analysis_interval
    checks = TwinChecks(workload, seed, reference)
    out = Measured({s: [] for s in cfg.solvers}, [], [])
    budget = seconds * 1_000_000_000
    begin = clock()
    while True:
        # with setup_passes, a set-up-only pass (run_experiment stopped at
        # its first forecast) before every run doubles the set-ups that
        # setup_s takes its median over, spread over the whole run
        if setup_passes:
            out.setup_ns.append(setup_only(cfg))
        run = run_twin(cfg, outdir, tracer)
        out.run_ns.append(run.end - run.start)
        out.setup_ns.append(run.setup_ns)
        failed = checks.check(cfg, run)
        for i, solver in enumerate(cfg.solvers):
            if len(run.stamps) == cycles * len(cfg.solvers):
                out.unit_ns[solver].extend(run.cycle_ns(cycles, i))
            out.attempted += cycles
            if solver in failed:
                out.failed += cycles
        out.extra["emit_csv_bytes"] = sum(Path(p).stat().st_size
                                          for p in run.emitted)
        out.extra["nobs"], out.extra["nens"] = run.manifest.nobs, cfg.nens
        if clock() - begin + (run.end - run.start) > budget:
            break
    out.problems = checks.problems
    return out


# ---------------------------------------------------------------------------
# tall-obs


def tall_inputs(seed: int | None):
    """A synthetic ensemble, observations and variances from the seed."""
    rng = np.random.default_rng(0 if seed is None else seed)
    truth = rng.standard_normal(TALL_NOBS)
    ensemble = truth[:, None] + rng.standard_normal((TALL_NOBS, TALL_NENS))
    r = rng.uniform(0.5, 2.0, TALL_NOBS)
    y = truth + np.sqrt(r) * rng.standard_normal(TALL_NOBS)
    eps = np.sqrt(r)[:, None] * rng.standard_normal((TALL_NOBS, TALL_NENS))
    batch = enkf.ObservationBatch(y=y, perturbed=y[:, None] + eps,
                                  perturbations=eps)
    return ensemble, batch, r


def tall_system(ensemble, batch):
    """The program's own set-up of the solve: V and D from the ensemble."""
    v = enkf.member_deviations(ensemble)
    d = enkf.innovations(batch, enkf.SelectionOperator.identity(), ensemble)
    return v, d


def residual(r, v, d, z) -> float:
    return float(np.abs(r[:, None] * z + v @ (v.T @ z) - d).max()
                 / np.abs(d).max())


def tall_calls(r, v, d) -> dict:
    """The arguments of one solve_analysis call per solver."""
    k = TALL_CHOLESKY_NOBS
    return {"sherman": (r, v, d), "cholesky": (r[:k], v[:k], d[:k]),
            "svd": (r, v, d)}


def measure_tall(seed, seconds):
    ensemble, batch, r = tall_inputs(seed)
    out = Measured({s: [] for s in SOLVERS}, [], [])
    calls = None
    budget = seconds * 1_000_000_000
    begin = clock()
    while True:
        # one set-up per round; the solves use the arrays of the first
        t0 = clock()
        v, d = tall_system(ensemble, batch)
        out.setup_ns.append(clock() - t0)
        if calls is None:
            calls = tall_calls(r, v, d)
        round_ns = 0
        z = {}
        bad = set()
        for solver in SOLVERS:
            args = calls[solver]
            t0 = clock()
            result = solvers.solve_analysis(solver, *args)
            t1 = clock()
            out.unit_ns[solver].append(t1 - t0)
            round_ns += t1 - t0
            z[solver] = result.z
            res = residual(*args, result.z)
            if not res <= RESIDUAL_RTOL:
                out.problems.append(f"{solver}: residual {res:.3g}")
                bad.add(solver)
        agree = (np.abs(z["sherman"] - z["svd"]).max()
                 / np.abs(z["svd"]).max())
        if not agree <= Z_AGREEMENT_RTOL:
            out.problems.append(f"sherman and svd Z differ by {agree:.3g}")
            bad.update(("sherman", "svd"))
        out.attempted += len(SOLVERS)
        out.failed += len(bad)
        out.run_ns.append(round_ns)
        if clock() - begin + round_ns > budget:
            break
    out.extra.update(nobs=TALL_NOBS, nens=TALL_NENS, last_z=z, calls=calls)
    return out


def tall_final_checks(out: Measured) -> None:
    """Checks made once per run, outside every timed region."""
    r, v, d = out.extra["calls"]["sherman"]
    counted = sherman.solve_sherman(r, v, d, count_ops=True)
    want = sherman.long_op_count(TALL_NENS, TALL_NOBS)
    if counted.long_ops != want:
        out.problems.append(f"count_ops gave {counted.long_ops}, "
                            f"long_op_count gives {want}")
        out.failed += 1
    diff = (np.abs(counted.z - out.extra["last_z"]["sherman"]).max()
            / np.abs(counted.z).max())
    if not diff <= Z_AGREEMENT_RTOL:
        out.problems.append(f"counted sweep differs by {diff:.3g}")
        out.failed += 1
    rc, vc, dc = out.extra["calls"]["cholesky"]
    zs = solvers.solve_analysis("sherman", rc, vc, dc).z
    diff = np.abs(zs - out.extra["last_z"]["cholesky"]).max() / np.abs(zs).max()
    if not diff <= Z_AGREEMENT_RTOL:
        out.problems.append(f"cholesky and sherman Z differ by {diff:.3g} "
                            f"on the leading {TALL_CHOLESKY_NOBS} rows")
        out.failed += 1


# ---------------------------------------------------------------------------
# End-to-end metrics


def end_to_end(out: Measured, peak_rss_mb: float) -> tuple[dict, list]:
    """The end-to-end metrics and notes on their sample counts."""
    metrics = {
        "setup_s": (statistics.median(out.setup_ns) / 1e9, "s"),
        "run_s": (statistics.median(out.run_ns) / 1e9, "s"),
    }
    notes = [f"setup_s: median of {len(out.setup_ns)} set-ups; "
             f"run_s: median of {len(out.run_ns)} runs"]
    for solver in SOLVERS:
        ns = out.unit_ns[solver]
        ms = [x / 1e6 for x in ns]
        p90 = percentile(ms, 90)
        beyond = sum(1 for x in ms if x > p90)
        metrics[f"throughput.{solver}"] = (len(ns) / (sum(ns) / 1e9), "1/s")
        metrics[f"latency_p50_ms.{solver}"] = (statistics.median(ms), "ms")
        metrics[f"latency_p90_ms.{solver}"] = (p90, "ms")
        notes.append(
            f"{solver}: {len(ns)} work units, {beyond} beyond p90"
            + ("" if beyond >= 10 else " (fewer than 10: p90 is indicative)"))
    metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    return metrics, notes


def load_reference(path: Path) -> dict:
    return json.loads(path.read_text())
