"""Experiment configuration, the assimilation driver, and result files.

Configurations are INI files ([section] headers, key = value pairs) so
they stay diffable and hand-editable; a few desk-scale presets ship with
the package. One `run_experiment` call runs every requested solver over
the *same* truth trajectory, initial ensemble and observation noise (the
replication rule), records per-cycle forecast/analysis errors and
bracketed wall times, and returns a manifest that `emit_csv` writes out
as CSV plus plot-ready curve files.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
from dataclasses import asdict, dataclass, field, replace
from functools import partial
from importlib import resources
from pathlib import Path

import numpy as np

from .enkf import (
    SelectionOperator,
    analysis_step,
    forecast_step,
    inflate,
    influence_matrix_cyclic,
    perturb_observations,
)
from .errors import ConfigError, NumericalFailureError
from .metrics import MetricSeries, elapsed_report, rmse, rse
from .models import QG33, QG65, QG129, Lorenz96, Lorenz96Config, QGConfig, QGModel
from .observations import (
    build_initial_ensemble_lorenz,
    build_initial_ensemble_qg,
    build_selection_operator,
    propagate_truth,
    synthesize_observation,
)
from .rng import make_rng
from .solvers import SolverChoice
from .threads import blas_threads

ARTIFACT_VERSION = "0.1.0"

VALID_MODELS = ("lorenz96", "qg33", "qg65", "qg129", "custom")
VALID_SOLVERS = (*(c.value for c in SolverChoice), "free")
VALID_OBS_STRATEGIES = ("uniform-stride", "random")

# Conventional physical calibration of the model clocks, used purely to
# label outputs: one ring-model time unit stands for five atmosphere
# days, one ocean-model step for 1.27 days.
TIME_LABELS = {
    "lorenz96": {"days_per_time_unit": 5.0},
    "qg": {"days_per_step": 1.27},
}

_QG_PRESETS = {"qg33": QG33, "qg65": QG65, "qg129": QG129}

_SEED_ENV = {
    "truth": "ENKFKIT_SEED_TRUTH",
    "ensemble": "ENKFKIT_SEED_ENSEMBLE",
    "observations": "ENKFKIT_SEED_OBS",
}


@dataclass
class ExperimentConfig:
    """Validated experiment description; every field is echoed to the manifest."""

    name: str = "experiment"
    model: str = "lorenz96"
    solvers: tuple[str, ...] = ("sherman", "cholesky", "svd")
    steps: int = 100
    analysis_interval: int = 10
    # accepted only as 1 and read by nothing: the Sherman sweep has no
    # thread pool, but the benchmark's twin configs still pass the field
    workers: int = 1
    output_dir: str = "runs"

    # model parameters
    nstate: int = 40            # lorenz96 only
    forcing: float = 8.0        # lorenz96 only
    dt: float | None = None     # defaults: 0.05 lorenz, 1.0 qg
    spinup_steps: int | None = None  # defaults: 500 lorenz, 120 qg
    qg_grid: dict | None = None  # custom QG grids only
    model_noise_std: float = 0.0  # additive forecast noise (model error), off

    # ensemble parameters
    nens: int = 20
    inflation: float = 1.0
    localization: bool = False
    localization_scale: float | None = None  # default: nstate (broad taper)
    init_spread_pct: float = 0.05  # lorenz initial spread
    std_ens: float = 5.0           # qg initial spread

    # observations
    pobs: float = 1.0
    obs_variance: float = 1e-4
    obs_strategy: str = "uniform-stride"

    # seeds
    seed_truth: int = 1
    seed_ensemble: int = 2
    seed_observations: int = 3

    def __post_init__(self):
        if self.model not in VALID_MODELS:
            raise ConfigError(
                f"model must be one of {VALID_MODELS}, got {self.model!r}"
            )
        if not self.solvers:
            raise ConfigError("at least one solver is required")
        for s in self.solvers:
            if s not in VALID_SOLVERS:
                raise ConfigError(
                    f"unknown solver {s!r}; valid: {VALID_SOLVERS}"
                )
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.analysis_interval < 1:
            raise ConfigError("analysis_interval must be at least 1")
        if self.steps % self.analysis_interval != 0:
            raise ConfigError(
                f"steps ({self.steps}) must be a multiple of "
                f"analysis_interval ({self.analysis_interval})"
            )
        if self.nens < 2:
            raise ConfigError("nens must be at least 2")
        if self.inflation < 1.0:
            raise ConfigError("inflation must be >= 1")
        if not 0.0 < self.pobs <= 1.0:
            raise ConfigError("pobs must be in (0, 1]")
        if self.obs_variance <= 0:
            raise ConfigError("observation variance must be positive")
        if self.workers != 1:
            raise ConfigError(f"workers must be 1, got {self.workers}")
        if self.obs_strategy not in VALID_OBS_STRATEGIES:
            raise ConfigError(f"unknown observation strategy {self.obs_strategy!r}; "
                              f"valid: {VALID_OBS_STRATEGIES}")
        spread = "init_spread_pct" if self.model == "lorenz96" else "std_ens"
        if getattr(self, spread) <= 0:
            raise ConfigError(f"{spread} must be positive")
        if self.localization and not self.model.startswith("lorenz"):
            raise ConfigError(
                "the cyclic influence-matrix localization is only defined "
                "for the lorenz96 state layout"
            )
        if self.localization_scale is not None and self.localization_scale <= 0:
            raise ConfigError("localization_scale must be positive")
        if self.model_noise_std < 0:
            raise ConfigError("model_noise_std must be non-negative")
        if self.model == "custom" and not self.qg_grid:
            raise ConfigError("model 'custom' needs a [model] grid definition")

    # -- resolved model objects -------------------------------------------

    def model_dt(self) -> float:
        if self.dt is not None:
            return self.dt
        return 0.05 if self.model == "lorenz96" else 1.0

    def model_spinup(self) -> int:
        if self.spinup_steps is not None:
            return self.spinup_steps
        return 500 if self.model == "lorenz96" else 120

    def build_model(self):
        """The model; a bad model parameter raises ConfigError."""
        try:
            if self.model == "lorenz96":
                return Lorenz96(Lorenz96Config(
                    nstate=self.nstate, forcing=self.forcing, dt=self.model_dt()))
            if self.model in _QG_PRESETS:
                cfg = replace(_QG_PRESETS[self.model], dt=self.model_dt())
            else:
                cfg = QGConfig(dt=self.model_dt(), **self.qg_grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {self.model} model: {exc}") from exc
        return QGModel(cfg)

    def echo(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# INI parsing


def _preset_text(name: str) -> str | None:
    ref = resources.files("enkfkit").joinpath(f"presets/{name}.ini")
    if not ref.is_file():
        return None
    return ref.read_text()


def load_config(path_or_name: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load a config file, a named preset, or an emitted manifest.json.

    A manifest is self-contained: pointing ``--config`` at one reruns the
    experiment it records. ``overrides`` (CLI flags) win over the file;
    environment variables ENKFKIT_SEED_TRUTH / _ENSEMBLE / _OBS override
    the seeds in the file but not explicit overrides.
    """
    path = Path(path_or_name)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
        if path.suffix == ".json":
            return _config_from_manifest(text, path, overrides or {})
    else:
        text = _preset_text(path_or_name)
        if text is None:
            raise ConfigError(
                f"config {path_or_name!r} is neither a file nor a known preset"
            )
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path_or_name}: {exc}") from exc
    return _config_from_parser(parser, overrides or {})


def _config_from_manifest(text: str, path: Path,
                          overrides: dict) -> ExperimentConfig:
    try:
        payload = json.loads(text)
        echo = dict(payload["config"])
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ConfigError(f"{path} is not a run manifest: {exc}") from exc
    echo["solvers"] = tuple(echo.get("solvers", ()))
    echo.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**echo)
    except TypeError as exc:
        raise ConfigError(f"manifest config mismatch: {exc}") from exc


def _get(parser, read, section, key, cast, default):
    read.add((section, key))
    if not parser.has_option(section, key):
        return default
    raw = parser.get(section, key)
    try:
        if cast is bool:
            return parser.getboolean(section, key)
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def _config_from_parser(parser: configparser.ConfigParser,
                        overrides: dict) -> ExperimentConfig:
    known = {"experiment", "model", "ensemble", "observations", "seeds"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    read = set()  # every (section, key) looked up; the rest are unknown
    get = partial(_get, parser, read)

    solvers_raw = get("experiment", "solvers", str, "sherman, cholesky, svd")
    solvers = tuple(s.strip() for s in solvers_raw.split(",") if s.strip())

    qg_grid = None
    if parser.has_option("model", "n"):
        grid_keys = ("n", "m", "lx", "ly", "rkb", "rkh", "rkh2",
                     "beta", "rossby", "froude")
        qg_grid = {}
        for key in grid_keys:
            if parser.has_option("model", key):
                cast = int if key in ("n", "m") else float
                qg_grid[key] = get("model", key, cast, None)

    kwargs = dict(
        name=get("experiment", "name", str, "experiment"),
        model=get("experiment", "model", str, "lorenz96"),
        solvers=solvers,
        steps=get("experiment", "steps", int, 100),
        analysis_interval=get("experiment", "analysis_interval", int, 10),
        output_dir=get("experiment", "output_dir", str, "runs"),
        nstate=get("model", "nstate", int, 40),
        forcing=get("model", "forcing", float, 8.0),
        dt=get("model", "dt", float, None),
        spinup_steps=get("model", "spinup_steps", int, None),
        qg_grid=qg_grid,
        model_noise_std=get("model", "noise_std", float, 0.0),
        nens=get("ensemble", "nens", int, 20),
        inflation=get("ensemble", "inflation", float, 1.0),
        localization=get("ensemble", "localization", bool, False),
        localization_scale=get("ensemble", "localization_scale", float, None),
        init_spread_pct=get("ensemble", "init_spread_pct", float, 0.05),
        std_ens=get("ensemble", "std_ens", float, 5.0),
        pobs=get("observations", "pobs", float, 1.0),
        obs_variance=get("observations", "variance", float, 1e-4),
        obs_strategy=get("observations", "strategy", str, "uniform-stride"),
        seed_truth=get("seeds", "truth", int, 1),
        seed_ensemble=get("seeds", "ensemble", int, 2),
        seed_observations=get("seeds", "observations", int, 3),
    )

    unread = sorted(f"[{sec}] {key}" for sec in parser.sections()
                    for key in parser.options(sec) if (sec, key) not in read)
    if unread:
        raise ConfigError(f"unknown config keys: {unread}")

    for key, env in _SEED_ENV.items():
        if env in os.environ:
            try:
                kwargs[f"seed_{key}"] = int(os.environ[env])
            except ValueError as exc:
                raise ConfigError(f"{env} must be an integer") from exc
    kwargs.update({k: v for k, v in overrides.items() if v is not None})
    try:
        return ExperimentConfig(**kwargs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Running


@dataclass
class SolverRun:
    solver: str
    series: MetricSeries
    rmse_analysis: float
    rmse_forecast: float
    elapsed: dict


@dataclass
class RunManifest:
    """Everything needed to reproduce and postprocess one experiment."""

    config: dict
    artifact_version: str
    nstate: int
    nobs: int
    cycles: int
    hashes: dict
    initial_rse: float = float("nan")
    blas_threads: dict = field(default_factory=dict)
    runs: list[SolverRun] = field(default_factory=list)

    def run_for(self, solver: str) -> SolverRun:
        for run in self.runs:
            if run.solver == solver:
                return run
        raise KeyError(solver)


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _truth_start(cfg: ExperimentConfig, model) -> np.ndarray:
    """Spin the reference state onto the attractor, deterministically per seed."""
    rng = make_rng(cfg.seed_truth)
    spinup = cfg.model_spinup()
    if cfg.model == "lorenz96":
        x = cfg.forcing + rng.standard_normal(cfg.nstate)
    else:
        nstate = model.config.nstate
        x = 1e-6 * rng.standard_normal(nstate)
    for _ in range(spinup):
        x = model.step(x)
    return x


def run_experiment(cfg: ExperimentConfig) -> RunManifest:
    """Run every configured solver over one shared twin-experiment setup.

    The truth trajectory, the initial ensemble and all observation error
    realizations are generated once and reused bitwise for each solver.
    Numerical failures abort with the solver and cycle in the message.
    """
    model = cfg.build_model()
    dt = cfg.model_dt()
    cycles = cfg.steps // cfg.analysis_interval
    window = cfg.analysis_interval * dt
    times = np.arange(cycles + 1) * window

    x0_true = _truth_start(cfg, model)
    truth = propagate_truth(model, x0_true, times)
    nstate = x0_true.shape[0]

    h = build_selection_operator(nstate, cfg.pobs, cfg.obs_strategy,
                                 seed=cfg.seed_observations)
    nobs = h.nobs(nstate)
    r = np.full(nobs, cfg.obs_variance)

    rng_ens = make_rng(cfg.seed_ensemble)
    if cfg.model == "lorenz96":
        ens0 = build_initial_ensemble_lorenz(x0_true, cfg.init_spread_pct,
                                             cfg.nens, rng_ens)
    else:
        ens0 = build_initial_ensemble_qg(x0_true, cfg.std_ens,
                                         cfg.nens, rng_ens)

    # model-error noise is pre-drawn so every solver sees the same
    # realizations (the replication rule covers it like observation noise)
    noise = None
    if cfg.model_noise_std > 0 and cycles > 0:
        noise = cfg.model_noise_std * rng_ens.standard_normal(
            (cycles, nstate, cfg.nens))

    rng_obs = make_rng(cfg.seed_observations)
    batches = []
    for c in range(1, cycles + 1):
        y = synthesize_observation(truth.state_at(c), h, r, rng_obs)
        batches.append(perturb_observations(y, r, cfg.nens, rng_obs))

    hashes = {
        "truth": _sha256(truth.states),
        "initial_ensemble": _sha256(ens0),
        "observations": _sha256(
            *(arr for b in batches for arr in (b.y, b.perturbations))
        ) if batches else _sha256(np.empty(0)),
    }

    if cfg.model == "lorenz96":
        def cycle_error(c: int, x_mean: np.ndarray) -> float:
            return rse(truth.state_at(c), x_mean)
    else:
        # ocean-model errors are measured on the stream function
        truth_psi = [model.stream_function(truth.state_at(c))
                     for c in range(cycles + 1)]

        def cycle_error(c: int, x_mean: np.ndarray) -> float:
            return rse(truth_psi[c], model.stream_function(x_mean))

    delta = None
    if cfg.localization:
        delta = influence_matrix_cyclic(nstate, h, scale=cfg.localization_scale)

    manifest = RunManifest(
        config=cfg.echo(),
        artifact_version=ARTIFACT_VERSION,
        nstate=nstate,
        nobs=nobs,
        cycles=cycles,
        hashes=hashes,
        initial_rse=cycle_error(0, ens0.mean(axis=1)),
        blas_threads=blas_threads(),
    )

    for solver in cfg.solvers:
        series = MetricSeries()
        x = ens0.copy()

        for c in range(1, cycles + 1):
            try:
                t0 = time.perf_counter_ns()
                x = forecast_step(model, x, float(times[c - 1]), float(times[c]))
                if noise is not None:
                    x = x + noise[c - 1]
                series.add_forecast_time(time.perf_counter_ns() - t0)
                err_f = cycle_error(c, x.mean(axis=1))
                if solver == "free":
                    err_a = err_f
                else:
                    if cfg.inflation > 1.0:
                        x = inflate(x, cfg.inflation)
                    t0 = time.perf_counter_ns()
                    x = analysis_step(x, batches[c - 1], h, r, solver,
                                      localization=delta)
                    series.add_analysis_time(time.perf_counter_ns() - t0)
                    err_a = cycle_error(c, x.mean(axis=1))
            except ArithmeticError as exc:
                raise NumericalFailureError(
                    f"solver {solver!r} failed at cycle {c}: {exc}"
                ) from exc
            series.add_cycle(c, float(times[c]), err_f, err_a)

        if cycles == 0:
            rmse_analysis = rmse_forecast = manifest.initial_rse
        else:
            rmse_analysis = rmse(series.analysis_rse_values())
            rmse_forecast = rmse(series.forecast_rse_values())
        manifest.runs.append(SolverRun(
            solver=solver,
            series=series,
            rmse_analysis=rmse_analysis,
            rmse_forecast=rmse_forecast,
            elapsed=elapsed_report(series),
        ))
    return manifest


# ---------------------------------------------------------------------------
# Output files


def emit_csv(manifest: RunManifest, outdir: str | Path) -> list[Path]:
    """Write metrics.csv, summary.csv, manifest.json and per-curve data.

    metrics.csv carries no timings, so two runs with equal seeds produce
    byte-identical files. Floats are written with repr (shortest
    round-trip), so parsing the file back recovers the exact values.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    written = []

    metrics_path = outdir / "metrics.csv"
    lines = ["cycle,time,solver,rse_forecast,rse_analysis"]
    for run in manifest.runs:
        for row in run.series.rows:
            lines.append(
                f"{row.cycle},{row.time!r},{run.solver},"
                f"{row.rse_forecast!r},{row.rse_analysis!r}"
            )
    metrics_path.write_text("\n".join(lines) + "\n")
    written.append(metrics_path)

    summary_path = outdir / "summary.csv"
    lines = ["solver,rmse,forecast_s,analysis_s,total_s"]
    for run in manifest.runs:
        e = run.elapsed
        lines.append(
            f"{run.solver},{run.rmse_analysis!r},"
            f"{e['forecast_s']:.3f},{e['analysis_s']:.3f},{e['total_s']:.3f}"
        )
    summary_path.write_text("\n".join(lines) + "\n")
    written.append(summary_path)

    manifest_path = outdir / "manifest.json"
    model_kind = "lorenz96" if manifest.config["model"] == "lorenz96" else "qg"
    payload = {
        "artifact_version": manifest.artifact_version,
        "config": manifest.config,
        "nstate": manifest.nstate,
        "nobs": manifest.nobs,
        "cycles": manifest.cycles,
        "initial_rse": manifest.initial_rse,
        "blas_threads": manifest.blas_threads,
        "time_labels": TIME_LABELS[model_kind],
        "hashes": manifest.hashes,
        "solvers": {
            run.solver: {
                "rmse_analysis": run.rmse_analysis,
                "rmse_forecast": run.rmse_forecast,
                "elapsed": run.elapsed,
            }
            for run in manifest.runs
        },
    }
    manifest_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    written.append(manifest_path)

    for run in manifest.runs:
        curve = outdir / f"curve_analysis_{run.solver}.dat"
        rows = [f"{row.time!r} {row.rse_analysis!r}" for row in run.series.rows]
        curve.write_text("\n".join(rows) + "\n")
        written.append(curve)
        curve = outdir / f"curve_forecast_{run.solver}.dat"
        rows = [f"{row.time!r} {row.rse_forecast!r}" for row in run.series.rows]
        curve.write_text("\n".join(rows) + "\n")
        written.append(curve)

    return written
