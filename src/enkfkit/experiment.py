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
import math
import os
import time
from dataclasses import asdict, dataclass, field, fields, replace
from importlib import resources
from pathlib import Path

import numpy as np
import scipy

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
from .threads import allowed_cpus, blas_threads

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
    forcing: float = Lorenz96Config.forcing  # lorenz96 only
    dt: float | None = None     # None: the model's own default step
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
        # a NaN passes every comparison below, so finiteness comes first
        numbers = [*vars(self).items(), *(self.qg_grid or {}).items()]
        infinite = [f"{key} = {value!r}" for key, value in numbers
                    if isinstance(value, float) and not math.isfinite(value)]
        if infinite:
            raise ConfigError(f"values must be finite: {infinite}")
        for key in ("steps", "spinup_steps", "model_noise_std", "seed_truth",
                    "seed_ensemble", "seed_observations"):
            if (getattr(self, key) or 0) < 0:
                raise ConfigError(f"{key} must be non-negative")
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
        if (self.model == "custom") != bool(self.qg_grid):
            raise ConfigError("model 'custom' needs a [model] grid definition, "
                              f"and only it takes one (model is {self.model!r})")
        self.build_model()  # the model's own parameter checks, before any run

    def build_model(self):
        """The model; a bad model parameter raises ConfigError."""
        step = {} if self.dt is None else {"dt": self.dt}
        try:
            if self.model == "lorenz96":
                return Lorenz96(Lorenz96Config(
                    nstate=self.nstate, forcing=self.forcing, **step))
            if self.model in _QG_PRESETS:
                cfg = replace(_QG_PRESETS[self.model], **step)
            else:
                cfg = QGConfig(**step, **self.qg_grid)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid {self.model} model: {exc}") from exc
        return QGModel(cfg)

    def echo(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# INI parsing

# [section] key -> (ExperimentConfig field, cast). A key the file leaves
# out is not passed, so the field's default applies.
_INI_KEYS = {
    "experiment": {
        "name": ("name", str), "model": ("model", str),
        "solvers": ("solvers", lambda raw: tuple(
            s.strip() for s in raw.split(",") if s.strip())),
        "steps": ("steps", int),
        "analysis_interval": ("analysis_interval", int),
        "output_dir": ("output_dir", str)},
    "model": {
        "nstate": ("nstate", int), "forcing": ("forcing", float),
        "dt": ("dt", float), "spinup_steps": ("spinup_steps", int),
        "noise_std": ("model_noise_std", float)},
    "ensemble": {
        "nens": ("nens", int), "inflation": ("inflation", float),
        "localization": ("localization", bool),
        "localization_scale": ("localization_scale", float),
        "init_spread_pct": ("init_spread_pct", float),
        "std_ens": ("std_ens", float)},
    "observations": {
        "pobs": ("pobs", float), "variance": ("obs_variance", float),
        "strategy": ("obs_strategy", str)},
    "seeds": {
        "truth": ("seed_truth", int), "ensemble": ("seed_ensemble", int),
        "observations": ("seed_observations", int)},
}

# the custom QG grid: [model] keys read only when the file sets n
_GRID_KEYS = {"n": int, "m": int, "lx": float, "ly": float, "rkb": float,
              "rkh": float, "rkh2": float, "beta": float, "rossby": float,
              "froude": float}


def load_config(path_or_name: str, overrides: dict | None = None) -> ExperimentConfig:
    """Load a config file, a named preset, or an emitted manifest.json.

    A manifest is self-contained: pointing ``--config`` at one reruns the
    experiment it records, so the seed variables below do not apply to it.
    ``overrides`` (CLI flags) win over the file; environment variables
    ENKFKIT_SEED_TRUTH / _ENSEMBLE / _OBS override the seeds in an INI
    file or preset but not explicit overrides.
    """
    path = Path(path_or_name)
    if path.exists():
        try:
            text = path.read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read {path}: {exc}") from exc
    else:
        preset = resources.files("enkfkit").joinpath(f"presets/{path_or_name}.ini")
        if not preset.is_file():
            raise ConfigError(
                f"config {path_or_name!r} is neither a file nor a known preset"
            )
        text = preset.read_text()
    if path.suffix == ".json":  # presets are all .ini, so this is a file
        settings = _manifest_settings(text, path)
    else:
        settings = _ini_settings(text, path_or_name)
    settings.update({k: v for k, v in (overrides or {}).items() if v is not None})
    try:
        return ExperimentConfig(**settings)
    except TypeError as exc:
        raise ConfigError(f"{path_or_name}: {exc}") from exc


# the JSON types that hold a value of each INI cast, and the fields that
# may be null
_JSON_TYPES = {int: (int,), float: (int, float), bool: (bool,), str: (str,)}
_FIELD_CASTS = {name: cast for keys in _INI_KEYS.values()
                for name, cast in keys.values()}
_NULLABLE = {f.name for f in fields(ExperimentConfig) if f.default is None}


def _manifest_settings(text: str, path: Path) -> dict:
    try:
        payload = json.loads(text)
        echo = dict(payload["config"])
        echo["solvers"] = tuple(echo.get("solvers", ()))
        if echo.get("qg_grid") is not None:
            echo["qg_grid"] = dict(echo["qg_grid"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path} is not a run manifest: {exc}") from exc
    # JSON values keep their own types; each must be one its field's INI
    # cast reads, and is cast the same way
    for values, casts in ((echo, _FIELD_CASTS),
                          (echo.get("qg_grid") or {}, _GRID_KEYS)):
        for key, value in values.items():
            cast = casts.get(key)
            if cast not in _JSON_TYPES or value is None and key in _NULLABLE:
                continue
            if (not isinstance(value, _JSON_TYPES[cast])
                    or isinstance(value, bool) != (cast is bool)):
                raise ConfigError(
                    f"{path}: {key} = {value!r} is not {cast.__name__}")
            values[key] = cast(value)
    return echo


def _ini_settings(text: str, source: str) -> dict:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {source}: {exc}") from exc
    unknown = set(parser.sections()) - set(_INI_KEYS)
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")

    settings, grid, unknown_keys = {}, {}, []
    has_grid = parser.has_option("model", "n")
    for section in parser.sections():
        for key in parser.options(section):
            if key in _INI_KEYS[section]:
                field_name, cast = _INI_KEYS[section][key]
                target = settings
            elif section == "model" and has_grid and key in _GRID_KEYS:
                field_name, cast, target = key, _GRID_KEYS[key], grid
            else:
                unknown_keys.append(f"[{section}] {key}")
                continue
            raw = parser.get(section, key)
            try:
                target[field_name] = (parser.getboolean(section, key)
                                      if cast is bool else cast(raw))
            except ValueError as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}") from exc
    if unknown_keys:
        raise ConfigError(f"unknown config keys: {sorted(unknown_keys)}")
    if grid:
        settings["qg_grid"] = grid

    for key, env in _SEED_ENV.items():
        if env in os.environ:
            try:
                settings[f"seed_{key}"] = int(os.environ[env])
            except ValueError as exc:
                raise ConfigError(f"{env} must be an integer") from exc
    return settings


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
    environment: dict = field(default_factory=dict)
    runs: list[SolverRun] = field(default_factory=list)

    def run_for(self, solver: str) -> SolverRun:
        for run in self.runs:
            if run.solver == solver:
                return run
        raise KeyError(solver)


def run_environment() -> dict:
    """What a run's timings and last bits depend on beyond its config: the
    BLAS budget, the allowed CPU count (which sets the thread count of large
    Cholesky solves), and the numpy and scipy versions."""
    return {"blas_threads": blas_threads(), "allowed_cpus": allowed_cpus(),
            "numpy_version": np.__version__, "scipy_version": scipy.__version__}


def _sha256(*arrays: np.ndarray) -> str:
    digest = hashlib.sha256()
    for arr in arrays:
        digest.update(np.ascontiguousarray(arr).tobytes())
    return digest.hexdigest()


def _truth_start(cfg: ExperimentConfig, model) -> np.ndarray:
    """Spin the reference state onto the attractor, deterministically per seed."""
    rng = make_rng(cfg.seed_truth)
    spinup = cfg.spinup_steps
    if spinup is None:
        spinup = 500 if cfg.model == "lorenz96" else 120
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
    dt = model.config.dt
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
        environment=run_environment(),
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
        **manifest.environment,
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
