"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test prints a PASS line with its measured runtime so the suite can be
read as a checklist (`pytest -v -s tests/test_acceptance.py`). Criteria
1-4 and 9 run the oracle checks of `enkfkit.verify`, whose tolerances are
fixed there, at the instance counts and seeds pinned here; the other
tolerances and all runtime budgets are fixed here. Nothing is deferred to
calibration.
"""

import time

import numpy as np

from enkfkit import verify
from enkfkit.experiment import ExperimentConfig, emit_csv, load_config, run_experiment
from enkfkit.rng import make_rng
from enkfkit.scaling import run_scaling_study
from enkfkit.sherman import solve_sherman
from enkfkit.threads import blas_threads, set_blas_threads


def _report(label: str, started: float, limit_s: float):
    elapsed = time.perf_counter() - started
    print(f"PASS  {label}  ({elapsed:.1f}s, limit {limit_s:.0f}s)")
    assert elapsed < limit_s, f"{label} exceeded its {limit_s}s budget"


def test_criterion_1_solver_agreement():
    """100 random systems: Cholesky within 1e-9 and SVD within 1e-8 of
    Sherman, relative to the largest entry of Z."""
    started = time.perf_counter()
    assert verify.check_solver_agreement(instances=100, seed=0xA1)
    _report("criterion 1: solver agreement on 100 random systems", started, 60)


def test_criterion_2_recursive_oracle():
    """Literal recursion equals the iterative sweep to 1e-12 on 50 systems;
    repeated-subproblem count."""
    started = time.perf_counter()
    assert verify.check_recursive_oracle(instances=50, seed=0xA2)
    _report("criterion 2: recursive oracle equivalence and call count",
            started, 10)


def test_criterion_3_kalman_gain_oracle():
    """Analysis step equals the dense explicit-gain update to 1e-9 on 20
    instances."""
    started = time.perf_counter()
    assert verify.check_kalman_oracle(instances=20, seed=0xA3)
    _report("criterion 3: dense Kalman-gain oracle on 20 instances",
            started, 10)


def test_criterion_4_op_count_audit():
    """Instrumented sweep reports exactly 3 (Nens^2 Nobs + Nens Nobs)."""
    started = time.perf_counter()
    assert len(verify.OP_COUNT_PAIRS) == 10
    assert verify.check_op_count(seed=0xA4)
    _report("criterion 4: operation-count audit on 10 size pairs", started, 10)


def test_criterion_5_parallel_determinism():
    """The sweep agrees with itself at 1 and 2 BLAS threads to 1e-12 on a
    2000x32 system."""
    started = time.perf_counter()
    rng = make_rng(0xA5)
    nobs, nens = 2000, 32
    r = rng.uniform(0.5, 2.0, nobs)
    v = rng.standard_normal((nobs, nens))
    d = rng.standard_normal((nobs, nens))
    budget = blas_threads()
    try:
        set_blas_threads(1)
        serial = solve_sherman(r, v, d).z
        set_blas_threads(2)
        assert set(blas_threads().values()) == {2}
        assert np.abs(serial - solve_sherman(r, v, d).z).max() <= 1e-12
    finally:
        set_blas_threads(budget)
    _report("criterion 5: BLAS-budget independence at 2000x32", started, 30)


def test_criterion_6_scaling_trend():
    """Analysis-time slope vs Nobs: near-linear sweep, superquadratic dense."""
    started = time.perf_counter()
    study = run_scaling_study(["sherman", "cholesky"], "nobs",
                              [1000, 2000, 4000, 8000], fixed=16, repeats=2)
    sherman_slope = study.slopes["sherman"]
    cholesky_slope = study.slopes["cholesky"]
    print(f"      slopes: sherman {sherman_slope:.2f}, "
          f"cholesky {cholesky_slope:.2f}")
    assert 0.8 <= sherman_slope <= 1.2
    assert cholesky_slope >= 1.8
    _report("criterion 6: timing slopes over Nobs in [1000, 8000]",
            started, 600)


def _quality_config(nens, seed, solver="sherman"):
    return ExperimentConfig(
        name="quality",
        model="lorenz96",
        solvers=(solver,),
        steps=200,
        analysis_interval=2,
        nstate=40,
        dt=0.05,
        nens=nens,
        inflation=1.05 if solver != "free" else 1.0,
        localization=solver != "free",
        localization_scale=8.0,
        pobs=1.0,
        obs_variance=1.0,
        seed_truth=seed,
        seed_ensemble=seed + 1,
        seed_observations=seed + 2,
    )


def _final_quarter_mean(values):
    n = max(1, len(values) // 4)
    return float(np.mean(values[-n:]))


def test_criterion_7_lorenz_assimilation_quality():
    """Larger ensembles help, and assimilation beats the free run 5x."""
    started = time.perf_counter()
    seeds = [101, 202, 303, 404, 505]
    tails = {nens: [] for nens in (10, 20, 40)}
    free_tails = []
    for seed in seeds:
        for nens in (10, 20, 40):
            run = run_experiment(_quality_config(nens, seed)).runs[0]
            tails[nens].append(
                _final_quarter_mean(run.series.analysis_rse_values()))
        free = run_experiment(_quality_config(20, seed, solver="free")).runs[0]
        free_tails.append(
            _final_quarter_mean(free.series.analysis_rse_values()))

    means = {nens: float(np.mean(v)) for nens, v in tails.items()}
    free_mean = float(np.mean(free_tails))
    print(f"      final-quarter RMSE: " +
          ", ".join(f"N={n}: {m:.3f}" for n, m in means.items()) +
          f"; free run {free_mean:.3f}")
    assert means[20] <= 1.05 * means[10]
    assert means[40] <= 1.05 * means[20]
    for mean in means.values():
        assert 5.0 * mean <= free_mean
    _report("criterion 7: ensemble-size quality trend on 40 variables",
            started, 300)


def test_criterion_8_qg33_end_to_end():
    """The short ocean preset completes and all solvers agree to 1e-6."""
    started = time.perf_counter()
    cfg = load_config("qg33-short")
    assert cfg.steps == 120 and cfg.steps // cfg.analysis_interval == 12
    assert cfg.nens == 20 and cfg.std_ens == 5.0
    manifest = run_experiment(cfg)
    assert manifest.nobs == 480
    rmses = {run.solver: run.rmse_analysis for run in manifest.runs}
    assert set(rmses) == {"sherman", "cholesky", "svd"}
    reference = rmses["sherman"]
    for solver, value in rmses.items():
        assert np.isfinite(value)
        assert abs(value - reference) <= 1e-6 * reference, solver
    _report("criterion 8: QG33 short run, cross-solver agreement", started, 600)


def test_criterion_9_model_verification():
    """Elliptic solver order, Jacobian conservation, stepper order."""
    started = time.perf_counter()
    assert verify.check_helmholtz()
    assert verify.check_arakawa(seed=0xA9)
    assert verify.check_lorenz_rk4_order()
    _report("criterion 9: model verification", started, 60)


def test_criterion_10_reproducibility(tmp_path):
    """Identical seeds give byte-identical metrics for a shipped preset."""
    started = time.perf_counter()
    cfg = load_config("lorenz-small")
    emit_csv(run_experiment(cfg), tmp_path / "first")
    emit_csv(run_experiment(cfg), tmp_path / "second")
    first = (tmp_path / "first" / "metrics.csv").read_bytes()
    second = (tmp_path / "second" / "metrics.csv").read_bytes()
    assert first == second
    assert len(first.splitlines()) > 1
    _report("criterion 10: bitwise-reproducible preset metrics", started, 600)
