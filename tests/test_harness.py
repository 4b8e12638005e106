import csv
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from enkfkit import experiment
from enkfkit.cli import main
from enkfkit.errors import ConfigError, SingularUpdateError
from enkfkit.experiment import (
    ExperimentConfig,
    emit_csv,
    load_config,
    run_experiment,
)
from enkfkit.scaling import emit_scaling_csv, run_scaling_study
from enkfkit.solvers import solve_analysis


def tiny_config(**overrides):
    params = dict(
        name="tiny",
        model="lorenz96",
        solvers=("sherman", "cholesky", "svd"),
        steps=6,
        analysis_interval=2,
        nstate=12,
        nens=6,
        obs_variance=1.0,
        seed_truth=1,
        seed_ensemble=2,
        seed_observations=3,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


class TestConfig:
    def test_presets_load(self):
        for name in ("lorenz-small", "lorenz-500", "qg33-short"):
            cfg = load_config(name)
            assert cfg.name == name

    def test_missing_config(self):
        with pytest.raises(ConfigError):
            load_config("no-such-preset")

    def test_bad_solver(self):
        with pytest.raises(ConfigError):
            tiny_config(solvers=("sherman", "qr"))

    def test_steps_multiple_of_interval(self):
        with pytest.raises(ConfigError):
            tiny_config(steps=7, analysis_interval=2)

    def test_localization_needs_lorenz_layout(self):
        with pytest.raises(ConfigError):
            tiny_config(model="qg33", localization=True)

    def test_custom_model_needs_grid(self):
        with pytest.raises(ConfigError):
            tiny_config(model="custom")

    def test_custom_grid_roundtrip(self, tmp_path):
        path = tmp_path / "custom.ini"
        path.write_text(
            "[experiment]\nname = custom-qg\nmodel = custom\n"
            "solvers = sherman\nsteps = 0\nanalysis_interval = 1\n"
            "[model]\nn = 9\nm = 9\nlx = 1.0\nly = 1.0\nrkb = 0\nrkh = 0\n"
            "rkh2 = 0\nbeta = 0\nrossby = 0\nfroude = 100\n"
        )
        cfg = load_config(str(path))
        model = cfg.build_model()
        assert model.config.nstate == 49

    def test_seed_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nname = x\n[seeds]\ntruth = 5\n")
        monkeypatch.setenv("ENKFKIT_SEED_TRUTH", "99")
        cfg = load_config(str(path))
        assert cfg.seed_truth == 99

    def test_cli_override_beats_file(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nname = x\nsteps = 40\n")
        cfg = load_config(str(path), {"steps": 60})
        assert cfg.steps == 60

    def test_workers_only_as_one(self, tmp_path):
        # the benchmark's twin configs still pass workers=1; any other
        # count, or the retired INI key, is an error
        assert load_config("qg33-short", {"workers": 1}).workers == 1
        with pytest.raises(ConfigError):
            load_config("qg33-short", {"workers": 2})
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nname = x\nworkers = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nname = x\n[mystery]\nkey = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        # a misspelled key must not silently leave its default in place;
        # grid keys count only when [model] defines the custom grid's n
        path = tmp_path / "c.ini"
        path.write_text("[experiment]\nname = x\nstesp = 40\n"
                        "[model]\nm = 9\n[ensemble]\nnen = 40\n")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == (
            "unknown config keys: "
            "['[ensemble] nen', '[experiment] stesp', '[model] m']")

    def test_each_ini_key_sets_its_field(self, tmp_path, monkeypatch):
        # every key, set alone, moves exactly its own field off the default
        for env in experiment._SEED_ENV.values():
            monkeypatch.delenv(env, raising=False)
        keys = {
            ("experiment", "name", "x"): ("name", "x"),
            ("experiment", "model", "qg33"): ("model", "qg33"),
            ("experiment", "solvers", "svd, free"): ("solvers", ("svd", "free")),
            ("experiment", "steps", "50"): ("steps", 50),
            ("experiment", "analysis_interval", "5"): ("analysis_interval", 5),
            ("experiment", "output_dir", "elsewhere"): ("output_dir", "elsewhere"),
            ("model", "nstate", "12"): ("nstate", 12),
            ("model", "forcing", "10.0"): ("forcing", 10.0),
            ("model", "dt", "0.01"): ("dt", 0.01),
            ("model", "spinup_steps", "7"): ("spinup_steps", 7),
            ("model", "noise_std", "0.1"): ("model_noise_std", 0.1),
            ("ensemble", "nens", "4"): ("nens", 4),
            ("ensemble", "inflation", "1.1"): ("inflation", 1.1),
            ("ensemble", "localization", "on"): ("localization", True),
            ("ensemble", "localization_scale", "3.0"): ("localization_scale", 3.0),
            ("ensemble", "init_spread_pct", "0.1"): ("init_spread_pct", 0.1),
            ("ensemble", "std_ens", "2.0"): ("std_ens", 2.0),
            ("observations", "pobs", "0.5"): ("pobs", 0.5),
            ("observations", "variance", "0.5"): ("obs_variance", 0.5),
            ("observations", "strategy", "random"): ("obs_strategy", "random"),
            ("seeds", "truth", "11"): ("seed_truth", 11),
            ("seeds", "ensemble", "12"): ("seed_ensemble", 12),
            ("seeds", "observations", "13"): ("seed_observations", 13),
        }
        default = ExperimentConfig()
        names = [f.name for f in dataclasses.fields(ExperimentConfig)]
        assert {name for name, _ in keys.values()} == \
            set(names) - {"workers", "qg_grid"}
        for (section, key, raw), (name, value) in keys.items():
            path = tmp_path / "c.ini"
            path.write_text(f"[{section}]\n{key} = {raw}\n")
            cfg = load_config(str(path))
            changed = [n for n in names if getattr(cfg, n) != getattr(default, n)]
            assert changed == [name], (section, key)
            assert getattr(cfg, name) == value, (section, key)

    def test_readme_example_loads(self, tmp_path):
        # the documented example is a file the reader accepts
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        path = tmp_path / "demo.ini"
        path.write_text(section.split("```ini\n", 1)[1].split("```", 1)[0])
        cfg = load_config(str(path))
        assert cfg.name == "demo" and cfg.localization_scale == 8.0

    def test_manifest_ignores_seed_env(self, tmp_path, monkeypatch):
        # a rerun from manifest.json must reproduce the run it records
        cfg = tiny_config()
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"config": cfg.echo()}))
        for env in experiment._SEED_ENV.values():
            monkeypatch.setenv(env, "99")
        assert load_config(str(path)) == cfg

    def test_every_field_echoed(self):
        cfg = tiny_config()
        echo = cfg.echo()
        for field in ("model", "solvers", "steps", "nens", "pobs",
                      "seed_truth", "seed_ensemble", "seed_observations",
                      "inflation", "localization", "obs_variance"):
            assert field in echo


class TestRunExperiment:
    def test_zero_steps_gives_initial_error_only(self):
        manifest = run_experiment(tiny_config(steps=0))
        assert manifest.cycles == 0
        assert manifest.initial_rse > 0.0
        for run in manifest.runs:
            assert run.series.rows == []
            assert run.rmse_analysis == manifest.initial_rse

    def test_solver_equivalence_end_to_end(self):
        manifest = run_experiment(tiny_config(nstate=40, nens=10, steps=10,
                                              analysis_interval=2))
        rmses = [run.rmse_analysis for run in manifest.runs]
        assert len(rmses) == 3
        spread = max(rmses) - min(rmses)
        assert spread <= 1e-6 * max(rmses)

    def test_replication_hashes_stable(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config())
        assert a.hashes == b.hashes
        for run_a, run_b in zip(a.runs, b.runs):
            assert run_a.series.analysis_rse_values() == \
                run_b.series.analysis_rse_values()

    def test_seed_changes_move_hashes(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(seed_truth=123))
        assert a.hashes["truth"] != b.hashes["truth"]

    def test_free_run_records_forecast_error(self):
        manifest = run_experiment(tiny_config(solvers=("free",)))
        for row in manifest.runs[0].series.rows:
            assert row.rse_analysis == row.rse_forecast
        assert manifest.runs[0].elapsed["analysis_s"] == 0.0

    def test_assimilation_beats_free_run(self):
        cfg = tiny_config(solvers=("sherman", "free"), steps=40,
                          analysis_interval=2, obs_variance=0.01)
        manifest = run_experiment(cfg)
        assimilated = manifest.run_for("sherman").rmse_analysis
        free = manifest.run_for("free").rmse_analysis
        assert assimilated < free

    def test_model_noise_off_by_default(self):
        a = run_experiment(tiny_config())
        b = run_experiment(tiny_config(model_noise_std=0.0))
        assert a.runs[0].series.analysis_rse_values() == \
            b.runs[0].series.analysis_rse_values()

    def test_model_noise_changes_results_deterministically(self):
        base = run_experiment(tiny_config())
        noisy1 = run_experiment(tiny_config(model_noise_std=0.5))
        noisy2 = run_experiment(tiny_config(model_noise_std=0.5))
        assert noisy1.runs[0].series.analysis_rse_values() == \
            noisy2.runs[0].series.analysis_rse_values()
        assert noisy1.runs[0].series.analysis_rse_values() != \
            base.runs[0].series.analysis_rse_values()

    def test_model_noise_replicated_across_solvers(self):
        # with noise on, the solvers still see identical forecast errors
        # at the first cycle (same pre-drawn realizations)
        m = run_experiment(tiny_config(model_noise_std=0.5))
        first = {run.solver: run.series.rows[0].rse_forecast
                 for run in m.runs}
        assert len(set(first.values())) == 1

    def test_qg_errors_measured_on_stream_function(self):
        from enkfkit.metrics import rse
        from enkfkit.observations import build_initial_ensemble_qg
        from enkfkit.rng import make_rng

        cfg = ExperimentConfig(
            name="qg-rse", model="qg33", solvers=("sherman",), steps=0,
            analysis_interval=1, nens=4, std_ens=5.0, spinup_steps=30,
            seed_truth=9, seed_ensemble=10, seed_observations=11)
        manifest = run_experiment(cfg)

        # rebuild the truth start and initial ensemble independently
        model = cfg.build_model()
        q = 1e-6 * make_rng(9).standard_normal(model.config.nstate)
        for _ in range(30):
            q = model.step(q)
        ens = build_initial_ensemble_qg(q, 5.0, 4, make_rng(10))
        expected = rse(model.stream_function(q),
                       model.stream_function(ens.mean(axis=1)))
        assert manifest.initial_rse == expected

    def test_qg65_end_to_end_smoke(self):
        cfg = ExperimentConfig(name="qg65-smoke", model="qg65",
                               solvers=("sherman",), steps=10,
                               analysis_interval=5, nens=4, pobs=0.5,
                               obs_variance=1.0, std_ens=2.5, spinup_steps=20,
                               seed_truth=1, seed_ensemble=2,
                               seed_observations=3)
        manifest = run_experiment(cfg)
        assert manifest.nobs == 1984
        assert np.isfinite(manifest.runs[0].rmse_analysis)

    def test_qg65_and_qg129_supported_by_config(self):
        from enkfkit.observations import build_selection_operator

        for name, nstate, half in (("qg65", 3969, 1984), ("qg129", 16129, 8064)):
            cfg = ExperimentConfig(name=name, model=name, solvers=("sherman",),
                                   steps=0, analysis_interval=1, nens=4,
                                   pobs=0.5, spinup_steps=0)
            model = cfg.build_model()
            assert model.config.nstate == nstate
            h = build_selection_operator(nstate, 0.5)
            assert h.nobs(nstate) == half
            state = model.step(1e-6 * np.ones(nstate))
            assert state.shape == (nstate,)


class TestEmitCsv:
    def test_header_only_for_empty_series(self, tmp_path):
        manifest = run_experiment(tiny_config(steps=0, solvers=("sherman",)))
        emit_csv(manifest, tmp_path)
        lines = (tmp_path / "metrics.csv").read_text().splitlines()
        assert lines == ["cycle,time,solver,rse_forecast,rse_analysis"]

    def test_row_count_arithmetic(self, tmp_path):
        manifest = run_experiment(
            tiny_config(solvers=("sherman", "cholesky"), steps=6,
                        analysis_interval=2))
        emit_csv(manifest, tmp_path)
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6  # two solvers x three cycles

    def test_round_trip_exact(self, tmp_path):
        manifest = run_experiment(tiny_config(solvers=("sherman",)))
        emit_csv(manifest, tmp_path)
        with open(tmp_path / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        series = manifest.runs[0].series
        for row, rec in zip(rows, series.rows):
            assert int(row["cycle"]) == rec.cycle
            assert float(row["time"]) == rec.time
            assert float(row["rse_forecast"]) == rec.rse_forecast
            assert float(row["rse_analysis"]) == rec.rse_analysis

    def test_manifest_json_contents(self, tmp_path):
        manifest = run_experiment(tiny_config(solvers=("sherman",)))
        emit_csv(manifest, tmp_path)
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert payload["config"]["nens"] == 6
        assert payload["config"]["seed_truth"] == 1
        assert set(payload["hashes"]) == {"truth", "initial_ensemble",
                                          "observations"}
        assert "sherman" in payload["solvers"]
        assert payload["time_labels"] == {"days_per_time_unit": 5.0}

    def test_curve_files_written(self, tmp_path):
        manifest = run_experiment(tiny_config(solvers=("sherman", "svd")))
        written = emit_csv(manifest, tmp_path)
        names = {p.name for p in written}
        assert "curve_analysis_sherman.dat" in names
        assert "curve_forecast_svd.dat" in names

    def test_metrics_bytes_deterministic(self, tmp_path):
        cfg = tiny_config()
        emit_csv(run_experiment(cfg), tmp_path / "a")
        emit_csv(run_experiment(cfg), tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b

    def test_rerun_from_manifest_reproduces_metrics(self, tmp_path):
        cfg = tiny_config()
        emit_csv(run_experiment(cfg), tmp_path / "a")
        replay_cfg = load_config(str(tmp_path / "a" / "manifest.json"))
        emit_csv(run_experiment(replay_cfg), tmp_path / "b")
        a = (tmp_path / "a" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "metrics.csv").read_bytes()
        assert a == b


class TestScaling:
    def test_needs_three_points(self):
        with pytest.raises(ConfigError):
            run_scaling_study(["sherman"], "nobs", [100, 200], fixed=4)

    def test_values_must_increase(self):
        with pytest.raises(ConfigError):
            run_scaling_study(["sherman"], "nobs", [100, 100, 200], fixed=4)

    def test_bad_axis(self):
        with pytest.raises(ConfigError):
            run_scaling_study(["sherman"], "nstate", [1, 2, 3], fixed=4)

    def test_small_sweep_produces_rows_and_slopes(self, tmp_path):
        study = run_scaling_study(["sherman", "cholesky"], "nobs",
                                  [50, 100, 200], fixed=4, repeats=1)
        assert len(study.rows) == 6
        assert set(study.slopes) == {"sherman", "cholesky"}
        path = emit_scaling_csv(study, tmp_path)
        assert path.read_text().startswith("solver,nobs,nens,seconds")

    def test_nens_sweep(self):
        study = run_scaling_study(["sherman"], "nens", [2, 4, 8],
                                  fixed=64, repeats=1)
        assert all(row.nobs == 64 for row in study.rows)


class TestCli:
    def test_run_and_outputs(self, tmp_path):
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(
            "[experiment]\nname = tiny\nmodel = lorenz96\n"
            "solvers = sherman\nsteps = 4\nanalysis_interval = 2\n"
            "[model]\nnstate = 12\nspinup_steps = 50\n"
            "[ensemble]\nnens = 4\n[observations]\nvariance = 1.0\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "metrics.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()

    def test_config_error_exit_code(self, tmp_path, monkeypatch, capsys):
        # every bad value is rejected before the truth spin-up, not by the
        # model or the ensemble builder halfway through the run
        def no_spinup(*args):
            raise AssertionError("spin-up started")

        monkeypatch.setattr(experiment, "_truth_start", no_spinup)
        cases = [
            ("lorenz96", "solvers = qr"),
            ("lorenz96", "[observations]\nstrategy = diagonal"),
            ("lorenz96", "[model]\nnstate = 3"),
            ("lorenz96", "[model]\ndt = -0.05"),
            ("lorenz96", "[ensemble]\ninit_spread_pct = 0"),
            ("qg33", "[ensemble]\nstd_ens = 0"),
            ("lorenz96", "[model]\ndt = nan"),
            ("lorenz96", "[model]\nforcing = nan"),
            ("lorenz96", "[ensemble]\nlocalization = on\nlocalization_scale = nan"),
            ("lorenz96", "[observations]\nvariance = inf"),
            ("lorenz96", "[ensemble]\ninflation = nan"),
            ("lorenz96", "[model]\nnoise_std = nan"),
            ("lorenz96", "[model]\nspinup_steps = -5"),
            ("lorenz96", "[seeds]\ntruth = -1"),
            ("qg33", "[model]\nn = 9\nm = 9"),
            ("custom", "[model]\nn = 9\nm = 9\nlx = nan\nly = 1\nrkb = 0\nrkh = 0\n"
                       "rkh2 = 0\nbeta = 0\nrossby = 0\nfroude = 100"),
        ]
        for model, bad in cases:
            cfg = tmp_path / "bad.ini"
            cfg.write_text(f"[experiment]\nname = bad\nmodel = {model}\n{bad}\n")
            assert main(["run", "--config", str(cfg)]) == 2, bad
            assert "configuration error" in capsys.readouterr().err, bad

        good = tmp_path / "good.ini"
        good.write_text("[experiment]\nname = good\n")
        for env in ("ENKFKIT_SEED_TRUTH", "ENKFKIT_SEED_OBS"):
            with monkeypatch.context() as patched:
                patched.setenv(env, "-1")
                assert main(["run", "--config", str(good)]) == 2, env
            assert "configuration error" in capsys.readouterr().err, env
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["run", "--config", str(good), "--out", str(taken)]) == 2
        assert "configuration error" in capsys.readouterr().err

        # a manifest's JSON types are held to the INI casts of its fields
        echo = ExperimentConfig(name="bad").echo()
        grid = dict(n=9, m=9, lx=1.0, ly=1.0, rkb=0.0, rkh=0.0, rkh2=0.0,
                    beta="1", rossby=0.0)
        for bad in ({"forcing": "8"}, {"forcing": None}, {"nens": 4.5},
                    {"nens": True}, {"localization": "no"}, {"solvers": 5},
                    {"model": "custom", "qg_grid": grid}):
            manifest = tmp_path / "manifest.json"
            manifest.write_text(json.dumps({"config": {**echo, **bad}}))
            assert main(["run", "--config", str(manifest)]) == 2, bad
            assert "configuration error" in capsys.readouterr().err, bad

    def test_numerical_failure_exit_code(self, tmp_path, monkeypatch, capsys):
        calls = []

        def failing_step(x, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise SingularUpdateError(3, 0.0)
            return x

        monkeypatch.setattr(experiment, "analysis_step", failing_step)
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(
            "[experiment]\nname = tiny\nmodel = lorenz96\n"
            "solvers = sherman\nsteps = 6\nanalysis_interval = 2\n"
            "[model]\nnstate = 12\nspinup_steps = 5\n[ensemble]\nnens = 4\n"
        )
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "solver 'sherman'" in err and "cycle 2" in err

    @pytest.mark.parametrize("solver", ["sherman", "cholesky", "svd"])
    def test_overflowed_solve_exit_code(self, solver, tmp_path, monkeypatch,
                                        capsys):
        # each solver's own overflow error reaches the exit code
        def overflowing_step(x, *args, **kwargs):
            v = 1e200 * np.array([[1.0], [1.0], [0.0]])
            with np.errstate(over="ignore"):
                solve_analysis(solver, 1e-300 * np.ones(3), v, np.ones((3, 1)))
            return x

        monkeypatch.setattr(experiment, "analysis_step", overflowing_step)
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(
            "[experiment]\nname = tiny\nmodel = lorenz96\n"
            f"solvers = {solver}\nsteps = 4\nanalysis_interval = 2\n"
            "[model]\nnstate = 12\nspinup_steps = 5\n[ensemble]\nnens = 4\n"
        )
        assert main(["run", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"solver {solver!r}" in err and "overflowed" in err

    def test_missing_config_exit_code(self):
        assert main(["run", "--config", "definitely-not-a-preset"]) == 2

    def test_scale_bad_sweep_exit_code(self, tmp_path):
        assert main(["scale", "--config", "lorenz-small",
                     "--sweep", "nobs=10"]) == 2

    @pytest.mark.parametrize("sweep", ["nobs=-3,1,2", "nobs=0,1,2",
                                       "nens=0,2,4"])
    def test_scale_nonpositive_sweep_exit_code(self, sweep, capsys):
        # rejected as configuration, not by numpy or BLAS mid-study
        assert main(["scale", "--config", "lorenz-small", "--sweep", sweep,
                     "--repeats", "1"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_scale_unusable_out_exit_code(self, tmp_path, monkeypatch,
                                          capsys):
        # rejected before the study, not by the CSV writer after it
        def no_study(*args, **kwargs):
            raise AssertionError("study started")

        monkeypatch.setattr("enkfkit.cli.run_scaling_study", no_study)
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["scale", "--config", "lorenz-small",
                     "--sweep", "nobs=10,20,40", "--repeats", "1",
                     "--out", str(taken)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_scale_small_sweep(self, tmp_path):
        out = tmp_path / "scale"
        code = main(["scale", "--config", "lorenz-small",
                     "--sweep", "nobs=50,100,200", "--fixed", "4",
                     "--repeats", "1", "--out", str(out)])
        assert code == 0
        assert (out / "scaling.csv").exists()

    def test_verify_subcommand_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") >= 8 and "FAIL" not in out
