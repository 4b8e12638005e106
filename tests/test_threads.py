import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import enkfkit
from enkfkit import threads
from enkfkit.experiment import ExperimentConfig, emit_csv, load_config, run_experiment

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _budget_after_import(**variables) -> dict:
    """blas_threads() as a fresh interpreter sees it after importing enkfkit."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(enkfkit.__file__).parents[1]), env.get("PYTHONPATH", "")])
    env.update(variables)
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, enkfkit; print(json.dumps(enkfkit.blas_threads()))"],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _assert_both_copies(counts: dict, n: int):
    assert {name.split("/")[0] for name in counts} == {"numpy.libs", "scipy.libs"}
    assert set(counts.values()) == {n}


def test_import_sets_one_thread_without_variables():
    _assert_both_copies(_budget_after_import(), 1)


def test_variable_overrides_the_budget():
    _assert_both_copies(_budget_after_import(OPENBLAS_NUM_THREADS="2"), 2)


def test_missing_setter_warns_and_goes_on(monkeypatch):
    monkeypatch.setattr(threads, "_SETTERS", ("no_such_symbol",))
    with pytest.warns(RuntimeWarning, match="set_num_threads"):
        threads.set_blas_threads(1)


def test_plain_openblas_names_are_read(monkeypatch):
    # OpenBLAS wheels before scipy-openblas (numpy < 2.0, scipy < 1.13)
    # export the unprefixed names
    lib = SimpleNamespace(openblas_get_num_threads64_=lambda: 3)
    monkeypatch.setattr(threads, "_libraries", lambda: (("numpy.libs/libopenblas64_.so", lib),))
    assert threads.blas_threads() == {"numpy.libs/libopenblas64_.so": 3}


def test_no_openblas_loaded_warns(monkeypatch):
    class Unreadable:
        def __init__(self, path):
            pass

        def read_text(self):
            raise OSError

    monkeypatch.setattr(threads, "Path", Unreadable)
    with pytest.warns(RuntimeWarning, match="no OpenBLAS"):
        assert threads._libraries.__wrapped__() == ()


def test_manifest_records_budget_and_reloads(tmp_path):
    cfg = ExperimentConfig(name="tiny", model="lorenz96", solvers=("sherman",),
                           steps=4, analysis_interval=2, nstate=12, nens=6)
    emit_csv(run_experiment(cfg), tmp_path)
    payload = json.loads((tmp_path / "manifest.json").read_text())
    assert payload["blas_threads"] == threads.blas_threads()
    assert payload["blas_threads"]
    assert load_config(str(tmp_path / "manifest.json")) == cfg
