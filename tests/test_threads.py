import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy

import enkfkit
from enkfkit import solvers, threads
from enkfkit.experiment import (ExperimentConfig, emit_csv, load_config, run_environment,
                                run_experiment)
from enkfkit.linalg import cholesky_factor

THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _fresh_env(**variables) -> dict:
    """This environment without thread variables, with this enkfkit on the
    path and ``variables`` set, for a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(enkfkit.__file__).parents[1]), env.get("PYTHONPATH", "")])
    env.update(variables)
    return env


def _budget_after_import(**variables) -> dict:
    """blas_threads() as a fresh interpreter sees it after importing enkfkit."""
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, enkfkit; print(json.dumps(enkfkit.blas_threads()))"],
        env=_fresh_env(**variables), capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _assert_both_copies(counts: dict, numpy_n: int, scipy_n: int):
    assert {name.split("/")[0]: n for name, n in counts.items()} == {
        "numpy.libs": numpy_n, "scipy.libs": scipy_n}


def test_import_sets_one_thread_without_variables():
    _assert_both_copies(_budget_after_import(), 1, 1)


def test_variable_overrides_the_budget():
    _assert_both_copies(_budget_after_import(OPENBLAS_NUM_THREADS="2"), 2, 2)


def _fake_copies(monkeypatch, *names, cpus=6):
    """Mocked OpenBLAS copies, each at one thread, and ``cpus`` allowed CPUs;
    returns the copies' counts by name."""
    counts = dict.fromkeys(names, 1)

    def lib(name):
        return SimpleNamespace(
            openblas_set_num_threads=lambda n: counts.__setitem__(name, n),
            openblas_get_num_threads=lambda: counts[name])

    monkeypatch.setattr(threads, "_libraries",
                        lambda: tuple((name, lib(name)) for name in names))
    monkeypatch.setattr(threads, "allowed_cpus", lambda: cpus)
    monkeypatch.setattr(threads, "_SET_BY_ENVIRONMENT", False)
    return counts


@pytest.mark.parametrize("names, raised", [
    (("numpy.libs/libscipy_openblas64_.so", "scipy.libs/libscipy_openblas.so"),
     {"numpy.libs/libscipy_openblas64_.so": 1, "scipy.libs/libscipy_openblas.so": 2}),
    # a system build loads one OpenBLAS that numpy and scipy share
    (("x86_64-linux-gnu/libopenblas.so.0",), {"x86_64-linux-gnu/libopenblas.so.0": 2}),
])
def test_large_factorization_raises_all_but_numpys_copy(monkeypatch, names, raised):
    counts = _fake_copies(monkeypatch, *names)
    with threads.factorization_threads(threads.PARALLEL_ORDER - 1):
        assert set(counts.values()) == {1}
    with threads.factorization_threads(threads.PARALLEL_ORDER):
        assert counts == raised
    assert set(counts.values()) == {1}
    with pytest.raises(ZeroDivisionError):
        with threads.factorization_threads(threads.PARALLEL_ORDER):
            1 / 0
    assert set(counts.values()) == {1}


def test_overlapping_factorizations_restore_once(monkeypatch):
    counts = _fake_copies(monkeypatch, "scipy.libs/libscipy_openblas.so")
    first = threads.factorization_threads(threads.PARALLEL_ORDER)
    second = threads.factorization_threads(threads.PARALLEL_ORDER)
    first.__enter__()
    second.__enter__()
    first.__exit__(None, None, None)
    assert counts == {"scipy.libs/libscipy_openblas.so": 2}
    second.__exit__(None, None, None)
    assert counts == {"scipy.libs/libscipy_openblas.so": 1}


def test_factorizations_in_many_threads(monkeypatch):
    counts = _fake_copies(monkeypatch, "scipy.libs/libscipy_openblas.so")
    seen = set()

    def solve():
        for _ in range(200):
            with threads.factorization_threads(threads.PARALLEL_ORDER):
                seen.add(counts["scipy.libs/libscipy_openblas.so"])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve) for _ in range(8)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
            assert not w.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert seen == {2}
    assert counts == {"scipy.libs/libscipy_openblas.so": 1}


def test_large_factorization_never_lowers_a_count(monkeypatch):
    counts = _fake_copies(monkeypatch, "scipy.libs/libscipy_openblas.so")
    threads.set_blas_threads(5)
    with threads.factorization_threads(threads.PARALLEL_ORDER):
        assert counts == {"scipy.libs/libscipy_openblas.so": 5}
    assert counts == {"scipy.libs/libscipy_openblas.so": 5}


@pytest.mark.parametrize("cpus, variable", [(1, False), (6, True)])
def test_one_cpu_or_a_variable_keeps_the_budget(monkeypatch, cpus, variable):
    counts = _fake_copies(monkeypatch, "scipy.libs/libscipy_openblas.so", cpus=cpus)
    monkeypatch.setattr(threads, "_SET_BY_ENVIRONMENT", variable)
    with threads.factorization_threads(10 * threads.PARALLEL_ORDER):
        assert counts == {"scipy.libs/libscipy_openblas.so": 1}


@pytest.mark.parametrize("nobs", [threads.PARALLEL_ORDER - 1, threads.PARALLEL_ORDER])
def test_solve_cholesky_threads_follow_nobs(monkeypatch, nobs):
    monkeypatch.setattr(threads, "allowed_cpus", lambda: 4)
    monkeypatch.setattr(threads, "_SET_BY_ENVIRONMENT", False)
    seen = []

    def factor(*args, **kwargs):
        seen.append(threads.blas_threads())
        return cholesky_factor(*args, **kwargs)

    monkeypatch.setattr(solvers, "cholesky_factor", factor)
    before = threads.blas_threads()
    rng = np.random.default_rng(1)
    solvers.solve_cholesky(np.ones(nobs), rng.standard_normal((nobs, 3)),
                           rng.standard_normal((nobs, 3)))
    want = {name: c if name.startswith("numpy.libs/") or nobs < threads.PARALLEL_ORDER
            else max(2, c) for name, c in before.items()}
    assert seen == [want]
    assert threads.blas_threads() == before


def test_allowed_cpus_without_affinity_or_under_a_quota(monkeypatch, tmp_path):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    cpu_max = tmp_path / "cpu.max"
    monkeypatch.setattr(threads, "_CPU_MAX", cpu_max)
    assert threads.allowed_cpus() == 8          # no cgroup file
    assert run_environment()["allowed_cpus"] == 8
    cpu_max.write_text("max 100000\n")
    assert threads.allowed_cpus() == 8
    cpu_max.write_text("250000 100000\n")
    assert threads.allowed_cpus() == 2
    cpu_max.write_text("50000 100000\n")
    assert threads.allowed_cpus() == 1


def test_budget_round_trip():
    before = threads.blas_threads()
    with pytest.raises(ValueError):
        threads.set_blas_threads({name: 0 for name in before})
    assert threads.blas_threads() == before
    try:
        threads.set_blas_threads(2)
        assert set(threads.blas_threads().values()) == {2}
    finally:
        threads.set_blas_threads(before)
    assert threads.blas_threads() == before


def test_missing_setter_warns_and_goes_on(monkeypatch):
    monkeypatch.setattr(threads, "_SETTERS", ("no_such_symbol",))
    with pytest.warns(RuntimeWarning, match="set_num_threads"):
        threads.set_blas_threads(1)


@pytest.mark.parametrize("n", [0, -3])
def test_nonpositive_count_rejected(n):
    # OpenBLAS would read these as "every CPU"
    before = threads.blas_threads()
    with pytest.raises(ValueError):
        threads.set_blas_threads(n)
    assert threads.blas_threads() == before


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
    assert payload["allowed_cpus"] == threads.allowed_cpus()
    assert (payload["numpy_version"], payload["scipy_version"]) == (
        np.__version__, scipy.__version__)
    assert load_config(str(tmp_path / "manifest.json")) == cfg


def _metrics(path: Path) -> dict:
    """(cycle, time, solver) -> (rse_forecast, rse_analysis) of a metrics.csv."""
    rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
    return {tuple(row[:3]): tuple(map(float, row[3:])) for row in rows}


def test_default_budget_gives_one_thread_bytes_on_lorenz_small(tmp_path):
    # the bytes of metrics.csv hold for the same library build and the
    # same per-copy thread counts: the default budget runs lorenz-small's
    # solves at one thread per copy, as OPENBLAS_NUM_THREADS=1 does
    for name, env in [("default", _fresh_env()),
                      ("one", _fresh_env(OPENBLAS_NUM_THREADS="1"))]:
        subprocess.run([sys.executable, "-m", "enkfkit.cli", "run", "--config",
                        "lorenz-small", "--out", str(tmp_path / name)],
                       env=env, capture_output=True, check=True)
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        assert set(manifest["blas_threads"].values()) == {1}
    assert ((tmp_path / "default" / "metrics.csv").read_bytes()
            == (tmp_path / "one" / "metrics.csv").read_bytes())


def test_two_thread_drift_on_qg33_short(tmp_path):
    # the reproducibility contract holds per thread budget; across 1 and 2
    # threads only the rounding may move
    subprocess.run([sys.executable, "-m", "enkfkit.cli", "run", "--config",
                    "qg33-short", "--out", str(tmp_path / "two")],
                   env=_fresh_env(OPENBLAS_NUM_THREADS="2"),
                   capture_output=True, check=True)
    saved = threads.blas_threads()
    threads.set_blas_threads(1)
    try:
        emit_csv(run_experiment(load_config("qg33-short")), tmp_path / "one")
    finally:
        threads.set_blas_threads(saved)
    manifest = json.loads((tmp_path / "two" / "manifest.json").read_text())
    assert manifest["blas_threads"]
    assert set(manifest["blas_threads"].values()) == {2}
    one = _metrics(tmp_path / "one" / "metrics.csv")
    two = _metrics(tmp_path / "two" / "metrics.csv")
    assert one.keys() == two.keys() and len(one) == 36
    drift = max(abs(b - a) / abs(a) for key in one
                for a, b in zip(one[key], two[key]))
    print(f"      largest 1- vs 2-thread drift: {drift:.2e} relative")
    assert drift <= 1e-8
