"""The QG tendency's reused work arrays change no bits.

``reference_*`` below are the straightforward array expressions of the
padded stencils, the Arakawa Jacobian, the tendency and the RK4 step. The
model evaluates the same IEEE operations in the same order with reused
buffers and in-place accumulation, so every result must match bit for bit.
"""

import json
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest

import enkfkit
from enkfkit.models import QG33, QG65, QGConfig, QGModel
from enkfkit.models import qg
from enkfkit.rng import make_rng

# n != m and every coefficient large enough to move the last bits
SKEWED = QGConfig(n=13, m=9, lx=0.3, ly=0.7, rkb=1e-3, rkh=1e-4, rkh2=1e-8,
                  beta=2.0, rossby=1e-2, froude=30.0, dt=0.5)


def reference_pad(grid):
    shape = (grid.shape[0] + 2, grid.shape[1] + 2) + grid.shape[2:]
    padded = np.zeros(shape)
    padded[1:-1, 1:-1] = grid
    return padded


def reference_laplacian(padded, hx, hy):
    c = padded[1:-1, 1:-1]
    return (
        (padded[2:, 1:-1] - 2.0 * c + padded[:-2, 1:-1]) / (hx * hx)
        + (padded[1:-1, 2:] - 2.0 * c + padded[1:-1, :-2]) / (hy * hy)
    )


def reference_jacobian(f, g, hx, hy):
    fp = reference_pad(np.asarray(f, dtype=float))
    gp = reference_pad(np.asarray(g, dtype=float))
    j1 = (
        (fp[2:, 1:-1] - fp[:-2, 1:-1]) * (gp[1:-1, 2:] - gp[1:-1, :-2])
        - (fp[1:-1, 2:] - fp[1:-1, :-2]) * (gp[2:, 1:-1] - gp[:-2, 1:-1])
    )
    j2 = (
        fp[2:, 1:-1] * (gp[2:, 2:] - gp[2:, :-2])
        - fp[:-2, 1:-1] * (gp[:-2, 2:] - gp[:-2, :-2])
        - fp[1:-1, 2:] * (gp[2:, 2:] - gp[:-2, 2:])
        + fp[1:-1, :-2] * (gp[2:, :-2] - gp[:-2, :-2])
    )
    j3 = (
        fp[2:, 2:] * (gp[1:-1, 2:] - gp[2:, 1:-1])
        - fp[:-2, :-2] * (gp[:-2, 1:-1] - gp[1:-1, :-2])
        - fp[:-2, 2:] * (gp[1:-1, 2:] - gp[:-2, 1:-1])
        + fp[2:, :-2] * (gp[2:, 1:-1] - gp[1:-1, :-2])
    )
    return (j1 + j2 + j3) / (12.0 * hx * hy)


def reference_tendency(q, cfg):
    q = np.asarray(q, dtype=float)
    psi = qg.helmholtz_solve(q, cfg)
    nx, ny = cfg.interior_shape
    qg_ = q.reshape((nx, ny) + q.shape[1:])
    pg = psi.reshape((nx, ny) + q.shape[1:])
    zeta = qg_ + cfg.froude * pg
    jac = reference_jacobian(qg_, pg, cfg.hx, cfg.hy)
    ppad = reference_pad(pg)
    psi_x = (ppad[2:, 1:-1] - ppad[:-2, 1:-1]) / (2.0 * cfg.hx)
    lap_zeta = reference_laplacian(reference_pad(zeta), cfg.hx, cfg.hy)
    bilap_zeta = reference_laplacian(reference_pad(lap_zeta), cfg.hx, cfg.hy)
    y = np.arange(1, cfg.m - 1) * cfg.hy
    forcing = np.broadcast_to(np.sin(2.0 * np.pi * y)[None, :], (nx, ny))
    if q.ndim == 2:
        forcing = forcing[:, :, None]
    dq = (
        -cfg.rossby * jac
        - cfg.beta * psi_x
        - cfg.rkb * zeta
        + cfg.rkh * lap_zeta
        - cfg.rkh2 * bilap_zeta
        + forcing
    )
    return dq.reshape(q.shape)


def reference_rk4(q, cfg, dt=None):
    q = np.asarray(q, dtype=float)
    if dt is None:
        dt = cfg.dt
    k1 = reference_tendency(q, cfg)
    k2 = reference_tendency(q + 0.5 * dt * k1, cfg)
    k3 = reference_tendency(q + 0.5 * dt * k2, cfg)
    k4 = reference_tendency(q + dt * k3, cfg)
    return q + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def state(cfg, members, seed):
    # O(100) vorticity as after the qg33-short spin-up, where every term of
    # the tendency reaches the last bits of the sum
    shape = (cfg.nstate,) if members is None else (cfg.nstate, members)
    scale = 100.0 if cfg is QG33 else 3.0
    return scale * make_rng(seed).standard_normal(shape)


def spun_up(cfg, members, seed, steps=5):
    q = state(cfg, members, seed)
    for _ in range(steps):
        q = reference_rk4(q, cfg)
    return q


CASES = [(QG33, None), (QG33, 1), (QG33, 3), (QG33, 20), (QG65, 20),
         (SKEWED, None), (SKEWED, 4)]
IDS = ["qg33-single", "qg33-1", "qg33-3", "qg33-20", "qg65-20",
       "skewed-single", "skewed-4"]


class TestBitsPinned:
    @pytest.mark.parametrize("cfg,members", CASES, ids=IDS)
    def test_tendency(self, cfg, members):
        q = spun_up(cfg, members, 21)
        assert np.array_equal(qg.tendency(q, cfg), reference_tendency(q, cfg))

    @pytest.mark.parametrize("cfg,members", CASES, ids=IDS)
    @pytest.mark.parametrize("dt", [None, 0.7])
    def test_rk4_step(self, cfg, members, dt):
        q = spun_up(cfg, members, 22)
        assert np.array_equal(qg.rk4_step(q, cfg, dt),
                              reference_rk4(q, cfg, dt))

    def test_fortran_ordered_ensemble(self):
        q = np.asfortranarray(spun_up(QG33, 5, 23))
        assert np.array_equal(qg.rk4_step(q, QG33), reference_rk4(q, QG33))

    @pytest.mark.parametrize("members", [None, 3])
    def test_jacobian(self, members):
        rng = make_rng(24)
        shape = (11, 8) if members is None else (11, 8, members)
        f, g = rng.standard_normal(shape), rng.standard_normal(shape)
        assert np.array_equal(qg.arakawa_jacobian(f, g, 0.1, 0.2),
                              reference_jacobian(f, g, 0.1, 0.2))

    def test_jacobian_ring_including_inputs(self):
        # the fields padded with their zero ring, as the conservation check
        # passes them, and views into a larger array
        rng = make_rng(25)
        f = reference_pad(rng.standard_normal((12, 9)))
        g = reference_pad(rng.standard_normal((12, 9)))
        assert np.array_equal(qg.arakawa_jacobian(f, g, 0.1, 0.2),
                              reference_jacobian(f, g, 0.1, 0.2))
        big = rng.standard_normal((20, 20, 2))
        fv, gv = big[2:16, 1:12, 0], big[3:17, 5:16, 1]
        assert np.array_equal(qg.arakawa_jacobian(fv, gv, 0.1, 0.2),
                              reference_jacobian(fv, gv, 0.1, 0.2))

    def test_laplacian(self):
        padded = reference_pad(make_rng(26).standard_normal((9, 7, 2)))
        at = qg._Band(padded.shape)
        out = np.empty(at.size)
        qg._laplacian(at.shifts(padded.reshape(-1)), 0.3, 0.1, at(out))
        assert np.array_equal(at.interior(out),
                              reference_laplacian(padded, 0.3, 0.1))

    def test_model_steps(self):
        q0 = state(QG33, 4, 27)
        model = QGModel(QG33)
        q, ref = q0, q0
        for _ in range(10):
            q, ref = model.step(q), reference_rk4(ref, QG33)
        assert np.array_equal(q, ref)

    def test_truth_spin_up(self):
        # the truth's shape and length: one state, 120 steps from 1e-6 noise
        q = ref = 1e-6 * make_rng(28).standard_normal(QG33.nstate)
        model = QGModel(QG33)
        for _ in range(120):
            q, ref = model.step(q), reference_rk4(ref, QG33)
            assert np.array_equal(q, ref)


_FRESH = """
import json, sys
import numpy as np
from enkfkit.models import QG33, qg
from enkfkit.rng import make_rng
out = {}
for members in (None, 3, 20):
    shape = (QG33.nstate,) if members is None else (QG33.nstate, members)
    q = 100.0 * make_rng(31).standard_normal(shape)
    out[str(members)] = qg.rk4_step(q, QG33).tobytes().hex()
json.dump(out, sys.stdout)
"""


class TestScratchReuse:
    def test_alternating_shapes_match_fresh_process(self):
        src = os.path.dirname(os.path.dirname(enkfkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        fresh = json.loads(subprocess.run(
            [sys.executable, "-c", _FRESH], check=True, capture_output=True,
            text=True, env=env).stdout)
        # more shapes than a thread keeps, so sets are evicted and rebuilt
        others = [(state(SKEWED, None, 32), SKEWED),
                  (state(SKEWED, 2, 33), SKEWED), (state(QG33, 7, 34), QG33)]
        for _ in range(2):
            for members, (other, cfg) in zip((None, 3, 20), others):
                shape = (QG33.nstate,) if members is None \
                    else (QG33.nstate, members)
                q = 100.0 * make_rng(31).standard_normal(shape)
                got = qg.rk4_step(q, QG33)
                assert got.tobytes().hex() == fresh[str(members)]
                qg.rk4_step(other, cfg)

    @pytest.mark.parametrize("cfg,members",
                             [(QG33, 20), (SKEWED, 4), (QG33, None)])
    def test_consecutive_calls_on_one_set(self, cfg, members):
        # the band passes leave junk in the ring columns of the work arrays;
        # none of it may reach the next call, even from a far larger state
        loud, quiet = 1e5 * state(cfg, members, 44), spun_up(cfg, members, 45)
        shape = cfg.interior_shape + loud.shape[1:]
        want = [reference_tendency(q, cfg) for q in (loud, quiet)]
        scratch = qg._scratch(shape)
        for q, ref in zip((loud, quiet), want):
            assert np.array_equal(qg.tendency(q, cfg), ref)
        assert qg._scratch(shape) is scratch

    @pytest.mark.parametrize("members", [None, 20])
    def test_views_are_built_once_per_set(self, monkeypatch, members):
        q = state(QG33, members, 47)
        qg.tendency(q, QG33)  # makes this shape's set
        calls = []
        for name in ("__init__", "__call__"):
            def counting(*args, _name=name, _original=getattr(qg._Band, name),
                         **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(qg._Band, name, counting)
        qg.tendency(q, QG33)
        assert calls == []
        qg.helmholtz_apply(q, QG33)  # which builds a band: the counters count
        assert set(calls) == {"__init__", "__call__"}

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mmap threshold behaviour is glibc's")
    def test_repeated_steps_do_not_page_fault(self):
        # glibc serves allocations above its mmap threshold with fresh,
        # zero-filled pages; a repeated step must reuse its work arrays and
        # heap memory instead. A fresh process, since earlier tests raise
        # the threshold.
        script = """
import resource
from enkfkit.models import QG33, qg
from enkfkit.rng import make_rng
q = 100.0 * make_rng(46).standard_normal((QG33.nstate, 20))
for _ in range(3):
    qg.rk4_step(q, QG33)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    qg.rk4_step(q, QG33)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
        src = os.path.dirname(os.path.dirname(enkfkit.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) < 10

    def test_work_arrays_are_bounded(self):
        for n in range(7, 7 + 2 * qg._SCRATCH_SHAPES):
            qg.arakawa_jacobian(np.ones((n, 5)), np.ones((n, 5)), 0.1, 0.2)
        assert len(qg._local.sets) == qg._SCRATCH_SHAPES

    def test_returned_arrays_are_not_reused(self):
        q1, q2 = state(QG33, 3, 35), state(QG33, 3, 36)
        for fn in (qg.tendency, qg.rk4_step):
            first = fn(q1, QG33)
            kept = first.copy()
            fn(q2, QG33)
            assert np.array_equal(first, kept)
        f, g = q1.reshape(31, 31, 3), q2.reshape(31, 31, 3)
        jac = qg.arakawa_jacobian(f, g, 0.1, 0.2)
        kept = jac.copy()
        qg.arakawa_jacobian(g, f, 0.1, 0.2)
        assert np.array_equal(jac, kept)

    def test_inputs_are_not_modified(self):
        q = state(QG33, 3, 37)
        kept = q.copy()
        qg.rk4_step(q, QG33)
        assert np.array_equal(q, kept)
        f = q.reshape(31, 31, 3)
        qg.arakawa_jacobian(f, 2.0 * f, 0.1, 0.2)
        assert np.array_equal(q, kept)

    def test_jacobian_rejects_mismatched_fields(self):
        with pytest.raises(ValueError, match="shapes differ"):
            qg.arakawa_jacobian(np.ones((5, 4, 3)), np.ones((5, 4)), 0.1, 0.2)

    def test_threads_stepping_at_once_match_serial(self):
        ensembles = [state(QG33, 20, 40), state(QG33, 20, 41),
                     state(QG33, 3, 42)]

        def run(q):
            for _ in range(6):
                q = qg.rk4_step(q, QG33)
            return q

        serial = [run(q) for q in ensembles]
        results = [None] * len(ensembles)
        barrier = threading.Barrier(len(ensembles))

        def worker(i):
            barrier.wait(timeout=60)
            results[i] = run(ensembles[i])

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(len(ensembles))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads inside every step
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got, want in zip(results, serial):
            assert np.array_equal(got, want)


def test_layers_called_through_module_names(monkeypatch):
    # tracers wrap these module attributes; a step must go through them
    calls = []

    def counting(name):
        original = getattr(qg, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return wrapper

    for name in ("helmholtz_solve", "arakawa_jacobian", "tendency"):
        monkeypatch.setattr(qg, name, counting(name))
    q = state(QG33, 2, 43)
    out = qg.rk4_step(q, QG33)
    assert calls.count("tendency") == 4
    assert calls.count("helmholtz_solve") == 4
    assert calls.count("arakawa_jacobian") == 4
    monkeypatch.undo()
    assert np.array_equal(out, qg.rk4_step(q, QG33))
