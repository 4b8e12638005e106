import numpy as np
import pytest

from enkfkit.errors import DivergenceError
from enkfkit.models import (
    QG33,
    QG65,
    QG129,
    Lorenz96,
    Lorenz96Config,
    QGConfig,
    QGModel,
    helmholtz_apply,
    helmholtz_solve,
)
from enkfkit.models import lorenz96
from enkfkit.models import qg
from enkfkit.rng import make_rng


def small_qg(n=17, froude=50.0, **overrides):
    params = dict(n=n, m=n, lx=1.0, ly=1.0, rkb=0.0, rkh=0.0, rkh2=0.0,
                  beta=0.0, rossby=0.0, froude=froude)
    params.update(overrides)
    return QGConfig(**params)


class TestLorenzTendency:
    def test_constant_forcing_fixed_point(self):
        x = np.full(10, 8.0)
        assert np.abs(lorenz96.tendency(x, 8.0)).max() == 0.0

    def test_origin_fixed_point_without_forcing(self):
        assert np.abs(lorenz96.tendency(np.zeros(6), 0.0)).max() == 0.0

    def test_scripted_stencil(self):
        # hand-evaluated cyclic stencil for x = (1..5), F = 8
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        expected = np.empty(5)
        for i in range(5):
            expected[i] = (x[(i + 1) % 5] - x[(i - 2) % 5]) * x[(i - 1) % 5] - x[i] + 8.0
        assert np.array_equal(lorenz96.tendency(x, 8.0), expected)

    def test_too_short_rejected(self):
        with pytest.raises(ValueError):
            lorenz96.tendency(np.ones(3), 8.0)


class TestLorenzStep:
    def test_fixed_point_preserved(self):
        x = np.full(12, 8.0)
        assert np.abs(lorenz96.rk4_step(x, 0.05, 8.0) - x).max() == 0.0

    def test_zero_dt_is_identity(self):
        rng = make_rng(1)
        x = 8.0 + rng.standard_normal(12)
        assert np.array_equal(lorenz96.rk4_step(x, 0.0, 8.0), x)

    def test_richardson_halving(self):
        # one-step error against a tiny-dt reference drops ~16x (order 4)
        rng = make_rng(2)
        x = 8.0 + 0.1 * rng.standard_normal(16)
        ref = x.copy()
        for _ in range(1000):
            ref = lorenz96.rk4_step(ref, 0.04 / 1000, 8.0)
        err_full = np.abs(lorenz96.rk4_step(x, 0.04, 8.0) - ref).max()
        half = lorenz96.rk4_step(lorenz96.rk4_step(x, 0.02, 8.0), 0.02, 8.0)
        err_half = np.abs(half - ref).max()
        assert 10.0 <= err_full / err_half <= 22.0

    def test_divergence_names_member(self):
        model = Lorenz96(Lorenz96Config(nstate=8, dt=0.05))
        x = np.full((8, 3), 8.0)
        x[:, 1] = np.linspace(1e200, 2e200, 8)  # quadratic term overflows
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DivergenceError) as info:
                model.step(x)
        assert info.value.member == 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            Lorenz96Config(nstate=3)
        with pytest.raises(ValueError):
            Lorenz96Config(nstate=8, dt=0.0)

    def test_window_must_align(self):
        model = Lorenz96(Lorenz96Config(nstate=8, dt=0.05))
        with pytest.raises(ValueError):
            model.advance(np.ones(8), 0.0, 0.07)


def reference_lorenz_tendency(x, forcing):
    return ((np.roll(x, -1, axis=0) - np.roll(x, 2, axis=0))
            * np.roll(x, 1, axis=0) - x + forcing)


def reference_lorenz_rk4(x, dt, forcing):
    k1 = reference_lorenz_tendency(x, forcing)
    k2 = reference_lorenz_tendency(x + 0.5 * dt * k1, forcing)
    k3 = reference_lorenz_tendency(x + 0.5 * dt * k2, forcing)
    k4 = reference_lorenz_tendency(x + dt * k3, forcing)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


class TestLorenzBits:
    # the step sums in place with a reused stage buffer; the plain np.roll
    # and RK4 expressions above must give the same bits
    @pytest.mark.parametrize("dt", [0.0, 0.05])
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(40,), (40, 20), (500, 200)],
                             ids=["40", "40x20", "500x200"])
    def test_rk4_step(self, shape, order, dt):
        x = np.asarray(8.0 + 3.0 * make_rng(5).standard_normal(shape),
                       order=order)
        kept = x.copy()
        assert np.array_equal(lorenz96.rk4_step(x, dt, 8.0),
                              reference_lorenz_rk4(x, dt, 8.0))
        assert np.array_equal(x, kept)

    def test_advance_is_plain_steps(self):
        model = Lorenz96(Lorenz96Config(nstate=40, dt=0.05))
        x = 8.0 + 3.0 * make_rng(6).standard_normal((40, 20))
        want = x
        for _ in range(5):
            want = reference_lorenz_rk4(want, 0.05, 8.0)
        assert np.array_equal(model.advance(x, 1.0, 1.25), want)


class TestQGConfig:
    def test_preset_state_sizes(self):
        assert QG33.nstate == 961
        assert QG65.nstate == 3969
        assert QG129.nstate == 16129

    def test_grid_spacing(self):
        assert QG33.hx == pytest.approx(0.4 / 32)
        assert QG65.hy == pytest.approx(1.0 / 64)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_qg(n=4)
        with pytest.raises(ValueError):
            small_qg(rkb=-1.0)


class TestHelmholtz:
    def test_zero_source(self):
        cfg = small_qg()
        psi = helmholtz_solve(np.zeros(cfg.nstate), cfg)
        assert np.abs(psi).max() == 0.0

    def test_linearity(self):
        cfg = small_qg()
        rng = make_rng(3)
        q1 = rng.standard_normal(cfg.nstate)
        q2 = rng.standard_normal(cfg.nstate)
        lhs = helmholtz_solve(q1 + q2, cfg)
        rhs = helmholtz_solve(q1, cfg) + helmholtz_solve(q2, cfg)
        assert np.abs(lhs - rhs).max() <= 1e-10 * np.abs(rhs).max()

    def test_solve_inverts_apply(self):
        cfg = small_qg()
        rng = make_rng(4)
        q = rng.standard_normal(cfg.nstate)
        residual = helmholtz_apply(helmholtz_solve(q, cfg), cfg) - q
        assert np.abs(residual).max() <= 1e-10 * np.abs(q).max()

    def test_operator_symmetry(self):
        cfg = small_qg()
        rng = make_rng(5)
        u = rng.standard_normal(cfg.nstate)
        w = rng.standard_normal(cfg.nstate)
        au_w = helmholtz_apply(u, cfg) @ w
        u_aw = u @ helmholtz_apply(w, cfg)
        assert abs(au_w - u_aw) <= 1e-12 * max(abs(au_w), 1.0)

    def test_batch_solve_matches_columns(self):
        cfg = small_qg()
        rng = make_rng(6)
        q = rng.standard_normal((cfg.nstate, 3))
        batch = helmholtz_solve(q, cfg)
        for j in range(3):
            single = helmholtz_solve(q[:, j], cfg)
            assert np.array_equal(batch[:, j], single)


class TestQGTendency:
    def test_zero_state_gives_pure_forcing(self):
        cfg = small_qg(rkb=1e-6, rkh=1e-7, rkh2=2e-12, beta=1.0, rossby=1e-5)
        out = qg.tendency(np.zeros(cfg.nstate), cfg)
        ys = np.arange(1, cfg.m - 1) * cfg.hy
        expected = np.broadcast_to(np.sin(2 * np.pi * ys)[None, :],
                                   cfg.interior_shape).reshape(-1)
        assert np.array_equal(out, expected)

    def test_forcing_only_config(self):
        cfg = small_qg()  # frictions, beta, rossby all zero
        rng = make_rng(9)
        q = rng.standard_normal(cfg.nstate)
        out = qg.tendency(q, cfg)
        ys = np.arange(1, cfg.m - 1) * cfg.hy
        expected = np.broadcast_to(np.sin(2 * np.pi * ys)[None, :],
                                   cfg.interior_shape).reshape(-1)
        assert np.abs(out - expected).max() <= 1e-14

    def test_batch_matches_columns(self):
        cfg = small_qg(rkb=1e-6, rkh=1e-7, rkh2=2e-12, beta=1.0, rossby=1e-5)
        rng = make_rng(10)
        q = rng.standard_normal((cfg.nstate, 4))
        batch = qg.tendency(q, cfg)
        for j in range(4):  # column-wise SuperLU solves match bit for bit
            assert np.array_equal(batch[:, j], qg.tendency(q[:, j], cfg))


class TestQGStep:
    def test_zero_dt_identity(self):
        cfg = small_qg()
        rng = make_rng(11)
        q = rng.standard_normal(cfg.nstate)
        assert np.array_equal(qg.rk4_step(q, cfg, dt=0.0), q)

    def test_linear_growth_integrated_exactly(self):
        # with only the forcing active, q(t) = q0 + t sin(2 pi y); constant
        # right-hand sides are integrated exactly by the stepper
        cfg = small_qg()
        rng = make_rng(12)
        q0 = rng.standard_normal(cfg.nstate)
        ys = np.arange(1, cfg.m - 1) * cfg.hy
        forcing = np.broadcast_to(np.sin(2 * np.pi * ys)[None, :],
                                  cfg.interior_shape).reshape(-1)
        model = QGModel(cfg)
        q = q0.copy()
        for _ in range(7):
            q = model.step(q)
        expected = q0 + 7.0 * cfg.dt * forcing
        assert np.abs(q - expected).max() <= 1e-10 * max(1.0, np.abs(expected).max())

    def test_qg33_hundred_steps_stay_bounded(self):
        model = QGModel(QG33)
        q = 1e-6 * make_rng(13).standard_normal(QG33.nstate)
        for _ in range(100):
            q = model.step(q)
        assert np.all(np.isfinite(q))
        assert np.abs(q).max() < 1e6

    def test_blowup_detection_names_member(self):
        cfg = small_qg()
        model = QGModel(cfg)
        q = np.zeros((cfg.nstate, 3))
        q[:, 2] = 2e6  # beyond the divergence threshold
        with pytest.raises(DivergenceError) as info:
            model.step(q)
        assert info.value.member == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_blowup_detection_names_nonfinite_member(self, bad):
        # the one-pass bound check relies on max propagating NaN
        cfg = small_qg()
        model = QGModel(cfg)
        q = np.zeros((cfg.nstate, 3))
        q[5, 1] = bad
        with pytest.raises(DivergenceError) as info, \
                np.errstate(invalid="ignore", over="ignore"):
            model.step(q)
        assert info.value.member == 1

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 2e6])
    def test_blowup_detection_single_state(self, bad):
        cfg = small_qg()
        q = np.zeros(cfg.nstate)
        q[7] = bad
        with pytest.raises(DivergenceError), \
                np.errstate(invalid="ignore", over="ignore"):
            QGModel(cfg).step(q)
