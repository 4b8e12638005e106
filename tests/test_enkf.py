import numpy as np
import pytest

from enkfkit.enkf import (
    ObservationBatch,
    SelectionOperator,
    analysis_step,
    ensemble_mean,
    forecast_step,
    inflate,
    influence_matrix_cyclic,
    innovations,
    member_deviations,
    perturb_observations,
)
from enkfkit.rng import gaussian_matrix, make_rng
from enkfkit.sherman import solve_sherman


def make_obs(y, eps):
    return ObservationBatch(y=y, perturbed=y[:, None] + eps, perturbations=eps)


class TestEnsembleStats:
    def test_mean_of_identical_columns(self):
        c = np.array([1.0, -2.0, 3.0])
        x = np.tile(c[:, None], (1, 5))
        assert np.array_equal(ensemble_mean(x), c)

    def test_mean_of_two_members(self):
        x = np.array([[0.0, 2.0]])
        assert np.array_equal(ensemble_mean(x), [1.0])

    def test_mean_matches_loop(self):
        rng = make_rng(1)
        x = rng.standard_normal((10, 5))
        expected = np.array([sum(x[i, j] for j in range(5)) / 5 for i in range(10)])
        assert np.abs(ensemble_mean(x) - expected).max() <= 1e-15

    def test_deviations_zero_for_identical_columns(self):
        x = np.tile(np.arange(4.0)[:, None], (1, 3))
        assert np.array_equal(member_deviations(x), np.zeros((4, 3)))

    def test_deviations_two_members(self):
        x = np.array([[0.0, 2.0]])
        assert np.array_equal(member_deviations(x), [[-1.0, 1.0]])

    def test_deviations_give_sample_covariance(self):
        rng = make_rng(2)
        x = rng.standard_normal((8, 4))
        s = member_deviations(x)
        cov = np.cov(x)  # unbiased covariance oracle
        assert np.abs(s @ s.T - cov).max() <= 1e-12

    def test_deviation_rows_sum_to_zero(self):
        rng = make_rng(3)
        x = rng.standard_normal((6, 9))
        s = member_deviations(x)
        assert np.abs(s.sum(axis=1)).max() <= 1e-10 * 9 * np.abs(s).max()

    def test_single_member_rejected(self):
        with pytest.raises(ValueError):
            member_deviations(np.ones((3, 1)))


class TestPerturbObservations:
    def test_zero_variance_copies(self):
        y = np.array([1.0, 2.0])
        batch = perturb_observations(y, np.zeros(2), 4, make_rng(1))
        assert np.array_equal(batch.perturbed, np.tile(y[:, None], (1, 4)))

    def test_sample_variance(self):
        batch = perturb_observations(np.zeros(5), np.ones(5), 10_000, make_rng(2))
        var = batch.perturbations.var(axis=1, ddof=1)
        assert np.all(np.abs(var - 1.0) <= 0.1)

    def test_determinism(self):
        y = np.arange(3.0)
        r = np.full(3, 0.5)
        a = perturb_observations(y, r, 6, make_rng(7))
        b = perturb_observations(y, r, 6, make_rng(7))
        assert np.array_equal(a.perturbed, b.perturbed)

    def test_consistency_identity(self):
        batch = perturb_observations(np.arange(4.0), np.ones(4), 8, make_rng(3))
        assert np.array_equal(batch.perturbed,
                              batch.y[:, None] + batch.perturbations)

    def test_innovation_mean_converges(self):
        # mean over members of D approaches y - H(xbar) at 1/sqrt(nens)
        rng = make_rng(4)
        nobs, nens = 20, 10_000
        y = rng.standard_normal(nobs)
        x = rng.standard_normal((nobs, 3))
        xbar_col = x.mean(axis=1, keepdims=True)
        x_rep = np.tile(xbar_col, (1, nens))
        batch = perturb_observations(y, np.ones(nobs), nens, make_rng(5))
        d = innovations(batch, SelectionOperator.identity(), x_rep)
        gap = np.abs(d.mean(axis=1) - (y - xbar_col[:, 0]))
        assert gap.max() <= 3.0 / np.sqrt(nens) * 1.5


class TestInnovations:
    def test_zero_when_observed_equals_perturbed(self):
        x = np.arange(12.0).reshape(4, 3)
        h = SelectionOperator.from_indices([1, 3])
        batch = ObservationBatch(y=x[[1, 3], 0],
                                 perturbed=x[[1, 3]],
                                 perturbations=np.zeros((2, 3)))
        assert np.array_equal(innovations(batch, h, x), np.zeros((2, 3)))

    def test_identity_single_member(self):
        y = np.array([2.0, 1.0])
        eps = np.array([[0.5], [-0.5]])
        x = np.array([[1.0], [1.0]])
        d = innovations(make_obs(y, eps), SelectionOperator.identity(), x)
        assert np.array_equal(d, y[:, None] + eps - x)

    def test_matches_elementwise_loop(self):
        rng = make_rng(6)
        x = rng.standard_normal((7, 4))
        idx = np.array([0, 2, 5])
        h = SelectionOperator.from_indices(idx)
        y = rng.standard_normal(3)
        eps = rng.standard_normal((3, 4))
        d = innovations(make_obs(y, eps), h, x)
        for j, row in enumerate(idx):
            for m in range(4):
                assert d[j, m] == y[j] + eps[j, m] - x[row, m]

    def test_out_of_range_index(self):
        h = SelectionOperator.from_indices([0, 9])
        with pytest.raises(IndexError):
            h.apply(np.zeros((4, 2)))


class TestInflate:
    def test_identity_factor(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(inflate(x, 1.0), x)

    def test_two_member_algebra(self):
        x = np.array([[0.0, 2.0]])
        assert np.array_equal(inflate(x, 2.0), [[-1.0, 3.0]])

    def test_mean_preserved_and_covariance_scaled(self):
        rng = make_rng(7)
        x = rng.standard_normal((6, 12))
        alpha = 1.3
        out = inflate(x, alpha)
        assert np.abs(out.mean(axis=1) - x.mean(axis=1)).max() <= 1e-13
        ratio = np.cov(out) / np.cov(x)
        assert np.abs(ratio - alpha ** 2).max() <= 1e-10

    def test_deflation_rejected(self):
        with pytest.raises(ValueError):
            inflate(np.ones((2, 3)), 0.9)


class TestInfluenceMatrix:
    def test_observed_index_has_unit_influence(self):
        h = SelectionOperator.from_indices([0, 5])
        delta = influence_matrix_cyclic(10, h)
        assert delta[0, 0] == 1.0
        assert delta[5, 1] == 1.0

    def test_direct_evaluation(self):
        h = SelectionOperator.from_indices([5])
        delta = influence_matrix_cyclic(10, h)
        assert abs(delta[0, 0] - np.exp(-0.5)) <= 1e-12

    def test_cyclic_wraparound(self):
        h = SelectionOperator.from_indices([9])
        delta = influence_matrix_cyclic(10, h)
        # state 0 is one site away from state 9 around the ring
        assert abs(delta[0, 0] - np.exp(-0.1)) <= 1e-12

    def test_values_in_unit_interval(self):
        delta = influence_matrix_cyclic(17, SelectionOperator.identity())
        assert delta.min() > 0.0 and delta.max() <= 1.0

    def test_custom_scale(self):
        h = SelectionOperator.from_indices([5])
        delta = influence_matrix_cyclic(10, h, scale=2.0)
        assert abs(delta[0, 0] - np.exp(-2.5)) <= 1e-12

    def test_bad_scale(self):
        with pytest.raises(ValueError):
            influence_matrix_cyclic(10, SelectionOperator.identity(), scale=0.0)


@pytest.mark.parametrize("call", [
    lambda: inflate(np.ones((2, 3)), np.nan),
    lambda: influence_matrix_cyclic(10, SelectionOperator.identity(),
                                    scale=np.nan),
    lambda: gaussian_matrix(make_rng(1), 2, 3, std=np.nan),
    lambda: perturb_observations(np.zeros(2), np.array([1.0, -1.0]), 3,
                                 make_rng(1)),
], ids=["inflate", "influence_scale", "gaussian_std", "negative_variance"])
def test_range_guards_reject_nan(call):
    # a NaN fails every comparison, so each guard asks for the good range,
    # and raises before numpy can warn about the bad value
    with pytest.raises(ValueError):
        call()


class TestAnalysisStep:
    def _instance(self, seed, nstate=10, nens=4, nobs=6):
        rng = make_rng(seed)
        x = rng.standard_normal((nstate, nens))
        idx = np.sort(rng.choice(nstate, size=nobs, replace=False))
        h = SelectionOperator.from_indices(idx)
        r = rng.uniform(0.2, 1.0, nobs)
        y = rng.standard_normal(nobs)
        eps = rng.standard_normal((nobs, nens)) * 0.2
        return x, h, r, make_obs(y, eps), idx

    def test_uninformative_observations(self):
        x, h, r, obs, _ = self._instance(1)
        xa = analysis_step(x, obs, h, np.full(r.shape, 1e12), "sherman")
        assert np.abs(xa - x).max() <= 1e-6 * np.abs(x).max()

    def test_zero_spread_is_identity(self):
        x = np.tile(np.arange(6.0)[:, None], (1, 4))
        h = SelectionOperator.from_indices([1, 4])
        obs = make_obs(np.array([5.0, -2.0]), np.zeros((2, 4)))
        xa = analysis_step(x, obs, h, np.ones(2), "sherman")
        assert np.array_equal(xa, x)

    def test_solver_interchangeability(self):
        x, h, r, obs, _ = self._instance(3, nstate=30, nens=8, nobs=20)
        outs = [analysis_step(x, obs, h, r, s)
                for s in ("sherman", "cholesky", "svd")]
        scale = np.abs(outs[0]).max()
        assert np.abs(outs[0] - outs[1]).max() <= 1e-8 * scale
        assert np.abs(outs[0] - outs[2]).max() <= 1e-8 * scale

    def test_localized_matches_componentwise_formula(self):
        x, h, r, obs, idx = self._instance(4, nstate=9, nens=4, nobs=5)
        rng = make_rng(44)
        delta = rng.uniform(0.0, 1.0, (9, 5))
        xa = analysis_step(x, obs, h, r, "sherman", localization=delta)
        s = member_deviations(x)
        v = h.apply(s)
        d = obs.perturbed - h.apply(x)
        z = solve_sherman(r, v, d).z
        expected = x.copy()
        for i in range(9):
            for m in range(4):
                acc = 0.0
                for k in range(4):
                    inner = sum(delta[i, j] * v[j, k] * z[j, m] for j in range(5))
                    acc += s[i, k] * inner
                expected[i, m] += acc
        assert np.abs(xa - expected).max() <= 1e-12 * max(1.0, np.abs(expected).max())

    def test_unit_influence_equals_unlocalized(self):
        # same correction up to product-association rounding
        x, h, r, obs, _ = self._instance(5)
        ones = np.ones((10, 6))
        plain = analysis_step(x, obs, h, r, "sherman")
        localized = analysis_step(x, obs, h, r, "sherman", localization=ones)
        assert np.abs(plain - localized).max() <= 1e-13 * max(1.0, np.abs(plain).max())

    def test_wrong_influence_shape(self):
        x, h, r, obs, _ = self._instance(6)
        with pytest.raises(ValueError):
            analysis_step(x, obs, h, r, "sherman", localization=np.ones((3, 3)))


class _ConstantModel:
    def advance(self, x, t0, t1):
        return x


class TestForecastStep:
    def test_zero_length_window(self):
        x = np.ones((4, 2))
        out = forecast_step(_ConstantModel(), x, 1.0, 1.0)
        assert np.array_equal(out, x)

    def test_constant_dynamics(self):
        x = np.arange(8.0).reshape(4, 2)
        out = forecast_step(_ConstantModel(), x, 0.0, 5.0)
        assert np.array_equal(out, x)

    def test_reversed_window_rejected(self):
        with pytest.raises(ValueError):
            forecast_step(_ConstantModel(), np.ones((2, 2)), 1.0, 0.0)

    def test_lorenz_one_window_matches_duplicate_integrator(self):
        from enkfkit.models import Lorenz96, Lorenz96Config

        model = Lorenz96(Lorenz96Config(nstate=8, forcing=8.0, dt=0.05))
        rng = make_rng(9)
        x = 8.0 + rng.standard_normal((8, 3))

        def oracle_rk4(state, dt, forcing, steps):
            # independently written stepper with explicit index arithmetic
            state = state.copy()
            n = state.shape[0]
            def f(u):
                out = np.empty_like(u)
                for i in range(n):
                    out[i] = (u[(i + 1) % n] - u[(i - 2) % n]) * u[(i - 1) % n] - u[i] + forcing
                return out
            for _ in range(steps):
                k1 = f(state)
                k2 = f(state + dt / 2 * k1)
                k3 = f(state + dt / 2 * k2)
                k4 = f(state + dt * k3)
                state = state + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            return state

        out = forecast_step(model, x, 0.0, 0.25)
        for m in range(3):
            expected = oracle_rk4(x[:, m], 0.05, 8.0, 5)
            assert np.abs(out[:, m] - expected).max() <= 1e-12


class TestSelectionOperator:
    def test_identity(self):
        h = SelectionOperator.identity()
        x = np.arange(5.0)
        assert h.apply(x) is x
        assert h.nobs(5) == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            SelectionOperator.from_indices([3, 1])
        with pytest.raises(ValueError):
            SelectionOperator.from_indices([2, 2])
        with pytest.raises(ValueError):
            SelectionOperator.from_indices([-1, 2])
        with pytest.raises(ValueError):
            SelectionOperator.from_indices([])
