import numpy as np
import pytest

from enkfkit.enkf import SelectionOperator
from enkfkit.errors import ConfigError
from enkfkit.experiment import ExperimentConfig
from enkfkit.models import Lorenz96, Lorenz96Config
from enkfkit.observations import (
    TruthTrajectory,
    build_initial_ensemble_lorenz,
    build_initial_ensemble_qg,
    build_selection_operator,
    propagate_truth,
    synthesize_observation,
)
from enkfkit.rng import make_rng


class TestSelectionBuilder:
    def test_full_observation_is_identity(self):
        h = build_selection_operator(40, 1.0)
        assert h.indices is None

    def test_qg33_half_coverage(self):
        # 961 components at 50 percent: 480 observed
        h = build_selection_operator(961, 0.5)
        assert h.nobs(961) == 480

    def test_qg33_table_sizes(self):
        assert build_selection_operator(961, 0.7).nobs(961) == 672
        assert build_selection_operator(961, 0.9).nobs(961) == 864

    def test_uniform_stride_example(self):
        h = build_selection_operator(10, 0.3)
        assert np.array_equal(h.indices, [0, 3, 6])

    def test_random_strategy_deterministic(self):
        a = build_selection_operator(50, 0.4, strategy="random", seed=5)
        b = build_selection_operator(50, 0.4, strategy="random", seed=5)
        assert np.array_equal(a.indices, b.indices)
        assert np.all(np.diff(a.indices) > 0)

    def test_random_needs_seed(self):
        with pytest.raises(ValueError):
            build_selection_operator(50, 0.4, strategy="random")

    def test_pobs_validation(self):
        with pytest.raises(ValueError):
            build_selection_operator(10, 0.0)
        with pytest.raises(ValueError):
            build_selection_operator(10, 1.5)

    def test_apply_then_adjoint_scatter(self):
        h = build_selection_operator(12, 0.5)
        x = np.arange(12.0)
        observed = h.apply(x)
        scattered = np.zeros(12)
        scattered[h.indices] = observed
        assert np.array_equal(scattered[h.indices], x[h.indices])
        mask = np.ones(12, bool)
        mask[h.indices] = False
        assert np.all(scattered[mask] == 0.0)


class TestSynthesize:
    def test_noiseless_limit(self):
        x = np.arange(6.0)
        h = SelectionOperator.from_indices([1, 4])
        y = synthesize_observation(x, h, np.zeros(2), make_rng(1))
        assert np.array_equal(y, x[[1, 4]])

    def test_determinism(self):
        x = np.arange(5.0)
        h = SelectionOperator.identity()
        r = np.full(5, 0.25)
        y1 = synthesize_observation(x, h, r, make_rng(9))
        y2 = synthesize_observation(x, h, r, make_rng(9))
        assert np.array_equal(y1, y2)

    def test_variance_audit(self):
        x = np.zeros(10_000)
        h = SelectionOperator.identity()
        r = np.full(10_000, 0.04)
        y = synthesize_observation(x, h, r, make_rng(10))
        assert abs(y.var() - 0.04) <= 0.004


class TestInitialEnsembles:
    def test_lorenz_zero_reference(self):
        ens = build_initial_ensemble_lorenz(np.zeros(8), 0.05, 5, make_rng(2))
        assert np.array_equal(ens, np.zeros((8, 5)))

    def test_lorenz_spread_scales_with_reference(self):
        x0 = np.full(4, 10.0)
        ens = build_initial_ensemble_lorenz(x0, 0.05, 20_000, make_rng(3))
        std = (ens - x0[:, None]).std(axis=1, ddof=1)
        assert np.all(np.abs(std - 0.5) <= 0.05)

    def test_lorenz_mean_clt(self):
        x0 = np.array([1.0, -2.0, 3.0])
        nens = 10_000
        ens = build_initial_ensemble_lorenz(x0, 0.05, nens, make_rng(4))
        sigma = 0.05 * np.abs(x0)
        gap = np.abs(ens.mean(axis=1) - x0)
        assert np.all(gap <= 4.0 * sigma / np.sqrt(nens))

    def test_qg_zero_reference_collapses(self):
        ens = build_initial_ensemble_qg(np.zeros(6), 5.0, 4, make_rng(5))
        assert np.array_equal(ens, np.zeros((6, 4)))

    @pytest.mark.parametrize("std_ens", [2.5, 5.0, 7.5])
    def test_qg_component_std(self, std_ens):
        rng = make_rng(6)
        x0 = rng.standard_normal(50) * 3.0
        c = np.abs(x0).mean()
        ens = build_initial_ensemble_qg(x0, std_ens, 10_000, make_rng(7))
        std = (ens - x0[:, None]).std(axis=1, ddof=1)
        assert np.all(np.abs(std - std_ens * c) <= 0.1 * std_ens * c)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            build_initial_ensemble_lorenz(np.ones(4), 0.0, 3, make_rng(1))
        with pytest.raises(ValueError):
            build_initial_ensemble_qg(np.ones(4), -2.0, 3, make_rng(1))


class TestTruth:
    def test_propagation_records_all_times(self):
        model = Lorenz96(Lorenz96Config(nstate=8, dt=0.05))
        x0 = 8.0 + make_rng(8).standard_normal(8)
        times = [0.0, 0.25, 0.5, 1.0]
        truth = propagate_truth(model, x0, times)
        assert truth.states.shape == (8, 4)
        assert np.array_equal(truth.state_at(0), x0)
        expected = model.advance(x0, 0.0, 0.25)
        assert np.abs(truth.state_at(1) - expected).max() == 0.0

    def test_times_must_increase(self):
        with pytest.raises(ValueError):
            TruthTrajectory(times=[0.0, 0.0], states=np.zeros((3, 2)))


class TestObservationConfig:
    @pytest.mark.parametrize("setting", [{"pobs": 0.0}, {"pobs": 1.5},
                                         {"obs_variance": 0.0}],
                             ids=["pobs=0.0", "pobs=1.5", "obs_variance=0.0"])
    def test_rejected(self, setting):
        with pytest.raises(ConfigError):
            ExperimentConfig(**setting)
