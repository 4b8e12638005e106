import numpy as np
import pytest

from enkfkit.errors import SingularUpdateError
from enkfkit.rng import make_rng
from enkfkit.sherman import _sweep, _sweep_reference, long_op_count, solve_sherman
from enkfkit.verify import solve_sherman_recursive


def random_system(seed, nobs, nens, r_lo=0.5, r_hi=2.0):
    rng = make_rng(seed)
    r = rng.uniform(r_lo, r_hi, nobs)
    v = rng.standard_normal((nobs, nens))
    d = rng.standard_normal((nobs, nens))
    return r, v, d


def dense_solve(r, v, d):
    # independent oracle: assemble the full matrix and use Gaussian elimination
    return np.linalg.solve(np.diag(r) + v @ v.T, d)


class TestSolveSherman:
    def test_zero_v_is_diagonal_solve(self):
        r = np.array([2.0, 2.0])
        z = solve_sherman(r, np.zeros((2, 1)), np.array([[4.0], [6.0]])).z
        assert np.array_equal(z, [[2.0], [3.0]])

    def test_scalar_rank_one(self):
        # 1x1 system: (1 + 1*1) z = 1
        z = solve_sherman(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]])).z
        assert np.allclose(z, [[0.5]], atol=1e-15)

    def test_against_dense_solve(self):
        r, v, d = random_system(31, 5, 3)
        z = solve_sherman(r, v, d).z
        assert np.abs(z - dense_solve(r, v, d)).max() <= 1e-11

    @pytest.mark.parametrize("nobs,nens", [(50, 2), (200, 16), (2000, 128)])
    def test_residual_bound(self, nobs, nens):
        r, v, d = random_system(40 + nens, nobs, nens)
        z = solve_sherman(r, v, d).z
        residual = np.abs(r[:, None] * z + v @ (v.T @ z) - d).max()
        v_norm = np.abs(v).sum(axis=1).max()
        bound = 1e-10 * (np.abs(d).max() + v_norm ** 2 * np.abs(z).max())
        assert residual <= bound

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            solve_sherman(np.array([1.0, 1.0]), np.ones((3, 2)), np.ones((3, 2)))
        with pytest.raises(ValueError):
            solve_sherman(np.array([1.0, -1.0]), np.ones((2, 2)), np.ones((2, 2)))
        with pytest.raises(ValueError):
            solve_sherman(np.array([1.0, 1.0]), np.ones((2, 2)), np.ones((2, 3)))
        bad = np.ones((2, 2))
        bad[0, 0] = np.inf
        with pytest.raises(ValueError):
            solve_sherman(np.array([1.0, 1.0]), bad, np.ones((2, 2)))

    def test_singular_update_guard(self):
        # valid data keeps 1 + v'u >= 1; force the guard through the
        # unvalidated core with a sign-flipped diagonal
        r = np.array([-1.0])
        v = np.array([[1.0]])
        d = np.array([[1.0]])
        with pytest.raises(SingularUpdateError) as info:
            _sweep(r, v, d)
        assert info.value.level == 1
        with pytest.raises(SingularUpdateError):
            _sweep_reference(r, v, d)

    @pytest.mark.parametrize("nens", [1, 3, 8, 9, 16, 31])
    def test_grouped_path_matches_reference(self, nens):
        # the compound group update is algebraically the level-by-level
        # sweep; group boundaries (width 8) must not matter
        r, v, d = random_system(56 + nens, 150, nens)
        grouped = solve_sherman(r, v, d).z
        reference, _ = _sweep_reference(r, v, d)
        assert np.abs(grouped - reference).max() <= 1e-12 * max(
            1.0, np.abs(reference).max())


class TestRecursive:
    def test_base_case_is_diagonal_solve(self):
        r = np.array([2.0, 4.0])
        v = np.ones((2, 2))
        x = np.array([2.0, 8.0])
        assert np.array_equal(solve_sherman_recursive(r, v, x, k=0), [1.0, 2.0])

    @pytest.mark.parametrize("nens", [1, 2, 3, 4, 5, 6])
    def test_matches_iterative(self, nens):
        r, v, d = random_system(60 + nens, 17, nens)
        z = solve_sherman(r, v, d).z
        for i in range(nens):
            zi = solve_sherman_recursive(r, v, d[:, i])
            assert np.abs(zi - z[:, i]).max() <= 1e-12

    def test_first_pivot_solved_four_times_at_depth_three(self):
        # without memoization the base solve for the first pivot column
        # appears once per leaf path: exactly 4 times at depth 3
        r, v, d = random_system(71, 9, 3)
        log = []
        solve_sherman_recursive(r, v, d[:, 0], base_log=log)
        assert log.count(1) == 4
        assert log.count(0) == 1  # the right-hand side itself
        assert log.count(2) == 2
        assert log.count(3) == 1

    def test_size_cap(self):
        r, v, d = random_system(72, 10, 9)
        with pytest.raises(ValueError):
            solve_sherman_recursive(r, v, d[:, 0])

    def test_depth_out_of_range(self):
        r, v, d = random_system(73, 6, 2)
        with pytest.raises(ValueError):
            solve_sherman_recursive(r, v, d[:, 0], k=3)


class TestBlocked:
    @pytest.mark.parametrize("nobs,nens", [(300, 12), (200, 16), (2000, 32)])
    def test_layout_bitwise_equal(self, nobs, nens):
        # every product the sweep makes with V goes to one BLAS whatever the
        # memory layout of V, so Z does not depend on it
        r, v, d = random_system(81, nobs, nens)
        wide = np.zeros((nobs, 2 * nens))
        wide[:, ::2] = v
        z = solve_sherman(r, v, d).z
        for layout in (np.asfortranarray(v), wide[:, ::2]):
            assert np.array_equal(solve_sherman(r, layout, d).z, z)


class TestOpCount:
    def test_formula_examples(self):
        assert long_op_count(3, 3) == 108
        assert long_op_count(1, 1) == 6

    def test_instrumented_counter_matches(self):
        r, v, d = random_system(91, 10, 4)
        result = solve_sherman(r, v, d, count_ops=True)
        assert result.long_ops == long_op_count(4, 10) == 600

    @pytest.mark.parametrize("nens,nobs", [(1, 1), (2, 7), (5, 40), (16, 320)])
    def test_counter_equals_formula(self, nens, nobs):
        r, v, d = random_system(92 + nens, nobs, nens)
        result = solve_sherman(r, v, d, count_ops=True)
        assert result.long_ops == long_op_count(nens, nobs)

    def test_uncounted_by_default(self):
        r, v, d = random_system(93, 4, 2)
        assert solve_sherman(r, v, d).long_ops is None

    def test_formula_validation(self):
        with pytest.raises(ValueError):
            long_op_count(0, 5)
