import tracemalloc

import numpy as np
import pytest

from enkfkit import solvers, verify
from enkfkit.errors import NotPositiveDefiniteError, NumericalFailureError
from enkfkit.rng import make_rng
from enkfkit.solvers import SolverChoice, solve_analysis, solve_cholesky, solve_svd
from enkfkit.sherman import solve_sherman


class TestCholeskySolver:
    def test_zero_v_scales_rows(self):
        r = np.array([2.0, 4.0])
        d = np.array([[2.0, 4.0], [8.0, 12.0]])
        z = solve_cholesky(r, np.zeros((2, 2)), d)
        assert np.allclose(z.z, [[1.0, 2.0], [2.0, 3.0]], atol=1e-14)

    def test_scalar_case(self):
        z = solve_cholesky(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        assert np.allclose(z.z, [[0.5]], atol=1e-15)

    def test_agrees_with_sherman(self):
        r, v, d = verify.random_system(make_rng(7), 50, 8)
        z_chol = solve_cholesky(r, v, d).z
        z_sher = solve_sherman(r, v, d).z
        assert np.abs(z_chol - z_sher).max() <= 1e-10

    def test_propagates_not_positive_definite(self):
        # valid input whose assembled matrix rounds to a singular one: 1e20
        # swallows 1e-20, so the factorization fails at pivot 1
        with pytest.raises(NotPositiveDefiniteError) as info:
            solve_cholesky(np.array([1e-20, 1e-20]), np.array([[1e10], [1e10]]),
                           np.ones((2, 1)))
        assert info.value.pivot == 1

    def test_overflow_is_numerical_failure(self):
        # finite input whose R + V V' overflows (2e400) is a numerical
        # failure, like the sweep's overflowed pivot, not bad input
        v = 1e200 * np.array([[1.0], [1.0], [0.0]])
        with pytest.raises(NumericalFailureError, match="overflowed"):
            solve_cholesky(np.ones(3), v, np.ones((3, 1)))


def traced_peak(solve, nobs, nens):
    """Peak bytes numpy allocates in one solve, after a warm-up solve."""
    r, v, d = verify.random_system(make_rng(3), nobs, nens)
    solve(r, v, d)
    tracemalloc.start()
    try:
        solve(r, v, d)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cholesky_holds_one_packed_triangle():
    # the RFP lower triangle is 0.5 of a dense W; a dense W alone is 1.0
    nobs = 1200
    assert traced_peak(solve_cholesky, nobs, 8) <= 0.6 * 8 * nobs ** 2


def test_svd_frees_the_whitened_factor():
    # U, Z and one product with U: 3 Nobs x Nens arrays, not 4 with B
    nobs, nens = 20000, 16
    assert traced_peak(solve_svd, nobs, nens) <= 3.5 * 8 * nobs * nens


class TestSvdSolver:
    def test_zero_v_is_diagonal_solve(self):
        r = np.array([2.0, 4.0])
        d = np.array([[2.0, 4.0], [8.0, 12.0]])
        z = solve_svd(r, np.zeros((2, 2)), d)
        assert np.allclose(z.z, [[1.0, 2.0], [2.0, 3.0]], atol=1e-14)

    def test_rank_one_closed_form(self):
        # two symmetric members +/- a give (I + 2 a a') z = a, whose
        # closed form is a / (1 + 2 |a|^2); dense solve double-checks
        rng = make_rng(8)
        a = rng.standard_normal(12)
        v = np.column_stack([a, -a])
        r = np.ones(12)
        d = np.column_stack([a, a])
        z = solve_svd(r, v, d).z
        expected = a / (1.0 + 2.0 * (a @ a))
        assert np.abs(z[:, 0] - expected).max() <= 1e-12
        dense = np.linalg.solve(np.eye(12) + 2.0 * np.outer(a, a), a)
        assert np.abs(z[:, 0] - dense).max() <= 1e-12

    def test_agrees_with_sherman(self):
        r, v, d = verify.random_system(make_rng(9), 50, 8)
        z_svd = solve_svd(r, v, d).z
        z_sher = solve_sherman(r, v, d).z
        assert np.abs(z_svd - z_sher).max() <= 1e-9

    def test_single_column_agrees_with_sherman(self):
        r, v, d = verify.random_system(make_rng(12), 20, 1)
        z_svd = solve_svd(r, v, d).z
        z_sher = solve_sherman(r, v, d).z
        assert np.abs(z_svd - z_sher).max() <= 1e-9

    def test_thin_path_matches_full_factor_formula(self):
        # the thin factorization plus identity-complement handling must
        # reproduce the square-left-factor formula
        rng = make_rng(10)
        nobs, nens = 30, 5
        r = rng.uniform(0.5, 2.0, nobs)
        v = rng.standard_normal((nobs, nens)) / np.sqrt(nens - 1.0)
        d = rng.standard_normal((nobs, nens))

        root_r = np.sqrt(r)
        u_full, s, _ = np.linalg.svd(v / root_r[:, None], full_matrices=True)
        inner = np.ones(nobs)
        inner[:nens] = 1.0 / (s * s + 1.0)
        z_full = (u_full @ (inner[:, None] * (u_full.T @ (d / root_r[:, None])))
                  ) / root_r[:, None]

        z_thin = solve_svd(r, v, d).z
        assert np.abs(z_thin - z_full).max() <= 1e-9 * np.abs(z_full).max()


def hostile_system(case):
    r, v, d = verify.random_system(make_rng(11), 6, 3)
    if case == "nan in V":
        v[2, 1] = np.nan
    elif case == "inf in D":
        d[0, 2] = np.inf
    elif case == "zero in r":
        r[1] = 0.0
    elif case == "negative r":
        r[4] = -1.0
    elif case == "row mismatch":
        d = d[:-1]
    elif case == "column mismatch":
        d = d[:, :-1]
    elif case == "2-D r":
        r = np.diag(r)
    elif case == "no observations":
        r, v, d = r[:0], v[:0], d[:0]
    return r, v, d


DIRECT = {"sherman": solve_sherman, "cholesky": solve_cholesky,
          "svd": solve_svd}


@pytest.mark.parametrize("case", ["nan in V", "inf in D", "zero in r",
                                  "negative r", "row mismatch",
                                  "column mismatch", "2-D r",
                                  "no observations"])
@pytest.mark.parametrize("dispatch", [False, True])
@pytest.mark.parametrize("solver", sorted(DIRECT))
def test_bad_input_raises_value_error(solver, dispatch, case):
    r, v, d = hostile_system(case)
    with pytest.raises(ValueError):
        if dispatch:
            solve_analysis(solver, r, v, d)
        else:
            DIRECT[solver](r, v, d)


def overflow_system():
    # finite input that overflows in every solver: V V' = 2e400 for
    # Cholesky, v'u = 2e700 for the sweep, V / sqrt(r) = 1e350 for SVD
    return (1e-300 * np.ones(3), 1e200 * np.array([[1.0], [1.0], [0.0]]),
            np.ones((3, 1)))


@pytest.mark.parametrize("dispatch", [False, True])
@pytest.mark.parametrize("solver", sorted(DIRECT))
def test_overflow_raises_arithmetic_error(solver, dispatch):
    # an ArithmeticError is what `enkfkit run` turns into exit code 3
    r, v, d = overflow_system()
    with pytest.raises(ArithmeticError, match="overflowed"), \
            np.errstate(over="ignore"):
        if dispatch:
            solve_analysis(solver, r, v, d)
        else:
            DIRECT[solver](r, v, d)


def test_svd_overflow_is_numerical_failure():
    # dgesdd reports success on the inf matrix but returns s = [nan],
    # which made all of Z NaN
    with pytest.raises(NumericalFailureError, match="singular values"), \
            np.errstate(over="ignore"):
        solve_svd(*overflow_system())


class TestDispatch:
    def test_by_name_and_enum(self):
        r, v, d = verify.random_system(make_rng(5), 20, 4)
        z1 = solve_analysis("sherman", r, v, d).z
        z2 = solve_analysis(SolverChoice.CHOLESKY, r, v, d).z
        z3 = solve_analysis("svd", r, v, d).z
        assert np.abs(z1 - z2).max() <= 1e-10 * np.abs(z1).max()
        assert np.abs(z1 - z3).max() <= 1e-9 * np.abs(z1).max()

    def test_dispatched_sherman_goes_through_module_global(self, monkeypatch):
        # tracers wrap solvers.solve_sherman; a dispatched solve must reach it
        seen = []

        def spy(r, v, d, *, count_ops=False):
            seen.append(count_ops)
            return solve_sherman(r, v, d, count_ops=count_ops)

        monkeypatch.setattr(solvers, "solve_sherman", spy)
        r, v, d = verify.random_system(make_rng(6), 30, 4)
        solve_analysis("sherman", r, v, d)
        assert seen == [False]

    @pytest.mark.parametrize("solver, want", [
        ("cholesky", {"sym_rank_k_update": 1, "cholesky_factor": 1, "svd_thin": 0}),
        ("svd", {"sym_rank_k_update": 0, "cholesky_factor": 0, "svd_thin": 1}),
    ])
    def test_kernels_go_through_module_globals(self, monkeypatch, solver, want):
        # a benchmark tracer times the kernels by wrapping these attributes
        # of enkfkit.solvers; a solve that bypasses them is not measured
        seen = dict.fromkeys(want, 0)
        for name in seen:
            def spy(*args, _name=name, _kernel=getattr(solvers, name), **kwargs):
                seen[_name] += 1
                return _kernel(*args, **kwargs)

            monkeypatch.setattr(solvers, name, spy)
        r, v, d = verify.random_system(make_rng(6), 30, 4)
        solve_analysis(solver, r, v, d)
        assert seen == want

    def test_unknown_solver(self):
        r, v, d = verify.random_system(make_rng(5), 4, 2)
        with pytest.raises(ValueError):
            solve_analysis("qr", r, v, d)
