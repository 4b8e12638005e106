import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import enkfkit
from enkfkit import sherman, verify
from enkfkit.errors import SingularUpdateError
from enkfkit.rng import make_rng
from enkfkit.sherman import _sweep, _sweep_reference, long_op_count, solve_sherman
from enkfkit.solvers import solve_cholesky, solve_svd
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

    def test_overflowed_pivot_guard(self):
        # v'u = 2e400 overflows, so 1 + v'u = inf and h = u / inf = 0 would
        # return Z = D; the guard must raise instead
        r = np.ones(3)
        v = 1e200 * np.array([[1.0], [1.0], [0.0]])
        d = np.ones((3, 1))
        with pytest.raises(SingularUpdateError, match="overflowed") as info:
            solve_sherman(r, v, d)
        assert info.value.level == 1
        with pytest.raises(SingularUpdateError, match="overflowed"):
            solve_sherman(r, v, d, count_ops=True)

    @pytest.mark.parametrize("nens", [1, 3, 8, 9, 16, 31])
    def test_grouped_path_matches_reference(self, nens):
        # the ensemble-space solve is algebraically the level-by-level
        # sweep: the pivots of I + V'R^-1 V are its denominators
        r, v, d = random_system(56 + nens, 150, nens)
        grouped = solve_sherman(r, v, d).z
        reference, _ = _sweep_reference(r, v, d)
        assert np.abs(grouped - reference).max() <= 1e-12 * max(
            1.0, np.abs(reference).max())

    def test_fallback_on_lost_gram_pivot(self):
        # column 1 duplicates column 0 and V is scaled by 1e7, so the
        # capacitance matrix I + V'R^-1 V holds entries near 1e16 and its
        # second pivot, about 2 in exact arithmetic, cancels to 0; the
        # literal sweep, which forms 1 + v'u from Nobs-space vectors,
        # solves the system
        rng = make_rng(57)
        r = np.ones(200)
        v = rng.standard_normal((200, 8))
        v[:, 1] = v[:, 0]
        v *= 1e7
        d = rng.standard_normal((200, 8))
        z = solve_sherman(r, v, d).z
        reference, _ = _sweep_reference(r, v, d)
        assert np.abs(z - reference).max() <= 1e-12 * np.abs(reference).max()

    def test_ordinary_system_skips_fallback(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the literal sweep ran")

        r, v, d = random_system(58, 300, 24)
        monkeypatch.setattr(sherman, "_sweep_reference", fail)
        z = solve_sherman(r, v, d).z
        assert np.abs(z - dense_solve(r, v, d)).max() <= 1e-11


def hostile_system(seed, nobs, nens, r_exps, v_exp, n_dup, n_zero):
    """An analysis system with r log-uniform between the powers of ten in
    ``r_exps``, V scaled by 10**v_exp, ``n_dup`` columns of V copied from
    kept columns and ``n_zero`` columns zeroed (at least one kept)."""
    rng = make_rng(seed)
    r = 10.0 ** rng.uniform(min(r_exps), max(r_exps), nobs)
    v = 10.0 ** v_exp * rng.standard_normal((nobs, nens))
    d = rng.standard_normal((nobs, nens))
    cols = rng.permutation(nens)
    n_dup = min(n_dup, nens - 1)
    n_zero = min(n_zero, nens - 1 - n_dup)
    kept = cols[n_dup + n_zero:]
    for j in cols[:n_dup]:
        v[:, j] = v[:, rng.choice(kept)]
    v[:, cols[n_dup:n_dup + n_zero]] = 0.0
    return r, v, d


def backward_error(r, v, d, z):
    """Normwise backward error of Z for (diag(r) + V V') Z = D."""
    residual = r[:, None] * z + v @ (v.T @ z) - d
    scale = ((r.max() + np.linalg.norm(v, 2) ** 2) * np.linalg.norm(z)
             + np.linalg.norm(d))
    return np.linalg.norm(residual) / scale


class TestHostileInputs:
    # r over twelve decades, V over six, rank-deficient V, fewer
    # observations than members and the smallest ensemble, each draw
    # solved by all three solvers. The bound is 1e-4, except where the
    # system's amplification g = |V|_2^2 / min r puts the cancellation in
    # R^-1 D - R^-1 V (...) above it: every Sherman-Morrison-Woodbury form,
    # the literal sweep included, loses about eps g there (r = 1e-6,
    # V ~ 1e3, Nobs = 3, Nens = 20 reads 1.1e-4 to 1.3e-3 on the sweeps
    # and 5.0e-3 on the SVD solve)
    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(seed=st.integers(0, 2**32 - 1), nobs=st.integers(1, 60),
           nens=st.integers(2, 24),
           r_exps=st.tuples(st.floats(-6, 6), st.floats(-6, 6)),
           v_exp=st.floats(-3, 3), n_dup=st.integers(0, 4),
           n_zero=st.integers(0, 4))
    @example(seed=0, nobs=40, nens=2, r_exps=(-6, 6), v_exp=3, n_dup=1,
             n_zero=0)
    @example(seed=1, nobs=3, nens=20, r_exps=(-6, -6), v_exp=3, n_dup=4,
             n_zero=4)
    @example(seed=2, nobs=60, nens=12, r_exps=(6, 6), v_exp=-3, n_dup=0,
             n_zero=4)
    def test_small_backward_error(self, seed, nobs, nens, r_exps, v_exp,
                                  n_dup, n_zero):
        r, v, d = hostile_system(seed, nobs, nens, r_exps, v_exp, n_dup,
                                 n_zero)
        amplification = np.linalg.norm(v, 2) ** 2 / r.min()
        bound = max(1e-4, 10 * np.finfo(float).eps * amplification)
        for solve in (solve_sherman, solve_cholesky, solve_svd):
            z = solve(r, v, d).z
            assert backward_error(r, v, d, z) <= bound, solve.__name__


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

    def test_overflowed_denominator_raises(self):
        # the oracle shares the sweep's guard: 1 + v'u = inf would otherwise
        # give g * (v'f / inf) = 0 and return x unchanged
        v = 1e200 * np.array([[1.0], [1.0], [0.0]])
        with np.errstate(over="ignore"), pytest.raises(
                SingularUpdateError, match="overflowed") as info:
            solve_sherman_recursive(np.ones(3), v, np.ones(3))
        assert info.value.level == 1

    def test_size_cap(self):
        r, v, d = random_system(72, 10, 9)
        with pytest.raises(ValueError):
            solve_sherman_recursive(r, v, d[:, 0])

    def test_depth_out_of_range(self):
        r, v, d = random_system(73, 6, 2)
        with pytest.raises(ValueError):
            solve_sherman_recursive(r, v, d[:, 0], k=3)


def layouts(a):
    """``a`` as C-ordered, Fortran-ordered and column-strided arrays."""
    wide = np.zeros((a.shape[0], 2 * a.shape[1]))
    wide[:, ::2] = a
    return np.ascontiguousarray(a), np.asfortranarray(a), wide[:, ::2]


def assert_layout_independent(solve, r, v, d):
    """Z is bitwise the same for every layout of V and of D, comes back
    C-ordered, and r, V and D are left as they were."""
    z = solve(r, v, d)
    assert z.flags.c_contiguous
    inputs = (r.copy(), v.copy(), d.copy())
    for vl in layouts(v):
        for dl in layouts(d):
            assert np.array_equal(solve(r, vl, dl), z)
            assert all(np.array_equal(a, b) for a, b in
                       zip(inputs, (r, vl, dl)))


class TestBlocked:
    @pytest.mark.parametrize("nobs,nens", [(300, 12), (200, 16), (2000, 32)])
    def test_layout_bitwise_equal(self, nobs, nens):
        # every product the sweep makes with V goes to one BLAS on one
        # layout of V whatever the caller's, so Z does not depend on it
        r, v, d = random_system(81, nobs, nens)
        assert_layout_independent(lambda *a: solve_sherman(*a).z, r, v, d)

    def test_pivot_guard_at_later_level(self):
        # levels 1-9 see zero columns; level 10 meets 1 + v'u = 1 - 1 = 0,
        # so dpotrf stops there and the literal sweep's guard reports it
        v = np.zeros((1, 12))
        v[0, 9:] = 1.0
        with pytest.raises(SingularUpdateError) as info:
            _sweep(np.array([-1.0]), v, np.ones((1, 12)))
        assert info.value.level == 10

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                        reason="the mmap threshold behaviour is glibc's")
    @pytest.mark.parametrize("nobs,nens",
                             [(8000, 16), (500, 200), (20000, 64)])
    def test_repeated_solves_do_not_page_fault(self, nobs, nens):
        # glibc serves allocations above its mmap threshold with fresh,
        # zero-filled pages; a repeated solve must reuse heap memory
        # instead. A fresh process, since earlier tests raise the threshold.
        script = f"""
import resource
import numpy as np
from enkfkit.sherman import solve_sherman
rng = np.random.default_rng(82)
r = rng.uniform(0.5, 2.0, {nobs})
v, d = rng.standard_normal((2, {nobs}, {nens}))
for _ in range(3):
    solve_sherman(r, v, d)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    solve_sherman(r, v, d)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 10)
"""
        src = str(Path(enkfkit.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, check=True)
        assert float(out.stdout) < 100


class TestEnsembleSpaceProperties:
    # from one member to 40, and from one observation to 300, including
    # fewer observations than members, the ensemble-space solve matches
    # the level-by-level sweep
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(seed=st.integers(0, 2**32 - 1), nobs=st.integers(1, 300),
           nens=st.integers(1, 40))
    @example(seed=0, nobs=1, nens=1)
    @example(seed=1, nobs=37, nens=8)
    @example(seed=2, nobs=300, nens=40)
    @example(seed=3, nobs=5, nens=17)
    def test_matches_literal_sweep(self, seed, nobs, nens):
        r, v, d = verify.random_system(make_rng(seed), nobs, nens)
        z = _sweep(r, v, d)
        reference, _ = _sweep_reference(r, v, d)
        assert np.abs(z - reference).max() <= 1e-12 * max(
            1.0, np.abs(reference).max())
        assert_layout_independent(_sweep, r, v, d)


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
