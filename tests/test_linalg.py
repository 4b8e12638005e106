import math

import numpy as np
import pytest
from scipy.linalg import lapack

from enkfkit import linalg
from enkfkit.errors import NotPositiveDefiniteError, NumericalFailureError
from enkfkit.linalg import cholesky_factor, svd_thin, sym_rank_k_update
from enkfkit.rng import gaussian_matrix, make_rng


def pack(a):
    """The RFP array of the lower triangle of ``a``."""
    arf, info = lapack.dtrttf(np.asfortranarray(a, dtype=float),
                              transr="N", uplo="L")
    assert info == 0
    return arf


def unpack(arf):
    """The n x n matrix whose lower triangle the RFP array ``arf`` holds."""
    n = (math.isqrt(8 * arf.size + 1) - 1) // 2
    a, info = lapack.dtfttr(n, arf, transr="N", uplo="L")
    assert info == 0
    return a


@pytest.mark.parametrize("n", [1, 2, 5, 6])
def test_rfp_diagonal_matches_dtrttf(n):
    diag = np.arange(1.0, n + 1)
    arf = pack(np.diag(diag))
    assert np.array_equal(arf[linalg.rfp_diagonal(n)], diag)
    assert np.count_nonzero(arf) == n


class TestCholesky:
    def test_identity(self):
        lower = cholesky_factor(pack(np.eye(3)))
        assert np.array_equal(unpack(lower), np.eye(3))

    def test_hand_factorization(self):
        # [[4,2],[2,5]] factors as [[2,0],[1,2]]: check L L' by hand
        lower = unpack(cholesky_factor(pack([[4.0, 2.0], [2.0, 5.0]])))
        assert np.allclose(lower, [[2.0, 0.0], [1.0, 2.0]], atol=1e-14)
        assert np.allclose(lower @ lower.T, [[4.0, 2.0], [2.0, 5.0]], atol=1e-14)

    def test_indefinite_reports_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky_factor(pack([[1.0, 2.0], [2.0, 1.0]]))
        assert info.value.pivot == 1

    @pytest.mark.parametrize("n", [5, 60, 500])
    def test_reconstruction_random_spd(self, n):
        rng = make_rng(900 + n)
        a = rng.standard_normal((n, n))
        spd = a @ a.T + n * np.eye(n)
        lower = unpack(cholesky_factor(pack(spd)))
        norm = np.abs(spd).sum(axis=1).max()
        assert np.abs(lower @ lower.T - spd).max() <= 1e-12 * norm

    def test_reads_lower_triangle_only(self):
        # RFP holds no strict upper triangle, so junk there never reaches
        # the factorization, and the factor has none either
        lower = unpack(cholesky_factor(pack([[4.0, 99.0], [2.0, 5.0]])))
        assert np.array_equal(lower, unpack(cholesky_factor(pack([[4.0, 2.0], [2.0, 5.0]]))))
        assert lower[0, 1] == 0.0

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            cholesky_factor(pack([[np.nan, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError):  # no RFP array has length 2
            cholesky_factor(np.ones(2))

    def test_input_kept_unless_overwrite_a(self):
        spd = pack([[4.0, 2.0], [2.0, 5.0]])
        kept = spd.copy()
        lower = cholesky_factor(spd)
        assert np.array_equal(spd, kept) and not np.shares_memory(lower, spd)
        bad = pack([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError):
            cholesky_factor(bad)
        assert np.array_equal(bad, pack([[1.0, 2.0], [2.0, 1.0]]))
        # a contiguous float64 array the caller owns is factored in place
        assert cholesky_factor(spd, overwrite_a=True) is spd
        assert np.array_equal(spd, lower)


class TestSvd:
    def test_diagonal_input(self):
        u, s, v = svd_thin(np.diag([3.0, 2.0, 1.0]))
        assert np.allclose(s, [3.0, 2.0, 1.0])

    def test_zero_matrix(self):
        _, s, _ = svd_thin(np.zeros((4, 2)))
        assert np.array_equal(s, [0.0, 0.0])

    def test_reconstruction_and_orthogonality(self):
        rng = make_rng(11)
        a = rng.standard_normal((6, 3))
        u, s, v = svd_thin(a)
        norm = np.linalg.norm(a)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-10 * norm
        assert np.abs(u.T @ u - np.eye(3)).max() <= 1e-10
        assert np.abs(v.T @ v - np.eye(3)).max() <= 1e-10

    def test_large_random(self):
        rng = make_rng(13)
        a = rng.standard_normal((500, 64))
        u, s, v = svd_thin(a)
        norm = np.linalg.norm(a)
        assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-10 * norm
        assert np.all(np.diff(s) <= 0)

    def test_u_is_c_ordered(self):
        # numpy's SVD returned a C-ordered U, and the products in solve_svd
        # round differently on a Fortran-ordered one
        a = make_rng(15).standard_normal((40, 7))
        u, s, v = svd_thin(a)
        assert u.shape == (40, 7) and u.flags.c_contiguous
        assert np.abs(u @ np.diag(s) @ v.T - a).max() <= 1e-12 * np.linalg.norm(a)

    def test_no_convergence_raises(self, monkeypatch):
        def failing(a, full_matrices, overwrite_a=False):
            k = min(a.shape)
            return np.zeros((a.shape[0], k)), np.zeros(k), np.zeros((k, a.shape[1])), 3

        monkeypatch.setattr(linalg.lapack, "dgesdd", failing)
        with pytest.raises(NumericalFailureError, match="converge"):
            svd_thin(np.eye(3))

    @pytest.mark.parametrize("a", [np.zeros((3, 0)), np.zeros(3),
                                   np.array([[np.nan, 0.0], [0.0, 1.0]])])
    def test_rejects_bad_input(self, a):
        with pytest.raises(ValueError):
            svd_thin(a)


class TestRankKUpdate:
    def test_zero_v_gives_diagonal(self):
        r = np.array([2.0, 3.0, 4.0])
        w = sym_rank_k_update(np.zeros((3, 2)), r)
        assert w.shape == (6,) and np.array_equal(unpack(w), np.diag(r))

    def test_unit_column(self):
        v = np.array([[1.0], [0.0], [0.0]])
        w = sym_rank_k_update(v, np.ones(3))
        assert np.array_equal(unpack(w), np.diag([2.0, 1.0, 1.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            sym_rank_k_update(np.zeros((3, 2)), np.ones(4))


class TestGaussianMatrix:
    def test_zero_std_is_constant_mean(self):
        out = gaussian_matrix(make_rng(1), 4, 3, mean=2.5, std=0.0)
        assert np.array_equal(out, np.full((4, 3), 2.5))

    def test_law_of_large_numbers(self):
        # n = 1e4 standard normals: |mean| below 4 / sqrt(n)
        out = gaussian_matrix(make_rng(2), 10_000, 1, mean=0.0, std=1.0)
        assert abs(out.mean()) <= 4.0 / np.sqrt(10_000)

    def test_seed_determinism(self):
        a = gaussian_matrix(make_rng(42), 8, 5, std=np.arange(8.0))
        b = gaussian_matrix(make_rng(42), 8, 5, std=np.arange(8.0))
        assert np.array_equal(a, b)

    def test_seed_determinism_across_processes(self):
        # the stream must not depend on process state, only on the seed
        import subprocess
        import sys

        script = (
            "import hashlib; from enkfkit.rng import make_rng, gaussian_matrix; "
            "m = gaussian_matrix(make_rng(20250810), 64, 8, 0.5, 2.0); "
            "print(hashlib.sha256(m.tobytes()).hexdigest())"
        )
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, check=True)
        import hashlib

        local = gaussian_matrix(make_rng(20250810), 64, 8, 0.5, 2.0)
        assert out.stdout.strip() == hashlib.sha256(local.tobytes()).hexdigest()

    def test_negative_std_rejected(self):
        with pytest.raises(ValueError):
            gaussian_matrix(make_rng(1), 2, 2, std=-1.0)

    def test_wrong_std_length_rejected(self):
        with pytest.raises(ValueError):
            gaussian_matrix(make_rng(1), 3, 2, std=np.ones(4))
