import numpy as np
import pytest

from framecond import numerics


def random_spd(rng, n):
    b = rng.standard_normal((n, n))
    return b.T @ b + np.eye(n)


class TestCholesky:
    def test_identity(self):
        low = numerics.cholesky(np.eye(3))
        assert np.allclose(low, np.eye(3))

    def test_diagonal(self):
        low = numerics.cholesky(np.diag([4.0, 1.0]))
        assert np.allclose(low, np.diag([2.0, 1.0]))

    def test_roundtrip_8x8(self):
        rng = np.random.default_rng(0)
        a = random_spd(rng, 8)
        low = numerics.cholesky(a)
        assert np.linalg.norm(low @ low.T - a) <= 1e-10 * np.linalg.norm(a)
        assert np.allclose(low, np.tril(low))
        assert (np.diag(low) > 0).all()

    def test_not_positive_definite(self):
        with pytest.raises(numerics.NotPositiveDefinite):
            numerics.cholesky(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            numerics.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_factor_of_factor_is_identity(self):
        # refactoring L L^T must return L itself
        rng = np.random.default_rng(3)
        low = np.tril(rng.standard_normal((6, 6)))
        np.fill_diagonal(low, np.abs(np.diag(low)) + 0.5)
        again = numerics.cholesky(low @ low.T)
        assert np.linalg.norm(again - low) <= 1e-10 * np.linalg.norm(low)


class TestSymEig:
    def test_diagonal_ordering(self):
        w, v = numerics.sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(w, [3.0, 2.0, 1.0])
        assert np.allclose(np.abs(v), np.eye(3)[:, [0, 2, 1]])

    def test_identity(self):
        w, _ = numerics.sym_eig(np.eye(4))
        assert np.allclose(w, 1.0)

    def test_roundtrip_6x6(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((6, 6))
        a = a + a.T
        w, v = numerics.sym_eig(a)
        assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(v.T @ v - np.eye(6)) <= 1e-10


class TestSVD:
    def test_diagonal(self):
        _, s, _ = numerics.svd(np.diag([2.0, 1.0]))
        assert np.allclose(s, [2.0, 1.0])

    def test_rank_one(self):
        rng = np.random.default_rng(2)
        a = np.outer(rng.standard_normal(5), rng.standard_normal(7))
        _, s, _ = numerics.svd(a)
        assert (s[1:] <= 1e-10 * s[0]).all()

    def test_condition_number_cross_check(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((4, 7))
        _, s, _ = numerics.svd(a)
        eig = np.sort(np.linalg.eigvalsh(a @ a.T))[::-1]
        assert abs(s[0] / s[3] - np.sqrt(eig[0] / eig[3])) <= 1e-8

    def test_reconstruction(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((6, 9))
        u, s, v = numerics.svd(a)
        assert np.linalg.norm(u @ np.diag(s) @ v.T - a) <= 1e-9 * np.linalg.norm(a)
        assert np.linalg.norm(u.T @ u - np.eye(6)) <= 1e-10
        assert np.linalg.norm(v.T @ v - np.eye(6)) <= 1e-10
        assert (np.diff(s) <= 0).all() and (s >= 0).all()


def test_factorization_contracts_random_sweep():
    # reconstruction bounds hold across 1000 seeded instances up to size 64
    rng = np.random.default_rng(123)
    for trial in range(1000):
        n = int(rng.integers(1, 65))
        kind = trial % 3
        if kind == 0:
            a = random_spd(rng, n)
            low = numerics.cholesky(a)
            assert np.linalg.norm(low @ low.T - a) <= 1e-10 * np.linalg.norm(a) + 1e-14
        elif kind == 1:
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, v = numerics.sym_eig(a)
            assert np.linalg.norm(a @ v - v @ np.diag(w)) <= 1e-9 * np.linalg.norm(a) + 1e-14
        else:
            cols = int(rng.integers(1, 65))
            a = rng.standard_normal((n, cols))
            u, s, v = numerics.svd(a)
            assert np.linalg.norm(u @ np.diag(s) @ v.T - a) <= 1e-9 * np.linalg.norm(a) + 1e-14


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        numerics.cholesky(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        numerics.as_matrix(np.array([[np.inf]]))
