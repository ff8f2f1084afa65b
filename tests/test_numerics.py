import numpy as np
import pytest

from rwfn.numerics import (
    make_rng,
    sample_normal_matrix,
    sample_sparse_binary,
    sample_uniform_vector,
)


class TestNormal:
    def test_determinism(self):
        a = sample_normal_matrix(10, 10, make_rng(42))
        b = sample_normal_matrix(10, 10, make_rng(42))
        assert np.array_equal(a, b)

    def test_seeds_differ(self):
        a = sample_normal_matrix(10, 10, make_rng(1))
        b = sample_normal_matrix(10, 10, make_rng(2))
        assert (a != b).any()

    def test_mean_concentration(self):
        # 1e6 draws: the sample mean has sd 1e-3, so (-0.01, 0.01) holds whp
        m = sample_normal_matrix(1000, 1000, make_rng(0))
        assert -0.01 < m.mean() < 0.01

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            sample_normal_matrix(0, 3, make_rng(0))


class TestUniform:
    def test_range(self):
        v = sample_uniform_vector(1000, 0.0, 2 * np.pi, make_rng(3))
        assert (v >= 0).all() and (v < 2 * np.pi).all()

    def test_determinism(self):
        assert np.array_equal(
            sample_uniform_vector(50, -1, 1, make_rng(9)),
            sample_uniform_vector(50, -1, 1, make_rng(9)),
        )

    def test_mean(self):
        v = sample_uniform_vector(10**5, 0.0, 1.0, make_rng(4))
        assert 0.49 < v.mean() < 0.51

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            sample_uniform_vector(5, 1.0, 1.0, make_rng(0))


class TestSparseBinary:
    def test_column_sums(self):
        m = sample_sparse_binary(64, 200, 7, make_rng(0))
        assert m.shape == (64, 200)
        assert np.array_equal(m.sum(axis=0), np.full(200, 7.0))

    def test_binary_entries(self):
        m = sample_sparse_binary(16, 40, 5, make_rng(1))
        assert set(np.unique(m)) <= {0.0, 1.0}

    def test_fan_in_one_basis_vectors(self):
        m = sample_sparse_binary(2, 10, 1, make_rng(2))
        assert np.array_equal(m.sum(axis=0), np.ones(10))

    def test_fan_in_too_large(self):
        with pytest.raises(ValueError):
            sample_sparse_binary(64, 10, 64, make_rng(0))

    def test_determinism(self):
        assert np.array_equal(
            sample_sparse_binary(10, 20, 3, make_rng(5)),
            sample_sparse_binary(10, 20, 3, make_rng(5)),
        )

