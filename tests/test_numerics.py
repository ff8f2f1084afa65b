import numpy as np
import pytest

from rwfn.encoder import EncoderConfig, build_encoder
from rwfn.numerics import make_rng, sample_sparse_binary


def draws(seed, input_dim, width):
    """An encoder's standard normal Fourier block (kernel_scale 1) and its
    phase, uniform on [0, 2pi): the draws that follow the gate's."""
    enc = build_encoder(EncoderConfig(input_dim=input_dim, hidden_width=width, fan_in=1, seed=seed))
    return enc.fourier, enc.phase


class TestNormal:
    def test_determinism(self):
        assert np.array_equal(draws(42, 10, 10)[0], draws(42, 10, 10)[0])

    def test_seeds_differ(self):
        assert (draws(1, 10, 10)[0] != draws(2, 10, 10)[0]).any()

    def test_mean_concentration(self):
        # 1e6 draws: the sample mean has sd 1e-3, so (-0.01, 0.01) holds whp
        m = draws(0, 1000, 1000)[0]
        assert -0.01 < m.mean() < 0.01

    def test_bad_dims(self):
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=3, hidden_width=0)


class TestUniform:
    def test_range(self):
        v = draws(3, 2, 1000)[1]
        assert (v >= 0).all() and (v < 2 * np.pi).all()

    def test_determinism(self):
        assert np.array_equal(draws(9, 2, 50)[1], draws(9, 2, 50)[1])

    def test_mean(self):
        v = draws(4, 2, 10**5)[1] / (2 * np.pi)
        assert 0.49 < v.mean() < 0.51


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

