import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwfn.encoder import (
    SLOT_BLOCK_ROWS,
    EncoderConfig,
    RwfnEncoder,
    albm_features,
    build_encoder,
    encode,
    encoder_from_spec,
    encoder_to_spec,
    fourier_features,
    gate_checksum,
    hidden_dim,
    hidden_features,
    kernel_estimate,
)
from rwfn.numerics import make_rng
from rwfn.predicates import init_ntn
from rwfn.verify import gaussian_kernel


def small_encoder(seed=0, input_dim=8, b=16, fan_in=3):
    return build_encoder(EncoderConfig(input_dim=input_dim, hidden_width=b, fan_in=fan_in, seed=seed))


def fixture_encoder(gate, fourier, phase, fan_in=1):
    """Hand-built encoder for forced-value examples."""
    cfg = EncoderConfig(input_dim=gate.shape[0], hidden_width=gate.shape[1], fan_in=fan_in, seed=0)
    return RwfnEncoder(config=cfg, gate=gate, fourier=fourier, phase=phase)


class TestBuild:
    def test_determinism(self):
        a, b = small_encoder(42), small_encoder(42)
        assert np.array_equal(a.gate, b.gate)
        assert np.array_equal(a.fourier, b.fourier)
        assert np.array_equal(a.phase, b.phase)

    def test_gate_fan_in(self):
        enc = small_encoder()
        assert np.array_equal(enc.gate.sum(axis=0), np.full(16, 3.0))

    def test_bad_fan_in(self):
        with pytest.raises(ValueError):
            EncoderConfig(input_dim=64, hidden_width=10, fan_in=70)

    @pytest.mark.parametrize("field", ["inhibition_strength", "kernel_scale"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_bad_scalars_rejected(self, field, bad):
        with pytest.raises(ValueError, match=field):
            EncoderConfig(input_dim=8, hidden_width=4, **{field: bad})

    def test_blocks_immutable(self):
        enc = small_encoder()
        with pytest.raises(ValueError):
            enc.gate[0, 0] = 1.0


class TestAlbm:
    def test_constructed_gate(self):
        # identity gate: the projection of v is v itself, here [2, 4, 6, 8]
        enc = fixture_encoder(np.eye(4), np.zeros((4, 4)), np.zeros(4), fan_in=1)
        v = np.array([2.0, 4.0, 6.0, 8.0])
        # mean 5, centered [-3,-1,1,3], relu keeps [0,0,1,3]
        assert np.allclose(albm_features(enc, v), [0.0, 0.0, 1.0, 3.0])

    def test_constant_projection_zeroed(self):
        enc = small_encoder(fan_in=3)
        # equal fan-in means a constant input projects to a constant vector
        h1 = albm_features(enc, np.full(8, 0.4))
        assert np.allclose(h1, 0.0, atol=1e-12)

    def test_zero_input(self):
        enc = small_encoder()
        assert np.allclose(albm_features(enc, np.zeros(8)), 0.0)

    def test_nonnegative(self):
        enc = small_encoder()
        assert (albm_features(enc, np.random.default_rng(0).random(8)) >= 0).all()


class TestFourier:
    def test_zero_fixture(self):
        enc = fixture_encoder(np.eye(4), np.zeros((4, 4)), np.zeros(4))
        h2 = fourier_features(enc, np.ones(4))
        assert np.allclose(h2, np.sqrt(2.0 / 4.0))

    def test_cosine_bound(self):
        enc = small_encoder()
        h2 = fourier_features(enc, np.random.default_rng(1).random(8))
        assert np.abs(h2).max() <= np.sqrt(2.0 / 16.0) + 1e-12

    def test_kernel_approximation_b1000(self):
        enc = build_encoder(EncoderConfig(input_dim=8, hidden_width=1000, fan_in=7, seed=0))
        rng = np.random.default_rng(1234)
        xs, ys = rng.random((100, 8)), rng.random((100, 8))
        errs = [
            abs(kernel_estimate(enc, x, y) - gaussian_kernel(x, y))
            for x, y in zip(xs, ys)
        ]
        assert np.mean(errs) <= 0.05


class TestEncode:
    def test_zero_phase_fixture(self):
        enc = fixture_encoder(np.eye(4), np.zeros((4, 4)), np.zeros(4))
        h = encode(enc, np.zeros(4))
        assert np.allclose(h[:4], 0.0)
        assert np.allclose(h[4:], np.tanh(np.sqrt(2.0 / 4.0)))

    def test_length_and_range(self):
        enc = small_encoder()
        h = encode(enc, np.random.default_rng(2).random(8))
        assert h.shape == (32,)
        assert (np.abs(h) < 1.0).all()

    def test_batch_matches_single(self):
        enc = small_encoder()
        x = np.random.default_rng(3).random((5, 8))
        batch = encode(enc, x)
        assert np.allclose(batch[2], encode(enc, x[2]))

    def test_out_of_range_warns(self):
        enc = small_encoder()
        with pytest.warns(UserWarning):
            encode(enc, np.full(8, 2.0))

    def test_modes(self):
        enc = small_encoder()
        v = np.random.default_rng(4).random(8)
        assert hidden_features(enc, v, "albm").shape == (16,)
        assert hidden_features(enc, v, "rff").shape == (16,)
        full = hidden_features(enc, v, "full")
        assert np.allclose(full[:16], hidden_features(enc, v, "albm"))
        assert np.allclose(full[16:], hidden_features(enc, v, "rff"))
        assert hidden_dim(enc, "full") == 32 and hidden_dim(enc, "albm") == 16
        with pytest.raises(ValueError):
            hidden_features(enc, v, "bogus")


def slot_case(arity, n, seed=0, constants=7, d=3, b=16):
    """An encoder over arity * d inputs, a table of constants and n atoms
    that repeat arguments and never use the last constant."""
    enc = build_encoder(EncoderConfig(input_dim=arity * d, hidden_width=b, fan_in=2, seed=seed))
    rng = make_rng(seed + 1)
    table = rng.random((constants, d))
    args = rng.integers(0, constants - 1, size=(n, arity))
    args[::3, 1 % arity] = args[::3, 0]
    return enc, table, args


class TestSlotTables:
    """Atoms given as argument positions into a table of constants, against
    the rows concatenated and encoded as one input each."""

    @pytest.mark.parametrize("n", [1, SLOT_BLOCK_ROWS - 1, SLOT_BLOCK_ROWS, SLOT_BLOCK_ROWS + 1])
    @pytest.mark.parametrize("mode", ["full", "albm", "rff"])
    @pytest.mark.parametrize("arity", [2, 3])
    def test_matches_concatenated_rows(self, arity, mode, n):
        enc, table, args = slot_case(arity, n)
        expected = hidden_features(enc, table[args].reshape(n, -1), mode)
        got = hidden_features(enc, table, mode, args)
        assert got.shape == expected.shape == (n, hidden_dim(enc, mode))
        assert np.abs(got - expected).max() <= 1e-12

    @pytest.mark.parametrize("mode", ["full", "albm", "rff"])
    def test_one_slot_is_bit_identical(self, mode):
        enc, table, args = slot_case(1, 300)
        assert np.array_equal(hidden_features(enc, table, mode, args),
                              hidden_features(enc, table[args[:, 0]], mode))

    def test_ntn_gathers_the_same_rows(self):
        _, table, args = slot_case(2, 50)
        model = init_ntn(3, 6, make_rng(4))
        assert np.array_equal(model.hidden_batch(table, args),
                              model.hidden_batch(table[args].reshape(50, -1)))

    def test_range_warning_looks_at_used_constants_only(self, recwarn):
        enc, table, args = slot_case(2, 40)
        table[-1] = 5.0  # no atom uses the last constant
        hidden_features(enc, table, "full", args)
        assert not recwarn.list
        table[args[0, 1]] = 5.0
        with pytest.warns(UserWarning, match="outside"):
            hidden_features(enc, table, "full", args)

    @pytest.mark.parametrize("args, match", [
        (np.array([[0, 7]]), "index"),
        (np.array([[-1, 0]]), "index"),
        (np.array([[0.0, 1.0]]), "integer"),
        (np.array([0, 1]), "integer"),
        (np.array([[0, 1, 2]]), "length 6"),
    ])
    def test_bad_args_rejected(self, args, match):
        enc, table, _ = slot_case(2, 1)
        with pytest.raises(ValueError, match=match):
            hidden_features(enc, table, "full", args)

    def test_memory_stays_at_the_output(self):
        # part-of shaped: pairs over a few hundred constants; the output is
        # the cache a plan keeps, and nothing else (n, B) sized is made
        enc, table, args = slot_case(2, 20_000, constants=200, d=22, b=200)
        tracemalloc.start()
        try:
            h = hidden_features(enc, table, "full", args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * h.nbytes


class TestKernelEstimate:
    def test_symmetry_exact(self):
        enc = small_encoder()
        x, y = np.random.default_rng(5).random((2, 8))
        assert kernel_estimate(enc, x, y) == kernel_estimate(enc, y, x)

    def test_self_kernel_concentration(self):
        # k(x,x) = 1; the estimate averaged over seeds stays within 5/sqrt(B)
        b = 64
        x = np.random.default_rng(6).random(8)
        ests = [
            kernel_estimate(build_encoder(EncoderConfig(8, b, fan_in=3, seed=s)), x, x)
            for s in range(10)
        ]
        assert abs(np.mean(ests) - 1.0) <= 5.0 / np.sqrt(b)

    def test_error_shrinks_with_width(self):
        rng = np.random.default_rng(7)
        xs, ys = rng.random((50, 8)), rng.random((50, 8))
        truth = np.array([gaussian_kernel(x, y) for x, y in zip(xs, ys)])

        def mean_err(b):
            errs = []
            for seed in range(10):
                enc = build_encoder(EncoderConfig(8, b, fan_in=3, seed=seed))
                est = np.array([kernel_estimate(enc, x, y) for x, y in zip(xs, ys)])
                errs.append(np.abs(est - truth).mean())
            return np.mean(errs)

        assert mean_err(1600) <= mean_err(100)


class TestSerialization:
    def test_round_trip(self):
        enc = small_encoder(seed=9)
        spec = encoder_to_spec(enc)
        enc2 = encoder_from_spec(spec)
        assert np.array_equal(enc.gate, enc2.gate)
        assert np.array_equal(enc.fourier, enc2.fourier)
        assert np.array_equal(enc.phase, enc2.phase)

    def test_checksum_mismatch_rejected(self):
        spec = encoder_to_spec(small_encoder(seed=9))
        spec["gate_checksum"] = "0" * 64
        with pytest.raises(ValueError):
            encoder_from_spec(spec)

    def test_unknown_prng_rejected(self):
        spec = encoder_to_spec(small_encoder())
        spec["prng_id"] = "other"
        with pytest.raises(ValueError):
            encoder_from_spec(spec)

    def test_checksum_is_stable(self):
        assert gate_checksum(small_encoder(3)) == gate_checksum(small_encoder(3))


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_encode_bounded_for_any_seed(seed):
    enc = build_encoder(EncoderConfig(input_dim=6, hidden_width=8, fan_in=2, seed=seed))
    h = encode(enc, np.random.default_rng(seed).random(6))
    assert (np.abs(h) < 1.0).all()
