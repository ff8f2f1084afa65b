import itertools
import tracemalloc

import numpy as np
import pytest

from rwfn.encoder import EncoderConfig, build_encoder, encode
from rwfn.numerics import make_rng
from rwfn.predicates import (
    BLOCK_ROWS,
    LabelPredicate,
    NtnPredicate,
    ParamCount,
    RwfnPredicate,
    count_params,
    init_ntn,
    model_from_spec,
    model_to_spec,
    sigmoid,
)


def test_sigmoid_finite_for_any_input():
    # with RuntimeWarnings as errors an overflowing exp fails this test
    z = np.array([-np.inf, -1e308, -800.0, -709.0, 0.0, 800.0, np.inf])
    out = sigmoid(z)
    assert np.all((out >= 0.0) & (out <= 1.0))
    assert out[0] < 1e-300 and out[-1] == 1.0
    # unchanged from 1 / (1 + exp(-z)) wherever that form does not overflow
    z = np.linspace(-709.0, 40.0, 10001)
    assert np.array_equal(sigmoid(z), 1.0 / (1.0 + np.exp(-z)))


def small_encoder(seed=0):
    return build_encoder(EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=seed))


class TestRwfnForward:
    def test_zero_beta_is_half(self):
        model = RwfnPredicate.create(small_encoder())
        for seed in range(5):
            assert model.forward(make_rng(seed).random(8)) == 0.5

    def test_output_in_open_unit_interval(self):
        rng = make_rng(1)
        model = RwfnPredicate(encoder=small_encoder(), beta=rng.standard_normal(32))
        out = model.forward_batch(rng.random((20, 8)))
        assert ((out > 0) & (out < 1)).all()

    def test_large_beta_saturates(self):
        enc = small_encoder()
        rng = make_rng(2)
        v = rng.random(8)
        h = encode(enc, v)
        beta = 1e6 * h  # beta . h = 1e6 |h|^2 > 0
        model = RwfnPredicate(encoder=enc, beta=beta)
        assert model.forward(v) > 1.0 - 1e-9


class TestRwfnGradient:
    def test_zero_beta_quarter_h(self):
        enc = small_encoder()
        model = RwfnPredicate.create(enc)
        v = make_rng(3).random(8)
        g = model.gradient(v, upstream=1.0)
        assert np.allclose(g, 0.25 * encode(enc, v))

    def test_zero_upstream(self):
        model = RwfnPredicate(encoder=small_encoder(), beta=make_rng(4).standard_normal(32))
        assert np.allclose(model.gradient(make_rng(5).random(8), 0.0), 0.0)

    def test_matches_finite_differences(self):
        rng = make_rng(6)
        step = 1e-5
        for trial in range(20):
            model = RwfnPredicate(encoder=small_encoder(seed=trial), beta=rng.standard_normal(32))
            v = rng.random(8)
            up = float(rng.normal())
            analytic = model.gradient(v, up)
            numeric = np.empty_like(analytic)
            for i in range(32):
                saved = model.beta[i]
                model.beta[i] = saved + step
                hi = model.forward(v)
                model.beta[i] = saved - step
                lo = model.forward(v)
                model.beta[i] = saved
                numeric[i] = up * (hi - lo) / (2 * step)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4


class TestNtnForward:
    def test_all_zero_params(self):
        d = 4
        model = NtnPredicate(u=np.zeros(2), w=np.zeros((2, d, d)), v=np.zeros((2, d)), b=np.zeros(2))
        assert model.forward(np.ones(d)) == 0.5

    def test_zero_u(self):
        rng = make_rng(7)
        model = NtnPredicate(u=np.zeros(3), w=rng.standard_normal((3, 4, 4)),
                             v=rng.standard_normal((3, 4)), b=rng.standard_normal(3))
        assert model.forward(rng.random(4)) == 0.5

    def test_scalar_reference_value(self):
        # k=1, W=0, V=e1^T, b=0, u=[1], input e1: sigma(tanh(1))
        d = 4
        vmat = np.zeros((1, d))
        vmat[0, 0] = 1.0
        model = NtnPredicate(u=np.array([1.0]), w=np.zeros((1, d, d)), v=vmat, b=np.zeros(1))
        e1 = np.zeros(d)
        e1[0] = 1.0
        assert model.forward(e1) == pytest.approx(sigmoid(np.tanh(1.0)))
        assert model.forward(e1) == pytest.approx(0.6817, abs=1e-3)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NtnPredicate(u=np.zeros(2), w=np.zeros((3, 4, 4)), v=np.zeros((2, 4)), b=np.zeros(2))


class TestNtnGradient:
    def test_zero_upstream(self):
        model = init_ntn(3, 8, make_rng(8))
        grads = model.gradient(make_rng(9).random(8), 0.0)
        assert all(np.allclose(g, 0.0) for g in grads.values())

    def test_zero_input_kills_w_and_v(self):
        model = init_ntn(3, 8, make_rng(10))
        grads = model.gradient(np.zeros(8), 1.0)
        assert np.allclose(grads["w"], 0.0)
        assert np.allclose(grads["v"], 0.0)
        assert not np.allclose(grads["u"], 0.0)
        assert not np.allclose(grads["b"], 0.0)

    def test_matches_finite_differences(self):
        step = 1e-5
        rng = make_rng(11)
        for trial in range(20):
            model = init_ntn(3, 8, make_rng(100 + trial))
            v = rng.random(8)
            up = float(rng.normal())
            analytic = model.gradient(v, up)
            for pname, arr in model.learnable_params().items():
                numeric = np.empty_like(arr)
                flat, nflat = arr.ravel(), numeric.ravel()
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + step
                    hi = model.forward(v)
                    flat[i] = saved - step
                    lo = model.forward(v)
                    flat[i] = saved
                    nflat[i] = up * (hi - lo) / (2 * step)
                a = analytic[pname].ravel()
                denom = max(np.linalg.norm(a), np.linalg.norm(nflat), 1e-12)
                assert np.linalg.norm(a - nflat) / denom < 1e-4, pname


def ntn_hidden_oracle(model, x):
    """The unblocked form: one (n, k, d) tensordot over all rows."""
    t = np.tensordot(x, model.w, axes=([1], [1]))
    return np.tanh((t * x[:, None, :]).sum(axis=2) + x @ model.v.T + model.b)


def ntn_gradient_oracle(model, x, upstream):
    t = ntn_hidden_oracle(model, x)
    p = sigmoid(t @ model.u)
    dz = upstream * p * (1.0 - p)
    ds = dz[:, None] * model.u[None, :] * (1.0 - t * t)
    return {
        "u": t.T @ dz,
        "w": np.tensordot(ds[:, :, None] * x[:, None, :], x, axes=([0], [0])),
        "v": ds.T @ x,
        "b": ds.sum(axis=0),
    }


def assert_close_rel(actual, expected, rel=1e-12):
    np.testing.assert_allclose(actual, expected, rtol=rel, atol=rel * np.abs(expected).max())


class TestNtnBlockedKernels:
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 2 * BLOCK_ROWS + 3])
    @pytest.mark.parametrize("d", [4, 44])
    @pytest.mark.parametrize("k", [1, 6])
    def test_match_unblocked_oracle(self, n, d, k):
        rng = make_rng(n + 100 * d + 10_000 * k)
        model = init_ntn(k, d, rng)
        x, upstream = rng.random((n, d)), rng.standard_normal(n)
        hidden = ntn_hidden_oracle(model, x)
        assert_close_rel(model.hidden_batch(x), hidden)
        assert_close_rel(model.forward_batch(x), sigmoid(hidden @ model.u))
        expected = ntn_gradient_oracle(model, x, upstream)
        grads = model.gradient_batch(x, upstream)
        assert grads.keys() == expected.keys()
        for name, g in grads.items():
            assert g.shape == model.learnable_params()[name].shape
            assert_close_rel(g, expected[name])

    def test_memory_stays_at_block_size(self):
        # one (n, k, d) float64 temporary is 42 MB here; the unblocked kernels
        # peaked at about twice that
        n, d, k = 20_000, 44, 6
        rng = make_rng(3)
        model = init_ntn(k, d, rng)
        x, upstream = rng.random((n, d)), rng.standard_normal(n)
        bound = n * k * d * 8 // 4
        for call in (lambda: model.hidden_batch(x), lambda: model.gradient_batch(x, upstream)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestInit:
    def test_determinism(self):
        a, b = init_ntn(6, 64, make_rng(0)), init_ntn(6, 64, make_rng(0))
        assert np.array_equal(a.w, b.w) and np.array_equal(a.u, b.u)

    def test_w_scale(self):
        model = init_ntn(6, 64, make_rng(1))
        assert 0.1 < model.w.std() < 0.15  # target 1/sqrt(64) = 0.125

    def test_fresh_model_not_saturated(self):
        for seed in range(100):
            model = init_ntn(6, 64, make_rng(seed))
            out = model.forward(make_rng(1000 + seed).random(64))
            assert 0.01 < out < 0.99

    def test_bad_args(self):
        with pytest.raises(ValueError):
            init_ntn(0, 8, make_rng(0))


class TestParamCounts:
    def test_ltn_reference(self):
        pc = count_params(init_ntn(6, 64, make_rng(0)))
        assert pc == ParamCount(total=24972, learnable=24972)

    def test_rwfn_reference(self):
        enc = build_encoder(EncoderConfig(input_dim=64, hidden_width=200, fan_in=7, seed=0))
        pc = count_params(RwfnPredicate.create(enc))
        assert pc == ParamCount(total=26200, learnable=400)

    def test_rwfn_binary_reference(self):
        enc = build_encoder(EncoderConfig(input_dim=128, hidden_width=400, fan_in=7, seed=0))
        pc = count_params(RwfnPredicate.create(enc))
        assert pc == ParamCount(total=103600, learnable=800)

    def test_ablated_modes(self):
        enc = small_encoder()
        assert count_params(RwfnPredicate.create(enc, mode="albm")).learnable == 16
        assert count_params(RwfnPredicate.create(enc, mode="rff")).learnable == 16

    def test_label_predicate_is_free(self):
        assert count_params(LabelPredicate({})) == ParamCount(total=0, learnable=0)

    def test_learnable_bounded_by_total(self):
        with pytest.raises(ValueError):
            ParamCount(total=5, learnable=6)


class TestLabelPredicate:
    def test_lookup_and_default(self):
        p = LabelPredicate({("a",): 1.0})
        assert p.truth_of(("a",)) == 1.0
        assert p.truth_of(("b",)) == 0.0
        assert p.learnable_params() == {}
        assert p.symbolic


class TestSerialization:
    def test_rwfn_round_trip(self):
        model = RwfnPredicate(encoder=small_encoder(5), beta=make_rng(12).standard_normal(32))
        clone = model_from_spec(model_to_spec(model))
        v = make_rng(13).random(8)
        assert clone.forward(v) == model.forward(v)
        assert np.array_equal(clone.beta, model.beta)

    def test_ntn_round_trip(self):
        model = init_ntn(3, 8, make_rng(14))
        clone = model_from_spec(model_to_spec(model))
        v = make_rng(15).random(8)
        assert clone.forward(v) == model.forward(v)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_spec({"format_version": 1, "kind": "mystery"})

    @pytest.mark.parametrize("block", ["gate", "fourier", "phase"])
    def test_tampered_block_checksum_refuses_to_load(self, block):
        spec = model_to_spec(RwfnPredicate.create(small_encoder(5)))
        spec["encoder"][f"{block}_checksum"] = "0" * 64
        with pytest.raises(ValueError, match=f"{block} checksum mismatch"):
            model_from_spec(spec)

    def test_missing_block_checksum_refuses_to_load(self):
        spec = model_to_spec(RwfnPredicate.create(small_encoder(5)))
        del spec["encoder"]["fourier_checksum"]
        with pytest.raises(ValueError, match="lacks fourier_checksum"):
            model_from_spec(spec)

    def test_version_1_loads_with_gate_check_only(self):
        model = RwfnPredicate(encoder=small_encoder(5), beta=make_rng(12).standard_normal(32))
        spec = model_to_spec(model)
        spec["format_version"] = 1
        del spec["encoder"]["fourier_checksum"], spec["encoder"]["phase_checksum"]
        clone = model_from_spec(spec)
        assert np.array_equal(clone.encoder.fourier, model.encoder.fourier)
        spec["encoder"]["gate_checksum"] = "0" * 64
        with pytest.raises(ValueError, match="gate checksum mismatch"):
            model_from_spec(spec)

    def test_label_truth_batch_matches_truth_of(self):
        domain = ["a", "b", "c"]
        p = LabelPredicate({("a", "b"): 0.25, ("c", "c"): 1, ("b", "a"): 0.5, ("z", "a"): 0.75, ("a",): 0.1},
                           default=0.125)
        args = np.array(list(itertools.product(range(3), repeat=2)))
        expected = [p.truth_of(tuple(domain[i] for i in row)) for row in args]
        assert p.truth_batch(args, {c: i for i, c in enumerate(domain)}).tolist() == expected

    @pytest.mark.parametrize("kind, param", [("rwfn", "beta"), ("ntn", "u"), ("ntn", "w"), ("ntn", "v"), ("ntn", "b")])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_parameter_refuses_to_load(self, kind, param, bad):
        model = RwfnPredicate.create(small_encoder(5)) if kind == "rwfn" else init_ntn(2, 4, make_rng(0))
        spec = model_to_spec(model)
        values = np.array(spec[param], dtype=np.float64)
        values.flat[-1] = bad
        spec[param] = values.tolist()
        with pytest.raises(ValueError, match=f"predicate 'partOf': parameter '{param}'"):
            model_from_spec(spec, name="partOf")

    def test_version_check(self):
        spec = model_to_spec(init_ntn(2, 4, make_rng(0)))
        spec["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_spec(spec)
