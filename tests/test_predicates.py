import hashlib
import json
import tracemalloc

import numpy as np
import pytest

from rwfn.data import SyntheticConfig, gen_synthetic
from rwfn.encoder import EncoderConfig, build_encoder, hidden_features
from rwfn.logic import GroundPlan, merge_theories
from rwfn.numerics import make_rng
from rwfn.predicates import (
    LabelPredicate,
    NtnPredicate,
    ParamCount,
    RwfnPredicate,
    block_rows,
    count_params,
    init_ntn,
    lifts,
    model_from_spec,
    model_to_spec,
    quadratic_lift,
    sigmoid,
    stack,
)
from rwfn.tasks import DEFAULT_K, build_partof_theory, build_type_theory

from oracles import truth_of


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


def truths(model, x):
    """The model's truths of the rows x, through the batch calls a plan runs."""
    return model.forward_batch(model.lift(x))[0]


def grads(model, x, upstream):
    x = model.lift(x)
    return model.gradient_batch(x, upstream, model.forward_batch(x)[1])


class TestRwfnForward:
    def test_zero_beta_is_half(self):
        model = RwfnPredicate.create(small_encoder())
        for seed in range(5):
            assert truths(model, make_rng(seed).random((1, 8))).tolist() == [0.5]

    def test_output_in_open_unit_interval(self):
        rng = make_rng(1)
        model = RwfnPredicate(encoder=small_encoder(), beta=rng.standard_normal(32))
        out = truths(model, rng.random((20, 8)))
        assert ((out > 0) & (out < 1)).all()

    def test_large_beta_saturates(self):
        enc = small_encoder()
        rng = make_rng(2)
        v = rng.random((1, 8))
        h = hidden_features(enc, v, "full", None)[0]
        beta = 1e6 * h  # beta . h = 1e6 |h|^2 > 0
        model = RwfnPredicate(encoder=enc, beta=beta)
        assert truths(model, v)[0] > 1.0 - 1e-9


class TestRwfnGradient:
    def test_zero_beta_quarter_h(self):
        enc = small_encoder()
        model = RwfnPredicate.create(enc)
        v = make_rng(3).random((1, 8))
        g = grads(model, v, np.ones(1))["beta"]
        assert np.allclose(g, 0.25 * hidden_features(enc, v, "full", None)[0])

    def test_zero_upstream(self):
        model = RwfnPredicate(encoder=small_encoder(), beta=make_rng(4).standard_normal(32))
        assert np.allclose(grads(model, make_rng(5).random((1, 8)), np.zeros(1))["beta"], 0.0)

    def test_matches_finite_differences(self):
        rng = make_rng(6)
        step = 1e-5
        for trial in range(20):
            model = RwfnPredicate(encoder=small_encoder(seed=trial), beta=rng.standard_normal(32))
            v = rng.random((1, 8))
            up = float(rng.normal())
            analytic = grads(model, v, np.array([up]))["beta"]
            numeric = np.empty_like(analytic)
            for i in range(32):
                saved = model.beta[i]
                model.beta[i] = saved + step
                hi = truths(model, v)[0]
                model.beta[i] = saved - step
                lo = truths(model, v)[0]
                model.beta[i] = saved
                numeric[i] = up * (hi - lo) / (2 * step)
            denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
            assert np.linalg.norm(analytic - numeric) / denom < 1e-4


class TestNtnForward:
    def test_all_zero_params(self):
        d = 4
        model = NtnPredicate(u=np.zeros(2), w=np.zeros((2, d, d)), v=np.zeros((2, d)), b=np.zeros(2))
        assert truths(model, np.ones((1, d))).tolist() == [0.5]

    def test_zero_u(self):
        rng = make_rng(7)
        model = NtnPredicate(u=np.zeros(3), w=rng.standard_normal((3, 4, 4)),
                             v=rng.standard_normal((3, 4)), b=rng.standard_normal(3))
        assert truths(model, rng.random((1, 4))).tolist() == [0.5]

    def test_scalar_reference_value(self):
        # k=1, W=0, V=e1^T, b=0, u=[1], input e1: sigma(tanh(1))
        d = 4
        vmat = np.zeros((1, d))
        vmat[0, 0] = 1.0
        model = NtnPredicate(u=np.array([1.0]), w=np.zeros((1, d, d)), v=vmat, b=np.zeros(1))
        e1 = np.zeros((1, d))
        e1[0, 0] = 1.0
        assert truths(model, e1)[0] == pytest.approx(sigmoid(np.tanh(1.0)))
        assert truths(model, e1)[0] == pytest.approx(0.6817, abs=1e-3)

    def test_input_width_validation(self):
        model = init_ntn(2, 4, make_rng(0))
        with pytest.raises(ValueError, match="input dim 5 != 4"):
            model.forward_batch(np.zeros((3, 5)))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            NtnPredicate(u=np.zeros(2), w=np.zeros((3, 4, 4)), v=np.zeros((2, 4)), b=np.zeros(2))


class TestNtnGradient:
    def test_zero_upstream(self):
        model = init_ntn(3, 8, make_rng(8))
        g = grads(model, make_rng(9).random((1, 8)), np.zeros(1))
        assert all(np.allclose(v, 0.0) for v in g.values())

    def test_zero_input_kills_w_and_v(self):
        model = init_ntn(3, 8, make_rng(10))
        g = grads(model, np.zeros((1, 8)), np.ones(1))
        assert np.allclose(g["w"], 0.0)
        assert np.allclose(g["v"], 0.0)
        assert not np.allclose(g["u"], 0.0)
        assert not np.allclose(g["b"], 0.0)

    def test_matches_finite_differences(self):
        step = 1e-5
        rng = make_rng(11)
        for trial in range(20):
            model = init_ntn(3, 8, make_rng(100 + trial))
            v = rng.random((1, 8))
            up = float(rng.normal())
            analytic = grads(model, v, np.array([up]))
            for pname, arr in model.learnable_params().items():
                numeric = np.empty_like(arr)
                flat, nflat = arr.ravel(), numeric.ravel()
                for i in range(flat.size):
                    saved = flat[i]
                    flat[i] = saved + step
                    hi = truths(model, v)[0]
                    flat[i] = saved - step
                    lo = truths(model, v)[0]
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


def at_block_edges(rows):
    return [1, rows - 1, rows, rows + 1, 2 * rows + 3]


def assert_matches_unblocked_oracle(k, d, n):
    rng = make_rng(n + 100 * d + 10_000 * k)
    model = init_ntn(k, d, rng)
    x, upstream = rng.random((n, d)), rng.standard_normal(n)
    hidden = ntn_hidden_oracle(model, x)
    out, saved = model.forward_batch(x)
    assert saved[1] is out
    assert_close_rel(saved[0], hidden)
    assert_close_rel(out, sigmoid(hidden @ model.u))
    expected = ntn_gradient_oracle(model, x, upstream)
    grads = model.gradient_batch(x, upstream, saved)
    assert grads.keys() == expected.keys()
    for name, g in grads.items():
        assert g.shape == model.learnable_params()[name].shape
        assert_close_rel(g, expected[name])


class TestNtnBlockedKernels:
    def test_block_bytes(self):
        # the part-of NTN (k=6, d=44) keeps its 1024-row blocks
        assert block_rows(6, 44) == 1024
        assert block_rows(72, 22) == 170  # twelve stacked k=6 heads at d=22
        assert block_rows(10**6, 44) == 1

    # rows around the part-of NTN's block edges, for every (k, d)
    @pytest.mark.parametrize("n", at_block_edges(block_rows(6, 44)))
    @pytest.mark.parametrize("d", [4, 44])
    @pytest.mark.parametrize("k", [1, 6])
    def test_match_unblocked_oracle(self, n, d, k):
        assert_matches_unblocked_oracle(k, d, n)

    # rows around each (k, d)'s own block edges
    @pytest.mark.parametrize("k, d", [(1, 4), (6, 4), (1, 44), (72, 22), (500, 3)])
    def test_match_unblocked_oracle_at_own_block_edges(self, k, d):
        for n in at_block_edges(block_rows(k, d)):
            assert_matches_unblocked_oracle(k, d, n)

    @pytest.mark.parametrize("n", at_block_edges(block_rows(12 * 6, 22)))
    def test_stack_matches_its_heads(self, n):
        # twelve k=6 heads at d=22 on plain rows, the blocked kernels
        rng = make_rng(n)
        heads = [init_ntn(6, 22, rng) for _ in range(12)]
        stacked, _ = stack(heads)
        x, upstream = rng.random((n, 22)), rng.standard_normal((n, 12))
        out, saved = stacked.forward_batch(x)
        hidden = saved[0]
        assert hidden.shape == (n, 72)
        assert_close_rel(hidden, np.hstack([ntn_hidden_oracle(m, x) for m in heads]))
        assert_close_rel(out, np.stack([sigmoid(ntn_hidden_oracle(m, x) @ m.u) for m in heads], axis=1))
        grads = stacked.gradient_batch(x, upstream, saved)
        for j, m in enumerate(heads):
            expected = ntn_gradient_oracle(m, x, upstream[:, j])
            got = {name: g[j] for name, g in grads.items()}
            assert got.keys() == expected.keys()
            for name, g in got.items():
                assert_close_rel(g, expected[name])
            assert all(np.array_equal(p[j], m.learnable_params()[name])
                       for name, p in stacked.learnable_params().items())

    def test_rwfn_stack_matches_its_heads(self):
        enc = build_encoder(EncoderConfig(input_dim=5, hidden_width=16, fan_in=2, seed=1))
        rng = make_rng(2)
        heads = [RwfnPredicate(enc, rng.standard_normal(32)) for _ in range(3)]
        stacked, _ = stack(heads)
        assert stacked.beta.shape == (3, 32) and stacked.encoder is enc
        x, upstream = rng.random((40, 5)), rng.standard_normal((40, 3))
        h = stacked.lift(x)  # the heads' one hidden layer
        assert np.array_equal(h, heads[0].lift(x))
        out, saved = stacked.forward_batch(h)
        grads = stacked.gradient_batch(h, upstream, saved)
        for j, m in enumerate(heads):
            p, own = m.forward_batch(h)
            assert_close_rel(out[:, j], p)
            assert_close_rel(grads["beta"][j], m.gradient_batch(h, upstream[:, j], own)["beta"])

    def test_rwfn_stack_truths_are_the_row_major_gemm(self):
        # bit for bit the GEMM of h and its heads' decoders as (2B, K)
        # columns; reading the (K, 2B) beta in place rounds differently here
        enc = build_encoder(EncoderConfig(input_dim=5, hidden_width=16, fan_in=2, seed=1))
        rng = make_rng(3)
        heads = [RwfnPredicate(enc, rng.standard_normal(32)) for _ in range(12)]
        columns = np.stack([m.beta for m in heads], axis=1)
        stacked, _ = stack(heads)
        h = stacked.lift(rng.random((40, 5)))
        assert np.array_equal(stacked.forward_batch(h)[0], sigmoid(h @ columns))

    # an RWFN, an NTN on the blocked kernels (15 > 2 * 4) and one that lifts
    # (15 < 6 * 4)
    @pytest.mark.parametrize("family, k", [("rwfn", None), ("ntn", 2), ("ntn", 6)], ids=["rwfn", "ntn", "ntn-lifted"])
    def test_stack_of_one_is_its_model(self, family, k):
        rng = make_rng(5)
        if family == "ntn":
            model = init_ntn(k, 4, rng)
            assert lifts(k, 4) == (k == 6)
        else:
            enc = build_encoder(EncoderConfig(input_dim=4, hidden_width=16, fan_in=2, seed=3))
            model = RwfnPredicate(enc, rng.standard_normal(32))
        x = rng.random((37, 4))
        upstream = rng.standard_normal(37)
        own = model.lift(x)
        p, saved = model.forward_batch(own)
        grads = model.gradient_batch(own, upstream, saved)
        stacked, _ = stack([model])
        rows = stacked.lift(x)
        assert np.array_equal(rows, own)
        out, state = stacked.forward_batch(rows)
        assert out.shape == (37, 1) and np.array_equal(out[:, 0], p)
        got = stacked.gradient_batch(rows, upstream[:, None], state)
        assert got.keys() == grads.keys()
        for name, g in got.items():
            assert g.shape == (1, *grads[name].shape) and np.array_equal(g[0], grads[name])
        # the model, now a view of the stack's row 0, still gives the same
        assert np.array_equal(model.forward_batch(own)[0], p)

    # K = 3 and K = 1: every stacked array leads with its K heads
    @pytest.mark.parametrize("family, k", [pytest.param("ntn", 3, id="ntn"), pytest.param("rwfn", 3, id="rwfn"),
                                           pytest.param("ntn", 1, id="ntn-one"), pytest.param("rwfn", 1, id="rwfn-one")])
    def test_members_are_views_of_their_heads(self, family, k):
        rng = make_rng(4)
        if family == "ntn":
            models = [init_ntn(3, 4, rng) for _ in range(k)]
        else:
            enc = build_encoder(EncoderConfig(input_dim=5, hidden_width=16, fan_in=2, seed=1))
            models = [RwfnPredicate(enc, rng.standard_normal(32)) for _ in range(k)]
        before = [{name: p.copy() for name, p in m.learnable_params().items()} for m in models]
        stacked, theta = stack(models)
        assert theta.dtype == np.float64 and theta.ndim == 1
        assert theta.size == sum(p.size for p in stacked.learnable_params().values())
        packed = {name: p.copy() for name, p in stacked.learnable_params().items()}
        for name, p in stacked.learnable_params().items():
            assert np.shares_memory(p, theta)
            assert p.shape == (k, *before[0][name].shape)
            for j, m in enumerate(models):  # head j is the contiguous row p[j]
                mine = m.learnable_params()[name]
                assert np.array_equal(mine, before[j][name]) and np.shares_memory(mine, theta)
                assert mine.flags.c_contiguous
                assert [np.shares_memory(mine, h) for h in p] == [i == j for i in range(len(models))]
        for p in stacked.learnable_params().values():
            p += 1.0  # an in-place step on the stack moves every member
        theta += 1.0  # and so does one on the vector
        for m, want in zip(models, before):
            for name, p in m.learnable_params().items():
                assert np.array_equal(p, want[name] + 1.0 + 1.0)
        for name, p in stacked.learnable_params().items():
            assert np.array_equal(p, packed[name] + 1.0 + 1.0)

    def test_stack_keys(self):
        enc = build_encoder(EncoderConfig(input_dim=5, hidden_width=16, fan_in=2, seed=1))
        other = build_encoder(EncoderConfig(input_dim=5, hidden_width=16, fan_in=2, seed=1))
        a, b = RwfnPredicate.create(enc), RwfnPredicate.create(enc)
        assert a.stack_key() == b.stack_key()
        assert a.stack_key() != RwfnPredicate.create(other).stack_key()  # an equal copy has its own cache
        assert a.stack_key() != RwfnPredicate.create(enc, mode="albm").stack_key()
        rng = make_rng(0)
        assert init_ntn(6, 4, rng).stack_key() == init_ntn(6, 4, rng).stack_key()
        assert init_ntn(6, 4, rng).stack_key() != init_ntn(5, 4, rng).stack_key()

    def test_memory_stays_at_block_size(self):
        # one (n, k, d) float64 temporary is 42 MB here; the unblocked kernels
        # peaked at about twice that
        n, d, k = 20_000, 44, 6
        rng = make_rng(3)
        model = init_ntn(k, d, rng)
        x, upstream = rng.random((n, d)), rng.standard_normal(n)
        bound = n * k * d * 8 // 4
        saved = model.forward_batch(x)[1]
        for call in (lambda: model.forward_batch(x), lambda: model.gradient_batch(x, upstream, saved)):
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound


class TestNtnLiftedKernels:
    def test_rule(self):
        assert not lifts(6, 16) and lifts(12 * 6, 16)  # a type class; the twelve stacked
        assert not lifts(6, 32) and not lifts(6, 44)     # the part-of NTN
        assert not lifts(3, 1) and lifts(4, 1)           # d(d+1)/2 + d + 1 = 3 at d = 1
        assert not lifts(3, 3) and lifts(4, 3)           # 10 against 9 and 12

    def test_lift_columns(self):
        x = make_rng(0).random((5, 3))
        lifted = quadratic_lift(x)
        assert lifted.shape == (5, 6 + 3 + 1)
        for row, want in zip(lifted, x):
            pairs = [want[i] * want[j] for i in range(3) for j in range(i, 3)]
            assert np.array_equal(row, np.concatenate([pairs, want, [1.0]]))

    # (heads, k, d) on both sides of the rule; heads=1 is a plain model
    @pytest.mark.parametrize("heads, k, d", [(1, 1, 4), (1, 6, 16), (1, 6, 44), (2, 1, 4), (2, 2, 3),
                                             (1, 6, 4), (1, 500, 3), (3, 2, 3), (12, 6, 16)])
    def test_plan_input_matches_unblocked_oracle(self, heads, k, d):
        rng = make_rng(heads + 10 * k + 1000 * d)
        models = [init_ntn(k, d, rng) for _ in range(heads)]
        model = models[0] if heads == 1 else stack(models)[0]
        n = 2 * block_rows(heads * k, d) + 3
        x, upstream = rng.random((n, d)), rng.standard_normal((n, heads))
        plan_x = model.lift(x)
        if lifts(heads * k, d):
            assert plan_x.shape == (n, d * (d + 1) // 2 + d + 1)
        else:
            assert plan_x is x
        out, saved = model.forward_batch(plan_x)
        hidden = saved[0]
        grads = model.gradient_batch(plan_x, upstream[:, 0] if heads == 1 else upstream, saved)
        if lifts(heads * k, d):  # one pair column gives dW_ij and dW_ji
            assert np.array_equal(grads["w"], np.swapaxes(grads["w"], -1, -2))
        for j, m in enumerate(models):
            want = ntn_hidden_oracle(m, x)
            assert_close_rel(hidden[:, j * k:(j + 1) * k], want)
            assert_close_rel(out if heads == 1 else out[:, j], sigmoid(want @ m.u))
            got = grads if heads == 1 else {name: g[j] for name, g in grads.items()}
            expected = ntn_gradient_oracle(m, x, upstream[:, j])
            assert got.keys() == expected.keys()
            for name, g in got.items():
                assert g.shape == m.learnable_params()[name].shape
                assert_close_rel(g, expected[name])

    @pytest.mark.parametrize("heads, k, d", [(1, 6, 4), (12, 6, 16)])
    def test_antisymmetric_w_leaves_the_linear_part(self, heads, k, d):
        # x, V and b are multiples of 1/8, so V x + b is exact in any
        # summation order; W = A - A^T folds to exact zeros
        rng = make_rng(d)
        models = []
        for _ in range(heads):
            a = rng.standard_normal((k, d, d))
            models.append(NtnPredicate(u=rng.standard_normal(k), w=a - a.transpose(0, 2, 1),
                                       v=rng.integers(-8, 9, (k, d)) / 8, b=rng.integers(-8, 9, k) / 8))
        model = models[0] if heads == 1 else stack(models)[0]
        assert lifts(heads * k, d)
        x = rng.integers(0, 9, (50, d)) / 8
        hidden = model.forward_batch(model.lift(x))[1][0]
        assert np.array_equal(hidden, np.tanh(np.hstack([x @ m.v.T + m.b for m in models])))

    @pytest.mark.parametrize("diagonal", [True, False], ids=["diagonal", "general"])
    def test_lifted_operand_reads_back_the_symmetric_part(self, diagonal):
        # the lifted rows of the identity read each operand column alone:
        # W_ii on the diagonal pairs, W_ij + W_ji off it, then V and b
        k, d = 6, 4
        rng = make_rng(5)
        w = rng.standard_normal((k, d, d))
        if diagonal:
            w *= np.eye(d)
        model = NtnPredicate(u=rng.standard_normal(k), w=w, v=rng.standard_normal((k, d)), b=rng.standard_normal(k))
        i, j = np.triu_indices(d)
        width = len(i) + d + 1
        assert lifts(k, d) and width == 15
        hidden = model.forward_batch(np.eye(width))[1][0]
        folded = np.where(i == j, w[:, i, j], w[:, i, j] + w[:, j, i])
        assert np.array_equal(hidden, np.tanh(np.hstack([folded, model.v, model.b[:, None]])).T)

    def test_plan_lifts_the_type_stack_only(self):
        # acceptance-shaped data: twelve classes over d=16 rows, k=6
        ds = gen_synthetic(SyntheticConfig(num_scenes=10, seed=3))
        assert (ds.n, len(ds.classes)) == (16, 12)
        theories = [build_type_theory(ds, c.name, init_ntn(DEFAULT_K, ds.n, make_rng(i)))
                    for i, c in enumerate(ds.classes)]
        rows = len(ds.records)
        stats = GroundPlan(merge_theories(theories), 100, make_rng(0)).stats()
        assert stats["cache_bytes"] == rows * (16 * 17 // 2 + 16 + 1) * 8
        # the others keep their argument rows
        assert GroundPlan(theories[0], 100, make_rng(0)).stats()["cache_bytes"] == rows * 16 * 8
        partof = build_partof_theory(ds, init_ntn(DEFAULT_K, 2 * ds.n, make_rng(0)))
        stats = GroundPlan(partof, 100, make_rng(0)).stats()
        assert stats["cache_bytes"] == stats["live_atoms"]["partOf"] * 32 * 8
        assert stats["live_atoms"]["partOf"] < stats["atoms"]["partOf"]


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
            out = truths(model, make_rng(1000 + seed).random((1, 64)))[0]
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
        # the learnable count is the decoder's length in every mode
        for mode in ("full", "albm", "rff"):
            m = RwfnPredicate.create(enc, mode=mode)
            assert count_params(m).learnable == m.beta.size

    # the paper's closed forms, (total, learnable): an NTN of k slices at
    # width n, and an RWFN at width n and hidden width B per encoder mode
    @pytest.mark.parametrize("n", [3, 16, 64])
    @pytest.mark.parametrize("b", [1, 16, 200])
    @pytest.mark.parametrize("k", [1, 6])
    def test_counts_match_the_closed_forms(self, n, b, k):
        ntn = (n * n + n + 2) * k
        assert count_params(init_ntn(k, n, make_rng(0))) == ParamCount(total=ntn, learnable=ntn)
        enc = build_encoder(EncoderConfig(input_dim=n, hidden_width=b, fan_in=2, seed=0))
        forms = {"full": ((2 * n + 3) * b, 2 * b), "albm": (n * b + b, b), "rff": (n * b + 2 * b, b)}
        for mode, (total, learnable) in forms.items():
            assert count_params(RwfnPredicate.create(enc, mode)) == ParamCount(total=total, learnable=learnable)

    def test_stack_counts_every_head_and_a_shared_encoder_once(self):
        enc = build_encoder(EncoderConfig(input_dim=16, hidden_width=200))
        decoders, _ = stack([RwfnPredicate.create(enc) for _ in range(12)])
        assert count_params(decoders) == ParamCount(total=11400, learnable=4800)  # 2nB + B + 12 * 2B
        heads, _ = stack([init_ntn(6, 16, make_rng(j)) for j in range(12)])
        assert count_params(heads) == ParamCount(total=19728, learnable=19728)  # 12 * (d^2 + d + 2)k

    def test_label_predicate_is_refused(self):
        # a label predicate is no model family: nothing counts its parameters
        with pytest.raises(TypeError, match="unknown model type LabelPredicate"):
            count_params(LabelPredicate({}))

    def test_learnable_bounded_by_total(self):
        with pytest.raises(ValueError):
            ParamCount(total=5, learnable=6)


class TestLabelPredicate:
    def test_lookup_and_default(self):
        p = LabelPredicate({("a",): 1.0})
        assert truth_of(p, ("a",)) == 1.0
        assert truth_of(p, ("b",)) == 0.0
        assert p.learnable_params() == {}
        assert p.symbolic


class TestSerialization:
    def test_rwfn_round_trip(self):
        model = RwfnPredicate(encoder=small_encoder(5), beta=make_rng(12).standard_normal(32))
        clone = model_from_spec(model_to_spec(model), name="model")
        v = make_rng(13).random((1, 8))
        assert np.array_equal(truths(clone, v), truths(model, v))
        assert np.array_equal(clone.beta, model.beta)

    def test_ntn_round_trip(self):
        model = init_ntn(3, 8, make_rng(14))
        clone = model_from_spec(model_to_spec(model), name="model")
        v = make_rng(15).random((1, 8))
        assert np.array_equal(truths(clone, v), truths(model, v))

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            model_from_spec({"format_version": 1, "kind": "mystery"}, name="model")

    def test_spec_format_is_pinned(self):
        # the model format is the spec's bytes: the sorted JSON of a fixed
        # NTN's and RWFN's specs is pinned by its sha256
        ntn = init_ntn(3, 4, make_rng(1))
        rwfn = RwfnPredicate(encoder=build_encoder(EncoderConfig(input_dim=5, hidden_width=6, fan_in=2, seed=2)),
                             beta=make_rng(3).standard_normal(12), mode="full")
        assert [hashlib.sha256(json.dumps(model_to_spec(m), sort_keys=True).encode()).hexdigest()
                for m in (ntn, rwfn)] == ["df872b5b006ed018ab1eb943428213db1d49a80f75acfd9521c4b45cba8803ce",
                                          "c39076d7163938b67f65cc37ccb6dd73cc75f7df2523feed60409e96a7e74f05"]

    @pytest.mark.parametrize("block", ["gate", "fourier", "phase"])
    def test_tampered_block_checksum_refuses_to_load(self, block):
        spec = model_to_spec(RwfnPredicate.create(small_encoder(5)))
        spec["encoder"][f"{block}_checksum"] = "0" * 64
        with pytest.raises(ValueError, match=f"{block} checksum mismatch"):
            model_from_spec(spec, name="model")

    def test_missing_block_checksum_refuses_to_load(self):
        spec = model_to_spec(RwfnPredicate.create(small_encoder(5)))
        del spec["encoder"]["fourier_checksum"]
        with pytest.raises(ValueError, match="lacks fourier_checksum"):
            model_from_spec(spec, name="model")

    def test_version_1_loads_with_gate_check_only(self):
        model = RwfnPredicate(encoder=small_encoder(5), beta=make_rng(12).standard_normal(32))
        spec = model_to_spec(model)
        spec["format_version"] = 1
        del spec["encoder"]["fourier_checksum"], spec["encoder"]["phase_checksum"]
        clone = model_from_spec(spec, name="model")
        assert np.array_equal(clone.encoder.fourier, model.encoder.fourier)
        spec["encoder"]["gate_checksum"] = "0" * 64
        with pytest.raises(ValueError, match="gate checksum mismatch"):
            model_from_spec(spec, name="model")

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

    def test_misshapen_parameters_refuse_to_load(self):
        spec = model_to_spec(RwfnPredicate.create(small_encoder(5)))
        spec["beta"] = spec["beta"][:-1]
        with pytest.raises(ValueError, match="predicate 'partOf': beta has shape"):
            model_from_spec(spec, name="partOf")
        rng = make_rng(0)
        spec = model_to_spec(init_ntn(2, 4, rng))
        stacked, _ = stack([init_ntn(2, 4, rng) for _ in range(3)])
        spec.update((name, p.tolist()) for name, p in stacked.learnable_params().items())
        with pytest.raises(ValueError, match="predicate 'partOf': parameters with a heads axis"):
            model_from_spec(spec, name="partOf")

    def test_ntn_fields_contradicting_its_arrays_refuse_to_load(self):
        spec = model_to_spec(init_ntn(2, 4, make_rng(0)))
        assert (spec["k"], spec["in_dim"]) == (2, 4)
        model_from_spec(spec, name="partOf")
        for field, value in (("k", 3), ("in_dim", 5), ("k", None)):
            with pytest.raises(ValueError, match="predicate 'partOf': k=.* disagree with parameters of 2 slices of "
                                                 "width 4"):
                model_from_spec({**spec, field: value}, name="partOf")

    def test_version_check(self):
        spec = model_to_spec(init_ntn(2, 4, make_rng(0)))
        spec["format_version"] = 99
        with pytest.raises(ValueError):
            model_from_spec(spec, name="model")
