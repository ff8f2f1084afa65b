import numpy as np
import pytest

from rwfn.encoder import EncoderConfig, build_encoder, encode
from rwfn.logic import Atom, GroundedTheory, KnowledgeBase, Not, satisfiability
from rwfn.numerics import make_rng
from rwfn.predicates import RwfnPredicate
from rwfn.training import (
    RmsPropState,
    SharedEncoderRegistry,
    TrainConfig,
    TrainingError,
    TrainTrace,
    rmsprop_step,
    stored_float_count,
    train,
    train_multi_shared,
)


def literal_theory(spec, seed=0, input_dim=4, b=8):
    enc = build_encoder(EncoderConfig(input_dim=input_dim, hidden_width=b, fan_in=2, seed=seed))
    model = RwfnPredicate.create(enc)
    kb = KnowledgeBase(signatures={"P": 1})
    constants = {}
    for i, positive in enumerate(spec):
        cid = f"c{i}"
        constants[cid] = make_rng(500 + i).random(input_dim)
        atom = Atom("P", (cid,))
        kb.formulas.append(atom if positive else Not(atom))
    return GroundedTheory(kb=kb, constants=constants, predicates={"P": model}), model


class TestRmsProp:
    def test_single_step_reference(self):
        cfg = TrainConfig(epochs=1, learning_rate=0.01, rmsprop_decay=0.9, rmsprop_eps=1e-8)
        state = RmsPropState()
        params = {"theta": np.array([1.0])}
        grads = {"theta": np.array([1.0])}
        new = rmsprop_step(params, grads, state, cfg)
        assert state.acc["theta"][0] == pytest.approx(0.1)
        assert new["theta"][0] - 1.0 == pytest.approx(-0.0316228, abs=1e-6)

    def test_zero_gradient_no_move(self):
        cfg = TrainConfig(epochs=1)
        state = RmsPropState()
        params = {"theta": np.array([2.0, -3.0])}
        new = rmsprop_step(params, {"theta": np.zeros(2)}, state, cfg)
        assert np.array_equal(new["theta"], params["theta"])

    def test_constant_gradient_step_bound(self):
        # with constant g, acc_t = (1 - decay^t) g^2, so each |step| equals
        # lr*g/sqrt((1-decay^t)g^2 + eps) and approaches lr from above
        cfg = TrainConfig(epochs=1)
        state = RmsPropState()
        theta = np.array([0.0])
        g = {"theta": np.array([2.0])}
        prev_step = np.inf
        for t in range(1, 100):
            new = rmsprop_step({"theta": theta}, g, state, cfg)
            step = abs(float(new["theta"][0] - theta[0]))
            bound = cfg.learning_rate * 2.0 / np.sqrt((1 - 0.9 ** t) * 4.0 + cfg.rmsprop_eps)
            assert step == pytest.approx(bound, rel=1e-9)
            assert step <= prev_step
            prev_step = step
            theta = new["theta"]
        assert prev_step == pytest.approx(cfg.learning_rate, rel=1e-2)

    def test_shape_mismatch(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            rmsprop_step({"t": np.zeros(2)}, {"t": np.zeros(3)}, RmsPropState(), cfg)


class TestTrainConfig:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_negative_l2_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(l2=-1.0)

    def test_bad_decay(self):
        with pytest.raises(ValueError):
            TrainConfig(rmsprop_decay=1.0)

    @pytest.mark.parametrize("field", ["l2", "learning_rate", "rmsprop_eps"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="rmsprop_eps"):
            TrainConfig(rmsprop_eps=eps)


class TestTrain:
    def test_sat_strictly_increases_single_literal(self):
        gt, _ = literal_theory([True])
        trace = train(gt, TrainConfig(epochs=50, seed=0))
        sats = trace.sat
        assert all(b > a for a, b in zip(sats, sats[1:]))

    def test_lambda_near_vestigial(self):
        gt0, m0 = literal_theory([True, False, True], seed=3)
        gt1, m1 = literal_theory([True, False, True], seed=3)
        train(gt0, TrainConfig(epochs=100, l2=0.0, seed=1))
        train(gt1, TrainConfig(epochs=100, l2=1e-10, seed=1))
        rel = np.linalg.norm(m0.beta - m1.beta) / np.linalg.norm(m0.beta)
        assert rel < 1e-3

    def test_trace_lengths(self):
        gt, _ = literal_theory([True, False])
        trace = train(gt, TrainConfig(epochs=7, seed=0))
        assert len(trace.loss) == len(trace.sat) == len(trace.ms) == 7

    def test_loss_matches_one_minus_sat(self):
        gt, _ = literal_theory([True])
        trace = train(gt, TrainConfig(epochs=3, l2=0.0, seed=0))
        gt2, _ = literal_theory([True])
        assert trace.loss[0] == pytest.approx(1.0 - satisfiability(gt2))

    def test_deterministic_given_seed(self):
        gt0, m0 = literal_theory([True, False], seed=2)
        gt1, m1 = literal_theory([True, False], seed=2)
        t0 = train(gt0, TrainConfig(epochs=20, seed=4))
        t1 = train(gt1, TrainConfig(epochs=20, seed=4))
        assert t0.sat == t1.sat
        assert np.array_equal(m0.beta, m1.beta)

    def test_no_learnable_params_rejected(self):
        from rwfn.predicates import LabelPredicate

        gt = GroundedTheory(
            kb=KnowledgeBase(signatures={"P": 1}, formulas=[Atom("P", ("a",))]),
            constants={"a": np.zeros(2)},
            predicates={"P": LabelPredicate({("a",): 1.0})},
        )
        with pytest.raises(TrainingError):
            train(gt, TrainConfig(epochs=1))

    def test_encoder_frozen_through_training(self):
        gt, model = literal_theory([True, False, True])
        gate0 = model.encoder.gate.copy()
        fourier0 = model.encoder.fourier.copy()
        train(gt, TrainConfig(epochs=30, seed=0))
        assert np.array_equal(model.encoder.gate, gate0)
        assert np.array_equal(model.encoder.fourier, fourier0)

    def test_trace_json_excludes_timing_by_default(self):
        trace = TrainTrace(loss=[0.5], sat=[0.5], ms=[1.2])
        obj = trace.to_json()
        assert "ms" not in obj
        assert trace.to_json(include_ms=True)["ms"] == [1.2]


class TestSharing:
    def test_registry_idempotent(self):
        reg = SharedEncoderRegistry()
        cfg = EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=0)
        assert reg.get_or_build(cfg) is reg.get_or_build(cfg)
        assert len(reg) == 1

    def test_shared_encode_identical(self):
        reg = SharedEncoderRegistry()
        cfg = EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=0)
        a = RwfnPredicate.create(reg.get_or_build(cfg))
        b = RwfnPredicate.create(reg.get_or_build(cfg))
        v = make_rng(0).random(8)
        assert np.array_equal(encode(a.encoder, v), encode(b.encoder, v))

    def test_shared_training_bit_identical_to_private(self):
        # same seed, shared vs private encoders: decoders must agree exactly
        reg = SharedEncoderRegistry()
        cfg = EncoderConfig(input_dim=4, hidden_width=8, fan_in=2, seed=7)
        shared_models, shared_theories = [], []
        for spec in ([True, False], [False, True, True]):
            model = RwfnPredicate.create(reg.get_or_build(cfg))
            kb = KnowledgeBase(signatures={"P": 1})
            constants = {}
            for i, positive in enumerate(spec):
                cid = f"c{i}"
                constants[cid] = make_rng(700 + i).random(4)
                atom = Atom("P", (cid,))
                kb.formulas.append(atom if positive else Not(atom))
            shared_theories.append(GroundedTheory(kb=kb, constants=constants, predicates={"P": model}))
            shared_models.append(model)
        train_multi_shared(shared_theories, TrainConfig(epochs=25, seed=1))

        for spec, shared_model in zip(([True, False], [False, True, True]), shared_models):
            model = RwfnPredicate.create(build_encoder(cfg))
            kb = KnowledgeBase(signatures={"P": 1})
            constants = {}
            for i, positive in enumerate(spec):
                cid = f"c{i}"
                constants[cid] = make_rng(700 + i).random(4)
                atom = Atom("P", (cid,))
                kb.formulas.append(atom if positive else Not(atom))
            train(GroundedTheory(kb=kb, constants=constants, predicates={"P": model}),
                  TrainConfig(epochs=25, seed=1))
            assert np.array_equal(model.beta, shared_model.beta)

    def test_multi_shared_requires_one_encoder(self):
        theories = []
        for seed in (1, 2):
            gt, _ = literal_theory([True], seed=seed)
            theories.append(gt)
        with pytest.raises(TrainingError):
            train_multi_shared(theories, TrainConfig(epochs=1))

    def test_multi_shared_single_theory_degenerates(self):
        gt, model = literal_theory([True], seed=5)
        gt2, model2 = literal_theory([True], seed=5)
        train_multi_shared([gt], TrainConfig(epochs=10, seed=0))
        train(gt2, TrainConfig(epochs=10, seed=0))
        assert np.array_equal(model.beta, model2.beta)

    def test_stored_float_count(self):
        n, b = 64, 200
        for i in (1, 5, 11):
            assert stored_float_count(n, b, i, shared=True) == 2 * n * b + b + 2 * b * i
            assert stored_float_count(n, b, i, shared=False) == (2 * n + 3) * b * i
        # sharing always wins for i >= 2
        assert stored_float_count(n, b, 11, True) < stored_float_count(n, b, 11, False)
