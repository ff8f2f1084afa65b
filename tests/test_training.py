import numpy as np
import pytest

from rwfn import predicates, training
from rwfn.data import SyntheticConfig, gen_synthetic
from rwfn.encoder import EncoderConfig, build_encoder, hidden_features
from rwfn.logic import Atom, GroundedTheory, GroundPlan, KnowledgeBase, Not, merge_theories, parse_kb
from rwfn.numerics import make_rng
from rwfn.predicates import LabelPredicate, RwfnPredicate, init_ntn
from rwfn.training import (
    SharedEncoderRegistry,
    TrainConfig,
    TrainingError,
    TrainTrace,
    rmsprop_step,
    train,
    train_many,
)
from rwfn.tasks import build_partof_theory, make_rwfn_classifier

from oracles import batch_preds, satisfiability, stored_floats


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
        acc = np.zeros(1)
        theta = np.array([1.0])
        rmsprop_step(theta, np.array([1.0]), acc, cfg)
        assert acc[0] == pytest.approx(0.1)
        assert theta[0] - 1.0 == pytest.approx(-0.0316228, abs=1e-6)

    def test_zero_gradient_no_move(self):
        cfg = TrainConfig(epochs=1)
        theta = np.array([2.0, -3.0])
        rmsprop_step(theta, np.zeros(2), np.zeros(2), cfg)
        assert np.array_equal(theta, [2.0, -3.0])

    def test_constant_gradient_step_bound(self):
        # with constant g, acc_t = (1 - decay^t) g^2, so each |step| equals
        # lr*g/sqrt((1-decay^t)g^2 + eps) and approaches lr from above
        cfg = TrainConfig(epochs=1)
        acc = np.zeros(1)
        theta = np.array([0.0])
        g = np.array([2.0])
        prev_step = np.inf
        for t in range(1, 100):
            before = float(theta[0])
            rmsprop_step(theta, g, acc, cfg)
            step = abs(float(theta[0]) - before)
            bound = cfg.learning_rate * 2.0 / np.sqrt((1 - 0.9 ** t) * 4.0 + cfg.rmsprop_eps)
            assert step == pytest.approx(bound, rel=1e-9)
            assert step <= prev_step
            prev_step = step
        assert prev_step == pytest.approx(cfg.learning_rate, rel=1e-2)

    def test_shape_mismatch(self):
        cfg = TrainConfig(epochs=1)
        with pytest.raises(ValueError):
            rmsprop_step(np.zeros(2), np.zeros(3), np.zeros(2), cfg)


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

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            TrainConfig(seed=-5)

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_non_positive_eps_rejected(self, eps):
        with pytest.raises(ValueError, match="rmsprop_eps"):
            TrainConfig(rmsprop_eps=eps)

    @pytest.mark.parametrize("field, value", [("epochs", 2.5), ("epochs", True), ("epochs", "3"),
                                              ("instantiation_budget", 3.5), ("instantiation_budget", False),
                                              ("instantiation_budget", 0), ("instantiation_budget", -2),
                                              ("seed", 1.5), ("seed", True), ("seed", None)])
    def test_bad_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            TrainConfig(**{field: value})


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

    def test_predicate_without_atoms_takes_l2_steps(self):
        gt, _ = literal_theory([True, False])
        unused = init_ntn(2, 4, make_rng(1))
        gt.predicates["U"] = unused
        cfg = TrainConfig(epochs=5, l2=1e-3, seed=0)
        params = {k: p.copy() for k, p in unused.learnable_params().items()}
        for p in params.values():
            acc = np.zeros_like(p)
            for _ in range(cfg.epochs):
                rmsprop_step(p, 2.0 * cfg.l2 * p, acc, cfg)
        train(gt, cfg)
        for name, p in unused.learnable_params().items():
            assert np.array_equal(p, params[name])

    def test_part_of_ntn_stays_a_view_of_its_batch_vector(self, monkeypatch):
        ds = gen_synthetic(SyntheticConfig(num_scenes=3, seed=1))
        model = init_ntn(2, 2 * len(ds.records[0].features), make_rng(0))
        plans = []
        monkeypatch.setattr(training, "GroundPlan", lambda *a: plans.append(GroundPlan(*a)) or plans[-1])
        train(build_partof_theory(ds, model), TrainConfig(epochs=3, instantiation_budget=20))
        [batch] = plans[0].batches
        assert batch.members == [model]
        for name, p in model.learnable_params().items():
            assert np.shares_memory(p, batch.theta)
            assert np.array_equal(p[None], batch.model.learnable_params()[name])  # a stack of one head

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
        assert obj == {"epoch": [0], "loss": [0.5], "sat": [0.5]}


class TestSharing:
    def test_registry_idempotent(self, monkeypatch):
        built = []
        monkeypatch.setattr(training, "build_encoder", lambda c: built.append(c) or build_encoder(c))
        reg = SharedEncoderRegistry()
        cfg = EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=0)
        assert reg.get_or_build(cfg) is reg.get_or_build(cfg)
        assert built == [cfg]

    @pytest.mark.parametrize("field, value", [("kernel_scale", 4.0), ("inhibition_strength", 0.5)])
    def test_registry_keys_by_the_whole_config(self, field, value):
        # configs that differ only in a scale draw different encoders
        reg = SharedEncoderRegistry()
        base = EncoderConfig(8, 16, fan_in=3, seed=0)
        other = EncoderConfig(8, 16, fan_in=3, seed=0, **{field: value})
        a, b = reg.get_or_build(base), reg.get_or_build(other)
        assert a is not b
        assert a.config == base and b.config == other
        assert b is reg.get_or_build(EncoderConfig(8, 16, fan_in=3, seed=0, **{field: value}))
        x = make_rng(1).random((3, 8))
        assert np.array_equal(hidden_features(b, x, "full", None),
                              hidden_features(build_encoder(other), x, "full", None))
        assert not np.array_equal(hidden_features(a, x, "full", None), hidden_features(b, x, "full", None))

    def test_shared_encode_identical(self):
        reg = SharedEncoderRegistry()
        cfg = EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=0)
        a = RwfnPredicate.create(reg.get_or_build(cfg))
        b = RwfnPredicate.create(reg.get_or_build(cfg))
        v = make_rng(0).random((1, 8))
        assert np.array_equal(hidden_features(a.encoder, v, "full", None), hidden_features(b.encoder, v, "full", None))

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
        for gt in shared_theories:
            train(gt, TrainConfig(epochs=25, seed=1))

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

    def test_train_many_private_encoders_match_train(self):
        # which theories train together is the caller's choice (run_types):
        # two private encoders run as two batches, each as train() runs it
        traces = assert_lockstep_matches(
            lambda: [literal_theory([True, False, True], seed=seed)[0] for seed in (1, 2)],
            TrainConfig(epochs=30, seed=4), preds=("P",))
        assert traces[0].lockstep["cache_bytes"] == 2 * 3 * 16 * 8

    def test_train_many_single_theory_degenerates(self):
        gt, model = literal_theory([True], seed=5)
        gt2, model2 = literal_theory([True], seed=5)
        (trace,) = train_many([gt], TrainConfig(epochs=10, seed=0))
        trace2 = train(gt2, TrainConfig(epochs=10, seed=0))
        assert np.array_equal(model.beta, model2.beta)
        assert (trace.loss, trace.sat, trace.plan) == (trace2.loss, trace2.sat, trace2.plan)
        assert trace.lockstep is None

    def test_stored_float_count(self):
        # the arrays that i real classifiers keep, with one shared encoder
        # or a private one each
        n, b = 64, 200
        counts = {}
        for i in (1, 5, 11):
            reg = SharedEncoderRegistry()
            shared = [make_rwfn_classifier(n, b, seed=0, mode="full", registry=reg) for _ in range(i)]
            private = [make_rwfn_classifier(n, b, seed=j, mode="full", registry=None) for j in range(i)]
            counts[i] = stored_floats(shared), stored_floats(private)
            assert counts[i][0] == 2 * n * b + b + 2 * b * i
            assert counts[i][1] == (2 * n + 3) * b * i
        # sharing always wins for i >= 2
        assert counts[11][0] < counts[11][1]


# ---------------------------------------------------------------------------
# Lockstep training against one train() per theory

POOL = [f"c{i}" for i in range(8)]
VECTORS = {c: make_rng(900 + i).random(3) for i, c in enumerate(POOL)}


def generated_theory(seed: int, kind: str, encoder=None, constants=POOL, quantified=True, k=2) -> GroundedTheory:
    """A literal of a learnable P for each constant, in order, and with
    `quantified` a label predicate L and axioms whose two-variable
    quantifiers sample at budget 20 < |D|^2. P's atoms come in the same
    order in any two of these theories over the same constants. An NTN P
    has k slices. A learnable U has no atoms and moves by its L2 term
    alone."""
    rng = make_rng(seed)
    if kind == "ntn":
        model = init_ntn(k, 3, rng)
    else:
        model = RwfnPredicate(encoder, 0.1 * rng.standard_normal(16))
    lines = ["pred P/1", "pred L/1"]
    for c in constants:
        lines.append(f"P({c})" if rng.random() < 0.5 else f"~P({c})")
    if quantified:
        lines += ["forall x: L(x) -> P(x)", "forall x,y: (P(x) & L(y)) -> ~P(y)", "exists x,y: P(x) & ~P(y)"]
    labels = LabelPredicate({(c,): float(rng.random() < 0.5) for c in constants})
    return GroundedTheory(kb=parse_kb("\n".join(lines)), constants={c: VECTORS[c] for c in constants},
                          predicates={"P": model, "L": labels, "U": init_ntn(2, 3, rng)})


def two_predicate_theory(seed: int) -> GroundedTheory:
    """Learnable NTN predicates Q and P of one shape over the same atoms,
    listed in the predicates as Q, P but first met in the formulas as P, Q."""
    rng = make_rng(seed)
    p, q = init_ntn(2, 3, rng), init_ntn(2, 3, rng)
    lines = ["pred P/1", "pred Q/1"] + [f"P({c}) -> ~Q({c})" for c in POOL] + ["exists x: P(x) & Q(x)"]
    return GroundedTheory(kb=parse_kb("\n".join(lines)), constants=dict(VECTORS), predicates={"Q": q, "P": p})


def assert_lockstep_matches(build, cfg, preds=("P", "U")):
    """build() makes the same fresh theories each call."""
    lockstep, alone = build(), build()
    traces = train_many(lockstep, cfg)
    for gt, ref, trace in zip(lockstep, alone, traces):
        expected = train(ref, cfg)
        assert np.allclose(trace.loss, expected.loss, rtol=0.0, atol=1e-12)
        assert np.allclose(trace.sat, expected.sat, rtol=0.0, atol=1e-12)
        assert trace.plan == {key: expected.plan[key] for key in ("atoms", "live_atoms", "roots", "quantifiers")}
        for pred in preds:
            params, want = gt.predicates[pred].learnable_params(), ref.predicates[pred].learnable_params()
            assert params.keys() == want.keys()
            for name in params:
                assert params[name].shape == want[name].shape
                assert np.allclose(params[name], want[name], rtol=0.0, atol=1e-12)
    return traces


class TestTrainMany:
    CFG = TrainConfig(epochs=30, learning_rate=0.05, instantiation_budget=20, seed=4)

    @pytest.mark.parametrize("seed", range(3))
    def test_ntn_stack_matches_train(self, seed):
        traces = assert_lockstep_matches(
            lambda: [generated_theory(seed * 10 + i, "ntn") for i in range(4)], self.CFG)
        # four k=2 heads at d=3 run on lifted rows, d(d+1)/2 + d + 1 = 10 wide
        assert traces[0].lockstep["cache_bytes"] == len(POOL) * 10 * 8

    @pytest.mark.parametrize("theories", [2, 3, 12])
    def test_ntn_stack_matches_train_on_both_sides_of_the_lift(self, theories):
        # 2 heads of k=1 keep the blocked kernels (10 > 2*1*3); 3 and 12 of
        # k=2 lift, as the twelve type classes do
        k = 1 if theories == 2 else 2
        traces = assert_lockstep_matches(
            lambda: [generated_theory(50 + i, "ntn", k=k) for i in range(theories)], self.CFG)
        assert traces[0].lockstep["cache_bytes"] == len(POOL) * (3 if theories == 2 else 10) * 8

    def test_lift_is_built_once_per_plan(self, monkeypatch):
        calls = []
        quadratic_lift = predicates.quadratic_lift
        monkeypatch.setattr(predicates, "quadratic_lift", lambda x: calls.append(len(x)) or quadratic_lift(x))
        train_many([generated_theory(i, "ntn") for i in range(4)], TrainConfig(epochs=5, instantiation_budget=20))
        assert calls == [len(POOL)]

    @pytest.mark.parametrize("seed", range(3))
    def test_shared_encoder_stack_matches_train(self, seed):
        enc = build_encoder(EncoderConfig(input_dim=3, hidden_width=8, fan_in=2, seed=seed))
        traces = assert_lockstep_matches(
            lambda: [generated_theory(seed * 10 + i, "rwfn", enc) for i in range(4)], self.CFG)
        # one (|D|, 2B) cache for all four decoders
        assert traces[0].lockstep["cache_bytes"] == len(POOL) * 16 * 8

    @pytest.mark.parametrize("kind", ["ntn", "rwfn"])
    def test_different_constant_sets(self, kind):
        # lockstep parts share the plan's one domain
        enc = build_encoder(EncoderConfig(input_dim=3, hidden_width=8, fan_in=2, seed=1))
        theories = [generated_theory(20 + i, kind, enc, constants=c) for i, c in enumerate([POOL, POOL[:5]])]
        with pytest.raises(ValueError, match="theory 1 is over other constants than theory 0"):
            train_many(theories, TrainConfig(epochs=1))

    def test_same_rows_share_one_stacked_batch(self):
        enc = build_encoder(EncoderConfig(input_dim=3, hidden_width=8, fan_in=2, seed=1))
        for kind in ("ntn", "rwfn"):
            plan = GroundPlan(merge_theories([generated_theory(i, kind, enc) for i in range(4)]), 20, make_rng(0))
            # U has no atoms; the four P read the same rows
            assert batch_preds(plan) == [[(i, "P") for i in range(4)]]
        # the same constants with P's literals in another order: P's atoms
        # come in another order, so the two read different rows
        orders = [POOL, POOL[::-1]]
        plan = GroundPlan(merge_theories([generated_theory(i, "rwfn", enc, constants=c)
                                          for i, c in enumerate(orders)]), 20, make_rng(0))
        assert batch_preds(plan) == [[(0, "P")], [(1, "P")]]

    def test_one_theory_stacks_its_same_key_predicates(self):
        # P and Q share a shape and read the same rows: they stack inside
        # one theory as across theories
        theories = [two_predicate_theory(i) for i in range(2)]
        assert batch_preds(GroundPlan(theories[0], 20, make_rng(0))) == [[(0, "P"), (0, "Q")]]
        merged = GroundPlan(merge_theories(theories), 20, make_rng(0))
        assert batch_preds(merged) == [[(0, "P"), (0, "Q"), (1, "P"), (1, "Q")]]
        assert_lockstep_matches(lambda: [two_predicate_theory(i) for i in range(3)], self.CFG, preds=("P", "Q"))

    def test_shared_encoder_predicates_of_one_theory_share_one_cache(self):
        # Q's encoder is P's, or an equal copy that keeps the two unstacked
        def build(shared):
            cfg = EncoderConfig(input_dim=3, hidden_width=8, fan_in=2, seed=5)
            enc = build_encoder(cfg)
            rng = make_rng(6)
            p = RwfnPredicate(enc, 0.1 * rng.standard_normal(16))
            q = RwfnPredicate(enc if shared else build_encoder(cfg), 0.1 * rng.standard_normal(16))
            lines = ["pred P/1", "pred Q/1"] + [f"P({c}) -> ~Q({c})" for c in POOL] + ["exists x: P(x) & Q(x)"]
            return GroundedTheory(kb=parse_kb("\n".join(lines)), constants=dict(VECTORS),
                                  predicates={"P": p, "Q": q})

        shared, private = (GroundPlan(build(s), 20, make_rng(0)) for s in (True, False))
        assert batch_preds(shared) == [[(0, "P"), (0, "Q")]]
        assert batch_preds(private) == [[(0, "P")], [(0, "Q")]]
        assert 2 * shared.stats()["cache_bytes"] == private.stats()["cache_bytes"] == 2 * len(POOL) * 16 * 8
        (sat,), (grads,) = shared.satisfiability_with_grads()
        (want,), private_grads = private.satisfiability_with_grads()
        assert abs(sat - want) <= 1e-12
        # a stack of RWFN decoders holds head j in beta[j]; each private
        # batch is a stack of one head
        for j, g in enumerate(private_grads):
            assert np.allclose(grads["beta"][j], g["beta"][0], rtol=0.0, atol=1e-12)
        a, b = build(True), build(False)
        train(a, self.CFG)
        train(b, self.CFG)
        for pred in ("P", "Q"):
            assert np.allclose(a.predicates[pred].beta, b.predicates[pred].beta, rtol=0.0, atol=1e-12)

    def test_l2_adds_in_predicate_order(self):
        # Q comes first in the predicates, P first in the formulas; at this
        # seed the two orders of the sum give losses a bit apart
        gt = two_predicate_theory(1)
        params = [p.copy() for m in gt.learnable_predicates().values() for p in m.learnable_params().values()]
        squares = [float(np.sum(p * p)) for p in params]
        half = len(squares) // 2
        trace = train(gt, TrainConfig(epochs=1, l2=1.0, instantiation_budget=20))
        assert trace.loss[0] == (1.0 - trace.sat[0]) + sum(squares)
        assert trace.loss[0] != (1.0 - trace.sat[0]) + sum(squares[half:] + squares[:half])

    @pytest.mark.parametrize("kind", ["ntn", "rwfn"])
    def test_lockstep_l2_sums_each_theory_alone(self, kind, monkeypatch):
        # four P heads stack on axis 0 (NTN) or axis 1 (shared-encoder
        # RWFN); each theory's atom-less U is a model of its own. Decoders
        # of 128 weights sum their squares pairwise, so a sum down the
        # stack's strided columns would differ in the last bits
        enc = build_encoder(EncoderConfig(input_dim=3, hidden_width=64, fan_in=2, seed=2))
        theories = [generated_theory(60 + i, kind, enc) for i in range(4)]
        for i, gt in enumerate(theories):
            if kind == "rwfn":
                gt.predicates["P"] = RwfnPredicate(enc, make_rng(70 + i).standard_normal(128))
        params = [[p.copy() for m in gt.learnable_predicates().values() for p in m.learnable_params().values()]
                  for gt in theories]
        vectors = []
        step = training.rmsprop_step
        monkeypatch.setattr(training, "rmsprop_step",
                            lambda theta, g, a, cfg: vectors.append(theta) or step(theta, g, a, cfg))
        cfg = TrainConfig(epochs=3, l2=1.0, instantiation_budget=20)
        traces = train_many(theories, cfg)
        for trace, own in zip(traces, params):
            assert trace.loss[0] == (1.0 - trace.sat[0]) + sum(float(np.sum(p * p)) for p in own)
        # one step per model and epoch, each over one vector that every
        # array of the model's members is a view of
        assert len(vectors) == cfg.epochs * 5
        stack, *own_vectors = vectors[-5:]
        members = [gt.predicates["P"] for gt in theories]
        assert stack.ndim == 1 and stack.size == sum(p.size for m in members for p in m.learnable_params().values())
        for gt, vec in zip(theories, own_vectors):
            for p in gt.predicates["P"].learnable_params().values():
                assert np.shares_memory(p, stack) and not np.shares_memory(p, vec)
            for p in gt.predicates["U"].learnable_params().values():
                assert np.shares_memory(p, vec) and not np.shares_memory(p, stack)
        for a, b in zip(members, members[1:]):
            assert not any(np.shares_memory(p, q) for p in a.learnable_params().values()
                           for q in b.learnable_params().values())

    def test_closed_theories_of_different_lengths(self):
        def build():
            theories = [generated_theory(30 + i, "ntn", quantified=False) for i in range(3)]
            for i, gt in enumerate(theories):
                del gt.kb.formulas[3 + i:]  # literals of the first 3 + i constants
            return theories

        assert_lockstep_matches(build, self.CFG)

    def test_traces_split_the_epoch_and_describe_their_own_part(self):
        theories = [generated_theory(40 + i, "ntn") for i in range(3)]
        traces = train_many(theories, TrainConfig(epochs=5, instantiation_budget=20, seed=0))
        for epoch in range(5):
            # one float object, a third of the epoch, in every trace
            assert traces[0].ms[epoch] is traces[1].ms[epoch] is traces[2].ms[epoch]
        assert all(tr.lockstep is traces[0].lockstep for tr in traces)
        assert traces[0].lockstep["parts"] == 3
        assert traces[0].lockstep["roots"] == sum(gt.kb.root_count() for gt in theories)
        for gt, tr in zip(theories, traces):
            assert tr.plan["atoms"] == {"P": len(POOL), "L": len(POOL)}
            assert tr.plan["roots"] == gt.kb.root_count()
            assert [q["formula"] for q in tr.plan["quantifiers"]] == [len(POOL) + i for i in range(3)]

    def test_empty_list_rejected(self):
        with pytest.raises(TrainingError, match="no theories"):
            train_many([], TrainConfig(epochs=1))

    def test_theory_without_learnable_predicate_rejected(self):
        symbolic = GroundedTheory(
            kb=KnowledgeBase(signatures={"L": 1}, formulas=[Atom("L", ("c0",))]),
            constants={"c0": VECTORS["c0"]},
            predicates={"L": LabelPredicate({("c0",): 1.0})},
        )
        with pytest.raises(TrainingError, match="theory 1 has no learnable parameters"):
            train_many([generated_theory(0, "ntn"), symbolic], TrainConfig(epochs=1))

    def test_constant_with_two_vectors_rejected(self):
        a, b = generated_theory(0, "ntn"), generated_theory(1, "ntn")
        b.constants["c2"] = VECTORS["c2"] + 1.0
        with pytest.raises(ValueError, match="constant 'c2' is bound to different vectors"):
            train_many([a, b], TrainConfig(epochs=1))
