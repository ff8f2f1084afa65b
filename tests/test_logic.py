import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwfn.data import SyntheticConfig, gen_synthetic
from rwfn.encoder import EncoderConfig, build_encoder
from rwfn.logic import (
    Atom,
    And,
    Exists,
    ForAll,
    Formula,
    GroundedTheory,
    GroundPlan,
    Implies,
    KbSyntaxError,
    KnowledgeBase,
    Not,
    Or,
    eval_formula,
    hmean,
    luk_and,
    luk_implies,
    luk_not,
    luk_or,
    parse_kb,
    satisfiability,
    satisfiability_gradient,
)
from rwfn.numerics import make_rng
from rwfn.predicates import LabelPredicate, RwfnPredicate
from rwfn.tasks import build_partof_theory, make_ltn_classifier, make_rwfn_classifier

unit = st.floats(0.0, 1.0, allow_nan=False)


# ---------------------------------------------------------------------------
# Parser


class TestParser:
    def test_asymmetry_axiom(self):
        kb = parse_kb("pred partOf/2\nforall x,y: partOf(x,y) -> ~partOf(y,x)\n")
        f = kb.formulas[0]
        assert isinstance(f, ForAll) and f.variables == ("x", "y")
        assert f.body == Implies(Atom("partOf", ("x", "y")), Not(Atom("partOf", ("y", "x"))))

    def test_closed_literal(self):
        kb = parse_kb("pred Cat/1\nCat(b1)\n")
        assert kb.formulas == [Atom("Cat", ("b1",))]

    def test_arity_mismatch(self):
        with pytest.raises(KbSyntaxError):
            parse_kb("pred partOf/2\npartOf(x)\n")

    def test_unknown_predicate(self):
        with pytest.raises(KbSyntaxError, match="unknown predicate"):
            parse_kb("pred Cat/1\nDog(b1)\n")

    def test_error_carries_position(self):
        with pytest.raises(KbSyntaxError) as e:
            parse_kb("pred Cat/1\n\nCat(b1) Cat(b2)\n")
        assert e.value.line == 3 and e.value.col > 1

    def test_precedence(self):
        kb = parse_kb("pred P/1\n~P(a) & P(b) | P(c) -> P(d)\n")
        f = kb.formulas[0]
        # -> binds loosest, then |, then &, then ~
        assert isinstance(f, Implies)
        assert isinstance(f.left, Or)
        assert isinstance(f.left.left, And)
        assert f.left.left.left == Not(Atom("P", ("a",)))

    def test_right_assoc_implies(self):
        f = parse_kb("pred P/1\nP(a) -> P(b) -> P(c)\n").formulas[0]
        assert isinstance(f.right, Implies)

    def test_parentheses(self):
        f = parse_kb("pred P/1\nP(a) & (P(b) | P(c))\n").formulas[0]
        assert isinstance(f, And) and isinstance(f.right, Or)

    def test_comments_and_blank_lines(self):
        kb = parse_kb("# header\npred P/1\n\nP(a)  # trailing\n")
        assert len(kb.formulas) == 1

    def test_exists(self):
        f = parse_kb("pred P/1\nexists x: P(x)\n").formulas[0]
        assert isinstance(f, Exists)

    def test_quantifier_scopes_variables(self):
        f = parse_kb("pred P/2\nforall x: P(x, b1)\n").formulas[0]
        assert f.body.args == ("x", "b1")


# ---------------------------------------------------------------------------
# Connectives


class TestConnectives:
    def test_and_example(self):
        assert luk_and(0.8, 0.7) == pytest.approx(0.5)

    def test_implies_example(self):
        assert luk_implies(0.9, 0.2) == pytest.approx(0.3)

    def test_boundaries(self):
        assert luk_not(0.0) == 1.0
        assert luk_and(1.0, 1.0) == 1.0
        assert luk_or(0.0, 0.0) == 0.0

    def test_range_check(self):
        with pytest.raises(ValueError):
            luk_not(1.5)

    @given(unit, unit)
    @settings(max_examples=500)
    def test_commutativity(self, a, b):
        assert abs(luk_and(a, b) - luk_and(b, a)) <= 1e-12
        assert abs(luk_or(a, b) - luk_or(b, a)) <= 1e-12

    @given(unit, unit, unit)
    @settings(max_examples=500)
    def test_monotone_in_each_argument(self, a, b, c):
        lo, hi = min(b, c), max(b, c)
        assert luk_and(a, lo) <= luk_and(a, hi) + 1e-12
        assert luk_or(a, lo) <= luk_or(a, hi) + 1e-12
        assert luk_implies(a, lo) <= luk_implies(a, hi) + 1e-12
        assert luk_implies(hi, a) <= luk_implies(lo, a) + 1e-12

    @given(unit)
    @settings(max_examples=200)
    def test_double_negation(self, a):
        assert abs(luk_not(luk_not(a)) - a) <= 1e-12

    @given(unit, unit)
    @settings(max_examples=500)
    def test_implies_is_or_of_not(self, a, b):
        assert abs(luk_implies(a, b) - luk_or(luk_not(a), b)) <= 1e-12

    @given(unit, unit)
    @settings(max_examples=500)
    def test_outputs_in_unit_interval(self, a, b):
        for v in (luk_and(a, b), luk_or(a, b), luk_implies(a, b), luk_not(a)):
            assert 0.0 <= v <= 1.0

    @given(unit)
    @settings(max_examples=200)
    def test_identities(self, a):
        assert abs(luk_and(a, 1.0) - a) <= 1e-12
        assert abs(luk_or(a, 0.0) - a) <= 1e-12


def test_hmean_examples():
    assert hmean([0.5, 1.0]) == pytest.approx(2.0 / 3.0)
    assert hmean([1.0, 1.0, 1.0]) == pytest.approx(1.0)
    assert hmean([0.0, 1.0]) == pytest.approx(0.0, abs=1e-11)


# ---------------------------------------------------------------------------
# Grounded evaluation


def const_theory(kb_text: str, truths: dict, preds: dict | None = None) -> GroundedTheory:
    """Theory over dummy 1-d constants with label-valued predicates."""
    kb = parse_kb(kb_text)
    constants = {c: np.zeros(1) for c in truths_constants(truths)}
    predicates = preds or {}
    for name, table in truths.items():
        predicates[name] = LabelPredicate(table)
    return GroundedTheory(kb=kb, constants=constants, predicates=predicates)


def truths_constants(truths: dict) -> set:
    out = set()
    for table in truths.values():
        for args in table:
            out.update(args)
    return out


class TestEvalFormula:
    def test_rwfn_atom_zero_beta(self):
        enc = build_encoder(EncoderConfig(input_dim=4, hidden_width=8, fan_in=2, seed=0))
        model = RwfnPredicate.create(enc)
        gt = GroundedTheory(
            kb=KnowledgeBase(signatures={"P": 1}),
            constants={"a": make_rng(0).random(4)},
            predicates={"P": model},
        )
        assert eval_formula(gt, Atom("P", ("a",))) == 0.5

    def test_forall_harmonic_mean(self):
        gt = const_theory(
            "pred P/1\nforall x: P(x)\n",
            {"P": {("a",): 0.5, ("b",): 1.0}},
        )
        val = eval_formula(gt, gt.kb.formulas[0])
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_forall_of_ones(self):
        gt = const_theory("pred P/1\nforall x: P(x)\n", {"P": {("a",): 1.0, ("b",): 1.0}})
        assert eval_formula(gt, gt.kb.formulas[0]) == pytest.approx(1.0, abs=1e-9)

    def test_exists_is_max(self):
        gt = const_theory("pred P/1\nexists x: P(x)\n", {"P": {("a",): 0.2, ("b",): 0.9}})
        assert eval_formula(gt, gt.kb.formulas[0]) == pytest.approx(0.9)

    def test_free_variable_binding(self):
        gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 0.3, ("b",): 0.8}})
        assert eval_formula(gt, Atom("P", ("x",)), bindings={"x": "b"}) == pytest.approx(0.8)

    def test_connective_composition(self):
        gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 0.8, ("b",): 0.7}})
        f = And(Atom("P", ("a",)), Atom("P", ("b",)))
        assert eval_formula(gt, f) == pytest.approx(0.5)

    def test_missing_constant(self):
        gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 1.0}})
        with pytest.raises(KeyError):
            eval_formula(gt, Atom("P", ("zz",)))


class TestSatisfiability:
    def test_all_true_literals(self):
        gt = const_theory("pred P/1\nP(a)\nP(b)\n", {"P": {("a",): 1.0, ("b",): 1.0}})
        assert satisfiability(gt) == pytest.approx(1.0, abs=1e-9)

    def test_single_literal_half(self):
        gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 0.5}})
        assert satisfiability(gt) == pytest.approx(0.5, abs=1e-9)

    def test_two_formulas_harmonic(self):
        gt = const_theory("pred P/1\nP(a)\nP(b)\n", {"P": {("a",): 1.0, ("b",): 0.5}})
        assert satisfiability(gt) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_empty_kb_rejected(self):
        gt = const_theory("pred P/1\n", {"P": {("a",): 1.0}})
        with pytest.raises(ValueError):
            satisfiability(gt)

    def test_budget_sampling_deterministic(self):
        # domain^2 = 64 > budget 10, so tuples are sampled; fixed rng => fixed value
        truths = {("c%d" % i,): (i % 3) / 2.0 for i in range(8)}
        gt = const_theory("pred P/1\nforall x,y: P(x) -> P(y)\n", {"P": truths})
        a = satisfiability(gt, instantiation_budget=10, rng=make_rng(5))
        b = satisfiability(gt, instantiation_budget=10, rng=make_rng(5))
        assert a == b

    def test_budget_full_product_when_small(self):
        gt = const_theory(
            "pred P/1\nforall x: P(x)\n",
            {"P": {("a",): 0.5, ("b",): 1.0}},
        )
        assert satisfiability(gt, instantiation_budget=100) == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_nested_quantifier(self):
        gt = const_theory(
            "pred P/2\nforall x: exists y: P(x,y)\n",
            {"P": {("a", "a"): 0.1, ("a", "b"): 0.9, ("b", "a"): 0.6, ("b", "b"): 0.2}},
        )
        # per x the max over y: a -> 0.9, b -> 0.6; hmean(0.9, 0.6) = 0.72
        assert satisfiability(gt) == pytest.approx(0.72, abs=1e-6)


def rwfn_literal_theory(values_spec, seed=0):
    """All-literal KB over one RWFN predicate, away from connective kinks."""
    enc = build_encoder(EncoderConfig(input_dim=4, hidden_width=8, fan_in=2, seed=seed))
    model = RwfnPredicate(encoder=enc, beta=make_rng(seed + 50).standard_normal(16) * 0.1)
    kb = KnowledgeBase(signatures={"P": 1})
    constants = {}
    for i, positive in enumerate(values_spec):
        cid = f"c{i}"
        constants[cid] = make_rng(200 + i).random(4)
        atom = Atom("P", (cid,))
        kb.formulas.append(atom if positive else Not(atom))
    return GroundedTheory(kb=kb, constants=constants, predicates={"P": model}), model


class TestSatisfiabilityGradient:
    def test_matches_finite_differences(self):
        gt, model = rwfn_literal_theory([True, False, True, True, False])
        sat, grads = satisfiability_gradient(gt)
        analytic = grads["P"]["beta"]
        step = 1e-5
        numeric = np.empty_like(analytic)
        for i in range(len(model.beta)):
            saved = model.beta[i]
            model.beta[i] = saved + step
            hi = satisfiability(gt)
            model.beta[i] = saved - step
            lo = satisfiability(gt)
            model.beta[i] = saved
            numeric[i] = (hi - lo) / (2 * step)
        denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
        assert np.linalg.norm(analytic - numeric) / denom < 1e-4

    def test_flat_and_region_zero_gradient(self):
        # both conjuncts well below 0.5: And saturates at 0, the region is
        # flat, so no gradient reaches the decoder through that node
        from rwfn.encoder import encode

        enc = build_encoder(EncoderConfig(input_dim=2, hidden_width=4, fan_in=1, seed=0))
        ca, cb = np.array([0.2, 0.9]), np.array([0.7, 0.1])
        # decoder pointed away from both hidden vectors: both truths go low
        beta = -4.0 * (encode(enc, ca) + encode(enc, cb))
        model = RwfnPredicate(encoder=enc, beta=beta)
        gt = GroundedTheory(
            kb=parse_kb("pred P/1\nP(a) & P(b)\n"),
            constants={"a": ca, "b": cb},
            predicates={"P": model},
        )
        va, vb = model.forward(ca), model.forward(cb)
        assert va + vb - 1.0 < 0.0  # confirm the saturated region
        sat, grads = satisfiability_gradient(gt)
        assert sat == pytest.approx(0.0, abs=1e-9)
        assert np.allclose(grads["P"]["beta"], 0.0)

    def test_gradient_ascent_increases_sat(self):
        gt, model = rwfn_literal_theory([True, True, False])
        before, grads = satisfiability_gradient(gt)
        model.beta = model.beta + 0.01 * grads["P"]["beta"]
        after = satisfiability(gt)
        assert after > before

    def test_two_formula_kb_gradient_sign(self):
        # both literals positive: pushing beta along +grad raises both values
        gt, model = rwfn_literal_theory([True, True])
        sat0, grads = satisfiability_gradient(gt)
        g = grads["P"]["beta"]
        assert satisfiability(gt) == pytest.approx(sat0)
        for scale in (0.005, 0.01, 0.02):
            model.beta = model.beta + scale * g
            assert satisfiability(gt) > sat0
            model.beta = model.beta - scale * g


def test_quantified_rwfn_gradient_matches_fd():
    # vectorized quantifier path: forall x,y with an RWFN binary predicate
    enc = build_encoder(EncoderConfig(input_dim=8, hidden_width=8, fan_in=3, seed=1))
    model = RwfnPredicate(encoder=enc, beta=make_rng(60).standard_normal(16) * 0.1)
    kb = parse_kb("pred R/2\nforall x,y: R(x,y) -> R(y,x)\n")
    constants = {f"c{i}": make_rng(300 + i).random(4) for i in range(3)}
    gt = GroundedTheory(kb=kb, constants=constants, predicates={"R": model})
    sat, grads = satisfiability_gradient(gt)
    analytic = grads["R"]["beta"]
    step = 1e-5
    numeric = np.empty_like(analytic)
    for i in range(len(model.beta)):
        saved = model.beta[i]
        model.beta[i] = saved + step
        hi = satisfiability(gt)
        model.beta[i] = saved - step
        lo = satisfiability(gt)
        model.beta[i] = saved
        numeric[i] = (hi - lo) / (2 * step)
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    assert np.linalg.norm(analytic - numeric) / denom < 1e-3


# ---------------------------------------------------------------------------
# Compiled ground plans against a slow recursive oracle

DOMAIN = ("a", "b", "c")
SIGNATURES = {"P": 1, "Q": 1, "R": 2}  # P symbolic, Q and R random-feature models


def oracle_theory(seed: int) -> GroundedTheory:
    rng = make_rng(seed)
    constants = {c: rng.random(3) for c in DOMAIN}
    p = LabelPredicate({(c,): float(v) for c, v in zip(DOMAIN, rng.random(len(DOMAIN)))})
    q = RwfnPredicate(encoder=build_encoder(EncoderConfig(input_dim=3, hidden_width=4, fan_in=2, seed=seed)),
                      beta=rng.standard_normal(8))
    r = RwfnPredicate(encoder=build_encoder(EncoderConfig(input_dim=6, hidden_width=4, fan_in=3, seed=seed + 1)),
                      beta=rng.standard_normal(8))
    return GroundedTheory(kb=KnowledgeBase(signatures=dict(SIGNATURES)), constants=constants,
                          predicates={"P": p, "Q": q, "R": r})


@st.composite
def formulas(draw, bound=(), depth=0):
    if depth == 3 or (depth > 0 and draw(st.booleans())):
        pred = draw(st.sampled_from(sorted(SIGNATURES)))
        terms = st.sampled_from(DOMAIN + bound)
        return Atom(pred, tuple(draw(terms) for _ in range(SIGNATURES[pred])))
    kind = draw(st.sampled_from((Not, And, Or, Implies, ForAll, Exists)))
    if kind is Not:
        return Not(draw(formulas(bound, depth + 1)))
    if kind in (ForAll, Exists):
        fresh = tuple(f"v{len(bound) + i}" for i in range(draw(st.integers(1, 2))))
        return kind(fresh, draw(formulas(bound + fresh, depth + 1)))
    return kind(draw(formulas(bound, depth + 1)), draw(formulas(bound, depth + 1)))


def rename_constants(f: Formula):
    """Same shape, each constant replaced by the next one in DOMAIN."""
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(DOMAIN[(DOMAIN.index(a) + 1) % 3] if a in DOMAIN else a for a in f.args))
    if isinstance(f, Not):
        return Not(rename_constants(f.body))
    if isinstance(f, (ForAll, Exists)):
        return type(f)(f.variables, rename_constants(f.body))
    return type(f)(rename_constants(f.left), rename_constants(f.right))


def oracle_truth(gt: GroundedTheory, f, env: dict, kinks: list) -> float:
    """Scalar Lukasiewicz semantics over every instantiation. Appends to
    kinks how far each connective's clamped argument and each maximum's
    runner-up sit from the point where the subgradient switches."""
    if isinstance(f, Atom):
        args = tuple(env.get(a, a) for a in f.args)
        model = gt.predicates[f.pred]
        if model.symbolic:
            return model.truth_of(args)
        return model.forward(np.concatenate([gt.constants[a] for a in args]))
    if isinstance(f, Not):
        return luk_not(oracle_truth(gt, f.body, env, kinks))
    if isinstance(f, (ForAll, Exists)):
        values = []
        for combo in itertools.product(sorted(gt.constants), repeat=len(f.variables)):
            values.append(oracle_truth(gt, f.body, {**env, **dict(zip(f.variables, combo))}, kinks))
        if isinstance(f, ForAll):
            return hmean(values)
        best = max(values)
        below = [v for v in values if v != best]  # equal values come from identical atoms
        if below:
            kinks.append(best - max(below))
        return best
    a = oracle_truth(gt, f.left, env, kinks)
    b = oracle_truth(gt, f.right, env, kinks)
    if isinstance(f, Implies):
        kinks.append(b - a)
        return luk_implies(a, b)
    kinks.append(a + b - 1.0)
    return luk_and(a, b) if isinstance(f, And) else luk_or(a, b)


kbs = st.lists(formulas(), min_size=1, max_size=3)


class TestCompiledPlanOracle:
    @given(kbs, st.integers(0, 50))
    @settings(max_examples=60, deadline=None)
    def test_satisfiability_matches_oracle(self, fs, seed):
        gt = oracle_theory(seed)
        gt.kb.formulas = fs + [rename_constants(f) for f in fs]
        expected = [oracle_truth(gt, f, {}, []) for f in gt.kb.formulas]
        plan = GroundPlan(gt, budget=10**6, rng=make_rng(0))
        assert np.allclose(plan.formula_values(), expected, rtol=0.0, atol=1e-12)
        assert abs(plan.satisfiability() - hmean(expected)) <= 1e-12

    @given(kbs, st.integers(0, 50))
    @settings(max_examples=40, deadline=None)
    def test_gradients_match_finite_differences(self, fs, seed):
        gt = oracle_theory(seed)
        gt.kb.formulas = fs + [rename_constants(f) for f in fs]
        kinks: list = []
        for f in gt.kb.formulas:
            oracle_truth(gt, f, {}, kinks)
        # an argument exactly at a kink is constant in beta (e.g. P(a) -> P(a))
        assume(all(k == 0.0 or abs(k) > 1e-4 for k in kinks))
        sat, grads = GroundPlan(gt, budget=10**6, rng=make_rng(0)).satisfiability_with_grads()
        step = 1e-6
        for name in ("Q", "R"):
            model = gt.predicates[name]
            numeric = np.zeros_like(model.beta)
            for i in range(len(model.beta)):
                saved = model.beta[i]
                model.beta[i] = saved + step
                hi = satisfiability(gt, instantiation_budget=10**6)
                model.beta[i] = saved - step
                lo = satisfiability(gt, instantiation_budget=10**6)
                model.beta[i] = saved
                numeric[i] = (hi - lo) / (2 * step)
            analytic = grads[name]["beta"] if name in grads else np.zeros_like(numeric)
            assert np.allclose(analytic, numeric, rtol=1e-5, atol=1e-8)


def test_sampled_plan_deterministic():
    gt = oracle_theory(3)
    gt.kb.formulas = parse_kb("pred Q/1\npred R/2\n"
                              "forall x: exists y,z: R(x,y) & Q(z)\n"
                              "exists x,y: R(x,y) -> (forall z: R(y,z))\n").formulas
    # budget 4 < 9 pairs: every two-variable quantifier samples
    plans = [GroundPlan(gt, budget=4, rng=make_rng(8)) for _ in range(2)]
    assert plans[0]._atoms == plans[1]._atoms
    (sat0, g0), (sat1, g1) = (p.satisfiability_with_grads() for p in plans)
    assert sat0 == sat1
    for name in g0:
        assert np.array_equal(g0[name]["beta"], g1[name]["beta"])
    assert plans[0].satisfiability_with_grads()[0] == sat0  # re-evaluation reuses the sample


def kink_theory(text: str) -> GroundedTheory:
    """P(a) = 0.5 exactly, and Q = sigmoid(beta . h) = 0.5 exactly at beta = 0."""
    gt = oracle_theory(4)
    gt.predicates["P"] = LabelPredicate({(c,): 0.5 for c in DOMAIN})
    gt.predicates["Q"].beta = np.zeros(8)
    gt.kb.formulas = parse_kb("pred P/1\npred Q/1\n" + text).formulas
    return gt


@pytest.mark.parametrize("text, passes", [
    ("P(a) & Q(b)", True),    # max(0, a + b - 1) takes its right-hand slope at 0
    ("P(a) | Q(b)", False),   # min(1, a + b) takes its right-hand slope at 1
    ("P(a) -> Q(b)", False),  # likewise min(1, 1 - a + b)
])
def test_kink_subgradients(text, passes):
    _, grads = satisfiability_gradient(kink_theory(text))
    assert np.any(grads["Q"]["beta"] != 0.0) == passes


def test_exists_tie_goes_to_first_instantiation():
    _, tied = satisfiability_gradient(kink_theory("exists x: Q(x)"))
    _, first = satisfiability_gradient(kink_theory("Q(a)"))
    assert np.any(first["Q"]["beta"] != 0.0)
    assert np.array_equal(tied["Q"]["beta"], first["Q"]["beta"])


# sat and gradients computed with the scalar tree evaluator the compiled plan
# replaced; the plans sample (budget below |D|^2), so they also pin the order
# in which instantiation samples are drawn

def golden_partof_theory(kind: str) -> GroundedTheory:
    ds = gen_synthetic(SyntheticConfig(num_scenes=4, num_whole_classes=2, negative_ratio=2.0, seed=21))
    if kind == "rwfn":
        model = make_rwfn_classifier(2 * ds.n, 4, seed=5)
        model.beta = make_rng(6).standard_normal(8)
    else:
        model = make_ltn_classifier(2 * ds.n, seed=5, k=2)
    return build_partof_theory(ds, model)


def golden_nested_theory() -> GroundedTheory:
    gt = oracle_theory(11)
    gt.kb.formulas = parse_kb("pred P/1\npred Q/1\npred R/2\n"
                              "forall x: exists y: R(x,y) | ~Q(y)\n"
                              "exists x: forall y,z: R(x,y) -> (P(z) | Q(y))\n"
                              "Q(a) | (forall x,y: R(x,y))\n"
                              "forall x: Q(x) -> (exists y,z: R(y,x) & P(z))\n"
                              "~R(b,c)\n").formulas
    return gt


GOLDEN = {
    "nested": (0.7167242690143644, {
        "Q.beta": [
            0.0, 0.0, 0.0,
            -0.05547231681371418, 0.014554112172749224, 0.05269811272860948,
            0.012468360924135675, 0.00036168806973630764,
        ],
        "R.beta": [
            -0.013192058240274588, 0.001848895269959517, 0.0,
            0.0, 0.0012077569266806046, 0.011066013980833182,
            0.005200383173451589, -0.003073882264032674,
        ],
    }),
    "partof-ltn": (0.5362993441835185, {
        "partOf.u": [
            -0.04524768866732736, 0.024574269587909908,
        ],
        "partOf.b": [
            0.010389824758087324, 0.020900237307622943,
        ],
    }),
    "partof-rwfn": (0.21958681258314577, {
        "partOf.beta": [
            -0.009300612009521187, -0.015099407198970155, 0.06982702607243335,
            0.10173555944506818, -0.03663702268550815, -0.04474184003730462,
            -0.07121745117098503, -0.07909966129620004,
        ],
    }),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_values(name):
    sat_expected, grads_expected = GOLDEN[name]
    if name == "nested":
        gt, budget = golden_nested_theory(), 4
    else:
        gt, budget = golden_partof_theory(name.split("-")[1]), 60
    sat, grads = GroundPlan(gt, budget, make_rng(2)).satisfiability_with_grads()
    assert abs(sat - sat_expected) <= 1e-12
    for key, expected in grads_expected.items():
        pred, param = key.split(".")
        assert np.allclose(grads[pred][param], expected, rtol=0.0, atol=1e-12)
