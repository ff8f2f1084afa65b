import gc
import itertools
import weakref

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
    MAX_DEPTH,
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

    @pytest.mark.parametrize("text, col", [
        ("~" * 5000 + "P(a)", 101),
        ("(" * 5000 + "P(a)" + ")" * 5000, 101),
        (" & ".join(["P(a)"] * 1501), 1 + 7 * 101 - 2),  # the 101st '&'
        ("forall x: " * 101 + "P(x)", 1 + 10 * 100),
        ("P(a) -> " * 101 + "P(b)", 1 + 8 * 100 + 5),
    ])
    def test_nesting_limit(self, text, col):
        with pytest.raises(KbSyntaxError, match="nested deeper than") as e:
            parse_kb("pred P/1\n\n" + text + "\n")
        assert (e.value.line, e.value.col) == (3, col)

    @pytest.mark.parametrize("text", [
        "~" * MAX_DEPTH + "P(a)",
        "(" * MAX_DEPTH + "P(a)" + ")" * MAX_DEPTH,
        " & ".join(["P(a)"] * (MAX_DEPTH + 1)),
        " | ".join(["~P(a)"] * MAX_DEPTH),
    ])
    def test_nesting_at_the_limit_grounds(self, text):
        gt = const_theory("pred P/1\n" + text + "\n", {"P": {("a",): 0.5}})
        sat, _ = satisfiability_gradient(gt)
        assert 0.0 <= sat <= 1.0

    def test_huge_arity_is_a_syntax_error(self):
        with pytest.raises(KbSyntaxError, match="arity out of range"):
            parse_kb("pred P/" + "9" * 5000 + "\n")

    token_text = st.lists(st.sampled_from(["forall", "exists", "x", "y", "a", "P", "R", "pred", ",", ":", "(",
                                           ")", "~", "&", "|", "->", "-", ">", "/", "1", "2", "0", " ", "\n",
                                           "#"]), max_size=40).map("".join)

    @given(st.one_of(
        st.text(),
        token_text,
        st.builds(lambda unit, n, tail: unit * n + tail,
                  st.sampled_from(["~", "(", "forall x: ", "P(a) & ", "P(a) -> "]), st.integers(0, 2000), token_text),
    ))
    @settings(max_examples=300, deadline=None)
    def test_fuzz_raises_only_syntax_errors(self, text):
        try:
            parse_kb("pred P/1\npred R/2\n" + text)
        except KbSyntaxError:
            pass


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

    def test_out_of_range_feature_warns_at_plan_build(self):
        enc = build_encoder(EncoderConfig(input_dim=2, hidden_width=4, fan_in=1, seed=0))
        gt = GroundedTheory(
            kb=parse_kb("pred P/1\nP(a) & P(b)\n"),
            constants={"a": np.array([0.2, 0.9]), "b": np.array([5.0, 0.1])},
            predicates={"P": RwfnPredicate.create(enc)},
        )
        with pytest.warns(UserWarning, match=r"outside \[0,1\]"):
            GroundPlan(gt, budget=10, rng=make_rng(0))

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
    assert np.array_equal(plans[0]._atoms, plans[1]._atoms)
    (sat0, g0), (sat1, g1) = (p.satisfiability_with_grads() for p in plans)
    assert sat0 == sat1
    for name in g0:
        assert np.array_equal(g0[name]["beta"], g1[name]["beta"])
    assert plans[0].satisfiability_with_grads()[0] == sat0  # re-evaluation reuses the sample


# ---------------------------------------------------------------------------
# Array grounding against the recursive grounder it replaced


def oracle_grounding(gt: GroundedTheory, budget: int, rng) -> dict:
    """Ground gt one Python call per formula node and instantiation, drawing
    samples in tree order (an inner quantifier once per enclosing
    instantiation). Returns atoms as (pred, args) in order of first
    occurrence, each occurrence's atom, and per formula shape the rows and
    per leaf the occurrence positions, plus batch inputs and symbolic truths."""
    domain = sorted(gt.constants)
    atoms: list = []
    index: dict = {}
    occurrences: list = []
    groups: dict = {}

    def instantiations(n_vars):
        total = len(domain) ** n_vars
        if total <= budget:
            return list(itertools.product(domain, repeat=n_vars))
        picks = rng.choice(total, size=budget, replace=False)
        picks.sort()
        out = []
        for flat in picks:
            combo = []
            for _ in range(n_vars):
                flat, r = divmod(flat, len(domain))
                combo.append(domain[r])
            out.append(tuple(combo))
        return out

    def shape(f):
        if isinstance(f, Atom):
            return ("atom",)
        if isinstance(f, Not):
            return ("not", shape(f.body))
        if isinstance(f, (ForAll, Exists)):
            return (type(f).__name__, shape(f.body), min(len(domain) ** len(f.variables), budget))
        return (type(f).__name__, shape(f.left), shape(f.right))

    def ground(f, bindings, leaf, pos):
        if isinstance(f, Atom):
            key = (f.pred, tuple(bindings.get(a, a) for a in f.args))
            if key not in index:
                index[key] = len(atoms)
                atoms.append(key)
            pos.setdefault(leaf, []).append(len(occurrences))
            occurrences.append(index[key])
            return leaf + 1
        if isinstance(f, Not):
            return ground(f.body, bindings, leaf, pos)
        if isinstance(f, (And, Or, Implies)):
            return ground(f.right, bindings, ground(f.left, bindings, leaf, pos), pos)
        end = leaf
        for combo in instantiations(len(f.variables)):
            end = ground(f.body, {**bindings, **dict(zip(f.variables, combo))}, leaf, pos)
        return end

    for i, f in enumerate(gt.kb.formulas):
        rows, pos = groups.setdefault(shape(f), ([], {}))
        rows.append(i)
        ground(f, {}, 0, pos)
    inputs, truths = {}, np.zeros(len(atoms))
    for i, (pred, args) in enumerate(atoms):
        model = gt.predicates[pred]
        if model.symbolic:
            truths[i] = model.truth_of(args)
        else:
            indices, rows = inputs.setdefault(pred, ([], []))
            indices.append(i)
            rows.append(np.concatenate([gt.constants[a] for a in args]))
    return {"atoms": atoms, "occurrences": occurrences, "truths": truths,
            "groups": {rows[0]: (rows, [pos[k] for k in sorted(pos)]) for rows, pos in groups.values()},
            "inputs": {pred: (indices, np.stack(rows)) for pred, (indices, rows) in inputs.items()}}


def atom_keys(atoms: list, domain: list) -> np.ndarray:
    """GroundPlan's atom keys: pred index * |D|**(largest arity) + sum_j
    pos(arg_j) * |D|**j, predicates indexed in order of first occurrence."""
    preds = list(dict.fromkeys(pred for pred, _ in atoms))
    span = len(domain) ** max(len(args) for _, args in atoms)
    return np.array([preds.index(pred) * span + sum(domain.index(a) * len(domain) ** j for j, a in enumerate(args))
                     for pred, args in atoms], dtype=np.int64)


@st.composite
def side_by_side(draw):
    """An outer quantifier over two inner ones, both sampled when the budget
    is under |D|^2, joined by a connective; an inner (x, y) shadows x."""
    inner = []
    for _ in range(2):
        variables = draw(st.sampled_from((("y", "z"), ("x", "y"))))
        kind = draw(st.sampled_from((ForAll, Exists)))
        inner.append(kind(variables, draw(formulas(("x",) + variables, 2))))
    joined = draw(st.sampled_from((And, Or, Implies)))(*inner)
    return draw(st.sampled_from((ForAll, Exists)))(("x",), joined)


@st.composite
def repeated(draw):
    """A connective over one formula twice: every atom repeats."""
    f = draw(formulas())
    return draw(st.sampled_from((And, Or, Implies)))(f, f)


grounding_kbs = st.lists(st.one_of(formulas(), side_by_side(), repeated()), min_size=1, max_size=4)


@given(grounding_kbs, st.integers(0, 50), st.sampled_from([1, 2, 4, 8, 9, 10, 10**6]), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_grounding_matches_recursive_oracle(fs, seed, budget, rng_seed):
    gt = oracle_theory(seed)
    gt.kb.formulas = fs + [rename_constants(f) for f in fs]
    plan = GroundPlan(gt, budget, make_rng(rng_seed))
    want = oracle_grounding(gt, budget, make_rng(rng_seed))
    assert np.array_equal(plan._atoms, atom_keys(want["atoms"], sorted(gt.constants)))
    assert np.array_equal(plan._occurrences, want["occurrences"])
    assert {int(g.rows[0]): (g.rows.tolist(), [p.tolist() for p in g.pos]) for g in plan._groups} == want["groups"]
    for g in plan._groups:
        assert all(np.array_equal(a, plan._occurrences[p]) for a, p in zip(g.atoms, g.pos))
    assert np.array_equal(plan._fixed_values, want["truths"])
    assert list(plan._per_pred) == list(want["inputs"])
    for pred, (indices, x) in want["inputs"].items():
        assert np.array_equal(plan._per_pred[pred]["indices"], indices)
        assert np.array_equal(plan._per_pred[pred]["x"], x)


def test_plan_is_freed_without_the_cycle_collector():
    # a plan holds its hidden-feature cache; a reference cycle through it
    # would keep that cache alive into the next fit, until a gc pass
    gt = oracle_theory(1)
    gt.kb.formulas = parse_kb("pred Q/1\npred R/2\nforall x: exists y,z: R(x,y) & Q(z)\n").formulas
    gc.disable()
    try:
        plan = GroundPlan(gt, budget=4, rng=make_rng(0))
        plan.satisfiability_with_grads()
        ref = weakref.ref(plan)
        del plan
        assert ref() is None
    finally:
        gc.enable()


def test_plan_stats():
    gt = oracle_theory(2)
    gt.kb.formulas = parse_kb("pred P/1\npred Q/1\npred R/2\n"
                              "forall x: exists y,z: R(x,y) & Q(z)\n"
                              "P(a) | Q(b)\n"
                              "exists x: P(x)\n").formulas
    stats = GroundPlan(gt, budget=4, rng=make_rng(0)).stats()
    # 3 x values, each with a sample of 4 of the 9 (y, z) pairs
    assert stats["quantifiers"] == [
        {"formula": 0, "variables": ["x"], "instantiations": 3, "sampled": False},
        {"formula": 0, "variables": ["y", "z"], "instantiations": 12, "sampled": True},
        {"formula": 2, "variables": ["x"], "instantiations": 3, "sampled": False},
    ]
    assert (stats["roots"], stats["groups"]) == (3, 3)
    assert list(stats["atoms"]) == ["R", "Q", "P"] and stats["atoms"]["P"] == 3
    # Q and R cache 2B = 8 float64 hidden features per atom
    assert stats["hidden_cache_bytes"] == 64 * (stats["atoms"]["Q"] + stats["atoms"]["R"])


@pytest.mark.parametrize("text, n_constants, match", [
    # 300**8 > 2**63 - 1 tuples: rng.choice cannot draw from them
    ("forall a,b,c,d,e,f,g,h: P(a)", 300, "quantifier over a, b, c, d, e, f, g, h"),
    ("S(c0,c1,c2,c3,c4,c5,c6,c7)", 300, "argument tuples of predicate 'S'"),
    # 300**7 fits, but 50 predicates times it do not
    ("\n".join(f"T{i}(c0,c1,c2,c3,c4,c5,c6)" for i in range(50)), 300, "50 predicates over 300 constants"),
])
def test_plan_rejects_keys_beyond_int64(text, n_constants, match):
    decls = "pred P/1\npred S/8\n" + "".join(f"pred T{i}/7\n" for i in range(50))
    gt = GroundedTheory(kb=parse_kb(decls + text + "\n"),
                        constants={f"c{i}": np.zeros(1) for i in range(n_constants)},
                        predicates={})
    with pytest.raises(ValueError, match=match):
        GroundPlan(gt, budget=10, rng=make_rng(0))


def test_plan_rejects_mixed_arity():
    gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 1.0}})
    gt.kb.formulas.append(Atom("P", ("a", "a")))
    with pytest.raises(ValueError, match="used with 1 and 2 arguments"):
        GroundPlan(gt, budget=10, rng=make_rng(0))


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


def test_traced_run_sees_the_hidden_cache_and_batches(monkeypatch):
    # the benchmark's traced run times rwfn.predicates.hidden_features and
    # counts its rows and bytes, and counts len(x) of each forward and
    # gradient call; the plan has to go through both as it did
    from rwfn import predicates

    hidden_calls, batch_rows = [], []
    hidden_features = predicates.hidden_features

    def traced_hidden(*args, **kwargs):
        h = hidden_features(*args, **kwargs)
        hidden_calls.append(h.shape)
        return h

    def counting(method):
        def wrapper(self, x, *args, **kwargs):
            batch_rows.append((method.__name__, len(x)))
            return method(self, x, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(predicates, "hidden_features", traced_hidden)
    for name in ("forward_batch", "gradient_batch"):
        monkeypatch.setattr(RwfnPredicate, name, counting(getattr(RwfnPredicate, name)))
    plan = GroundPlan(golden_partof_theory("rwfn"), 60, make_rng(2))
    atoms = plan.stats()["atoms"]["partOf"]
    assert hidden_calls == [(atoms, 8)]  # 2B features at B=4
    plan.satisfiability_with_grads()
    assert batch_rows == [("forward_batch", atoms), ("gradient_batch", atoms)]
    assert hidden_calls == [(atoms, 8)]
