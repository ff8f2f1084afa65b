import copy
import gc
import hashlib
import itertools
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rwfn.data import SyntheticConfig, gen_synthetic, split
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
    HMEAN_EPS,
    MAX_DEPTH,
    KbSyntaxError,
    KnowledgeBase,
    LiteralTable,
    Not,
    Or,
    _intern_keys,
    _positions_by_value,
    merge_theories,
    parse_kb,
)
from rwfn.numerics import make_rng
from rwfn.predicates import LabelPredicate, NtnPredicate, RwfnPredicate, init_ntn
from rwfn.tasks import build_partof_theory, build_type_theory, make_classifier, make_rwfn_classifier
from rwfn.training import SharedEncoderRegistry

from oracles import (batch_preds, expand_facts, formula_values, hmean, intern_reference, luk_and, luk_implies, luk_not,
                     luk_or, satisfiability, truth_of)

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
        sat, _ = sat_and_grads(gt)
        assert 0.0 <= sat <= 1.0

    def test_redeclared_arity_is_a_syntax_error(self):
        assert parse_kb("pred P/1\npred P/1\nP(a)\n").signatures == {"P": 1}
        with pytest.raises(KbSyntaxError, match="'P' is already declared with arity 1") as e:
            parse_kb("pred P/1\npred P/2\n")
        assert (e.value.line, e.value.col) == (2, 8)

    def test_variable_bound_twice_is_a_syntax_error(self):
        with pytest.raises(KbSyntaxError, match="forall binds 'x' twice") as e:
            parse_kb("pred P/1\nforall x, y,x: P(x)\n")
        assert (e.value.line, e.value.col) == (2, 13)

    @pytest.mark.parametrize("name", ["forall", "exists"])
    def test_quantifier_named_predicate_is_a_syntax_error(self, name):
        with pytest.raises(KbSyntaxError, match=f"'{name}' is a quantifier, not a predicate name") as e:
            parse_kb(f"pred P/1\n  pred {name}/1\n")
        assert (e.value.line, e.value.col) == (2, 8)

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


def formula_value(gt: GroundedTheory, f: Formula) -> float:
    """f's truth under gt's grounding, from a plan over f alone."""
    alone = GroundedTheory(kb=KnowledgeBase(signatures=gt.kb.signatures, formulas=[f]),
                           constants=gt.constants, predicates=gt.predicates)
    return float(formula_values(GroundPlan(alone, 10_000, make_rng(0)))[0])


def sat_and_grads(gt: GroundedTheory, budget: int = 10_000, rng=None) -> tuple:
    """gt's satisfiability and {pred: {param: grad}} from one plan. A single
    theory keeps one batch per learnable predicate, a stack of one head,
    so each gradient is that head's: its row 0."""
    plan = GroundPlan(gt, budget, rng if rng is not None else make_rng(0))
    sats, grads = plan.satisfiability_with_grads()
    preds = batch_preds(plan)
    assert all(len(heads) == 1 for heads in preds)
    assert all(len(a) == 1 for g in grads for a in g.values())
    return float(sats[0]), {heads[0][1]: {name: a[0] for name, a in g.items()} for heads, g in zip(preds, grads)}


class TestEvalFormula:
    def test_rwfn_atom_zero_beta(self):
        enc = build_encoder(EncoderConfig(input_dim=4, hidden_width=8, fan_in=2, seed=0))
        model = RwfnPredicate.create(enc)
        gt = GroundedTheory(
            kb=KnowledgeBase(signatures={"P": 1}),
            constants={"a": make_rng(0).random(4)},
            predicates={"P": model},
        )
        assert formula_value(gt, Atom("P", ("a",))) == 0.5

    def test_forall_harmonic_mean(self):
        gt = const_theory(
            "pred P/1\nforall x: P(x)\n",
            {"P": {("a",): 0.5, ("b",): 1.0}},
        )
        val = formula_value(gt, gt.kb.formulas[0])
        assert val == pytest.approx(2.0 / 3.0, abs=1e-9)

    def test_forall_of_ones(self):
        gt = const_theory("pred P/1\nforall x: P(x)\n", {"P": {("a",): 1.0, ("b",): 1.0}})
        assert formula_value(gt, gt.kb.formulas[0]) == pytest.approx(1.0, abs=1e-9)

    def test_exists_is_max(self):
        gt = const_theory("pred P/1\nexists x: P(x)\n", {"P": {("a",): 0.2, ("b",): 0.9}})
        assert formula_value(gt, gt.kb.formulas[0]) == pytest.approx(0.9)

    def test_connective_composition(self):
        gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 0.8, ("b",): 0.7}})
        f = And(Atom("P", ("a",)), Atom("P", ("b",)))
        assert formula_value(gt, f) == pytest.approx(0.5)

    def test_missing_constant(self):
        gt = const_theory("pred P/1\nP(a)\n", {"P": {("a",): 1.0}})
        with pytest.raises(KeyError):
            formula_value(gt, Atom("P", ("zz",)))


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
        a = satisfiability(gt, 10, make_rng(5))
        b = satisfiability(gt, 10, make_rng(5))
        assert a == b

    def test_budget_full_product_when_small(self):
        gt = const_theory(
            "pred P/1\nforall x: P(x)\n",
            {"P": {("a",): 0.5, ("b",): 1.0}},
        )
        assert satisfiability(gt, 100) == pytest.approx(2.0 / 3.0, abs=1e-9)

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
        sat, grads = sat_and_grads(gt)
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
        from rwfn.encoder import hidden_features

        enc = build_encoder(EncoderConfig(input_dim=2, hidden_width=4, fan_in=1, seed=0))
        ca, cb = np.array([0.2, 0.9]), np.array([0.7, 0.1])
        # decoder pointed away from both hidden vectors: both truths go low
        ha, hb = hidden_features(enc, np.stack([ca, cb]), "full", None)
        beta = -4.0 * (ha + hb)
        model = RwfnPredicate(encoder=enc, beta=beta)
        gt = GroundedTheory(
            kb=parse_kb("pred P/1\nP(a) & P(b)\n"),
            constants={"a": ca, "b": cb},
            predicates={"P": model},
        )
        va, vb = model.forward_batch(model.lift(np.stack([ca, cb])))[0]
        assert va + vb - 1.0 < 0.0  # confirm the saturated region
        sat, grads = sat_and_grads(gt)
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
        before, grads = sat_and_grads(gt)
        model.beta = model.beta + 0.01 * grads["P"]["beta"]
        after = satisfiability(gt)
        assert after > before

    def test_two_formula_kb_gradient_sign(self):
        # both literals positive: pushing beta along +grad raises both values
        gt, model = rwfn_literal_theory([True, True])
        sat0, grads = sat_and_grads(gt)
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
    sat, grads = sat_and_grads(gt)
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
            return truth_of(model, args)
        return float(model.forward_batch(model.lift(np.concatenate([gt.constants[a] for a in args])[None, :]))[0][0])
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
        assert np.allclose(formula_values(plan), expected, rtol=0.0, atol=1e-12)
        assert abs(satisfiability(gt, 10**6) - hmean(expected)) <= 1e-12

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
        sat, grads = sat_and_grads(gt, 10**6, make_rng(0))
        step = 1e-6
        for name in ("Q", "R"):
            model = gt.predicates[name]
            numeric = np.zeros_like(model.beta)
            for i in range(len(model.beta)):
                saved = model.beta[i]
                model.beta[i] = saved + step
                hi = satisfiability(gt, 10**6)
                model.beta[i] = saved - step
                lo = satisfiability(gt, 10**6)
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
    assert np.array_equal(sat0, sat1)
    for a, b in zip(g0, g1, strict=True):
        assert np.array_equal(a["beta"], b["beta"])
    assert np.array_equal(plans[0].satisfiability_with_grads()[0], sat0)  # re-evaluation reuses the sample


# ---------------------------------------------------------------------------
# Array grounding against the recursive grounder it replaced


def oracle_grounding(gt: GroundedTheory, budget: int, rng) -> dict:
    """Ground gt one Python call per formula node and instantiation, drawing
    samples in tree order (an inner quantifier once per enclosing
    instantiation); each part of a merged theory draws from its own copy of
    rng. Returns atoms as ((part, pred), args) in order of first
    occurrence, each occurrence's atom, and per formula shape the rows and
    per leaf the occurrence positions, plus symbolic truths and each
    learnable predicate's atoms with their argument positions in the
    sorted domain."""
    domain = sorted(gt.constants)
    atoms: list = []
    index: dict = {}
    occurrences: list = []
    groups: dict = {}

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
            key = ((part, f.pred), tuple(bindings.get(a, a) for a in f.args))
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
        for combo in oracle_instantiations(domain, len(f.variables), budget, part_rng):
            end = ground(f.body, {**bindings, **dict(zip(f.variables, combo))}, leaf, pos)
        return end

    parts = gt.parts or [gt]
    i = 0
    for part, theory in enumerate(parts):
        part_rng = copy.deepcopy(rng) if gt.parts else rng
        for f in theory.kb.formulas:
            rows, pos = groups.setdefault(shape(f), ([], {}))
            rows.append(i)
            ground(f, {}, 0, pos)
            i += 1
    inputs, truths = {}, np.zeros(len(atoms))
    for i, (pred, args) in enumerate(atoms):
        model = parts[pred[0]].predicates[pred[1]]
        if model.symbolic:
            truths[i] = truth_of(model, args)
        else:
            indices, positions = inputs.setdefault(pred, ([], []))
            indices.append(i)
            positions.append([domain.index(a) for a in args])
    return {"atoms": atoms, "occurrences": occurrences, "truths": truths,
            "groups": {rows[0]: (rows, [pos[k] for k in sorted(pos)]) for rows, pos in groups.values()},
            "inputs": {pred: (indices, np.array(positions)) for pred, (indices, positions) in inputs.items()}}


def oracle_instantiations(domain: list, n_vars: int, budget: int, rng) -> list:
    """Every n_vars-tuple of domain when they fit the budget, else a sorted
    sample of budget of them drawn from rng, the first variable being the
    lowest digit of a tuple's flat index."""
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


def grounded_plan(gt: GroundedTheory, budget: int, rng) -> GroundPlan:
    """A plan that keeps every row of every group, and so every atom
    occurrence: the grounding as it is before compaction, with the same
    batches."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GroundPlan, "_compact", lambda *args: None)
        return GroundPlan(gt, budget, rng)


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


@st.composite
def literal(draw):
    """A closed literal, bare or negated: P(c), ~Q(c), R(c,d) and the like."""
    pred = draw(st.sampled_from(sorted(SIGNATURES)))
    atom = Atom(pred, tuple(draw(st.sampled_from(DOMAIN)) for _ in range(SIGNATURES[pred])))
    return Not(atom) if draw(st.booleans()) else atom


# runs of closed literals, which a plan grounds in one pass, between
# formulas that it compiles one by one
grounding_kbs = st.lists(st.one_of(st.lists(literal(), min_size=1, max_size=6),
                                   st.one_of(formulas(), side_by_side(), repeated()).map(lambda f: [f])),
                         min_size=1, max_size=4).map(lambda runs: [f for run in runs for f in run])


def assert_grounding(plan: GroundPlan, want: dict) -> None:
    """plan's predicate numbering, interned atoms, occurrences, groups and
    symbolic truths are the oracle's."""
    assert list(plan._preds) == list(dict.fromkeys(pred for pred, _ in want["atoms"]))
    assert np.array_equal(plan._atoms, atom_keys(want["atoms"], sorted(plan.gt.constants)))
    assert np.array_equal(plan._occurrences, want["occurrences"])
    # groups in order of creation, each at its first formula
    assert [(int(g.rows[0]), g.rows.tolist(), [p.tolist() for p in g.pos]) for g in plan._groups] == \
        [(rows[0], rows, pos) for rows, pos in want["groups"].values()]
    for g in plan._groups:
        assert all(np.array_equal(a, plan._occurrences[p]) for a, p in zip(g.atoms, g.pos))
    assert np.array_equal(plan._fixed_values, want["truths"])


def assert_batch_inputs(plan: GroundPlan, want: dict) -> None:
    """Q and R of one oracle_theory have their own encoders and arities:
    one batch each, over the oracle's atoms that can take a gradient, in
    order (TestFold checks which), with their lifted rows."""
    live = plan.stats()["live_atoms"]
    assert [(0, pred) for pred in live] == list(want["inputs"])
    inputs = [(pred, *want["inputs"][0, pred]) for pred in live if live[pred]]
    assert batch_preds(plan) == [[(0, pred)] for pred, _, _ in inputs]
    table = np.stack([plan.gt.constants[c] for c in sorted(plan.gt.constants)])
    for b, (pred, indices, args) in zip(plan.batches, inputs):
        assert b.indices.shape == (live[pred], 1)  # one head
        kept = np.isin(indices, b.indices)
        assert np.array_equal(b.indices[:, 0], np.asarray(indices)[kept])
        assert np.array_equal(b.x, b.model.lift(table, args[kept]))


@given(grounding_kbs, st.integers(0, 50), st.sampled_from([1, 2, 4, 8, 9, 10, 10**6]), st.integers(0, 3))
@settings(max_examples=80, deadline=None)
def test_grounding_matches_recursive_oracle(fs, seed, budget, rng_seed):
    gt = oracle_theory(seed)
    gt.kb.formulas = fs + [rename_constants(f) for f in fs]
    plan = grounded_plan(gt, budget, make_rng(rng_seed))
    want = oracle_grounding(gt, budget, make_rng(rng_seed))
    assert_grounding(plan, want)
    assert_batch_inputs(plan, want)


@given(st.lists(grounding_kbs, min_size=2, max_size=3), st.integers(0, 50), st.sampled_from([1, 4, 9, 10**6]),
       st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_merged_grounding_matches_recursive_oracle(kbs, seed, budget, rng_seed):
    # parts over one domain with models of their own: each part numbers its
    # predicates anew, and a literal run may end one part and start the next
    constants = oracle_theory(seed).constants
    gt = merge_theories([GroundedTheory(kb=KnowledgeBase(signatures=dict(SIGNATURES), formulas=fs),
                                        constants=constants, predicates=oracle_theory(seed + i).predicates)
                         for i, fs in enumerate(kbs)])
    assert_grounding(grounded_plan(gt, budget, make_rng(rng_seed)), oracle_grounding(gt, budget, make_rng(rng_seed)))


Q2 = Atom("Q", ("x", "y"))  # Q at arity 2 under a quantifier; SIGNATURES has it at 1


@pytest.mark.parametrize("fs, error, message", [
    ([Atom("P", ("a",)), Not(Atom("Q", ("zz",)))], KeyError, "constant 'zz' has no grounding vector"),
    # the last unknown constant of the first atom that has one
    ([Atom("P", ("b",)), Atom("R", ("y1", "y2")), Atom("Q", ("y0",))], KeyError, "constant 'y2'"),
    ([Atom("P", ("a",)), Not(Atom("P", ("a", "b")))], ValueError, "predicate 'P' is used with 1 and 2 arguments"),
    ([Atom("P", ("a", "b")), Atom("P", ("a",))], ValueError, "predicate 'P' is used with 2 and 1 arguments"),
    # a literal's arity is checked before its constants; the first bad literal raises
    ([Atom("P", ("a",)), Atom("P", ("a", "zz"))], ValueError, "predicate 'P' is used with 1 and 2 arguments"),
    ([Atom("P", ("a",)), Atom("P", ("zz",)), Atom("P", ("a", "b"))], KeyError, "constant 'zz'"),
    ([Atom("P", ("a",)), Atom("P", ("a", "b")), Atom("P", ("zz",))], ValueError, "used with 1 and 2 arguments"),
    # a literal, then a quantified atom; a quantified atom, then a literal
    ([Not(Atom("Q", ("a",))), ForAll(("x", "y"), Q2)], ValueError, "predicate 'Q' is used with 1 and 2 arguments"),
    ([ForAll(("x", "y"), Q2), Not(Atom("Q", ("a",)))], ValueError, "predicate 'Q' is used with 2 and 1 arguments"),
    ([Atom("P", ("a",)), Exists(("x",), Atom("P", ("x",))), Atom("Q", ("zz",))], KeyError, "constant 'zz'"),
], ids=["unknown", "last-unknown", "clash-in-run", "clash-in-run-reversed", "clash-before-constant",
        "constant-before-clash", "clash-before-later-constant", "literal-then-quantified", "quantified-then-literal",
        "after-quantified"])
def test_literal_errors_match_the_formula_path(fs, error, message):
    gt = oracle_theory(0)
    gt.kb.formulas = fs
    with pytest.raises(error, match=re.escape(message)):
        GroundPlan(gt, budget=10, rng=make_rng(0))


# ---------------------------------------------------------------------------
# Literal tables against their expansion into Atom and Not formulas


@st.composite
def literal_tables(draw):
    """Up to three tables over P, Q and R, of up to five rows each."""
    tables = []
    for _ in range(draw(st.integers(0, 3))):
        pred = draw(st.sampled_from(sorted(SIGNATURES)))
        n, arity = draw(st.integers(0, 5)), SIGNATURES[pred]
        args = draw(st.lists(st.sampled_from(DOMAIN), min_size=n * arity, max_size=n * arity))
        sign = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        tables.append(LiteralTable(pred, np.array(args, dtype=object).reshape(n, arity), np.array(sign, dtype=bool)))
    return tables


def with_expanded_facts(gt: GroundedTheory) -> GroundedTheory:
    """gt with its tables, or each part's, rewritten as formulas (expand_facts)."""
    if gt.parts:
        return merge_theories([with_expanded_facts(part) for part in gt.parts])
    return GroundedTheory(kb=expand_facts(gt.kb), constants=gt.constants, predicates=gt.predicates)


def assert_grounds_as_its_expansion(gt: GroundedTheory, budget: int, rng_seed: int) -> tuple:
    """gt's plan against the oracle grounding of its expansion, and its
    arrays, batches and formula values against the expansion's plan.
    Returns the plan that keeps every row, and the oracle's grounding."""
    expanded = with_expanded_facts(gt)
    plan = grounded_plan(gt, budget, make_rng(rng_seed))
    want = oracle_grounding(expanded, budget, make_rng(rng_seed))
    assert_grounding(plan, want)
    ours, theirs = (GroundPlan(t, budget, make_rng(rng_seed)) for t in (gt, expanded))
    assert plan_digest(ours) == plan_digest(theirs)
    assert batch_preds(ours) == batch_preds(theirs)
    assert all(np.array_equal(a.x, b.x) for a, b in zip(ours.batches, theirs.batches, strict=True))
    assert np.array_equal(formula_values(ours), formula_values(theirs))
    return plan, want


@given(literal_tables(), grounding_kbs, st.integers(0, 50), st.sampled_from([1, 4, 9, 10**6]), st.integers(0, 3))
@settings(max_examples=60, deadline=None)
def test_tables_ground_as_their_expansion(tables, fs, seed, budget, rng_seed):
    gt = oracle_theory(seed)
    gt.kb.facts, gt.kb.formulas = tables, fs
    assert_batch_inputs(*assert_grounds_as_its_expansion(gt, budget, rng_seed))


@given(st.lists(st.tuples(literal_tables(), grounding_kbs), min_size=2, max_size=3), st.integers(0, 50),
       st.sampled_from([1, 4, 9, 10**6]), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_merged_tables_ground_as_their_expansion(kbs, seed, budget, rng_seed):
    constants = oracle_theory(seed).constants
    gt = merge_theories([GroundedTheory(kb=KnowledgeBase(signatures=dict(SIGNATURES), formulas=fs, facts=tables),
                                        constants=constants, predicates=oracle_theory(seed + i).predicates)
                         for i, (tables, fs) in enumerate(kbs)])
    assert_grounds_as_its_expansion(gt, budget, rng_seed)


class TestLiteralTableErrors:
    @pytest.mark.parametrize("args, sign", [
        (np.array(["a", "b"]), np.array([True, False])),
        (np.empty((2, 0)), np.array([True, False])),
        (np.array([["a"], ["b"]]), np.array([True])),
        (np.array([["a"], ["b"]]), np.array([[True], [False]])),
        (np.array([["a"], ["b"]]), np.array([1, 0])),
    ], ids=["1-d-args", "no-arguments", "short-sign", "2-d-sign", "int-sign"])
    def test_malformed_table_is_refused(self, args, sign):
        with pytest.raises(ValueError, match="literal table of 'P': "):
            LiteralTable("P", args, sign)

    def test_unknown_constant_names_the_predicate_row_and_constant(self):
        gt = oracle_theory(0)
        gt.kb.facts = [LiteralTable("R", np.array([["a", "b"], ["c", "zz"], ["yy", "a"]], dtype=object),
                                    np.array([True, False, True]))]
        with pytest.raises(KeyError, match=re.escape("fact row 1 of predicate 'R': constant 'zz' has no grounding")):
            GroundPlan(gt, budget=10, rng=make_rng(0))

    def test_arity_clash_with_a_quantified_atom(self):
        gt = oracle_theory(0)
        gt.kb.facts = [LiteralTable("Q", np.array([["a"]], dtype=object), np.array([False]))]
        gt.kb.formulas = [ForAll(("x", "y"), Q2)]
        with pytest.raises(ValueError, match=re.escape("predicate 'Q' is used with 1 and 2 arguments")):
            GroundPlan(gt, budget=10, rng=make_rng(0))

    def test_kb_of_empty_tables_is_empty(self):
        gt = oracle_theory(0)
        gt.kb.facts = [LiteralTable("P", np.empty((0, 1), dtype=object), np.empty(0, dtype=bool))]
        with pytest.raises(ValueError, match="cannot evaluate satisfiability of an empty knowledge base"):
            GroundPlan(gt, budget=10, rng=make_rng(0))


class TestLabelTruths:
    """A plan's symbolic truths, looked up by its atom keys, against
    truth_of."""

    def test_lookup_and_default(self):
        gt = GroundedTheory(kb=parse_kb("pred P/1\nP(a) & P(b)\n"), constants={c: np.zeros(1) for c in "ab"},
                            predicates={"P": LabelPredicate({("a",): 1.0})})
        assert GroundPlan(gt, budget=10, rng=make_rng(0))._fixed_values.tolist() == [1.0, 0.0]

    def test_label_truths_match_truth_of(self):
        # a label over a constant outside the domain labels no atom
        p = LabelPredicate({("a", "b"): 0.25, ("c", "c"): 1, ("b", "a"): 0.5, ("z", "a"): 0.75})
        gt = GroundedTheory(kb=parse_kb("pred S/2\nforall x,y: S(x,y)\n"),
                            constants={c: np.zeros(1) for c in "abc"}, predicates={"S": p})
        want = oracle_grounding(gt, 10, make_rng(0))
        assert len(want["atoms"]) == 9
        values = GroundPlan(gt, 10, make_rng(0))._fixed_values.tolist()
        assert values == [truth_of(p, args) for _, args in want["atoms"]]
        assert sorted(set(values)) == [0.0, 0.25, 0.5, 1.0]

    # a key of another arity, or not a tuple (the string "ab" has two
    # in-domain letters), is refused, even over constants outside the domain
    @pytest.mark.parametrize("key", [("a",), ("a", "b", "c"), ("z",), "ab"])
    def test_malformed_label_key_is_refused(self, key):
        p = LabelPredicate({("a", "b"): 0.25, key: 0.9})
        gt = GroundedTheory(kb=parse_kb("pred S/2\nforall x,y: S(x,y)\n"),
                            constants={c: np.zeros(1) for c in "abc"}, predicates={"S": p})
        with pytest.raises(ValueError, match=f"predicate 'S' of arity 2 has a label key {re.escape(repr(key))} "):
            GroundPlan(gt, 10, make_rng(0))


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
    # 3 x values, each with a sample of 4 of the 9 (y, z) pairs; every body
    # row holds a live occurrence, and so is evaluated
    assert stats["quantifiers"] == [
        {"formula": 0, "variables": ["x"], "instantiations": 3, "evaluated": 3, "sampled": False},
        {"formula": 0, "variables": ["y", "z"], "instantiations": 12, "evaluated": 12, "sampled": True},
        {"formula": 2, "variables": ["x"], "instantiations": 3, "evaluated": 3, "sampled": False},
    ]
    assert (stats["roots"], stats["groups"]) == (3, 3)
    assert list(stats["atoms"]) == ["R", "Q", "P"] and stats["atoms"]["P"] == 3
    assert list(stats["live_atoms"]) == ["R", "Q"]
    # Q and R keep their 2B = 8 float64 hidden features per live atom, and nothing more
    assert stats["cache_bytes"] == 64 * (stats["live_atoms"]["Q"] + stats["live_atoms"]["R"])


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


class TestInterning:
    """_intern_keys against np.unique ranked by first index, and the
    counting sort of occurrences against a stable argsort."""

    @staticmethod
    def assert_interned(keys):
        keys = np.asarray(keys, dtype=np.int64)
        atoms, occurrences = _intern_keys(keys)
        want_atoms, want_occurrences = intern_reference(keys)
        assert atoms.dtype == occurrences.dtype == np.int64
        assert np.array_equal(atoms, want_atoms) and np.array_equal(occurrences, want_occurrences)
        assert np.array_equal(atoms[occurrences], keys)

    @given(st.lists(st.integers(0, 40), max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_random_keys_match_the_reference(self, keys):
        self.assert_interned(keys)

    @pytest.mark.parametrize("distinct", [1, 7, 1000, 10**5])
    def test_many_ties_match_the_reference(self, distinct):
        # long runs of equal keys, which an unstable sort permutes
        self.assert_interned(make_rng(distinct).integers(0, distinct, size=20_000) * 9_973)

    @pytest.mark.parametrize("keys", [[], [5], [3] * 50, [0, 2**62], [2**63 - 1, 2**63 - 2, 0, 2**63 - 1, 2**62]],
                             ids=["none", "single", "all-equal", "two", "int64-max"])
    def test_edge_cases_match_the_reference(self, keys):
        self.assert_interned(keys)

    def test_plan_keys_at_the_largest_code(self):
        # two predicates of arity 62 over two constants: span 2**62, P the
        # first, and Q(b, ..., b) has the key 2**63 - 1
        atoms = [("P", ("b",) * 62), ("Q", ("b",) * 62), ("Q", ("a",) * 61 + ("b",)), ("P", ("a",) * 62),
                 ("Q", ("b",) * 62)]
        gt = GroundedTheory(kb=KnowledgeBase(signatures={"P": 62, "Q": 62}, formulas=[Atom(*a) for a in atoms]),
                            constants={c: np.zeros(1) for c in "ab"},
                            predicates={"P": LabelPredicate({}), "Q": LabelPredicate({("b",) * 62: 1.0})})
        plan = GroundPlan(gt, budget=10, rng=make_rng(0))
        assert plan._atoms.tolist() == [2**62 - 1, 2**63 - 1, 2**62 + 2**61, 0]
        assert plan._occurrences.tolist() == [0, 1, 2, 3, 1]
        assert plan._fixed_values.tolist() == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("n", [1, 8, 300, 70_000])
    def test_positions_by_value_match_a_stable_argsort(self, n):
        values = make_rng(n).integers(0, n, size=5_000)
        got = _positions_by_value(values, n)
        want = np.split(np.argsort(values, kind="stable"), np.cumsum(np.bincount(values, minlength=n))[:-1])
        assert len(got) == n and all(np.array_equal(a, b) for a, b in zip(got, want))
        assert [len(p) for p in _positions_by_value(np.zeros(0, dtype=np.int64), 3)] == [0, 0, 0]


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
    _, grads = sat_and_grads(kink_theory(text))
    assert np.any(grads["Q"]["beta"] != 0.0) == passes


def test_exists_tie_goes_to_first_instantiation():
    _, tied = sat_and_grads(kink_theory("exists x: Q(x)"))
    _, first = sat_and_grads(kink_theory("Q(a)"))
    assert np.any(first["Q"]["beta"] != 0.0)
    assert np.array_equal(tied["Q"]["beta"], first["Q"]["beta"])


# sat and gradients computed with the scalar tree evaluator the compiled plan
# replaced; the plans sample (budget below |D|^2), so they also pin the order
# in which instantiation samples are drawn

def golden_partof_theory(kind: str) -> GroundedTheory:
    ds = gen_synthetic(SyntheticConfig(num_scenes=4, num_whole_classes=2, negative_ratio=2.0, seed=21))
    if kind == "rwfn":
        model = make_rwfn_classifier(2 * ds.n, 4, seed=5, mode="full", registry=None)
        model.beta = make_rng(6).standard_normal(8)
    else:
        model = init_ntn(2, 2 * ds.n, make_rng(5))
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
    sat, grads = sat_and_grads(gt, budget, make_rng(2))
    assert abs(sat - sat_expected) <= 1e-12
    for key, expected in grads_expected.items():
        pred, param = key.split(".")
        assert np.allclose(grads[pred][param], expected, rtol=0.0, atol=1e-12)


# ---------------------------------------------------------------------------
# Folding: the plan's batches read the live atoms only


def full_evaluation(plan: GroundPlan) -> tuple:
    """Formula values, satisfiabilities, per-atom gradients and, per
    learnable predicate, its atoms and its parameter gradients, with every
    learnable atom evaluated through its model and the plan's group ops and
    backprop run over all of them. plan keeps every row (grounded_plan).

    A model's forward pass over more rows can round a row's truth
    differently (BLAS GEMV blocks rows), so the atoms the plan's batches
    keep take the truths those batches give, after a check that the full
    pass agrees within 1e-12; the atoms the plan leaves out take their
    full-pass truths."""
    table = np.stack([plan.gt.constants[c] for c in plan._domain])
    values = plan._fixed_values.copy()
    pred_of, code_of = np.divmod(plan._atoms, plan._span)
    inputs = {}
    for pid, ((_, pred), arity) in enumerate(plan._preds.items()):
        model = plan.gt.predicates[pred]
        if not model.symbolic:
            indices = np.flatnonzero(pred_of == pid)
            x = model.lift(table, plan._args(code_of[indices], arity))
            values[indices], saved = model.forward_batch(x)
            inputs[pred] = (model, indices, x, saved)
    for b in plan.batches:
        kept = b.model.forward_batch(b.x)[0]
        assert np.allclose(values[b.indices], kept, rtol=0.0, atol=1e-12)
        values[b.indices] = kept
    per_group = [plan._eval_group(g, [values[a] for a in g.atoms]) for g in plan._groups]
    formula_values = np.empty(len(plan.roots))
    for g, out in zip(plan._groups, per_group):
        formula_values[g.rows] = out[-1]
    sats = plan._part_satisfiabilities(formula_values)
    upstream = np.repeat(sats * sats / plan._counts, plan._counts) / (formula_values + HMEAN_EPS) ** 2
    occ_grads = np.empty(len(plan._occurrences))
    for g, out in zip(plan._groups, per_group):
        plan._backprop_group(g, out, upstream[g.rows], occ_grads)
    atom_grads = np.bincount(plan._occurrences, weights=occ_grads, minlength=len(plan._atoms))
    grads = {pred: (indices, model.gradient_batch(x, atom_grads[indices], saved))
             for pred, (model, indices, x, saved) in inputs.items()}
    return formula_values, sats, atom_grads, grads


def sat_grads_and_upstreams(plan: GroundPlan) -> tuple:
    """plan.satisfiability_with_grads(), and the atom gradients that each
    batch's gradient_batch received."""
    upstreams = []
    with pytest.MonkeyPatch.context() as mp:
        for b in plan.batches:
            mp.setattr(b.model, "gradient_batch",
                       lambda x, up, saved, grad=b.model.gradient_batch: upstreams.append(up) or grad(x, up, saved))
        return (*plan.satisfiability_with_grads(), upstreams)


def assert_fold_exact(gt: GroundedTheory, budget: int = 10**6, rng=None) -> tuple:
    """The plan against full_evaluation of the plan that keeps every row:
    formula values, satisfiabilities and the gradients of the atoms the
    batches read equal bit for bit, parameter gradients within 1e-12 of
    evaluating every learnable atom, and every atom the batches leave out
    gets exactly zero gradient. Returns the plan and the dropped atoms."""
    rng = rng if rng is not None else make_rng(0)
    full = grounded_plan(gt, budget, copy.deepcopy(rng))
    plan = GroundPlan(gt, budget, rng)
    want_values, want_sats, atom_grads, want_grads = full_evaluation(full)
    assert np.array_equal(formula_values(plan), want_values)
    sats, grads, upstreams = sat_grads_and_upstreams(plan)
    assert np.array_equal(sats, want_sats)
    assert len(upstreams) == len(plan.batches)
    for b, upstream in zip(plan.batches, upstreams):
        assert np.array_equal(upstream, atom_grads[b.indices])
    got = {heads[0][1]: g for heads, g in zip(batch_preds(plan), grads)}
    for pred, (_, expected) in want_grads.items():
        for name, g in expected.items():
            assert np.allclose(got[pred][name] if pred in got else 0.0, g, rtol=0.0, atol=1e-12)
    learnable = np.concatenate([indices for indices, _ in want_grads.values()] + [np.array([], dtype=int)])
    dropped = np.setdiff1d(learnable, [a for b in plan.batches for a in b.indices])
    assert np.all(atom_grads[dropped] == 0.0)
    return plan, dropped


def oracle_bounds(gt: GroundedTheory, f, env: dict) -> tuple:
    """The least and greatest truth of the quantifier-free f, with learnable
    truths free in [0, 1] and symbolic ones at their labels."""
    if isinstance(f, Atom):
        model = gt.predicates[f.pred]
        if model.symbolic:
            v = truth_of(model, tuple(env.get(a, a) for a in f.args))
            return v, v
        return 0.0, 1.0
    if isinstance(f, Not):
        lo, hi = oracle_bounds(gt, f.body, env)
        return luk_not(hi), luk_not(lo)
    (alo, ahi), (blo, bhi) = oracle_bounds(gt, f.left, env), oracle_bounds(gt, f.right, env)
    if isinstance(f, Implies):
        return luk_implies(ahi, blo), luk_implies(alo, bhi)
    op = luk_and if isinstance(f, And) else luk_or
    return op(alo, blo), op(ahi, bhi)


def oracle_holds_live(gt: GroundedTheory, f, env: dict) -> bool:
    """Whether a gradient that reaches the quantifier-free f can reach one
    of its atom occurrences: through connectives that each pass it at some
    point of the box (max(0, .) passes at 0, min(1, .) stops at 1)."""
    if isinstance(f, Atom):
        return True
    if isinstance(f, Not):
        return oracle_holds_live(gt, f.body, env)
    (alo, ahi), (blo, bhi) = oracle_bounds(gt, f.left, env), oracle_bounds(gt, f.right, env)
    if isinstance(f, And):
        passes = ahi + bhi - 1.0 >= 0.0
    elif isinstance(f, Or):
        passes = alo + blo < 1.0
    else:
        passes = 1.0 - ahi + blo < 1.0
    return passes and (oracle_holds_live(gt, f.left, env) or oracle_holds_live(gt, f.right, env))


def fold_theory(text: str, p: float = 0.0) -> GroundedTheory:
    """oracle_theory(4) with P fixed at p on every constant."""
    gt = oracle_theory(4)
    gt.predicates["P"] = LabelPredicate({(c,): p for c in DOMAIN})
    gt.kb.formulas = parse_kb("pred P/1\npred Q/1\npred R/2\n" + text).formulas
    return gt


class TestFold:
    @pytest.mark.parametrize("kind", ["ltn", "rwfn"])
    def test_golden_partof_folds_exactly(self, kind):
        plan, dropped = assert_fold_exact(golden_partof_theory(kind), 60, make_rng(2))
        stats = plan.stats()
        assert len(dropped) > 0
        assert stats["live_atoms"]["partOf"] == stats["atoms"]["partOf"] - len(dropped)

    def test_nested_quantifiers_fold_exactly(self):
        assert_fold_exact(golden_nested_theory(), 4, make_rng(2))

    @given(kbs, st.integers(0, 50), st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=3, max_size=3),
           st.sampled_from([4, 10**6]))
    @settings(max_examples=80, deadline=None)
    def test_random_theories_fold_exactly(self, fs, seed, p, budget):
        gt = oracle_theory(seed)
        gt.predicates["P"] = LabelPredicate({(c,): v for c, v in zip(DOMAIN, p)})
        gt.kb.formulas = fs + [rename_constants(f) for f in fs]
        assert_fold_exact(gt, budget, make_rng(seed))

    @pytest.mark.parametrize("text, p, live", [
        # max(0, q + 0 - 1) passes its gradient at q == 1 exactly
        ("forall x: Q(x) & P(x)", 0.0, {"Q": 3}),
        ("forall x: ~(P(x) & Q(x))", 0.0, {"Q": 3}),
        # min(1, 1 - 0 + q) is 1 for every q, and stops the gradient
        ("forall x: P(x) -> Q(x)", 0.0, {"Q": 0}),
        ("forall x: Q(x) | P(x)", 1.0, {"Q": 0}),
        ("forall x: Q(x) | P(x)", 0.5, {"Q": 3}),
        # exists passes a gradient to one body row, but which one can change
        ("exists x: Q(x)", 0.0, {"Q": 3}),
        ("exists x: P(x) -> Q(x)", 0.0, {"Q": 0}),
        # dead in its first occurrence, live in its second
        ("(P(a) -> Q(b)) & Q(b)", 0.0, {"Q": 1}),
        ("P(a) -> Q(b)\nQ(b)", 0.0, {"Q": 1}),
        # a dead op below a live one
        ("forall x: Q(x) | ~(P(x) | R(x,x))", 1.0, {"Q": 3, "R": 0}),
        ("forall x: ~((Q(x) & P(x)) & P(x))", 0.0, {"Q": 0}),
    ])
    def test_kinks(self, text, p, live):
        plan, _ = assert_fold_exact(fold_theory(text, p))
        assert plan.stats()["live_atoms"] == live
        assert batch_preds(plan) == [[(0, pred)] for pred, n in live.items() if n]

    @pytest.mark.parametrize("kind", ["ltn", "rwfn"])
    def test_golden_partof_evaluates_the_body_rows_with_a_live_occurrence(self, kind):
        # every axiom is forall x,y over a quantifier-free body, and each
        # draws its sample in formula order
        gt = golden_partof_theory(kind)
        plan = GroundPlan(gt, 60, make_rng(2))
        rng, domain = make_rng(2), sorted(gt.constants)
        (pairs,) = gt.kb.facts
        want, occurrences = [], len(pairs.sign)  # a pair literal's one atom is learnable
        for f in gt.kb.formulas:
            assert isinstance(f, ForAll)
            rows = oracle_instantiations(domain, len(f.variables), 60, rng)
            want.append(sum(oracle_holds_live(gt, f.body, dict(zip(f.variables, row))) for row in rows))
            occurrences += want[-1] * repr(f.body).count("Atom(")
        quantifiers = plan.stats()["quantifiers"]
        assert [q["evaluated"] for q in quantifiers] == want
        assert sum(want) < sum(q["instantiations"] for q in quantifiers)
        # the plan keeps the occurrences of the rows it evaluates, and no other
        assert len(plan._occurrences) == occurrences

    def test_dropped_rows_are_not_evaluated(self):
        # with P at 0, P(x) -> Q(x) is 1 whatever Q is: those body rows, and
        # the formulas they make constant, are not evaluated; their values
        # fill their places in the formula values and in their quantifier
        gt = fold_theory("P(a) -> Q(b)\n"
                         "forall x: P(x) -> Q(x)\n"
                         "exists x: Q(x) & (forall y: P(y) -> R(x,y))\n"
                         "forall x: Q(x) | (P(x) & R(x,x))\n")
        plan, _ = assert_fold_exact(gt)
        assert [(q["instantiations"], q["evaluated"]) for q in plan.stats()["quantifiers"]] == [
            (3, 0), (3, 3), (9, 0), (3, 3)]
        assert sorted(r for g in plan._groups for r in g.rows.tolist()) == [2, 3]
        assert formula_values(plan)[:2].tolist() == [1.0, 1.0]
        # Q(x) in formulas 2 and 3, and P(x) and R(x,x) in formula 3
        assert len(plan._occurrences) == 3 + 3 * 3

    def test_evaluated_rows_are_counted_per_formula(self):
        # one shape, P at 0 on a alone: the first formula drops the inner
        # rows with y = a, the second those with x = a or y = a, and so the
        # outer row x = a too
        gt = fold_theory("forall x: exists y: (P(y) & P(y)) -> R(x,y)\n"
                         "forall x: exists y: (P(x) & P(y)) -> R(x,y)\n")
        gt.predicates["P"] = LabelPredicate({("a",): 0.0, ("b",): 1.0, ("c",): 1.0})
        plan, _ = assert_fold_exact(gt)
        assert len(plan._groups) == 1
        assert [(q["formula"], q["instantiations"], q["evaluated"]) for q in plan.stats()["quantifiers"]] == [
            (0, 3, 3), (0, 9, 6), (1, 3, 2), (1, 9, 4)]

    def test_plan_without_symbolic_atoms_bounds_nothing(self, monkeypatch):
        # with no symbolic leaf no op is dead, so building the plan keeps
        # every atom and evaluates no group
        gt = oracle_theory(3)
        gt.kb.formulas = parse_kb("pred P/1\npred Q/1\npred R/2\n"
                                  "forall x: Q(x) -> ~R(x,a)\nQ(b) & ~R(a,b)\nexists x,y: R(x,y) | Q(y)\n").formulas
        calls = []
        eval_group = GroundPlan._eval_group
        monkeypatch.setattr(GroundPlan, "_eval_group",
                            staticmethod(lambda group, leaves: calls.append(group) or eval_group(group, leaves)))
        plan = GroundPlan(gt, 10**6, make_rng(0))
        assert calls == []
        stats = plan.stats()
        assert stats["live_atoms"] == stats["atoms"] == {"Q": 3, "R": 9}
        formula_values(plan)
        assert len(calls) == len(plan._groups)
        assert_fold_exact(gt)


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
    stats = plan.stats()
    atoms = stats["live_atoms"]["partOf"]
    assert atoms < stats["atoms"]["partOf"]
    assert hidden_calls == [(atoms, 8)]  # 2B features at B=4
    plan.satisfiability_with_grads()
    assert batch_rows == [("forward_batch", atoms), ("gradient_batch", atoms)]
    assert hidden_calls == [(atoms, 8)]


def test_ntn_hidden_layer_runs_inside_its_forward_call(monkeypatch):
    # the benchmark's traced run times each forward and gradient call, so
    # the NTN's tanh layer has to run inside one, and each call once an epoch
    calls, inside, tanh_in = [], [], []

    def counting(method):
        def wrapper(self, x, *args, **kwargs):
            calls.append(method.__name__)
            inside.append(method.__name__)
            try:
                return method(self, x, *args, **kwargs)
            finally:
                inside.pop()
        return wrapper

    for name in ("lift", "forward_batch", "gradient_batch"):
        monkeypatch.setattr(NtnPredicate, name, counting(getattr(NtnPredicate, name)))
    tanh = np.tanh
    monkeypatch.setattr(np, "tanh", lambda *a, **k: tanh_in.append(tuple(inside)) or tanh(*a, **k))
    plan = GroundPlan(golden_partof_theory("ltn"), 60, make_rng(2))
    assert calls == ["lift"] and tanh_in == []
    plan.satisfiability_with_grads()
    assert calls == ["lift", "forward_batch", "gradient_batch"]
    assert tanh_in == [("forward_batch",)]


# ---------------------------------------------------------------------------
# Plans of the benchmark workloads, pinned bit for bit


def plan_digest(plan: GroundPlan) -> str:
    """sha256 over a plan's integer and exact arrays: atoms, occurrences,
    each group's ops, rows, leaf positions and kept body rows, the filled
    formula values, batch indices and symbolic truths."""
    h = hashlib.sha256()
    arrays = [plan._atoms, plan._occurrences, plan._fill, plan._fixed_values]
    for g in plan._groups:
        h.update(repr(g.ops).encode())
        arrays += [g.rows, *g.pos, *(a for i in sorted(g.bodies) for a in g.bodies[i])]
    arrays += [b.indices for b in plan.batches]
    for a in arrays:
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def acceptance_plan(task: str) -> GroundPlan:
    """The acceptance data at seed 3, split 0.8 as the benchmark splits it:
    the lockstep plan of the twelve class theories over one shared encoder,
    or an RWFN part-of plan at budget 1000."""
    ds = gen_synthetic(SyntheticConfig(num_scenes=150, feature_noise=0.15, negative_ratio=2.0, seed=3))
    train = split(ds, 0.8, make_rng(3)).train
    if task == "types":
        registry = SharedEncoderRegistry()
        gt = merge_theories([build_type_theory(train, c.name, make_classifier("rwfn", train.n, 3, 8, 2, "full",
                                                                              registry))
                             for c in train.classes])
    else:
        gt = build_partof_theory(train, make_classifier("rwfn", 2 * train.n, 3, 8, 2, "full"))
    return GroundPlan(gt, 1000, make_rng(3))


@pytest.mark.parametrize("task, digest", [
    ("types", "5d75467c0fbfdf555e4eee809bcb291af0bbf927e52976afa509f3a8d03b7e2f"),
    # its one-head batch's indices are (n, 1); raveled to (n,) they hash to
    # 730dd859..., the digest of the (n,) indices before every batch stacked
    ("partof", "de2eaabbbeba2c2299c2db73075a2b856b4a0ed8bf0cd47b9f2ec733d0dafb97"),
])
def test_plan_arrays_are_pinned(task, digest):
    assert plan_digest(acceptance_plan(task)) == digest
