"""Slow, obvious references that the package's array code is tested
against: the scalar Lukasiewicz connectives and harmonic mean, a label
predicate's truth of one atom, the floats that frozen-encoder classifiers
store, the predicates a plan's batches evaluate, the interning of atom keys,
and a knowledge base's literal tables as formulas. Also the two readings of
a plan that the package computes only inside its training step: a theory's
satisfiability and a plan's formula values."""

import numpy as np

from rwfn.logic import HMEAN_EPS, Atom, GroundPlan, KnowledgeBase, Not
from rwfn.numerics import make_rng


def _check_range(*values):
    for a in values:
        if not 0.0 <= a <= 1.0:
            raise ValueError(f"truth value {a} outside [0,1]")


def luk_not(a: float) -> float:
    _check_range(a)
    return 1.0 - a


def luk_and(a: float, b: float) -> float:
    _check_range(a, b)
    return max(0.0, a + b - 1.0)


def luk_or(a: float, b: float) -> float:
    _check_range(a, b)
    return min(1.0, a + b)


def luk_implies(a: float, b: float) -> float:
    _check_range(a, b)
    return min(1.0, 1.0 - a + b)


def hmean(values) -> float:
    """Harmonic mean with epsilon-stabilized reciprocals, capped at 1: the
    epsilon alone lifts the mean of all-ones to 1 + 1e-12."""
    v = np.asarray(values, dtype=np.float64)
    return float(np.minimum(1.0, len(v) / np.sum(1.0 / (v + HMEAN_EPS))))


def satisfiability(gt, budget: int = 10_000, rng=None) -> float:
    """The satisfiability of the one-part theory gt, as a plan over it
    (quantifier samples from rng, by default make_rng(0)) reports it to
    training."""
    (sat,), _ = GroundPlan(gt, budget, rng if rng is not None else make_rng(0)).satisfiability_with_grads()
    return float(sat)


def formula_values(plan) -> np.ndarray:
    """Each root's truth under plan, in root order: its forward pass."""
    return plan._forward()[0]


def truth_of(model, args: tuple) -> float:
    """A LabelPredicate's truth of the atom over the constant ids args."""
    return float(model.truths.get(tuple(args), 0.0))


def stored_floats(models) -> int:
    """Floats that frozen-encoder classifiers keep: the gate, Fourier and
    phase blocks of each distinct encoder once, plus every decoder."""
    encoders = {id(m.encoder): m.encoder for m in models}
    return (sum(e.gate.size + e.fourier.size + e.phase.size for e in encoders.values())
            + sum(m.beta.size for m in models))


def batch_preds(plan) -> list:
    """The (part, name) of each head of each of plan's batches: the
    predicate whose model is that member, by identity."""
    key = {id(model): (i, name) for i, part in enumerate(plan.gt.parts or [plan.gt])
           for name, model in part.predicates.items()}
    return [[key[id(m)] for m in b.members] for b in plan.batches]


def intern_reference(keys):
    """The distinct keys in order of first occurrence, and each key's index
    among them: np.unique's keys and first indices, ranked by a sort of
    those indices."""
    distinct, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return distinct[order], rank[inverse]


def expand_facts(kb: KnowledgeBase) -> KnowledgeBase:
    """kb with its literal tables rewritten as one Atom or Not(Atom) formula
    per row, table by table, in front of its other formulas."""
    literals = [Atom(t.pred, tuple(args)) if sign else Not(Atom(t.pred, tuple(args)))
                for t in kb.facts for args, sign in zip(t.args.tolist(), t.sign.tolist())]
    return KnowledgeBase(signatures=kb.signatures, formulas=literals + kb.formulas)
