"""Per-layer timing and counting of the rwfn modules, from outside the package.

Each public function is replaced where its caller looks it up, for the
duration of one traced iteration, by a wrapper that records a span and
counts the work it was given. `rwfn.evaluation` imported `train` by name,
so the training loop is timed by patching `rwfn.evaluation.train`; likewise
`hidden_features` in `rwfn.predicates`, `GroundPlan` in `rwfn.training`.

Known blind spot: RWFN atom evaluation (`H @ beta`, inline in
`GroundPlan._atom_values`) shows only through its `predicates.sigmoid` call,
so that matmul counts as `logic.sat_grad` self time.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from contextlib import contextmanager

from rwfn import data, evaluation, logic, predicates, tasks, training
from rwfn.logic import And, Exists, ForAll, Implies, Not, Or

from spans import Tracer, has_ancestor, self_times

KIND = {predicates.NtnPredicate: "ltn", predicates.RwfnPredicate: "rwfn"}
KINDS = tuple(KIND.values())

# span names; each reports its summed self time as "<name>_s"
TIMED = (
    "data.gen", "data.split",
    "encoder.draw", "encoder.hidden",
    "tasks.theory",
    "logic.plan", "logic.sat_grad",
    "predicates.forward", "predicates.grad",
    "training.step", "training.loop",
    "evaluation.score", "evaluation.auc",
)

COUNTED = (
    "data.records", "data.pairs",
    "encoder.rows", "encoder.cache_bytes",
    "tasks.formulas",
    "logic.atoms", "logic.roots", "logic.instantiations", "logic.sampled_quantifiers",
    *(f"predicates.calls_per_epoch.{k}" for k in KINDS),
    *(f"predicates.rows_per_epoch.{k}" for k in KINDS),
    "training.steps",
)


def quantifier_counts(formulas, domain: int, budget: int) -> list:
    """(instantiations, sampled) per quantifier, by the ground plan's rule:
    all |D|^k tuples when they fit the budget, else exactly `budget` sampled
    ones. A nested quantifier is grounded once per enclosing instantiation."""
    out = []

    def walk(f, copies):
        if isinstance(f, (ForAll, Exists)):
            total = domain ** len(f.variables)
            n = min(total, budget)
            out.append((copies * n, total > budget))
            walk(f.body, copies * n)
        elif isinstance(f, Not):
            walk(f.body, copies)
        elif isinstance(f, (And, Or, Implies)):
            walk(f.left, copies)
            walk(f.right, copies)

    for f in formulas:
        walk(f, 1)
    return out


class Probe:
    """Spans plus exact work counts for one traced iteration."""

    def __init__(self):
        self.tracer = Tracer()
        self.counts: Counter = Counter()
        self.quantifiers: list = []

    def epoch_call(self, kind: str, rows: int) -> None:
        # a predicate call made by the epoch's satisfiability pass
        if self.tracer.current() == "logic.sat_grad":
            self.counts[f"calls.{kind}"] += 1
            self.counts[f"rows.{kind}"] += rows

    def layer_metrics(self) -> dict:
        spans = self.tracer.spans
        by_name: dict = defaultdict(float)
        for s, t in zip(spans, self_times(spans)):
            by_name[s[0]] += t
        out = {f"{name}_s": by_name[name] for name in TIMED}
        c = self.counts
        out.update({name: c[name] for name in COUNTED if not name.startswith("predicates.")})
        out["logic.instantiations"] = sum(n for n, _ in self.quantifiers)
        out["logic.sampled_quantifiers"] = sum(1 for _, sampled in self.quantifiers if sampled)
        for k in KINDS:
            epochs = c[f"epochs.{k}"]
            out[f"predicates.calls_per_epoch.{k}"] = c[f"calls.{k}"] / epochs if epochs else 0.0
            out[f"predicates.rows_per_epoch.{k}"] = c[f"rows.{k}"] / epochs if epochs else 0.0
        return out

    def epoch_loop_self_times(self) -> dict:
        """{fit tag: {span name: self seconds}} over the epoch loops only:
        the training loop and everything it calls, except plan building."""
        spans = self.tracer.spans
        out: dict = defaultdict(lambda: defaultdict(float))
        for i, (s, t) in enumerate(zip(spans, self_times(spans))):
            name = s[0]
            in_loop = name == "training.loop" or (
                name != "logic.plan" and has_ancestor(spans, i, "training.loop", stop="logic.plan"))
            if in_loop:
                out[s[4]][name] += t
        return {tag: dict(layers) for tag, layers in out.items()}


def _timed(probe: Probe, name: str, fn, before=None, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(*args, **kwargs)
        with probe.tracer.span(name):
            out = fn(*args, **kwargs)
        if after is not None:
            after(out, *args, **kwargs)
        return out

    return wrapper


def _patches(p: Probe) -> list:
    """(owner, attribute, wrapper) for every name the traced run replaces."""
    c = p.counts

    def gen_done(ds, *_a, **_k):
        c["data.records"] += len(ds.records)
        c["data.pairs"] += len(ds.pairs)

    def hidden_done(h, *_a, **_k):
        c["encoder.rows"] += h.shape[0]
        if p.tracer.current() == "logic.plan":
            c["encoder.cache_bytes"] += h.shape[0] * h.shape[1] * 8  # computed, float64

    def theory_done(gt, *_a, **_k):
        c["tasks.formulas"] += len(gt.kb.formulas)

    def plan_done(plan, gt, budget, *_a, **_k):
        c["logic.atoms"] += len(plan._atoms)
        c["logic.roots"] += len(plan.roots)
        p.quantifiers.extend(quantifier_counts(gt.kb.formulas, len(gt.constants), budget))

    def epoch_begin(plan):
        kinds = {KIND[type(m)] for m in plan.gt.learnable_predicates().values()}
        for k in kinds:
            c[f"epochs.{k}"] += 1

    def step_done(*_a, **_k):
        c["training.steps"] += 1

    def predicate_call(kind):
        return lambda _self, x, *_a, **_k: p.epoch_call(kind, len(x))

    sigmoid = predicates.sigmoid

    @functools.wraps(sigmoid)
    def traced_sigmoid(z):
        # inside forward_batch/gradient_batch it is part of that call already
        if (p.tracer.current() or "").startswith("predicates."):
            return sigmoid(z)
        p.epoch_call("rwfn", len(z))
        with p.tracer.span("predicates.forward"):
            return sigmoid(z)

    out = [
        (data, "gen_synthetic", "data.gen", None, gen_done),
        (data, "split", "data.split", None, None),
        (tasks, "build_encoder", "encoder.draw", None, None),
        (training, "build_encoder", "encoder.draw", None, None),
        (predicates, "hidden_features", "encoder.hidden", None, hidden_done),
        (evaluation, "build_type_theory", "tasks.theory", None, theory_done),
        (evaluation, "build_partof_theory", "tasks.theory", None, theory_done),
        (training, "GroundPlan", "logic.plan", None, plan_done),
        (logic.GroundPlan, "satisfiability_with_grads", "logic.sat_grad", epoch_begin, None),
        (training, "rmsprop_step", "training.step", None, step_done),
        (evaluation, "train", "training.loop", None, None),
        (evaluation, "type_scores", "evaluation.score", None, None),
        (evaluation, "partof_scores", "evaluation.score", None, None),
        (evaluation, "pr_auc", "evaluation.auc", None, None),
        (evaluation, "macro_auc", "evaluation.auc", None, None),
    ]
    for cls, kind in KIND.items():
        out.append((cls, "forward_batch", "predicates.forward", predicate_call(kind), None))
        out.append((cls, "gradient_batch", "predicates.grad", predicate_call(kind), None))
    wrapped = [(owner, attr, _timed(p, name, owner.__dict__[attr], before, after))
               for owner, attr, name, before, after in out]
    return wrapped + [(predicates, "sigmoid", traced_sigmoid)]


@contextmanager
def instrumented(probe: Probe):
    """Install the wrappers for the body of the block, then restore."""
    patches = _patches(probe)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield probe
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
