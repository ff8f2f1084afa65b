"""Fuzzy first-order language, Lukasiewicz connectives, and grounded-theory
satisfiability with analytic subgradients.

Quantifiers aggregate with the harmonic mean (for-all) and the maximum
(exists). When a quantifier's instantiation product exceeds the budget, a
uniform sample of tuples without replacement is drawn; the sample is fixed
for the lifetime of one ground plan, so repeated evaluations of the same
plan are deterministic and gradient checks see a fixed function.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .numerics import make_rng

HMEAN_EPS = 1e-12


# ---------------------------------------------------------------------------
# Formula AST


@dataclass(frozen=True)
class Atom:
    pred: str
    args: tuple  # constant ids or variable names


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class ForAll:
    variables: tuple
    body: "Formula"


@dataclass(frozen=True)
class Exists:
    variables: tuple
    body: "Formula"


Formula = Atom | Not | And | Or | Implies | ForAll | Exists


@dataclass
class KnowledgeBase:
    signatures: dict  # predicate name -> arity
    formulas: list = field(default_factory=list)


@dataclass
class GroundedTheory:
    """A knowledge base plus the partial grounding of constants and predicates."""

    kb: KnowledgeBase
    constants: dict    # record id -> feature vector (np.ndarray)
    predicates: dict   # predicate name -> model

    def learnable_predicates(self) -> dict:
        return {name: m for name, m in self.predicates.items() if m.learnable_params()}


# ---------------------------------------------------------------------------
# KB text parser
#
# Syntax, one statement per line ('#' starts a comment):
#   pred partOf/2
#   Cat(b1)
#   forall x,y: partOf(x,y) -> ~partOf(y,x)
# Operators by loosening precedence: ~, &, |, -> (right associative).
# Identifiers bound by an enclosing quantifier are variables; all other
# identifiers in argument position are constants.


class KbSyntaxError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


_TOKEN_RE = re.compile(r"\s*(->|[(),:~&|]|[A-Za-z_][A-Za-z0-9_]*|\S)")


class _Parser:
    def __init__(self, text: str, line_no: int, signatures: dict):
        self.line_no = line_no
        self.signatures = signatures
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                break
            self.tokens.append((m.group(1), m.start(1) + 1))
            pos = m.end()
        self.i = 0

    def peek(self):
        return self.tokens[self.i][0] if self.i < len(self.tokens) else None

    def col(self):
        return self.tokens[self.i][1] if self.i < len(self.tokens) else (self.tokens[-1][1] if self.tokens else 1)

    def take(self, expected=None):
        if self.i >= len(self.tokens):
            raise KbSyntaxError(f"unexpected end of line, expected {expected or 'a token'}", self.line_no, self.col())
        tok, col = self.tokens[self.i]
        if expected is not None and tok != expected:
            raise KbSyntaxError(f"expected {expected!r}, found {tok!r}", self.line_no, col)
        self.i += 1
        return tok, col

    def parse(self) -> Formula:
        f = self.formula(frozenset())
        if self.i < len(self.tokens):
            raise KbSyntaxError(f"trailing input {self.peek()!r}", self.line_no, self.col())
        return f

    def formula(self, bound) -> Formula:
        if self.peek() in ("forall", "exists"):
            kind, _ = self.take()
            variables = [self.ident("variable name")]
            while self.peek() == ",":
                self.take(",")
                variables.append(self.ident("variable name"))
            self.take(":")
            body = self.formula(bound | set(variables))
            cls = ForAll if kind == "forall" else Exists
            return cls(tuple(variables), body)
        return self.implies(bound)

    def implies(self, bound) -> Formula:
        left = self.disj(bound)
        if self.peek() == "->":
            self.take("->")
            return Implies(left, self.implies(bound))
        return left

    def disj(self, bound) -> Formula:
        f = self.conj(bound)
        while self.peek() == "|":
            self.take("|")
            f = Or(f, self.conj(bound))
        return f

    def conj(self, bound) -> Formula:
        f = self.unary(bound)
        while self.peek() == "&":
            self.take("&")
            f = And(f, self.unary(bound))
        return f

    def unary(self, bound) -> Formula:
        if self.peek() == "~":
            self.take("~")
            return Not(self.unary(bound))
        if self.peek() == "(":
            self.take("(")
            f = self.formula(bound)
            self.take(")")
            return f
        return self.atom(bound)

    def ident(self, what):
        tok, col = self.take()
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise KbSyntaxError(f"expected {what}, found {tok!r}", self.line_no, col)
        return tok

    def atom(self, bound) -> Atom:
        col = self.col()
        name = self.ident("predicate name")
        if name not in self.signatures:
            raise KbSyntaxError(f"unknown predicate {name!r}", self.line_no, col)
        self.take("(")
        args = [self.ident("term")]
        while self.peek() == ",":
            self.take(",")
            args.append(self.ident("term"))
        self.take(")")
        arity = self.signatures[name]
        if len(args) != arity:
            raise KbSyntaxError(f"predicate {name!r} has arity {arity}, got {len(args)} arguments", self.line_no, col)
        return Atom(name, tuple(args))


_DECL_RE = re.compile(r"^\s*pred\s+([A-Za-z_][A-Za-z0-9_]*)\s*/\s*(\d+)\s*$")


def parse_kb(text: str) -> KnowledgeBase:
    """Parse declarations and formulas; errors carry line and column."""
    signatures: dict = {}
    pending: list[tuple[int, str]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        decl = _DECL_RE.match(line)
        if decl:
            name, arity = decl.group(1), int(decl.group(2))
            if arity < 1:
                raise KbSyntaxError("arity must be >= 1", line_no, 1)
            signatures[name] = arity
        else:
            pending.append((line_no, line))
    formulas = [_Parser(line, line_no, signatures).parse() for line_no, line in pending]
    return KnowledgeBase(signatures=signatures, formulas=formulas)


# ---------------------------------------------------------------------------
# Lukasiewicz connectives


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


def hmean(values: np.ndarray) -> float:
    """Harmonic mean with epsilon-stabilized reciprocals, capped at 1: the
    epsilon alone lifts the mean of all-ones to 1 + 1e-12."""
    v = np.asarray(values, dtype=np.float64)
    return float(np.minimum(1.0, len(v) / np.sum(1.0 / (v + HMEAN_EPS))))


# ---------------------------------------------------------------------------
# Ground plans. Each formula compiles to a post-order list of array ops;
# formulas with the same ops (the same connectives and quantifiers, whatever
# their predicates, constants and variables) form one group, evaluated as
# one batch with a row per formula. A quantifier with m instantiations runs
# its body on rows*m rows and reduces them to rows. The instantiation sample
# is fixed for the lifetime of one plan, so evaluation and backprop reuse it.

_KIND = {Not: "not", And: "and", Or: "or", Implies: "implies", ForAll: "forall", Exists: "exists"}


class _Group:
    """Formulas that compile to the same ops.

    ops[i] is (kind, *operands): ("atom", leaf), (connective, child, child),
    ("not", child) or (quantifier, body, m), with children earlier in the
    list; the last op is the formula. Leaf k gathers atoms[k] and its
    gradient goes to the plan-wide occurrence slots pos[k].
    """

    def __init__(self, ops: tuple):
        self.ops = ops
        self.rows: list = []                                      # root positions
        self.pos: list = [[] for op in ops if op[0] == "atom"]    # per leaf, row-major
        self.atoms: list = []                                     # per leaf, row-major


class GroundPlan:
    def __init__(self, gt: GroundedTheory, budget: int, rng: np.random.Generator | None):
        if not gt.kb.formulas:
            raise ValueError("cannot evaluate satisfiability of an empty knowledge base")
        if budget < 1:
            raise ValueError(f"instantiation budget must be >= 1, got {budget}")
        self.gt = gt
        self.budget = budget
        rng = rng if rng is not None else make_rng(0)
        self._domain = sorted(gt.constants)
        self._atom_index: dict[tuple, int] = {}
        self._atoms: list[tuple] = []  # (pred, args)
        self.roots = list(gt.kb.formulas)  # formula_values() follows this order
        occurrences: list[int] = []    # atom index of every leaf, in grounding order
        groups: dict[tuple, _Group] = {}
        for i, f in enumerate(self.roots):
            ops: list[tuple] = []
            self._compile(f, ops, itertools.count())
            key = tuple(ops)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(key)
            group.rows.append(i)
            self._ground(f, {}, 0, group, occurrences, rng)
        self._occurrences = np.array(occurrences, dtype=np.int64)
        for group in groups.values():
            group.rows = np.array(group.rows, dtype=np.int64)
            group.pos = [np.array(p, dtype=np.int64) for p in group.pos]
            group.atoms = [self._occurrences[p] for p in group.pos]
        self._groups = list(groups.values())
        # batch inputs per predicate, built once; symbolic truths are fixed
        self._fixed_values = np.zeros(len(self._atoms))
        self._per_pred: dict[str, dict] = {}
        for pred, group in self._group_atoms().items():
            model = self._model(pred)
            indices = np.array([i for i, _ in group])
            if model.symbolic:
                self._fixed_values[indices] = [model.truth_of(args) for _, args in group]
                continue
            entry = {"indices": indices, "model": model}
            entry["x"] = np.stack([
                np.concatenate([gt.constants[a] for a in args]) for _, args in group
            ])
            if model.frozen_hidden:
                entry["hidden"] = model.hidden_batch(entry["x"])
            self._per_pred[pred] = entry

    def _model(self, pred: str):
        try:
            return self.gt.predicates[pred]
        except KeyError:
            raise KeyError(f"predicate {pred!r} has no grounding") from None

    def _group_atoms(self) -> dict:
        groups: dict[str, list] = {}
        for i, (pred, args) in enumerate(self._atoms):
            groups.setdefault(pred, []).append((i, args))
        return groups

    def _atom(self, pred: str, args: tuple) -> int:
        key = (pred, args)
        idx = self._atom_index.get(key)
        if idx is None:
            for a in args:
                if a not in self.gt.constants:
                    raise KeyError(f"constant {a!r} has no grounding vector")
            idx = len(self._atoms)
            self._atom_index[key] = idx
            self._atoms.append(key)
        return idx

    def _compile(self, f: Formula, ops: list, leaves) -> int:
        """Append f's ops in post-order, numbering atoms left to right;
        returns the index of f's op."""
        if isinstance(f, Atom):
            op = ("atom", next(leaves))
        elif isinstance(f, Not):
            op = ("not", self._compile(f.body, ops, leaves))
        elif isinstance(f, (And, Or, Implies)):
            op = (_KIND[type(f)], self._compile(f.left, ops, leaves), self._compile(f.right, ops, leaves))
        elif isinstance(f, (ForAll, Exists)):
            body = self._compile(f.body, ops, leaves)
            op = (_KIND[type(f)], body, self._instantiation_count(len(f.variables)))
        else:
            raise TypeError(f"unknown formula node {type(f).__name__}")
        ops.append(op)
        return len(ops) - 1

    def _ground(self, f: Formula, bindings: dict, leaf: int, group: _Group,
                occurrences: list, rng) -> int:
        """Record f's atoms leaf by leaf, drawing quantifier samples in tree
        order (inner ones once per enclosing instantiation); returns the
        number of the next leaf."""
        if isinstance(f, Atom):
            group.pos[leaf].append(len(occurrences))
            args = tuple([bindings.get(a, a) for a in f.args]) if bindings else f.args
            occurrences.append(self._atom(f.pred, args))
            return leaf + 1
        if isinstance(f, Not):
            return self._ground(f.body, bindings, leaf, group, occurrences, rng)
        if isinstance(f, (And, Or, Implies)):
            leaf = self._ground(f.left, bindings, leaf, group, occurrences, rng)
            return self._ground(f.right, bindings, leaf, group, occurrences, rng)
        end = leaf
        for combo in self._instantiations(len(f.variables), rng):
            inner = dict(bindings)
            inner.update(zip(f.variables, combo))
            end = self._ground(f.body, inner, leaf, group, occurrences, rng)
        return end

    def _instantiation_count(self, n_vars: int) -> int:
        if not self._domain:
            raise ValueError("quantified formula over an empty constant domain")
        return min(len(self._domain) ** n_vars, self.budget)

    def _instantiations(self, n_vars: int, rng) -> list:
        dom = self._domain
        total = len(dom) ** n_vars
        if total <= self.budget:
            return list(itertools.product(dom, repeat=n_vars))
        picks = rng.choice(total, size=self.budget, replace=False)
        picks.sort()
        out = []
        for flat in picks:
            combo = []
            for _ in range(n_vars):
                flat, r = divmod(flat, len(dom))
                combo.append(dom[r])
            out.append(tuple(combo))
        return out

    # -- evaluation --------------------------------------------------------

    def _atom_values(self) -> tuple[np.ndarray, dict]:
        """Truth of every atom, plus each learnable predicate's hidden layer
        and truths, for its gradient."""
        values = self._fixed_values.copy()
        forward = {}
        for pred, entry in self._per_pred.items():
            model, x = entry["model"], entry["x"]
            h = entry["hidden"] if "hidden" in entry else model.hidden_batch(x)
            p = model.forward_batch(x, hidden=h)
            values[entry["indices"]] = p
            forward[pred] = (h, p)
        return values, forward

    @staticmethod
    def _eval_group(group: _Group, atom_values: np.ndarray) -> list:
        out = []
        for op in group.ops:
            kind = op[0]
            if kind == "atom":
                v = atom_values[group.atoms[op[1]]]
            elif kind == "not":
                v = 1.0 - out[op[1]]
            elif kind == "and":
                v = np.maximum(0.0, out[op[1]] + out[op[2]] - 1.0)
            elif kind == "or":
                v = np.minimum(1.0, out[op[1]] + out[op[2]])
            elif kind == "implies":
                v = np.minimum(1.0, 1.0 - out[op[1]] + out[op[2]])
            elif kind == "forall":
                body = out[op[1]].reshape(-1, op[2])
                v = np.minimum(1.0, op[2] / np.sum(1.0 / (body + HMEAN_EPS), axis=1))
            else:
                v = out[op[1]].reshape(-1, op[2]).max(axis=1)
            out.append(v)
        return out

    def _forward(self) -> tuple:
        atom_values, forward = self._atom_values()
        per_group = [self._eval_group(g, atom_values) for g in self._groups]
        values = np.empty(len(self.roots))
        for group, out in zip(self._groups, per_group):
            values[group.rows] = out[-1]
        return values, per_group, forward

    def formula_values(self) -> np.ndarray:
        return self._forward()[0]

    def satisfiability(self) -> float:
        return hmean(self.formula_values())

    # -- backprop ----------------------------------------------------------

    @staticmethod
    def _backprop_group(group: _Group, out: list, upstream: np.ndarray, occ_grads: np.ndarray) -> None:
        grads = [None] * len(out)
        grads[-1] = upstream
        for i in range(len(out) - 1, -1, -1):
            op, g = group.ops[i], grads[i]
            kind = op[0]
            if kind == "atom":
                occ_grads[group.pos[op[1]]] = g
            elif kind == "not":
                grads[op[1]] = -g
            elif kind in ("and", "or", "implies"):
                a, b = out[op[1]], out[op[2]]
                # subgradients at the kinks: max(0, .) passes at 0, min(1, .) stops at 1
                if kind == "and":
                    g = g * ((a + b - 1.0) >= 0.0)
                elif kind == "or":
                    g = g * ((a + b) < 1.0)
                else:
                    g = g * ((1.0 - a + b) < 1.0)
                grads[op[1]] = -g if kind == "implies" else g
                grads[op[2]] = g
            elif kind == "forall":
                m = op[2]
                body = out[op[1]].reshape(-1, m)
                h = out[i]
                grads[op[1]] = ((g * (h * h / m))[:, None] / (body + HMEAN_EPS) ** 2).ravel()
            else:
                body = out[op[1]].reshape(-1, op[2])
                d = np.zeros_like(body)
                d[np.arange(len(body)), np.argmax(body, axis=1)] = g  # first maximum
                grads[op[1]] = d.ravel()

    def satisfiability_with_grads(self) -> tuple[float, dict]:
        """Returns (sat, {pred: {param: grad}}) for learnable predicates."""
        values, per_group, forward = self._forward()
        sat = hmean(values)
        upstream = (sat * sat / len(values)) / (values + HMEAN_EPS) ** 2
        occ_grads = np.empty(len(self._occurrences))
        for group, out in zip(self._groups, per_group):
            self._backprop_group(group, out, upstream[group.rows], occ_grads)
        # summed in grounding order, whatever the grouping
        atom_grads = np.bincount(self._occurrences, weights=occ_grads, minlength=len(self._atoms))
        grads: dict = {}
        for pred, entry in self._per_pred.items():
            h, p = forward[pred]
            grads[pred] = entry["model"].gradient_batch(
                entry["x"], atom_grads[entry["indices"]], hidden=h, truth=p)
        return sat, grads


# ---------------------------------------------------------------------------
# Public operations


def eval_formula(gt: GroundedTheory, f: Formula, bindings: dict | None = None,
                 budget: int = 10_000, rng: np.random.Generator | None = None) -> float:
    """Evaluate one formula under the grounding; free variables via bindings."""
    grounded = _substitute(f, bindings) if bindings else f
    sub = GroundedTheory(kb=KnowledgeBase(signatures=gt.kb.signatures, formulas=[grounded]),
                         constants=gt.constants, predicates=gt.predicates)
    return float(GroundPlan(sub, budget, rng).formula_values()[0])


def _substitute(f: Formula, bindings: dict) -> Formula:
    if isinstance(f, Atom):
        return Atom(f.pred, tuple(bindings.get(a, a) for a in f.args))
    if isinstance(f, Not):
        return Not(_substitute(f.body, bindings))
    if isinstance(f, (And, Or, Implies)):
        return type(f)(_substitute(f.left, bindings), _substitute(f.right, bindings))
    if isinstance(f, (ForAll, Exists)):
        inner = {k: v for k, v in bindings.items() if k not in f.variables}
        return type(f)(f.variables, _substitute(f.body, inner))
    raise TypeError(type(f).__name__)


def satisfiability(gt: GroundedTheory, instantiation_budget: int = 10_000,
                   rng: np.random.Generator | None = None) -> float:
    """Aggregate truth of all KB formulas under the grounding."""
    return GroundPlan(gt, instantiation_budget, rng).satisfiability()


def satisfiability_gradient(gt: GroundedTheory, instantiation_budget: int = 10_000,
                            rng: np.random.Generator | None = None) -> tuple[float, dict]:
    """Satisfiability plus parameter gradients, on one fixed instantiation sample."""
    return GroundPlan(gt, instantiation_budget, rng).satisfiability_with_grads()
