"""Fuzzy first-order language, Lukasiewicz connectives, and grounded-theory
satisfiability with analytic subgradients.

Quantifiers aggregate with the harmonic mean (for-all) and the maximum
(exists). When a quantifier's instantiation product exceeds the budget, a
uniform sample of tuples without replacement is drawn; the sample is fixed
for the lifetime of one ground plan, so repeated evaluations of the same
plan are deterministic and gradient checks see a fixed function.
"""

from __future__ import annotations

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

# Grounding walks formulas recursively, so a formula may nest at most this
# many levels: each connective, negation, quantifier and parenthesis counts.
MAX_DEPTH = 100


class _Parser:
    """Recursive descent; each rule returns (formula, height), the height
    being the number of connective and quantifier levels in the formula."""

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
        f, _ = self.formula(frozenset(), 0)
        if self.i < len(self.tokens):
            raise KbSyntaxError(f"trailing input {self.peek()!r}", self.line_no, self.col())
        return f

    def nest(self, levels: int, col: int) -> int:
        """levels, after checking it against MAX_DEPTH; checked on the way
        down (open constructs) and on the way up (formula heights)."""
        if levels > MAX_DEPTH:
            raise KbSyntaxError(f"formula nested deeper than {MAX_DEPTH} levels", self.line_no, col)
        return levels

    def formula(self, bound, depth: int) -> tuple:
        if self.peek() in ("forall", "exists"):
            kind, col = self.take()
            variables = [self.ident("variable name")]
            while self.peek() == ",":
                self.take(",")
                variables.append(self.ident("variable name"))
            self.take(":")
            body, h = self.formula(bound | set(variables), self.nest(depth + 1, col))
            cls = ForAll if kind == "forall" else Exists
            return cls(tuple(variables), body), self.nest(h + 1, col)
        return self.implies(bound, depth)

    def implies(self, bound, depth: int) -> tuple:
        left, h = self.disj(bound, depth)
        if self.peek() == "->":
            _, col = self.take("->")
            right, hr = self.implies(bound, self.nest(depth + 1, col))
            return Implies(left, right), self.nest(max(h, hr) + 1, col)
        return left, h

    def disj(self, bound, depth: int) -> tuple:
        f, h = self.conj(bound, depth)
        while self.peek() == "|":
            _, col = self.take("|")
            right, hr = self.conj(bound, depth)
            f, h = Or(f, right), self.nest(max(h, hr) + 1, col)
        return f, h

    def conj(self, bound, depth: int) -> tuple:
        f, h = self.unary(bound, depth)
        while self.peek() == "&":
            _, col = self.take("&")
            right, hr = self.unary(bound, depth)
            f, h = And(f, right), self.nest(max(h, hr) + 1, col)
        return f, h

    def unary(self, bound, depth: int) -> tuple:
        if self.peek() == "~":
            _, col = self.take("~")
            body, h = self.unary(bound, self.nest(depth + 1, col))
            return Not(body), self.nest(h + 1, col)
        if self.peek() == "(":
            _, col = self.take("(")
            f, h = self.formula(bound, self.nest(depth + 1, col))
            self.take(")")
            return f, h
        return self.atom(bound), 0

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
            if len(decl.group(2)) > 9:  # int() refuses strings of over 4300 digits
                raise KbSyntaxError("arity out of range", line_no, decl.start(2) + 1)
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
#
# Grounding works on integer keys. Constant c is its position in the sorted
# domain D; an atom's argument code is sum_j pos(arg_j) * |D|**j, and its key
# is pred_index * span + code, with span = |D|**(largest arity). Keys are
# interned with one np.unique, ranked by first occurrence.

_KIND = {Not: "not", And: "and", Or: "or", Implies: "implies", ForAll: "forall", Exists: "exists"}
_QUANTIFIERS = ("forall", "exists")
_INT64_MAX = int(np.iinfo(np.int64).max)


class _Group:
    """Formulas that compile to the same ops.

    ops[i] is (kind, *operands): ("atom", leaf), (connective, child, child),
    ("not", child) or (quantifier, body, m), with children earlier in the
    list; the last op is the formula. Leaf k gathers atoms[k] and its
    gradient goes to the plan-wide occurrence slots pos[k]. Leaf k is also
    plan-wide leaf slot + k, which sorts occurrences into pos.
    """

    def __init__(self, ops: tuple, slot: int):
        self.ops = ops
        self.leaves = sum(op[0] == "atom" for op in ops)
        self.quantified = any(op[0] in _QUANTIFIERS for op in ops)
        self.slot = slot
        self.rows: list = []   # root positions
        self.pos: list = []    # per leaf, row-major
        self.atoms: list = []  # per leaf, row-major


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
        self._index = {c: i for i, c in enumerate(self._domain)}
        self._preds: dict[str, int] = {}  # name -> arity, in order of first occurrence
        self._pids: dict[str, int] = {}   # name -> index in _preds
        self._quantifiers: list = []      # (root, variables, instantiations, sampled)
        self.roots = list(gt.kb.formulas)  # formula_values() follows this order
        groups: dict[tuple, _Group] = {}
        slots = 0
        # per atom occurrence, in grounding order: predicate, argument code,
        # leaf slot; quantifier-free formulas add Python ints, the others arrays
        chunks: list = []
        closed: tuple = ([], [], [])
        for i, f in enumerate(self.roots):
            ops: list[tuple] = []
            nodes: list = []
            atoms: list = []
            self._compile(f, ops, nodes, atoms)
            key = tuple(ops)
            group = groups.get(key)
            if group is None:
                group = groups[key] = _Group(key, slots)
                slots += group.leaves
            group.rows.append(i)
            if group.quantified:
                chunks.append(closed)
                closed = ([], [], [])
                codes, leaves = self._ground(i, ops, nodes, rng)
                pids = np.array([self._pids[atom.pred] for atom in atoms])
                chunks.append((pids[leaves], codes, group.slot + leaves))
                continue
            pids, codes, leaf_slots = closed
            leaf_slots.extend(range(group.slot, group.slot + group.leaves))
            for atom in atoms:
                pids.append(self._pids[atom.pred])
                codes.append(self._code(atom.args))
        chunks.append(closed)
        pids, codes, leaf_slots = (np.concatenate([np.asarray(c[j], dtype=np.int64) for c in chunks])
                                   for j in range(3))
        self._intern(pids, codes)
        order = np.argsort(leaf_slots, kind="stable")
        pos = np.split(order, np.cumsum(np.bincount(leaf_slots, minlength=slots))[:-1])
        for group in groups.values():
            group.rows = np.array(group.rows, dtype=np.int64)
            group.pos = pos[group.slot:group.slot + group.leaves]
            group.atoms = [self._occurrences[p] for p in group.pos]
        self._groups = list(groups.values())
        # batch inputs per predicate, built once; symbolic truths are fixed
        self._fixed_values = np.zeros(len(self._atoms))
        self._per_pred: dict[str, dict] = {}
        pred_of, code_of = np.divmod(self._atoms, self._span)
        constants = None
        for pid, (pred, arity) in enumerate(self._preds.items()):
            model = self._model(pred)
            indices = np.flatnonzero(pred_of == pid)
            args = self._args(code_of[indices], arity)
            if model.symbolic:
                self._fixed_values[indices] = model.truth_batch(args, self._index)
                continue
            if constants is None:
                constants = np.stack([gt.constants[c] for c in self._domain])
            entry = {"indices": indices, "model": model, "x": constants[args].reshape(len(indices), -1)}
            if model.frozen_hidden:
                entry["hidden"] = model.hidden_batch(constants, args)
            self._per_pred[pred] = entry

    def _model(self, pred: str):
        try:
            return self.gt.predicates[pred]
        except KeyError:
            raise KeyError(f"predicate {pred!r} has no grounding") from None

    def _compile(self, f: Formula, ops: list, nodes: list, atoms: list) -> int:
        """Append f's ops in post-order, the formula node of each op to
        nodes, and its atoms left to right to atoms (leaf k is atoms[k]);
        returns the index of f's op."""
        if isinstance(f, Atom):
            self._register(f)
            op = ("atom", len(atoms))
            atoms.append(f)
        elif isinstance(f, Not):
            op = ("not", self._compile(f.body, ops, nodes, atoms))
        elif isinstance(f, (And, Or, Implies)):
            op = (_KIND[type(f)], self._compile(f.left, ops, nodes, atoms),
                  self._compile(f.right, ops, nodes, atoms))
        elif isinstance(f, (ForAll, Exists)):
            body = self._compile(f.body, ops, nodes, atoms)
            op = (_KIND[type(f)], body, self._instantiation_count(f.variables))
        else:
            raise TypeError(f"unknown formula node {type(f).__name__}")
        ops.append(op)
        nodes.append(f)
        return len(ops) - 1

    def _register(self, atom: Atom) -> None:
        arity = self._preds.get(atom.pred)
        if arity is None:
            arity = self._preds[atom.pred] = len(atom.args)
            self._pids[atom.pred] = len(self._pids)
            if len(self._domain) ** arity > _INT64_MAX:
                raise ValueError(f"the {len(self._domain)}^{arity} argument tuples of predicate "
                                 f"{atom.pred!r} exceed the int64 atom key range")
        elif arity != len(atom.args):
            raise ValueError(f"predicate {atom.pred!r} is used with {arity} and {len(atom.args)} arguments")

    def _constant(self, c) -> int:
        try:
            return self._index[c]
        except KeyError:
            raise KeyError(f"constant {c!r} has no grounding vector") from None

    def _code(self, args: tuple) -> int:
        code = 0
        for a in reversed(args):
            code = code * len(self._domain) + self._constant(a)
        return code

    def _args(self, codes: np.ndarray, arity: int) -> np.ndarray:
        """(len(codes), arity) constant positions of argument codes."""
        out = np.empty((len(codes), arity), dtype=np.int64)
        for j in range(arity):
            codes, out[:, j] = np.divmod(codes, len(self._domain))
        return out

    def _intern(self, pids: np.ndarray, codes: np.ndarray) -> None:
        """Atom keys in order of first occurrence, and each occurrence's atom."""
        self._span = max(len(self._domain), 1) ** max(self._preds.values())
        if len(self._preds) * self._span > _INT64_MAX + 1:
            raise ValueError(f"{len(self._preds)} predicates over {len(self._domain)} constants "
                             f"exceed the int64 atom key range")
        keys, first, inverse = np.unique(pids * self._span + codes, return_index=True, return_inverse=True)
        order = np.argsort(first)
        rank = np.empty_like(order)
        rank[order] = np.arange(len(order))
        self._atoms = keys[order]
        self._occurrences = rank[inverse]

    def _ground(self, root: int, ops: list, nodes: list, rng) -> tuple:
        """Argument codes and leaf numbers of a quantified formula's atom
        occurrences, in grounding order: depth first, each quantifier body
        once per instantiation. Samples are drawn first, in the same order."""
        draws = []  # whether the subtree of op j draws a sample
        for op, node in zip(ops, nodes):
            if op[0] == "atom":
                draws.append(False)
            elif op[0] in _QUANTIFIERS:
                draws.append(self._sampled(node.variables) or draws[op[1]])
            else:
                draws.append(any(draws[c] for c in op[1:]))
        samples: dict = {}  # op -> one (m, k) sample per enclosing instantiation
        if draws[-1]:
            self._draw(ops, nodes, draws, len(ops) - 1, rng, samples)
        codes, leaves = self._keys(root, ops, nodes, samples, len(ops) - 1, {}, 1)
        return codes[0], leaves

    def _draw(self, ops: list, nodes: list, draws: list, j: int, rng, samples: dict) -> None:
        """Draw op j's samples for one enclosing instantiation, in tree order;
        a nested sampled quantifier draws once per enclosing instantiation."""
        op = ops[j]
        if op[0] in _QUANTIFIERS:
            variables = nodes[j].variables
            if self._sampled(variables):
                samples.setdefault(j, []).append(self._instantiations(len(variables), rng))
            if draws[op[1]]:
                for _ in range(op[2]):
                    self._draw(ops, nodes, draws, op[1], rng, samples)
            return
        for child in op[1:]:
            if draws[child]:
                self._draw(ops, nodes, draws, child, rng, samples)

    def _keys(self, root: int, ops: list, nodes: list, samples: dict, j: int, env: dict, rows: int) -> tuple:
        """(rows, L) argument codes and (L,) leaf numbers of op j's subtree,
        where env holds each bound variable's constant position per row."""
        op, node = ops[j], nodes[j]
        if op[0] == "atom":
            code = np.zeros(rows, dtype=np.int64)
            for k, a in enumerate(node.args):
                code += (env[a] if a in env else self._constant(a)) * len(self._domain) ** k
            return code[:, None], np.array([op[1]])
        if op[0] == "not":
            return self._keys(root, ops, nodes, samples, op[1], env, rows)
        if op[0] in _QUANTIFIERS:
            m = op[2]
            if j in samples:
                inst = np.concatenate(samples[j])
            else:
                inst = np.tile(self._instantiations(len(node.variables), None), (rows, 1))
            self._quantifiers.append((root, node.variables, rows * m, j in samples))
            inner = {v: np.repeat(a, m) for v, a in env.items()}
            inner.update(zip(node.variables, inst.T))
            body, leaves = self._keys(root, ops, nodes, samples, op[1], inner, rows * m)
            return body.reshape(rows, -1), np.tile(leaves, m)
        left, ll = self._keys(root, ops, nodes, samples, op[1], env, rows)
        right, lr = self._keys(root, ops, nodes, samples, op[2], env, rows)
        return np.hstack((left, right)), np.concatenate((ll, lr))

    def _instantiation_count(self, variables: tuple) -> int:
        if not self._domain:
            raise ValueError("quantified formula over an empty constant domain")
        total = len(self._domain) ** len(variables)
        if total > _INT64_MAX:
            raise ValueError(f"quantifier over {', '.join(variables)}: {len(self._domain)}^{len(variables)} "
                             f"instantiations exceed the int64 range")
        return min(total, self.budget)

    def _sampled(self, variables: tuple) -> bool:
        return len(self._domain) ** len(variables) > self.budget

    def _instantiations(self, n_vars: int, rng) -> np.ndarray:
        """(m, n_vars) constant positions: every tuple in itertools.product
        order when they fit the budget, else a sorted sample drawn from rng
        whose flat index has the first variable as its lowest digit."""
        d = len(self._domain)
        total = d ** n_vars
        if total <= self.budget:
            flat, digits = np.arange(total), range(n_vars - 1, -1, -1)
        else:
            flat, digits = np.sort(rng.choice(total, size=self.budget, replace=False)), range(n_vars)
        out = np.empty((len(flat), n_vars), dtype=np.int64)
        for j in digits:
            flat, out[:, j] = np.divmod(flat, d)
        return out

    def stats(self) -> dict:
        """What the plan grounded: atoms per predicate, formulas, groups, the
        instantiations of each quantifier (counting every enclosing one) and
        whether they were sampled, and the bytes of cached hidden layers."""
        counts = np.bincount(self._atoms // self._span, minlength=len(self._preds))
        return {
            "atoms": {pred: int(n) for pred, n in zip(self._preds, counts)},
            "roots": len(self.roots),
            "groups": len(self._groups),
            "quantifiers": [{"formula": i, "variables": list(v), "instantiations": n, "sampled": s}
                            for i, v, n, s in self._quantifiers],
            "hidden_cache_bytes": sum(e["hidden"].nbytes for e in self._per_pred.values() if "hidden" in e),
        }

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
