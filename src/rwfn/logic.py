"""Fuzzy first-order language, Lukasiewicz connectives, and grounded-theory
satisfiability with analytic subgradients.

Quantifiers aggregate with the harmonic mean (for-all) and the maximum
(exists). When a quantifier's instantiation product exceeds the budget, a
uniform sample of tuples without replacement is drawn; the sample is fixed
for the lifetime of one ground plan, so repeated evaluations of the same
plan are deterministic and gradient checks see a fixed function.
"""

from __future__ import annotations

import copy
import itertools
import re
from dataclasses import dataclass, field

import numpy as np

from .predicates import stack

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


@dataclass(frozen=True)
class LiteralTable:
    """Ground literals of one predicate as columns: row i is the atom
    pred(*args[i]) where sign[i] is true, else its negation."""

    pred: str
    args: np.ndarray  # (n, arity) constant ids
    sign: np.ndarray  # (n,) bool

    def __post_init__(self):
        args, sign = np.asarray(self.args), np.asarray(self.sign)
        if args.ndim != 2 or args.shape[1] < 1:
            raise ValueError(f"literal table of {self.pred!r}: args must be an (n, arity) array of arity >= 1, "
                             f"got shape {args.shape}")
        if sign.dtype != bool or sign.shape != (len(args),):
            raise ValueError(f"literal table of {self.pred!r}: sign must be {len(args)} bools, one per row, "
                             f"got {sign.dtype} of shape {sign.shape}")
        object.__setattr__(self, "args", args)
        object.__setattr__(self, "sign", sign)


@dataclass
class KnowledgeBase:
    """Ground literals as tables (facts) and other formulas. A plan's roots
    are the fact rows, table by table, then the formulas."""

    signatures: dict  # predicate name -> arity
    formulas: list = field(default_factory=list)
    facts: list = field(default_factory=list)  # LiteralTables

    def root_count(self) -> int:
        return sum(len(t.sign) for t in self.facts) + len(self.formulas)


@dataclass
class GroundedTheory:
    """A knowledge base plus the partial grounding of constants and predicates."""

    kb: KnowledgeBase
    constants: dict    # record id -> feature vector (np.ndarray)
    predicates: dict   # predicate name -> model
    parts: list = field(default_factory=list)  # the theories merge_theories joined

    def learnable_predicates(self) -> dict:
        return {name: m for name, m in self.predicates.items() if m.learnable_params()}


def merge_theories(theories: list) -> GroundedTheory:
    """Several theories over one set of constants as one, whose parts they
    are: their tables and formulas in order, and each predicate keyed
    (part, name), so the atoms of different parts stay distinct. A
    constant id must name one vector. A plan over the result runs every
    part in one pass, with its own satisfiability and quantifier samples."""
    if not theories:
        raise ValueError("no theories to merge")
    constants = theories[0].constants
    for i, gt in enumerate(theories):
        if _same_vectors(gt.constants, constants):
            continue
        if gt.constants.keys() != constants.keys():
            raise ValueError(f"theory {i} is over other constants than theory 0; merged theories share one domain")
        for c, v in gt.constants.items():
            if constants[c] is not v and not np.array_equal(constants[c], v):
                raise ValueError(f"constant {c!r} is bound to different vectors in theory {i} and an earlier one")
    return GroundedTheory(
        kb=KnowledgeBase(signatures={(i, name): a for i, gt in enumerate(theories)
                                     for name, a in gt.kb.signatures.items()},
                         formulas=[f for gt in theories for f in gt.kb.formulas],
                         facts=[t for gt in theories for t in gt.kb.facts]),
        constants=dict(constants),
        predicates={(i, name): m for i, gt in enumerate(theories) for name, m in gt.predicates.items()},
        parts=list(theories))


def _same_vectors(a: dict, b: dict) -> bool:
    """Whether a and b bind the same ids to the same vector objects, in one
    C-level dict comparison: it tests each value by identity before numpy's
    ==, whose result for two distinct vectors of more than one entry has no
    truth value."""
    try:
        return a == b
    except ValueError:
        return False


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
                var_col = self.col()
                variables.append(self.ident("variable name"))
                if variables[-1] in variables[:-1]:
                    raise KbSyntaxError(f"{kind} binds {variables[-1]!r} twice", self.line_no, var_col)
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
            if name in ("forall", "exists"):
                raise KbSyntaxError(f"{name!r} is a quantifier, not a predicate name", line_no, decl.start(1) + 1)
            if signatures.setdefault(name, arity) != arity:
                raise KbSyntaxError(f"predicate {name!r} is already declared with arity {signatures[name]}",
                                    line_no, decl.start(2) + 1)
        else:
            pending.append((line_no, line))
    formulas = [_Parser(line, line_no, signatures).parse() for line_no, line in pending]
    return KnowledgeBase(signatures=signatures, formulas=formulas)


# ---------------------------------------------------------------------------
# Ground plans. Each formula compiles to a post-order list of array ops;
# formulas with the same ops (the same connectives and quantifiers, whatever
# their predicates, constants and variables) form one group, evaluated as
# one batch with a row per formula. A quantifier with m instantiations runs
# its body on rows*m rows and reduces them to rows. The instantiation sample
# is fixed for the lifetime of one plan, so evaluation and backprop reuse it.
# A literal table's rows join the groups of P(c) and ~P(c) as they are, one
# root each, with no formula node. A plan of nothing but such rows, each
# reading its own cell of one batch, runs its epochs on those cells and
# not on the groups (_column_roots), with the same floats.
#
# Grounding works on integer keys. Constant c is its position in the sorted
# domain D; an atom's argument code is sum_j pos(arg_j) * |D|**j, and its key
# is pred_index * span + code, with span = |D|**(largest arity). Keys are
# interned in order of first occurrence, from one sort (_intern_keys). A
# symbolic predicate's labels are keyed by the same codes, so its atoms'
# truths are looked up by key.
#
# Symbolic truths can fix a row: in forall x,y: isWhole(x) -> ~partOf(x,y),
# each row where isWhole(x) is 0 is 1 whatever partOf(x,y) is, and the
# implication passes partOf no gradient there. With learnable truths free in
# [0, 1] and symbolic ones at their values, two evaluations of a group's ops
# (each learnable leaf at the end that lowers, then raises, the formula)
# bound every op's value on every row. A connective whose gradient mask
# (_passes) is false over the whole box is dead: its output is its clamp
# constant, since float +, -, min and max are monotone, and it passes back
# exactly zero. An atom whose every occurrence lies under a dead op is left
# out of the batches; it keeps its fixed value, 0, which is inside the box.
# Quantifiers always pass their gradient down (exists counts as passing it
# to every body row).
#
# An atom occurrence under no dead op is live. A row (a formula, or one
# body row of a quantifier) that holds no live occurrence is constant: on
# the way down from its top, every live op ends in a dead op, which sits at
# its clamp constant. So the plan keeps only the rows that hold a live
# occurrence, and their occurrences. A dropped row's value, which its lower
# bound over the box already holds, fills its place once, at plan build: in
# the formula values, or in its quantifier's (rows, m) body, which is still
# reduced whole. Each of its occurrences would get a gradient of exactly
# +-0, which adds nothing to its atom's sum. So, given the live atoms'
# truths, formula values are bit-identical to evaluating every row and atom,
# and so are the live atoms' gradients. Only the model's own row sums run
# over fewer rows.

_KIND = {Not: "not", And: "and", Or: "or", Implies: "implies", ForAll: "forall", Exists: "exists"}
_QUANTIFIERS = ("forall", "exists")
_LITERAL_OPS = {True: (("atom", 0),), False: (("atom", 0), ("not", 0))}  # by sign
_INT64_MAX = int(np.iinfo(np.int64).max)


def _passes(kind: str, a, b):
    """Where a connective of operands a and b passes its gradient on; at
    the kinks, max(0, .) passes at 0 and min(1, .) stops at 1."""
    if kind == "and":
        return (a + b - 1.0) >= 0.0
    if kind == "or":
        return (a + b) < 1.0
    return (1.0 - a + b) < 1.0


def _intern_keys(keys: np.ndarray) -> tuple:
    """The distinct keys in order of first occurrence, and each key's index
    among them: np.unique's keys ranked by first index, from one sort.
    The sort need not be stable: equal keys form one run of it, and the
    least position in a run is that key's first occurrence."""
    n = len(keys)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    starts = np.empty(n, dtype=bool)  # where a run of equal keys starts
    starts[:1] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    del sorted_keys
    starts = np.flatnonzero(starts)
    first = np.minimum.reduceat(order, starts)
    is_first = np.zeros(n, dtype=bool)
    is_first[first] = True
    rank = np.cumsum(is_first)[first] - 1  # of each run's key, among the first occurrences
    occurrences = np.empty(n, dtype=np.int64)
    occurrences[order] = np.repeat(rank, np.diff(starts, append=n))
    return keys[is_first], occurrences


def _positions_by_value(values: np.ndarray, n: int) -> list:
    """For each v in range(n), the positions where the ints values equal v,
    in order. numpy's stable sort of ints of 8 or 16 bits is a radix sort:
    a counting sort per byte."""
    order = np.argsort(values.astype(np.min_scalar_type(n)), kind="stable")
    return np.split(order, np.cumsum(np.bincount(values, minlength=n))[:-1])


class _Group:
    """Formulas that compile to the same ops.

    ops[i] is (kind, *operands): ("atom", leaf), (connective, child, child),
    ("not", child) or (quantifier, body, m), with children earlier in the
    list; the last op is the formula. An op runs on the kept rows of its
    level, the group's formulas or a quantifier's body rows (see the
    ground-plan comment). rows holds the kept formulas' root positions.
    bodies[i] holds quantifier i's kept body rows as (keep, parents, fill):
    their flat positions in its (rows, m) body, the row of each, and that
    body with the dropped rows' values in place, as body() holds them. Leaf
    k gathers atoms[k] on its kept rows and its gradient goes to the
    plan-wide occurrence slots pos[k]. Leaf k is also plan-wide leaf slot +
    k, by which occurrences are sorted into pos.
    """

    def __init__(self, ops: tuple, slot: int):
        self.ops = ops
        self.leaves = sum(op[0] == "atom" for op in ops)
        self.slot = slot
        # +1 for an op whose value rises with the formula's, -1 for one
        # under an odd number of negations and implication antecedents
        self.signs = [1] * len(ops)
        self.scale = [1] * len(ops)  # rows of each op per formula
        for i in range(len(ops) - 1, -1, -1):
            op, sign = ops[i], self.signs[i]
            if op[0] in ("and", "or", "implies"):
                self.signs[op[1]] = -sign if op[0] == "implies" else sign
                self.signs[op[2]] = sign
                self.scale[op[1]] = self.scale[op[2]] = self.scale[i]
            elif op[0] != "atom":  # not, or a quantifier
                self.signs[op[1]] = -sign if op[0] == "not" else sign
                self.scale[op[1]] = self.scale[i] * (op[2] if op[0] in _QUANTIFIERS else 1)
        self.rows: list = []   # root positions; a list of runs of them while grounding
        self.pos: list = []    # per leaf, row-major
        self.atoms: list = []  # per leaf, row-major
        self.bodies: dict = {}

    def keep_all(self) -> None:
        """Keep every body row, over the formulas in rows."""
        for i, op in enumerate(self.ops):
            if op[0] in _QUANTIFIERS:
                keep = np.arange(len(self.rows) * self.scale[i] * op[2])
                self.bodies[i] = (keep, keep // op[2], np.zeros(len(keep)))

    def body(self, i: int, values: np.ndarray) -> np.ndarray:
        """Quantifier i's (rows, m) body, given its kept rows' values; a
        forall's holds their reciprocals 1 / (v + HMEAN_EPS), which its
        harmonic mean sums."""
        keep, _, fill = self.bodies[i]
        body = fill.copy()
        body[keep] = 1.0 / (values + HMEAN_EPS) if self.ops[i][0] == "forall" else values
        return body.reshape(-1, self.ops[i][2])


@dataclass
class _Batch:
    """Learnable predicates whose atoms read the same rows, evaluated as one
    model: the stack of their K >= 1 models (predicates.stack). theta holds
    the model's learnable arrays in one vector, and building the plan
    rebinds the members' arrays to views of it, so one in-place step on
    theta trains them all. indices holds the live atom of each row and
    head, (n, K), as the model's truths: a row is kept when one of its
    atoms has an occurrence that can pass a gradient (see the ground-plan
    comment). x holds the rows the model reads (model.lift): an RWFN's
    frozen hidden layer, an NTN's argument rows or their quadratic lift."""

    members: list
    model: object
    theta: np.ndarray
    indices: np.ndarray
    x: np.ndarray


class GroundPlan:
    """The compiled grounding of a theory, or of the parts of a merged one
    (merge_theories). A part is a slice of the plan's roots, quantified
    over the plan's one domain, with its own satisfiability and quantifier
    samples, drawn from its own copy of rng. A part's roots are its fact
    rows, then its formulas."""

    def __init__(self, gt: GroundedTheory, budget: int, rng: np.random.Generator):
        parts = gt.parts or [gt]
        self._counts = np.array([part.kb.root_count() for part in parts])
        if not self._counts.all():
            raise ValueError("cannot evaluate satisfiability of an empty knowledge base")
        if budget < 1:
            raise ValueError(f"instantiation budget must be >= 1, got {budget}")
        self.gt = gt
        self.budget = budget
        self._parts = parts
        self._domain = sorted(gt.constants)
        self._index = {c: i for i, c in enumerate(self._domain)}
        self._preds: dict = {}          # (part, name) -> arity, in order of first occurrence
        self._pids: dict = {}           # (part, name) -> index in _preds
        self._quantifiers: list = []    # (root, op, variables, instantiations, sampled)
        self._evaluated: dict = {}      # (root, op) -> its kept body rows, where rows were dropped
        self.roots = range(int(self._counts.sum()))  # root positions; _forward()'s values follow them
        self._fill = np.zeros(len(self.roots))  # the dropped formulas' values
        ends = np.cumsum(self._counts).tolist()
        self._slices = [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]  # each part's roots
        # grounding runs in methods of its own, whose intermediates are freed
        # before the first lift: the memory peak is the cache and the plan
        self._compile_all(rng)
        rows = self._batch_rows()
        self.batches: list[_Batch] = []
        constants = np.stack([gt.constants[c] for c in self._domain]) if rows else None
        for models, indices, args in rows:
            model, theta = stack(models)
            self.batches.append(_Batch(members=list(models), model=model, theta=theta, indices=indices,
                                       x=model.lift(constants, args)))
        self._columns = self._column_roots()

    def _column_roots(self) -> tuple | None:
        """(sign, flat) of each root when the plan is only literal columns:
        every root a fact row, every atom occurring once and every atom a
        row of the one batch. sign is the root's literal sign and flat its
        atom's position in the batch's flattened (n, K) truths, so each
        batch cell is read by exactly one root. Else None, and epochs run
        the groups."""
        if (any(part.kb.formulas for part in self._parts) or len(self._occurrences) != len(self._atoms)
                or len(self.batches) != 1 or self.batches[0].indices.size != len(self._atoms)):
            return None
        cell = np.empty(len(self._atoms), dtype=np.int64)
        cell[self.batches[0].indices.ravel()] = np.arange(len(self._atoms))
        # a fact root's one occurrence is in root order
        return np.concatenate([t.sign for part in self._parts for t in part.kb.facts]), cell[self._occurrences]

    def _compile_all(self, rng: np.random.Generator) -> None:
        """Group and ground every part's fact rows, one pass per table
        (_facts), then its formulas one by one (_formula); intern their
        atoms."""
        groups: dict[tuple, _Group] = {}

        def group_of(ops: tuple) -> _Group:
            group = groups.get(ops)
            if group is None:
                last = next(reversed(groups.values()), None)
                group = groups[ops] = _Group(ops, last.slot + last.leaves if last else 0)
            return group

        # per atom occurrence, in grounding order: predicate, argument code,
        # leaf slot; a chunk per table or formula
        chunks: list = []
        root = 0
        for self._part, part in enumerate(self._parts):
            for table in part.kb.facts:
                if len(table.sign):
                    chunks.append(self._facts(table, root, group_of))
                    root += len(table.sign)
            part_rng = copy.deepcopy(rng) if self.gt.parts and part.kb.formulas else rng
            for f in part.kb.formulas:
                chunks.append(self._formula(root, f, part_rng, group_of))
                root += 1
        del self._part
        pids, codes, leaf_slots = (np.concatenate([c[j] for c in chunks]) for j in range(3))
        self._intern(pids, codes)
        del pids, codes
        pos = _positions_by_value(leaf_slots, sum(g.leaves for g in groups.values()))
        for group in groups.values():
            group.rows = np.concatenate(group.rows, dtype=np.int64)
            group.pos = pos[group.slot:group.slot + group.leaves]
            group.atoms = [self._occurrences[p] for p in group.pos]
        self._groups = list(groups.values())

    def _facts(self, table: LiteralTable, first: int, group_of) -> tuple:
        """Predicate ids, argument codes and leaf slots of a table's rows,
        roots first, first + 1, ...; the two literal groups are made in
        order of first occurrence."""
        n, arity = table.args.shape
        self._register(table.pred, arity)
        ids = table.args.ravel().tolist()
        positions = np.fromiter(map(self._index.get, ids, itertools.repeat(-1)), dtype=np.int64, count=len(ids))
        unknown = np.flatnonzero(positions < 0)  # -1 marks a constant with no grounding vector
        if len(unknown):
            raise KeyError(f"fact row {unknown[0] // arity} of predicate {table.pred!r}: "
                           f"constant {ids[unknown[0]]!r} has no grounding vector")
        slots = np.empty(n, dtype=np.int64)
        for sign in (bool(table.sign[0]), not table.sign[0]):
            rows = np.flatnonzero(table.sign == sign)
            if len(rows):
                group = group_of(_LITERAL_OPS[sign])
                group.rows.append(rows + first)
                slots[rows] = group.slot
        return np.full(n, self._pids[self._part, table.pred]), self._codes(positions.reshape(n, arity)), slots

    def _formula(self, root: int, f: Formula, rng, group_of) -> tuple:
        """Predicate ids, argument codes and leaf slots of formula root's
        atom occurrences."""
        ops: list[tuple] = []
        nodes: list = []
        atoms: list = []
        self._compile(f, ops, nodes, atoms)
        group = group_of(tuple(ops))
        group.rows.append([root])
        codes, leaves = self._ground(root, ops, nodes, rng)
        pids = np.array([self._pids[self._part, atom.pred] for atom in atoms], dtype=np.int64)
        return pids[leaves], codes, group.slot + leaves

    def _batch_rows(self) -> list:
        """Fix the symbolic truths, and return each batch with a live atom:
        its models, the indices of its live atoms and their arguments."""
        # symbolic truths are fixed, looked up by argument code in the labels
        # over the plan's domain (a label set may span more constants than a
        # split holds, but a key that is not a tuple of the predicate's arity
        # is an error); learnable predicates with equal stack_key() whose
        # atoms have the same arguments are batched, in one part or across
        # parts, and each batch's input is built once.
        self._fixed_values = np.zeros(len(self._atoms))
        self._live_rows: dict = {}  # (part, name) -> rows of its batch
        learnable = np.ones(len(self._atoms), dtype=bool)
        pred_of, code_of = np.divmod(self._atoms, self._span)
        same_rows: dict = {}  # (stack_key, rows) -> [(pred, model, indices, args), ...], one batch
        for (pred, arity), indices in zip(self._preds.items(), _positions_by_value(pred_of, len(self._preds))):
            model = self._model(pred)
            if model.symbolic:
                self._fixed_values[indices] = self._label_truths(pred[1], model, arity, code_of[indices])
                learnable[indices] = False
                continue
            args = self._args(code_of[indices], arity)
            key = (model.stack_key(), args.shape, args.tobytes())
            same_rows.setdefault(key, []).append((pred, model, indices, args))
        live = self._live(learnable)
        rows = []
        for members in same_rows.values():
            preds, models, indices, args = zip(*members)
            indices = np.stack(indices, axis=1)
            keep = live[indices].any(axis=1)
            self._live_rows.update(dict.fromkeys(preds, int(keep.sum())))
            if keep.any():  # else its predicates take no gradient from the logic
                rows.append((models, indices[keep], args[0][keep]))
        return rows

    def _label_truths(self, name: str, model, arity: int, codes: np.ndarray) -> np.ndarray:
        """The truths of a symbolic predicate's atoms, given their argument
        codes: the label of each, or 0.0. Labels of constants
        outside the plan's domain match no atom."""
        for key in model.truths:
            if not (isinstance(key, tuple) and len(key) == arity):
                raise ValueError(f"predicate {name!r} of arity {arity} has a label key {key!r} "
                                 f"that is not a tuple of {arity} constants")
        # each label's argument code, or -1 where a constant is not in the domain
        args = np.array([self._index.get(a, -1) for key in model.truths for a in key],
                        dtype=np.int64).reshape(len(model.truths), arity)
        labels = self._codes(args)
        labels[(args < 0).any(axis=1)] = -1
        values = np.array([float(v) for v in model.truths.values()])
        order = np.argsort(labels)
        # a key past every code ends the table, so each lookup lands on a row
        labels = np.append(labels[order], _INT64_MAX)
        values = np.append(values[order], 0.0)
        at = np.searchsorted(labels, codes)
        return np.where(labels[at] == codes, values[at], 0.0)

    def _model(self, key: tuple):
        part, pred = key
        try:
            return self._parts[part].predicates[pred]
        except KeyError:
            raise KeyError(f"predicate {pred!r} has no grounding") from None

    def _compile(self, f: Formula, ops: list, nodes: list, atoms: list) -> int:
        """Append f's ops in post-order, the formula node of each op to
        nodes, and its atoms left to right to atoms (leaf k is atoms[k]);
        returns the index of f's op."""
        if isinstance(f, Atom):
            self._register(f.pred, len(f.args))
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

    def _register(self, pred: str, arity: int) -> None:
        key = (self._part, pred)
        known = self._preds.get(key)
        if known is None:
            self._preds[key] = arity
            self._pids[key] = len(self._pids)
            if len(self._domain) ** arity > _INT64_MAX:
                raise ValueError(f"the {len(self._domain)}^{arity} argument tuples of predicate "
                                 f"{pred!r} exceed the int64 atom key range")
        elif known != arity:
            raise ValueError(f"predicate {pred!r} is used with {known} and {arity} arguments")

    def _constant(self, c) -> int:
        if c not in self._index:
            raise KeyError(f"constant {c!r} has no grounding vector")
        return self._index[c]

    def _codes(self, args: np.ndarray) -> np.ndarray:
        """Argument codes of (n, arity) constant positions; _args inverts it."""
        codes = np.zeros(len(args), dtype=np.int64)
        for j in range(args.shape[1] - 1, -1, -1):
            codes = codes * len(self._domain) + args[:, j]
        return codes

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
        self._atoms, self._occurrences = _intern_keys(pids * self._span + codes)

    def _ground(self, root: int, ops: list, nodes: list, rng) -> tuple:
        """Argument codes and leaf numbers of a formula's atom occurrences,
        in grounding order: depth first, each quantifier body once per
        instantiation. Samples are drawn first, in the same order."""
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
        """(rows, L) argument codes (_codes) and (L,) leaf numbers of op j's
        subtree, where env holds each bound variable's constant position per
        row. An atom's first unknown constant raises, as in _facts."""
        op, node = ops[j], nodes[j]
        if op[0] == "atom":
            args = np.empty((rows, len(node.args)), dtype=np.int64)
            for i, a in enumerate(node.args):
                args[:, i] = env[a] if a in env else self._constant(a)
            return self._codes(args)[:, None], np.array([op[1]])
        if op[0] == "not":
            return self._keys(root, ops, nodes, samples, op[1], env, rows)
        if op[0] in _QUANTIFIERS:
            m = op[2]
            if j in samples:
                inst = np.concatenate(samples[j])
            else:
                inst = np.tile(self._instantiations(len(node.variables), None), (rows, 1))
            self._quantifiers.append((root, j, node.variables, rows * m, j in samples))
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
        """(m, n_vars) constant positions in the plan's domain: every tuple
        in itertools.product order when they fit the budget, else a sorted
        sample of argument codes drawn from rng, decoded by _args, so that
        the first variable is their lowest digit."""
        total = len(self._domain) ** n_vars
        if total <= self.budget:
            return self._args(np.arange(total), n_vars)[:, ::-1]
        return self._args(np.sort(rng.choice(total, size=self.budget, replace=False)), n_vars)

    def _live(self, learnable: np.ndarray) -> np.ndarray:
        """Whether each atom has an occurrence under no dead op, over
        learnable truths free in [0, 1] and symbolic ones at their values;
        keeps only the rows that hold such an occurrence, and their
        occurrences (see the ground-plan comment). With no symbolic leaf no
        op is dead, so every atom is live and every row is kept."""
        if learnable.all():
            for group in self._groups:
                group.keep_all()
            return learnable
        live_occ = np.zeros(len(self._occurrences), dtype=bool)
        for group in self._groups:
            group.keep_all()  # to be evaluated whole, then compacted
            signs = [group.signs[i] for i, op in enumerate(group.ops) if op[0] == "atom"]  # leaf order
            # the formula at its lowest, then at its highest; then, in place,
            # each op's lower and upper bounds
            lo, hi = [self._eval_group(group, [np.where(learnable[a], float(s == sign), self._fixed_values[a])
                                               for s, a in zip(signs, group.atoms)]) for sign in (-1, 1)]
            for a, b in zip(lo, hi):
                swap = a > b
                a[swap], b[swap] = b[swap], a[swap]
            live = [None] * len(group.ops)
            live[-1] = np.ones(len(group.rows), dtype=bool)
            for i in range(len(group.ops) - 1, -1, -1):
                op, mask = group.ops[i], live[i]
                kind = op[0]
                if kind == "atom":
                    live_occ[group.pos[op[1]]] = mask
                elif kind == "not":
                    live[op[1]] = mask
                elif kind in _QUANTIFIERS:
                    live[op[1]] = np.repeat(mask, op[2])
                else:
                    # each operand at the end of its range where the op passes most
                    mask = mask & _passes(kind, (lo if kind == "or" else hi)[op[1]],
                                          (hi if kind == "and" else lo)[op[2]])
                    live[op[1]] = live[op[2]] = mask
            del hi  # the compaction's arrays take its place
            self._compact(group, live, lo)
        live = np.zeros(len(self._atoms), dtype=bool)
        live[self._occurrences[live_occ]] = True
        # number the kept occurrences in grounding order
        kept = np.zeros(len(self._occurrences), dtype=bool)
        for group in self._groups:
            for p in group.pos:
                kept[p] = True
        slots = np.cumsum(kept) - 1
        self._occurrences = self._occurrences[kept]
        for group in self._groups:
            group.pos = [slots[p] for p in group.pos]
            group.atoms = [self._occurrences[p] for p in group.pos]
        return live

    def _compact(self, group: _Group, live: list, values: list) -> None:
        """Keep group's rows that hold an occurrence whose leaf's live mask
        is true: its formulas, each quantifier's body rows, and each leaf's
        occurrences on them. A dropped row takes its value in values, the
        ops' lower bounds over the box, which a constant row has everywhere
        in it."""
        holds = []  # per op and row, whether its subtree holds a live occurrence
        for i, op in enumerate(group.ops):
            kind = op[0]
            if kind == "atom":
                holds.append(live[i])
            elif kind == "not":
                holds.append(holds[op[1]])
            elif kind in _QUANTIFIERS:
                holds.append(holds[op[1]].reshape(-1, op[2]).any(axis=1))
            else:
                holds.append(holds[op[1]] | holds[op[2]])
        kept = [None] * len(group.ops)  # per op, its kept rows among all of them
        kept[-1] = np.flatnonzero(holds[-1])
        roots = group.rows.tolist()
        self._fill[group.rows] = values[-1]
        group.rows = group.rows[kept[-1]]
        for i in range(len(group.ops) - 1, -1, -1):
            op = group.ops[i]
            if op[0] == "atom":
                group.pos[op[1]] = group.pos[op[1]][kept[i]]
            elif op[0] in _QUANTIFIERS:
                m = op[2]
                rows = np.flatnonzero(holds[op[1]])
                parents = np.searchsorted(kept[i], rows // m)
                fill = values[op[1]].reshape(-1, m)[kept[i]].ravel()
                if op[0] == "forall":  # as body() holds it
                    fill = 1.0 / (fill + HMEAN_EPS)
                group.bodies[i] = (parents * m + rows % m, parents, fill)
                kept[op[1]] = rows
                # a level's rows are formula-major, scale rows per formula
                counts = np.bincount(rows // group.scale[op[1]], minlength=len(roots)).tolist()
                self._evaluated.update({(root, i): n for root, n in zip(roots, counts)})
            else:
                for child in op[1:]:
                    kept[child] = kept[i]

    def stats(self) -> dict:
        """What the plan grounded: atoms per predicate, the live atoms of
        each learnable one (the rows its batch reads), roots (fact rows and
        formulas), groups, the instantiations of each quantifier (counting
        every enclosing one) and whether they were sampled, and the bytes of
        the rows its batches keep (model.lift). A plan over several parts
        gives its parts, roots, groups and cache bytes here, and the rest
        per part (part_stats)."""
        shared = {"groups": len(self._groups), "cache_bytes": sum(b.x.nbytes for b in self.batches)}
        if self.gt.parts:
            return {"parts": len(self._counts), "roots": len(self.roots), **shared}
        return {**self.part_stats(0), **shared}

    def part_stats(self, part: int) -> dict:
        """A part's atoms per predicate, live atoms per learnable one,
        roots, and quantifiers, with its roots numbered from 0."""
        counts = np.bincount(self._atoms // self._span, minlength=len(self._preds))
        lo, hi = self._slices[part].start, self._slices[part].stop
        return {
            "atoms": {pred: int(n) for (p, pred), n in zip(self._preds, counts) if p == part},
            "live_atoms": {pred: n for (p, pred), n in self._live_rows.items() if p == part},
            "roots": int(hi - lo),
            "quantifiers": [{"formula": int(i - lo), "variables": list(v), "instantiations": n,
                             "evaluated": self._evaluated.get((i, j), n), "sampled": s}
                            for i, j, v, n, s in self._quantifiers if lo <= i < hi],
        }

    # -- evaluation --------------------------------------------------------

    def _atom_values(self) -> tuple[np.ndarray, list]:
        """Truth of every atom, plus what each batch's forward_batch saved
        for its gradient."""
        values = self._fixed_values.copy()
        saved = []
        for b in self.batches:
            truths, state = b.model.forward_batch(b.x)
            values[b.indices] = truths
            saved.append(state)
        return values, saved

    @staticmethod
    def _eval_group(group: _Group, leaves: list) -> list:
        """Each op's values on its kept rows, given each leaf's."""
        out = []
        for i, op in enumerate(group.ops):
            kind = op[0]
            if kind == "atom":
                v = leaves[op[1]]
            elif kind == "not":
                v = 1.0 - out[op[1]]
            elif kind == "and":
                v = np.maximum(0.0, out[op[1]] + out[op[2]] - 1.0)
            elif kind == "or":
                v = np.minimum(1.0, out[op[1]] + out[op[2]])
            elif kind == "implies":
                v = np.minimum(1.0, 1.0 - out[op[1]] + out[op[2]])
            elif kind == "forall":
                v = np.minimum(1.0, op[2] / np.sum(group.body(i, out[op[1]]), axis=1))
            else:
                v = group.body(i, out[op[1]]).max(axis=1)
            out.append(v)
        return out

    def _forward(self) -> tuple:
        atom_values, saved = self._atom_values()
        per_group = [self._eval_group(g, [atom_values[a] for a in g.atoms]) for g in self._groups]
        values = self._fill.copy()
        for group, out in zip(self._groups, per_group):
            values[group.rows] = out[-1]
        return values, per_group, saved

    def _part_satisfiabilities(self, values: np.ndarray) -> np.ndarray:
        """The harmonic mean of each part's formula values, over reciprocals
        1 / (v + HMEAN_EPS) and capped at 1: the epsilon alone lifts the
        mean of all-ones to 1 + 1e-12."""
        recip = 1.0 / (values + HMEAN_EPS)
        sums = np.array([recip[part].sum() for part in self._slices])
        return np.minimum(1.0, self._counts / sums)

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
                g = g * _passes(kind, out[op[1]], out[op[2]])
                grads[op[1]] = -g if kind == "implies" else g
                grads[op[2]] = g
            elif kind == "forall":
                h = out[i]
                parents = group.bodies[i][1]
                grads[op[1]] = (g * (h * h / op[2]))[parents] / (out[op[1]] + HMEAN_EPS) ** 2
            else:
                body = group.body(i, out[op[1]])
                d = np.zeros_like(body)
                d[np.arange(len(body)), np.argmax(body, axis=1)] = g  # first maximum
                grads[op[1]] = d.ravel()[group.bodies[i][0]]

    def _upstream(self, values: np.ndarray) -> tuple:
        """Each part's satisfiability, and the gradient of their sum with
        respect to each root's value."""
        sats = self._part_satisfiabilities(values)
        return sats, np.repeat(sats * sats / self._counts, self._counts) / (values + HMEAN_EPS) ** 2

    def satisfiability_with_grads(self) -> tuple[np.ndarray, list]:
        """Returns each part's satisfiability, and for each batch the
        gradient of their sum, {param: grad}, with respect to its model's
        parameters. A head's atoms lie in one part, so its gradient is that
        part's alone. A plan of literal columns (_column_roots) gathers its
        root values from the batch truths and scatters their signed
        gradients back, in one array op each; the groups give the same
        floats."""
        if self._columns is not None:
            (b,), (sign, flat) = self.batches, self._columns
            truths, state = b.model.forward_batch(b.x)
            values = truths.ravel()[flat]
            sats, upstream = self._upstream(np.where(sign, values, 1.0 - values))
            grad = np.empty(truths.size)
            grad[flat] = np.where(sign, upstream, -upstream)
            return sats, [b.model.gradient_batch(b.x, grad.reshape(truths.shape), state)]
        values, per_group, saved = self._forward()
        sats, upstream = self._upstream(values)
        occ_grads = np.empty(len(self._occurrences))
        for group, out in zip(self._groups, per_group):
            self._backprop_group(group, out, upstream[group.rows], occ_grads)
        # summed in grounding order, whatever the grouping
        atom_grads = np.bincount(self._occurrences, weights=occ_grads, minlength=len(self._atoms))
        grads = [b.model.gradient_batch(b.x, atom_grads[b.indices], state)
                 for b, state in zip(self.batches, saved)]
        return sats, grads
