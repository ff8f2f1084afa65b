"""Best-satisfiability training: loss = 1 - sat + lambda * ||theta||^2,
optimized with RMSProp, plus the shared-encoder registry.

The quantifier instantiation sample is drawn once per training run and held
fixed across epochs (full-batch training on a fixed ground plan). This keeps
runs deterministic and lets frozen-encoder models cache hidden features for
every atom, so their epochs cost only decoder-sized dot products.

Theories over one set of constants train in lockstep (train_many): one
plan, each theory a slice of its formulas. Learnable predicates of equal
stack_key() that read the same rows, in one theory or several, run as one
stacked model, a lone one as a stack of one head. Each plan model, and
each learnable predicate without atoms, holds its arrays, led by a heads
axis, in the one float64 vector predicates.stack packs, and its members'
rows are views of it: one RMSProp step per model and epoch updates all in
place. A theory's L2 term adds, in its predicates' order, one sum of
squares per array of its own, taken per head from one reduction over each
stacked array (predicates.square_sums). Each theory's loss, parameters and
quantifier samples are those of training it alone, up to rounding; the L2
term is bit for bit.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, RwfnEncoder, build_encoder
from .logic import GroundedTheory, GroundPlan, merge_theories
from .numerics import make_rng
from .predicates import square_sums, stack


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 1000
    l2: float = 1e-10
    learning_rate: float = 0.01
    rmsprop_decay: float = 0.9
    rmsprop_eps: float = 1e-8
    instantiation_budget: int = 10_000
    seed: int = 0

    def __post_init__(self):
        for name in ("epochs", "instantiation_budget", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        for name in ("epochs", "instantiation_budget"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("l2", "learning_rate", "rmsprop_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        for name in ("l2", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ValueError("rmsprop_decay must be in (0,1)")
        if self.rmsprop_eps <= 0:
            raise ValueError("rmsprop_eps must be > 0")


def rmsprop_step(theta: np.ndarray, grad: np.ndarray, acc: np.ndarray, cfg: TrainConfig) -> None:
    """One RMSProp update of theta in place; acc holds its accumulator,
    zero at the first step. train_many passes each model's one vector."""
    if grad.shape != theta.shape:
        raise ValueError(f"gradient shape {grad.shape} != parameter shape {theta.shape}")
    acc *= cfg.rmsprop_decay
    # (1 - decay) * g * g, then lr * g / sqrt(acc + eps), in that order of
    # operations but in two temporaries, not six: a stacked model's vector
    # is big enough that each fresh temporary is page-faulted in
    t = (1.0 - cfg.rmsprop_decay) * grad
    t *= grad
    acc += t
    root = acc + cfg.rmsprop_eps
    np.sqrt(root, out=root)
    np.multiply(cfg.learning_rate, grad, out=t)
    t /= root
    theta -= t


@dataclass
class TrainTrace:
    loss: list = field(default_factory=list)
    sat: list = field(default_factory=list)
    ms: list = field(default_factory=list)  # in lockstep, each theory's equal share of the epoch
    plan: dict = field(default_factory=dict)  # the theory's GroundPlan stats, for run manifests
    lockstep: dict | None = None  # the merged plan's stats, one dict shared by its theories

    def final_sat(self) -> dict:
        """The fit's last satisfiability, and its lowest over the last tenth
        of the epochs (at least one), where a collapse that recovers by the
        end still shows."""
        return {"last_epoch": self.sat[-1], "min_last_10pct": min(self.sat[-math.ceil(len(self.sat) / 10):])}

    def to_json(self) -> dict:
        # wall-clock times live in run manifests, so the artifact payload
        # stays deterministic
        return {"epoch": list(range(len(self.loss))), "loss": self.loss, "sat": self.sat}


def train(gt: GroundedTheory, cfg: TrainConfig) -> TrainTrace:
    """Full-batch gradient ascent on satisfiability; mutates model parameters."""
    return train_many([gt], cfg)[0]


def train_many(theories: list, cfg: TrainConfig) -> list:
    """train() each theory, all in one epoch loop over one merged plan
    (merge_theories); returns their traces. Every theory draws its
    quantifier samples from its own make_rng(cfg.seed)."""
    if not theories:
        raise TrainingError("no theories to train")
    for i, gt in enumerate(theories):
        if not gt.learnable_predicates():
            raise TrainingError(f"grounded theory {i} has no learnable parameters")
    gt = theories[0] if len(theories) == 1 else merge_theories(theories)
    plan = GroundPlan(gt, cfg.instantiation_budget, make_rng(cfg.seed))
    # the plan's models, then the learnable predicates without atoms, which
    # still take their L2 steps; each, a stack of one head or more, holds its
    # members' heads in one vector that one step per epoch updates in place
    units = [(b.model, b.theta, b.members) for b in plan.batches]
    batched = {id(m) for b in plan.batches for m in b.members}
    units += [(*stack([m]), [m]) for t in theories for m in t.learnable_predicates().values() if id(m) not in batched]
    accs = [np.zeros_like(theta) for _, theta, _ in units]
    grads = [np.empty_like(theta) for _, theta, _ in units]
    # each theory's (model, head) per learnable predicate: its L2 term adds
    # its arrays' sums in its predicates' order, as train() of it alone does
    heads = {id(m): (i, j) for i, (*_, members) in enumerate(units) for j, m in enumerate(members)}
    own = [[heads[id(m)] for m in t.learnable_predicates().values()] for t in theories]
    traces = [TrainTrace() for _ in theories]
    if len(theories) == 1:
        traces[0].plan = plan.stats()
    else:
        lockstep = plan.stats()
        for i, trace in enumerate(traces):
            trace.plan, trace.lockstep = plan.part_stats(i), lockstep
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        sats, sat_grads = plan.satisfiability_with_grads()
        sats = sats.tolist()
        squares = [square_sums(model) for model, _, _ in units]
        # in Python floats, a huge l2 makes the loss inf without a warning
        losses = [(1.0 - sat) + cfg.l2 * sum([s for i, j in refs for s in squares[i][j]])
                  for sat, refs in zip(sats, own)]
        for i, loss in enumerate(losses):
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}"
                                    + (f" in theory {i}" if len(theories) > 1 else ""))
        # a model without atoms has no satisfiability gradient and takes the L2 term alone
        for (_, theta, _), acc, grad, sat_grad in itertools.zip_longest(units, accs, grads, sat_grads, fillvalue={}):
            np.multiply(2.0 * cfg.l2, theta, out=grad)
            lo = 0  # theta holds the arrays in the gradient's order
            for g in sat_grad.values():
                part = grad[lo:lo + g.size].reshape(g.shape)
                part -= g
                lo += g.size
            rmsprop_step(theta, grad, acc, cfg)
        ms = (time.perf_counter() - t0) * 1000.0 / len(theories)
        for trace, loss, sat in zip(traces, losses, sats):
            trace.loss.append(loss)
            trace.sat.append(sat)
            trace.ms.append(ms)
    return traces


# ---------------------------------------------------------------------------
# Weight sharing


class SharedEncoderRegistry:
    """At most one frozen encoder per EncoderConfig."""

    def __init__(self):
        self._encoders: dict = {}

    def get_or_build(self, config: EncoderConfig) -> RwfnEncoder:
        enc = self._encoders.get(config)
        if enc is None:
            enc = self._encoders[config] = build_encoder(config)
        return enc
