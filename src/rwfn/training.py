"""Best-satisfiability training: loss = 1 - sat + lambda * ||theta||^2,
optimized with RMSProp, plus the shared-encoder registry.

The quantifier instantiation sample is drawn once per training run and held
fixed across epochs (full-batch training on a fixed ground plan). This keeps
runs deterministic and lets frozen-encoder models cache hidden features for
every atom, so their epochs cost only decoder-sized dot products.

Several theories train in lockstep (train_many): one plan over all of them,
whose learnable predicates that read the same rows run as one stacked model
with one RMSProp step per epoch. Each theory's loss, parameters and
quantifier samples are those of training it alone, up to rounding.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, RwfnEncoder, build_encoder
from .logic import GroundedTheory, GroundPlan, merge_theories
from .numerics import make_rng
from .predicates import RwfnPredicate, head


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
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        for name in ("l2", "learning_rate", "rmsprop_eps"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ValueError("rmsprop_decay must be in (0,1)")
        if self.rmsprop_eps <= 0:
            raise ValueError("rmsprop_eps must be > 0")


@dataclass
class RmsPropState:
    acc: dict = field(default_factory=dict)  # param name -> accumulator array

    def for_param(self, name: str, shape) -> np.ndarray:
        if name not in self.acc:
            self.acc[name] = np.zeros(shape)
        return self.acc[name]


def rmsprop_step(params: dict, grads: dict, state: RmsPropState, cfg: TrainConfig) -> dict:
    """One RMSProp update; returns new parameter arrays, mutates state."""
    out = {}
    for name, theta in params.items():
        g = grads[name]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {theta.shape} for {name!r}")
        acc = state.for_param(name, theta.shape)
        acc *= cfg.rmsprop_decay
        acc += (1.0 - cfg.rmsprop_decay) * g * g
        out[name] = theta - cfg.learning_rate * g / np.sqrt(acc + cfg.rmsprop_eps)
    return out


@dataclass
class TrainTrace:
    loss: list = field(default_factory=list)
    sat: list = field(default_factory=list)
    ms: list = field(default_factory=list)  # in lockstep, each theory's equal share of the epoch
    plan: dict = field(default_factory=dict)  # the theory's GroundPlan stats, for run manifests
    lockstep: dict | None = None  # the merged plan's stats, one dict shared by its theories

    def to_json(self) -> dict:
        # wall-clock times live in run manifests, so the artifact payload
        # stays deterministic
        return {"epoch": list(range(len(self.loss))), "loss": self.loss, "sat": self.sat}


def _l2_penalties(units: list, order: list) -> list:
    """Each theory's sum of squared learnable parameters. order[i] lists
    theory i's (unit, head) pairs in the order of its predicates, so the
    terms add as they do when it trains alone."""
    squares = []  # per unit, per head: the sum of squares of each parameter
    for model, preds in units:
        params = model.learnable_params().values()
        if len(preds) == 1:
            squares.append([[float((p * p).sum()) for p in params]])
        else:  # a stack: one sum per head
            squares.append(list(zip(*(np.moveaxis(p * p, model.heads_axis, 0).reshape(len(preds), -1)
                                      .sum(axis=1).tolist() for p in params))))
    return [sum(v for u, j in terms for v in squares[u][j]) for terms in order]


def train(gt: GroundedTheory, cfg: TrainConfig) -> TrainTrace:
    """Full-batch gradient ascent on satisfiability; mutates model parameters."""
    return train_many([gt], cfg)[0]


def train_many(theories: list, cfg: TrainConfig) -> list:
    """train() each theory, all in one epoch loop over one merged plan;
    returns their traces. Every theory draws its quantifier samples from
    its own make_rng(cfg.seed). RWFN models of different theories must
    share one encoder: each private one keeps its own hidden cache."""
    if not theories:
        raise TrainingError("no theories to train")
    for i, gt in enumerate(theories):
        if not gt.learnable_predicates():
            raise TrainingError(f"grounded theory {i} has no learnable parameters")
    if len(theories) > 1:
        encoders = {id(m.encoder) for gt in theories for m in gt.learnable_predicates().values()
                    if isinstance(m, RwfnPredicate)}
        if len(encoders) > 1:
            raise TrainingError(f"lockstep theories use {len(encoders)} frozen encoders, each with its own "
                                f"hidden cache; share one, or train them one by one")
    gt = theories[0] if len(theories) == 1 else merge_theories(theories)
    plan = GroundPlan(gt, cfg.instantiation_budget, make_rng(cfg.seed))
    # (model, (part, name) of each head); learnable predicates without atoms
    # still take their L2 steps
    units = [(b.model, b.preds) for b in plan.batches]
    batched = {id(m) for b in plan.batches for m in b.members}
    units += [(m, [(i, name)]) for i, t in enumerate(theories) for name, m in t.learnable_predicates().items()
              if id(m) not in batched]
    where = {pred: (u, j) for u, (_, preds) in enumerate(units) for j, pred in enumerate(preds)}
    order = [[where[i, name] for name in t.learnable_predicates()] for i, t in enumerate(theories)]
    states = [RmsPropState() for _ in units]
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
        # in Python floats, a huge l2 makes the loss inf without a warning
        losses = [(1.0 - sat) + cfg.l2 * pen for sat, pen in zip(sats, _l2_penalties(units, order))]
        for i, loss in enumerate(losses):
            if not math.isfinite(loss):
                raise TrainingError(f"non-finite loss {loss} at epoch {epoch}"
                                    + (f" in theory {i}" if len(theories) > 1 else ""))
        for (model, _), g_sat, state in zip(units, sat_grads + [{}] * (len(units) - len(sat_grads)), states):
            params = model.learnable_params()
            # a parameter without a satisfiability gradient takes the L2 term alone
            grads = {
                pname: -g_sat[pname] + 2.0 * cfg.l2 * p if pname in g_sat else 2.0 * cfg.l2 * p
                for pname, p in params.items()
            }
            model.set_params(rmsprop_step(params, grads, state, cfg))
        ms = (time.perf_counter() - t0) * 1000.0 / len(theories)
        for trace, loss, sat in zip(traces, losses, sats):
            trace.loss.append(loss)
            trace.sat.append(sat)
            trace.ms.append(ms)
    for b in plan.batches:
        if len(b.members) > 1:
            for j, member in enumerate(b.members):
                member.set_params(head(b.model.learnable_params(), j, b.model.heads_axis))
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
