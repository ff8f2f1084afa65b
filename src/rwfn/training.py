"""Best-satisfiability training: loss = 1 - sat + lambda * ||theta||^2,
optimized with RMSProp, plus the shared-encoder registry.

The quantifier instantiation sample is drawn once per training run and held
fixed across epochs (full-batch training on a fixed ground plan). This keeps
runs deterministic and lets frozen-encoder models cache hidden features for
every atom, so their epochs cost only decoder-sized dot products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .encoder import EncoderConfig, RwfnEncoder, build_encoder
from .logic import GroundedTheory, GroundPlan
from .numerics import make_rng


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
        if self.l2 < 0:
            raise ValueError("l2 must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not 0.0 < self.rmsprop_decay < 1.0:
            raise ValueError("rmsprop_decay must be in (0,1)")


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
    ms: list = field(default_factory=list)

    def to_json(self, include_ms: bool = False) -> dict:
        # wall-clock times live in run manifests; the artifact payload stays
        # deterministic unless timings are explicitly requested
        obj = {"epoch": list(range(len(self.loss))), "loss": self.loss, "sat": self.sat}
        if include_ms:
            obj["ms"] = self.ms
        return obj


def _l2_penalty(models: dict) -> float:
    return sum(float(np.sum(p * p)) for m in models.values() for p in m.learnable_params().values())


def train(gt: GroundedTheory, cfg: TrainConfig, plan: GroundPlan | None = None) -> TrainTrace:
    """Full-batch gradient ascent on satisfiability; mutates model parameters."""
    models = gt.learnable_predicates()
    if not models:
        raise TrainingError("grounded theory has no learnable parameters")
    if plan is None:
        plan = GroundPlan(gt, cfg.instantiation_budget, make_rng(cfg.seed))
    states = {name: RmsPropState() for name in models}
    trace = TrainTrace()
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        sat, sat_grads = plan.satisfiability_with_grads()
        loss = (1.0 - sat) + cfg.l2 * _l2_penalty(models)
        if not np.isfinite(loss):
            raise TrainingError(f"non-finite loss {loss} at epoch {epoch}")
        for name, model in models.items():
            params = model.learnable_params()
            g_sat = sat_grads.get(name, {})
            grads = {
                pname: -g_sat.get(pname, np.zeros_like(p)) + 2.0 * cfg.l2 * p
                for pname, p in params.items()
            }
            model.set_params(rmsprop_step(params, grads, states[name], cfg))
        trace.loss.append(float(loss))
        trace.sat.append(float(sat))
        trace.ms.append((time.perf_counter() - t0) * 1000.0)
    return trace


# ---------------------------------------------------------------------------
# Weight sharing


class SharedEncoderRegistry:
    """At most one frozen encoder per (input_dim, B, fan_in, seed) key."""

    def __init__(self):
        self._encoders: dict = {}

    def get_or_build(self, config: EncoderConfig) -> RwfnEncoder:
        key = (config.input_dim, config.hidden_width, config.fan_in, config.seed)
        enc = self._encoders.get(key)
        if enc is None:
            enc = build_encoder(config)
            self._encoders[key] = enc
        return enc

    def __len__(self) -> int:
        return len(self._encoders)


def stored_float_count(input_dim: int, hidden_width: int, num_classifiers: int, shared: bool) -> int:
    """Floats kept for i frozen-encoder classifiers, with or without sharing."""
    n, b, i = input_dim, hidden_width, num_classifiers
    if shared:
        return 2 * n * b + b + 2 * b * i
    return (2 * n + 3) * b * i


def train_multi_shared(theories: list, cfg: TrainConfig) -> list:
    """Train several frozen-encoder classifiers over one shared encoder.

    Each theory's single learnable predicate must reference the same encoder
    object. Each decoder trains independently with the same config, so the
    result is bit-identical to training each against a private encoder built
    from the same seed.
    """
    encoders = set()
    for gt in theories:
        for model in gt.learnable_predicates().values():
            if not model.frozen_hidden:
                raise TrainingError("train_multi_shared requires frozen-encoder models")
            encoders.add(id(model.encoder))
    if len(encoders) != 1:
        raise TrainingError(f"expected one shared encoder, found {len(encoders)}")
    return [train(gt, cfg) for gt in theories]
