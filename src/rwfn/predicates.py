"""Predicate grounding models mapping R^{mn} -> [0,1].

Two learnable families: the random-feature model (frozen encoder, trainable
linear decoder beta) and the tensor-network baseline (u, W, V, b all
trainable). Both are a hidden layer followed by sigma(hidden . weights) and
share one batch interface: hidden_batch(x), forward_batch(x, hidden) and
gradient_batch(x, upstream, hidden, truth), so a caller computes the hidden
layer and the forward truths once and passes them on; frozen_hidden marks
models whose hidden layer never changes and can be cached. A third, non-learnable family grounds
predicates directly from dataset labels; it is used for ontology axioms
whose truth is known.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .encoder import RwfnEncoder, build_encoder, encoder_from_spec, encoder_to_spec, hidden_dim, hidden_features
from .numerics import make_rng


def sigmoid(z):
    # exp(709) is finite; below z = -709 the clamp only moves a result that
    # is already under 1e-307
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))


@dataclass(frozen=True)
class ParamCount:
    total: int
    learnable: int

    def __post_init__(self):
        if self.learnable > self.total:
            raise ValueError("learnable count cannot exceed total")


@dataclass
class RwfnPredicate:
    """sigma(beta . h(v)) with a frozen random encoder and trainable beta."""

    encoder: RwfnEncoder
    beta: np.ndarray
    mode: str = "full"  # "full" | "albm" | "rff"
    symbolic = False
    frozen_hidden = True

    @classmethod
    def create(cls, encoder: RwfnEncoder, mode: str = "full") -> "RwfnPredicate":
        # beta = 0 gives output 0.5 everywhere, a deterministic neutral start
        return cls(encoder=encoder, beta=np.zeros(hidden_dim(encoder, mode)), mode=mode)

    @property
    def input_dim(self) -> int:
        return self.encoder.input_dim

    def hidden_batch(self, x: np.ndarray) -> np.ndarray:
        return hidden_features(self.encoder, x, self.mode)

    def forward_batch(self, x: np.ndarray, hidden: np.ndarray | None = None) -> np.ndarray:
        h = self.hidden_batch(x) if hidden is None else hidden
        return sigmoid(h @ self.beta)

    def forward(self, v: np.ndarray) -> float:
        return float(self.forward_batch(np.asarray(v, dtype=np.float64)[None, :])[0])

    def gradient_batch(self, x: np.ndarray, upstream: np.ndarray, hidden: np.ndarray | None = None,
                       truth: np.ndarray | None = None) -> dict:
        """d(sum_i upstream_i * out_i)/d beta, with truth = forward_batch(x)
        when the caller has it. The encoder receives no gradient."""
        h = self.hidden_batch(x) if hidden is None else hidden
        p = sigmoid(h @ self.beta) if truth is None else truth
        return {"beta": h.T @ (np.asarray(upstream) * p * (1.0 - p))}

    def gradient(self, v: np.ndarray, upstream: float) -> np.ndarray:
        return self.gradient_batch(np.asarray(v, dtype=np.float64)[None, :], np.array([upstream]))["beta"]

    def learnable_params(self) -> dict:
        return {"beta": self.beta}

    def set_params(self, params: dict) -> None:
        self.beta = params["beta"]


@dataclass
class NtnPredicate:
    """sigma(u . tanh(s)), s_i = v^T W_i v + (V v)_i + b_i. Fully trainable."""

    u: np.ndarray  # (k,)
    w: np.ndarray  # (k, d, d)
    v: np.ndarray  # (k, d)
    b: np.ndarray  # (k,)
    symbolic = False
    frozen_hidden = False

    def __post_init__(self):
        k, d = self.v.shape
        if self.u.shape != (k,) or self.b.shape != (k,) or self.w.shape != (k, d, d):
            raise ValueError("inconsistent tensor parameter shapes")

    @property
    def slices(self) -> int:
        return self.u.shape[0]

    @property
    def input_dim(self) -> int:
        return self.v.shape[1]

    def hidden_batch(self, x: np.ndarray) -> np.ndarray:
        """tanh(s), s[n, i] = x_n^T W_i x_n + (V x_n)_i + b_i."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[1] != self.input_dim:
            raise ValueError(f"input dim {x.shape[1]} != {self.input_dim}")
        t = np.tensordot(x, self.w, axes=([1], [1]))  # (n, k, d)
        return np.tanh((t * x[:, None, :]).sum(axis=2) + x @ self.v.T + self.b)

    def forward_batch(self, x: np.ndarray, hidden: np.ndarray | None = None) -> np.ndarray:
        t = self.hidden_batch(x) if hidden is None else hidden
        return sigmoid(t @ self.u)

    def forward(self, v: np.ndarray) -> float:
        return float(self.forward_batch(np.asarray(v, dtype=np.float64)[None, :])[0])

    def gradient_batch(self, x: np.ndarray, upstream: np.ndarray, hidden: np.ndarray | None = None,
                       truth: np.ndarray | None = None) -> dict:
        x = np.asarray(x, dtype=np.float64)
        t = self.hidden_batch(x) if hidden is None else hidden
        p = sigmoid(t @ self.u) if truth is None else truth
        dz = np.asarray(upstream) * p * (1.0 - p)          # (n,)
        du = t.T @ dz                                      # (k,)
        ds = dz[:, None] * self.u[None, :] * (1.0 - t * t)  # (n, k)
        db = ds.sum(axis=0)
        dv = ds.T @ x                                      # (k, d)
        dw = np.tensordot(ds[:, :, None] * x[:, None, :], x, axes=([0], [0]))  # (k, d, d)
        return {"u": du, "w": dw, "v": dv, "b": db}

    def gradient(self, v: np.ndarray, upstream: float) -> dict:
        return self.gradient_batch(np.asarray(v, dtype=np.float64)[None, :], np.array([upstream]))

    def learnable_params(self) -> dict:
        return {"u": self.u, "w": self.w, "v": self.v, "b": self.b}

    def set_params(self, params: dict) -> None:
        self.u, self.w, self.v, self.b = params["u"], params["w"], params["v"], params["b"]


def init_ntn(k: int, in_dim: int, rng: np.random.Generator) -> NtnPredicate:
    """All parameters ~ Normal(0, 1/sqrt(in_dim)) to keep pre-activations O(1)."""
    if k < 1 or in_dim < 1:
        raise ValueError("k and in_dim must be >= 1")
    scale = 1.0 / np.sqrt(in_dim)
    return NtnPredicate(
        u=scale * rng.standard_normal(k),
        w=scale * rng.standard_normal((k, in_dim, in_dim)),
        v=scale * rng.standard_normal((k, in_dim)),
        b=scale * rng.standard_normal(k),
    )


@dataclass
class LabelPredicate:
    """Non-learnable predicate whose truth is looked up from known labels."""

    truths: dict  # tuple of constant ids -> truth in [0,1]
    default: float = 0.0
    symbolic = True

    def truth_of(self, args: tuple) -> float:
        return float(self.truths.get(tuple(args), self.default))

    def learnable_params(self) -> dict:
        return {}


def count_params(model) -> ParamCount:
    """Stored vs learnable float counts per model family."""
    if isinstance(model, NtnPredicate):
        k, d = model.slices, model.input_dim
        n = (d * d + d + 2) * k
        return ParamCount(total=n, learnable=n)
    if isinstance(model, RwfnPredicate):
        n, b = model.encoder.input_dim, model.encoder.hidden_width
        if model.mode == "full":
            # gate nB + fourier nB + phase B + beta 2B
            return ParamCount(total=(2 * n + 3) * b, learnable=2 * b)
        if model.mode == "albm":
            return ParamCount(total=n * b + b, learnable=b)
        return ParamCount(total=n * b + b + b, learnable=b)  # rff: fourier + phase + beta
    if isinstance(model, LabelPredicate):
        return ParamCount(total=0, learnable=0)
    raise TypeError(f"unknown model type {type(model).__name__}")


MODEL_FORMAT_VERSION = 1


def model_to_spec(model) -> dict:
    if isinstance(model, RwfnPredicate):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "rwfn",
            "mode": model.mode,
            "encoder": encoder_to_spec(model.encoder),
            "beta": model.beta.tolist(),
        }
    if isinstance(model, NtnPredicate):
        return {
            "format_version": MODEL_FORMAT_VERSION,
            "kind": "ntn",
            "k": model.slices,
            "in_dim": model.input_dim,
            "u": model.u.tolist(),
            "w": model.w.tolist(),
            "v": model.v.tolist(),
            "b": model.b.tolist(),
        }
    raise TypeError(f"cannot serialize model type {type(model).__name__}")


def model_from_spec(spec: dict, encoder: RwfnEncoder | None = None):
    if spec.get("format_version") != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {spec.get('format_version')!r}")
    if spec["kind"] == "rwfn":
        enc = encoder if encoder is not None else encoder_from_spec(spec["encoder"])
        return RwfnPredicate(encoder=enc, beta=np.asarray(spec["beta"], dtype=np.float64), mode=spec["mode"])
    if spec["kind"] == "ntn":
        return NtnPredicate(
            u=np.asarray(spec["u"], dtype=np.float64),
            w=np.asarray(spec["w"], dtype=np.float64),
            v=np.asarray(spec["v"], dtype=np.float64),
            b=np.asarray(spec["b"], dtype=np.float64),
        )
    raise ValueError(f"unknown model kind {spec['kind']!r}")
