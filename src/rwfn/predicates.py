"""Predicate grounding models mapping R^{mn} -> [0,1].

Two learnable families: the random-feature model (frozen encoder, trainable
linear decoder beta) and the tensor-network baseline (u, W, V, b all
trainable). Both are a hidden layer followed by sigma(hidden . weights),
and both read their input through lift(table, args): the rows of a table,
or with args, (n, arity) positions into a table of constants, the
concatenated rows table[args].reshape(n, -1). lift decides the rows every
batch call reads. An RWFN reads its frozen hidden layer, so a ground plan
encodes its atoms once. An NTN reads the gathered rows, or, when it is
wide enough (lifts), their quadratic lift, on which its pre-activation and
its dW, dV and db are one GEMM each. The batch calls are two:
forward_batch(x) returns the truths and what their gradient needs, and
gradient_batch(x, upstream, saved) takes that back. An RWFN saves its
truths, an NTN its hidden layer tanh(s) and its truths, so the NTN's
hidden layer runs inside its forward call. Learnable models with equal
stack_key() read their rows the same way, so stack(models) makes one
model of K >= 1 heads that gives a row's K truths in one pass, its
learnable arrays led by a heads axis and packed into one vector; each
member's arrays become views of its rows in it, so one training step per
epoch on the vector trains every member. A third, non-learnable family grounds
predicates directly from dataset labels; it is used for ontology axioms
whose truth is known.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, fields, replace

import numpy as np

from .encoder import (BLOCKS, BRANCHES, CHECKSUMS, RwfnEncoder, encoder_from_spec, encoder_to_spec, hidden_dim,
                      hidden_features)


def sigmoid(z):
    # exp(709) is finite; below z = -709 the clamp only moves a result that
    # is already under 1e-307
    return 1.0 / (1.0 + np.exp(np.minimum(-z, 709.0)))


# Bytes of one NTN kernel block's (rows, slices*d) float64 temporaries
# (2 MiB + 64 KiB: 1024 rows at k=6, d=44). They stay in cache, so each
# block is one GEMM and memory does not grow with the number of atoms or
# of stacked heads.
BLOCK_BYTES = 2_162_688


def block_rows(slices: int, d: int) -> int:
    """Rows per NTN kernel block for `slices` bilinear slices of width d."""
    return max(1, BLOCK_BYTES // (8 * slices * d))


def lifts(slices: int, d: int) -> bool:
    """Whether a ground plan feeds an NTN of `slices` bilinear slices of
    width d its lifted rows (quadratic_lift): when a lifted row, d(d+1)/2 +
    d + 1 wide, is narrower than the blocked kernels' (rows, slices*d)
    intermediate. On the acceptance data
    the twelve stacked k=6 type heads (d=16) lift, 153 < 1152; one type
    class (153 > 96) and the part-of NTN (d=32: 561 > 192; d=44: 1035 >
    264) do not."""
    return d * (d + 1) // 2 + d + 1 < slices * d


@functools.lru_cache(maxsize=None)
def _pairs(d: int) -> tuple:
    """Read-only (upper, lower, factor) for width d: the flat positions in
    a (d, d) matrix of the pairs i <= j in row-major order, those of their
    mirrors (j, i), and 0.5 on the diagonal, 1.0 elsewhere. So
    (W[upper] + W[lower]) * factor is W_ij + W_ji off the diagonal and
    W_ii on it, each exactly."""
    i, j = np.triu_indices(d)
    pairs = (i * d + j, j * d + i, np.where(i == j, 0.5, 1.0))
    for a in pairs:
        a.flags.writeable = False
    return pairs


def quadratic_lift(x: np.ndarray) -> np.ndarray:
    """Rows x, (n, d), lifted to [x_i x_j for i <= j, row-major | x | 1],
    (n, d(d+1)/2 + d + 1). An NTN's pre-activation is linear in its
    parameters on these rows: v^T W v reads only W + W^T, so
    s_i = quadratic_lift(x) . [(W_i + W_i^T) on and above the diagonal,
    halved on it | V_i | b_i]."""
    n, d = x.shape
    i, j = np.triu_indices(d)
    out = np.empty((n, len(i) + d + 1))
    np.multiply(x[:, i], x[:, j], out=out[:, :len(i)])
    out[:, len(i):-1] = x
    out[:, -1] = 1.0
    return out


@dataclass(frozen=True)
class ParamCount:
    total: int
    learnable: int

    def __post_init__(self):
        if self.learnable > self.total:
            raise ValueError("learnable count cannot exceed total")


@dataclass
class RwfnPredicate:
    """sigma(beta . h(v)) with a frozen random encoder and trainable beta.

    A stack of K decoders over one encoder has a (K, 2B) beta."""

    encoder: RwfnEncoder
    beta: np.ndarray
    mode: str = "full"  # "full" | "albm" | "rff"
    symbolic = False

    def stack_key(self) -> tuple:
        return (RwfnPredicate, id(self.encoder), self.mode)

    @classmethod
    def create(cls, encoder: RwfnEncoder, mode: str = "full") -> "RwfnPredicate":
        # beta = 0 gives output 0.5 everywhere, a deterministic neutral start
        return cls(encoder=encoder, beta=np.zeros(hidden_dim(encoder, mode)), mode=mode)

    def lift(self, table: np.ndarray, args: np.ndarray | None = None) -> np.ndarray:
        """The frozen hidden layer of the rows the batch calls read
        (hidden_features)."""
        return hidden_features(self.encoder, table, self.mode, args)

    def forward_batch(self, h: np.ndarray) -> tuple:
        """The truths of the hidden rows h, twice: gradient_batch needs
        them alone."""
        # row-major beta^T: read in place, some shapes round otherwise and shared-encoder fits move by ulps
        p = sigmoid(h @ np.ascontiguousarray(self.beta.T))
        return p, p

    def gradient_batch(self, h: np.ndarray, upstream: np.ndarray, p: np.ndarray) -> dict:
        """d(sum_i upstream_i * out_i)/d beta, p being the truths
        forward_batch(h) saved. The encoder receives no gradient."""
        return {"beta": (np.asarray(upstream) * p * (1.0 - p)).T @ h}

    def learnable_params(self) -> dict:
        return {"beta": self.beta}


@dataclass
class NtnPredicate:
    """sigma(u . tanh(s)), s_i = v^T W_i v + (V v)_i + b_i. Fully trainable.

    A stack of K models has a leading heads axis on every parameter and
    outputs K truths per row; its hidden layer holds all K*k slices, read
    as (n, K, k), and one model's as (n, 1, k).
    The batch calls take rows, (n, d), or their quadratic_lift, (n,
    d(d+1)/2 + d + 1), as lift gives them: lifted, the pre-activation is
    one GEMM with the parameters folded per slice onto the pairs i <= j,
    and so is the gradient of W, V and b; rows run the blocked kernels.
    The twelve stacked type heads of the acceptance data lift (153 <
    1152); one type class (153 > 96) and the part-of NTN (561 > 192, 1035
    > 264) run the blocked kernels."""

    u: np.ndarray  # (k,)
    w: np.ndarray  # (k, d, d)
    v: np.ndarray  # (k, d)
    b: np.ndarray  # (k,)
    symbolic = False

    def __post_init__(self):
        *heads, k, d = self.v.shape
        if (len(heads) > 1 or self.u.shape != (*heads, k) or self.b.shape != (*heads, k)
                or self.w.shape != (*heads, k, d, d)):
            raise ValueError("inconsistent tensor parameter shapes")

    def stack_key(self) -> tuple:
        return (NtnPredicate, self.v.shape)

    @property
    def slices(self) -> int:
        return self.u.shape[-1]

    @property
    def input_dim(self) -> int:
        return self.v.shape[-1]

    @property
    def heads(self) -> tuple:
        """(K,) for a stack of K models, () for one model."""
        return self.u.shape[:-1]

    def _lifted(self, x: np.ndarray) -> bool:
        d = self.input_dim
        return x.shape[1] == d * (d + 1) // 2 + d + 1

    def lift(self, table: np.ndarray, args: np.ndarray | None = None) -> np.ndarray:
        """The rows the batch calls read, lifted when lifts(slices, d)."""
        x = np.asarray(table, dtype=np.float64)
        if args is not None:
            x = x[args].reshape(len(args), -1)
        return quadratic_lift(x) if lifts(self.u.size, self.input_dim) else x

    def forward_batch(self, x: np.ndarray) -> tuple:
        """The truths of the rows x, and (t, truths) for gradient_batch, t
        being the hidden layer tanh(s), s[n, i] = x_n^T W_i x_n + (V x_n)_i
        + b_i, over the flattened slices of every head."""
        x = np.asarray(x, dtype=np.float64)
        s, d = self.u.size, self.input_dim
        if self._lifted(x):
            upper, lower, factor = _pairs(d)
            w, pairs = self.w.reshape(s, d * d), len(upper)
            theta = np.empty((s, x.shape[1]))  # [(W_i + W_i^T) on the pairs, W_ii on the diagonal | V_i | b_i]
            np.add(w[:, upper], w[:, lower], out=theta[:, :pairs])
            theta[:, :pairs] *= factor
            theta[:, pairs:-1] = self.v.reshape(s, d)
            theta[:, -1] = self.b.ravel()
            t = np.tanh(x @ theta.T)
        else:
            if x.shape[1] != d:
                raise ValueError(f"input dim {x.shape[1]} != {d}")
            w2 = self.w.reshape(s, d, d).transpose(1, 0, 2).reshape(d, s * d)  # w2[j, i*d + e] = W_i[j, e]
            rows = block_rows(s, d)
            quad = np.empty((len(x), s))
            for lo in range(0, len(x), rows):
                xb = x[lo:lo + rows]
                quad[lo:lo + len(xb)] = np.einsum("nie,ne->ni", (xb @ w2).reshape(len(xb), s, d), xb)
            t = np.tanh(quad + x @ self.v.reshape(s, d).T + self.b.ravel())
        p = sigmoid(np.einsum("nhi,hi->nh", t.reshape(len(t), -1, self.slices), self.u.reshape(-1, self.slices)))
        p = p.reshape(len(t), *self.heads)
        return p, (t, p)

    def gradient_batch(self, x: np.ndarray, upstream: np.ndarray, saved: tuple) -> dict:
        x = np.asarray(x, dtype=np.float64)
        t, p = saved
        dz = (np.asarray(upstream) * p * (1.0 - p)).reshape(len(t), -1)  # (n, H)
        du = np.einsum("nhi,nh->hi", t.reshape(len(t), -1, self.slices), dz).reshape(self.u.shape)
        s, d = self.u.size, self.input_dim
        # (n, H*k) in t's layout: each head's dz over its slices, a view for one head
        dz = np.broadcast_to(dz[:, :, None], (*dz.shape, self.slices)).reshape(len(t), s)
        ds = dz * self.u.ravel() * (1.0 - t * t)
        if self._lifted(x):
            upper, lower, _ = _pairs(d)
            g = ds.T @ x  # (K*k, d(d+1)/2 + d + 1): [dW_i on the pairs | dV_i | db_i]
            pairs = len(upper)
            dw = np.empty((s, d * d))  # dW_i[a, b] = dW_i[b, a] = sum_n ds[n, i] x[n, a] x[n, b]
            dw[:, upper] = g[:, :pairs]
            dw[:, lower] = g[:, :pairs]
            dv, db = g[:, pairs:-1], g[:, -1]
        else:
            db = ds.sum(axis=0)
            dv = ds.T @ x                                                   # (K*k, d)
            dw = np.zeros((s * d, d))  # dw[i*d + j, e] = sum_n ds[n, i] x[n, j] x[n, e]
            rows = block_rows(s, d)
            for lo in range(0, len(x), rows):
                xb = x[lo:lo + rows]
                dw += (ds[lo:lo + len(xb), :, None] * xb[:, None, :]).reshape(len(xb), s * d).T @ xb
        return {"u": du, "w": dw.reshape(self.w.shape), "v": dv.reshape(self.v.shape), "b": db.reshape(self.b.shape)}

    def learnable_params(self) -> dict:
        return {"u": self.u, "w": self.w, "v": self.v, "b": self.b}


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


def stack(models: list) -> tuple:
    """(model, theta): one model of K heads, head j being models[j], which
    must have equal stack_key(), and one float64 vector theta that holds
    the model's learnable arrays in learnable_params() order, each with a
    leading heads axis of length K, for any K >= 1. Each member's arrays
    become the contiguous rows full[j] of the stacked arrays, and all are
    views of theta, so one in-place update of theta trains them all."""
    first = models[0]
    theta = np.empty(len(models) * sum(p.size for p in first.learnable_params().values()))
    arrays, lo = {}, 0
    for name, p in first.learnable_params().items():
        full = arrays[name] = theta[lo:lo + len(models) * p.size].reshape(len(models), *p.shape)
        np.stack([m.learnable_params()[name] for m in models], out=full)
        lo += full.size
        for m, head in zip(models, full):
            setattr(m, name, head)
    return replace(first, **arrays), theta


def square_sums(model) -> list:
    """sum(p * p) of each learnable array p of each head of a stack, K read
    from the arrays' leading axis: one tuple per head, in learnable_params()
    order. Each head's squares are summed alone over its contiguous row, so
    each sum equals np.sum(p * p) over that head's own view, bit for bit."""
    return list(zip(*[(p * p).reshape(len(p), -1).sum(axis=1).tolist() for p in model.learnable_params().values()]))


@dataclass
class LabelPredicate:
    """Non-learnable predicate whose truth is looked up from known labels."""

    truths: dict  # tuple of constant ids -> truth in [0,1]; 0.0 where absent
    symbolic = True

    def learnable_params(self) -> dict:
        return {}


def count_params(model) -> ParamCount:
    """Stored vs learnable float counts of a model or a stack, read from its
    arrays: the sizes of learnable_params(), and for an RWFN the frozen
    blocks its mode's branches read, counted once for a shared encoder."""
    if not isinstance(model, (NtnPredicate, RwfnPredicate)):
        raise TypeError(f"unknown model type {type(model).__name__}")
    learnable = sum(p.size for p in model.learnable_params().values())
    frozen = (sum(getattr(model.encoder, block).size for branch in BRANCHES[model.mode] for block in BLOCKS[branch])
              if isinstance(model, RwfnPredicate) else 0)
    return ParamCount(total=learnable + frozen, learnable=learnable)


# Version 2 checksums every random encoder block; version 1 files carry the
# gate checksum only, and still load with that check alone.
MODEL_FORMAT_VERSION = 2


def model_to_spec(model) -> dict:
    """The format version, the model's kind header and its learnable arrays
    by name."""
    if isinstance(model, RwfnPredicate):
        header = {"kind": "rwfn", "mode": model.mode, "encoder": encoder_to_spec(model.encoder)}
    elif isinstance(model, NtnPredicate):
        header = {"kind": "ntn", "k": model.slices, "in_dim": model.input_dim}
    else:
        raise TypeError(f"cannot serialize model type {type(model).__name__}")
    return {"format_version": MODEL_FORMAT_VERSION, **header,
            **{name: p.tolist() for name, p in model.learnable_params().items()}}


def model_from_spec(spec: dict, name: str):
    """The model a spec describes; name is the predicate it grounds, which
    every refusal names. A missing or null field, non-finite values, arrays
    shaped for another model or for a stack of heads, and an NTN's k or
    in_dim that its arrays contradict, refuse to load."""
    try:
        version = spec.get("format_version")
        if version not in (1, MODEL_FORMAT_VERSION):
            raise ValueError(f"unsupported model format version {version!r}")
        cls = {"rwfn": RwfnPredicate, "ntn": NtnPredicate}.get(spec.get("kind"))
        required = [f.name for f in fields(cls)] if cls else ["kind"]  # an unknown kind is refused below
        missing = [repr(key) for key in required if spec.get(key) is None]
        if missing:
            raise ValueError(f"model spec has no {', '.join(missing)}")
        if cls is RwfnPredicate:
            if not isinstance(spec["encoder"], dict):
                raise ValueError(f"encoder spec must be an object, got {spec['encoder']!r}")
            missing = [key for key in CHECKSUMS if spec["encoder"].get(key) is None]
            if version == MODEL_FORMAT_VERSION and missing:
                raise ValueError(f"model format {version} encoder spec lacks {', '.join(missing)}")
            encoder = encoder_from_spec(spec["encoder"])
            model = RwfnPredicate(encoder=encoder, beta=np.asarray(spec["beta"], dtype=np.float64), mode=spec["mode"])
            if model.beta.shape != (hidden_dim(encoder, model.mode),):
                raise ValueError(f"beta has shape {model.beta.shape}, expected ({hidden_dim(encoder, model.mode)},)")
        elif cls is NtnPredicate:
            model = NtnPredicate(**{f.name: np.asarray(spec[f.name], dtype=np.float64) for f in fields(NtnPredicate)})
            if model.heads:
                raise ValueError("parameters with a heads axis are a stack of models")
            if (spec.get("k"), spec.get("in_dim")) != (model.slices, model.input_dim):
                raise ValueError(f"k={spec.get('k')!r}, in_dim={spec.get('in_dim')!r} disagree "
                                 f"with parameters of {model.slices} slices of width {model.input_dim}")
        else:
            raise ValueError(f"unknown model kind {spec['kind']!r}")
        for param, value in model.learnable_params().items():
            if not np.isfinite(value).all():
                raise ValueError(f"parameter {param!r} has non-finite values")
    except ValueError as e:
        raise ValueError(f"predicate {name!r}: {e}") from None
    return model
