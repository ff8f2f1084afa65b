"""Fixed random encoder: sparse gated projection with global inhibition,
plus random Fourier features approximating a Gaussian kernel.

The encoder is drawn once from a seed and never trained. Inputs are assumed
scaled to [0,1] per coordinate; out-of-range inputs only trigger a warning
because the Fourier branch is calibrated for unit bandwidth.
"""

from __future__ import annotations

import hashlib
import warnings
from dataclasses import dataclass

import numpy as np

from .numerics import (
    PRNG_ID,
    make_rng,
    sample_normal_matrix,
    sample_sparse_binary,
    sample_uniform_vector,
)


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_width: int
    fan_in: int = 7
    inhibition_strength: float = 1.0
    kernel_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.fan_in < self.input_dim:
            raise ValueError(f"fan_in must satisfy 1 <= fan_in < input_dim, got {self.fan_in} vs {self.input_dim}")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if self.inhibition_strength <= 0:
            raise ValueError("inhibition_strength must be > 0")
        if self.kernel_scale <= 0:
            raise ValueError("kernel_scale must be > 0")


@dataclass(frozen=True)
class RwfnEncoder:
    """Immutable bundle of the three random blocks."""

    config: EncoderConfig
    gate: np.ndarray     # input_dim x B, binary, fan_in ones per column
    fourier: np.ndarray  # input_dim x B, kernel_scale * Normal(0,1)
    phase: np.ndarray    # length B, Uniform[0, 2pi)

    @property
    def input_dim(self) -> int:
        return self.config.input_dim

    @property
    def hidden_width(self) -> int:
        return self.config.hidden_width


def build_encoder(config: EncoderConfig) -> RwfnEncoder:
    """Draw the gate, Fourier and phase blocks in that fixed order.

    The draw order is part of the serialization contract: a seed plus the
    config reconstructs the encoder bit-exactly.
    """
    rng = make_rng(config.seed)
    gate = sample_sparse_binary(config.input_dim, config.hidden_width, config.fan_in, rng)
    fourier = config.kernel_scale * sample_normal_matrix(config.input_dim, config.hidden_width, rng)
    phase = sample_uniform_vector(config.hidden_width, 0.0, 2.0 * np.pi, rng)
    gate.setflags(write=False)
    fourier.setflags(write=False)
    phase.setflags(write=False)
    return RwfnEncoder(config=config, gate=gate, fourier=fourier, phase=phase)


def _as_batch(v: np.ndarray, input_dim: int) -> tuple[np.ndarray, bool]:
    v = np.asarray(v, dtype=np.float64)
    single = v.ndim == 1
    x = v[None, :] if single else v
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError(f"input must have length {input_dim}, got shape {v.shape}")
    return x, single


def _warn_range(x: np.ndarray) -> None:
    if x.size and (x.min() < -1e-9 or x.max() > 1.0 + 1e-9):
        warnings.warn(
            "encoder input outside [0,1]; the Fourier branch assumes unit-scaled features",
            stacklevel=3,
        )


# The branches work in place and can write into a caller's array, so that
# encoding a batch holds one (n, B) temporary besides its (n, 2B) result.


def _albm(enc: RwfnEncoder, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    vbar = x @ enc.gate
    vbar -= enc.config.inhibition_strength * vbar.mean(axis=1, keepdims=True)
    return np.maximum(0.0, vbar, out=vbar if out is None else out)


def _fourier(enc: RwfnEncoder, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    z = x @ enc.fourier
    z += enc.phase
    np.cos(z, out=z)
    return np.multiply(np.sqrt(2.0 / enc.hidden_width), z, out=z if out is None else out)


def albm_features(enc: RwfnEncoder, v: np.ndarray) -> np.ndarray:
    """Sparse gated projection, centered by global inhibition, then ReLU."""
    x, single = _as_batch(v, enc.input_dim)
    h1 = _albm(enc, x)
    return h1[0] if single else h1


def fourier_features(enc: RwfnEncoder, v: np.ndarray) -> np.ndarray:
    """sqrt(2/B) * cos(R^T v + b); inner products approximate exp(-|x-y|^2/2)."""
    x, single = _as_batch(v, enc.input_dim)
    h2 = _fourier(enc, x)
    return h2[0] if single else h2


def encode(enc: RwfnEncoder, v: np.ndarray, validate: bool = True) -> np.ndarray:
    """Final hidden representation: tanh of the concatenated branches, length 2B."""
    x, single = _as_batch(v, enc.input_dim)
    if validate:
        _warn_range(x)
    b = enc.hidden_width
    h = np.empty((len(x), 2 * b))
    _albm(enc, x, out=h[:, :b])
    _fourier(enc, x, out=h[:, b:])
    np.tanh(h, out=h)
    return h[0] if single else h


def hidden_features(enc: RwfnEncoder, v: np.ndarray, mode: str = "full") -> np.ndarray:
    """Hidden representation for a branch selection.

    mode: "full" (tanh of [h1; h2], length 2B), "albm" (tanh h1, length B),
    or "rff" (tanh h2, length B). Ablated branches keep the tanh squashing
    so decoders see the same value range as the full model.
    """
    if mode == "full":
        return encode(enc, v, validate=False)
    x, single = _as_batch(v, enc.input_dim)
    if mode == "albm":
        h = _albm(enc, x)
    elif mode == "rff":
        h = _fourier(enc, x)
    else:
        raise ValueError(f"unknown encoder mode {mode!r}")
    np.tanh(h, out=h)
    return h[0] if single else h


def hidden_dim(enc: RwfnEncoder, mode: str = "full") -> int:
    if mode == "full":
        return 2 * enc.hidden_width
    if mode in ("albm", "rff"):
        return enc.hidden_width
    raise ValueError(f"unknown encoder mode {mode!r}")


def kernel_estimate(enc: RwfnEncoder, x: np.ndarray, y: np.ndarray) -> float:
    """Randomized estimate of the Gaussian kernel via the Fourier branch."""
    return float(fourier_features(enc, x) @ fourier_features(enc, y))


def gate_checksum(enc: RwfnEncoder) -> str:
    return hashlib.sha256(enc.gate.astype(np.uint8).tobytes()).hexdigest()


def encoder_to_spec(enc: RwfnEncoder) -> dict:
    """Seed-based descriptor; reconstruction re-samples the random blocks."""
    c = enc.config
    return {
        "input_dim": c.input_dim,
        "hidden_width": c.hidden_width,
        "fan_in": c.fan_in,
        "inhibition_strength": c.inhibition_strength,
        "kernel_scale": c.kernel_scale,
        "seed": c.seed,
        "prng_id": PRNG_ID,
        "gate_checksum": gate_checksum(enc),
    }


def encoder_from_spec(spec: dict) -> RwfnEncoder:
    if spec.get("prng_id") != PRNG_ID:
        raise ValueError(f"unsupported prng_id {spec.get('prng_id')!r}, expected {PRNG_ID!r}")
    cfg = EncoderConfig(
        input_dim=spec["input_dim"],
        hidden_width=spec["hidden_width"],
        fan_in=spec["fan_in"],
        inhibition_strength=spec["inhibition_strength"],
        kernel_scale=spec["kernel_scale"],
        seed=spec["seed"],
    )
    enc = build_encoder(cfg)
    if spec.get("gate_checksum") is not None and gate_checksum(enc) != spec["gate_checksum"]:
        raise ValueError("gate checksum mismatch: encoder could not be reconstructed from seed")
    return enc
