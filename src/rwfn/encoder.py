"""Fixed random encoder: sparse gated projection with global inhibition,
plus random Fourier features approximating a Gaussian kernel.

The encoder is drawn once from a seed and never trained. Inputs are assumed
scaled to [0,1] per coordinate; out-of-range inputs only trigger a warning,
once per hidden-feature build, because the Fourier branch is calibrated for
unit bandwidth.
"""

from __future__ import annotations

import hashlib
import math
import warnings
from dataclasses import asdict, dataclass, fields

import numpy as np

from .numerics import PRNG_ID, make_rng, sample_sparse_binary


@dataclass(frozen=True)
class EncoderConfig:
    input_dim: int
    hidden_width: int
    fan_in: int = 7
    inhibition_strength: float = 1.0
    kernel_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("input_dim", "hidden_width", "fan_in", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not 1 <= self.fan_in < self.input_dim:
            raise ValueError(f"fan_in must satisfy 1 <= fan_in < input_dim, got {self.fan_in} vs {self.input_dim}")
        if self.hidden_width < 1:
            raise ValueError("hidden_width must be >= 1")
        if not 0 < self.inhibition_strength < math.inf:
            raise ValueError(f"inhibition_strength must be finite and > 0, got {self.inhibition_strength}")
        if not 0 < self.kernel_scale < math.inf:
            raise ValueError(f"kernel_scale must be finite and > 0, got {self.kernel_scale}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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
    fourier = config.kernel_scale * rng.standard_normal((config.input_dim, config.hidden_width))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=config.hidden_width)
    gate.setflags(write=False)
    fourier.setflags(write=False)
    phase.setflags(write=False)
    return RwfnEncoder(config=config, gate=gate, fourier=fourier, phase=phase)


def _as_batch(x: np.ndarray, input_dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != input_dim:
        raise ValueError(f"input must have length {input_dim}, got rows of shape {x.shape}")
    return x


def _warn_range(x: np.ndarray) -> None:
    if x.size and (x.min() < -1e-9 or x.max() > 1.0 + 1e-9):
        warnings.warn(
            "encoder input outside [0,1]; the Fourier branch assumes unit-scaled features",
            stacklevel=3,
        )


# The branches work in place and can write into a caller's array, so that
# encoding a batch holds one (n, B) temporary besides its (n, 2B) result.


def albm_features(enc: RwfnEncoder, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Sparse gated projection of the rows x, centered by global inhibition,
    then ReLU."""
    vbar = x @ enc.gate
    vbar -= enc.config.inhibition_strength * vbar.mean(axis=1, keepdims=True)
    return np.maximum(0.0, vbar, out=vbar if out is None else out)


def fourier_features(enc: RwfnEncoder, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """sqrt(2/B) * cos(x R + b) of the rows x; inner products approximate
    exp(-|x-y|^2/2)."""
    z = x @ enc.fourier
    z += enc.phase
    np.cos(z, out=z)
    return np.multiply(np.sqrt(2.0 / enc.hidden_width), z, out=z if out is None else out)


def hidden_features(enc: RwfnEncoder, v: np.ndarray, mode: str, args: np.ndarray | None) -> np.ndarray:
    """Hidden representation of the rows v, (n, input_dim), for a branch
    selection.

    mode: "full" (tanh of [h1; h2], 2B columns), "albm" (tanh h1, B
    columns), or "rff" (tanh h2, B columns). Ablated branches keep the tanh
    squashing so decoders see the same value range as the full model. Warns
    if any input lies outside [0,1].

    With args, an (n, A) array of row positions, v is a table of constants
    and the inputs are the n rows v[args].reshape(n, A * v.shape[1]), each
    the concatenation of its A arguments' table rows. For A >= 2 they are
    never built: see _slot_features.
    """
    if args is not None:
        table, args = _as_slots(v, args, enc.input_dim)
        _warn_range(table[np.bincount(args.ravel(), minlength=len(table)) > 0])
        if args.shape[1] > 1:
            return _slot_features(enc, table, args, mode)
        x = table[args[:, 0]]
    else:
        x = _as_batch(v, enc.input_dim)
        _warn_range(x)
    if mode == "full":
        b = enc.hidden_width
        h = np.empty((len(x), 2 * b))
        albm_features(enc, x, out=h[:, :b])
        fourier_features(enc, x, out=h[:, b:])
    elif mode == "albm":
        h = albm_features(enc, x)
    elif mode == "rff":
        h = fourier_features(enc, x)
    else:
        raise ValueError(f"unknown encoder mode {mode!r}")
    return np.tanh(h, out=h)


def _as_slots(table: np.ndarray, args: np.ndarray, input_dim: int) -> tuple[np.ndarray, np.ndarray]:
    table = np.asarray(table, dtype=np.float64)
    args = np.asarray(args)
    if args.ndim != 2 or args.shape[1] < 1 or not np.issubdtype(args.dtype, np.integer):
        raise ValueError(f"args must be an (n, arity) integer array, got {args.dtype} {args.shape}")
    if table.ndim != 2 or table.shape[1] * args.shape[1] != input_dim:
        raise ValueError(f"{args.shape[1]} arguments of a table of shape {table.shape} "
                         f"do not make inputs of length {input_dim}")
    if args.size and (args.min() < 0 or args.max() >= len(table)):
        raise ValueError(f"args must index the {len(table)} table rows")
    return table, args


# Rows per block of _slot_features, and columns per strip of its Fourier
# pass: a block temporary is (rows, B) in the ALBM pass, at or under 400 KB
# for B <= 400, and (rows, strip) in the Fourier pass, 128 KB.
SLOT_BLOCK_ROWS = 128
SLOT_STRIP_COLS = 128


def _slot_features(enc: RwfnEncoder, table: np.ndarray, args: np.ndarray, mode: str) -> np.ndarray:
    """hidden_features of the rows table[args].reshape(n, -1), from tables
    over the constants, one per argument slot j and branch.

    Both branches are sums of per-slot terms. The ALBM projection of a row
    is sum_j G_j[arg_j] with G_j = table @ gate_j, gate_j being the gate rows
    of slot j, and inhibition is linear, so each G_j is centred on its own.
    The Fourier angle is sum_j F_j[arg_j] (phase folded into F_0), so its
    cosine follows from cos F_j and sin F_j by the angle-sum identity,
    (c, s) <- (c cos F_j - s sin F_j, s cos F_j + c sin F_j), with
    sqrt(2/B) folded into slot 0. Rows are gathered and combined in blocks,
    so there is no (n, B) temporary and there are |D|*A cosines and sines
    where the concatenated rows take n*B. One branch's tables are alive at
    a time, the G_j, then the F_j with the cos and sin of one column strip;
    every step after the table products is elementwise, so the passes and
    strips change no bit.
    """
    n, arity = args.shape
    d, b = table.shape[1], enc.hidden_width
    h = np.empty((n, hidden_dim(enc, mode)))
    slots = [slice(j * d, (j + 1) * d) for j in range(arity)]
    blocks = [(slice(lo, lo + SLOT_BLOCK_ROWS), args[lo:lo + SLOT_BLOCK_ROWS].T)
              for lo in range(0, n, SLOT_BLOCK_ROWS)]
    if mode != "rff":
        gates = [table @ enc.gate[slot] for slot in slots]
        for j in range(arity):
            gates[j] -= enc.config.inhibition_strength * gates[j].mean(axis=1, keepdims=True)
        for rows, idx in blocks:
            acc = gates[0][idx[0]]
            for j in range(1, arity):
                acc += gates[j][idx[j]]
            h[rows, :b] = np.tanh(np.maximum(acc, 0.0))
        del gates
    if mode != "albm":
        angles = [table @ enc.fourier[slot] for slot in slots]
        angles[0] += enc.phase
        out = h[:, -b:]
        for lo in range(0, b, SLOT_STRIP_COLS):
            strip = slice(lo, lo + SLOT_STRIP_COLS)
            cos = [np.cos(z[:, strip]) for z in angles]
            sin = [np.sin(z[:, strip]) for z in angles]
            cos[0] *= np.sqrt(2.0 / b)
            sin[0] *= np.sqrt(2.0 / b)
            for rows, idx in blocks:
                c, s = cos[0][idx[0]], sin[0][idx[0]]
                for j in range(1, arity - 1):
                    cj, sj = cos[j][idx[j]], sin[j][idx[j]]
                    c, s = c * cj - s * sj, s * cj + c * sj
                out[rows, strip] = np.tanh(c * cos[-1][idx[-1]] - s * sin[-1][idx[-1]])
    return h


def hidden_dim(enc: RwfnEncoder, mode: str) -> int:
    if mode == "full":
        return 2 * enc.hidden_width
    if mode in ("albm", "rff"):
        return enc.hidden_width
    raise ValueError(f"unknown encoder mode {mode!r}")


def kernel_estimate(enc: RwfnEncoder, x: np.ndarray, y: np.ndarray) -> float:
    """Randomized estimate of the Gaussian kernel at the vectors x and y via
    the Fourier branch."""
    zx, zy = (fourier_features(enc, _as_batch([v], enc.input_dim)) for v in (x, y))
    return float(zx[0] @ zy[0])


def gate_checksum(enc: RwfnEncoder) -> str:
    return hashlib.sha256(enc.gate.astype(np.uint8).tobytes()).hexdigest()


def _float_checksum(block: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(block, dtype="<f8").tobytes()).hexdigest()


# spec key -> checksum of the random block it guards
CHECKSUMS = {
    "gate_checksum": gate_checksum,
    "fourier_checksum": lambda enc: _float_checksum(enc.fourier),
    "phase_checksum": lambda enc: _float_checksum(enc.phase),
}


def encoder_to_spec(enc: RwfnEncoder) -> dict:
    """Seed-based descriptor; reconstruction re-samples the random blocks."""
    spec = {**asdict(enc.config), "prng_id": PRNG_ID}
    spec.update((key, checksum(enc)) for key, checksum in CHECKSUMS.items())
    return spec


def encoder_from_spec(spec: dict) -> RwfnEncoder:
    """Re-sample the encoder and check it against every checksum the spec
    carries. An int field takes an int, a float field any number; neither
    takes a bool."""
    if spec.get("prng_id") != PRNG_ID:
        raise ValueError(f"unsupported prng_id {spec.get('prng_id')!r}, expected {PRNG_ID!r}")
    missing = [repr(f.name) for f in fields(EncoderConfig) if spec.get(f.name) is None]
    if missing:
        raise ValueError(f"encoder spec has no {', '.join(missing)}")
    for f in fields(EncoderConfig):
        value, is_int = spec[f.name], f.type == "int"
        if isinstance(value, bool) or not isinstance(value, int if is_int else (int, float)):
            raise ValueError(f"encoder spec field {f.name!r} must be {'an int' if is_int else 'a number'}, "
                             f"got {value!r}")
    enc = build_encoder(EncoderConfig(**{f.name: spec[f.name] for f in fields(EncoderConfig)}))
    for key, checksum in CHECKSUMS.items():
        if spec.get(key) is not None and checksum(enc) != spec[key]:
            block = key.removesuffix("_checksum")
            raise ValueError(f"{block} checksum mismatch: encoder could not be reconstructed from seed")
    return enc
