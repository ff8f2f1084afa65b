"""Deterministic random sampling.

All randomness in the package flows through numpy's PCG64 generator seeded
from a single 64-bit integer, so a seed fully determines every random block
drawn anywhere. Normal draws use numpy's standard_normal (ziggurat).
"""

from __future__ import annotations

import numpy as np

# Recorded in serialized model files so encoders are reconstructible from
# seed alone; any change to the sampling pipeline must bump this id.
PRNG_ID = "numpy-pcg64/standard_normal-ziggurat/v1"


def make_rng(seed: int) -> np.random.Generator:
    """Deterministic generator for a 64-bit seed."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def sample_sparse_binary(in_dim: int, width: int, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """in_dim x width binary matrix; each column has exactly fan_in ones.

    Column indices are drawn without replacement, so no hidden unit sees
    the same input twice.
    """
    if not 1 <= fan_in < in_dim:
        raise ValueError(f"fan_in must satisfy 1 <= fan_in < in_dim, got fan_in={fan_in}, in_dim={in_dim}")
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    # argpartition of a uniform draw = fan_in indices without replacement per column
    keys = rng.random((width, in_dim))
    picks = np.argpartition(keys, fan_in - 1, axis=1)[:, :fan_in]
    out = np.zeros((in_dim, width), dtype=np.float64)
    cols = np.repeat(np.arange(width), fan_in)
    out[picks.ravel(), cols] = 1.0
    return out
