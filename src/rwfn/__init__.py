"""Randomly weighted feature networks and a neural-tensor baseline for
grounding fuzzy first-order knowledge bases over bounding-box data."""

__version__ = "0.1.0"

from .encoder import EncoderConfig, RwfnEncoder, build_encoder, kernel_estimate
from .logic import GroundedTheory, KnowledgeBase, LiteralTable, parse_kb
from .predicates import NtnPredicate, ParamCount, RwfnPredicate, count_params, init_ntn
from .training import SharedEncoderRegistry, TrainConfig, train

__all__ = [
    "EncoderConfig", "RwfnEncoder", "build_encoder", "kernel_estimate",
    "GroundedTheory", "KnowledgeBase", "LiteralTable", "parse_kb",
    "NtnPredicate", "ParamCount", "RwfnPredicate", "count_params", "init_ntn",
    "SharedEncoderRegistry", "TrainConfig", "train",
    "__version__",
]
