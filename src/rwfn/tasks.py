"""Wiring between datasets and grounded theories for the two benchmark tasks:
per-class box type classification and detection of the part-of relation.

Type classification grounds one unary predicate per class over box feature
vectors; the knowledge base holds one literal table, a row per training box
whose sign is the box's membership of the class. Part-of detection grounds a
single binary predicate over concatenated pair features; its knowledge base
holds one literal table of the labelled pairs plus mereological axioms
whose class atoms are grounded directly from dataset labels (they carry no
learnable parameters). Both tables are filled in whole-array passes, with
no formula node per row.
"""

from __future__ import annotations

import numpy as np

from .data import Dataset, inclusion_ratio, pair_features
from .encoder import EncoderConfig, build_encoder
from .logic import GroundedTheory, KnowledgeBase, LiteralTable, parse_kb
from .numerics import make_rng
from .predicates import LabelPredicate, NtnPredicate, RwfnPredicate, init_ntn
from .training import SharedEncoderRegistry

DEFAULT_K = 6
DEFAULT_B_TYPES = 200
DEFAULT_B_PARTOF = 400


def make_rwfn_classifier(input_dim: int, hidden_width: int, seed: int, mode: str,
                         registry: SharedEncoderRegistry | None) -> RwfnPredicate:
    cfg = EncoderConfig(input_dim=input_dim, hidden_width=hidden_width, seed=seed)
    encoder = registry.get_or_build(cfg) if registry is not None else build_encoder(cfg)
    return RwfnPredicate.create(encoder, mode=mode)


def make_classifier(kind: str, input_dim: int, seed: int, b: int, k: int, mode: str,
                    registry: SharedEncoderRegistry | None = None) -> RwfnPredicate | NtnPredicate:
    """A fresh classifier of kind "rwfn" (hidden width b; mode and registry
    apply) or "ltn" (an NTN of k slices)."""
    if kind == "rwfn":
        return make_rwfn_classifier(input_dim, b, seed=seed, mode=mode, registry=registry)
    if kind == "ltn":
        return init_ntn(k, input_dim, make_rng(seed))
    raise ValueError(f"unknown model kind {kind!r}")


# ---------------------------------------------------------------------------
# Type classification (T1)


def build_type_theory(ds: Dataset, class_name: str, model) -> GroundedTheory:
    ids = np.array([r.id for r in ds.records], dtype=object).reshape(-1, 1)
    sign = np.fromiter((class_name in r.labels for r in ds.records), dtype=bool, count=len(ds.records))
    kb = KnowledgeBase(signatures={class_name: 1}, facts=[LiteralTable(class_name, ids, sign)])
    constants = {r.id: r.features for r in ds.records}
    return GroundedTheory(kb=kb, constants=constants, predicates={class_name: model})


def type_scores(models: dict, ds: Dataset) -> dict:
    """Per class: (scores over all records, binary labels). Models with an
    equal stack_key() read the same rows, so a run of them lifts the
    records once; one lift is alive at a time."""
    x = np.stack([r.features for r in ds.records])
    key = rows = None
    out = {}
    for cname, model in models.items():
        if model.stack_key() != key:
            key, rows = model.stack_key(), model.lift(x)
        out[cname] = (model.forward_batch(rows)[0], type_labels(cname, ds))
    return out


def type_labels(class_name: str, ds: Dataset) -> np.ndarray:
    """1 for each record of ds that carries class_name, else 0."""
    return np.array([class_name in r.labels for r in ds.records], dtype=int)


# ---------------------------------------------------------------------------
# Part-of detection (T2)


def ontology_kb_text(ds: Dataset) -> str:
    """Mereological constraint families in the KB text syntax."""
    lines = ["# part-of ontology constraints", "pred partOf/2", "pred isWhole/1", "pred isPart/1"]
    for c in ds.classes:
        lines.append(f"pred is_{c.name}/1")
    lines.append("")
    lines.append("# asymmetry")
    lines.append("forall x,y: partOf(x,y) -> ~partOf(y,x)")
    lines.append("# whole objects cannot be part of other objects")
    lines.append("forall x,y: isWhole(x) -> ~partOf(x,y)")
    lines.append("# part objects are not divided further")
    lines.append("forall x,y: isPart(y) -> ~partOf(x,y)")
    lines.append("# each whole admits only its own part classes")
    for c in ds.whole_classes():
        if c.parts:
            disj = " | ".join(f"is_{p}(x)" for p in c.parts)
            lines.append(f"forall x,y: (partOf(x,y) & is_{c.name}(y)) -> ({disj})")
    return "\n".join(lines) + "\n"


def label_predicates(ds: Dataset) -> dict:
    roles = {c.name: c.role for c in ds.classes}
    preds = {
        "isWhole": LabelPredicate({(r.id,): 1.0 for r in ds.records if roles[ds.primary_label(r)] == "whole"}),
        "isPart": LabelPredicate({(r.id,): 1.0 for r in ds.records if roles[ds.primary_label(r)] == "part"}),
    }
    for c in ds.classes:
        preds[f"is_{c.name}"] = LabelPredicate({(r.id,): 1.0 for r in ds.records if c.name in r.labels})
    return preds


def build_partof_theory(ds: Dataset, model) -> GroundedTheory:
    axioms_kb = parse_kb(ontology_kb_text(ds))
    ends = np.array([(p.part, p.whole) for p in ds.pairs], dtype=object).reshape(-1, 2)
    sign = np.fromiter((p.positive for p in ds.pairs), dtype=bool, count=len(ds.pairs))
    kb = KnowledgeBase(signatures=axioms_kb.signatures, formulas=axioms_kb.formulas,
                       facts=[LiteralTable("partOf", ends, sign)])
    constants = {r.id: r.features for r in ds.records}
    predicates = {"partOf": model}
    predicates.update(label_predicates(ds))
    return GroundedTheory(kb=kb, constants=constants, predicates=predicates)


def partof_scores(model, ds: Dataset) -> tuple:
    if not ds.pairs:
        raise ValueError("dataset has no part-of pairs to score")
    x = np.stack([pair_features(ds.by_id(p.part), ds.by_id(p.whole)) for p in ds.pairs])
    labels = np.array([p.positive for p in ds.pairs], dtype=int)
    return model.forward_batch(model.lift(x))[0], labels


def baseline_ir_scores(ds: Dataset) -> tuple:
    scores = np.array([inclusion_ratio(ds.by_id(p.part).bbox, ds.by_id(p.whole).bbox) for p in ds.pairs])
    labels = np.array([p.positive for p in ds.pairs], dtype=int)
    return scores, labels
