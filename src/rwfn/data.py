"""Bounding-box dataset model: JSON ingestion, synthetic scene generation,
stratified splitting, pair features, and the inclusion-ratio baseline.

Synthetic scenes stand in for detector-derived data: each scene places whole
boxes containing part boxes; features are noisy one-hot class scores
concatenated with the normalized bbox, so n = #classes + 4. Negatives mix
reversed pairs, sibling parts, random pairs, and "decoy" containments where
a part sits geometrically inside an overlapping whole of the wrong class;
the decoys are what keep the purely geometric baseline beatable.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .numerics import make_rng

DATASET_FORMAT_VERSION = 1


class DatasetError(ValueError):
    pass


@dataclass(frozen=True)
class BoxRecord:
    id: str
    features: np.ndarray          # length n, in [0,1]
    bbox: tuple                    # (x1, y1, x2, y2), normalized
    labels: frozenset

    def __post_init__(self):
        x1, y1, x2, y2 = self.bbox
        if not (x1 < x2 and y1 < y2):
            raise DatasetError(f"record {self.id}: degenerate bbox {self.bbox}")


@dataclass(frozen=True)
class PartOfPair:
    part: str
    whole: str
    positive: bool

    def __post_init__(self):
        if self.part == self.whole:
            raise DatasetError(f"pair with identical endpoints {self.part!r}")
        if not isinstance(self.positive, bool):  # bool("false") is True
            raise DatasetError(f"pair ({self.part!r}, {self.whole!r}): positive must be a bool, got {self.positive!r}")


@dataclass(frozen=True)
class ClassInfo:
    name: str
    role: str              # "whole" | "part"
    parts: tuple = ()      # part class names, for whole classes


@dataclass
class Dataset:
    n: int
    classes: list            # list[ClassInfo]
    records: list            # list[BoxRecord]
    pairs: list              # list[PartOfPair]

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool):
            raise DatasetError(f"n must be an integer, got {self.n!r}")
        names = {c.name for c in self.classes}
        self._index = {r.id: r for r in self.records}
        if len(self._index) != len(self.records):
            raise DatasetError("duplicate record ids")
        for i, c in enumerate(self.classes):
            if c.name in (d.name for d in self.classes[:i]):
                raise DatasetError(f"class {c.name!r} is declared twice")
            if c.role not in ("whole", "part"):
                raise DatasetError(f"class {c.name!r}: role must be 'whole' or 'part', got {c.role!r}")
            for p in c.parts:
                if p not in names:
                    raise DatasetError(f"ontology edge {c.name}->{p} references undeclared class")
        # the first record with a non-finite feature value, if any, from one
        # pass over every record's features
        finite = np.isfinite(np.concatenate([r.features for r in self.records] + [np.zeros(0)], axis=None))
        ends = np.cumsum([np.size(r.features) for r in self.records])
        first_bad = -1 if finite.all() else int(np.searchsorted(ends, np.argmin(finite), side="right"))
        for i, r in enumerate(self.records):
            if len(r.features) != self.n:
                raise DatasetError(f"record {r.id}: feature length {len(r.features)} != n={self.n}")
            if i == first_bad:
                raise DatasetError(f"record {r.id}: non-finite feature value")
            for lab in r.labels:
                if lab not in names:
                    raise DatasetError(f"record {r.id}: unknown label {lab!r}")
        for p in self.pairs:
            if p.part not in self._index or p.whole not in self._index:
                raise DatasetError(f"pair ({p.part}, {p.whole}) references unknown record id")

    def by_id(self, rid: str) -> BoxRecord:
        return self._index[rid]

    def primary_label(self, r: BoxRecord) -> str:
        if not r.labels:
            raise DatasetError(f"record {r.id} has no labels")
        return sorted(r.labels)[0]

    def whole_classes(self) -> list:
        return [c for c in self.classes if c.role == "whole"]


@dataclass(frozen=True)
class SyntheticConfig:
    num_scenes: int = 60
    num_whole_classes: int = 4
    parts_per_whole: int = 2
    feature_noise: float = 0.1
    geometry_jitter: float = 0.02
    negative_ratio: float = 1.0
    overlap_fraction: float = 0.5  # fraction of scenes with an overlapping decoy whole
    seed: int = 0

    def __post_init__(self):
        for name in ("num_scenes", "num_whole_classes", "parts_per_whole", "seed"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise DatasetError(f"{name} must be an int, got {value!r}")
        if self.num_scenes < 1 or self.num_whole_classes < 1 or self.parts_per_whole < 1:
            raise DatasetError("counts must be >= 1")
        for name in ("feature_noise", "geometry_jitter", "negative_ratio"):
            if not math.isfinite(getattr(self, name)):
                raise DatasetError(f"{name} must be finite, got {getattr(self, name)}")
        for name in ("feature_noise", "geometry_jitter", "seed"):
            if getattr(self, name) < 0:
                raise DatasetError(f"{name} must be >= 0, got {getattr(self, name)}")
        if self.negative_ratio <= 0:
            raise DatasetError("negative_ratio must be > 0")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise DatasetError(f"overlap_fraction must be in [0,1], got {self.overlap_fraction}")


# ---------------------------------------------------------------------------
# JSON round trip


def dataset_to_json(ds: Dataset) -> dict:
    return {
        "format_version": DATASET_FORMAT_VERSION,
        "n": ds.n,
        "classes": [{"name": c.name, "role": c.role, "parts": list(c.parts)} for c in ds.classes],
        "records": [
            {"id": r.id, "features": [float(x) for x in r.features],
             "bbox": [float(x) for x in r.bbox], "labels": sorted(r.labels)}
            for r in ds.records
        ],
        "pairs": [{"part": p.part, "whole": p.whole, "positive": p.positive} for p in ds.pairs],
    }


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def dataset_from_json(obj: dict) -> Dataset:
    try:
        classes = [ClassInfo(c["name"], c["role"], tuple(c.get("parts", ()))) for c in obj["classes"]]
        records = []
        for r in obj["records"]:
            if not (isinstance(r["labels"], list) and all(isinstance(lab, str) for lab in r["labels"])):
                raise DatasetError(f"record {r['id']!r}: labels must be a list of strings, got {r['labels']!r}")
            if not (isinstance(r["bbox"], list) and len(r["bbox"]) == 4 and all(map(_is_number, r["bbox"]))):
                raise DatasetError(f"record {r['id']!r}: bbox must be 4 numbers, got {r['bbox']!r}")
            if not (isinstance(r["features"], list) and all(map(_is_number, r["features"]))):
                raise DatasetError(f"record {r['id']!r}: features must be a list of numbers, got {r['features']!r}")
            records.append(BoxRecord(r["id"], np.asarray(r["features"], dtype=np.float64),
                                     tuple(r["bbox"]), frozenset(r["labels"])))
        pairs = [PartOfPair(p["part"], p["whole"], p["positive"]) for p in obj["pairs"]]
        return Dataset(n=obj["n"], classes=classes, records=records, pairs=pairs)
    except (KeyError, TypeError) as e:
        raise DatasetError(f"malformed dataset JSON: {e}") from e


def save_dataset(ds: Dataset, path) -> None:
    with open(path, "w") as fh:
        json.dump(dataset_to_json(ds), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_dataset(path) -> Dataset:
    with open(path) as fh:
        return dataset_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# Geometry


def inclusion_ratio(b: tuple, b2: tuple) -> float:
    """area(b intersect b2) / area(b); 0 when disjoint."""
    x1, y1, x2, y2 = b
    area = (x2 - x1) * (y2 - y1)
    if area <= 0:
        raise DatasetError(f"degenerate bbox {b}")
    ix = max(0.0, min(x2, b2[2]) - max(x1, b2[0]))
    iy = max(0.0, min(y2, b2[3]) - max(y1, b2[1]))
    return ix * iy / area


def pair_features(part: BoxRecord, whole: BoxRecord) -> np.ndarray:
    return np.concatenate([part.features, whole.features])


# ---------------------------------------------------------------------------
# Synthetic generation


def default_classes(num_wholes: int, parts_per_whole: int) -> list:
    classes = []
    for i in range(num_wholes):
        parts = tuple(f"part{i}_{j}" for j in range(parts_per_whole))
        classes.append(ClassInfo(f"whole{i}", "whole", parts))
        classes.extend(ClassInfo(p, "part") for p in parts)
    return classes


def _place_whole(rng) -> tuple:
    w = rng.uniform(0.30, 0.45)
    h = rng.uniform(0.30, 0.45)
    x1 = rng.uniform(0.0, 1.0 - w)
    y1 = rng.uniform(0.0, 1.0 - h)
    return (x1, y1, x1 + w, y1 + h)


def _place_part(whole: tuple, jitter: float, rng) -> tuple:
    """Part strictly inside the whole, then jittered but still mostly inside."""
    x1, y1, x2, y2 = whole
    w, h = x2 - x1, y2 - y1
    pw = rng.uniform(0.2, 0.4) * w
    ph = rng.uniform(0.2, 0.4) * h
    px = rng.uniform(x1, x2 - pw)
    py = rng.uniform(y1, y2 - ph)
    # jitter may push the part slightly out; keep inclusion ratio >= 0.9
    for _ in range(20):
        dx, dy = rng.uniform(-jitter, jitter, size=2).tolist()
        cand = (px + dx, py + dy, px + dx + pw, py + dy + ph)
        if 0.0 <= cand[0] and cand[2] <= 1.0 and 0.0 <= cand[1] and cand[3] <= 1.0 \
                and inclusion_ratio(cand, whole) >= 0.9:
            return cand
    return (px, py, px + pw, py + ph)


def gen_synthetic(cfg: SyntheticConfig) -> Dataset:
    """Deterministic synthetic scenes, drawn from cfg.seed; see module
    docstring for the layout."""
    rng = make_rng(cfg.seed)
    classes = default_classes(cfg.num_whole_classes, cfg.parts_per_whole)
    class_index = {c.name: i for i, c in enumerate(classes)}
    wholes = [c for c in classes if c.role == "whole"]
    nfeat = len(classes) + 4

    boxes: list[tuple] = []  # (id, class name, bbox) of every record
    noise: list = []  # each scene's (boxes, classes) class-score noise
    positives: list[PartOfPair] = []
    negative_pool: dict[tuple, None] = {}  # (part_id, whole_id), in insertion order

    for s in range(cfg.num_scenes):
        scene_boxes: list[tuple] = []  # (id, class name, bbox, parent id or None)

        primary = wholes[int(rng.integers(len(wholes)))]
        pbox = _place_whole(rng)
        pid = f"s{s}_w0"
        scene_boxes.append((pid, primary.name, pbox, None))

        decoy_id = None
        if rng.random() < cfg.overlap_fraction and len(wholes) > 1:
            # decoy whole of a different class, overlapping the primary
            others = [c for c in wholes if c.name != primary.name]
            decoy = others[int(rng.integers(len(others)))]
            w, h = pbox[2] - pbox[0], pbox[3] - pbox[1]
            dx1 = min(max(pbox[0] + rng.uniform(-0.1, 0.1) * w, 0.0), 1.0 - w * 1.1)
            dy1 = min(max(pbox[1] + rng.uniform(-0.1, 0.1) * h, 0.0), 1.0 - h * 1.1)
            dbox = (dx1, dy1, min(1.0, dx1 + w * 1.1), min(1.0, dy1 + h * 1.1))
            decoy_id = f"s{s}_w1"
            scene_boxes.append((decoy_id, decoy.name, dbox, None))

        n_parts = 1 + int(rng.integers(len(primary.parts))) if len(primary.parts) > 1 else 1
        n_parts = max(n_parts, min(2, len(primary.parts)))
        part_classes = list(primary.parts)
        rng.shuffle(part_classes)
        for j, pcls in enumerate(part_classes[:n_parts]):
            bbox = _place_part(pbox, cfg.geometry_jitter, rng)
            rid = f"s{s}_p{j}"
            scene_boxes.append((rid, pcls, bbox, pid))
            positives.append(PartOfPair(rid, pid, True))
            if decoy_id is not None:
                # decoy containment: geometrically plausible, ontologically wrong
                negative_pool[rid, decoy_id] = None

        ids_here = [b[0] for b in scene_boxes]
        parents = {b[0]: b[3] for b in scene_boxes}
        for a in ids_here:
            for b in ids_here:
                if a != b and parents.get(a) != b:
                    negative_pool.setdefault((a, b))

        boxes.extend(b[:3] for b in scene_boxes)
        if cfg.feature_noise > 0:
            noise.append(rng.normal(0.0, cfg.feature_noise, size=(len(scene_boxes), len(classes))))

    pool = list(negative_pool)
    n_neg = min(len(pool), int(round(cfg.negative_ratio * len(positives))))
    order = rng.permutation(len(pool))[:n_neg]
    negatives = [PartOfPair(*pool[i], False) for i in sorted(order)]

    # features: noisy one-hot class scores and the bbox, clipped to [0, 1]
    scores = np.zeros((len(boxes), len(classes)))
    scores[np.arange(len(boxes)), [class_index[cname] for _, cname, _ in boxes]] = 1.0
    if noise:
        scores = scores + np.concatenate(noise)
    features = np.clip(np.hstack([scores, np.array([bbox for _, _, bbox in boxes])]), 0.0, 1.0)
    records = [BoxRecord(rid, f, bbox, frozenset([cname])) for (rid, cname, bbox), f in zip(boxes, features)]
    return Dataset(n=nfeat, classes=classes, records=records, pairs=positives + negatives)


# ---------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitResult:
    train: Dataset
    test: Dataset


def split(ds: Dataset, ratio: float, rng: np.random.Generator) -> SplitResult:
    """Per-class stratified record split; pairs follow their endpoints.

    Pairs whose endpoints land in different splits are in neither part:
    len(ds.pairs) - len(train.pairs) - len(test.pairs) of them.
    """
    if not 0.0 < ratio < 1.0:
        raise DatasetError(f"split ratio must be in (0,1), got {ratio}")
    if not ds.records:
        raise DatasetError("dataset has no records to split")

    by_class: dict[str, list] = {}
    for r in ds.records:
        by_class.setdefault(ds.primary_label(r), []).append(r)

    train_ids, test_ids = set(), set()
    for cname in sorted(by_class):
        members = by_class[cname]
        if len(members) < 2:
            raise DatasetError(f"class {cname!r} has fewer than 2 records, cannot stratify")
        order = rng.permutation(len(members)).tolist()
        n_train = int(round(ratio * len(members)))
        n_train = min(max(n_train, 1), len(members) - 1)
        train_ids.update(members[i].id for i in order[:n_train])
        test_ids.update(members[i].id for i in order[n_train:])

    def subset(ids: set) -> Dataset:
        recs = [r for r in ds.records if r.id in ids]
        prs = [p for p in ds.pairs if p.part in ids and p.whole in ids]
        return Dataset(n=ds.n, classes=ds.classes, records=recs, pairs=prs)

    return SplitResult(train=subset(train_ids), test=subset(test_ids))
