"""Precision-recall evaluation, threshold classification, the ablation
runner, and multi-model comparison with repeated seeded runs.

AUC here is always the area under the precision-recall curve, integrated
trapezoidally over recall with tied scores entering the sweep together.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .data import Dataset, split
from .numerics import make_rng
from .predicates import ParamCount, count_params
from .tasks import (
    DEFAULT_B_PARTOF,
    DEFAULT_B_TYPES,
    DEFAULT_K,
    baseline_ir_scores,
    build_partof_theory,
    build_type_theory,
    make_ltn_classifier,
    make_rwfn_classifier,
    partof_scores,
    type_scores,
)
from .training import SharedEncoderRegistry, TrainConfig, train, train_many


@dataclass(frozen=True)
class PrCurve:
    recalls: np.ndarray
    precisions: np.ndarray
    thresholds: np.ndarray


def pr_curve(scores, labels) -> PrCurve:
    """Threshold sweep over distinct scores, descending; ties grouped."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise ValueError("scores and labels must be 1-d and equally long")
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN; a NaN score has no rank")
    pos = int(labels.sum())
    if pos == 0 or pos == len(labels):
        raise ValueError("PR curve needs at least one positive and one negative label")
    order = np.argsort(-scores, kind="stable")
    s, y = scores[order], labels[order]
    # group boundaries where the score strictly drops
    boundary = np.nonzero(np.diff(s))[0]
    ends = np.append(boundary, len(s) - 1)
    tp = np.cumsum(y)[ends]
    n_pred = ends + 1
    precisions = tp / n_pred
    recalls = tp / pos
    return PrCurve(recalls=recalls, precisions=precisions, thresholds=s[ends])


def auc(curve: PrCurve) -> float:
    """Trapezoidal area over recall, anchored at (0, precision of top group)."""
    if len(curve.recalls) == 0:
        raise ValueError("empty PR curve")
    r = np.concatenate([[0.0], curve.recalls])
    p = np.concatenate([[curve.precisions[0]], curve.precisions])
    return float(np.trapezoid(p, r))


def pr_auc(scores, labels) -> float:
    return auc(pr_curve(scores, labels))


def macro_auc(per_class: dict) -> tuple:
    """Macro-average AUC over classes having both label values; returns
    (macro, {class: auc}) and skips degenerate classes."""
    per = {}
    for cname, (scores, labels) in per_class.items():
        if 0 < labels.sum() < len(labels):
            per[cname] = pr_auc(scores, labels)
    if not per:
        raise ValueError("no class has both positive and negative test labels")
    return float(np.mean(list(per.values()))), per


# ---------------------------------------------------------------------------
# Task runners


@dataclass
class TaskResult:
    auc: float
    params: ParamCount
    wall_ms: float
    per_class: dict = field(default_factory=dict)
    models: dict = field(default_factory=dict)
    traces: dict = field(default_factory=dict)


def class_names(ds: Dataset) -> list:
    return [c.name for c in ds.classes]


def run_types(kind: str, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
              b: int = DEFAULT_B_TYPES, k: int = DEFAULT_K, mode: str = "full",
              shared: bool = False) -> TaskResult:
    """Train one classifier per class and macro-average test AUC.

    NTN and shared-encoder classifiers train in lockstep (train_many);
    private-encoder ones one by one, so only one hidden cache is alive.
    Wall time covers theory grounding plus training, per the running-time
    comparison protocol.
    """
    t0 = time.perf_counter()
    registry = SharedEncoderRegistry() if shared else None
    models = {}
    traces = {}
    lockstep = {}
    for idx, cname in enumerate(class_names(train_ds)):
        if kind == "rwfn":
            seed = cfg.seed if shared else cfg.seed + idx
            model = make_rwfn_classifier(train_ds.n, b, seed=seed, mode=mode, registry=registry)
        elif kind == "ltn":
            model = make_ltn_classifier(train_ds.n, seed=cfg.seed + idx, k=k)
        else:
            raise ValueError(f"unknown model kind {kind!r}")
        gt = build_type_theory(train_ds, cname, model)
        models[cname] = model
        if kind == "rwfn" and not shared:
            traces[cname] = train(gt, cfg)
        else:
            lockstep[cname] = gt
    if lockstep:
        traces = dict(zip(lockstep, train_many(list(lockstep.values()), cfg)))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    macro, per = macro_auc(type_scores(models, test_ds))
    any_model = next(iter(models.values()))
    return TaskResult(auc=macro, params=count_params(any_model), wall_ms=wall_ms,
                      per_class=per, models=models, traces=traces)


def run_partof(kind: str, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
               b: int = DEFAULT_B_PARTOF, k: int = DEFAULT_K, mode: str = "full") -> TaskResult:
    t0 = time.perf_counter()
    in_dim = 2 * train_ds.n
    if kind == "rwfn":
        model = make_rwfn_classifier(in_dim, b, seed=cfg.seed, mode=mode)
    elif kind == "ltn":
        model = make_ltn_classifier(in_dim, seed=cfg.seed, k=k)
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    gt = build_partof_theory(train_ds, model)
    trace = train(gt, cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    scores, labels = partof_scores(model, test_ds)
    return TaskResult(auc=pr_auc(scores, labels), params=count_params(model),
                      wall_ms=wall_ms, models={"partOf": model},
                      traces={"partOf": trace})


# ---------------------------------------------------------------------------
# Ablation (branch contributions)


def run_ablation(ds: Dataset, cfg: TrainConfig, b_types: int = DEFAULT_B_TYPES,
                 b_partof: int = DEFAULT_B_PARTOF, ratio: float = 0.8) -> list:
    """Three frozen-encoder variants on an identical split and seeds:
    gated-projection branch only, Fourier branch only, and the full model.
    Ablated branches keep the hidden width, so their decoders have length B
    while the full model's has 2B."""
    sp = split(ds, ratio, make_rng(cfg.seed))
    rows = []
    for mode in ("albm", "rff", "full"):
        t1 = run_types("rwfn", sp.train, sp.test, cfg, b=b_types, mode=mode)
        t2 = run_partof("rwfn", sp.train, sp.test, cfg, b=b_partof, mode=mode)
        rows.append({
            "variant": mode,
            "decoder_len_types": int(next(iter(t1.models.values())).beta.shape[0]),
            "decoder_len_partof": int(t2.models["partOf"].beta.shape[0]),
            "auc_types": t1.auc,
            "auc_partof": t2.auc,
        })
    return rows


# ---------------------------------------------------------------------------
# Multi-model comparison

COMPARE_MODELS = ("ltn", "rwfn", "rwfn-shared")
# (minuend, subtrahend): per-seed AUC differences on the same split
PAIRED = (("rwfn", "ltn"), ("rwfn", "ir-baseline"))


def check_models(models) -> tuple:
    """models as a tuple, or ValueError for an empty list, an unknown or
    repeated name, or the always-included inclusion-ratio baseline."""
    models = tuple(models)
    allowed = ", ".join(COMPARE_MODELS)
    if not models:
        raise ValueError(f"no models to compare; choose from {allowed}")
    for name in models:
        if name not in COMPARE_MODELS:
            reason = "is always included" if name == "ir-baseline" else "is not a model"
            raise ValueError(f"{name!r} {reason}; choose from {allowed}")
    if len(set(models)) < len(models):
        raise ValueError(f"models repeat a name: {','.join(models)}; choose each of {allowed} once")
    return models


def compare(ds: Dataset, models=COMPARE_MODELS, repeats: int = 5,
            cfg: TrainConfig | None = None, b_types: int = DEFAULT_B_TYPES,
            b_partof: int = DEFAULT_B_PARTOF, k: int = DEFAULT_K,
            ratio: float = 0.8) -> dict:
    """Repeated seeded runs; per model, mean AUC with a 2*SD band, parameter
    counts, and mean wall time. The geometric inclusion-ratio baseline is
    always included for the part-of task. For each PAIRED pair whose models
    both ran, the per-seed AUC differences on the same split, with their
    mean and 2*SD band."""
    models = check_models(models)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    cfg = cfg or TrainConfig()
    run_seeds = [int(s) for s in make_rng(cfg.seed).integers(0, 2**31 - 1, size=repeats)]

    acc: dict = {name: {"types": [], "partof": [], "ms_types": [], "ms_partof": []} for name in models}
    acc["ir-baseline"] = {"partof": []}
    params: dict = {}

    for seed in run_seeds:
        sp = split(ds, ratio, make_rng(seed))
        run_cfg = replace(cfg, seed=seed)
        ir_scores, ir_labels = baseline_ir_scores(sp.test)
        acc["ir-baseline"]["partof"].append(pr_auc(ir_scores, ir_labels))
        for name in models:
            kind = "rwfn" if name.startswith("rwfn") else "ltn"
            shared = name == "rwfn-shared"
            t1 = run_types(kind, sp.train, sp.test, run_cfg, b=b_types, k=k, shared=shared)
            acc[name]["types"].append(t1.auc)
            acc[name]["ms_types"].append(t1.wall_ms)
            if not shared:  # part-of needs a single classifier; sharing buys nothing
                t2 = run_partof(kind, sp.train, sp.test, run_cfg, b=b_partof, k=k)
                acc[name]["partof"].append(t2.auc)
                acc[name]["ms_partof"].append(t2.wall_ms)
                params.setdefault(name, {"types": t1.params, "partof": t2.params})
            else:
                params.setdefault(name, {"types": t1.params, "partof": None})

    def stats(xs):
        if not xs:
            return None
        a = np.asarray(xs)
        return {"mean": float(a.mean()), "two_sd": float(2.0 * a.std(ddof=0)), "runs": a.tolist()}

    rows = []
    for name in list(models) + ["ir-baseline"]:
        entry = acc[name]
        pc = params.get(name, {})

        def pc_json(p):
            return None if p is None else {"total": p.total, "learnable": p.learnable}

        rows.append({
            "model": name,
            "auc_types": stats(entry.get("types", [])),
            "auc_partof": stats(entry.get("partof", [])),
            "params_types": pc_json(pc.get("types")) if name != "ir-baseline" else None,
            "params_partof": pc_json(pc.get("partof")) if name != "ir-baseline" else {"total": 0, "learnable": 0},
            "mean_ms_types": float(np.mean(entry["ms_types"])) if entry.get("ms_types") else None,
            "mean_ms_partof": float(np.mean(entry["ms_partof"])) if entry.get("ms_partof") else None,
        })
    paired = []
    for a, b in PAIRED:
        if a in acc and b in acc:
            paired.append({"pair": f"{a} - {b}", **{
                f"auc_{task}": stats([x - y for x, y in zip(acc[a].get(task, []), acc[b].get(task, []))])
                for task in ("types", "partof")}})
    return {
        "repeats": repeats,
        "run_seeds": run_seeds,
        "auc_mode": "macro",
        "config": {**asdict(cfg), "b_types": b_types, "b_partof": b_partof, "k": k,
                   "split_ratio": ratio},
        "rows": rows,
        "paired": paired,
    }


def render_table(report: dict) -> str:
    """Aligned text rendering of a comparison report."""

    def cell(s):
        if s is None:
            return "---"
        return f"{s['mean']:.3f}+-{s['two_sd']:.3f}"

    def pcell(p):
        if p is None:
            return "---"
        return f"{p['learnable']}/{p['total']}"

    def aligned(lines):
        widths = [max(len(r[i]) for r in lines) for i in range(len(lines[0]))]
        out = []
        for i, r in enumerate(lines):
            out.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
            if i == 0:
                out.append("  ".join("-" * w for w in widths))
        return out

    lines = [["Model", "T1 AUC (mean+-2SD)", "T2 AUC (mean+-2SD)", "learnable/total (T1)",
              "learnable/total (T2)", "T1 ms", "T2 ms"]]
    for row in report["rows"]:
        lines.append([
            row["model"], cell(row["auc_types"]), cell(row["auc_partof"]),
            pcell(row["params_types"]), pcell(row["params_partof"]),
            "---" if row["mean_ms_types"] is None else f"{row['mean_ms_types']:.0f}",
            "---" if row["mean_ms_partof"] is None else f"{row['mean_ms_partof']:.0f}",
        ])
    out = aligned(lines)
    if report["paired"]:
        pairs = [["Paired, per seed", "T1 AUC diff (mean+-2SD)", "T2 AUC diff (mean+-2SD)"]]
        pairs += [[p["pair"], cell(p["auc_types"]), cell(p["auc_partof"])] for p in report["paired"]]
        out += [""] + aligned(pairs)
    return "\n".join(out) + "\n"
