"""Precision-recall evaluation, and the one experiment loop: repeated
seeded runs over a list of VARIANTS. The model comparison and the branch
ablation are two lists of variant names.

AUC here is always the area under the precision-recall curve, integrated
trapezoidally over recall with tied scores entering the sweep together.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, replace
from typing import NamedTuple

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
    make_classifier,
    partof_scores,
    type_scores,
)
from .training import SharedEncoderRegistry, TrainConfig, train, train_many


@dataclass(frozen=True)
class PrCurve:
    recalls: np.ndarray
    precisions: np.ndarray


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
    return PrCurve(recalls=recalls, precisions=precisions)


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


def task_auc(task: str, models: dict, test_ds: Dataset) -> tuple:
    """Test AUC of a task's trained predicates, and for "types" the AUC of
    each class (None for "partof"). Type AUC is the macro average over the
    classes with both label values on the test split."""
    if task == "types":
        return macro_auc(type_scores(models, test_ds))
    return pr_auc(*partof_scores(models["partOf"], test_ds)), None


@dataclass
class TaskResult:
    auc: float
    params: ParamCount
    wall_ms: float
    models: dict
    traces: dict


def run_types(kind: str, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig, shared: bool,
              b: int = DEFAULT_B_TYPES, k: int = DEFAULT_K, mode: str = "full") -> TaskResult:
    """Train one classifier per class and macro-average test AUC.

    NTN and shared-encoder classifiers train in lockstep (train_many);
    private-encoder ones one by one, so only one hidden cache is alive.
    Wall time covers theory grounding plus training, per the running-time
    comparison protocol.
    """
    t0 = time.perf_counter()
    shared = shared and kind == "rwfn"  # an NTN has no encoder to share
    registry = SharedEncoderRegistry() if shared else None
    models, traces, lockstep = {}, {}, {}
    for idx, c in enumerate(train_ds.classes):
        seed = cfg.seed if shared else cfg.seed + idx
        model = make_classifier(kind, train_ds.n, seed, b, k, mode, registry=registry)
        gt = build_type_theory(train_ds, c.name, model)
        models[c.name] = model
        if kind == "rwfn" and not shared:
            traces[c.name] = train(gt, cfg)
        else:
            lockstep[c.name] = gt
    if lockstep:
        traces = dict(zip(lockstep, train_many(list(lockstep.values()), cfg)))
    wall_ms = (time.perf_counter() - t0) * 1000.0
    any_model = next(iter(models.values()))
    return TaskResult(auc=task_auc("types", models, test_ds)[0], params=count_params(any_model),
                      wall_ms=wall_ms, models=models, traces=traces)


def run_partof(kind: str, train_ds: Dataset, test_ds: Dataset, cfg: TrainConfig,
               b: int = DEFAULT_B_PARTOF, k: int = DEFAULT_K, mode: str = "full") -> TaskResult:
    t0 = time.perf_counter()
    model = make_classifier(kind, 2 * train_ds.n, cfg.seed, b, k, mode)
    trace = train(build_partof_theory(train_ds, model), cfg)
    wall_ms = (time.perf_counter() - t0) * 1000.0
    models = {"partOf": model}
    return TaskResult(auc=task_auc("partof", models, test_ds)[0], params=count_params(model),
                      wall_ms=wall_ms, models=models, traces={"partOf": trace})


# ---------------------------------------------------------------------------
# Experiments: model variants over repeated seeded runs

# name: (kind, encoder mode, shared encoder). The ablated modes keep the
# hidden width, so their decoders have length B where the full model's has 2B.
VARIANTS = {
    "ltn": ("ltn", "full", False),
    "rwfn": ("rwfn", "full", False),
    "rwfn-shared": ("rwfn", "full", True),
    "rwfn-albm": ("rwfn", "albm", False),
    "rwfn-rff": ("rwfn", "rff", False),
}
COMPARE_MODELS = ("ltn", "rwfn", "rwfn-shared")
# the branch ablation: gated projection only, Fourier features only, both
ABLATION_MODELS = ("rwfn-albm", "rwfn-rff", "rwfn")
TASKS = ("types", "partof")
# (minuend, subtrahend): per-seed AUC differences on the same split
PAIRED = (("rwfn", "ltn"), ("rwfn", "ir-baseline"))


def check_models(models) -> tuple:
    """models as a tuple, or ValueError for an empty list, an unknown or
    repeated name, or the always-included inclusion-ratio baseline."""
    models = tuple(models)
    allowed = ", ".join(VARIANTS)
    if not models:
        raise ValueError(f"no models to compare; choose from {allowed}")
    for name in models:
        if name not in VARIANTS:
            reason = "is always included" if name == "ir-baseline" else "is not a model"
            raise ValueError(f"{name!r} {reason}; choose from {allowed}")
    if len(set(models)) < len(models):
        raise ValueError(f"models repeat a name: {','.join(models)}; choose each of {allowed} once")
    return models


class FitRecord(NamedTuple):
    """What a comparison keeps of one fit. The inclusion-ratio baseline
    trains nothing: its records have no wall time and no parameters."""

    auc: float
    wall_ms: float | None
    params: ParamCount


def compare(ds: Dataset, repeats: int, ratio: float, models, cfg: TrainConfig, b_types: int, b_partof: int,
            k: int) -> dict:
    """Repeated seeded runs of the VARIANTS that models names, each on the
    same splits and seeds; per model, mean AUC with a 2*SD band and
    parameter counts. The geometric inclusion-ratio baseline is always
    included for the part-of task. For each PAIRED pair whose models both
    ran, the per-seed AUC differences on the same split, with their mean and
    2*SD band. "mean_ms" holds each model's mean wall ms per fit and task:
    wall-clock, so `rwfn compare` writes it to the manifest, not the report."""
    models = check_models(models)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    run_seeds = [int(s) for s in make_rng(cfg.seed).integers(0, 2**31 - 1, size=repeats)]

    fits = defaultdict(list)  # (model, task) -> one FitRecord per seed
    for seed in run_seeds:
        sp = split(ds, ratio, make_rng(seed))
        run_cfg = replace(cfg, seed=seed)
        fits["ir-baseline", "partof"].append(
            FitRecord(pr_auc(*baseline_ir_scores(sp.test)), None, ParamCount(total=0, learnable=0)))
        for name in models:
            kind, mode, shared = VARIANTS[name]
            results = {"types": run_types(kind, sp.train, sp.test, run_cfg, shared, b=b_types, k=k, mode=mode)}
            if not shared:  # part-of needs a single classifier; sharing buys nothing
                results["partof"] = run_partof(kind, sp.train, sp.test, run_cfg, b=b_partof, k=k, mode=mode)
            for task, res in results.items():
                fits[name, task].append(FitRecord(res.auc, res.wall_ms, res.params))

    def stats(xs):
        a = np.asarray(xs)
        return {"mean": float(a.mean()), "two_sd": float(2.0 * a.std(ddof=0)), "runs": a.tolist()}

    def cells(name, task):
        """A row's AUC and parameter cells for task, None where name did not run it."""
        runs = fits.get((name, task))
        return {f"auc_{task}": runs and stats([r.auc for r in runs]),
                f"params_{task}": runs and asdict(runs[0].params)}

    def paired_cell(a, b, task):
        xs, ys = fits.get((a, task)), fits.get((b, task))
        return xs and ys and stats([x.auc - y.auc for x, y in zip(xs, ys)])

    names = models + ("ir-baseline",)
    return {
        "repeats": repeats,
        "run_seeds": run_seeds,
        "auc_mode": "macro",
        "config": {**asdict(cfg), "b_types": b_types, "b_partof": b_partof, "k": k,
                   "split_ratio": ratio},
        "rows": [{"model": name, **cells(name, "types"), **cells(name, "partof")} for name in names],
        "paired": [{"pair": f"{a} - {b}", **{f"auc_{task}": paired_cell(a, b, task) for task in TASKS}}
                   for a, b in PAIRED if a in names and b in names],
        "mean_ms": {name: {task: float(np.mean([r.wall_ms for r in fits[name, task]]))
                           for task in TASKS if (name, task) in fits} for name in models},
    }


def render_table(report: dict) -> str:
    """Aligned text rendering of a comparison report, mean wall ms included."""

    def cell(s):
        return "---" if s is None else f"{s['mean']:.3f}+-{s['two_sd']:.3f}"

    def pcell(p):
        return "---" if p is None else f"{p['learnable']}/{p['total']}"

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
        ms = report["mean_ms"].get(row["model"], {})
        lines.append([
            row["model"], cell(row["auc_types"]), cell(row["auc_partof"]),
            pcell(row["params_types"]), pcell(row["params_partof"]),
            *(f"{ms[task]:.0f}" if task in ms else "---" for task in TASKS),
        ])
    out = aligned(lines)
    if report["paired"]:
        pairs = [["Paired, per seed", "T1 AUC diff (mean+-2SD)", "T2 AUC diff (mean+-2SD)"]]
        pairs += [[p["pair"], cell(p["auc_types"]), cell(p["auc_partof"])] for p in report["paired"]]
        out += [""] + aligned(pairs)
    return "\n".join(out) + "\n"
