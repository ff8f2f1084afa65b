"""The benchmark's workloads, one iteration of each, and the checks on its outputs.

One iteration does what a researcher reproducing the paper waits for:
generate the dataset from the workload seed, split it, then for each model
ground and train through the public entry points that `rwfn train` and
`rwfn compare` call (`evaluation.run_types` / `evaluation.run_partof`), and
score the test split.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field

from rwfn import data, evaluation, tasks
from rwfn.numerics import make_rng
from rwfn.training import TrainConfig


@dataclass(frozen=True)
class Workload:
    task: str            # "types" | "partof"
    models: tuple
    scenes: int
    whole_classes: int
    noise: float
    epochs: int
    budget: int
    neg_ratio: float = 2.0
    split_ratio: float = 0.8


WORKLOADS = {
    # One closed literal per training box: the scalar formula tree and the
    # per-class plans (which re-encode the same records for every class)
    # dominate; predicate math and quantifier templates are bypassed.
    "types": Workload("types", ("ltn", "rwfn", "rwfn-shared"), 150, 4, 0.15, 200, 1000),
    # The configuration README and the acceptance tests run: vectorized
    # quantifier templates and predicate forward/backward dominate. Not in
    # BENCHMARK.json: gating it too would cut runs to 35 s, and at 35 s its
    # fits spread by up to 11% over ten seeds; partof-hard covers its layers.
    "partof": Workload("partof", ("ltn", "rwfn"), 150, 4, 0.15, 200, 1000),
    # A large plan and few epochs: set-up is a big share of each fit, the
    # hidden-feature cache dominates memory, and the models separate in AUC.
    # The even split keeps ~25% of the pairs for testing (pairs whose ends
    # land in different splits are dropped), so AUC varies less by seed.
    "partof-hard": Workload("partof", ("ltn", "rwfn"), 250, 6, 0.35, 40, 4000, split_ratio=0.5),
}


@dataclass
class Fit:
    """One model's grounding, training and test scoring in one iteration."""

    model: str
    start: float = math.nan  # perf_counter stamps of the whole call
    end: float = math.nan
    fit_s: float = math.nan
    epoch_ms: list = field(default_factory=list)
    auc: float = math.nan
    checksum: str = ""
    problem: str | None = None

    @property
    def train_s(self) -> float:
        return sum(self.epoch_ms) / 1000.0

    @property
    def setup_s(self) -> float:
        return self.fit_s - self.train_s


@dataclass
class Iteration:
    start: float  # perf_counter stamps: begin, after the split, after the last fit
    prepared: float
    end: float
    ir_auc: float
    fits: list

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    def good_fits(self) -> list:
        return [f for f in self.fits if f.problem is None]


def params_checksum(models: dict) -> str:
    """sha256 over every learned parameter array, in a fixed order."""
    h = hashlib.sha256()
    for name in sorted(models):
        params = models[name].learnable_params()
        for pname in sorted(params):
            h.update(f"{name}.{pname}".encode())
            h.update(params[pname].tobytes())
    return h.hexdigest()


def _problem(res) -> str | None:
    for name, tr in res.traces.items():
        if not all(math.isfinite(v) for v in tr.loss + tr.sat):
            return f"non-finite loss or sat in {name}"
    if not (math.isfinite(res.auc) and 0.0 <= res.auc <= 1.0):
        return f"AUC {res.auc} outside [0,1]"
    return None


def _fit(w: Workload, model: str, sp, cfg: TrainConfig, tracer) -> Fit:
    kind = "ltn" if model == "ltn" else "rwfn"
    start = time.perf_counter()
    if tracer is not None:
        tracer.tag = model
    with tracer.span("fit") if tracer is not None else nullcontext():
        try:
            if w.task == "types":
                res = evaluation.run_types(kind, sp.train, sp.test, cfg, shared=model == "rwfn-shared")
            else:
                res = evaluation.run_partof(kind, sp.train, sp.test, cfg)
        except Exception:  # a failing fit is counted, the run goes on
            return Fit(model, start, time.perf_counter(), problem=traceback.format_exc())
    end = time.perf_counter()
    epoch_ms = [ms for tr in res.traces.values() for ms in tr.ms]
    return Fit(model, start, end, fit_s=res.wall_ms / 1000.0, epoch_ms=epoch_ms, auc=res.auc,
               checksum=params_checksum(res.models), problem=_problem(res))


def run_iteration(w: Workload, seed: int, tracer=None) -> Iteration:
    """Generation to test AUC for every model of the workload."""
    t0 = time.perf_counter()
    ds = data.gen_synthetic(data.SyntheticConfig(
        num_scenes=w.scenes, num_whole_classes=w.whole_classes, feature_noise=w.noise,
        negative_ratio=w.neg_ratio, seed=seed))
    sp = data.split(ds, w.split_ratio, make_rng(seed))
    t1 = time.perf_counter()
    cfg = TrainConfig(epochs=w.epochs, instantiation_budget=w.budget, seed=seed)
    fits = [_fit(w, model, sp, cfg, tracer) for model in w.models]
    t2 = time.perf_counter()
    ir_auc = evaluation.pr_auc(*tasks.baseline_ir_scores(sp.test))
    return Iteration(start=t0, prepared=t1, end=t2, ir_auc=ir_auc, fits=fits)


def check_repeats(iters: list) -> None:
    """Mark a fit failed when its AUC or learned parameters differ from the
    same model's fit in the first iteration (same seed, same inputs)."""
    first = {f.model: f for f in iters[0].fits}
    for it in iters[1:]:
        for f in it.fits:
            ref = first[f.model]
            if f.problem is None and ref.problem is None and (f.auc, f.checksum) != (ref.auc, ref.checksum):
                f.problem = "not deterministic: AUC or parameters differ from the first iteration"


def end_to_end(iters: list, gauge, peak_rss_mb: float) -> dict:
    """Speed-normalized times (see speed.py), medians over iterations.

    Each fit's times are scaled by the gauge's mean speed over that fit;
    generation and split by the speed over their own interval. Epoch times
    are the normalized epoch-loop time over the epoch count, pooled over all
    fits of a model."""
    med = statistics.median
    per_iter = []
    for it in iters:
        fits = it.good_fits()
        speed = {id(f): gauge.speed(f.start, f.end) for f in fits}
        prep = gauge.normalized(it.start, it.prepared)
        per_iter.append({
            "setup_s": prep + sum(f.setup_s * speed[id(f)] for f in fits),
            "train_s": sum(f.train_s * speed[id(f)] for f in fits),
            "wall_s": gauge.normalized(it.start, it.end),
            "fits": [(f, f.fit_s * speed[id(f)], f.train_s * speed[id(f)]) for f in fits],
        })
    out = {name: med(r[name] for r in per_iter) for name in ("setup_s", "train_s", "wall_s")}
    for m in [f.model for f in iters[0].fits]:
        fits = [x for r in per_iter for x in r["fits"] if x[0].model == m]
        if fits:
            epochs = sum(len(f.epoch_ms) for f, _, _ in fits)
            out[f"fit_s.{m}"] = med(fit for _, fit, _ in fits)
            out[f"epoch_ms.{m}"] = 1000.0 * sum(train for _, _, train in fits) / epochs
            out[f"auc.{m}"] = fits[0][0].auc
    out["peak_rss_mb"] = peak_rss_mb
    return out


def raw_times(iters: list) -> dict:
    """Wall-clock medians, not normalized, for reference."""
    med = statistics.median
    out = {"wall_s": med(it.wall_s for it in iters)}
    for m in [f.model for f in iters[0].fits]:
        fits = [f for it in iters for f in it.good_fits() if f.model == m]
        if fits:
            out[f"fit_s.{m}"] = med(f.fit_s for f in fits)
    return out
