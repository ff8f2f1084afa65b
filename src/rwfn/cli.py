"""Command-line surface: gen-synth, train, eval, compare, ablate, verify,
params. JSON artifacts are deterministic under --seed; wall-clock timings
live only in the run manifest so repeated runs stay byte-identical.

Exit codes: 0 success, 1 runtime or check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .data import DatasetError, SyntheticConfig, gen_synthetic, load_dataset, save_dataset, split
from .evaluation import compare, macro_auc, pr_auc, render_table, run_ablation, run_partof, run_types
from .numerics import make_rng
from .predicates import count_params, model_from_spec, model_to_spec
from .tasks import DEFAULT_B_PARTOF, DEFAULT_B_TYPES, DEFAULT_K, partof_scores, type_scores
from .training import TrainConfig, TrainingError
from .verify import run_verification


class CliError(RuntimeError):
    pass


def _dump_json(obj, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _environment() -> dict:
    """What the run ran on, for manifests only: artifacts stay byte-identical."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 prints its config only
        blas = {}
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "peak_rss_mb": peak / (2**20 if sys.platform == "darwin" else 2**10),
    }


def _write_manifest(path: Path, command: str, args: argparse.Namespace,
                    artifacts: dict, wall_ms: float, seeds: dict, extra: dict | None = None) -> None:
    manifest = {
        "command": command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seeds": seeds,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "tool_version": __version__,
        "wall_ms": wall_ms,
        "environment": _environment(),
        **(extra or {}),
    }
    for p in artifacts.values():
        if not Path(p).exists():
            raise CliError(f"expected artifact {p} missing")
    _dump_json(manifest, path)


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        epochs=args.epochs, l2=args.l2, learning_rate=args.lr,
        instantiation_budget=args.budget, seed=args.seed,
    )


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_synth(args) -> int:
    t0 = time.perf_counter()
    cfg = SyntheticConfig(
        num_scenes=args.scenes, num_whole_classes=args.wholes,
        parts_per_whole=args.parts_per_whole, feature_noise=args.noise,
        geometry_jitter=args.jitter, negative_ratio=args.neg_ratio, seed=args.seed,
    )
    ds = gen_synthetic(cfg)
    out = Path(args.output)
    save_dataset(ds, out)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "gen-synth", args,
                    {"dataset": out}, (time.perf_counter() - t0) * 1000.0, {"seed": args.seed})
    print(f"wrote {out}: {len(ds.records)} boxes, {len(ds.pairs)} pairs, n={ds.n}")
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    split_seed = int(make_rng(args.seed).integers(0, 2**31 - 1))
    sp = split(ds, args.split_ratio, make_rng(split_seed))
    cfg = _train_config(args)

    if args.task == "types":
        b = args.b if args.b is not None else DEFAULT_B_TYPES
        res = run_types(args.model, sp.train, sp.test, cfg, b=b, k=args.k, shared=args.shared_encoder)
        model_specs = {cname: model_to_spec(m) for cname, m in res.models.items()}
    else:
        b = args.b if args.b is not None else DEFAULT_B_PARTOF
        res = run_partof(args.model, sp.train, sp.test, cfg, b=b, k=args.k)
        model_specs = {"partOf": model_to_spec(res.models["partOf"])}

    out = Path(args.output)
    bundle = {
        "format_version": 1,
        "kind": args.model,
        "task": args.task,
        "n": ds.n,
        "split_seed": split_seed,
        "split_ratio": args.split_ratio,
        "shared_encoder": bool(args.shared_encoder),
        "train_config": asdict(cfg),
        "predicates": model_specs,
    }
    _dump_json(bundle, out)
    trace_path = out.with_suffix(out.suffix + ".trace.json")
    _dump_json({name: tr.to_json() for name, tr in res.traces.items()}, trace_path)
    artifacts = {"model": out, "trace": trace_path}
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "train", args, artifacts,
                    (time.perf_counter() - t0) * 1000.0,
                    {"seed": args.seed, "split_seed": split_seed},
                    {"plans": {name: tr.plan for name, tr in res.traces.items()}})
    pc = res.params
    print(f"wrote {out}: {args.model}/{args.task}, test AUC {res.auc:.3f}, "
          f"params {pc.learnable}/{pc.total} learnable/total")
    return 0


def _load_bundle(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    bundle = _load_bundle(args.model)
    sp = split(ds, bundle["split_ratio"], make_rng(bundle["split_seed"]))
    test = sp.test
    if any(not r.labels for r in test.records):
        raise CliError("test split contains unlabeled records; cannot evaluate")

    models = {name: model_from_spec(spec, name=name) for name, spec in bundle["predicates"].items()}
    if bundle["task"] == "types":
        macro, per = macro_auc(type_scores(models, test))
        report = {"task": "types", "auc": macro, "auc_mode": "macro", "per_class": per}
    else:
        scores, labels = partof_scores(models["partOf"], test)
        report = {"task": "partof", "auc": pr_auc(scores, labels)}
    any_model = next(iter(models.values()))
    pc = count_params(any_model)
    report.update({"params": {"total": pc.total, "learnable": pc.learnable},
                   "model_kind": bundle["kind"], "split_seed": bundle["split_seed"]})
    out = Path(args.output)
    _dump_json(report, out)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "eval", args,
                    {"report": out}, (time.perf_counter() - t0) * 1000.0,
                    {"split_seed": bundle["split_seed"]})
    print(f"wrote {out}: task {report['task']}, AUC {report['auc']:.3f}")
    return 0


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    cfg = _train_config(args)
    report = compare(ds, models=tuple(args.models.split(",")), repeats=args.repeats, cfg=cfg,
                     b_types=args.b_types, b_partof=args.b_partof, k=args.k,
                     ratio=args.split_ratio)
    out = Path(args.output)
    _dump_json(report, out)
    table_path = out.with_suffix(".txt")
    table = render_table(report)
    table_path.write_text(table)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "compare", args,
                    {"report": out, "table": table_path},
                    (time.perf_counter() - t0) * 1000.0, {"seed": args.seed})
    print(table, end="")
    return 0


def cmd_ablate(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    cfg = _train_config(args)
    rows = run_ablation(ds, cfg, b_types=args.b_types, b_partof=args.b_partof,
                        ratio=args.split_ratio)
    report = {"rows": rows, "seed": args.seed}
    out = Path(args.output)
    _dump_json(report, out)
    _write_manifest(out.with_suffix(out.suffix + ".manifest.json"), "ablate", args,
                    {"report": out}, (time.perf_counter() - t0) * 1000.0, {"seed": args.seed})
    for row in rows:
        print(f"{row['variant']:>5}: T1 AUC {row['auc_types']:.3f}  T2 AUC {row['auc_partof']:.3f}  "
              f"decoder {row['decoder_len_types']}/{row['decoder_len_partof']}")
    return 0


def cmd_verify(args) -> int:
    widths = tuple(int(w) for w in args.kernel_widths.split(","))
    report = run_verification(kernel_widths=widths, gradcheck_trials=args.gradcheck_trials)
    for c in report["checks"]:
        print(f"[{'OK' if c['passed'] else 'FAIL'}] {c['name']}: {c['detail']}")
    if args.output:
        _dump_json(report, Path(args.output))
    return 0 if report["passed"] else 1


def cmd_params(args) -> int:
    from .encoder import EncoderConfig, build_encoder
    from .predicates import RwfnPredicate, init_ntn

    ltn = count_params(init_ntn(args.k, args.n, make_rng(0)))
    enc = build_encoder(EncoderConfig(input_dim=args.n, hidden_width=args.b,
                                      fan_in=min(7, args.n - 1), seed=0))
    rw = count_params(RwfnPredicate.create(enc))
    print(f"ltn  (n={args.n}, k={args.k}): total={ltn.total} learnable={ltn.learnable}")
    print(f"rwfn (n={args.n}, B={args.b}): total={rw.total} learnable={rw.learnable}")
    print(f"learnable ratio rwfn:ltn = {rw.learnable}:{ltn.learnable}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _add_train_flags(p, epochs_default=1000):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--epochs", type=positive_int, default=epochs_default)
    p.add_argument("--lr", type=finite_float, default=0.01)
    p.add_argument("--l2", type=finite_float, default=1e-10)
    p.add_argument("--budget", type=int, default=10_000, help="quantifier instantiation budget")
    p.add_argument("--split-ratio", type=float, default=0.8)
    p.add_argument("--k", type=int, default=DEFAULT_K)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rwfn", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic scene dataset")
    p.add_argument("--scenes", type=positive_int, required=True)
    p.add_argument("--wholes", type=positive_int, default=4)
    p.add_argument("--parts-per-whole", type=positive_int, default=2)
    p.add_argument("--noise", type=float, default=0.1)
    p.add_argument("--jitter", type=float, default=0.02)
    p.add_argument("--neg-ratio", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model on one task")
    p.add_argument("--model", choices=("rwfn", "ltn"), required=True)
    p.add_argument("--task", choices=("types", "partof"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--b", type=int, default=None, help="hidden width (default 200 types / 400 partof)")
    p.add_argument("--shared-encoder", action="store_true")
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model on its test split")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="repeated multi-model comparison")
    p.add_argument("--data", required=True)
    p.add_argument("--models", default="ltn,rwfn,rwfn-shared")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--b-types", type=int, default=DEFAULT_B_TYPES)
    p.add_argument("--b-partof", type=int, default=DEFAULT_B_PARTOF)
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help="branch-contribution ablation")
    p.add_argument("--data", required=True)
    p.add_argument("--b-types", type=int, default=DEFAULT_B_TYPES)
    p.add_argument("--b-partof", type=int, default=DEFAULT_B_PARTOF)
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("verify", help="kernel, gradient, and parameter-count self-checks")
    p.add_argument("--kernel-widths", default="100,1000,10000")
    p.add_argument("--gradcheck-trials", type=int, default=20)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("params", help="parameter-count table")
    p.add_argument("--n", type=int, default=64)
    p.add_argument("--b", type=int, default=200)
    p.add_argument("--k", type=int, default=DEFAULT_K)
    p.set_defaults(func=cmd_params)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, DatasetError, TrainingError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
