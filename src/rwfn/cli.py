"""Command-line surface: gen-synth, train, eval, compare, ablate (compare
over the branch-ablation variants, one repeat), verify, params. JSON
artifacts are deterministic under --seed; wall-clock timings live only in
the run manifest and the .txt table, so repeated runs stay byte-identical.
eval checks a model bundle's fields first.

Exit codes: 0 success, 1 runtime or check failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import reprlib
import resource
import sys
import time
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from . import __version__
from .data import DatasetError, SyntheticConfig, gen_synthetic, load_dataset, save_dataset, split
from .evaluation import (ABLATION_MODELS, COMPARE_MODELS, check_models, compare, render_table, run_partof, run_types,
                         task_auc, unscored_classes)
from .numerics import make_rng
from .predicates import count_params, model_from_spec, model_to_spec
from .tasks import DEFAULT_B_PARTOF, DEFAULT_B_TYPES, DEFAULT_K
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
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux, bytes on macOS
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpu_count": os.cpu_count(),
        "peak_rss_mb": peak / (2**20 if sys.platform == "darwin" else 2**10),
    }


def _write_manifest(args: argparse.Namespace, t0: float, artifacts: dict, seeds: dict,
                    extra: dict | None = None) -> None:
    """The run manifest of the command args ran, started at perf_counter()
    t0, next to its output: <output>.manifest.json. Each artifact's sha256
    sits beside its path, so runs can be compared byte for byte by digest."""
    for p in artifacts.values():
        if not Path(p).exists():
            raise CliError(f"expected artifact {p} missing")
    manifest = {
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "seeds": seeds,
        "artifacts": {k: str(v) for k, v in artifacts.items()},
        "artifact_sha256": {k: hashlib.sha256(Path(v).read_bytes()).hexdigest() for k, v in artifacts.items()},
        "tool_version": __version__,
        "wall_ms": (time.perf_counter() - t0) * 1000.0,
        "environment": _environment(),
        **(extra or {}),
    }
    _dump_json(manifest, Path(args.output + ".manifest.json"))


def _config(cls, args: argparse.Namespace):
    """The config dataclass cls with the fields that args holds a flag for
    (each flag's dest is its field's name); the others keep their defaults."""
    given = vars(args)
    return cls(**{f.name: given[f.name] for f in fields(cls) if f.name in given})


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_synth(args) -> int:
    t0 = time.perf_counter()
    ds = gen_synthetic(_config(SyntheticConfig, args))
    out = Path(args.output)
    save_dataset(ds, out)
    _write_manifest(args, t0, {"dataset": out}, {"seed": args.seed})
    print(f"wrote {out}: {len(ds.records)} boxes, {len(ds.pairs)} pairs, n={ds.n}")
    return 0


def cmd_train(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    split_seed = int(make_rng(args.seed).integers(0, 2**31 - 1))
    sp = split(ds, args.split_ratio, make_rng(split_seed))
    cfg = _config(TrainConfig, args)

    if args.task == "types":
        res = run_types(args.model, sp.train, sp.test, cfg, args.shared_encoder, b=args.b or DEFAULT_B_TYPES,
                        k=args.k)
    else:
        res = run_partof(args.model, sp.train, sp.test, cfg, b=args.b or DEFAULT_B_PARTOF, k=args.k)

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
        "predicates": {name: model_to_spec(m) for name, m in res.models.items()},
    }
    _dump_json(bundle, out)
    trace_path = out.with_suffix(out.suffix + ".trace.json")
    _dump_json({name: tr.to_json() for name, tr in res.traces.items()}, trace_path)
    artifacts = {"model": out, "trace": trace_path}
    extra = {"plans": {name: tr.plan for name, tr in res.traces.items()},
             "final_sat": {name: tr.final_sat() for name, tr in res.traces.items()}}
    lockstep = next(iter(res.traces.values())).lockstep
    if lockstep is not None:
        extra["lockstep"] = lockstep  # the one plan all classes trained on
    if args.task == "types":
        extra["unscored_classes"] = unscored_classes(res.models, sp.test)
    _write_manifest(args, t0, artifacts, {"seed": args.seed, "split_seed": split_seed}, extra)
    pc = res.params
    print(f"wrote {out}: {args.model}/{args.task}, test AUC {res.auc:.3f}, "
          f"params {pc.learnable}/{pc.total} learnable/total")
    return 0


BUNDLE_CHECKS = (  # field, test, what it must be
    ("format_version", lambda v: v == 1, "1"),
    ("task", lambda v: v in ("types", "partof"), "'types' or 'partof'"),
    ("kind", lambda v: v in ("rwfn", "ltn"), "'rwfn' or 'ltn'"),
    ("n", lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "an int >= 1"),
    ("split_ratio", lambda v: isinstance(v, float) and 0.0 < v < 1.0, "a float in (0, 1)"),
    ("split_seed", lambda v: isinstance(v, int) and not isinstance(v, bool), "an int"),
    ("split_seed", lambda v: v >= 0, ">= 0"),
    ("predicates", lambda v: isinstance(v, dict) and v and all(isinstance(s, dict) for s in v.values()),
     "a non-empty object of objects"),
)


def _load_bundle(path) -> dict:
    """The model bundle at path; CliError names its first malformed field."""
    with open(path) as fh:
        bundle = json.load(fh)
    if not isinstance(bundle, dict):
        raise CliError(f"model bundle {path}: top level must be an object, got {type(bundle).__name__}")
    for name, ok, want in BUNDLE_CHECKS:
        if not ok(bundle.get(name)):
            raise CliError(f"model bundle {path}: {name!r} must be {want}, got {reprlib.repr(bundle.get(name))}")
    if bundle["task"] == "partof" and "partOf" not in bundle["predicates"]:
        raise CliError(f"model bundle {path}: 'predicates' must hold 'partOf' for task 'partof'")
    return bundle


def cmd_eval(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    bundle = _load_bundle(args.model)
    if bundle["n"] != ds.n:
        raise CliError(f"model bundle {args.model} takes n={bundle['n']} features per box, "
                       f"but dataset {args.data} has n={ds.n}")
    classes = sorted(c.name for c in ds.classes)
    if bundle["task"] == "types" and sorted(bundle["predicates"]) != classes:
        raise CliError(f"model bundle {args.model} grounds classes {sorted(bundle['predicates'])}, "
                       f"but dataset {args.data} has classes {classes}")
    test = split(ds, bundle["split_ratio"], make_rng(bundle["split_seed"])).test
    if any(not r.labels for r in test.records):
        raise CliError("test split contains unlabeled records; cannot evaluate")

    models = {name: model_from_spec(spec, name=name) for name, spec in bundle["predicates"].items()}
    auc, per_class = task_auc(bundle["task"], models, test)
    pc = count_params(next(iter(models.values())))
    report = {"task": bundle["task"], "auc": auc, "params": {"total": pc.total, "learnable": pc.learnable},
              "model_kind": bundle["kind"], "split_seed": bundle["split_seed"]}
    if per_class is not None:
        report.update({"auc_mode": "macro", "per_class": per_class})
    out = Path(args.output)
    _dump_json(report, out)
    _write_manifest(args, t0, {"report": out}, {"split_seed": bundle["split_seed"]},
                    {"unscored_classes": unscored_classes(models, test)} if per_class is not None else None)
    print(f"wrote {out}: task {report['task']}, AUC {report['auc']:.3f}")
    return 0


def cmd_compare(args) -> int:
    t0 = time.perf_counter()
    ds = load_dataset(args.data)
    cfg = _config(TrainConfig, args)
    report = compare(ds, models=args.models, repeats=args.repeats, cfg=cfg,
                     b_types=args.b_types, b_partof=args.b_partof, k=args.k,
                     ratio=args.split_ratio)
    table = render_table(report)
    # wall-clock and training readings go to the manifest, so the report stays byte-identical
    readings = {key: report.pop(key) for key in ("mean_ms", "final_sat")}
    out = Path(args.output)
    _dump_json(report, out)
    table_path = out.with_suffix(".txt")
    table_path.write_text(table)
    _write_manifest(args, t0, {"report": out, "table": table_path}, {"seed": args.seed}, readings)
    print(table, end="")
    return 0


def cmd_verify(args) -> int:
    report = run_verification(kernel_widths=args.kernel_widths, gradcheck_trials=args.gradcheck_trials)
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
                                      fan_in=min(EncoderConfig.fan_in, args.n - 1), seed=0))
    rw = count_params(RwfnPredicate.create(enc))
    print(f"ltn  (n={args.n}, k={args.k}): total={ltn.total} learnable={ltn.learnable}")
    print(f"rwfn (n={args.n}, B={args.b}): total={rw.total} learnable={rw.learnable}")
    print(f"learnable ratio rwfn:ltn = {rw.learnable}:{ltn.learnable}")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing


def int_at_least(least: int, why: str = ""):
    """An argparse type: an int >= least, why giving the bound's reason."""
    def parse(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}{why}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value"
    return parse


positive_int = int_at_least(1)
non_negative_int = int_at_least(0)
input_width = int_at_least(2, " for a gate of fan-in 1 <= fan_in < n")


def width_list(text: str) -> tuple:
    return tuple(positive_int(w) for w in text.split(","))


def model_list(text: str) -> tuple:
    try:
        return check_models(text.split(","))
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def open_unit_float(text: str) -> float:
    value = float(text)
    if not 0.0 < value < 1.0:
        raise argparse.ArgumentTypeError(f"must be finite and in (0, 1), got {text}")
    return value


def _add_train_flags(p):
    p.add_argument("--seed", type=non_negative_int, default=TrainConfig.seed)
    p.add_argument("--epochs", type=positive_int, default=TrainConfig.epochs)
    p.add_argument("--lr", dest="learning_rate", type=finite_float, default=TrainConfig.learning_rate)
    p.add_argument("--l2", type=finite_float, default=TrainConfig.l2)
    p.add_argument("--budget", dest="instantiation_budget", type=positive_int,
                   default=TrainConfig.instantiation_budget, help="quantifier instantiation budget")
    p.add_argument("--split-ratio", type=open_unit_float, default=0.8)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="rwfn", description=__doc__)
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-synth", help="generate a synthetic scene dataset")
    p.add_argument("--scenes", dest="num_scenes", type=positive_int, required=True)
    p.add_argument("--wholes", dest="num_whole_classes", type=positive_int,
                   default=SyntheticConfig.num_whole_classes)
    p.add_argument("--parts-per-whole", type=positive_int, default=SyntheticConfig.parts_per_whole)
    p.add_argument("--noise", dest="feature_noise", type=finite_float, default=SyntheticConfig.feature_noise)
    p.add_argument("--jitter", dest="geometry_jitter", type=finite_float, default=SyntheticConfig.geometry_jitter)
    p.add_argument("--neg-ratio", dest="negative_ratio", type=finite_float, default=SyntheticConfig.negative_ratio)
    p.add_argument("--seed", type=non_negative_int, default=SyntheticConfig.seed)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen_synth)

    p = sub.add_parser("train", help="train a model on one task")
    p.add_argument("--model", choices=("rwfn", "ltn"), required=True)
    p.add_argument("--task", choices=("types", "partof"), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--b", type=positive_int, default=None,
                   help=f"hidden width (default {DEFAULT_B_TYPES} types / {DEFAULT_B_PARTOF} partof)")
    p.add_argument("--shared-encoder", action="store_true")
    p.add_argument("--k", type=positive_int, default=None, help=f"NTN slices (default {DEFAULT_K})")
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
    p.add_argument("--models", type=model_list, default=",".join(COMPARE_MODELS))
    p.add_argument("--repeats", type=positive_int, default=5)
    p.add_argument("--b-types", type=positive_int, default=DEFAULT_B_TYPES)
    p.add_argument("--b-partof", type=positive_int, default=DEFAULT_B_PARTOF)
    p.add_argument("--k", type=positive_int, default=DEFAULT_K)
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("ablate", help=f"branch-contribution ablation: compare over {','.join(ABLATION_MODELS)}")
    p.add_argument("--data", required=True)
    p.add_argument("--b-types", type=positive_int, default=DEFAULT_B_TYPES)
    p.add_argument("--b-partof", type=positive_int, default=DEFAULT_B_PARTOF)
    _add_train_flags(p)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_compare, models=ABLATION_MODELS, repeats=1, k=DEFAULT_K)

    p = sub.add_parser("verify", help="kernel, gradient, and parameter-count self-checks")
    p.add_argument("--kernel-widths", type=width_list, default="100,1000,10000")
    p.add_argument("--gradcheck-trials", type=positive_int, default=20)
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("params", help="parameter-count table")
    p.add_argument("--n", type=input_width, default=64)
    p.add_argument("--b", type=positive_int, default=DEFAULT_B_TYPES)
    p.add_argument("--k", type=positive_int, default=DEFAULT_K)
    p.set_defaults(func=cmd_params)

    return ap


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "shared_encoder", False) and (args.model, args.task) != ("rwfn", "types"):
        # only per-class rwfn classifiers have a frozen encoder to share
        parser.error(f"--shared-encoder applies to --model rwfn --task types, not --model {args.model} "
                     f"--task {args.task}")
    if args.func is cmd_train:
        for flag, model in (("b", "ltn"), ("k", "rwfn")):  # each width belongs to one model family
            if args.model == model and getattr(args, flag) is not None:
                parser.error(f"--{flag} does not apply to --model {model}")
        args.k = DEFAULT_K if args.k is None else args.k
    if args.func is cmd_compare and Path(args.output).suffix == ".txt":
        parser.error(f"{args.command} would write its report to {args.output} and its table to "
                     f"{Path(args.output).with_suffix('.txt')}, the same file; give -o another suffix")
    try:
        return args.func(args)
    except (CliError, DatasetError, TrainingError, ValueError, OSError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
