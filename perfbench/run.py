"""rwfn benchmark: grounding plus training time, test quality and memory.

Run from the repository root:

    python3 perfbench/run.py --workload types --seed 3 --seconds 60 --trace 0

The workload is generated from --seed (seed 3 is the acceptance dataset),
warmed up once, then repeated with that same seed until --seconds have
passed (at least twice, so every run checks that it is deterministic).
With --trace 0 the run reports the end-to-end metrics, with tracing off.
With --trace 1 it alternates untraced and traced iterations and reports
per-layer self times and exact work counts, plus the tracing overhead.
Times are speed-normalized seconds (see speed.py): wall time scaled by the
machine's speed, measured next to the program, so that other work on a
shared machine does not move them.

Every metric is printed by name with its unit; the last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}. The full
record (environment, every iteration, spans) goes to perfbench/out/.
Exit status: 0 when every check passes, 1 when one fails, 2 on a usage
error or when the rwfn sources are not found next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"

# Pinned for steadiness: BLAS threads moved part-of fits by ~40% on a
# 2-core machine shared with other work.
BLAS_THREADS = 1
WARMUP_EPOCHS = 5
MIN_TRACED = 2  # count repeats are checked between traced iterations

# name -> unit; the gated end-to-end metrics, present on every workload
END_TO_END = {
    "setup_s": "s", "train_s": "s", "wall_s": "s",
    "fit_s.ltn": "s", "fit_s.rwfn": "s",
    "epoch_ms.ltn": "ms", "epoch_ms.rwfn": "ms",
    "auc.ltn": "1", "auc.rwfn": "1",
    "peak_rss_mb": "MB",
}


def per_layer_units(layers) -> dict:
    units = {f"{name}_s": "s" for name in layers.TIMED}
    for name in layers.COUNTED:
        units[name] = ("bytes" if name.endswith("_bytes") else
                       "1/epoch" if "per_epoch" in name else "count")
    units["trace.overhead_s"] = "s"
    return units


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu, "blas": blas_name,
            "blas_threads": BLAS_THREADS, "numpy": np.__version__,
            "python": platform.python_version(), "git_commit": git_commit()}


def measure(workloads, layers, w, seed: int, seconds: float, trace: bool):
    """Untraced iterations, and with `trace` traced ones interleaved
    (P, T, T, P, T, ...), until the next would overrun `seconds`."""
    plain, traced, probes = [], [], []
    start = time.perf_counter()
    longest = 0.0
    while True:
        done = len(plain) + len(traced)
        need = not plain or (trace and len(traced) < MIN_TRACED) or (not trace and done < 2)
        if not need and time.perf_counter() - start + longest > seconds:
            break
        t0 = time.perf_counter()
        if trace and plain and (len(traced) < MIN_TRACED or len(traced) <= len(plain)):
            probe = layers.Probe()
            with layers.instrumented(probe), probe.tracer.span("workload"):
                traced.append(workloads.run_iteration(w, seed, probe.tracer))
            probes.append(probe)
        else:
            plain.append(workloads.run_iteration(w, seed))
        longest = max(longest, time.perf_counter() - t0)
    return plain, traced, probes


def premise(w, probes) -> str:
    """Which layer has the largest epoch-loop self time: `types` should be
    dominated by the formula tree, the part-of ltn fits by predicate math."""
    want, scope = ("logic.sat_grad", "all models") if w.task == "types" else ("predicates", "ltn")
    totals: Counter = Counter()
    for p in probes:
        for tag, by_name in p.epoch_loop_self_times().items():
            if w.task == "types" or tag == "ltn":
                for name, t in by_name.items():
                    totals["predicates" if name.startswith("predicates.") else name] += t
    top = max(totals, key=totals.get)
    shares = ", ".join(f"{k} {t:.3f}s" for k, t in totals.most_common())
    verdict = "met" if top == want else "NOT met"
    return f"premise ({scope}): largest epoch-loop self time is {top}, expected {want}: {verdict} [{shares}]"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "rwfn" / "__init__.py").is_file():
        print(f"error: rwfn sources not found under {src}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(src))
    import layers
    import speed
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    env = environment()  # before pinning, so nproc counts every allowed CPU
    env["pinned_cpu"] = speed.pin_to_one_cpu()
    print("environment:", json.dumps(env))

    with speed.SpeedGauge() as gauge:
        # warm-up at full size but few epochs, excluded from every metric:
        # the first full-size fits of a process ran slower than later ones
        workloads.run_iteration(replace(w, epochs=WARMUP_EPOCHS), args.seed)
        t0 = time.perf_counter()
        plain, traced, probes = measure(workloads, layers, w, args.seed, args.seconds, bool(args.trace))
        elapsed = time.perf_counter() - t0
    iters = plain + traced
    workloads.check_repeats(iters)
    fits = [f for it in iters for f in it.fits]
    failed = [f for f in fits if f.problem is not None]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    e2e = workloads.end_to_end(plain, gauge, peak_rss_mb)
    raw = workloads.raw_times(plain)
    # self times scaled by the traced iteration's mean speed, like e2e times
    layer_runs = []
    for p, it in zip(probes, traced):
        f = gauge.speed(it.start, it.end)
        layer_runs.append({k: v * f if k.endswith("_s") else v for k, v in p.layer_metrics().items()})
    counts_repeat = all(
        all(r[name] == layer_runs[0][name] for name in layers.COUNTED) for r in layer_runs)
    if args.trace:
        units = per_layer_units(layers)
        metrics = {name: statistics.median(r[name] for r in layer_runs) for name in units
                   if name != "trace.overhead_s"}
        metrics["trace.overhead_s"] = (
            statistics.median(gauge.normalized(it.start, it.end) for it in traced)
            - statistics.median(gauge.normalized(it.start, it.end) for it in plain))
    else:
        units = END_TO_END
        metrics = {name: e2e[name] for name in END_TO_END if name in e2e}
    correct = not failed and counts_repeat and metrics.keys() == units.keys()

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} untraced + {len(traced)} traced "
          f"iterations in {elapsed:.1f} s, blas threads {BLAS_THREADS}")
    for name, unit in units.items():
        if name in metrics:
            print(f"  {name:<34} {metrics[name]:>16.6f} {unit}")
    print("  not gated:")
    print(f"  {'failed_frac':<34} {len(failed) / len(fits):>16.6f} 1")
    for name in sorted(set(e2e) - set(END_TO_END)):
        unit = {"fit_s": "s", "epoch_ms": "ms", "auc": "1"}[name.split(".")[0]]
        print(f"  {name:<34} {e2e[name]:>16.6f} {unit}")
    for name, value in raw.items():
        print(f"  {name + ' (wall clock)':<34} {value:>16.6f} s")
    print(f"  {'machine speed (mean)':<34} {statistics.fmean(gauge.speeds):>16.6f} 1")
    if "fit_s.rwfn" in e2e and "fit_s.ltn" in e2e:
        print(f"  {'ratio fit_s.rwfn/fit_s.ltn':<34} {e2e['fit_s.rwfn'] / e2e['fit_s.ltn']:>16.6f} 1")
    print(f"  {'auc.ir-baseline (reference)':<34} {iters[0].ir_auc:>16.6f} 1")
    for f in failed:
        print(f"  FAILED fit {f.model}: {f.problem.strip().splitlines()[-1]}")
    if probes:
        if not counts_repeat:
            print("  FAILED: work counts differ between traced iterations")
        print(f"  quantifiers (instantiations, sampled): {probes[0].quantifiers}")
        print("  " + premise(w, probes))

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": args.workload, "config": asdict(w), "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics, "end_to_end_all": e2e,
        "wall_clock": raw, "speed_samples": [gauge.starts, gauge.speeds],
        "iterations": [{"traced": i >= len(plain), **asdict(it)} for i, it in enumerate(iters)],
        "layer_runs": layer_runs,
        "quantifiers": probes[0].quantifiers if probes else [],
        "spans": [p.tracer.spans for p in probes],
    }
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(f"  record: {out.relative_to(ROOT)}")

    print(json.dumps({"correct": correct, "attempted": len(fits), "failed": len(failed), "metrics": {
        name: {"value": metrics[name], "unit": units[name]} for name in metrics}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
