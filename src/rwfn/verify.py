"""Self-checks bundling the package's numerical oracles: Gaussian-kernel
approximation quality, finite-difference gradient checks for both predicate
families, and the parameter counts at reference configurations.
"""

from __future__ import annotations

import numpy as np

from .encoder import EncoderConfig, build_encoder, kernel_estimate
from .numerics import make_rng
from .predicates import RwfnPredicate, count_params, init_ntn, stack


def gaussian_kernel(x: np.ndarray, y: np.ndarray) -> float:
    d = x - y
    return float(np.exp(-0.5 * d @ d))


def kernel_error_study(widths) -> dict:
    """Mean |z(x).z(y) - k(x,y)| over 100 fixed random pairs in [0,1]^8, per
    hidden width, averaged over encoder seeds 0-9."""
    rng = make_rng(1234)
    xs = rng.random((100, 8))
    ys = rng.random((100, 8))
    truth = np.array([gaussian_kernel(x, y) for x, y in zip(xs, ys)])
    out = {}
    for b in widths:
        errs = []
        for seed in range(10):
            enc = build_encoder(EncoderConfig(input_dim=8, hidden_width=b, fan_in=7, seed=seed))
            est = np.array([kernel_estimate(enc, x, y) for x, y in zip(xs, ys)])
            errs.append(np.abs(est - truth).mean())
        out[b] = float(np.mean(errs))
    return out


def _rel_err(analytic: np.ndarray, numeric: np.ndarray) -> float:
    na = np.linalg.norm(analytic.ravel())
    nn = np.linalg.norm(numeric.ravel())
    return float(np.linalg.norm((analytic - numeric).ravel()) / max(nn, na, 1e-12))


def _gradient_error(model, x: np.ndarray, upstream: np.ndarray, forward_rows: np.ndarray | None = None) -> float:
    """Max relative error, over the model's parameters, of gradient_batch on
    model.lift(x) against central differences, of step 1e-5, of
    sum(upstream * forward_batch) on forward_rows, by default the same
    lifted rows."""
    step = 1e-5
    lifted = model.lift(x)
    forward_rows = lifted if forward_rows is None else forward_rows
    analytic = model.gradient_batch(lifted, upstream, model.forward_batch(lifted)[1])
    worst = 0.0
    for pname, arr in model.learnable_params().items():
        numeric = np.empty_like(arr)
        flat, nflat = arr.ravel(), numeric.ravel()
        for i in range(flat.size):
            saved = flat[i]
            flat[i] = saved + step
            hi = model.forward_batch(forward_rows)[0]
            flat[i] = saved - step
            lo = model.forward_batch(forward_rows)[0]
            flat[i] = saved
            nflat[i] = np.sum(upstream * (hi - lo)) / (2 * step)
        worst = max(worst, _rel_err(analytic[pname], numeric))
    return worst


def gradcheck_rwfn(trials: int) -> float:
    """Max relative error of the decoder gradient vs central differences,
    at input_dim 8 and hidden width 16."""
    rng = make_rng(7)
    worst = 0.0
    for t in range(trials):
        enc = build_encoder(EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=7 + t))
        model = RwfnPredicate(encoder=enc, beta=rng.standard_normal(32))
        v = rng.random((1, 8))
        worst = max(worst, _gradient_error(model, v, np.array([rng.normal()])))
    return worst


def gradcheck_ntn(trials: int) -> float:
    """Max relative error of u/W/V/b gradients vs central differences, at
    input_dim 8 and k=3 slices."""
    rng = make_rng(11)
    worst = 0.0
    for t in range(trials):
        model = init_ntn(3, 8, make_rng(111 + t))
        v = rng.random((1, 8))
        worst = max(worst, _gradient_error(model, v, np.array([rng.normal()])))
    return worst


def gradcheck_stacked_ntn(trials: int) -> float:
    """Max relative error of the u/W/V/b gradients of a stack of 12 heads
    of k=2 slices at input_dim 4, computed on 5 rows as a ground plan keeps
    them (lifted: 15 < 24 * 4), vs central differences of its forward on
    the plain rows."""
    rng = make_rng(13)
    worst = 0.0
    for t in range(trials):
        model, _ = stack([init_ntn(2, 4, make_rng(13 + 100 * t + j)) for j in range(12)])
        x = rng.random((5, 4))
        upstream = rng.standard_normal((5, 12))
        worst = max(worst, _gradient_error(model, x, upstream, forward_rows=x))
    return worst


def _rwfn(n: int, b: int) -> RwfnPredicate:
    return RwfnPredicate.create(build_encoder(EncoderConfig(input_dim=n, hidden_width=b)))


# name, model factory and expected (learnable, total) of each parameter
# count at a reference configuration
PARAM_CHECKS = [
    ("ltn params (n=64, k=6)", lambda: init_ntn(6, 64, make_rng(0)), (24972, 24972)),
    ("rwfn params (n=64, B=200)", lambda: _rwfn(64, 200), (400, 26200)),
    ("rwfn params (n=128, B=400)", lambda: _rwfn(128, 400), (800, 103600)),
]

# name, check and the prefix of its detail text of each gradient check
GRADCHECKS = [
    ("rwfn gradient vs finite differences", gradcheck_rwfn, ""),
    ("ntn gradient vs finite differences", gradcheck_ntn, ""),
    ("stacked ntn gradient vs finite differences", gradcheck_stacked_ntn, "12 heads of k=2 at d=4 on lifted rows, "),
]


def run_verification(kernel_widths, gradcheck_trials: int) -> dict:
    """Run all checks, in order: PARAM_CHECKS, the kernel error study, then
    GRADCHECKS; returns a report with per-check pass flags."""
    report = {"checks": []}

    def check(name: str, passed, detail: str) -> None:
        report["checks"].append({"name": name, "passed": bool(passed), "detail": detail})

    for name, model, expected in PARAM_CHECKS:
        pc = count_params(model())
        check(name, (pc.learnable, pc.total) == expected, f"{pc.learnable}/{pc.total}")

    errs = kernel_error_study(widths=tuple(kernel_widths))
    seq = [errs[b] for b in sorted(errs)]
    report["kernel_errors"] = {str(b): errs[b] for b in errs}
    check("kernel error non-increasing in width", all(a >= b - 1e-12 for a, b in zip(seq, seq[1:])),
          ", ".join(f"B={b}: {errs[b]:.4f}" for b in sorted(errs)))
    if 1000 in errs:
        check("kernel error at B=1000 <= 0.05", errs[1000] <= 0.05, f"{errs[1000]:.4f}")

    for name, gradcheck, prefix in GRADCHECKS:
        err = gradcheck(trials=gradcheck_trials)
        check(name, err < 1e-4, f"{prefix}max rel err {err:.2e}")

    report["passed"] = all(c["passed"] for c in report["checks"])
    return report
