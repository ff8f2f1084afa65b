"""Acceptance gate: one test per criterion, named so the verbose pytest
output gives a per-criterion pass/fail line. The heavyweight comparison run
(criteria 6 and 7) is shared through a module-scoped fixture.
"""

import itertools
import json

import numpy as np
import pytest

from rwfn.cli import main as cli_main
from rwfn.data import SyntheticConfig, gen_synthetic
from rwfn.encoder import EncoderConfig, build_encoder
from rwfn.evaluation import ABLATION_MODELS, COMPARE_MODELS, compare, pr_auc
from rwfn.logic import Atom, GroundedTheory, GroundPlan, KnowledgeBase, Not, parse_kb
from rwfn.numerics import make_rng
from rwfn.predicates import LabelPredicate, RwfnPredicate, count_params, init_ntn
from rwfn.tasks import DEFAULT_B_PARTOF, DEFAULT_B_TYPES, DEFAULT_K, make_rwfn_classifier
from rwfn.training import SharedEncoderRegistry, TrainConfig, train
from rwfn.verify import gradcheck_ntn, gradcheck_rwfn, kernel_error_study

from oracles import formula_values, luk_and, luk_implies, luk_not, luk_or, stored_floats


def announce(n: int, detail: str) -> None:
    print(f"criterion {n}: PASS - {detail}")


@pytest.fixture(scope="module")
def sii_dataset():
    ds = gen_synthetic(SyntheticConfig(num_scenes=150, feature_noise=0.15,
                                       negative_ratio=2.0, seed=3))
    assert len(ds.records) >= 300
    assert len(ds.pairs) >= 400
    return ds


@pytest.fixture(scope="module")
def comparison(sii_dataset):
    cfg = TrainConfig(epochs=200, seed=0, instantiation_budget=1000)
    return compare(sii_dataset, repeats=5, ratio=0.8, models=COMPARE_MODELS, cfg=cfg, b_types=DEFAULT_B_TYPES,
                   b_partof=DEFAULT_B_PARTOF, k=DEFAULT_K)


def row(report, name):
    return next(r for r in report["rows"] if r["model"] == name)


def test_criterion_01_parameter_counts():
    ltn = count_params(init_ntn(6, 64, make_rng(0)))
    assert ltn.total == 24972 and ltn.learnable == 24972
    enc = build_encoder(EncoderConfig(input_dim=64, hidden_width=200, fan_in=7, seed=0))
    rw = count_params(RwfnPredicate.create(enc))
    assert rw.total == 26200 and rw.learnable == 400
    assert (rw.learnable, ltn.learnable) == (400, 24972)
    announce(1, f"ltn 24972/24972, rwfn {rw.learnable}/{rw.total}, ratio 400:24972")


def test_criterion_02_kernel_approximation():
    errs = kernel_error_study(widths=(100, 1000, 10000))
    assert errs[1000] <= 0.05
    seq = [errs[100], errs[1000], errs[10000]]
    assert seq[0] >= seq[1] >= seq[2]
    announce(2, "mean kernel error " + ", ".join(f"B={b}: {errs[b]:.4f}" for b in (100, 1000, 10000)))


def test_criterion_03_gradient_correctness():
    r1 = gradcheck_rwfn(trials=20)
    r2 = gradcheck_ntn(trials=20)
    assert r1 < 1e-4 and r2 < 1e-4
    announce(3, f"max rel err rwfn {r1:.2e}, ntn {r2:.2e}")


def test_criterion_04_fuzzy_logic_axioms():
    rng = make_rng(0)
    a = rng.random(10_000)
    b = rng.random(10_000)
    tol = 1e-12
    for x, y in zip(a, b):
        assert abs(luk_and(x, y) - luk_and(y, x)) <= tol
        assert abs(luk_or(x, y) - luk_or(y, x)) <= tol
        assert abs(luk_not(luk_not(x)) - x) <= tol
        assert abs(luk_implies(x, y) - luk_or(luk_not(x), y)) <= tol
        assert abs(luk_and(x, 1.0) - x) <= tol
        assert abs(luk_or(x, 0.0) - x) <= tol
        assert abs(luk_and(x, 0.0)) <= tol
        assert abs(luk_or(x, 1.0) - 1.0) <= tol
        lo, hi = min(x, y), max(x, y)
        assert luk_and(0.5, lo) <= luk_and(0.5, hi) + tol
        assert luk_or(0.5, lo) <= luk_or(0.5, hi) + tol
    # the array connectives a ground plan runs, on the same pairs, against
    # the scalar ones: A(c_i) = a_i and B(c_i) = b_i
    ids = [f"c{i}" for i in range(len(a))]
    text = "pred A/1\npred B/1\n" + "".join(
        f"A({c}) & B({c})\nA({c}) | B({c})\nA({c}) -> B({c})\n~A({c})\n" for c in ids)
    gt = GroundedTheory(kb=parse_kb(text), constants={c: np.zeros(1) for c in ids},
                        predicates={"A": LabelPredicate(dict(zip([(c,) for c in ids], a))),
                                    "B": LabelPredicate(dict(zip([(c,) for c in ids], b)))})
    values = formula_values(GroundPlan(gt, 1, make_rng(0))).reshape(len(a), 4)
    expected = np.array([(luk_and(x, y), luk_or(x, y), luk_implies(x, y), luk_not(x)) for x, y in zip(a, b)])
    assert np.abs(values - expected).max() <= tol
    announce(4, "10^4 random (a,b): commutativity, monotonicity, boundaries, "
                "double negation, implies = or(not, .) all within 1e-12; "
                "the plan's and/or/implies/not match the scalar ops within 1e-12")


def _literal_theory(model, spec, input_dim):
    kb = KnowledgeBase(signatures={"P": 1})
    constants = {}
    for i, positive in enumerate(spec):
        cid = f"c{i}"
        constants[cid] = make_rng(900 + i).random(input_dim)
        atom = Atom("P", (cid,))
        kb.formulas.append(atom if positive else Not(atom))
    return GroundedTheory(kb=kb, constants=constants, predicates={"P": model})


def test_criterion_05_frozen_encoder_and_sharing():
    cfg = EncoderConfig(input_dim=8, hidden_width=16, fan_in=3, seed=5)
    spec = [True, False, True, True]
    tc = TrainConfig(epochs=40, seed=2)

    # encoder blocks bit-identical before/after training
    reg = SharedEncoderRegistry()
    shared_enc = reg.get_or_build(cfg)
    gate0, fourier0, phase0 = (shared_enc.gate.copy(), shared_enc.fourier.copy(),
                               shared_enc.phase.copy())
    shared_model = RwfnPredicate.create(reg.get_or_build(cfg))
    train(_literal_theory(shared_model, spec, 8), tc)
    assert np.array_equal(shared_enc.gate, gate0)
    assert np.array_equal(shared_enc.fourier, fourier0)
    assert np.array_equal(shared_enc.phase, phase0)

    # shared-encoder training bit-identical to private-encoder training
    private_model = RwfnPredicate.create(build_encoder(cfg))
    train(_literal_theory(private_model, spec, 8), tc)
    assert np.array_equal(shared_model.beta, private_model.beta)

    # stored-float accounting, over the arrays real classifiers keep
    n, b = 64, 200
    for i in (1, 5, 11):
        reg = SharedEncoderRegistry()
        shared = [make_rwfn_classifier(n, b, seed=0, mode="full", registry=reg) for _ in range(i)]
        private = [make_rwfn_classifier(n, b, seed=j, mode="full", registry=None) for j in range(i)]
        assert stored_floats(shared) == 2 * n * b + b + 2 * b * i
        assert stored_floats(private) == (2 * n + 3) * b * i
    announce(5, "encoder frozen through training; shared == private bit-exact; "
                "float accounting matches 2nB+B+2Bi vs (2n+3)Bi for i in {1,5,11}")


def test_criterion_06_synthetic_relative_performance(comparison):
    rwfn, ltn, ir = (row(comparison, "rwfn"), row(comparison, "ltn"),
                     row(comparison, "ir-baseline"))
    margin = rwfn["auc_partof"]["mean"] - ir["auc_partof"]["mean"]
    assert margin >= 0.03
    assert rwfn["auc_types"]["mean"] >= 0.9
    assert rwfn["auc_types"]["mean"] >= ltn["auc_types"]["mean"] - 0.05
    assert rwfn["auc_partof"]["mean"] >= ltn["auc_partof"]["mean"] - 0.05
    announce(6, f"partOf margin over ir-baseline {margin:.3f} (>= 0.03); "
                f"types macro-AUC {rwfn['auc_types']['mean']:.3f} (>= 0.9); "
                f"parity with ltn on both tasks")


def test_criterion_07_runtime_ordering(comparison):
    rwfn, ltn = comparison["mean_ms"]["rwfn"], comparison["mean_ms"]["ltn"]
    rw_ms = rwfn["types"] + rwfn["partof"]
    ltn_ms = ltn["types"] + ltn["partof"]
    ratio = rw_ms / ltn_ms
    assert ratio <= 0.75
    announce(7, f"rwfn/ltn mean wall-time ratio {ratio:.2f} (<= 0.75)")


def test_criterion_08_ablation_protocol(sii_dataset):
    cfg = TrainConfig(epochs=100, seed=0, instantiation_budget=500)
    report = compare(sii_dataset, repeats=1, ratio=0.8, models=ABLATION_MODELS, cfg=cfg, b_types=200, b_partof=400,
                     k=DEFAULT_K)
    assert [r["model"] for r in report["rows"]] == ["rwfn-albm", "rwfn-rff", "rwfn", "ir-baseline"]
    by = {r["model"]: r for r in report["rows"]}
    assert by["rwfn"]["params_types"]["learnable"] == 400 and by["rwfn"]["params_partof"]["learnable"] == 800
    for name in ("rwfn-albm", "rwfn-rff"):
        assert by[name]["params_types"]["learnable"] == 200 and by[name]["params_partof"]["learnable"] == 400
    for task in ("auc_types", "auc_partof"):
        floor = min(by["rwfn-albm"][task]["mean"], by["rwfn-rff"][task]["mean"]) - 0.02
        assert by["rwfn"][task]["mean"] >= floor
    announce(8, "3 variants; decoder lengths 2B/B; full AUC >= min(branch AUCs) - 0.02; "
                + ", ".join(f"{m}: T1 {by[m]['auc_types']['mean']:.3f} T2 {by[m]['auc_partof']['mean']:.3f}"
                            for m in ABLATION_MODELS))


def _oracle_auc(scores, labels):
    """Independent threshold-enumeration oracle for PR-AUC."""
    points = []
    for th in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s < th and y == 1)
        points.append((tp / (tp + fn), tp / (tp + fp)))
    area, r0, p0 = 0.0, 0.0, points[0][1]
    for r, p in points:
        area += (r - r0) * (p + p0) / 2.0
        r0, p0 = r, p
    return area


def test_criterion_09_evaluation_oracle_equivalence():
    grid = (0.2, 0.5, 0.8)
    checked = 0
    for n in range(2, 6):
        for scores in itertools.product(grid, repeat=n):
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) in (0, n):
                    continue
                got = pr_auc(list(scores), list(labels))
                want = _oracle_auc(scores, labels)
                assert got == pytest.approx(want, abs=1e-12)
                checked += 1
    rng = make_rng(17)
    for _ in range(300):
        n = int(rng.integers(6, 9))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        assert pr_auc(scores, labels) == pytest.approx(_oracle_auc(scores, labels), abs=1e-12)
        checked += 1
    announce(9, f"pr_curve/auc match brute-force enumeration on {checked} score/label sets")


def test_criterion_10_end_to_end_determinism(tmp_path):
    artifacts = {}
    for tag in ("x", "y"):
        d = tmp_path / tag
        d.mkdir()
        ds, model, rep = d / "ds.json", d / "model.json", d / "report.json"
        assert cli_main(["gen-synth", "--scenes", "40", "--wholes", "2",
                         "--neg-ratio", "1.5", "--seed", "9", "-o", str(ds)]) == 0
        assert cli_main(["train", "--model", "rwfn", "--task", "partof",
                         "--data", str(ds), "--b", "16", "--epochs", "20",
                         "--budget", "300", "--seed", "4", "-o", str(model)]) == 0
        assert cli_main(["eval", "--model", str(model), "--data", str(ds),
                         "-o", str(rep)]) == 0
        artifacts[tag] = (ds.read_bytes(), model.read_bytes(),
                          (d / "model.json.trace.json").read_bytes(), rep.read_bytes())
    assert artifacts["x"] == artifacts["y"]
    for payload in artifacts["x"]:
        json.loads(payload)  # every artifact is valid JSON
    announce(10, "gen-synth, train, eval reruns byte-identical (dataset, model, trace, report)")
