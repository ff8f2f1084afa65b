import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rwfn.data import SyntheticConfig, gen_synthetic
from rwfn.evaluation import (
    ABLATION_MODELS,
    COMPARE_MODELS,
    VARIANTS,
    PrCurve,
    auc,
    compare,
    macro_auc,
    pr_auc,
    pr_curve,
    render_table,
)
from rwfn.predicates import count_params
from rwfn.tasks import make_classifier
from rwfn.training import TrainConfig


# ---------------------------------------------------------------------------
# Independent brute-force oracle: enumerate every distinct score as a
# threshold (predict positive when score >= threshold), collect PR points in
# descending threshold order, then integrate rectangles+triangles (trapezoid)
# over recall with the curve anchored at recall 0.


def brute_force_points(scores, labels):
    points = []
    for th in sorted(set(scores), reverse=True):
        tp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 1)
        fp = sum(1 for s, y in zip(scores, labels) if s >= th and y == 0)
        fn = sum(1 for s, y in zip(scores, labels) if s < th and y == 1)
        points.append((tp / (tp + fn), tp / (tp + fp)))
    return points


def brute_force_auc(scores, labels):
    points = brute_force_points(scores, labels)
    r0, p0 = 0.0, points[0][1]
    area = 0.0
    for r, p in points:
        area += (r - r0) * (p + p0) / 2.0
        r0, p0 = r, p
    return area


class TestPrCurve:
    def test_perfect_separation_reaches_corner(self):
        curve = pr_curve([0.9, 0.8, 0.3], [1, 1, 0])
        assert (1.0, 1.0) in zip(curve.recalls.tolist(), curve.precisions.tolist())

    def test_perfect_ranking_auc_one(self):
        assert pr_auc([0.9, 0.8, 0.3], [1, 1, 0]) == pytest.approx(1.0)

    def test_interleaved_example_matches_oracle(self):
        scores, labels = [0.9, 0.8, 0.3, 0.2], [1, 0, 1, 0]
        assert pr_auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels))

    def test_ties_grouped(self):
        curve = pr_curve([0.5, 0.5, 0.2], [1, 0, 0])
        # both 0.5-scores enter together: first point is recall 1, precision 0.5
        assert curve.recalls[0] == pytest.approx(1.0)
        assert curve.precisions[0] == pytest.approx(0.5)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError):
            pr_curve([0.5, 0.2], [1, 1])

    def test_nan_score_rejected(self):
        # NaN has no rank; argsort would put it last, as the lowest score
        with pytest.raises(ValueError, match="NaN"):
            pr_auc([float("nan"), 0.5, 0.2], [1, 0, 1])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pr_curve([0.5], [1, 0])

    def test_recalls_nondecreasing(self):
        rng = np.random.default_rng(0)
        scores = rng.random(50)
        labels = rng.integers(0, 2, size=50)
        labels[0], labels[1] = 1, 0
        curve = pr_curve(scores, labels)
        assert (np.diff(curve.recalls) >= 0).all()

    def test_exhaustive_oracle_equivalence(self):
        # every label/score set on a small grid up to 8 points, exactly
        grid = [0.1, 0.4, 0.4, 0.7]
        count = 0
        for n in range(2, 9):
            for labels in itertools.product((0, 1), repeat=n):
                if sum(labels) in (0, n):
                    continue
                scores = [grid[i % len(grid)] for i in range(n)]
                got = pr_auc(scores, list(labels))
                want = brute_force_auc(scores, list(labels))
                assert got == pytest.approx(want, abs=1e-12), (scores, labels)
                count += 1
        assert count > 400

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_random_oracle_equivalence(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 9))
        scores = rng.choice([0.1, 0.3, 0.5, 0.7, 0.9], size=n).tolist()
        labels = rng.integers(0, 2, size=n).tolist()
        if sum(labels) in (0, n):
            labels[0] = 1 - labels[0]
        assert pr_auc(scores, labels) == pytest.approx(brute_force_auc(scores, labels), abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = np.random.default_rng(seed)
        scores = rng.random(20)
        labels = rng.integers(0, 2, size=20)
        labels[0], labels[1] = 1, 0
        assert pr_auc(scores, labels) == pytest.approx(pr_auc(scores**3, labels), abs=1e-12)


class TestAuc:
    def test_constant_precision_one(self):
        curve = PrCurve(recalls=np.array([0.5, 1.0]), precisions=np.array([1.0, 1.0]))
        assert auc(curve) == pytest.approx(1.0)

    def test_constant_precision_rectangle(self):
        curve = PrCurve(recalls=np.array([0.5, 1.0]), precisions=np.array([0.4, 0.4]))
        assert auc(curve) == pytest.approx(0.4)

    def test_random_five_point_curves_match_trapezoid(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            r = np.sort(rng.random(5))
            p = rng.random(5)
            curve = PrCurve(recalls=r, precisions=p)
            # independent rectangle + triangle summation from (0, p[0])
            area, r0, p0 = 0.0, 0.0, p[0]
            for ri, pi in zip(r, p):
                area += (ri - r0) * min(p0, pi) + 0.5 * (ri - r0) * abs(pi - p0)
                r0, p0 = ri, pi
            assert auc(curve) == pytest.approx(area, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            auc(PrCurve(recalls=np.array([]), precisions=np.array([])))


class TestMacroAuc:
    def test_mean_of_classes(self):
        per_class = {
            "a": (np.array([0.9, 0.1]), np.array([1, 0])),
            "b": (np.array([0.2, 0.8]), np.array([1, 0])),
        }
        macro, per = macro_auc(per_class)
        assert per["a"] == pytest.approx(1.0)
        assert macro == pytest.approx((per["a"] + per["b"]) / 2.0)

    def test_degenerate_class_skipped(self):
        per_class = {
            "a": (np.array([0.9, 0.1]), np.array([1, 0])),
            "b": (np.array([0.9, 0.8]), np.array([1, 1])),
        }
        macro, per = macro_auc(per_class)
        assert set(per) == {"a"}

    def test_all_degenerate_rejected(self):
        with pytest.raises(ValueError):
            macro_auc({"a": (np.array([0.9]), np.array([1]))})


# ---------------------------------------------------------------------------
# Runners (small smoke configurations; full-scale runs live in the
# acceptance suite)


def small_dataset():
    return gen_synthetic(SyntheticConfig(num_scenes=30, num_whole_classes=2,
                                         parts_per_whole=2, feature_noise=0.1,
                                         negative_ratio=1.5, seed=21))


def small_cfg():
    return TrainConfig(epochs=15, seed=0, instantiation_budget=200)


class TestAblation:
    def test_three_variants_and_decoder_lengths(self):
        ds = small_dataset()
        report = compare(ds, repeats=1, ratio=0.8, models=ABLATION_MODELS, cfg=small_cfg(), b_types=16, b_partof=16,
                         k=2)
        rows = report["rows"][:-1]  # the last is the inclusion-ratio baseline
        assert [r["model"] for r in report["rows"]] == ["rwfn-albm", "rwfn-rff", "rwfn", "ir-baseline"]
        for r, mode in zip(rows, ("albm", "rff", "full")):
            fresh = make_classifier("rwfn", ds.n, 0, 16, 2, mode)
            assert r["params_types"] == dataclasses.asdict(count_params(fresh))
            expect = 32 if r["model"] == "rwfn" else 16  # decoder lengths 2B and B
            assert r["params_types"]["learnable"] == expect
            assert r["params_partof"]["learnable"] == expect
            assert 0.0 <= r["auc_types"]["mean"] <= 1.0
            assert 0.0 <= r["auc_partof"]["mean"] <= 1.0


@pytest.mark.parametrize("name", list(VARIANTS))
def test_variant_rows_count_a_fresh_classifier(name):
    # a variant's row reads its parameters off the classifier its fields
    # make, and only a shared-encoder variant skips part-of
    ds = small_dataset()
    kind, mode, shared = VARIANTS[name]
    report = compare(ds, repeats=1, ratio=0.8, models=(name,), cfg=small_cfg(), b_types=8, b_partof=12, k=2)
    row = report["rows"][0]

    def params(input_dim, b):
        return dataclasses.asdict(count_params(make_classifier(kind, input_dim, 0, b, 2, mode)))

    assert row["model"] == name
    assert row["params_types"] == params(ds.n, 8)
    assert row["auc_types"] is not None
    assert (row["auc_partof"] is None) == shared
    assert row["params_partof"] == (None if shared else params(2 * ds.n, 12))


class TestCompare:
    def test_report_structure(self):
        report = compare(small_dataset(), repeats=2, ratio=0.8, models=COMPARE_MODELS, cfg=small_cfg(), b_types=16,
                         b_partof=16, k=2)
        names = [r["model"] for r in report["rows"]]
        assert names == ["ltn", "rwfn", "rwfn-shared", "ir-baseline"]
        by_name = {r["model"]: r for r in report["rows"]}
        assert by_name["ir-baseline"]["params_partof"] == {"total": 0, "learnable": 0}
        assert by_name["rwfn-shared"]["auc_partof"] is None
        for name in ("ltn", "rwfn"):
            for task in ("auc_types", "auc_partof"):
                cell = by_name[name][task]
                assert len(cell["runs"]) == 2
                assert 0.0 <= cell["mean"] <= 1.0
        # per-seed differences on the same split
        paired = {p["pair"]: p for p in report["paired"]}
        assert list(paired) == ["rwfn - ltn", "rwfn - ir-baseline"]
        assert paired["rwfn - ir-baseline"]["auc_types"] is None
        for pair, task in [("rwfn - ltn", "auc_types"), ("rwfn - ltn", "auc_partof"),
                           ("rwfn - ir-baseline", "auc_partof")]:
            a, b = (by_name[name][task]["runs"] for name in pair.split(" - "))
            diffs = np.subtract(a, b)
            assert paired[pair][task] == {"mean": float(diffs.mean()), "two_sd": float(2.0 * diffs.std()),
                                          "runs": diffs.tolist()}
        assert "rwfn - ltn" in render_table(report)

    def test_table_rendering(self):
        report = compare(small_dataset(), models=("rwfn",), repeats=1, ratio=0.8,
                         cfg=small_cfg(), b_types=8, b_partof=8, k=2)
        table = render_table(report)
        lines = table.splitlines()
        assert "Model" in lines[0]
        assert any(line.startswith("rwfn") for line in lines)
        assert any(line.startswith("ir-baseline") for line in lines)
        # without ltn, only the pair with the inclusion-ratio baseline
        assert [p["pair"] for p in report["paired"]] == ["rwfn - ir-baseline"]
        assert any(line.startswith("rwfn - ir-baseline  ---") for line in lines)
        assert "rwfn - ltn" not in table

    @pytest.mark.parametrize("models, reason", [
        (("rwfn", "svm"), "'svm' is not a model"),
        (("rwfn", "rwfn"), "models repeat a name"),
        (("ltn", "ir-baseline"), "'ir-baseline' is always included"),
        ((), "no models to compare"),
    ])
    def test_models_validation(self, models, reason):
        with pytest.raises(ValueError, match=reason) as err:
            compare(small_dataset(), models=models, repeats=1, ratio=0.8, cfg=small_cfg(), b_types=8, b_partof=8, k=2)
        assert "ltn, rwfn, rwfn-shared" in str(err.value)

    def test_repeats_validation(self):
        with pytest.raises(ValueError):
            compare(small_dataset(), repeats=0, ratio=0.8, models=COMPARE_MODELS, cfg=small_cfg(), b_types=8,
                    b_partof=8, k=2)
