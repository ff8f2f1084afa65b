from pathlib import Path

import numpy as np
import pytest

from rwfn.data import SyntheticConfig, gen_synthetic, split
from rwfn.logic import ForAll, parse_kb
from rwfn.numerics import make_rng
from rwfn.predicates import init_ntn
from rwfn.tasks import (
    baseline_ir_scores,
    build_partof_theory,
    build_type_theory,
    label_predicates,
    make_rwfn_classifier,
    ontology_kb_text,
    partof_scores,
    type_scores,
)
from rwfn.training import SharedEncoderRegistry, TrainConfig, train

from oracles import satisfiability, truth_of

ASSET = Path(__file__).resolve().parent.parent / "assets" / "partof_ontology.kb"


@pytest.fixture(scope="module")
def dataset():
    return gen_synthetic(SyntheticConfig(num_scenes=25, num_whole_classes=2,
                                         negative_ratio=1.5, seed=31))


class TestOntology:
    def test_text_parses(self, dataset):
        kb = parse_kb(ontology_kb_text(dataset))
        assert kb.signatures["partOf"] == 2
        assert all(isinstance(f, ForAll) for f in kb.formulas)
        # asymmetry + two role constraints + one disjunction per whole class
        assert len(kb.formulas) == 3 + len(dataset.whole_classes())

    def test_shipped_asset_parses(self):
        kb = parse_kb(ASSET.read_text())
        assert kb.signatures["partOf"] == 2
        assert len(kb.formulas) == 7  # 3 role axioms + 4 whole-class disjunctions

    def test_label_predicates_roles(self, dataset):
        preds = label_predicates(dataset)
        r = dataset.records[0]
        role = "whole" if dataset.primary_label(r).startswith("whole") else "part"
        assert truth_of(preds["isWhole"], (r.id,)) == (1.0 if role == "whole" else 0.0)
        assert truth_of(preds[f"is_{dataset.primary_label(r)}"], (r.id,)) == 1.0


class TestTypeTheory:
    def test_one_literal_per_record(self, dataset):
        model = make_rwfn_classifier(dataset.n, 8, seed=0, mode="full", registry=None)
        cname = dataset.classes[0].name
        gt = build_type_theory(dataset, cname, model)
        assert gt.kb.root_count() == len(dataset.records)
        (table,) = gt.kb.facts
        assert table.args[:, 0].tolist() == [r.id for r in dataset.records]
        assert table.sign.tolist() == [cname in r.labels for r in dataset.records]
        assert set(gt.constants) == {r.id for r in dataset.records}

    def test_training_raises_satisfiability(self, dataset):
        model = make_rwfn_classifier(dataset.n, 16, seed=1, mode="full", registry=None)
        gt = build_type_theory(dataset, dataset.classes[0].name, model)
        before = satisfiability(gt)
        train(gt, TrainConfig(epochs=30, seed=0))
        assert satisfiability(gt) > before

    def test_type_scores_shape(self, dataset):
        model = make_rwfn_classifier(dataset.n, 8, seed=2, mode="full", registry=None)
        out = type_scores({"whole0": model}, dataset)
        scores, labels = out["whole0"]
        assert len(scores) == len(labels) == len(dataset.records)

    @pytest.mark.parametrize("kind", ["rwfn", "rwfn-shared", "ltn"])
    def test_type_scores_lift_once_per_stack_key(self, dataset, kind, monkeypatch):
        # classes on one encoder read the same hidden rows: one encoding
        registry = SharedEncoderRegistry()
        models = {}
        for i, c in enumerate(dataset.classes):
            if kind == "ltn":
                models[c.name] = init_ntn(2, dataset.n, make_rng(i))
            else:
                models[c.name] = make_rwfn_classifier(dataset.n, 8, seed=0 if kind == "rwfn-shared" else i,
                                                      mode="full", registry=registry)
            for p in models[c.name].learnable_params().values():
                p[...] = make_rng(50 + i).standard_normal(p.shape)
        lifts = []
        for cls in {type(m) for m in models.values()}:
            monkeypatch.setattr(cls, "lift", lambda self, *a, _lift=cls.lift: lifts.append(self) or _lift(self, *a))
        out = type_scores(models, dataset)
        assert len(lifts) == len({m.stack_key() for m in models.values()})
        assert len(lifts) == (len(models) if kind == "rwfn" else 1)
        x = np.stack([r.features for r in dataset.records])
        for name, model in models.items():
            assert np.array_equal(out[name][0], model.forward_batch(model.lift(x))[0])


class TestPartofTheory:
    def test_formula_census(self, dataset):
        model = make_rwfn_classifier(2 * dataset.n, 8, seed=3, mode="full", registry=None)
        gt = build_partof_theory(dataset, model)
        n_axioms = 3 + len(dataset.whole_classes())
        assert gt.kb.root_count() == len(dataset.pairs) + n_axioms
        assert gt.learnable_predicates().keys() == {"partOf"}

    def test_partof_scores(self, dataset):
        model = make_rwfn_classifier(2 * dataset.n, 8, seed=5, mode="full", registry=None)
        scores, labels = partof_scores(model, dataset)
        assert len(scores) == len(dataset.pairs)
        assert set(np.unique(labels)) <= {0, 1}

    def test_ltn_variant_trains(self, dataset):
        model = init_ntn(2, 2 * dataset.n, make_rng(6))
        gt = build_partof_theory(dataset, model)
        trace = train(gt, TrainConfig(epochs=5, seed=0, instantiation_budget=200))
        assert len(trace.sat) == 5


class TestBaseline:
    def test_ir_scores_in_unit_interval(self, dataset):
        scores, labels = baseline_ir_scores(dataset)
        assert (scores >= 0).all() and (scores <= 1).all()

    def test_positives_score_high(self, dataset):
        scores, labels = baseline_ir_scores(dataset)
        assert scores[labels == 1].mean() > scores[labels == 0].mean()
