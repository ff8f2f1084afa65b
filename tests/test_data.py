import hashlib
import json

import numpy as np
import pytest

from rwfn.data import (
    BoxRecord,
    ClassInfo,
    Dataset,
    DatasetError,
    PartOfPair,
    SyntheticConfig,
    dataset_from_json,
    dataset_to_json,
    gen_synthetic,
    inclusion_ratio,
    load_dataset,
    pair_features,
    save_dataset,
    split,
)
from rwfn.numerics import make_rng


def tiny_dataset():
    classes = [ClassInfo("whole0", "whole", ("part0",)), ClassInfo("part0", "part")]
    records = [
        BoxRecord("w", np.array([1.0, 0.0, 0.1, 0.1, 0.9, 0.9]), (0.1, 0.1, 0.9, 0.9), frozenset(["whole0"])),
        BoxRecord("p", np.array([0.0, 1.0, 0.2, 0.2, 0.4, 0.4]), (0.2, 0.2, 0.4, 0.4), frozenset(["part0"])),
    ]
    pairs = [PartOfPair("p", "w", True)]
    return Dataset(n=6, classes=classes, records=records, pairs=pairs)


class TestValidation:
    def test_round_trip(self):
        ds = tiny_dataset()
        clone = dataset_from_json(dataset_to_json(ds))
        assert dataset_to_json(clone) == dataset_to_json(ds)

    def test_file_round_trip(self, tmp_path):
        ds = gen_synthetic(SyntheticConfig(num_scenes=3, seed=1))
        path = tmp_path / "ds.json"
        save_dataset(ds, path)
        clone = load_dataset(path)
        assert dataset_to_json(clone) == dataset_to_json(ds)

    def test_dangling_pair(self):
        ds = tiny_dataset()
        with pytest.raises(DatasetError):
            Dataset(n=6, classes=ds.classes, records=ds.records,
                    pairs=[PartOfPair("p", "nope", True)])

    def test_feature_length_mismatch(self):
        ds = tiny_dataset()
        bad = BoxRecord("x", np.zeros(3), (0.1, 0.1, 0.2, 0.2), frozenset(["part0"]))
        with pytest.raises(DatasetError):
            Dataset(n=6, classes=ds.classes, records=ds.records + [bad], pairs=[])

    def test_first_non_finite_record_is_named(self):
        ds = tiny_dataset()
        records = [BoxRecord(f"r{i}", np.full(6, value), (0.1, 0.1, 0.2, 0.2), frozenset(["part0"]))
                   for i, value in enumerate([0.5, np.nan, 0.5, np.inf])]
        with pytest.raises(DatasetError, match="^record r1: non-finite feature value$"):
            Dataset(n=6, classes=ds.classes, records=records, pairs=[])
        # one bad value among good ones, in a later record
        records[1] = BoxRecord("r1", np.array([0.5] * 5 + [-np.inf]), (0.1, 0.1, 0.2, 0.2), frozenset(["part0"]))
        records[3] = BoxRecord("r3", np.zeros(6), (0.1, 0.1, 0.2, 0.2), frozenset(["part0"]))
        with pytest.raises(DatasetError, match="^record r1: non-finite feature value$"):
            Dataset(n=6, classes=ds.classes, records=records, pairs=[])

    def test_unknown_label(self):
        ds = tiny_dataset()
        bad = BoxRecord("x", np.zeros(6), (0.1, 0.1, 0.2, 0.2), frozenset(["ghost"]))
        with pytest.raises(DatasetError):
            Dataset(n=6, classes=ds.classes, records=ds.records + [bad], pairs=[])

    def test_degenerate_bbox(self):
        with pytest.raises(DatasetError):
            BoxRecord("x", np.zeros(6), (0.5, 0.1, 0.5, 0.2), frozenset(["part0"]))

    def test_self_pair(self):
        with pytest.raises(DatasetError):
            PartOfPair("a", "a", True)

    def test_duplicate_ids(self):
        ds = tiny_dataset()
        with pytest.raises(DatasetError):
            Dataset(n=6, classes=ds.classes, records=ds.records + ds.records, pairs=[])

    def test_repeated_class_refused(self):
        # a copy of a class used to load, then train, and fail only in eval
        obj = dataset_to_json(tiny_dataset())
        obj["classes"].append(dict(obj["classes"][1]))
        with pytest.raises(DatasetError, match="^class 'part0' is declared twice$"):
            dataset_from_json(obj)

    # "Whole" used to load as a class of neither role: no isWhole labels
    @pytest.mark.parametrize("role", ["Whole", "", "object", None])
    def test_class_role_must_be_whole_or_part(self, role):
        obj = dataset_to_json(tiny_dataset())
        obj["classes"][0]["role"] = role
        with pytest.raises(DatasetError) as e:
            dataset_from_json(obj)
        assert str(e.value) == f"class 'whole0': role must be 'whole' or 'part', got {role!r}"

    def test_malformed_json(self):
        with pytest.raises(DatasetError):
            dataset_from_json({"n": 4})

    @pytest.mark.parametrize("value", ["false", "true", 0.5, 1, 0, None])
    def test_pair_positive_must_be_a_boolean(self, value):
        # bool("false") would make a positive pair
        obj = dataset_to_json(tiny_dataset())
        obj["pairs"][0]["positive"] = value
        with pytest.raises(DatasetError, match=r"pair \('p', 'w'\): positive must be a bool"):
            dataset_from_json(obj)

    @pytest.mark.parametrize("value", [6.0, 16.7, "6", True, None])
    def test_n_must_be_an_integer(self, value):
        obj = dataset_to_json(tiny_dataset())
        obj["n"] = value
        with pytest.raises(DatasetError, match="n must be an integer"):
            dataset_from_json(obj)

    @pytest.mark.parametrize("value", ["whole0", ["whole0", 1], {"whole0": True}, None])
    def test_record_labels_must_be_a_list_of_strings(self, value):
        # a string would be split into its characters
        obj = dataset_to_json(tiny_dataset())
        obj["records"][0]["labels"] = value
        with pytest.raises(DatasetError, match="record 'w': labels must be a list of strings"):
            dataset_from_json(obj)

    @pytest.mark.parametrize("value", [[0.1, 0.2, 0.3], [0.1, 0.2, 0.3, 0.4, 0.5], [0.1, 0.2, 0.3, "0.4"],
                                       [0.1, 0.2, 0.3, True], "0.1 0.2 0.3 0.4", None])
    def test_record_bbox_must_be_four_numbers(self, value):
        obj = dataset_to_json(tiny_dataset())
        obj["records"][0]["bbox"] = value
        with pytest.raises(DatasetError) as e:
            dataset_from_json(obj)
        assert str(e.value) == f"record 'w': bbox must be 4 numbers, got {value!r}"

    @pytest.mark.parametrize("value", ["ab", [0.0] * 5 + ["x"], [0.0] * 5 + [None], [0.0] * 5 + [False], 1.0])
    def test_record_features_must_be_a_list_of_numbers(self, value):
        obj = dataset_to_json(tiny_dataset())
        obj["records"][0]["features"] = value
        with pytest.raises(DatasetError) as e:
            dataset_from_json(obj)
        assert str(e.value) == f"record 'w': features must be a list of numbers, got {value!r}"


class TestInclusionRatio:
    def test_nested(self):
        assert inclusion_ratio((0.2, 0.2, 0.4, 0.4), (0.1, 0.1, 0.9, 0.9)) == pytest.approx(1.0)

    def test_disjoint(self):
        assert inclusion_ratio((0.0, 0.0, 0.2, 0.2), (0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_half_overlap(self):
        # b spans x in [0, 0.2], b' covers x in [0.1, 0.2]: half of b's area
        assert inclusion_ratio((0.0, 0.0, 0.2, 0.2), (0.1, 0.0, 0.2, 0.2)) == pytest.approx(0.5)

    def test_degenerate(self):
        with pytest.raises(DatasetError):
            inclusion_ratio((0.5, 0.1, 0.5, 0.2), (0.0, 0.0, 1.0, 1.0))

    def test_asymmetric(self):
        small, big = (0.2, 0.2, 0.4, 0.4), (0.1, 0.1, 0.9, 0.9)
        assert inclusion_ratio(small, big) == pytest.approx(1.0)
        assert inclusion_ratio(big, small) < 1.0


class TestPairFeatures:
    def test_concat_order(self):
        ds = tiny_dataset()
        part, whole = ds.by_id("p"), ds.by_id("w")
        f = pair_features(part, whole)
        assert f.shape == (12,)
        assert np.array_equal(f[:6], part.features)
        assert np.array_equal(f[6:], whole.features)

    def test_order_matters(self):
        ds = tiny_dataset()
        a, b = ds.by_id("p"), ds.by_id("w")
        assert not np.array_equal(pair_features(a, b), pair_features(b, a))


class TestGenerator:
    def test_determinism(self):
        a = gen_synthetic(SyntheticConfig(num_scenes=10, seed=3))
        b = gen_synthetic(SyntheticConfig(num_scenes=10, seed=3))
        assert dataset_to_json(a) == dataset_to_json(b)

    # sha256 of save_dataset's output, as generated before generation was
    # vectorized: the acceptance data and the hard regime, seed 3
    @pytest.mark.parametrize("cfg, digest", [
        (SyntheticConfig(num_scenes=150, feature_noise=0.15, negative_ratio=2.0, seed=3),
         "534e4532780f215daa4b4253a55813e74efe217d380391de4335ab658fd9434f"),
        (SyntheticConfig(num_scenes=250, num_whole_classes=6, feature_noise=0.35, negative_ratio=2.0, seed=3),
         "4c7040f4ae414d3a5100a85885703f915bb2ea6510bfd72379564acd4e2ccf32"),
    ], ids=["acceptance", "hard"])
    def test_dataset_bytes_are_pinned(self, cfg, digest, tmp_path):
        save_dataset(gen_synthetic(cfg), tmp_path / "ds.json")
        assert hashlib.sha256((tmp_path / "ds.json").read_bytes()).hexdigest() == digest

    def test_noiseless_argmax(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=10, feature_noise=0.0, seed=4))
        class_index = {c.name: i for i, c in enumerate(ds.classes)}
        k = len(ds.classes)
        for r in ds.records:
            assert int(np.argmax(r.features[:k])) == class_index[ds.primary_label(r)]

    def test_positive_pairs_contained(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=30, seed=5))
        for p in ds.pairs:
            if p.positive:
                ir = inclusion_ratio(ds.by_id(p.part).bbox, ds.by_id(p.whole).bbox)
                assert ir >= 0.9

    def test_feature_dim(self):
        cfg = SyntheticConfig(num_scenes=3, num_whole_classes=4, parts_per_whole=2, seed=0)
        ds = gen_synthetic(cfg)
        assert ds.n == 4 * 3 + 4  # classes (wholes + parts) plus bbox block

    def test_features_clipped(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=20, feature_noise=0.5, seed=6))
        for r in ds.records:
            assert (r.features >= 0.0).all() and (r.features <= 1.0).all()

    def test_positives_beat_negatives_geometrically(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=40, seed=7))
        pos = [inclusion_ratio(ds.by_id(p.part).bbox, ds.by_id(p.whole).bbox)
               for p in ds.pairs if p.positive]
        neg = [inclusion_ratio(ds.by_id(p.part).bbox, ds.by_id(p.whole).bbox)
               for p in ds.pairs if not p.positive]
        assert np.mean(pos) > np.mean(neg)

    def test_hard_negatives_present(self):
        # decoy containments: some negatives are geometrically near-contained
        ds = gen_synthetic(SyntheticConfig(num_scenes=40, negative_ratio=2.0, seed=8))
        neg_ir = [inclusion_ratio(ds.by_id(p.part).bbox, ds.by_id(p.whole).bbox)
                  for p in ds.pairs if not p.positive]
        assert max(neg_ir) > 0.8

    def test_negative_ratio(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=40, negative_ratio=1.0, seed=9))
        n_pos = sum(p.positive for p in ds.pairs)
        n_neg = sum(not p.positive for p in ds.pairs)
        assert n_neg == n_pos

    def test_bad_config(self):
        with pytest.raises(DatasetError):
            SyntheticConfig(num_scenes=0)
        with pytest.raises(DatasetError):
            SyntheticConfig(feature_noise=-0.1)

    @pytest.mark.parametrize("field, value, match", [
        ("feature_noise", float("nan"), "feature_noise must be finite"),
        ("feature_noise", float("inf"), "feature_noise must be finite"),
        ("geometry_jitter", float("nan"), "geometry_jitter must be finite"),
        ("geometry_jitter", -1.0, "geometry_jitter must be >= 0"),
        ("negative_ratio", float("inf"), "negative_ratio must be finite"),
        ("negative_ratio", float("nan"), "negative_ratio must be finite"),
        ("overlap_fraction", -0.1, "overlap_fraction must be in"),
        ("overlap_fraction", 1.5, "overlap_fraction must be in"),
        ("overlap_fraction", float("nan"), "overlap_fraction must be in"),
        ("num_scenes", 2.5, "num_scenes must be an int, got 2.5"),
        ("num_whole_classes", True, "num_whole_classes must be an int, got True"),
        ("parts_per_whole", "2", "parts_per_whole must be an int, got '2'"),
        ("seed", 1.0, "seed must be an int, got 1.0"),
    ])
    def test_bad_float_config(self, field, value, match):
        # past the config, nan noise gives noise-free data, inf noise 0/1
        # features, and the others numpy errors in the generator; a float
        # count fails inside it, and True makes one whole class
        with pytest.raises(DatasetError, match=match):
            SyntheticConfig(**{field: value})

    def test_negative_seed_rejected(self):
        with pytest.raises(DatasetError, match="seed must be >= 0, got -1"):
            SyntheticConfig(seed=-1)

    def test_edge_config_accepted(self):
        cfg = SyntheticConfig(num_scenes=3, feature_noise=0.0, geometry_jitter=0.0, overlap_fraction=1.0, seed=1)
        assert len(gen_synthetic(cfg).records) > 0


class TestSplit:
    def test_ten_records_eight_two(self):
        classes = [ClassInfo("c", "whole")]
        records = [
            BoxRecord(f"r{i}", np.zeros(1), (0.1, 0.1, 0.5, 0.5), frozenset(["c"]))
            for i in range(10)
        ]
        ds = Dataset(n=1, classes=classes, records=records, pairs=[])
        sp = split(ds, 0.8, make_rng(0))
        assert len(sp.train.records) == 8 and len(sp.test.records) == 2

    def test_stratification_within_one(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=40, seed=10))
        sp = split(ds, 0.8, make_rng(1))
        by_class_train: dict = {}
        by_class_total: dict = {}
        for r in ds.records:
            by_class_total[ds.primary_label(r)] = by_class_total.get(ds.primary_label(r), 0) + 1
        for r in sp.train.records:
            by_class_train[sp.train.primary_label(r)] = by_class_train.get(sp.train.primary_label(r), 0) + 1
        for cname, total in by_class_total.items():
            got = by_class_train.get(cname, 0)
            assert abs(got - 0.8 * total) <= 1.0

    def test_records_partitioned(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=20, seed=11))
        sp = split(ds, 0.8, make_rng(2))
        train_ids = {r.id for r in sp.train.records}
        test_ids = {r.id for r in sp.test.records}
        assert train_ids.isdisjoint(test_ids)
        assert train_ids | test_ids == {r.id for r in ds.records}

    def test_no_pair_spans_splits(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=40, seed=12))
        sp = split(ds, 0.8, make_rng(3))
        sides = [{r.id for r in part.records} for part in (sp.train, sp.test)]
        for ids, part in zip(sides, (sp.train, sp.test)):
            assert all(p.part in ids and p.whole in ids for p in part.pairs)
        # only the pairs whose endpoints land in different splits are dropped
        assert len(sp.train.pairs) + len(sp.test.pairs) == sum({p.part, p.whole} <= ids for p in ds.pairs
                                                               for ids in sides)

    def test_determinism(self):
        ds = gen_synthetic(SyntheticConfig(num_scenes=40, seed=13))
        a = split(ds, 0.8, make_rng(4))
        b = split(ds, 0.8, make_rng(4))
        assert {r.id for r in a.train.records} == {r.id for r in b.train.records}

    def test_bad_ratio(self):
        with pytest.raises(DatasetError):
            split(tiny_dataset(), 1.0, make_rng(0))

    def test_singleton_class_rejected(self):
        with pytest.raises(DatasetError):
            split(tiny_dataset(), 0.8, make_rng(0))  # both classes have a single record


def test_saved_json_is_sorted_and_versioned(tmp_path):
    ds = gen_synthetic(SyntheticConfig(num_scenes=2, seed=0))
    path = tmp_path / "ds.json"
    save_dataset(ds, path)
    obj = json.loads(path.read_text())
    assert obj["format_version"] == 1
    assert list(obj.keys()) == sorted(obj.keys())
