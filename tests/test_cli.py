import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rwfn.cli import build_parser, main
from rwfn.data import SyntheticConfig
from rwfn.tasks import DEFAULT_B_TYPES, DEFAULT_K
from rwfn.training import TrainConfig


def run_cli(args):
    """Invoke main() in-process; argparse exits are converted to codes."""
    try:
        return main(args)
    except SystemExit as e:
        return int(e.code)


def assert_environment(env):
    assert set(env) == {"python", "numpy", "blas", "cpu_count", "peak_rss_mb"}
    assert env["python"] == platform.python_version()
    assert env["numpy"] == np.__version__
    assert set(env["blas"]) == {"name", "version"}
    assert env["cpu_count"] == os.cpu_count()
    assert env["peak_rss_mb"] > 0


def assert_artifact_digests(manifest_path):
    """Each artifact a manifest names has its file's sha256 beside its
    path, and no artifact carries a digest."""
    manifest = json.loads(manifest_path.read_text())
    assert manifest["artifact_sha256"].keys() == manifest["artifacts"].keys()
    for name, path in manifest["artifacts"].items():
        payload = Path(path).read_bytes()
        assert manifest["artifact_sha256"][name] == hashlib.sha256(payload).hexdigest()
        assert b"sha256" not in payload


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds.json"
    code = run_cli(["gen-synth", "--scenes", "40", "--wholes", "2", "--noise", "0.1",
                    "--neg-ratio", "1.5", "--seed", "7", "-o", str(path)])
    assert code == 0
    return path


# the small width flag of each model family
WIDTH = {"rwfn": ["--b", "8"], "ltn": ["--k", "2"]}


@pytest.fixture(scope="module")
def partof_bundles(dataset_path, tmp_path_factory):
    """model kind -> a part-of bundle trained on dataset_path."""
    out = {}
    for kind in ("rwfn", "ltn"):
        path = tmp_path_factory.mktemp(kind) / "m.json"
        assert run_cli(["train", "--model", kind, "--task", "partof", "--data", str(dataset_path), *WIDTH[kind],
                        "--epochs", "2", "--budget", "100", "--seed", "0", "-o", str(path)]) == 0
        out[kind] = json.loads(path.read_text())
    return out


class TestGenSynth:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli(["gen-synth", "--scenes", "25", "--seed", "7", "-o", str(a)]) == 0
        assert run_cli(["gen-synth", "--scenes", "25", "--seed", "7", "-o", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_manifest_written(self, tmp_path):
        out = tmp_path / "ds.json"
        assert run_cli(["gen-synth", "--scenes", "5", "--seed", "1", "-o", str(out)]) == 0
        manifest = json.loads((tmp_path / "ds.json.manifest.json").read_text())
        assert manifest["command"] == "gen-synth"
        assert manifest["seeds"] == {"seed": 1}
        assert "wall_ms" in manifest
        assert_environment(manifest["environment"])
        assert_artifact_digests(tmp_path / "ds.json.manifest.json")

    def test_missing_output_usage_error(self):
        assert run_cli(["gen-synth", "--scenes", "5"]) == 2

    def test_zero_scenes_usage_error(self):
        assert run_cli(["gen-synth", "--scenes", "0", "-o", "x.json"]) == 2

    def test_negative_jitter_runtime_error(self, tmp_path, capsys):
        out = tmp_path / "ds.json"
        assert run_cli(["gen-synth", "--scenes", "5", "--jitter", "-1", "-o", str(out)]) == 1
        assert "geometry_jitter must be >= 0" in capsys.readouterr().err
        assert not out.exists()


class TestTrainEval:
    def test_types_pipeline(self, dataset_path, tmp_path):
        model = tmp_path / "model.json"
        code = run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(dataset_path), "--b", "16",
                        "--epochs", "10", "--budget", "200", "--seed", "3",
                        "-o", str(model)])
        assert code == 0
        bundle = json.loads(model.read_text())
        assert bundle["task"] == "types"
        assert set(bundle["predicates"])  # one spec per class
        assert (tmp_path / "model.json.trace.json").exists()

        report = tmp_path / "report.json"
        code = run_cli(["eval", "--model", str(model), "--data", str(dataset_path),
                        "-o", str(report)])
        assert code == 0
        rep = json.loads(report.read_text())
        assert rep["task"] == "types" and 0.0 <= rep["auc"] <= 1.0
        for manifest in ("model.json.manifest.json", "report.json.manifest.json"):
            assert_artifact_digests(tmp_path / manifest)

    def test_partof_decoder_length(self, dataset_path, tmp_path):
        model = tmp_path / "m.json"
        code = run_cli(["train", "--model", "rwfn", "--task", "partof",
                        "--data", str(dataset_path), "--b", "400",
                        "--epochs", "2", "--budget", "100", "--seed", "0",
                        "-o", str(model)])
        assert code == 0
        bundle = json.loads(model.read_text())
        assert len(bundle["predicates"]["partOf"]["beta"]) == 800  # 2B at B=400

    def test_train_manifest_reports_plan(self, dataset_path, tmp_path):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", "rwfn", "--task", "partof",
                        "--data", str(dataset_path), "--b", "8",
                        "--epochs", "2", "--budget", "100", "--seed", "0",
                        "-o", str(model)]) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert_environment(manifest["environment"])
        plan = manifest["plans"]["partOf"]
        # pair literals first, then 3 + 2 axioms over (x, y), each sampling
        # 100 of the |D|^2 pairs; 4 shapes: P, ~P and the two axiom forms
        first = plan["roots"] - 5
        evaluated = [q.pop("evaluated") for q in plan["quantifiers"]]
        assert plan["quantifiers"] == [
            {"formula": first + i, "variables": ["x", "y"], "instantiations": 100, "sampled": True}
            for i in range(5)
        ]
        # the asymmetry axiom's rows all take a gradient; the labels fix
        # the value of some rows of the other axioms, which are not evaluated
        assert evaluated[0] == 100 and all(n <= 100 for n in evaluated) and sum(evaluated) < 500
        assert plan["groups"] == 4
        # the plan keeps 2B = 16 hidden features per live atom at B=8, and nothing more
        assert plan["cache_bytes"] == plan["live_atoms"]["partOf"] * 16 * 8
        assert plan["live_atoms"]["partOf"] < plan["atoms"]["partOf"]
        for artifact in (model, tmp_path / "m.json.trace.json"):
            for field in ("plans", "environment", "evaluated"):
                assert field not in artifact.read_text()

    @pytest.mark.parametrize("model_kind, shared", [("rwfn", True), ("ltn", False)])
    def test_types_manifest_reports_one_lockstep_plan(self, dataset_path, tmp_path, model_kind, shared):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", model_kind, "--task", "types", "--data", str(dataset_path),
                        "--epochs", "2", "--seed", "0", "-o", str(model)]
                       + ["--b", "8", "--shared-encoder"] * shared) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        plans, lockstep = manifest["plans"], manifest["lockstep"]
        # each class's plan is its own part: one literal per training record
        records = {plan["roots"] for plan in plans.values()}
        assert len(records) == 1
        for name, plan in plans.items():
            assert plan == {"atoms": {name: plan["roots"]}, "live_atoms": {name: plan["roots"]},
                            "roots": plan["roots"], "quantifiers": []}
        # the merged plan: its two literal shapes and one cache, not one per
        # class; the NTN stack (six k=6 heads over d=10 rows) runs on lifted rows
        n = records.pop()
        assert lockstep == {"parts": len(plans), "roots": n * len(plans), "groups": 2,
                            "cache_bytes": n * (16 if shared else 10 * 11 // 2 + 10 + 1) * 8}
        for artifact in (model, tmp_path / "m.json.trace.json"):
            for field in ("plans", "lockstep", "cache_bytes", "groups"):
                assert field not in artifact.read_text()

    @pytest.mark.parametrize("model_kind, task, epochs, tail", [("ltn", "partof", 25, 22), ("rwfn", "types", 3, 2)])
    def test_train_manifest_reports_final_satisfiability(self, dataset_path, tmp_path, model_kind, task, epochs, tail):
        # the last tenth of 25 epochs is the last 3, of 3 epochs the last one
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", model_kind, "--task", task, "--data", str(dataset_path),
                        *WIDTH[model_kind], "--epochs", str(epochs), "--budget", "100", "--seed", "0",
                        "-o", str(model)]) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        traces = json.loads((tmp_path / "m.json.trace.json").read_text())
        assert manifest["final_sat"] == {name: {"last_epoch": tr["sat"][-1], "min_last_10pct": min(tr["sat"][tail:])}
                                         for name, tr in traces.items()}
        assert manifest["final_sat"].keys() == manifest["plans"].keys()
        for artifact in (model, tmp_path / "m.json.trace.json"):
            for field in ("final_sat", "last_epoch", "min_last_10pct"):
                assert field not in artifact.read_text()

    @pytest.mark.parametrize("model_kind, task", [("ltn", "types"), ("rwfn", "partof"), ("ltn", "partof")])
    def test_shared_encoder_without_an_encoder_to_share_usage_error(self, dataset_path, tmp_path, capsys,
                                                                     model_kind, task):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", model_kind, "--task", task, "--data", str(dataset_path),
                        "--shared-encoder", "--epochs", "1", "-o", str(model)]) == 2
        assert f"not --model {model_kind} --task {task}" in capsys.readouterr().err
        assert not model.exists()

    # each used to train with the flag ignored, and exit 0
    @pytest.mark.parametrize("model_kind, flag", [("ltn", "--b"), ("rwfn", "--k")])
    def test_width_of_the_other_model_usage_error(self, dataset_path, tmp_path, capsys, model_kind, flag):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", model_kind, "--task", "types", "--data", str(dataset_path),
                        flag, "7", "--epochs", "1", "-o", str(model)]) == 2
        assert f"{flag} does not apply to --model {model_kind}" in capsys.readouterr().err
        assert not model.exists()

    @pytest.mark.parametrize("model_kind", ["ltn", "rwfn"])
    def test_train_manifest_records_the_k_used(self, dataset_path, tmp_path, model_kind):
        assert run_cli(["train", "--model", model_kind, "--task", "partof", "--data", str(dataset_path),
                        "--epochs", "1", "--budget", "100", "-o", str(tmp_path / "m.json")]) == 0
        manifest = json.loads((tmp_path / "m.json.manifest.json").read_text())
        assert manifest["config"]["k"] == DEFAULT_K and manifest["config"]["b"] is None

    def test_empty_dataset_runtime_error(self, tmp_path, capsys):
        # used to end in a StopIteration traceback after training nothing
        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"format_version": 1, "n": 4, "classes": [], "records": [], "pairs": []}))
        assert run_cli(["train", "--model", "rwfn", "--task", "types", "--data", str(empty),
                        "-o", str(tmp_path / "m.json")]) == 1
        assert "error: dataset has no records to split" in capsys.readouterr().err

    def test_train_determinism(self, dataset_path, tmp_path):
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            code = run_cli(["train", "--model", "rwfn", "--task", "partof",
                            "--data", str(dataset_path), "--b", "8",
                            "--epochs", "5", "--budget", "100", "--seed", "11",
                            "-o", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_eval_non_finite_model_runtime_error(self, dataset_path, tmp_path, capsys):
        # an all-NaN decoder would otherwise score AUC 1.000 and exit 0
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", "rwfn", "--task", "partof",
                        "--data", str(dataset_path), "--b", "8",
                        "--epochs", "2", "--budget", "100", "--seed", "0",
                        "-o", str(model)]) == 0
        bundle = json.loads(model.read_text())
        bundle["predicates"]["partOf"]["beta"] = [float("nan")] * 16
        model.write_text(json.dumps(bundle))
        code = run_cli(["eval", "--model", str(model), "--data", str(dataset_path),
                        "-o", str(tmp_path / "r.json")])
        assert code == 1
        assert "predicate 'partOf': parameter 'beta' has non-finite values" in capsys.readouterr().err

    def test_eval_determinism(self, dataset_path, tmp_path):
        model = tmp_path / "m.json"
        run_cli(["train", "--model", "ltn", "--task", "types",
                 "--data", str(dataset_path), "--k", "2",
                 "--epochs", "3", "--budget", "100", "--seed", "2", "-o", str(model)])
        payloads = []
        for name in ("r1.json", "r2.json"):
            report = tmp_path / name
            assert run_cli(["eval", "--model", str(model), "--data", str(dataset_path),
                            "-o", str(report)]) == 0
            payloads.append(report.read_bytes())
        assert payloads[0] == payloads[1]

    @pytest.mark.parametrize("edit, message", [
        (lambda b: [], "top level must be an object, got list"),
        (lambda b: {**b, "format_version": 99}, "'format_version' must be 1, got 99"),
        (lambda b: {k: v for k, v in b.items() if k != "format_version"}, "'format_version' must be 1, got None"),
        (lambda b: {**b, "task": "mystery"}, "'task' must be 'types' or 'partof', got 'mystery'"),
        (lambda b: {**b, "kind": "svm"}, "'kind' must be 'rwfn' or 'ltn', got 'svm'"),
        (lambda b: {k: v for k, v in b.items() if k != "n"}, "'n' must be an int >= 1, got None"),
        (lambda b: {**b, "n": 10.0}, "'n' must be an int >= 1, got 10.0"),
        (lambda b: {**b, "n": True}, "'n' must be an int >= 1, got True"),
        (lambda b: {**b, "n": 0}, "'n' must be an int >= 1, got 0"),
        (lambda b: {**b, "split_ratio": "0.8"}, "'split_ratio' must be a float in (0, 1), got '0.8'"),
        (lambda b: {**b, "split_ratio": 1.5}, "'split_ratio' must be a float in (0, 1), got 1.5"),
        (lambda b: {**b, "split_seed": 1.5}, "'split_seed' must be an int, got 1.5"),
        (lambda b: {**b, "split_seed": True}, "'split_seed' must be an int, got True"),
        (lambda b: {**b, "split_seed": -3}, "'split_seed' must be >= 0, got -3"),
        (lambda b: {**b, "predicates": {}}, "'predicates' must be a non-empty object of objects"),
        (lambda b: {**b, "predicates": {"partOf": []}}, "'predicates' must be a non-empty object of objects"),
        (lambda b: {**b, "predicates": {"isWhole": b["predicates"]["partOf"]}},
         "'predicates' must hold 'partOf' for task 'partof'"),
    ], ids=["list", "version-99", "no-version", "task", "kind", "no-n", "n-float", "n-bool", "n-zero",
            "ratio-string", "ratio-range",
            "seed-float", "seed-bool", "seed-negative", "no-predicates", "predicate-list", "no-partOf"])
    def test_eval_malformed_bundle_runtime_error(self, dataset_path, tmp_path, capsys, edit, message):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", "rwfn", "--task", "partof",
                        "--data", str(dataset_path), "--b", "8",
                        "--epochs", "2", "--budget", "100", "--seed", "0",
                        "-o", str(model)]) == 0
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        report = tmp_path / "r.json"
        code = run_cli(["eval", "--model", str(model), "--data", str(dataset_path), "-o", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: model bundle {model}: ") and message in err
        assert not report.exists()

    def test_eval_dataset_of_another_width_runtime_error(self, dataset_path, partof_bundles, tmp_path, capsys,
                                                         monkeypatch):
        model = tmp_path / "m.json"
        model.write_text(json.dumps(partof_bundles["rwfn"]))
        wider = tmp_path / "wider.json"
        assert run_cli(["gen-synth", "--scenes", "10", "--wholes", "3", "--seed", "7", "-o", str(wider)]) == 0
        monkeypatch.setattr("rwfn.cli.model_from_spec", lambda *a, **k: pytest.fail("a model was loaded"))
        report = tmp_path / "r.json"
        assert run_cli(["eval", "--model", str(model), "--data", str(wider), "-o", str(report)]) == 1
        assert capsys.readouterr().err == (f"error: model bundle {model} takes n=10 features per box, "
                                           f"but dataset {wider} has n=13\n")
        assert not report.exists()

    def test_eval_types_dataset_of_other_classes_runtime_error(self, dataset_path, tmp_path, capsys, monkeypatch):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", "rwfn", "--task", "types", "--data", str(dataset_path), "--b", "8",
                        "--epochs", "2", "--budget", "100", "--seed", "0", "-o", str(model)]) == 0
        # the same n = 10, other classes
        other = tmp_path / "other.json"
        assert run_cli(["gen-synth", "--scenes", "40", "--wholes", "3", "--parts-per-whole", "1", "--seed", "7",
                        "-o", str(other)]) == 0
        monkeypatch.setattr("rwfn.cli.model_from_spec", lambda *a, **k: pytest.fail("a model was loaded"))
        report = tmp_path / "r.json"
        assert run_cli(["eval", "--model", str(model), "--data", str(other), "-o", str(report)]) == 1
        assert capsys.readouterr().err == (
            f"error: model bundle {model} grounds classes ['part0_0', 'part0_1', 'part1_0', 'part1_1', 'whole0', "
            f"'whole1'], but dataset {other} has classes ['part0_0', 'part1_0', 'part2_0', 'whole0', 'whole1', "
            f"'whole2']\n")
        assert not report.exists()

    @pytest.mark.parametrize("field", ["k", "in_dim"])
    def test_eval_ntn_spec_contradicting_its_arrays_runtime_error(self, dataset_path, tmp_path, capsys, field):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", "ltn", "--task", "partof", "--data", str(dataset_path), "--k", "2",
                        "--epochs", "2", "--budget", "100", "--seed", "0", "-o", str(model)]) == 0
        bundle = json.loads(model.read_text())
        bundle["predicates"]["partOf"][field] += 1
        model.write_text(json.dumps(bundle))
        report = tmp_path / "r.json"
        assert run_cli(["eval", "--model", str(model), "--data", str(dataset_path), "-o", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: predicate 'partOf': ") and f"{field}=" in err and "disagree" in err
        assert not report.exists()

    @pytest.mark.parametrize("model_kind, field", [
        ("rwfn", "kind"), ("rwfn", "mode"), ("rwfn", "encoder"), ("rwfn", "encoder.fan_in"), ("rwfn", "beta"),
        ("ltn", "u"), ("ltn", "w"), ("ltn", "v"), ("ltn", "b"),
    ])
    @pytest.mark.parametrize("null", [False, True], ids=["missing", "null"])
    def test_eval_spec_without_a_field_runtime_error(self, dataset_path, partof_bundles, tmp_path, capsys,
                                                     model_kind, field, null):
        spec = bundle = json.loads(json.dumps(partof_bundles[model_kind]))
        *path, key = ["predicates", "partOf", *field.split(".")]
        for step in path:
            spec = spec[step]
        if null:
            spec[key] = None
        else:
            del spec[key]
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        model.write_text(json.dumps(bundle))
        assert run_cli(["eval", "--model", str(model), "--data", str(dataset_path), "-o", str(report)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: predicate 'partOf': ") and f"spec has no '{key}'" in err
        assert not report.exists()

    @pytest.mark.parametrize("field, value, message", [
        ("encoder", "x", "encoder spec must be an object, got 'x'"),
        ("encoder", [1, 2], "encoder spec must be an object, got [1, 2]"),
        ("encoder.input_dim", 16.0, "encoder spec field 'input_dim' must be an int, got 16.0"),
        ("encoder.hidden_width", "8", "encoder spec field 'hidden_width' must be an int, got '8'"),
        ("encoder.fan_in", "7", "encoder spec field 'fan_in' must be an int, got '7'"),
        ("encoder.seed", True, "encoder spec field 'seed' must be an int, got True"),
        ("encoder.inhibition_strength", "1.0", "encoder spec field 'inhibition_strength' must be a number, got '1.0'"),
        ("encoder.kernel_scale", False, "encoder spec field 'kernel_scale' must be a number, got False"),
    ], ids=["encoder-string", "encoder-list", "input_dim", "hidden_width", "fan_in", "seed",
            "inhibition_strength", "kernel_scale"])
    def test_eval_malformed_encoder_spec_runtime_error(self, dataset_path, partof_bundles, tmp_path, capsys,
                                                        field, value, message):
        spec = bundle = json.loads(json.dumps(partof_bundles["rwfn"]))
        *path, key = ["predicates", "partOf", *field.split(".")]
        for step in path:
            spec = spec[step]
        spec[key] = value
        model, report = tmp_path / "m.json", tmp_path / "r.json"
        model.write_text(json.dumps(bundle))
        assert run_cli(["eval", "--model", str(model), "--data", str(dataset_path), "-o", str(report)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: predicate 'partOf': {message}\n"
        assert not report.exists()

    def test_unknown_model_usage_error(self, dataset_path, tmp_path):
        assert run_cli(["train", "--model", "svm", "--task", "types",
                        "--data", str(dataset_path), "-o", str(tmp_path / "m.json")]) == 2

    def test_zero_epochs_usage_error(self, dataset_path, tmp_path):
        assert run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(dataset_path), "--epochs", "0",
                        "-o", str(tmp_path / "m.json")]) == 2

    # flags that must be >= 1, per subcommand; each used to fail deep in
    # the code with exit 1
    @pytest.mark.parametrize("command, flag", [
        ("train", "--k"), ("train", "--budget"), ("train", "--b"),
        ("compare", "--repeats"), ("compare", "--b-types"), ("compare", "--b-partof"),
        ("verify", "--gradcheck-trials"), ("verify", "--kernel-widths"),
    ])
    def test_zero_count_usage_error(self, dataset_path, tmp_path, capsys, command, flag):
        args = {"train": ["train", "--model", "ltn", "--task", "types"],
                "compare": ["compare"], "verify": ["verify"]}[command]
        if command != "verify":
            args = args + ["--data", str(dataset_path), "-o", str(tmp_path / "out.json")]
        assert run_cli(args + [flag, "0"]) == 2
        assert f"argument {flag}: must be >= 1, got 0" in capsys.readouterr().err

    # values the commands used to reject only at run time, with exit 1
    @pytest.mark.parametrize("args, message", [
        (["params", "--n", "1"], "argument --n: must be >= 2"),
        (["params", "--n", "0"], "argument --n: must be >= 2"),
        (["verify", "--kernel-widths", "abc"], "argument --kernel-widths: invalid width_list value: 'abc'"),
        (["verify", "--kernel-widths", "100,,1000"], "argument --kernel-widths: invalid width_list value"),
        (["verify", "--kernel-widths", "100,-5"], "argument --kernel-widths: must be >= 1, got -5"),
        (["gen-synth", "--scenes", "5", "--noise", "nan", "-o", "x.json"], "argument --noise: must be finite, got nan"),
        (["gen-synth", "--scenes", "5", "--noise", "inf", "-o", "x.json"], "argument --noise: must be finite, got inf"),
        (["gen-synth", "--scenes", "5", "--jitter", "nan", "-o", "x.json"], "argument --jitter: must be finite, got nan"),
        (["gen-synth", "--scenes", "5", "--neg-ratio", "inf", "-o", "x.json"],
         "argument --neg-ratio: must be finite, got inf"),
        (["gen-synth", "--scenes", "5", "--neg-ratio", "nan", "-o", "x.json"],
         "argument --neg-ratio: must be finite, got nan"),
        (["train", "--model", "rwfn", "--task", "types", "--data", "d.json", "--split-ratio", "nan", "-o", "m.json"],
         "argument --split-ratio: must be finite and in (0, 1), got nan"),
        (["compare", "--data", "d.json", "--split-ratio", "1.5", "-o", "c.json"],
         "argument --split-ratio: must be finite and in (0, 1), got 1.5"),
        (["ablate", "--data", "d.json", "--split-ratio", "0", "-o", "a.json"],
         "argument --split-ratio: must be finite and in (0, 1), got 0"),
        (["train", "--model", "ltn", "--task", "partof", "--data", "d.json", "--split-ratio", "inf", "-o", "m.json"],
         "argument --split-ratio: must be finite and in (0, 1), got inf"),
    ], ids=["n-1", "n-0", "widths-abc", "widths-empty", "widths-negative", "noise-nan", "noise-inf", "jitter-nan",
            "neg-ratio-inf", "neg-ratio-nan", "split-ratio-nan", "split-ratio-1.5", "split-ratio-0",
            "split-ratio-inf"])
    def test_malformed_value_usage_error(self, capsys, args, message):
        assert run_cli(args) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [("--l2", "inf"), ("--lr", "nan")])
    def test_non_finite_hyperparameter_usage_error(self, dataset_path, tmp_path, flag, value):
        assert run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(dataset_path), flag, value,
                        "-o", str(tmp_path / "m.json")]) == 2

    def test_eval_unlabeled_records_runtime_error(self, dataset_path, tmp_path):
        model = tmp_path / "m.json"
        assert run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(dataset_path), "--b", "8",
                        "--epochs", "2", "--budget", "100", "--seed", "0",
                        "-o", str(model)]) == 0
        stripped = json.loads(dataset_path.read_text())
        for rec in stripped["records"]:
            rec["labels"] = []
        bad = tmp_path / "unlabeled.json"
        bad.write_text(json.dumps(stripped))
        assert run_cli(["eval", "--model", str(model), "--data", str(bad),
                        "-o", str(tmp_path / "r.json")]) == 1

    def test_failed_fit_runtime_error(self, dataset_path, tmp_path, capsys):
        # a finite but huge L2 weight times the NTN's initial squared norm
        # overflows the first loss to inf, which training rejects
        code = run_cli(["train", "--model", "ltn", "--task", "types",
                        "--data", str(dataset_path), "--epochs", "2",
                        "--l2", "1e308", "-o", str(tmp_path / "m.json")])
        assert code == 1
        assert "error: non-finite loss" in capsys.readouterr().err

    def test_non_finite_feature_runtime_error(self, dataset_path, tmp_path, capsys):
        obj = json.loads(dataset_path.read_text())
        obj["records"][0]["features"][0] = float("nan")
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(obj))
        code = run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(bad), "--b", "8", "--epochs", "2",
                        "-o", str(tmp_path / "m.json")])
        assert code == 1
        assert "non-finite feature" in capsys.readouterr().err

    # each used to exit 1 with numpy's "expected non-negative integer"
    @pytest.mark.parametrize("command, seed", [("gen-synth", "-1"), ("train", "-5"), ("compare", "-5"),
                                               ("ablate", "-5")])
    def test_negative_seed_usage_error(self, dataset_path, tmp_path, capsys, command, seed):
        args = {"gen-synth": ["gen-synth", "--scenes", "5"],
                "train": ["train", "--model", "rwfn", "--task", "types", "--data", str(dataset_path)],
                "compare": ["compare", "--data", str(dataset_path)],
                "ablate": ["ablate", "--data", str(dataset_path)]}[command]
        assert run_cli(args + ["--seed", seed, "-o", str(tmp_path / "out.json")]) == 2
        assert f"argument --seed: must be >= 0, got {seed}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_missing_dataset_runtime_error(self, tmp_path):
        assert run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(tmp_path / "nope.json"),
                        "-o", str(tmp_path / "m.json")]) == 1


class TestCompareAblate:
    def test_compare_rows(self, dataset_path, tmp_path):
        out = tmp_path / "cmp.json"
        code = run_cli(["compare", "--data", str(dataset_path), "--repeats", "1",
                        "--epochs", "5", "--budget", "100", "--b-types", "8",
                        "--b-partof", "8", "--k", "2", "-o", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert [r["model"] for r in report["rows"]] == ["ltn", "rwfn", "rwfn-shared", "ir-baseline"]
        assert (tmp_path / "cmp.txt").exists()

    def test_compare_reruns_byte_identical(self, dataset_path, tmp_path):
        outs = [tmp_path / tag / "cmp.json" for tag in ("a", "b")]
        for out in outs:
            assert run_cli(["compare", "--data", str(dataset_path), "--models", "rwfn-shared,ltn",
                            "--repeats", "1", "--epochs", "2", "--budget", "100", "--b-types", "8",
                            "--b-partof", "8", "--k", "2", "-o", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        # the wall times live in the manifest and the table
        mean_ms = json.loads(outs[0].with_suffix(".json.manifest.json").read_text())["mean_ms"]
        assert {name: sorted(ms) for name, ms in mean_ms.items()} == {"rwfn-shared": ["types"],
                                                                    "ltn": ["partof", "types"]}
        assert all(ms > 0 for row in mean_ms.values() for ms in row.values())
        assert "T1 ms" in outs[0].with_suffix(".txt").read_text()

    @pytest.mark.parametrize("models, reason", [
        ("foo", "'foo' is not a model"),
        ("ltn,ltn", "models repeat a name: ltn,ltn"),
        ("ir-baseline", "'ir-baseline' is always included"),
        ("", "'' is not a model"),
    ])
    def test_bad_models_usage_error(self, dataset_path, tmp_path, capsys, models, reason):
        out = tmp_path / "cmp.json"
        assert run_cli(["compare", "--data", str(dataset_path), "--models", models, "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert reason in err and "ltn, rwfn, rwfn-shared, rwfn-albm, rwfn-rff" in err
        assert not out.exists()

    def test_compare_table_suffix_usage_error(self, dataset_path, tmp_path, capsys):
        # the table goes to the report's path with the suffix .txt, for
        # compare and for ablate, which runs compare
        out = tmp_path / "r.txt"
        for command in ("compare", "ablate"):
            assert run_cli([command, "--data", str(dataset_path), "--epochs", "1", "-o", str(out)]) == 2
            assert f"{command} would write its report to {out} and its table to {out}, the same file" in \
                capsys.readouterr().err
            assert list(tmp_path.iterdir()) == []

    def test_compare_writes_report_and_table(self, dataset_path, tmp_path):
        out = tmp_path / "r.json"
        assert run_cli(["compare", "--data", str(dataset_path), "--repeats", "1", "--epochs", "1",
                        "--budget", "100", "--b-types", "8", "--b-partof", "8", "--models", "ltn",
                        "-o", str(out)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["r.json", "r.json.manifest.json", "r.txt"]
        assert json.loads(out.read_text())["rows"][-1]["model"] == "ir-baseline"
        assert "ltn" in (tmp_path / "r.txt").read_text()
        artifacts = json.loads((tmp_path / "r.json.manifest.json").read_text())["artifacts"]
        assert artifacts == {"report": str(out), "table": str(tmp_path / "r.txt")}
        assert_artifact_digests(tmp_path / "r.json.manifest.json")

    def test_ablate_has_no_ntn_width(self, dataset_path, tmp_path, capsys):
        out = tmp_path / "abl.json"
        assert run_cli(["ablate", "--data", str(dataset_path), "--k", "2", "-o", str(out)]) == 2
        assert "unrecognized arguments: --k 2" in capsys.readouterr().err
        assert not out.exists()

    def test_ablate_rows(self, dataset_path, tmp_path):
        out = tmp_path / "abl.json"
        code = run_cli(["ablate", "--data", str(dataset_path), "--epochs", "5",
                        "--budget", "100", "--b-types", "8", "--b-partof", "8",
                        "-o", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 4
        assert [r["model"] for r in rows] == ["rwfn-albm", "rwfn-rff", "rwfn", "ir-baseline"]

    def test_ablate_is_compare_over_the_ablation_models(self, dataset_path, tmp_path):
        flags = ["--data", str(dataset_path), "--epochs", "3", "--budget", "100", "--b-types", "8",
                 "--b-partof", "8", "--seed", "4"]
        abl, cmp = tmp_path / "abl" / "r.json", tmp_path / "cmp" / "r.json"
        assert run_cli(["ablate", *flags, "-o", str(abl)]) == 0
        assert run_cli(["compare", *flags, "--models", "rwfn-albm,rwfn-rff,rwfn", "--repeats", "1",
                        "-o", str(cmp)]) == 0
        assert abl.read_bytes() == cmp.read_bytes()

        def rows(table):
            """The table's model rows without their two wall-ms cells, and its paired rows."""
            model_rows, _, paired = table.partition("\n\n")
            return [line.split()[:-2] for line in model_rows.splitlines()[2:]], paired

        abl_rows = rows(abl.with_suffix(".txt").read_text())
        assert [r[0] for r in abl_rows[0]] == ["rwfn-albm", "rwfn-rff", "rwfn", "ir-baseline"]
        assert abl_rows == rows(cmp.with_suffix(".txt").read_text())
        manifest = json.loads(abl.with_suffix(".json.manifest.json").read_text())
        assert manifest["artifacts"] == {"report": str(abl), "table": str(abl.with_suffix(".txt"))}
        assert sorted(manifest["mean_ms"]) == ["rwfn", "rwfn-albm", "rwfn-rff"]
        assert_artifact_digests(abl.with_suffix(".json.manifest.json"))


class TestVerify:
    def test_quick_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run_cli(["verify", "--kernel-widths", "100,400",
                        "--gradcheck-trials", "3", "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[OK]" in printed and "[FAIL]" not in printed
        assert "[OK] stacked ntn gradient vs finite differences" in printed
        report = json.loads(out.read_text())
        assert report["passed"] is True


class TestParams:
    def test_reference_counts_printed(self, capsys):
        assert run_cli(["params", "--n", "64", "--b", "200", "--k", "6"]) == 0
        out = capsys.readouterr().out
        assert "total=24972" in out
        assert "total=26200" in out
        assert "400:24972" in out

    def test_defaults_are_the_type_task_widths(self):
        args = build_parser().parse_args(["params"])
        assert (args.b, args.k) == (DEFAULT_B_TYPES, DEFAULT_K)


# each command's config fields that no flag sets, and the values its argv
# gives (gen-synth's --scenes is required)
@pytest.mark.parametrize("argv, config, unset, given", [
    (["gen-synth", "--scenes", "1", "-o", "d.json"], SyntheticConfig, {"overlap_fraction"}, {"num_scenes": 1}),
    (["train", "--model", "rwfn", "--task", "types", "--data", "d.json", "-o", "m.json"], TrainConfig,
     {"rmsprop_decay", "rmsprop_eps"}, {}),
    (["compare", "--data", "d.json", "-o", "r.json"], TrainConfig, {"rmsprop_decay", "rmsprop_eps"}, {}),
    (["ablate", "--data", "d.json", "-o", "r.json"], TrainConfig, {"rmsprop_decay", "rmsprop_eps"}, {}),
], ids=["gen-synth", "train", "compare", "ablate"])
def test_parser_defaults_are_the_config_defaults(argv, config, unset, given):
    args = vars(build_parser().parse_args(argv))
    fields = {f.name: given.get(f.name, f.default) for f in dataclasses.fields(config)}
    assert fields.keys() & args.keys() == fields.keys() - unset
    assert {name: args[name] for name in fields.keys() & args.keys()} == {
        name: value for name, value in fields.items() if name not in unset}
    if argv[0] != "gen-synth":
        # train leaves k unset, so that main can refuse it for rwfn, then
        # resolves it to DEFAULT_K (test_train_manifest_records_the_k_used)
        assert args["k"] == (None if argv[0] == "train" else DEFAULT_K)


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "rwfn.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
