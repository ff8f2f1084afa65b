import json
import os
import platform
import subprocess
import sys

import numpy as np
import pytest

from rwfn.cli import main


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


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "ds.json"
    code = run_cli(["gen-synth", "--scenes", "40", "--wholes", "2", "--noise", "0.1",
                    "--neg-ratio", "1.5", "--seed", "7", "-o", str(path)])
    assert code == 0
    return path


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

    def test_missing_output_usage_error(self):
        assert run_cli(["gen-synth", "--scenes", "5"]) == 2

    def test_zero_scenes_usage_error(self):
        assert run_cli(["gen-synth", "--scenes", "0", "-o", "x.json"]) == 2


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
        assert plan["quantifiers"] == [
            {"formula": first + i, "variables": ["x", "y"], "instantiations": 100, "sampled": True}
            for i in range(5)
        ]
        assert plan["groups"] == 4
        assert plan["hidden_cache_bytes"] == plan["atoms"]["partOf"] * 16 * 8  # 2B features at B=8
        for artifact in (model, tmp_path / "m.json.trace.json"):
            assert "plans" not in artifact.read_text()
            assert "environment" not in artifact.read_text()

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

    def test_unknown_model_usage_error(self, dataset_path, tmp_path):
        assert run_cli(["train", "--model", "svm", "--task", "types",
                        "--data", str(dataset_path), "-o", str(tmp_path / "m.json")]) == 2

    def test_zero_epochs_usage_error(self, dataset_path, tmp_path):
        assert run_cli(["train", "--model", "rwfn", "--task", "types",
                        "--data", str(dataset_path), "--epochs", "0",
                        "-o", str(tmp_path / "m.json")]) == 2

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

    def test_ablate_rows(self, dataset_path, tmp_path):
        out = tmp_path / "abl.json"
        code = run_cli(["ablate", "--data", str(dataset_path), "--epochs", "5",
                        "--budget", "100", "--b-types", "8", "--b-partof", "8",
                        "-o", str(out)])
        assert code == 0
        rows = json.loads(out.read_text())["rows"]
        assert len(rows) == 3


class TestVerify:
    def test_quick_verify_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.json"
        code = run_cli(["verify", "--kernel-widths", "100,400",
                        "--gradcheck-trials", "3", "-o", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "[OK]" in printed and "[FAIL]" not in printed
        report = json.loads(out.read_text())
        assert report["passed"] is True


class TestParams:
    def test_reference_counts_printed(self, capsys):
        assert run_cli(["params", "--n", "64", "--b", "200", "--k", "6"]) == 0
        out = capsys.readouterr().out
        assert "total=24972" in out
        assert "total=26200" in out
        assert "400:24972" in out


def test_console_script_entrypoint():
    proc = subprocess.run([sys.executable, "-m", "rwfn.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
