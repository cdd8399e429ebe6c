from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from ruinscore.cli import load_config_file, main
from ruinscore.dataset_io import LEVEL_BY_LABEL, load_manifest
from ruinscore.errors import SchemaViolation
from ruinscore.evaluate import compute_metrics, confusion_matrix
from ruinscore.fusion import DecisionMode

from helpers import write_dataset


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]


@pytest.fixture
def fixture3(fixtures_dir) -> Path:
    return fixtures_dir / "fixture3" / "manifest.json"


class TestAssess:
    def test_empty_manifest(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "d", [])
        code, out, _ = run(capsys, "assess", "--manifest", str(path))
        assert code == 0
        assert out == ""

    def test_golden_three_image_fixture(self, fixture3, fixtures_dir, tmp_path, capsys):
        out_path = tmp_path / "a.jsonl"
        code, _, _ = run(
            capsys, "assess", "--manifest", str(fixture3), "--out", str(out_path)
        )
        assert code == 0
        got = jsonl(out_path)
        golden = jsonl(fixtures_dir / "fixture3" / "golden_assess.jsonl")
        assert got == golden
        assert [r["final"] for r in got] == ["zero", "slight", "heavy"]

    def test_missing_damage_file_names_image(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "d", [{"id": "broken", "scene": "outside"}])
        code, _, err = run(capsys, "assess", "--manifest", str(path))
        assert code == 1
        payload = json.loads(err.strip().splitlines()[-1])
        assert payload["error"] == "MissingEvidence"
        assert payload["image_id"] == "broken"

    def test_keep_going_skips_and_continues(self, tmp_path, capsys):
        path = write_dataset(
            tmp_path / "d",
            [
                {"id": "ok1", "scene": "outside", "damage": ""},
                {"id": "broken", "scene": "outside"},
                {"id": "ok2", "scene": "outside", "damage": "0 0.5 0.5 0.1 0.1 0.9\n"},
            ],
        )
        code, out, err = run(capsys, "assess", "--manifest", str(path), "--keep-going")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["image_id"] for r in records] == ["ok1", "ok2"]
        assert "broken" in err

    def test_byte_identical_runs(self, fixture3, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(capsys, "assess", "--manifest", str(fixture3), "--out", str(a))[0] == 0
        assert run(capsys, "assess", "--manifest", str(fixture3), "--out", str(b))[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_jobs_preserve_manifest_order(self, tmp_path, capsys):
        images = [
            {"id": f"img{i:03d}", "scene": "outside", "damage": "0 0.5 0.5 0.1 0.1 0.9\n"}
            for i in range(40)
        ]
        path = write_dataset(tmp_path / "d", images)
        code, out, _ = run(capsys, "assess", "--manifest", str(path), "--jobs", "4")
        assert code == 0
        ids = [json.loads(line)["image_id"] for line in out.splitlines()]
        assert ids == [img["id"] for img in images]

    def test_external_backend_through_cli(self, tmp_path, stub, capsys):
        path = write_dataset(
            tmp_path / "d", [{"id": "a", "image_path": "/fake.jpg"}]
        )
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps({"backend": {"command": [sys.executable, stub("echo_backend")]}})
        )
        code, out, _ = run(
            capsys,
            "assess",
            "--manifest",
            str(path),
            "--backend",
            "external",
            "--config",
            str(config),
        )
        assert code == 0
        (record,) = [json.loads(line) for line in out.splitlines()]
        assert record["scene"]["class"] == "outside"
        assert record["counts"]["n_crack"] == 1

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([], "$"),
            ({"format": "ruinscore-gbdt-v1", "feature_layout": "v1", "dim": 18,
              "learning_rate": 0.1, "max_depth": 3, "degenerate": False,
              "base_scores": [0.0, 0.0, 0.0, 0.0]}, "trees"),
        ],
    )
    def test_malformed_model_file_is_schema_error(self, fixture3, tmp_path, capsys, payload, field):
        model = tmp_path / "model.json"
        model.write_text(json.dumps(payload))
        code, _, err = run(
            capsys, "assess", "--manifest", str(fixture3), "--meta-model", str(model)
        )
        assert code == 1
        error = json.loads(err.strip())
        assert error["error"] == "SchemaViolation"
        assert error["detail"].startswith(f"schema violation at {field}:")

    def test_meta_mode_without_model_fails(self, fixture3, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"decision_mode": "meta_only"}))
        code, _, err = run(
            capsys, "assess", "--manifest", str(fixture3), "--config", str(config)
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "MissingMeta"


class TestEvaluate:
    def test_perfect_scores(self, fixture3, tmp_path, capsys):
        # pretend predictions equal to ground truth
        manifest = load_manifest(fixture3)
        a = tmp_path / "a.jsonl"
        with a.open("w") as f:
            for e in manifest.images:
                f.write(json.dumps({"image_id": e.id, "final": e.ground_truth_level.label}) + "\n")
        code, out, _ = run(
            capsys, "evaluate", "--assessments", str(a), "--manifest", str(fixture3)
        )
        assert code == 0
        assert "Accuracy (%): 100.00" in out
        assert "± 1 Accuracy: 100.00" in out

    def test_one_off_by_one_in_four(self, tmp_path, capsys):
        images = [{"id": f"i{k}", "gt": k, "scene": "outside", "damage": ""} for k in range(4)]
        path = write_dataset(tmp_path / "d", images)
        a = tmp_path / "a.jsonl"
        preds = ["zero", "slight", "slight", "heavy"]  # one off-by-one error
        with a.open("w") as f:
            for img, pred in zip(images, preds):
                f.write(json.dumps({"image_id": img["id"], "final": pred}) + "\n")
        code, out, _ = run(capsys, "evaluate", "--assessments", str(a), "--manifest", str(path))
        assert code == 0
        assert "Accuracy (%): 75.00" in out
        assert "± 1 Accuracy: 100.00" in out

    def test_no_ground_truth_anywhere(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "d", [{"id": "a", "scene": "outside", "damage": ""}])
        a = tmp_path / "a.jsonl"
        a.write_text(json.dumps({"image_id": "a", "final": "zero"}) + "\n")
        code, _, err = run(capsys, "evaluate", "--assessments", str(a), "--manifest", str(path))
        assert code == 1
        assert json.loads(err.strip())["error"] == "NoGroundTruth"

    def test_json_report_round_trip(self, fixture3, tmp_path, capsys):
        out_path = tmp_path / "a.jsonl"
        run(capsys, "assess", "--manifest", str(fixture3), "--out", str(out_path))
        code, out, _ = run(
            capsys,
            "evaluate",
            "--assessments",
            str(out_path),
            "--manifest",
            str(fixture3),
            "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["format"] == "ruinscore-report-v1"
        # gt (0, 2, 3) vs predictions (0, 1, 3): one off-by-one miss
        assert payload["exact_accuracy"] == pytest.approx(2 / 3)
        assert payload["plus_minus_one_accuracy"] == 1.0

    def test_composition_identity_with_library_path(self, fixture3, tmp_path, capsys):
        out_path = tmp_path / "a.jsonl"
        run(capsys, "assess", "--manifest", str(fixture3), "--out", str(out_path))
        code, out, _ = run(
            capsys,
            "evaluate",
            "--assessments",
            str(out_path),
            "--manifest",
            str(fixture3),
            "--json",
        )
        manifest = load_manifest(fixture3)
        truth = {e.id: e.ground_truth_level for e in manifest.images}
        pairs = [
            (truth[r["image_id"]], LEVEL_BY_LABEL[r["final"]]) for r in jsonl(out_path)
        ]
        direct = compute_metrics(confusion_matrix(pairs), config_tag="assess")
        assert json.loads(out)["exact_accuracy"] == direct.exact_accuracy
        assert json.loads(out)["matrix"] == [list(r) for r in direct.matrix.counts]


class TestTrainMeta:
    def test_meta_models_on_noise_free_synthetic(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen-synthetic", "--seed", "3", "--n", "500", "--out", str(tmp_path / "d")
        )
        assert code == 0
        manifest = str(tmp_path / "d" / "manifest.json")

        def train(kind: str) -> float:
            model_path = tmp_path / f"{kind}.json"
            code, out, _ = run(
                capsys, "train-meta", "--manifest", manifest,
                "--kind", kind, "--out", str(model_path),
            )
            assert code == 0
            assert json.loads(model_path.read_text())["format"] == f"ruinscore-{kind}-v1"
            return float(out.split("training_accuracy=")[1].split()[0])

        logreg_accuracy = train("logreg")
        assert logreg_accuracy >= 0.95
        assert train("gbdt") >= logreg_accuracy

    def test_bad_kind_is_usage_error(self, fixture3, capsys):
        code, _, err = run(
            capsys, "train-meta", "--manifest", str(fixture3), "--kind", "nope", "--out", "x"
        )
        assert code == 2

    def test_no_labels_degenerate(self, tmp_path, capsys):
        path = write_dataset(tmp_path / "d", [{"id": "a", "scene": "outside", "damage": ""}])
        code, _, err = run(
            capsys,
            "train-meta",
            "--manifest",
            str(path),
            "--kind",
            "gbdt",
            "--out",
            str(tmp_path / "m.json"),
        )
        assert code == 1
        assert json.loads(err.strip().splitlines()[-1])["error"] == "DegenerateData"


class TestFuse:
    def test_rebar_forces_heavy(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 0.5 0.5 0.2 0.2 0.9\n")
        code, out, _ = run(capsys, "fuse", "--detections", str(f))
        assert code == 0
        assert out.splitlines()[0] == "heavy (rebar_forced)"

    def test_empty_file_zero(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("")
        code, out, _ = run(capsys, "fuse", "--detections", str(f))
        assert code == 0
        assert out.splitlines()[0] == "zero (S=0.0)"

    def test_mixed_medium(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text(
            "0 0.3 0.3 0.1 0.1 0.8\n1 0.5 0.5 0.1 0.1 0.8\n1 0.7 0.7 0.1 0.1 0.8\n"
        )
        code, out, _ = run(capsys, "fuse", "--detections", str(f))
        assert code == 0
        assert out.splitlines()[0] == "medium (S=5.0)"
        assert "counts: crack=1 spall=2" in out

    def test_v2_lone_rebar_demoted(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("2 0.5 0.5 0.2 0.2 0.9\n")
        code, out, _ = run(capsys, "fuse", "--detections", str(f), "--version", "v2")
        assert code == 0
        first = out.splitlines()[0]
        assert first.startswith("slight")
        assert "rebar-demoted" in out

    def test_json_detections(self, tmp_path, capsys):
        f = tmp_path / "d.json"
        f.write_text(
            json.dumps(
                {
                    "detections": [
                        {"class": "crack", "box": [0.3, 0.3, 0.1, 0.1], "confidence": 0.8},
                        {"class": "spalling", "box": [0.5, 0.5, 0.1, 0.1], "confidence": 0.8},
                        {"class": "spalling", "box": [0.7, 0.7, 0.1, 0.1]},
                    ]
                }
            )
        )
        code, out, _ = run(capsys, "fuse", "--detections", str(f))
        assert code == 0
        assert out.splitlines()[0] == "medium (S=5.0)"
        assert "counts: crack=1 spall=2" in out

    def test_parse_error_propagates(self, tmp_path, capsys):
        f = tmp_path / "d.txt"
        f.write_text("0 0.5 0.5 0.0 0.1\n")
        code, _, err = run(capsys, "fuse", "--detections", str(f))
        assert code == 1
        assert json.loads(err.strip())["error"] == "BadLine"


class TestConfigHandling:
    def test_env_var_fallback(self, fixture3, tmp_path, capsys, monkeypatch):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"version": "v2"}))
        monkeypatch.setenv("RUINSCORE_CONFIG", str(config))
        f = tmp_path / "d.txt"
        f.write_text("2 0.5 0.5 0.2 0.2 0.9\n")
        code, out, _ = run(capsys, "fuse", "--detections", str(f))
        assert code == 0
        # v2 from the env config demotes the lone rebar
        assert out.splitlines()[0].startswith("slight")

    def test_backend_section_split_off(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(
            json.dumps(
                {"conf_floor": 0.1, "backend": {"command": ["prog", "arg"], "timeout_s": 5}}
            )
        )
        config, backend_cfg = load_config_file(p)
        assert config.conf_floor == 0.1
        assert backend_cfg.command == ("prog", "arg")
        assert backend_cfg.timeout_s == 5.0

    def test_unknown_backend_key_rejected(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"backend": {"cmd": ["prog"]}}))
        with pytest.raises(SchemaViolation):
            load_config_file(p)

    @pytest.mark.parametrize(
        "text, field",
        [
            ('{"backend": {"command": ["prog"], "timeout_s": NaN}}', "backend.timeout_s"),
            ('{"backend": {"command": ["prog"], "timeout_s": Infinity}}', "backend.timeout_s"),
            ('{"weights": {"w_crack": NaN}}', "weights.w_crack"),
        ],
    )
    def test_non_finite_number_is_structured_error(self, fixture3, tmp_path, capsys, text, field):
        config = tmp_path / "config.json"
        config.write_text(text)
        code, _, err = run(
            capsys, "assess", "--manifest", str(fixture3), "--config", str(config)
        )
        assert code == 1
        assert json.loads(err.strip()) == {
            "error": "SchemaViolation",
            "detail": f"schema violation at {field}: must be finite",
        }

    def test_decision_mode_parsed(self, tmp_path):
        p = tmp_path / "config.json"
        p.write_text(json.dumps({"decision_mode": "hybrid", "hybrid_prob_gate": 0.8}))
        config, _ = load_config_file(p)
        assert config.decision_mode is DecisionMode.HYBRID
        assert config.hybrid_prob_gate == 0.8


class TestGenSynthetic:
    def test_writes_dataset(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "gen-synthetic", "--seed", "1", "--n", "15", "--out", str(tmp_path / "d")
        )
        assert code == 0
        manifest = load_manifest(tmp_path / "d" / "manifest.json")
        assert len(manifest.images) == 15

    def test_bad_priors_rejected(self, tmp_path, capsys):
        code, _, err = run(
            capsys,
            "gen-synthetic",
            "--seed",
            "1",
            "--n",
            "5",
            "--out",
            str(tmp_path / "d"),
            "--level-priors",
            "1,1,1,1",
        )
        assert code == 1

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "gen-synthetic", "--seed", "1")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        for jobs in ("0", "-3"):
            assert run(capsys, "assess", "--manifest", "m.json", "--jobs", jobs)[0] == 2
