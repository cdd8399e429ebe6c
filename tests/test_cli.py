from __future__ import annotations

import io
import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from ruinscore import cli, meta
from ruinscore.backend import FileBackend, run_cascade
from ruinscore.cli import load_config_file, main
from ruinscore.dataset_io import LEVEL_BY_LABEL, load_manifest
from ruinscore.errors import SchemaViolation
from ruinscore.evaluate import compute_metrics, confusion_matrix, parse_report
from ruinscore.fusion import DecisionMode, FusionConfig, final_decision, rule_fusion

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

    def test_external_timeout_does_not_shift_replies(self, tmp_path, stub, capsys):
        images = [{"id": i, "image_path": f"frames/{i}.jpg"} for i in ("a", "bb", "ccc")]
        path = write_dataset(tmp_path / "d", images)
        (tmp_path / "d" / "frames").mkdir()
        for img in images:
            (tmp_path / "d" / img["image_path"]).write_bytes(b"")
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stalled")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": command, "timeout_s": 2.0}}))
        code, out, err = run(
            capsys, "assess", "--manifest", str(path), "--backend", "external",
            "--config", str(config), "--keep-going",
        )
        assert code == 0
        assert err.splitlines() == ["skip a: Timeout: backend did not answer within 2.0 s"]
        records = [json.loads(line) for line in out.splitlines()]
        # each reply names its image: one crack per letter of the stem, and the
        # scene is inside only if the path resolved against the manifest dir
        assert [(r["image_id"], r["counts"]["n_crack"], r["scene"]["class"]) for r in records] == [
            ("bb", 2, "inside"),
            ("ccc", 3, "inside"),
        ]

    def test_external_exit_restarts_the_child(self, tmp_path, stub, capsys):
        images = [{"id": i, "image_path": f"{i}.jpg"} for i in ("a", "bb", "ccc")]
        path = write_dataset(tmp_path / "d", images)
        command = [sys.executable, stub("misbehave_once_backend"), "exit", str(tmp_path / "seen")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": command, "timeout_s": 10.0}}))
        code, out, err = run(
            capsys, "assess", "--manifest", str(path), "--backend", "external",
            "--config", str(config), "--keep-going",
        )
        assert code == 0
        # the child exits after a's scene reply; only a's next request hits the exit
        assert err.splitlines() == ["skip a: ProcessExited: backend process exited with code 0"]
        records = [json.loads(line) for line in out.splitlines()]
        assert [(r["image_id"], r["counts"]["n_crack"]) for r in records] == [("bb", 2), ("ccc", 3)]

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

    def test_model_dimension_checked_before_any_image(self, fixture3, tmp_path, capsys):
        model = tmp_path / "model.json"
        meta.save_model(
            meta.GbdtModel(trees=[], base_scores=np.zeros(4), learning_rate=0.1,
                           max_depth=3, dim=2),
            model,
        )
        code, out, err = run(
            capsys, "assess", "--manifest", str(fixture3), "--meta-model", str(model),
            "--keep-going",
        )
        assert code == 1
        assert out == ""
        assert json.loads(err.strip())["error"] == "DimensionMismatch"

    def test_meta_mode_without_model_fails(self, fixture3, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"decision_mode": "meta_only"}))
        code, _, err = run(
            capsys, "assess", "--manifest", str(fixture3), "--config", str(config)
        )
        assert code == 1
        assert json.loads(err.strip())["error"] == "MissingMeta"


@pytest.fixture(scope="module")
def chunked_corpus(tmp_path_factory):
    """A hybrid config, a gbdt model, and a synthetic manifest of a bit over
    two chunks whose damage files are missing at the chunk edges."""
    root = tmp_path_factory.mktemp("chunked")
    assert main(["gen-synthetic", "--seed", "3", "--n", "200", "--out", str(root / "train")]) == 0
    model = root / "gb.json"
    assert main(
        ["train-meta", "--manifest", str(root / "train" / "manifest.json"), "--kind", "gbdt",
         "--rounds", "10", "--out", str(model)]
    ) == 0
    n = 2 * cli.CHUNK_SIZE + 10
    assert main(["gen-synthetic", "--seed", "5", "--n", str(n), "--out", str(root / "data"),
                 "--false-positive-rate", "0.2"]) == 0
    manifest = root / "data" / "manifest.json"
    entries = json.loads(manifest.read_text())["images"]
    broken = [cli.CHUNK_SIZE - 1, cli.CHUNK_SIZE, 2 * cli.CHUNK_SIZE - 1, 2 * cli.CHUNK_SIZE]
    for i in broken:
        (root / "data" / entries[i]["damage_file"]).unlink()
    config = root / "config.json"
    config.write_text(json.dumps({"version": "v2", "decision_mode": "hybrid"}))
    ids = [e["id"] for e in entries]
    return {"manifest": manifest, "model": model, "config": config, "ids": ids,
            "broken": [ids[i] for i in broken]}


def assess_chunked(capsys, corpus, *extra) -> tuple[int, str, str]:
    return run(
        capsys, "assess", "--manifest", str(corpus["manifest"]), "--config", str(corpus["config"]),
        "--meta-model", str(corpus["model"]), *extra,
    )


class TestChunkedAssess:
    def test_jobs_byte_identical_with_skips_at_chunk_edges(self, chunked_corpus, capsys):
        runs = [
            assess_chunked(capsys, chunked_corpus, "--keep-going", "--jobs", jobs)
            for jobs in ("1", "3")
        ]
        assert runs[0] == runs[1]
        code, out, err = runs[0]
        assert code == 0
        assert [line.split(":")[0] for line in err.splitlines()] == [
            f"skip {i}" for i in chunked_corpus["broken"]
        ]
        ids = [json.loads(line)["image_id"] for line in out.splitlines()]
        assert ids == [i for i in chunked_corpus["ids"] if i not in chunked_corpus["broken"]]

    def test_batched_probs_equal_one_row_predict(self, chunked_corpus, capsys):
        code, out, _ = assess_chunked(capsys, chunked_corpus, "--keep-going")
        assert code == 0
        manifest = load_manifest(chunked_corpus["manifest"])
        entries = {e.id: e for e in manifest.images}
        model = meta.load_model(chunked_corpus["model"])
        config = FusionConfig.from_dict({"version": "v2", "decision_mode": "hybrid"})
        backend = FileBackend(manifest)
        for line in out.splitlines():
            record = json.loads(line)
            cascade = run_cascade(entries[record["image_id"]], backend)
            rule = rule_fusion(cascade, config)
            probs = meta.predict_gbdt(model, meta.extract_features(cascade, rule, config))
            assert record["meta"]["probs"] == list(probs)
            assert record["final"] == final_decision(rule, probs, config).label

    @pytest.mark.parametrize("jobs", ["1", "3"])
    def test_failure_writes_earlier_records_then_error(self, chunked_corpus, capsys, jobs):
        code, out, err = assess_chunked(capsys, chunked_corpus, "--jobs", jobs)
        assert code == 1
        first_broken = chunked_corpus["ids"].index(chunked_corpus["broken"][0])
        ids = [json.loads(line)["image_id"] for line in out.splitlines()]
        assert ids == chunked_corpus["ids"][:first_broken]
        error = json.loads(err.strip())
        assert (error["error"], error["image_id"]) == ("MissingFile", chunked_corpus["broken"][0])

    @pytest.mark.parametrize("jobs", ["1", "2", "4"])
    def test_in_flight_entries_bounded_by_one_chunk(self, tmp_path, monkeypatch, jobs):
        images = [
            {"id": f"img{i:03d}", "scene": "outside", "damage": "0 0.5 0.5 0.1 0.1 0.9\n"}
            for i in range(2 * cli.CHUNK_SIZE + 5)
        ]
        path = write_dataset(tmp_path / "d", images)
        lock = threading.Lock()
        counts = {"started": 0, "written": 0, "max_in_flight": 0}

        class CountingStream(io.StringIO):
            def write(self, text):
                with lock:
                    counts["written"] += text.count("\n")
                return super().write(text)

        def counting_cascade(entry, backend):
            with lock:
                counts["started"] += 1
                in_flight = counts["started"] - counts["written"]
                counts["max_in_flight"] = max(counts["max_in_flight"], in_flight)
            return run_cascade(entry, backend)

        monkeypatch.setattr(cli, "run_cascade", counting_cascade)
        stream = CountingStream()
        monkeypatch.setattr(sys, "stdout", stream)
        assert main(["assess", "--manifest", str(path), "--jobs", jobs]) == 0
        assert counts["written"] == len(images)
        assert 1 <= counts["max_in_flight"] <= cli.CHUNK_SIZE


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

    @pytest.mark.parametrize("image_id, detail", [
        ("i1", "duplicate image_id 'i1'"),
        (1, "image_id must be a string"),
    ])
    def test_duplicate_or_non_string_image_id_rejected(self, tmp_path, capsys, image_id, detail):
        images = [{"id": f"i{k}", "gt": k, "scene": "outside", "damage": ""} for k in range(3)]
        path = write_dataset(tmp_path / "d", images)
        a = tmp_path / "a.jsonl"
        lines = [{"image_id": "i0", "final": "zero"}, {"image_id": "i1", "final": "slight"},
                 {"image_id": image_id, "final": "slight"}]
        a.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        code, out, err = run(capsys, "evaluate", "--assessments", str(a), "--manifest", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err.strip()) == {
            "error": "SchemaViolation",
            "detail": f"schema violation at line 3: {detail}",
        }

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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--min-leaf", "0"),
            ("--min-leaf", "1.5"),
            ("--max-depth", "0"),
            ("--rounds", "-1"),
            ("--iterations", "-1"),
            ("--learning-rate", "0"),
            ("--learning-rate", "nan"),
            ("--learning-rate", "inf"),
            ("--l2", "-0.5"),
            ("--l2", "nan"),
            ("--reg-lambda", "0"),
            ("--reg-lambda", "-inf"),
        ],
    )
    def test_bad_hyperparameter_is_usage_error(self, fixture3, tmp_path, capsys, flag, value):
        code, _, err = run(
            capsys, "train-meta", "--manifest", str(fixture3), "--kind", "gbdt",
            "--out", str(tmp_path / "m.json"), flag, value,
        )
        assert code == 2
        assert flag in err and "Traceback" not in err
        assert not (tmp_path / "m.json").exists()

    def test_hyperparameter_bounds_are_accepted(self):
        args = cli.build_parser().parse_args(
            ["train-meta", "--manifest", "m", "--kind", "gbdt", "--out", "x", "--rounds", "0",
             "--iterations", "0", "--l2", "0", "--max-depth", "1", "--min-leaf", "1"]
        )
        assert (args.rounds, args.iterations, args.l2, args.max_depth, args.min_leaf) == (
            0, 0, 0.0, 1, 1
        )

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


DEEP = "[" * 100_000 + "]" * 100_000


class TestDeeplyNestedJson:
    """JSON nested deeper than the decoder follows ends in one structured
    error line and exit 1 for every loader, never in a traceback."""

    @staticmethod
    def error_of(capsys, *argv) -> dict:
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.splitlines()
        return json.loads(line)

    @staticmethod
    def deep_file(tmp_path, name, head="") -> str:
        path = tmp_path / name
        path.write_text(head + DEEP + "\n")
        return str(path)

    def test_config(self, fixture3, tmp_path, capsys):
        config = self.deep_file(tmp_path, "config.json")
        assert self.error_of(capsys, "assess", "--manifest", str(fixture3), "--config", config) == {
            "error": "SchemaViolation",
            "detail": "schema violation at $: not valid JSON (nested too deeply)",
        }

    def test_manifest(self, tmp_path, capsys):
        manifest = self.deep_file(tmp_path, "manifest.json")
        assert self.error_of(capsys, "assess", "--manifest", manifest) == {
            "error": "SchemaViolation",
            "detail": "schema violation at $: not valid JSON (nested too deeply)",
        }

    def test_assessments(self, fixture3, tmp_path, capsys):
        record = json.dumps({"image_id": "img_a", "final": "zero"}) + "\n"
        stream = self.deep_file(tmp_path, "a.jsonl", head=record)
        error = self.error_of(
            capsys, "evaluate", "--assessments", stream, "--manifest", str(fixture3)
        )
        assert error == {
            "error": "SchemaViolation",
            "detail": "schema violation at line 2: not valid JSON (nested too deeply)",
        }

    def test_json_detections(self, tmp_path, capsys):
        detections = self.deep_file(tmp_path, "d.json")
        assert self.error_of(capsys, "fuse", "--detections", detections) == {
            "error": "SchemaViolation",
            "detail": "schema violation at $: not valid JSON (nested too deeply)",
        }

    def test_model_file(self, fixture3, tmp_path, capsys):
        model = self.deep_file(tmp_path, "model.json")
        error = self.error_of(
            capsys, "assess", "--manifest", str(fixture3), "--meta-model", model
        )
        assert error == {
            "error": "SchemaViolation",
            "detail": "schema violation at $: model file is not valid JSON (nested too deeply)",
        }

    def test_backend_reply(self, tmp_path, stub, capsys):
        path = write_dataset(tmp_path / "d", [{"id": "a", "image_path": "a.jpg"}])
        command = [sys.executable, stub("misbehave_once_backend"), "deep", str(tmp_path / "seen")]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": command}}))
        error = self.error_of(
            capsys, "assess", "--manifest", str(path), "--backend", "external",
            "--config", str(config),
        )
        assert error["error"] == "ProtocolViolation"
        assert error["image_id"] == "a"
        assert error["detail"].startswith("wire protocol violation: response is not JSON: '[[[")

    def test_report(self):
        # evaluate writes reports but never reads one, so parse_report is called directly
        with pytest.raises(SchemaViolation) as exc:
            parse_report(DEEP)
        assert str(exc.value) == (
            "schema violation at $: report is not valid JSON (nested too deeply)"
        )


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
