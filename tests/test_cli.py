from __future__ import annotations

import hashlib
import io
import json
import os
import pkgutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import ruinscore
from ruinscore import cli, meta
from ruinscore.backend import FileBackend, run_cascade
from ruinscore.cli import load_config_file, main
from ruinscore.dataset_io import LEVEL_BY_LABEL, load_manifest
from ruinscore.errors import SchemaViolation
from ruinscore.evaluate import compute_metrics, confusion_matrix
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

    def test_file_backend_runs_serially_whatever_jobs(self, tmp_path, monkeypatch, capsys):
        images = [{"id": f"img{i}", "scene": "outside", "damage": ""} for i in range(5)]
        path = write_dataset(tmp_path / "d", images)
        threads = set()

        def recording_cascade(entry, backend):
            threads.add(threading.current_thread())
            return run_cascade(entry, backend)

        monkeypatch.setattr(cli, "run_cascade", recording_cascade)
        assert run(capsys, "assess", "--manifest", str(path), "--jobs", "4")[0] == 0
        assert threads == {threading.main_thread()}

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

    def test_external_jobs_capped_at_chunk_size(self, tmp_path, stub, monkeypatch, capsys):
        images = [{"id": f"img{i}", "image_path": f"img{i}.jpg"} for i in range(3)]
        path = write_dataset(tmp_path / "d", images)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": [sys.executable, stub("echo_backend")]}}))
        jobs = []

        class Recording(cli.ExternalBackend):
            def __init__(self, *args):
                jobs.append(args[-1])
                super().__init__(*args)

        monkeypatch.setattr(cli, "ExternalBackend", Recording)
        code, out, _ = run(capsys, "assess", "--manifest", str(path), "--backend", "external",
                           "--config", str(config), "--jobs", str(cli.CHUNK_SIZE * 1000))
        assert code == 0
        assert jobs == [cli.CHUNK_SIZE]
        assert [json.loads(line)["image_id"] for line in out.splitlines()] == ["img0", "img1", "img2"]

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
        assert err.splitlines() == [
            '{"error": "Timeout", "detail": "backend did not answer within 2.0 s", "image_id": "a"}'
        ]
        records = [json.loads(line) for line in out.splitlines()]
        # each reply names its image: one crack per letter of the stem, and the
        # scene is inside only if the path resolved against the manifest dir
        assert [(r["image_id"], r["counts"]["n_crack"], r["scene"]["class"]) for r in records] == [
            ("bb", 2, "inside"),
            ("ccc", 3, "inside"),
        ]

    def test_external_timeout_without_keep_going_stops_at_once(self, tmp_path, stub, capsys):
        # the first image's timeout ends the run: the images after it are not
        # asked for again, so the error comes after one timeout, not three
        images = [{"id": i, "image_path": f"{i}.jpg"} for i in ("a", "bb", "ccc")]
        path = write_dataset(tmp_path / "d", images)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"backend": {"command": [sys.executable, stub("sleepy_backend")], "timeout_s": 2.0}}
        ))
        start = time.monotonic()
        code, out, err = run(
            capsys, "assess", "--manifest", str(path), "--backend", "external",
            "--config", str(config), "--jobs", "1",
        )
        assert time.monotonic() - start < 3.5
        assert (code, out) == (1, "")
        error = json.loads(err.strip())
        assert (error["error"], error["image_id"]) == ("Timeout", "a")

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
        assert err.splitlines() == [
            '{"error": "ProcessExited", "detail": "backend process exited with code 0", '
            '"image_id": "a"}'
        ]
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

    def test_out_in_a_missing_directory_is_io_failure(self, fixture3, tmp_path, capsys):
        out_path = tmp_path / "missing" / "a.jsonl"
        code, _, err = run(capsys, "assess", "--manifest", str(fixture3), "--out", str(out_path))
        assert code == 1
        (line,) = err.splitlines()
        assert json.loads(line) == {
            "error": "IoFailure",
            "detail": f"cannot write assessments to {out_path}: "
            f"[Errno 2] No such file or directory: {str(out_path)!r}",
        }

    @pytest.mark.parametrize("argv, what", [
        (["assess", "--manifest", "{manifest}"], "assessments"),
        (["evaluate", "--assessments", "{golden}", "--manifest", "{manifest}"], "report"),
        (["evaluate", "--assessments", "{golden}", "--manifest", "{manifest}", "--json"],
         "report"),
        (["fuse", "--detections", "{labels}"], "fusion result"),
        (["train-meta", "--manifest", "{manifest}", "--kind", "logreg", "--iterations", "5",
          "--out", "{tmp}/model.json"], "training summary"),
        (["gen-synthetic", "--seed", "1", "--n", "2", "--out", "{tmp}/synth"], "summary"),
    ], ids=["assess", "evaluate", "evaluate-json", "fuse", "train-meta", "gen-synthetic"])
    def test_stdout_closed_early_is_io_failure(self, fixture3, tmp_path, argv, what):
        # a pipe whose reader is gone before the first write: `ruinscore ... | head -0`
        paths = {"manifest": fixture3, "golden": fixture3.parent / "golden_assess.jsonl",
                 "labels": fixture3.parent / "labels" / "img_c.txt", "tmp": tmp_path}
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "ruinscore", *(arg.format(**paths) for arg in argv)],
                stdout=write_end, stderr=subprocess.PIPE, text=True, env=package_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert proc.returncode == 1
        (line,) = proc.stderr.splitlines()
        assert json.loads(line) == {
            "error": "IoFailure",
            "detail": f"cannot write {what} to stdout: [Errno 32] Broken pipe",
        }


@pytest.fixture(scope="module")
def chunked_corpus(tmp_path_factory):
    """A hybrid config, a gbdt model (and a logreg one), and a synthetic
    manifest of a bit over two chunks whose damage files are missing at the
    chunk edges."""
    root = tmp_path_factory.mktemp("chunked")
    assert main(["gen-synthetic", "--seed", "3", "--n", "200", "--out", str(root / "train")]) == 0
    model, logreg_model = root / "gb.json", root / "lr.json"
    assert main(
        ["train-meta", "--manifest", str(root / "train" / "manifest.json"), "--kind", "gbdt",
         "--rounds", "10", "--out", str(model)]
    ) == 0
    assert main(
        ["train-meta", "--manifest", str(root / "train" / "manifest.json"), "--kind", "logreg",
         "--iterations", "100", "--out", str(logreg_model)]
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
            "broken": [ids[i] for i in broken], "models": {"gbdt": model, "logreg": logreg_model}}


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
        manifest = chunked_corpus["manifest"]
        files = {e["id"]: e["damage_file"] for e in json.loads(manifest.read_text())["images"]}
        assert err.splitlines() == [
            json.dumps({
                "error": "MissingFile",
                "detail": f"file not found: {os.path.join(manifest.parent, files[i])}",
                "image_id": i,
            })
            for i in chunked_corpus["broken"]
        ]
        ids = [json.loads(line)["image_id"] for line in out.splitlines()]
        assert ids == [i for i in chunked_corpus["ids"] if i not in chunked_corpus["broken"]]

    @pytest.mark.parametrize("kind", ["gbdt", "logreg"])
    def test_batched_probs_equal_one_row_predict(self, chunked_corpus, capsys, kind):
        corpus = {**chunked_corpus, "model": chunked_corpus["models"][kind]}
        code, out, _ = assess_chunked(capsys, corpus, "--keep-going")
        assert code == 0
        manifest = load_manifest(chunked_corpus["manifest"])
        entries = {e.id: e for e in manifest.images}
        model = meta.load_model(corpus["model"])
        config = FusionConfig.from_dict({"version": "v2", "decision_mode": "hybrid"})
        backend = FileBackend(manifest)
        for line in out.splitlines():
            record = json.loads(line)
            cascade = run_cascade(entries[record["image_id"]], backend)
            rule = rule_fusion(cascade, config)
            probs = meta.predict_batch(model, [meta.extract_features(cascade, rule)])[0].tolist()
            assert record["meta"]["probs"] == probs
            assert record["final"] == final_decision(rule, probs, config).label

    @pytest.mark.parametrize("kind", ["gbdt", "logreg"])
    def test_one_batch_predict_per_chunk(self, chunked_corpus, capsys, monkeypatch, kind):
        batch_name = f"predict_{kind}_batch"
        batch = getattr(meta.serialize, batch_name)
        rows_per_call = []

        def counting(model, X):
            rows_per_call.append(len(X))
            return batch(model, X)

        monkeypatch.setattr(meta.serialize, batch_name, counting)
        corpus = {**chunked_corpus, "model": chunked_corpus["models"][kind]}
        code, out, _ = assess_chunked(capsys, corpus, "--keep-going")
        assert code == 0
        # 3 chunks, each with entries left after the skips at the chunk edges
        assert rows_per_call == [cli.CHUNK_SIZE - 1, cli.CHUNK_SIZE - 2, 9]
        assert sum(rows_per_call) == len(out.splitlines())

    def test_one_predict_and_one_write_per_chunk(self, chunked_corpus, tmp_path, monkeypatch):
        n = 2 * cli.CHUNK_SIZE + 5
        assert main(["gen-synthetic", "--seed", "6", "--n", str(n), "--out", str(tmp_path / "d"),
                     "--false-positive-rate", "0.2"]) == 0
        predict_rows, writes = [], []
        predict_batch = meta.predict_batch

        def counting_predict(model, X):
            predict_rows.append(len(X))
            return predict_batch(model, X)

        class CountingStream(io.StringIO):
            def write(self, text):
                writes.append(text.count("\n"))
                return super().write(text)

        monkeypatch.setattr(meta, "predict_batch", counting_predict)
        monkeypatch.setattr(sys, "stdout", CountingStream())
        assert main(["assess", "--manifest", str(tmp_path / "d" / "manifest.json"), "--config",
                     str(chunked_corpus["config"]), "--meta-model",
                     str(chunked_corpus["model"])]) == 0
        assert predict_rows == writes == [cli.CHUNK_SIZE, cli.CHUNK_SIZE, 5]

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
        counts = count_in_flight(monkeypatch)

        def counting_cascade(entry, backend):
            counts["started"] += 1
            counts["max_in_flight"] = max(
                counts["max_in_flight"], counts["started"] - counts["written"]
            )
            return run_cascade(entry, backend)

        monkeypatch.setattr(cli, "run_cascade", counting_cascade)
        assert main(["assess", "--manifest", str(path), "--jobs", jobs]) == 0
        assert counts["written"] == len(images)
        assert 1 <= counts["max_in_flight"] <= cli.CHUNK_SIZE

    def test_external_requests_bounded_by_one_chunk(self, tmp_path, stub, monkeypatch):
        images = [{"id": f"img{i:03d}", "image_path": f"img{i:03d}.jpg"}
                  for i in range(2 * cli.CHUNK_SIZE + 5)]
        path = write_dataset(tmp_path / "d", images)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": [sys.executable, stub("echo_backend")]}}))
        counts = count_in_flight(monkeypatch)
        exchange = cli.ExternalBackend.exchange

        def counting_exchange(backend, batch):
            counts["started"] += len(batch)
            counts["max_in_flight"] = max(
                counts["max_in_flight"], counts["started"] - counts["written"]
            )
            return exchange(backend, batch)

        monkeypatch.setattr(cli.ExternalBackend, "exchange", counting_exchange)
        argv = ["assess", "--manifest", str(path), "--backend", "external", "--config",
                str(config), "--jobs", "2"]
        assert main(argv) == 0
        assert counts["written"] == len(images)
        assert counts["max_in_flight"] == cli.CHUNK_SIZE

    def test_external_child_dying_mid_chunk_fails_only_its_image(self, tmp_path, stub, capsys):
        n = 2 * cli.CHUNK_SIZE + 5
        assert run(capsys, "gen-synthetic", "--seed", "4", "--n", str(n), "--out",
                   str(tmp_path / "d"), "--false-positive-rate", "0.2")[0] == 0
        file_manifest = tmp_path / "d" / "manifest.json"
        raw = json.loads(file_manifest.read_text())
        # the child answers the scenes, and finds each image by its stem
        raw["images"] = [
            {**{k: v for k, v in e.items() if k != "scene"}, "image_path": f"{e['id']}.jpg"}
            for e in raw["images"]
        ]
        external_manifest = tmp_path / "d" / "external.json"
        external_manifest.write_text(json.dumps(raw))
        dead = raw["images"][cli.CHUNK_SIZE + 6]["id"]  # mid-way through the second chunk
        command = [sys.executable, stub("files_backend"), str(file_manifest), dead]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": command}}))
        code, out, err = run(
            capsys, "assess", "--manifest", str(external_manifest), "--backend", "external",
            "--config", str(config), "--jobs", "2", "--keep-going",
        )
        assert code == 0
        assert err.splitlines() == [json.dumps({
            "error": "ProcessExited", "detail": "backend process exited with code 3", "image_id": dead,
        })]
        code, file_out, _ = run(capsys, "assess", "--manifest", str(file_manifest))
        assert code == 0
        assert out.splitlines() == [
            line for line in file_out.splitlines() if json.loads(line)["image_id"] != dead
        ]


def count_in_flight(monkeypatch) -> dict:
    """Counters of images started and records written to a patched stdout."""
    counts = {"started": 0, "written": 0, "max_in_flight": 0}

    class CountingStream(io.StringIO):
        def write(self, text):
            counts["written"] += text.count("\n")
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", CountingStream())
    return counts


FIXTURE3_TEXT_REPORT = (
    "n: 3\n"
    "Method: assess  Model type: -\n"
    "Accuracy (%): 66.67  ± 1 Accuracy: 100.00\n"
    "Per-class F1 (zero slight medium heavy): 1.000 0.000 0.000 1.000\n"
    "Confusion matrix (rows = truth, cols = predicted):\n"
    "       1      0      0      0\n"
    "       0      0      0      0\n"
    "       0      1      0      0\n"
    "       0      0      0      1\n"
    "undefined→0: slight recall, slight f1, medium precision, medium f1\n"
)
FIXTURE3_JSON_REPORT = """\
{
  "format": "ruinscore-report-v1",
  "config_tag": "assess",
  "n": 3,
  "exact_accuracy": 0.6666666666666666,
  "plus_minus_one_accuracy": 1.0,
  "per_class": [
    {
      "level": "zero",
      "precision": 1.0,
      "recall": 1.0,
      "f1": 1.0,
      "undefined": []
    },
    {
      "level": "slight",
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "undefined": [
        "recall",
        "f1"
      ]
    },
    {
      "level": "medium",
      "precision": 0.0,
      "recall": 0.0,
      "f1": 0.0,
      "undefined": [
        "precision",
        "f1"
      ]
    },
    {
      "level": "heavy",
      "precision": 1.0,
      "recall": 1.0,
      "f1": 1.0,
      "undefined": []
    }
  ],
  "matrix": [
    [
      1,
      0,
      0,
      0
    ],
    [
      0,
      0,
      0,
      0
    ],
    [
      0,
      1,
      0,
      0
    ],
    [
      0,
      0,
      0,
      1
    ]
  ]
}
"""


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

    @pytest.mark.parametrize("final", [["heavy"], {"level": "heavy"}, 3, None])
    def test_non_string_final_rejected(self, tmp_path, capsys, final):
        images = [{"id": f"i{k}", "gt": k, "scene": "outside", "damage": ""} for k in range(2)]
        path = write_dataset(tmp_path / "d", images)
        a = tmp_path / "a.jsonl"
        lines = [{"image_id": "i0", "final": "zero"}, {"image_id": "i1", "final": final}]
        a.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        code, out, err = run(capsys, "evaluate", "--assessments", str(a), "--manifest", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err.strip()) == {
            "error": "SchemaViolation",
            "detail": "schema violation at line 2: final must be a string",
        }

    @pytest.mark.parametrize("image_id", ["x", "i1"])  # without and with ground truth
    def test_unknown_level_name_rejected_at_its_line(self, tmp_path, capsys, image_id):
        images = [{"id": f"i{k}", "gt": k, "scene": "outside", "damage": ""} for k in range(2)]
        path = write_dataset(tmp_path / "d", images)
        a = tmp_path / "a.jsonl"
        lines = [{"image_id": "i0", "final": "zero"}, {"image_id": image_id, "final": "bogus"}]
        a.write_text("".join(json.dumps(rec) + "\n" for rec in lines))
        code, out, err = run(capsys, "evaluate", "--assessments", str(a), "--manifest", str(path))
        assert code == 1
        assert out == ""
        assert json.loads(err.strip()) == {
            "error": "SchemaViolation",
            "detail": "schema violation at line 2: unknown level name 'bogus'",
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

    @pytest.mark.parametrize("flags, expected", [
        ([], FIXTURE3_TEXT_REPORT),
        (["--json"], FIXTURE3_JSON_REPORT),
    ])
    def test_fixture3_report_bytes(self, fixture3, capsys, flags, expected):
        golden = fixture3.parent / "golden_assess.jsonl"
        assert run(
            capsys, "evaluate", "--assessments", str(golden), "--manifest", str(fixture3), *flags
        ) == (0, expected, "")

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
        assert json.loads(out)["exact_accuracy"] == direct["exact_accuracy"]
        assert json.loads(out)["matrix"] == direct["matrix"]


@pytest.fixture(scope="module")
def noisy_corpus(tmp_path_factory) -> Path:
    """A seed-7 synthetic manifest of 300 images with all three noise knobs on."""
    root = tmp_path_factory.mktemp("noisy")
    assert main(["gen-synthetic", "--seed", "7", "--n", "300", "--out", str(root),
                 "--false-positive-rate", "0.1", "--confidence-jitter-sd", "0.05",
                 "--drop-rate", "0.05"]) == 0
    return root / "manifest.json"


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

    @pytest.mark.parametrize(
        "kind, sha256, printed",
        [
            ("logreg", "27882951b4bb97be5b4305b5e5a89aca8fa7295ce9a293b2aa4660df213658f3",
             "training_accuracy=0.9400 final_loss=0.231633"),
            ("gbdt", "6455bfb533ec8dd1c22fb44265bed5258803fd6039243491fb32884534278186",
             "training_accuracy=0.9900 final_loss=0.072908"),
        ],
        ids=["logreg", "gbdt"],
    )
    def test_model_bytes_on_seeded_noisy_corpus(self, noisy_corpus, tmp_path, capsys,
                                                kind, sha256, printed):
        # both trainers are deterministic: a change to their arithmetic moves these bytes
        model = tmp_path / "m.json"
        code, out, _ = run(capsys, "train-meta", "--manifest", str(noisy_corpus), "--kind", kind,
                           "--out", str(model))
        assert code == 0
        assert out == f"trained {kind}: n=300 {printed} model={model}\n"
        assert hashlib.sha256(model.read_bytes()).hexdigest() == sha256

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

    def test_missing_file_in_second_chunk_names_image_and_writes_no_model(
        self, tmp_path, capsys
    ):
        images = [
            {"id": f"img{i:03d}", "gt": i % 4, "scene": "outside",
             "damage": "0 0.5 0.5 0.1 0.1 0.9\n" * (i % 4)}
            for i in range(cli.CHUNK_SIZE + 6)
        ]
        path = write_dataset(tmp_path / "d", images)
        broken = images[cli.CHUNK_SIZE + 2]["id"]
        (tmp_path / "d" / "labels" / f"{broken}.txt").unlink()
        model = tmp_path / "m.json"
        code, out, err = run(
            capsys, "train-meta", "--manifest", str(path), "--kind", "gbdt", "--out", str(model)
        )
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        error = json.loads(line)
        assert (error["error"], error["image_id"]) == ("MissingFile", broken)
        assert not model.exists()

    def test_unlabeled_entry_is_never_read(self, tmp_path, capsys):
        images = [
            {"id": f"img{i:02d}", "gt": i % 4, "scene": "outside",
             "damage": "0 0.5 0.5 0.1 0.1 0.9\n" * (i % 4)}
            for i in range(12)
        ]
        images.insert(5, {"id": "unlabeled", "scene": "outside", "damage": ""})
        path = write_dataset(tmp_path / "d", images)
        (tmp_path / "d" / "labels" / "unlabeled.txt").unlink()
        model = tmp_path / "m.json"
        code, out, err = run(
            capsys, "train-meta", "--manifest", str(path), "--kind", "logreg",
            "--iterations", "5", "--out", str(model),
        )
        assert code == 0
        assert err.splitlines() == ["ignored 1 entries without ground truth"]
        assert out.startswith("trained logreg: n=12 ")
        assert model.exists()

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

    def test_missing_file_reported_as_typed(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "fuse", "--detections", "./missing.txt")
        assert code == 1
        assert out == ""
        assert json.loads(err.strip()) == {
            "error": "MissingFile", "detail": "file not found: ./missing.txt"
        }

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
            # integers beyond the float range
            (json.dumps({"conf_floor": 10**400}), "conf_floor"),
            (json.dumps({"weights": {"w_crack": -(10**400)}}), "weights.w_crack"),
            (json.dumps({"v2": {"min_box_area": 10**400}}), "v2.min_box_area"),
            (json.dumps({"backend": {"timeout_s": 10**400}}), "backend.timeout_s"),
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


NOT_UTF8 = b"\xff\n"


class TestNonUtf8Input:
    """Every input file that is not UTF-8 ends in one structured
    SchemaViolation naming the file and exit 1, never in a traceback."""

    @staticmethod
    def bad_file(tmp_path, name) -> str:
        path = tmp_path / name
        path.write_bytes(NOT_UTF8)
        return str(path)

    @staticmethod
    def assert_names(capsys, path, *argv) -> dict:
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "Traceback" not in err
        (line,) = err.splitlines()
        error = json.loads(line)
        assert error["error"] == "SchemaViolation"
        assert error["detail"] == (
            f"schema violation at {path}: not UTF-8 (invalid start byte at byte 0)"
        )
        return error

    def test_damage_file(self, tmp_path, capsys):
        manifest = write_dataset(
            tmp_path / "d", [{"id": "bad", "scene": "outside", "damage": ""}]
        )
        damage = tmp_path / "d" / "labels" / "bad.txt"
        damage.write_bytes(NOT_UTF8)
        error = self.assert_names(capsys, damage, "assess", "--manifest", str(manifest))
        assert error["image_id"] == "bad"

    @pytest.mark.parametrize("name", ["d.txt", "d.json"])
    def test_fuse_detections(self, tmp_path, capsys, name):
        path = self.bad_file(tmp_path, name)
        self.assert_names(capsys, path, "fuse", "--detections", path)

    def test_manifest(self, tmp_path, capsys):
        path = self.bad_file(tmp_path, "manifest.json")
        self.assert_names(capsys, path, "assess", "--manifest", path)

    def test_config(self, fixture3, tmp_path, capsys):
        path = self.bad_file(tmp_path, "config.json")
        self.assert_names(capsys, path, "assess", "--manifest", str(fixture3), "--config", path)

    def test_meta_model(self, fixture3, tmp_path, capsys):
        path = self.bad_file(tmp_path, "model.json")
        self.assert_names(
            capsys, path, "assess", "--manifest", str(fixture3), "--meta-model", path
        )

    def test_assessments(self, fixture3, tmp_path, capsys):
        path = self.bad_file(tmp_path, "a.jsonl")
        self.assert_names(
            capsys, path, "evaluate", "--assessments", path, "--manifest", str(fixture3)
        )

    def test_keep_going_skips_only_the_bad_image(self, tmp_path, capsys):
        box = "0 0.5 0.5 0.1 0.1 0.9\n"
        manifest = write_dataset(
            tmp_path / "d",
            [{"id": i, "scene": "outside", "damage": box} for i in ("ok1", "bad", "ok2")],
        )
        (tmp_path / "d" / "labels" / "bad.txt").write_bytes(NOT_UTF8)
        code, out, err = run(capsys, "assess", "--manifest", str(manifest), "--keep-going")
        assert code == 0
        assert [json.loads(line)["image_id"] for line in out.splitlines()] == ["ok1", "ok2"]
        assert "Traceback" not in err
        damage = tmp_path / "d" / "labels" / "bad.txt"
        assert err.splitlines() == [json.dumps({
            "error": "SchemaViolation",
            "detail": f"schema violation at {damage}: not UTF-8 (invalid start byte at byte 0)",
            "image_id": "bad",
        })]


IMPORT_PROBE = """\
import json, sys, threading
import ruinscore
commands, modules = json.loads(sys.argv[1]), json.loads(sys.argv[2])
codes = []
if commands:
    from ruinscore.cli import main
    codes = [main(argv) for argv in commands]
print(json.dumps({"codes": codes, "threads": threading.active_count(),
                  "loaded": [name for name in modules if name in sys.modules]}))
"""


def package_env() -> dict:
    """The environment with this ruinscore first on PYTHONPATH, for a child interpreter."""
    package_root = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        entry for entry in (package_root, os.environ.get("PYTHONPATH")) if entry
    )}


def import_probe(commands: list[list[str]], modules: list[str]) -> dict:
    """Import ruinscore and run `commands` through cli.main in one fresh
    interpreter; report their exit codes, which of `modules` were imported,
    and how many threads are alive afterwards."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, json.dumps(commands), json.dumps(modules)],
        capture_output=True, text=True, env=package_env(), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def numpy_probe(*commands: list[str]) -> dict:
    """Whether `commands` import numpy and concurrent.futures, with their exit
    codes and the threads left alive."""
    result = import_probe(list(commands), ["numpy", "concurrent.futures"])
    return {"codes": result["codes"], "numpy": "numpy" in result["loaded"],
            "threads": result["threads"], "futures": "concurrent.futures" in result["loaded"]}


class TestNumpyImport:
    def test_rule_only_commands_do_not_import_numpy(self, fixture3, fixtures_dir, tmp_path):
        out = str(tmp_path / "a.jsonl")
        result = numpy_probe(
            ["assess", "--manifest", str(fixture3), "--out", out],
            ["evaluate", "--assessments", out, "--manifest", str(fixture3)],
            ["fuse", "--detections", str(fixtures_dir / "fixture3" / "labels" / "img_c.txt")],
        )
        assert result == {"codes": [0, 0, 0], "numpy": False, "threads": 1, "futures": False}

    def test_meta_model_commands_import_numpy(self, fixture3, tmp_path):
        model, out = str(tmp_path / "m.json"), tmp_path / "a.jsonl"
        train = ["train-meta", "--manifest", str(fixture3), "--kind", "gbdt", "--out", model,
                 "--rounds", "3", "--min-leaf", "1"]
        assert numpy_probe(train) == {"codes": [0], "numpy": True, "threads": 1, "futures": False}
        assess = ["assess", "--manifest", str(fixture3), "--meta-model", model, "--out", str(out)]
        assert numpy_probe(assess) == {"codes": [0], "numpy": True, "threads": 1, "futures": False}
        assert all(record["meta"] is not None for record in jsonl(out))

    def test_external_jobs_start_children_not_threads(self, tmp_path, stub):
        images = [{"id": f"img{i}", "image_path": f"img{i}.jpg"} for i in range(5)]
        path = write_dataset(tmp_path / "d", images)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": [sys.executable, stub("echo_backend")]}}))
        assess = ["assess", "--manifest", str(path), "--backend", "external", "--config",
                  str(config), "--jobs", "2", "--out", str(tmp_path / "a.jsonl")]
        assert numpy_probe(assess) == {"codes": [0], "numpy": False, "threads": 1, "futures": False}
        assert len(jsonl(tmp_path / "a.jsonl")) == 5


# modules that rule-only and hybrid assess on the file backend never call
NOT_ON_FILE_ASSESS = ["ruinscore.synth", "ruinscore.evaluate", "ruinscore.meta.hyper",
                      "subprocess", "selectors"]


class TestDevMode:
    def test_commands_run_clean_under_dev_mode_with_warnings_as_errors(
        self, fixture3, tmp_path, stub
    ):
        # `-X dev` reports unclosed files and pipes, leaked children and
        # deprecated calls as warnings, and `-W error` makes each one fatal
        data, manifest = tmp_path / "d", str(tmp_path / "d" / "manifest.json")
        assessments, model = str(tmp_path / "a.jsonl"), str(tmp_path / "m.json")
        hybrid, external = tmp_path / "hybrid.json", tmp_path / "external.json"
        hybrid.write_text(json.dumps({"decision_mode": "hybrid"}))
        external.write_text(json.dumps(
            {"backend": {"command": [sys.executable, stub("sleepy_backend")], "timeout_s": 0.5}}
        ))
        slow = write_dataset(
            tmp_path / "slow", [{"id": i, "image_path": f"{i}.jpg"} for i in ("a", "b", "c")]
        )
        commands = [
            ["gen-synthetic", "--seed", "2", "--n", "12", "--out", str(data)],
            ["assess", "--manifest", manifest, "--out", assessments],
            ["evaluate", "--assessments", assessments, "--manifest", manifest, "--json"],
            ["train-meta", "--manifest", manifest, "--kind", "logreg", "--iterations", "20",
             "--out", model],
            ["assess", "--manifest", manifest, "--config", str(hybrid), "--meta-model", model],
            ["fuse", "--detections", str(fixture3.parent / "labels" / "img_c.txt")],
            ["assess", "--manifest", str(slow), "--backend", "external", "--config",
             str(external), "--keep-going"],
        ]
        for argv in commands:
            proc = subprocess.run(
                [sys.executable, "-X", "dev", "-W", "error", "-m", "ruinscore", *argv],
                capture_output=True, text=True, env=package_env(), timeout=120,
            )
            assert (proc.returncode, "Warning" in proc.stderr) == (0, False), (argv, proc.stderr)


class TestCommandImports:
    """Each command imports only what it runs, so start-up pays for nothing
    else."""

    def test_package_import_loads_no_submodule(self):
        submodules = [info.name for info in pkgutil.walk_packages(ruinscore.__path__, "ruinscore.")]
        assert "ruinscore.cli" in submodules and "ruinscore.meta.hyper" in submodules
        assert import_probe([], submodules) == {"codes": [], "threads": 1, "loaded": []}

    def test_file_assess_leaves_unused_modules_unloaded(self, fixture3, tmp_path, capsys):
        model = str(tmp_path / "m.json")
        assert run(capsys, "train-meta", "--manifest", str(fixture3), "--kind", "gbdt",
                   "--out", model, "--rounds", "3", "--min-leaf", "1")[0] == 0
        assess = ["assess", "--manifest", str(fixture3), "--out", str(tmp_path / "a.jsonl")]
        result = import_probe([assess, assess + ["--meta-model", model]], NOT_ON_FILE_ASSESS)
        assert result == {"codes": [0, 0], "threads": 1, "loaded": []}

    def test_train_meta_loads_hyperparameters(self, fixture3, tmp_path):
        train = ["train-meta", "--manifest", str(fixture3), "--kind", "logreg",
                 "--out", str(tmp_path / "m.json"), "--iterations", "3"]
        result = import_probe([train], NOT_ON_FILE_ASSESS)
        assert result == {"codes": [0], "threads": 1, "loaded": ["ruinscore.meta.hyper"]}

    def test_external_assess_loads_subprocess(self, tmp_path, stub):
        path = write_dataset(tmp_path / "d", [{"id": "img0", "image_path": "img0.jpg"}])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"backend": {"command": [sys.executable, stub("echo_backend")]}}))
        assess = ["assess", "--manifest", str(path), "--backend", "external", "--config",
                  str(config), "--out", str(tmp_path / "a.jsonl")]
        result = import_probe([assess], NOT_ON_FILE_ASSESS)
        assert result == {"codes": [0], "threads": 1, "loaded": ["subprocess", "selectors"]}


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

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--level-priors", "nan,0.5,0.5,0"),
            ("--level-priors", "0.5,0.5,0,nan"),
            ("--level-priors", "0.5,0.5,x,0"),
            ("--confidence-jitter-sd", "nan"),
            ("--confidence-jitter-sd", "inf"),
            ("--seed", "-1"),
            ("--seed", str(2**64)),
        ],
    )
    def test_malformed_noise_or_priors_rejected(self, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "d"
        code, out, err = run(
            capsys, "gen-synthetic", "--seed", "1", "--n", "5", "--out", str(out_dir), flag, value
        )
        assert code == 1
        assert out == ""
        [line] = err.splitlines()
        assert json.loads(line)["error"] == "SchemaViolation"
        assert not out_dir.exists()

    def test_usage_error_exit_2(self, capsys):
        assert run(capsys, "gen-synthetic", "--seed", "1")[0] == 2
        assert run(capsys, "no-such-command")[0] == 2
        for jobs in ("0", "-3"):
            assert run(capsys, "assess", "--manifest", "m.json", "--jobs", jobs)[0] == 2
