from __future__ import annotations

import sys

import pytest

from ruinscore.backend import ExternalBackend, FileBackend, run_cascade
from ruinscore.dataset_io import (
    DamageClass,
    DamageLevel,
    ImageEntry,
    SceneClass,
    load_manifest,
)
from ruinscore.errors import (
    BackendUnavailable,
    MissingEvidence,
    ProcessExited,
    ProtocolViolation,
    Timeout,
)

from helpers import write_dataset


def manifest_from(tmp_path, images):
    return load_manifest(write_dataset(tmp_path / "data", images))


class TestFileBackend:
    def test_empty_damage_file(self, tmp_path):
        manifest = manifest_from(
            tmp_path, [{"id": "a", "scene": "outside", "damage": "# nothing\n"}]
        )
        out = run_cascade(manifest.images[0], FileBackend(manifest))
        assert out.scene.cls is SceneClass.OUTSIDE
        assert out.scene.confidence == 1.0
        assert out.components == ()
        assert out.damages == ()

    def test_damage_and_components_parsed(self, tmp_path):
        manifest = manifest_from(
            tmp_path,
            [
                {
                    "id": "a",
                    "scene": "inside",
                    "damage": "0 0.3 0.3 0.1 0.1 0.8\n0 0.6 0.6 0.1 0.1 0.7\n",
                    "components": "1 0.5 0.5 0.4 0.8 0.9\n",
                }
            ],
        )
        out = run_cascade(manifest.images[0], FileBackend(manifest))
        assert len(out.damages) == 2
        assert {d.cls for d in out.damages} == {DamageClass.CRACK}
        assert len(out.components) == 1

    def test_missing_damage_file_key_is_error(self, tmp_path):
        manifest = manifest_from(tmp_path, [{"id": "a", "scene": "outside"}])
        with pytest.raises(MissingEvidence) as exc:
            run_cascade(manifest.images[0], FileBackend(manifest))
        assert exc.value.task == "damage"

    def test_missing_scene_key_is_error(self, tmp_path):
        manifest = manifest_from(tmp_path, [{"id": "a", "damage": ""}])
        with pytest.raises(MissingEvidence) as exc:
            run_cascade(manifest.images[0], FileBackend(manifest))
        assert exc.value.task == "scene"

    def test_json_detection_file(self, tmp_path):
        root = tmp_path / "data"
        root.mkdir()
        (root / "a.json").write_text(
            '{"detections":[{"class":"rebar","box":[0.5,0.5,0.2,0.2],"confidence":0.9}]}'
        )
        (root / "manifest.json").write_text(
            '{"images":[{"id":"a","scene":"outside","damage_file":"a.json"}]}'
        )
        manifest = load_manifest(root / "manifest.json")
        out = run_cascade(manifest.images[0], FileBackend(manifest))
        assert out.damages[0].cls is DamageClass.EXPOSED_REBAR


class RecordingBackend:
    """Fake backend that counts queries per task."""

    def __init__(self):
        self.calls: dict[str, int] = {}

    def query(self, entry, task):
        self.calls[task] = self.calls.get(task, 0) + 1
        if task == "scene":
            from ruinscore.dataset_io import SceneLabel

            return SceneLabel(SceneClass.OUTSIDE, 0.9)
        return []


class TestRequestBudget:
    def test_at_most_one_request_per_task(self):
        backend = RecordingBackend()
        run_cascade(ImageEntry(id="x"), backend)
        assert backend.calls == {"scene": 1, "components": 1, "damage": 1}

    def test_override_skips_scene_query(self):
        backend = RecordingBackend()
        out = run_cascade(ImageEntry(id="x", scene_override=SceneClass.INSIDE), backend)
        assert "scene" not in backend.calls
        assert out.scene.cls is SceneClass.INSIDE

    def test_file_backend_ignores_image_bytes(self, tmp_path):
        manifest = manifest_from(
            tmp_path,
            [
                {
                    "id": "a",
                    "scene": "outside",
                    "damage": "",
                    "image_path": "/no/such/image.jpg",
                }
            ],
        )
        out = run_cascade(manifest.images[0], FileBackend(manifest))
        assert out.damages == ()


class TestSceneOverride:
    def test_override_wins_over_backend(self, stub):
        # echo stub answers "outside"; the override says inside and must win
        entry = ImageEntry(
            id="x", image_path="/dev/null", scene_override=SceneClass.INSIDE
        )
        with ExternalBackend([sys.executable, stub("echo_backend")], timeout_s=10) as backend:
            out = run_cascade(entry, backend)
        assert out.scene.cls is SceneClass.INSIDE
        assert out.scene.confidence == 1.0


class TestExternalBackend:
    def test_round_trip(self, stub):
        entry = ImageEntry(id="x", image_path="/some/image.jpg")
        with ExternalBackend([sys.executable, stub("echo_backend")], timeout_s=10) as backend:
            out = run_cascade(entry, backend)
        assert out.scene.cls is SceneClass.OUTSIDE
        assert out.scene.confidence == 1.0
        assert len(out.components) == 1
        assert len(out.damages) == 2
        assert out.damages[0].cls is DamageClass.CRACK

    def test_malformed_json_is_protocol_violation(self, stub):
        with ExternalBackend([sys.executable, stub("malformed_backend")], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation):
                backend.exchange({"image": "x", "task": "scene"})

    def test_wrong_task_echo_is_protocol_violation(self, stub):
        with ExternalBackend([sys.executable, stub("wrong_task_backend")], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation, match="echo"):
                backend.exchange({"image": "x", "task": "scene"})

    def test_timeout(self, stub):
        with ExternalBackend([sys.executable, stub("sleepy_backend")], timeout_s=2.0) as backend:
            with pytest.raises(Timeout) as exc:
                backend.exchange({"image": "x", "task": "scene"})
        assert exc.value.seconds == 2.0

    def test_process_exit_detected(self, stub):
        backend = ExternalBackend([sys.executable, "-c", "pass"], timeout_s=5)
        with pytest.raises(ProcessExited):
            backend.exchange({"image": "x", "task": "scene"})
            backend.exchange({"image": "x", "task": "scene"})
        backend.close()

    def test_unknown_command_unavailable(self):
        with pytest.raises(BackendUnavailable):
            ExternalBackend(["/no/such/binary/anywhere"])

    def test_timeout_restarts_the_child(self, stub, tmp_path):
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stalled")]
        with ExternalBackend(command, timeout_s=2.0) as backend:
            with pytest.raises(Timeout):
                backend.exchange({"image": "a.jpg", "task": "damage"})
            # a fresh child answers; the stalled one can no longer reply
            assert len(backend.exchange({"image": "bb.jpg", "task": "damage"})["detections"]) == 2
            assert len(backend.exchange({"image": "c.jpg", "task": "damage"})["detections"]) == 1

    def test_protocol_violation_restarts_the_child(self, tmp_path):
        marker = tmp_path / "warmed"
        script = tmp_path / "stray_line.py"
        # the first request ever gets a stray log line before its reply;
        # scene replies name the image they answer: inside for b, else outside
        script.write_text(
            "import json, os, sys\n"
            "for line in sys.stdin:\n"
            "    image = json.loads(line)['image']\n"
            f"    if not os.path.exists({str(marker)!r}):\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        print('log: warming up', flush=True)\n"
            "    scene = 'inside' if image.startswith('b') else 'outside'\n"
            "    print(json.dumps({'scene': scene, 'confidence': 1.0}), flush=True)\n"
        )
        with ExternalBackend([sys.executable, str(script)], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation):
                backend.exchange({"image": "a.jpg", "task": "scene"})
            # the reply queued behind the stray line died with its child
            assert backend.exchange({"image": "b.jpg", "task": "scene"})["scene"] == "inside"
            assert backend.exchange({"image": "c.jpg", "task": "scene"})["scene"] == "outside"

    @pytest.mark.parametrize("mode, error", [("exit", ProcessExited), ("deep", ProtocolViolation)])
    def test_exit_or_deep_reply_restarts_the_child(self, stub, tmp_path, mode, error):
        command = [sys.executable, stub("misbehave_once_backend"), mode, str(tmp_path / "seen")]
        with ExternalBackend(command, timeout_s=10) as backend:
            if mode == "exit":  # the first request is answered, then the child is gone
                assert len(backend.exchange({"image": "a.jpg", "task": "damage"})["detections"]) == 1
            with pytest.raises(error):
                backend.exchange({"image": "bb.jpg", "task": "damage"})
            # a fresh child answers each later request with its own reply
            assert len(backend.exchange({"image": "ccc.jpg", "task": "damage"})["detections"]) == 3
            assert len(backend.exchange({"image": "d.jpg", "task": "damage"})["detections"]) == 1

    def test_relative_image_path_resolves_against_root(self, stub, tmp_path):
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "x.jpg").write_bytes(b"")
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stall-never")]
        (tmp_path / "stall-never").touch()
        entry = ImageEntry(id="x", image_path="frames/x.jpg")
        with ExternalBackend(command, timeout_s=10, root=tmp_path) as backend:
            assert backend.query(entry, "scene").cls is SceneClass.INSIDE
        with ExternalBackend(command, timeout_s=10) as backend:
            assert backend.query(entry, "scene").cls is SceneClass.OUTSIDE

    def test_missing_image_path(self, stub):
        entry = ImageEntry(id="x")
        with ExternalBackend([sys.executable, stub("echo_backend")], timeout_s=10) as backend:
            with pytest.raises(MissingEvidence):
                run_cascade(entry, backend)
