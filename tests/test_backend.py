from __future__ import annotations

import sys
import time

import pytest

from ruinscore.backend import ExternalBackend, FileBackend, run_cascade
from ruinscore.dataset_io import (
    DamageClass,
    DamageLevel,
    ImageEntry,
    SceneClass,
    SceneLabel,
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
    """Fake backend that counts queries, and requests per task."""

    def __init__(self):
        self.queries = 0
        self.calls: dict[str, int] = {}

    def query(self, entry, tasks):
        self.queries += 1
        for task in tasks:
            self.calls[task] = self.calls.get(task, 0) + 1
        return [SceneLabel(SceneClass.OUTSIDE, 0.9) if task == "scene" else [] for task in tasks]


class TestRequestBudget:
    def test_at_most_one_request_per_task(self):
        backend = RecordingBackend()
        run_cascade(ImageEntry(id="x"), backend)
        assert backend.queries == 1
        assert backend.calls == {"scene": 1, "components": 1, "damage": 1}

    def test_override_skips_scene_query(self):
        backend = RecordingBackend()
        out = run_cascade(ImageEntry(id="x", scene_override=SceneClass.INSIDE), backend)
        assert backend.queries == 1
        assert backend.calls == {"components": 1, "damage": 1}
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
                backend.exchange([{"image": "x", "task": "scene"}])[0]

    def test_wrong_task_echo_is_protocol_violation(self, stub):
        with ExternalBackend([sys.executable, stub("wrong_task_backend")], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation, match="echo"):
                backend.exchange([{"image": "x", "task": "scene"}])[0]

    def test_timeout(self, stub):
        with ExternalBackend([sys.executable, stub("sleepy_backend")], timeout_s=2.0) as backend:
            with pytest.raises(Timeout) as exc:
                backend.exchange([{"image": "x", "task": "scene"}])[0]
        assert exc.value.seconds == 2.0

    def test_process_exit_detected(self, stub):
        backend = ExternalBackend([sys.executable, "-c", "pass"], timeout_s=5)
        with pytest.raises(ProcessExited):
            backend.exchange([{"image": "x", "task": "scene"}])[0]
            backend.exchange([{"image": "x", "task": "scene"}])[0]
        backend.close()

    def test_unknown_command_unavailable(self):
        with pytest.raises(BackendUnavailable):
            ExternalBackend(["/no/such/binary/anywhere"])

    def test_timeout_restarts_the_child(self, stub, tmp_path):
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stalled")]
        with ExternalBackend(command, timeout_s=2.0) as backend:
            with pytest.raises(Timeout):
                backend.exchange([{"image": "a.jpg", "task": "damage"}])[0]
            # a fresh child answers; the stalled one can no longer reply
            assert len(backend.exchange([{"image": "bb.jpg", "task": "damage"}])[0]["detections"]) == 2
            assert len(backend.exchange([{"image": "c.jpg", "task": "damage"}])[0]["detections"]) == 1

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
                backend.exchange([{"image": "a.jpg", "task": "scene"}])[0]
            # the reply queued behind the stray line died with its child
            assert backend.exchange([{"image": "b.jpg", "task": "scene"}])[0]["scene"] == "inside"
            assert backend.exchange([{"image": "c.jpg", "task": "scene"}])[0]["scene"] == "outside"

    @pytest.mark.parametrize("mode, error", [("exit", ProcessExited), ("deep", ProtocolViolation)])
    def test_exit_or_deep_reply_restarts_the_child(self, stub, tmp_path, mode, error):
        command = [sys.executable, stub("misbehave_once_backend"), mode, str(tmp_path / "seen")]
        with ExternalBackend(command, timeout_s=10) as backend:
            if mode == "exit":  # the first request is answered, then the child is gone
                assert len(backend.exchange([{"image": "a.jpg", "task": "damage"}])[0]["detections"]) == 1
            with pytest.raises(error):
                backend.exchange([{"image": "bb.jpg", "task": "damage"}])[0]
            # a fresh child answers each later request with its own reply
            assert len(backend.exchange([{"image": "ccc.jpg", "task": "damage"}])[0]["detections"]) == 3
            assert len(backend.exchange([{"image": "d.jpg", "task": "damage"}])[0]["detections"]) == 1

    def test_relative_image_path_resolves_against_root(self, stub, tmp_path):
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "x.jpg").write_bytes(b"")
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stall-never")]
        (tmp_path / "stall-never").touch()
        entry = ImageEntry(id="x", image_path="frames/x.jpg")
        with ExternalBackend(command, timeout_s=10, root=tmp_path) as backend:
            assert backend.query(entry, ["scene"])[0].cls is SceneClass.INSIDE
        with ExternalBackend(command, timeout_s=10) as backend:
            assert backend.query(entry, ["scene"])[0].cls is SceneClass.OUTSIDE

    def test_missing_image_path(self, stub):
        entry = ImageEntry(id="x")
        with ExternalBackend([sys.executable, stub("echo_backend")], timeout_s=10) as backend:
            with pytest.raises(MissingEvidence):
                run_cascade(entry, backend)


def cascade_outcome(entry, backend):
    """(id, scene, components, damages) of one image, or (id, error class)."""
    try:
        out = run_cascade(entry, backend)
    except (ProcessExited, ProtocolViolation, Timeout) as exc:
        return entry.id, type(exc).__name__
    return entry.id, out.scene.cls.value, len(out.components), len(out.damages)


class TestPipelinedExchange:
    """One write of all of an image's requests, then one reply per request."""

    def test_replies_land_on_their_image_and_task(self, stub, tmp_path):
        # the first child exits after answering bb's scene request; the
        # override entry sends components and damage only
        entries = [
            ImageEntry(id="a", image_path="a.jpg"),
            ImageEntry(id="bb", image_path="bb.jpg"),
            ImageEntry(id="ccc", image_path="ccc.jpg"),
            ImageEntry(id="dddd", image_path="dddd.jpg", scene_override=SceneClass.INSIDE),
            ImageEntry(id="eeeee", image_path="eeeee.jpg"),
        ]
        command = [sys.executable, stub("keyed_backend"), str(tmp_path / "exited")]
        with ExternalBackend(command, timeout_s=10) as backend:
            outcomes = [cascade_outcome(entry, backend) for entry in entries]
        assert outcomes == [
            ("a", "inside", 1, 1),
            ("bb", "ProcessExited"),
            ("ccc", "inside", 0, 3),
            ("dddd", "inside", 1, 4),
            ("eeeee", "inside", 2, 5),
        ]

    def test_child_reading_one_request_at_a_time(self, tmp_path):
        # an unbuffered readline() takes one line off the pipe per call, so
        # the child answers each request before it reads the next
        script = tmp_path / "one_at_a_time.py"
        script.write_text(
            "import io, json, os\n"
            "stdin = io.open(0, 'rb', buffering=0)\n"
            "while line := stdin.readline():\n"
            "    request = json.loads(line)\n"
            "    n = len(os.path.basename(request['image']))\n"
            "    if request['task'] == 'scene':\n"
            "        reply = {'scene': 'outside', 'confidence': 1.0 / n}\n"
            "    else:\n"
            "        cls = 'column' if request['task'] == 'components' else 'crack'\n"
            "        box = {'class': cls, 'box': [0.5, 0.5, 0.2, 0.2], 'confidence': 0.9}\n"
            "        reply = {'task': request['task'], 'detections': [box] * n}\n"
            "    print(json.dumps(reply), flush=True)\n"
        )
        with ExternalBackend([sys.executable, str(script)], timeout_s=10) as backend:
            for name in ("a", "bb", "ccc"):
                out = run_cascade(ImageEntry(id=name, image_path=name), backend)
                assert out.scene.confidence == 1.0 / len(name)
                assert len(out.components) == len(out.damages) == len(name)

    def test_bad_scene_reply_is_raised_before_a_stalled_one(self, tmp_path):
        script = tmp_path / "bad_scene.py"
        script.write_text(
            "import json, sys, time\n"
            "for line in sys.stdin:\n"
            "    if json.loads(line)['task'] != 'scene':\n"
            "        time.sleep(60)\n"
            "    print(json.dumps({'scene': 'outside'}), flush=True)\n"
        )
        start = time.monotonic()
        with ExternalBackend([sys.executable, str(script)], timeout_s=5.0) as backend:
            with pytest.raises(ProtocolViolation, match="confidence"):
                run_cascade(ImageEntry(id="x", image_path="x.jpg"), backend)
        assert time.monotonic() - start < 5.0

    def test_invalid_utf8_reply_is_protocol_violation(self, tmp_path):
        marker = tmp_path / "sent"
        script = tmp_path / "bad_bytes.py"
        # the first reply ever holds a byte that is not UTF-8; later replies
        # are well formed
        script.write_text(
            "import os, sys\n"
            "for line in sys.stdin:\n"
            f"    if not os.path.exists({str(marker)!r}):\n"
            f"        open({str(marker)!r}, 'w').close()\n"
            "        sys.stdout.buffer.write(b'{\"scene\": \"outside\", \"confidence\": 1.0, \"x\": \"\\xff\"}\\n')\n"
            "    else:\n"
            "        sys.stdout.buffer.write(b'{\"scene\": \"inside\", \"confidence\": 1.0}\\n')\n"
            "    sys.stdout.flush()\n"
        )
        with ExternalBackend([sys.executable, str(script)], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation, match="UTF-8"):
                backend.exchange([{"image": "a.jpg", "task": "scene"}])
            assert backend.exchange([{"image": "b.jpg", "task": "scene"}])[0]["scene"] == "inside"

    def test_child_closing_stdout_but_alive_is_killed_after_timeout(self):
        command = [
            sys.executable,
            "-c",
            "import os, sys, time; sys.stdin.readline(); os.close(1); time.sleep(30)",
        ]
        start = time.monotonic()
        with ExternalBackend(command, timeout_s=2.0) as backend:
            with pytest.raises(ProcessExited):
                backend.exchange([{"image": "x", "task": "scene"}])
        assert time.monotonic() - start < 10.0
