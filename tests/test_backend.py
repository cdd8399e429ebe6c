from __future__ import annotations

import json
import resource
import signal
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from ruinscore import backend as backend_module
from ruinscore.backend import (
    TASKS,
    ExternalBackend,
    FileBackend,
    _evidence,
    _receive,
    cascade_tasks,
    run_cascade,
)
from ruinscore.dataset_io import (
    ComponentClass,
    DamageClass,
    DamageLevel,
    Detection,
    ImageEntry,
    SceneClass,
    SceneLabel,
    load_manifest,
)
from ruinscore.errors import (
    BackendUnavailable,
    BadLine,
    MissingEvidence,
    MissingFile,
    ProcessExited,
    ProtocolViolation,
    RuinscoreError,
    SchemaViolation,
    Timeout,
    UnknownClass,
)
from ruinscore.synth import NoiseSpec, SynthSpec, gen_synthetic

from helpers import reference_file_cascade, write_dataset


def manifest_from(tmp_path, images):
    return load_manifest(write_dataset(tmp_path / "data", images))


def ask(backend, image: str, task: str):
    """The backend's evidence for one task of the image at path `image`."""
    return backend.query(ImageEntry(id=image, image_path=image), [task])[0]


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

    def test_missing_file_is_reported_at_its_joined_path(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write_dataset(tmp_path / "d", [])
        (tmp_path / "d" / "manifest.json").write_text(
            '{"images":[{"id":"a","scene":"outside","damage_file":"./labels/x.txt"}]}'
        )
        manifest = load_manifest("d/manifest.json")
        with pytest.raises(MissingFile) as exc:
            run_cascade(manifest.images[0], FileBackend(manifest))
        assert exc.value.path == "d/./labels/x.txt"


def outcome(cascade, entry):
    """What a cascade made of `entry`: its output, or its error's class,
    task and message."""
    try:
        return cascade(entry)
    except RuinscoreError as exc:
        return type(exc), getattr(exc, "task", None), str(exc)


class TestFileCascadeMatchesReference:
    """FileBackend.cascade against the task-by-task reference in helpers."""

    def test_every_entry_of_a_seeded_noisy_corpus(self, tmp_path):
        noise = NoiseSpec(false_positive_rate=0.2, confidence_jitter_sd=0.1, drop_rate=0.1)
        manifest = gen_synthetic(SynthSpec(seed=7, n_images=300, noise=noise), tmp_path / "d")
        backend = FileBackend(manifest)
        outs = [backend.cascade(entry) for entry in manifest.images]
        assert outs == [reference_file_cascade(entry, manifest) for entry in manifest.images]
        # the corpus covers both branches of the components read
        assert any(entry.components_file is None for entry in manifest.images)
        assert any(out.components for out in outs)

    DAMAGE_JSON = '{"detections":[{"class":"spalling","box":[0.5,0.5,0.2,0.2],"confidence":0.9}]}'
    COMPONENTS_JSON = '{"detections":[{"class":"column","box":[0.5,0.5,0.4,0.8],"confidence":0.8}]}'

    @pytest.mark.parametrize(
        "entry, files, error",
        [
            (
                {"scene": "inside", "damage_file": "a.json", "components_file": "c.json"},
                {"a.json": DAMAGE_JSON, "c.json": COMPONENTS_JSON},
                None,
            ),
            (
                {"scene": "inside", "damage_file": "a.json", "components_file": "c.json"},
                {"a.json": '{"detections": 3}', "c.json": COMPONENTS_JSON},
                SchemaViolation,
            ),
            ({"scene": "outside", "damage_file": "a.txt"}, {"a.txt": "2 0.5 0.5 0.2 0.2 0.9\n"}, None),
            ({"damage_file": "a.txt"}, {"a.txt": "2 0.5 0.5 0.2 0.2 0.9\n"}, MissingEvidence),
            ({"scene": "outside", "components_file": "c.txt"}, {"c.txt": ""}, MissingEvidence),
            (
                {"scene": "outside", "components_file": "c.txt"},
                {"c.txt": "1 0.5 0.5 oops 0.8\n"},
                BadLine,
            ),
            ({"scene": "outside", "damage_file": "gone.txt"}, {}, MissingFile),
            (
                {"scene": "inside", "damage_file": "a.json", "components_file": "c.json"},
                {"a.json": DAMAGE_JSON, "c.json": DAMAGE_JSON.replace("spalling", "crack")},
                UnknownClass,
            ),
        ],
        ids=[
            "json-files",
            "malformed-json-damage",
            "no-components-file",
            "no-scene",
            "no-damage-file",
            "malformed-components-before-missing-damage",
            "damage-file-not-on-disk",
            "damage-class-in-json-components",
        ],
    )
    def test_edge_entries(self, tmp_path, entry, files, error):
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        (tmp_path / "manifest.json").write_text(json.dumps({"images": [{"id": "a", **entry}]}))
        manifest = load_manifest(tmp_path / "manifest.json")
        loaded = manifest.images[0]
        got = outcome(FileBackend(manifest).cascade, loaded)
        assert got == outcome(lambda e: reference_file_cascade(e, manifest), loaded)
        if error is None:
            assert got.damages
        else:
            assert got[0] is error
            if error is MissingEvidence:
                assert got[1] == ("scene" if "scene" not in entry else "damage")


class RecordingBackend(ExternalBackend):
    """ExternalBackend whose wire is a log: each query's image and tasks are
    recorded and answered with an outside scene and no detections, and no
    child is started."""

    def __init__(self):
        self.queries: list[tuple[str, tuple[str, ...]]] = []

    def query(self, entry, tasks):
        self.queries.append((entry.id, tuple(tasks)))
        return [SceneLabel(SceneClass.OUTSIDE, 0.9) if task == "scene" else [] for task in tasks]


class TestRequestBudget:
    def test_at_most_one_request_per_task(self):
        backend = RecordingBackend()
        entry = ImageEntry(id="x")
        out = run_cascade(entry, backend)
        assert backend.queries == [("x", ("scene", "components", "damage"))] == [
            ("x", cascade_tasks(entry))
        ]
        assert out.scene == SceneLabel(SceneClass.OUTSIDE, 0.9)

    def test_override_skips_scene_query(self):
        backend = RecordingBackend()
        entry = ImageEntry(id="x", scene_override=SceneClass.INSIDE)
        out = run_cascade(entry, backend)
        assert backend.queries == [("x", ("components", "damage"))] == [
            ("x", cascade_tasks(entry))
        ]
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
                ask(backend, "x", "scene")

    def test_wrong_task_echo_is_protocol_violation(self, stub):
        with ExternalBackend([sys.executable, stub("wrong_task_backend")], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation, match="echo"):
                ask(backend, "x", "scene")

    def test_bad_detection_past_the_first_is_named_in_the_violation(self, tmp_path):
        script = tmp_path / "bad_third.py"
        script.write_text(
            "import json, sys\n"
            "good = {'class': 'crack', 'box': [0.5, 0.5, 0.2, 0.2], 'confidence': 0.9}\n"
            "bad = {'class': 'crack', 'box': [0.5, 0.5, 0.2]}\n"
            "for line in sys.stdin:\n"
            "    print(json.dumps({'detections': [good, good, bad]}), flush=True)\n"
        )
        with ExternalBackend([sys.executable, str(script)], timeout_s=10) as backend:
            with pytest.raises(ProtocolViolation) as exc:
                ask(backend, "x.jpg", "damage")
        assert exc.value.detail == (
            "bad damage response: schema violation at detections[2].box: must be [cx, cy, w, h]"
        )

    def test_timeout(self, stub):
        with ExternalBackend([sys.executable, stub("sleepy_backend")], timeout_s=2.0) as backend:
            with pytest.raises(Timeout) as exc:
                ask(backend, "x", "scene")
        assert exc.value.seconds == 2.0

    def test_process_exit_detected(self, stub):
        backend = ExternalBackend([sys.executable, "-c", "pass"], timeout_s=5)
        with pytest.raises(ProcessExited):
            ask(backend, "x", "scene")
        backend.close()

    def test_unknown_command_unavailable(self):
        with pytest.raises(BackendUnavailable):
            ExternalBackend(["/no/such/binary/anywhere"])

    def test_command_with_nul_unavailable(self):
        with pytest.raises(BackendUnavailable, match="embedded null byte"):
            ExternalBackend([sys.executable, "-c", "pass\0"])

    def test_timeout_restarts_the_child(self, stub, tmp_path):
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stalled")]
        with ExternalBackend(command, timeout_s=2.0) as backend:
            with pytest.raises(Timeout):
                ask(backend, "a.jpg", "damage")
            # a fresh child answers; the stalled one can no longer reply
            assert len(ask(backend, "bb.jpg", "damage")) == 2
            assert len(ask(backend, "c.jpg", "damage")) == 1

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
                ask(backend, "a.jpg", "scene")
            # the reply queued behind the stray line died with its child
            assert ask(backend, "b.jpg", "scene").cls is SceneClass.INSIDE
            assert ask(backend, "c.jpg", "scene").cls is SceneClass.OUTSIDE

    @pytest.mark.parametrize("mode, error", [("exit", ProcessExited), ("deep", ProtocolViolation)])
    def test_exit_or_deep_reply_restarts_the_child(self, stub, tmp_path, mode, error):
        command = [sys.executable, stub("misbehave_once_backend"), mode, str(tmp_path / "seen")]
        with ExternalBackend(command, timeout_s=10) as backend:
            if mode == "exit":  # the first request is answered, then the child is gone
                assert len(ask(backend, "a.jpg", "damage")) == 1
            with pytest.raises(error):
                ask(backend, "bb.jpg", "damage")
            # a fresh child answers each later request with its own reply
            assert len(ask(backend, "ccc.jpg", "damage")) == 3
            assert len(ask(backend, "d.jpg", "damage")) == 1

    def test_relative_image_path_resolves_against_the_manifest_dir(self, stub, tmp_path):
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "x.jpg").write_bytes(b"")
        (tmp_path / "manifest.json").write_text(
            '{"images":[{"id":"x","image_path":"frames/x.jpg"}]}'
        )
        command = [sys.executable, stub("stall_first_backend"), str(tmp_path / "stall-never")]
        (tmp_path / "stall-never").touch()
        loaded = load_manifest(tmp_path / "manifest.json").images[0]
        with ExternalBackend(command, timeout_s=10) as backend:
            assert backend.query(loaded, ["scene"])[0].cls is SceneClass.INSIDE
            # an entry not loaded from a manifest is sent as it is
            entry = ImageEntry(id="y", image_path="frames/x.jpg")
            assert backend.query(entry, ["scene"])[0].cls is SceneClass.OUTSIDE

    def test_child_is_sent_the_path_the_file_backend_opens(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "d").mkdir()
        (tmp_path / "d" / "manifest.json").write_text(
            '{"images":[{"id":"x","scene":"inside","image_path":"./frames/x.jpg",'
            '"damage_file":"./frames/x.jpg"}]}'
        )
        manifest = load_manifest("d/manifest.json")
        entry = manifest.images[0]
        opened = []

        def record(path, class_map, enum_cls):
            opened.append(path)
            return []

        monkeypatch.setattr(backend_module.dataset_io, "read_detections", record)
        FileBackend(manifest).cascade(entry)
        log, script = tmp_path / "images.log", tmp_path / "log_images.py"
        script.write_text(  # logs each request's image and answers no detections
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    with open(sys.argv[1], 'a') as fh:\n"
            "        fh.write(json.loads(line)['image'] + '\\n')\n"
            "    print(json.dumps({'detections': []}), flush=True)\n"
        )
        with ExternalBackend([sys.executable, str(script), str(log)], timeout_s=10) as backend:
            backend.query(entry, ["damage"])
        assert opened == log.read_text().splitlines() == ["d/./frames/x.jpg"]

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
    """A chunk's requests in flight at once, its replies checked in order."""

    @pytest.mark.parametrize(
        "jobs, failed", [(1, {"bb", "dddd"}), (2, {"ccc", "dddd"})], ids=["jobs1", "jobs2"]
    )
    def test_one_exchange_per_chunk_lands_replies_on_their_image(self, stub, jobs, failed):
        # every child exits after answering its 4th request; the images dealt
        # to it after the one that request belongs to are left unserved, and
        # query asks for each alone from child 0's slot. One child fails bb,
        # then its successor, asked for ccc and then dddd, fails dddd. With
        # two, child 0 (a, ccc, eeeee) fails ccc and child 1 (bb, dddd) fails
        # dddd; eeeee then goes to a fresh child 0.
        entries = [
            ImageEntry(id="a", image_path="a.jpg"),
            ImageEntry(id="bb", image_path="bb.jpg"),
            ImageEntry(id="ccc", image_path="ccc.jpg"),
            ImageEntry(id="dddd", image_path="dddd.jpg", scene_override=SceneClass.INSIDE),
            ImageEntry(id="eeeee", image_path="eeeee.jpg"),
        ]
        expected = {
            "a": ("a", "inside", 1, 1),
            "bb": ("bb", "outside", 2, 2),
            "ccc": ("ccc", "inside", 0, 3),
            "dddd": ("dddd", "inside", 1, 4),
            "eeeee": ("eeeee", "inside", 2, 5),
        }
        with ExternalBackend([sys.executable, stub("keyed_backend")], timeout_s=10, jobs=jobs) as backend:
            backend.exchange([(entry, cascade_tasks(entry)) for entry in entries])
            outcomes = [cascade_outcome(entry, backend) for entry in entries]
        assert outcomes == [
            (entry.id, "ProcessExited") if entry.id in failed else expected[entry.id]
            for entry in entries
        ]

    @pytest.mark.parametrize(
        "requests",
        [
            "[sys.stdin.readline() for _ in range(32)]",  # reads all before it answers
            "sys.stdin",  # answers each request as it reads it
        ],
        ids=["read-ahead", "one-at-a-time"],
    )
    def test_requests_and_replies_overflowing_the_pipes(self, tmp_path, requests):
        # 64 requests of ~3 KiB and replies of ~30 KiB each overflow a 64 KiB
        # pipe in both directions, so the loop must keep writing while a
        # child reads ahead and keep reading while it answers
        script = tmp_path / "big.py"
        script.write_text(
            "import json, os, sys\n"
            "crack = {'class': 'crack', 'box': [0.5, 0.5, 0.2, 0.2], 'confidence': 0.9}\n"
            f"for line in {requests}:\n"
            "    n = int(os.path.basename(json.loads(line)['image']))\n"
            "    print(json.dumps({'detections': [crack] * n}), flush=True)\n"
        )
        entries = [ImageEntry(id=str(i), image_path=f"{'d' * 3000}/{400 + i}") for i in range(64)]
        start = time.monotonic()
        with ExternalBackend([sys.executable, str(script)], timeout_s=20.0, jobs=2) as backend:
            backend.exchange([(entry, ["damage"]) for entry in entries])
            counts = [len(backend.query(entry, ["damage"])[0]) for entry in entries]
        assert counts == [400 + i for i in range(64)]
        assert time.monotonic() - start < 10.0

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
                ask(backend, "a.jpg", "scene")
            assert ask(backend, "b.jpg", "scene").cls is SceneClass.INSIDE

    def test_child_closing_stdout_but_alive_is_killed_after_timeout(self):
        # a child whose output is closed can never reply, so it is killed at
        # once rather than waited on, and the loop never stalls on it
        command = [
            sys.executable,
            "-c",
            "import os, sys, time; sys.stdin.readline(); os.close(1); time.sleep(30)",
        ]
        start = time.monotonic()
        with ExternalBackend(command, timeout_s=5.0) as backend:
            with pytest.raises(ProcessExited):
                ask(backend, "x", "scene")
        assert time.monotonic() - start < 4.0

    def test_child_writing_without_newline_times_out(self, tmp_path):
        # output that never completes a line is no reply: the deadline runs
        # although the child is readable in every round of the loop
        script = tmp_path / "dots.py"
        script.write_text(
            "import os, sys\n"
            "sys.stdin.readline()\n"
            "while True:\n"
            "    os.write(1, b'.' * 1024)\n"
        )
        start = time.monotonic()
        with ExternalBackend([sys.executable, str(script)], timeout_s=1.0) as backend:
            with pytest.raises(Timeout):
                ask(backend, "x", "scene")
        assert time.monotonic() - start < 4.0

    def test_flood_without_newline_costs_little_cpu_and_memory(self, tmp_path):
        # 64 KiB blocks with no newline until the deadline: the unfinished
        # line grows in place, and past MAX_REPLY_BYTES the child is not read
        script = tmp_path / "flood.py"
        script.write_text(
            "import os, sys\n"
            "sys.stdin.readline()\n"
            "while True:\n"
            "    os.write(1, b'.' * 65536)\n"
        )
        before = resource.getrusage(resource.RUSAGE_SELF)
        with ExternalBackend([sys.executable, str(script)], timeout_s=2.0) as backend:
            with pytest.raises(Timeout):
                ask(backend, "x", "scene")
        after = resource.getrusage(resource.RUSAGE_SELF)
        cpu_s = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
        assert cpu_s < 0.5

    def test_long_reply_line_read_across_many_reads(self, tmp_path):
        n = 40_000  # a reply of about 3 MiB, written in small pieces
        script = tmp_path / "long.py"
        script.write_text(
            "import json, os, sys\n"
            "sys.stdin.readline()\n"
            "det = {'class': 'crack', 'box': [0.5, 0.5, 0.1, 0.1], 'confidence': 0.9}\n"
            f"reply = json.dumps({{'detections': [det] * {n}}}).encode() + b'\\n'\n"
            "for i in range(0, len(reply), 1000):\n"
            "    os.write(1, reply[i : i + 1000])\n"
            "sys.stdin.read()\n"
        )
        with ExternalBackend([sys.executable, str(script)], timeout_s=10) as backend:
            assert len(ask(backend, "x", "damage")) == n

    def test_line_past_the_bound_is_not_read_and_times_out(self, tmp_path, monkeypatch):
        script = tmp_path / "long.py"
        script.write_text(
            "import os, sys, time\n"
            "sys.stdin.readline()\n"
            "os.write(1, b'{\"scene\": \"outside\",' + b' ' * 5000)\n"
            "time.sleep(0.1)\n"
            "os.write(1, b'\"confidence\": 1.0}\\n')\n"
            "sys.stdin.read()\n"
        )
        # this half times the child's start-up too, so its bound is far above it
        with ExternalBackend([sys.executable, str(script)], timeout_s=10.0) as backend:
            assert ask(backend, "x", "scene").cls is SceneClass.OUTSIDE
        monkeypatch.setattr(backend_module, "MAX_REPLY_BYTES", 1000)
        with ExternalBackend([sys.executable, str(script)], timeout_s=0.5) as backend:
            with pytest.raises(Timeout):
                ask(backend, "x", "scene")

    @pytest.mark.parametrize("stray", [b"log: done\n", b"log: do"], ids=["line", "partial"])
    def test_output_nobody_asked_for_kills_the_child(self, tmp_path, stray):
        # each reply comes with output after it in the same write; were it
        # kept, it would be read as the start of the next image's reply
        script = tmp_path / "chatty.py"
        script.write_text(
            "import json, os, sys\n"
            "for line in sys.stdin:\n"
            "    scene = 'inside' if json.loads(line)['image'].startswith('b') else 'outside'\n"
            "    reply = json.dumps({'scene': scene, 'confidence': 1.0}).encode()\n"
            f"    os.write(1, reply + b'\\n' + {stray!r})\n"
        )
        with ExternalBackend([sys.executable, str(script)], timeout_s=10) as backend:
            assert ask(backend, "a.jpg", "scene").cls is SceneClass.OUTSIDE
            assert ask(backend, "b.jpg", "scene").cls is SceneClass.INSIDE
            assert ask(backend, "c.jpg", "scene").cls is SceneClass.OUTSIDE

    def test_child_that_cannot_start_fails_its_first_image(self, tmp_path):
        # child 1 cannot start: its first image gets BackendUnavailable and
        # its other image is asked for again from child 0
        script = tmp_path / "echo_damage"
        script.write_text(
            f"#!{sys.executable}\n"
            "import json, os, sys\n"
            "for line in sys.stdin:\n"
            "    stem = os.path.basename(json.loads(line)['image'])\n"
            "    crack = {'class': 'crack', 'box': [0.5, 0.5, 0.2, 0.2], 'confidence': 0.9}\n"
            "    print(json.dumps({'detections': [crack] * len(stem)}), flush=True)\n"
        )
        script.chmod(0o755)
        entries = [ImageEntry(id=name, image_path=name) for name in ("a", "bb", "ccc", "dddd")]
        with ExternalBackend([str(script)], timeout_s=10, jobs=2) as backend:
            assert len(ask(backend, "zz", "damage")) == 2  # child 0 has read its script
            script.unlink()
            backend.exchange([(entry, ["damage"]) for entry in entries])
            with pytest.raises(BackendUnavailable):
                backend.query(entries[1], ["damage"])
            counts = [len(backend.query(entries[i], ["damage"])[0]) for i in (0, 2, 3)]
        assert counts == [1, 3, 4]


class TestClose:
    def test_children_writing_after_their_input_ends_exit_on_their_own(self, tmp_path):
        # 128 KiB is more than a pipe holds: left unread, it would block each
        # child until it is killed at the close deadline
        script = tmp_path / "farewell.py"
        script.write_text(
            "import os, sys\n"
            "sys.stdin.readline()\n"
            "os.write(1, b'{\"scene\": \"outside\", \"confidence\": 1.0}\\n')\n"
            "sys.stdin.read()\n"
            "os.write(1, b'.' * (128 * 1024))\n"
        )
        entries = [ImageEntry(id=name, image_path=name) for name in ("a", "b")]
        with ExternalBackend([sys.executable, str(script)], timeout_s=10.0, jobs=2) as backend:
            backend.exchange([(entry, ["scene"]) for entry in entries])
            assert [backend.query(entry, ["scene"])[0].cls for entry in entries] == [
                SceneClass.OUTSIDE, SceneClass.OUTSIDE
            ]
            procs = [child.proc for child in backend._children]
        assert [proc.returncode for proc in procs] == [0, 0]

    def test_child_still_running_at_the_deadline_is_killed(self, tmp_path):
        # it keeps its output open after its input ends, so it is waited on
        # for the whole grace period and then killed
        script = tmp_path / "lingering.py"
        script.write_text("import sys, time\nsys.stdin.read()\ntime.sleep(30)\n")
        start = time.monotonic()
        backend = ExternalBackend([sys.executable, str(script)], timeout_s=10.0)
        proc = backend._children[0].proc
        backend.close()
        assert proc.returncode == -signal.SIGKILL
        assert 1.9 < time.monotonic() - start < 4.0


def decoded(line: bytes, task: str):
    """A reply line as evidence, or None for a ProtocolViolation; any other
    exception fails the caller."""
    try:
        evidence = _evidence(task, _receive(line, task))
    except ProtocolViolation:
        return None
    if task == "scene":
        assert isinstance(evidence, SceneLabel)
    else:
        enum_cls = DamageClass if task == "damage" else ComponentClass
        assert all(type(d) is Detection and type(d.cls) is enum_cls for d in evidence)
    return evidence


DEEP = b"[" * 100_000 + b"]" * 100_000
HUGE_INTS = st.sampled_from([10**400, -(10**400), 2**1024, 10**4000])
json_scalars = (
    st.none() | st.booleans() | st.integers() | HUGE_INTS | st.floats() | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)
numbers = st.floats(0, 1) | json_scalars
scene_replies = st.fixed_dictionaries(
    {},
    optional={
        "scene": st.sampled_from(["inside", "outside"]) | json_values,
        "confidence": numbers,
        "task": st.sampled_from(TASKS) | json_values,
        "extra": json_values,
    },
)
detection_replies = st.fixed_dictionaries(
    {},
    optional={
        "detections": st.lists(
            st.fixed_dictionaries(
                {},
                optional={
                    "class": st.sampled_from(["crack", "spalling", "rebar", "beam", "column"])
                    | json_values,
                    "box": st.lists(numbers, max_size=5) | json_values,
                    "confidence": numbers,
                },
            ),
            max_size=3,
        )
        | json_values,
        "task": st.sampled_from(TASKS) | json_values,
    },
)


class TestReplyDecoding:
    """Whatever a child writes becomes evidence or a ProtocolViolation."""

    def test_scene_confidence_too_large_for_a_float(self):
        with pytest.raises(ProtocolViolation):
            _evidence("scene", {"scene": "outside", "confidence": 10**400})

    @pytest.mark.parametrize("task, name", [("components", "crack"), ("damage", "beam")])
    def test_class_of_the_other_detector_is_protocol_violation(self, task, name):
        reply = {"detections": [{"class": name, "box": [0.5, 0.5, 0.2, 0.2], "confidence": 0.9}]}
        with pytest.raises(ProtocolViolation) as exc:
            _evidence(task, reply)
        assert exc.value.detail == f"bad {task} response: unknown class name: {name!r}"

    @settings(deadline=None)
    @given(line=st.binary(max_size=300), task=st.sampled_from(TASKS))
    @example(line=b"\xff\n", task="scene")
    @example(line=b'{"scene": "outside", "confidence": NaN}\n', task="scene")
    @example(line=b'{"scene": "outside", "confidence": Infinity}\n', task="scene")
    @example(line=b'{"scene": "outside", "confidence": ' + b"1" * 400 + b"}\n", task="scene")
    @example(line=b"1" * 5000 + b"\n", task="damage")
    @example(line=DEEP + b"\n", task="scene")
    @example(line=b'{"detections": ' + DEEP + b"}\n", task="damage")
    def test_any_line(self, line, task):
        decoded(line, task)

    @settings(deadline=None)
    @given(reply=scene_replies | detection_replies, task=st.sampled_from(TASKS))
    @example(reply={"scene": "outside", "confidence": 10**400}, task="scene")
    @example(reply={"detections": [{"class": "crack", "box": [2**1024] * 4}]}, task="damage")
    def test_any_reply_object(self, reply, task):
        decoded(json.dumps(reply).encode() + b"\n", task)  # NaN, Infinity go out as text
        reply.pop("task", None)
        try:
            _evidence(task, reply)
        except ProtocolViolation:
            pass
