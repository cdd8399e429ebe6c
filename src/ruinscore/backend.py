"""Evidence sources for the cascade: scene label, components, damage boxes.

Two backends implement the same `query(entry, tasks)` contract: one call per
image, answers in task order. FileBackend reads detection files named in the
manifest and never touches image bytes. ExternalBackend talks
newline-delimited JSON to a child process (one request line per task, one
response line per request), keeping the engine agnostic of whatever model
the child runs.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

from . import dataset_io
from .dataset_io import (
    ComponentDetection,
    DamageDetection,
    DatasetManifest,
    DetectionKind,
    ImageEntry,
    SceneClass,
    SceneLabel,
)
from .errors import (
    BackendUnavailable,
    MissingEvidence,
    ProcessExited,
    ProtocolViolation,
    RuinscoreError,
    SchemaViolation,
    Timeout,
)

TASKS = ("scene", "components", "damage")
DEFAULT_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class CascadeOutput:
    """Per-image bundle of everything the fusion stage consumes."""

    image_id: str
    scene: SceneLabel
    components: tuple[ComponentDetection, ...]
    damages: tuple[DamageDetection, ...]


class Backend(Protocol):
    def query(self, entry: ImageEntry, tasks: Sequence[str]) -> list: ...


class FileBackend:
    """Serves evidence from the detection files referenced by the manifest.

    A missing components_file just means "no components seen"; a missing
    damage_file is an error because fusion cannot run without damage
    evidence. The scene must come from the manifest's own "scene" key (there
    is no scene file concept), so querying it here always raises.
    """

    def __init__(self, manifest: DatasetManifest):
        self._manifest = manifest

    def query(self, entry: ImageEntry, tasks: Sequence[str]) -> list:
        return [self._read(entry, task) for task in tasks]

    def _read(self, entry: ImageEntry, task: str):
        if task == "scene":
            raise MissingEvidence(
                "scene", f"entry {entry.id!r} has no 'scene' key in the manifest"
            )
        if task == "components":
            if entry.components_file is None:
                return []
            return dataset_io.read_detections(
                self._manifest.resolve(entry.components_file),
                self._manifest.component_class_map,
                DetectionKind.COMPONENT,
            )
        if task == "damage":
            if entry.damage_file is None:
                raise MissingEvidence("damage", f"entry {entry.id!r} names no damage_file")
            return dataset_io.read_detections(
                self._manifest.resolve(entry.damage_file),
                self._manifest.damage_class_map,
                DetectionKind.DAMAGE,
            )
        raise ValueError(f"unknown task {task!r}")


class ExternalBackend:
    """Child-process backend speaking one JSON line per request and response.

    Requests look like {"image": path, "task": "scene"|"components"|"damage"},
    with a relative image_path resolved against `root` (the manifest's
    directory). Responses are either {"scene": name, "confidence": float} or
    the detection JSON schema, one UTF-8 line per request and in request
    order; an echoed "task" key is accepted and, when present, must match the
    request. stderr passes through for logs.

    One image's requests (up to three) are written together, before the
    first reply is read, so an image costs one round trip. Each reply is
    decoded and checked before the next is read, and `timeout_s` applies to
    each reply.

    A handle is a serial channel: exchanges are serialized by an internal
    lock. Run several handles for parallelism, never interleave one. After a
    Timeout, ProtocolViolation or ProcessExited the child is killed (or
    reaped) and a fresh one starts on the next exchange, so a late or stray
    reply is never read as the answer to a later image, and one crash fails
    only the image it hit.
    """

    _EOF = object()

    def __init__(
        self,
        command: Sequence[str],
        timeout_s: float = DEFAULT_TIMEOUT_S,
        root: Path = Path("."),
    ):
        if not command:
            raise BackendUnavailable("external backend command is empty")
        self.command = list(command)
        self.timeout_s = timeout_s
        self.root = Path(root)
        self._lock = threading.Lock()
        self._spawn()

    def _spawn(self) -> None:
        try:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=None,
            )
        except OSError as exc:
            raise BackendUnavailable(f"cannot start {self.command[0]!r}: {exc}") from None
        # each child gets its own queue, so a killed child's reader can only
        # ever feed a queue nobody reads again
        self._lines: queue.Queue = queue.Queue()
        threading.Thread(target=self._pump, args=(self._proc, self._lines), daemon=True).start()

    @classmethod
    def _pump(cls, proc: subprocess.Popen, lines: queue.Queue) -> None:
        try:
            for line in proc.stdout:
                lines.put(line)
        finally:
            proc.stdout.close()
            lines.put(cls._EOF)

    def _kill(self) -> None:
        """Drop the current child; the next exchange starts a new one."""
        proc, self._proc = self._proc, None
        if proc is not None:
            proc.kill()
            proc.wait()
            try:
                proc.stdin.close()
            except OSError:
                pass

    def _exited(self) -> ProcessExited:
        """The child closed a pipe: give it `timeout_s` to exit, else kill it."""
        try:
            self._proc.wait(timeout=self.timeout_s)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        return ProcessExited(self._proc.returncode)

    def exchange(self, requests: Sequence[dict], convert=None) -> list:
        """Send all request lines in one write, then read one reply per request.

        Replies are read in request order. Each is decoded and checked, and
        passed through `convert(task, reply)` when given, before the next is
        read, so the error raised is the first failing request's.
        """
        with self._lock:
            if self._proc is None:
                self._spawn()
            try:
                self._send(requests)
                replies = []
                for request in requests:
                    task = request.get("task")
                    reply = self._receive(task)
                    replies.append(reply if convert is None else convert(task, reply))
                return replies
            except (Timeout, ProtocolViolation, ProcessExited):
                self._kill()
                raise

    def _send(self, requests: Sequence[dict]) -> None:
        if self._proc.poll() is not None:
            raise ProcessExited(self._proc.returncode)
        payload = "".join(json.dumps(request) + "\n" for request in requests)
        try:
            self._proc.stdin.write(payload.encode("utf-8"))
            self._proc.stdin.flush()
        except OSError:  # BrokenPipeError included
            raise self._exited() from None

    def _receive(self, task: str | None) -> dict:
        try:
            line = self._lines.get(timeout=self.timeout_s)
        except queue.Empty:
            raise Timeout(self.timeout_s) from None
        if line is self._EOF:
            raise self._exited()
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError:
            raise ProtocolViolation(f"response is not UTF-8: {line.strip()[:200]!r}") from None
        try:
            response = dataset_io.decode_json(text)
        except SchemaViolation:
            raise ProtocolViolation(f"response is not JSON: {text.strip()[:200]!r}") from None
        if not isinstance(response, dict):
            raise ProtocolViolation("response is not a JSON object")
        echoed = response.pop("task", None)
        if echoed is not None and echoed != task:
            raise ProtocolViolation(f"task echo mismatch: sent {task!r}, got {echoed!r}")
        return response

    def query(self, entry: ImageEntry, tasks: Sequence[str]) -> list:
        if entry.image_path is None:
            raise MissingEvidence(tasks[0], f"entry {entry.id!r} has no image_path")
        image = str(self.root / entry.image_path)
        return self.exchange([{"image": image, "task": task} for task in tasks], _evidence)

    def close(self) -> None:
        with self._lock:
            proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()

    def __enter__(self) -> "ExternalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _evidence(task: str, response: dict):
    """One decoded reply as the cascade's evidence for `task`."""
    try:
        if task == "scene":
            return _scene_from_response(response)
        kind = DetectionKind.DAMAGE if task == "damage" else DetectionKind.COMPONENT
        return dataset_io.detections_from_obj(response, kind)
    except ProtocolViolation:
        raise
    except RuinscoreError as exc:
        raise ProtocolViolation(f"bad {task} response: {exc}") from None


def _scene_from_response(response: dict) -> SceneLabel:
    unknown = set(response) - {"scene", "confidence"}
    if unknown:
        raise ProtocolViolation(f"unexpected scene response key {sorted(unknown)[0]!r}")
    name = response.get("scene")
    conf = response.get("confidence")
    if not isinstance(name, str):
        raise ProtocolViolation("scene response misses a 'scene' name")
    if not isinstance(conf, (int, float)) or isinstance(conf, bool):
        raise ProtocolViolation("scene response misses a numeric 'confidence'")
    try:
        return SceneLabel(SceneClass(name), float(conf))
    except ValueError as exc:
        raise ProtocolViolation(str(exc)) from None


def run_cascade(entry: ImageEntry, backend: Backend) -> CascadeOutput:
    """Gather one image's evidence in cascade order: scene, components, damage.

    The backend is asked once per image for every task it must answer. A
    manifest scene override replaces the backend's scene answer (the backend
    is then not asked for it; at most one request per task). The scene label
    never gates the later stages, it only conditions fusion, so the requests
    do not depend on each other.
    """
    if entry.scene_override is not None:
        scene = SceneLabel(entry.scene_override, 1.0)
        components, damages = backend.query(entry, TASKS[1:])
    else:
        scene, components, damages = backend.query(entry, TASKS)
    return CascadeOutput(
        image_id=entry.id,
        scene=scene,
        components=tuple(components),
        damages=tuple(damages),
    )
