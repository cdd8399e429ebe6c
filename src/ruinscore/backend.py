"""Evidence sources for the cascade: scene class, components, damage boxes.

Two backends implement the same `cascade_chunk(entries)` contract: a
generator that yields, in the entries' order, each image's `CascadeOutput`
or the error it failed with, working on an entry only when the caller asks
for it. FileBackend reads the detection files named in the manifest and
never touches image bytes. ExternalBackend talks newline-delimited JSON to
child processes, keeping the engine agnostic of whatever model they run:
`exchange` asks for a chunk of images at once and returns each one's
answers, and `cascade_chunk` assembles them. Task names belong to that wire
alone. `subprocess` and `selectors` are imported by ExternalBackend's
methods only, so the file backend runs without them.
"""

from __future__ import annotations

import os
import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Protocol, Sequence

from . import dataset_io
from .dataset_io import (
    ComponentClass,
    DamageClass,
    DatasetManifest,
    Detection,
    ImageEntry,
    SceneClass,
    check_confidence,
    slot_setters,
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

if TYPE_CHECKING:
    import subprocess

TASKS = ("scene", "components", "damage")
DEFAULT_TIMEOUT_S = 30.0
# bytes of one unfinished reply line past which a child is no longer read, so
# a child writing without a newline holds this much memory until its deadline
MAX_REPLY_BYTES = 1 << 24
# the longest one selector wait, well under epoll's ~24.8 days: a longer
# timeout_s wakes the loop this often to re-check its deadlines
_MAX_WAIT_S = 3600.0


@dataclass(frozen=True, slots=True, init=False)
class CascadeOutput:
    """Per-image bundle of everything the fusion stage consumes: the scene
    class with its confidence in [0, 1], the components and the damage boxes."""

    image_id: str
    scene: SceneClass
    scene_confidence: float
    components: tuple[Detection, ...]
    damages: tuple[Detection, ...]

    def __init__(
        self,
        image_id: str,
        scene: SceneClass,
        scene_confidence: float,
        components: tuple[Detection, ...],
        damages: tuple[Detection, ...],
    ) -> None:
        if not (type(scene_confidence) is float and 0.0 <= scene_confidence <= 1.0):
            check_confidence(scene_confidence)
        set_image_id, set_scene, set_confidence, set_components, set_damages = _CASCADE_SETTERS
        set_image_id(self, image_id)
        set_scene(self, scene)
        set_confidence(self, scene_confidence)
        set_components(self, components)
        set_damages(self, damages)


_CASCADE_SETTERS = slot_setters(CascadeOutput)
# what a backend makes of one image: its evidence, or the error it failed with
Outcome = CascadeOutput | RuinscoreError


class Backend(Protocol):
    def cascade_chunk(self, entries: Sequence[ImageEntry]) -> Iterator[Outcome]:
        """Each entry's evidence, or the error of its first failing stage in
        cascade order (scene, components, damage), in the entries' order; an
        entry is worked on only when the caller asks for its result."""
        ...


class FileBackend:
    """Serves evidence from the detection files referenced by the manifest,
    opening each entry's path as given.

    The scene must come from the manifest's own "scene" key (there is no
    scene file concept), so an entry without one fails before any read. A
    missing components_file just means "no components seen"; a missing
    damage_file is an error because fusion cannot run without damage
    evidence.
    """

    def __init__(self, manifest: DatasetManifest):
        self._manifest = manifest

    def cascade_chunk(self, entries: Sequence[ImageEntry]) -> Iterator[Outcome]:
        component_map = self._manifest.component_class_map
        damage_map = self._manifest.damage_class_map
        read = dataset_io.read_detections
        for entry in entries:
            try:
                if entry.scene_override is None:
                    raise MissingEvidence(
                        "scene", f"entry {entry.id!r} has no 'scene' key in the manifest"
                    )
                components = ()
                if entry.components_file is not None:
                    components = tuple(read(entry.components_file, component_map, ComponentClass))
                if entry.damage_file is None:
                    raise MissingEvidence("damage", f"entry {entry.id!r} names no damage_file")
                damages = tuple(read(entry.damage_file, damage_map, DamageClass))
                result = CascadeOutput(entry.id, entry.scene_override, 1.0, components, damages)
            except RuinscoreError as exc:
                result = exc
            yield result


class _Child:
    """A child process, the replies it owes as (image index, task) in request
    order, its request bytes not yet written, its output after the last
    newline, and the time by which it must reply next."""

    def __init__(self, proc: subprocess.Popen):
        self.proc = proc
        self.owed: deque = deque()
        self.unsent, self.partial = b"", bytearray()
        self.deadline = 0.0


class ExternalBackend:
    """`jobs` child processes speaking the README's wire protocol: per task a
    request line {"image": path, "task": task}, the path being the entry's
    image_path as given, which load_manifest has resolved as the file
    backend's paths are; per request one UTF-8 reply line in order,
    {"scene": name, "confidence": float} or the detection JSON schema, whose
    optional "task" echo must match. stderr passes through.

    `exchange` drives the children from one `selectors` loop in the calling
    thread: image i goes to child i mod jobs, and requests are written and
    replies read as the pipes allow, so no pipe size can deadlock a child
    that reads ahead. Replies are checked in order, so an image fails on its
    first failing task. A child silent for `timeout_s`, or sending a bad or
    unasked line, or closing its output is killed: the image it owed a reply
    gets the error and its later images are left unanswered, so no reply is
    read as another image's. Child 0 starts with the backend.
    `cascade_chunk` exchanges a chunk's `cascade_tasks` and assembles each
    image's answers into its CascadeOutput.

    Arguments are checked before any child starts: `command` must be a
    non-empty list of str, bytes or path-like arguments (BackendUnavailable
    when empty; ValueError for a bare string or any other element),
    `timeout_s` a finite number > 0 and `jobs` an integer >= 1 (ValueError).
    """

    def __init__(
        self,
        command: Sequence[str],
        timeout_s: float = DEFAULT_TIMEOUT_S,
        jobs: int = 1,
    ):
        if not command:
            raise BackendUnavailable("external backend command is empty")
        if isinstance(command, (str, bytes)) or not all(
            isinstance(arg, (str, bytes, os.PathLike)) for arg in command
        ):
            raise ValueError("command must be a list of strings")
        dataset_io.check_count(jobs, "jobs", 1)
        dataset_io.check_real(timeout_s, "timeout_s", 0, above=True)
        self.command = list(command)
        self.timeout_s = timeout_s
        self._children: list[_Child | None] = [self._spawn()] + [None] * (jobs - 1)

    def _spawn(self) -> _Child:
        import subprocess

        try:
            proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0
            )
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the command
            raise BackendUnavailable(f"cannot start {self.command[0]!r}: {exc}") from None
        os.set_blocking(proc.stdin.fileno(), False)
        return _Child(proc)

    def _drop(self, child: _Child, grace_s: float = 0.0) -> None:
        """Close the child's input and give it `grace_s` to exit, else kill it;
        its slot starts a new child when next dealt an image."""
        import subprocess

        self._children[self._children.index(child)] = None
        child.proc.stdin.close()
        try:
            child.proc.wait(timeout=grace_s)
        except subprocess.TimeoutExpired:
            child.proc.kill()
            child.proc.wait()
        child.proc.stdout.close()

    def exchange(self, batch: Sequence[tuple[ImageEntry, Sequence[str]]]) -> list:
        """Ask for each (entry, tasks) of a chunk. Returns, aligned with
        `batch`, each image's evidence in task order (a scene's a (SceneClass,
        confidence) pair), the error it failed on, or None for an image a
        failed child left unanswered. The first image with an image_path
        always gets an answer or an error."""
        import selectors

        results: dict[int, list | RuinscoreError] = {}  # by batch index; unanswered: absent
        requests: dict[int, bytes] = {}
        encode = dataset_io.encode_json_line
        for i, (entry, tasks) in enumerate(batch):
            if entry.image_path is None:
                results[i] = MissingEvidence(tasks[0], f"entry {entry.id!r} has no image_path")
                continue
            lines = "".join(encode({"image": entry.image_path, "task": task}) for task in tasks)
            requests[i] = lines.encode("utf-8")
        sel = selectors.DefaultSelector()

        def fail(child: _Child, error: RuinscoreError | None) -> None:
            """Kill the child; the image it owes a reply gets `error`."""
            if child.owed:
                results[child.owed[0][0]] = error
                child.owed.clear()
            for key in [k for k in sel.get_map().values() if k.data is child]:
                sel.unregister(key.fileobj)
            self._drop(child)

        def read(child: _Child) -> None:
            data = os.read(child.proc.stdout.fileno(), 1 << 16)
            child.partial += data  # in place: an unfinished line is not copied per read
            lines = []
            if b"\n" in data:
                *lines, rest = bytes(child.partial).split(b"\n")
                child.partial = bytearray(rest)
            elif not data and child.partial:  # end of output: a last line may lack its newline
                lines.append(bytes(child.partial))
                child.partial.clear()
            for line in lines:
                if not child.owed:  # a line nobody asked for: the child is out of step
                    return fail(child, None)
                i, task = child.owed[0]
                try:
                    results.setdefault(i, []).append(_evidence(task, _receive(line, task)))
                except ProtocolViolation as exc:
                    return fail(child, exc)
                child.owed.popleft()
                child.deadline = time.monotonic() + self.timeout_s
            if child.owed and not data:  # output closed while a reply is owed: none can come
                child.proc.kill()  # a child that exited on its own keeps its exit code
                fail(child, ProcessExited(child.proc.wait()))
            elif not child.owed and child.partial:  # the start of a line nobody asked for
                fail(child, None)
            elif not child.owed or len(child.partial) > MAX_REPLY_BYTES:
                # read no more; a reply still owed now can only time out
                sel.unregister(child.proc.stdout)

        try:
            jobs = len(self._children)
            for slot in range(jobs):
                if not (images := list(requests)[slot::jobs]):
                    continue
                try:
                    child = self._children[slot] = self._children[slot] or self._spawn()
                except BackendUnavailable as exc:
                    results[images[0]] = exc
                    continue
                child.owed.extend((i, task) for i in images for task in batch[i][1])
                child.unsent = b"".join(requests[i] for i in images)
                child.deadline = time.monotonic() + self.timeout_s
                sel.register(child.proc.stdout, selectors.EVENT_READ, child)
                sel.register(child.proc.stdin, selectors.EVENT_WRITE, child)
            while busy := [c for c in self._children if c is not None and c.owed]:
                wait = min(c.deadline for c in busy) - time.monotonic()
                events = sel.select(min(max(wait, 0.0), _MAX_WAIT_S))
                for key, mask in events:
                    child = key.data
                    if child not in self._children:
                        continue  # killed earlier in this round
                    if mask & selectors.EVENT_WRITE:
                        try:
                            child.unsent = child.unsent[os.write(key.fd, child.unsent) :]
                        except BlockingIOError:
                            pass
                        except OSError:  # BrokenPipeError: the child's exit shows on stdout
                            child.unsent = b""
                        if not child.unsent:
                            sel.unregister(child.proc.stdin)
                    else:
                        read(child)
                now = time.monotonic()
                for child in busy:
                    if child.owed and child.deadline <= now:
                        fail(child, Timeout(self.timeout_s))
        finally:  # left by an exception: no later exchange may read these replies
            sel.close()
            for child in self._children:
                if child is not None and child.owed:
                    self._drop(child)
        return [results.get(i) for i in range(len(batch))]

    def cascade_chunk(self, entries: Sequence[ImageEntry]) -> Iterator[Outcome]:
        """One exchange for the entries' `cascade_tasks`; the scene never
        gates the later stages, it only conditions fusion, so the requests do
        not depend on each other. An entry reached still unanswered, which a
        failed child left, is exchanged again alone, from the first slot."""
        batch = [(entry, cascade_tasks(entry)) for entry in entries]
        results = self.exchange(batch)
        for i, entry in enumerate(entries):
            answers = results[i]
            if answers is None:
                [answers] = self.exchange([batch[i]])
            if isinstance(answers, RuinscoreError):
                yield answers
                continue
            if entry.scene_override is not None:
                answers = [(entry.scene_override, 1.0), *answers]
            (scene, confidence), components, damages = answers
            yield CascadeOutput(entry.id, scene, confidence, tuple(components), tuple(damages))

    def close(self) -> None:
        """End every child's input, read each one's output to its end under one
        shared deadline, dropping whatever it still writes so no child blocks
        on a full pipe, then reap each with the time left, killing any that
        has not exited by then."""
        import selectors

        children = [c for c in self._children if c is not None]
        deadline = time.monotonic() + 2.0
        with selectors.DefaultSelector() as sel:
            for child in children:  # all see the end of input before any is waited on
                child.proc.stdin.close()
                sel.register(child.proc.stdout, selectors.EVENT_READ)
            while sel.get_map() and (left := deadline - time.monotonic()) > 0:
                for key, _ in sel.select(left):
                    if not os.read(key.fd, 1 << 16):
                        sel.unregister(key.fileobj)
        for child in children:
            self._drop(child, max(deadline - time.monotonic(), 0.0))

    def __enter__(self) -> "ExternalBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _receive(line: bytes, task: str | None) -> dict:
    """One reply line as a JSON object, its optional task echo checked."""
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


def _evidence(task: str, response: dict):
    """One decoded reply as the cascade's evidence for `task`."""
    if task == "scene":
        return _scene_from_response(response)
    enum_cls = DamageClass if task == "damage" else ComponentClass
    try:
        return dataset_io.detections_from_obj(response, enum_cls)
    except RuinscoreError as exc:
        raise ProtocolViolation(f"bad {task} response: {exc}") from None


_SCENE_REPLY_KEYS = {"scene", "confidence"}


def _scene_from_response(response: dict) -> tuple[SceneClass, float]:
    if not response.keys() <= _SCENE_REPLY_KEYS:
        unknown = sorted(set(response) - _SCENE_REPLY_KEYS)[0]
        raise ProtocolViolation(f"unexpected scene response key {unknown!r}")
    name = response.get("scene")
    conf = response.get("confidence")
    if not isinstance(name, str):
        raise ProtocolViolation("scene response misses a 'scene' name")
    scene = dataset_io.CLASS_BY_NAME[SceneClass].get(name)
    if scene is None:
        raise ProtocolViolation(f"{name!r} is not a valid SceneClass")
    try:
        if type(conf) is not float:
            dataset_io.check_number(conf, "confidence")
            conf = float(conf)
        check_confidence(conf)
    except (SchemaViolation, ValueError) as exc:
        raise ProtocolViolation(str(exc)) from None
    return scene, conf


def cascade_tasks(entry: ImageEntry) -> tuple[str, ...]:
    """The tasks a backend answers for `entry`, each once, in cascade order:
    a manifest scene override replaces the scene answer."""
    return TASKS if entry.scene_override is None else TASKS[1:]
