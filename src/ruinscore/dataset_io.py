"""Core data model plus manifest and detection-file parsing.

Detections use normalized center-format boxes (cx, cy, w, h as fractions of
the image); one `Detection` type serves both detectors, its `cls` a
DamageClass or ComponentClass member. Two on-disk conventions are supported:
a line-based box text format (`class_id cx cy w h [conf]`, `#` comments) and
a JSON schema with class names, resolved against the file's class enum. All
values are immutable and safe to share across threads.
"""

from __future__ import annotations

import errno
import json
import json.encoder
import os
from dataclasses import FrozenInstanceError, dataclass, field, fields
from enum import Enum, IntEnum
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadLine,
    DuplicateImageId,
    IoFailure,
    MissingFile,
    SchemaViolation,
    UnknownClass,
)


class DamageClass(Enum):
    CRACK = "crack"
    SPALLING = "spalling"
    EXPOSED_REBAR = "rebar"


class ComponentClass(Enum):
    BEAM = "beam"
    COLUMN = "column"
    WALL = "wall"


class SceneClass(Enum):
    INSIDE = "inside"
    OUTSIDE = "outside"


class DamageLevel(IntEnum):
    """Ordinal severity: ZERO < SLIGHT < MEDIUM < HEAVY."""

    ZERO = 0
    SLIGHT = 1
    MEDIUM = 2
    HEAVY = 3

    @property
    def label(self) -> str:
        return LEVEL_LABELS[self]


LEVEL_LABELS = tuple(lv.name.lower() for lv in DamageLevel)  # by ordinal
LEVEL_BY_LABEL = dict(zip(LEVEL_LABELS, DamageLevel))

DEFAULT_DAMAGE_CLASS_MAP = {
    0: DamageClass.CRACK,
    1: DamageClass.SPALLING,
    2: DamageClass.EXPOSED_REBAR,
}
DEFAULT_COMPONENT_CLASS_MAP = {
    0: ComponentClass.BEAM,
    1: ComponentClass.COLUMN,
    2: ComponentClass.WALL,
}


def _frozen_setattr(self, name: str, value: object) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def slot_setters(cls: type) -> tuple:
    """The `__set__` of each field's slot descriptor, in field order.

    A frozen slotted dataclass's hand-written `__init__` stores through them:
    the frozen `__setattr__` refuses every store, and `object.__setattr__`,
    which a generated `__init__` calls per field, finds the descriptor anew
    on every call. Call it once per class, after decoration: the decorator
    makes the slots.

    It also gives the class a `__setattr__` and `__delattr__` that refuse
    every name with FrozenInstanceError: the ones `frozen=True` generates
    name the class `slots=True` replaced, so on some Python versions a name
    that is not a field raises TypeError instead."""
    cls.__setattr__ = _frozen_setattr
    cls.__delattr__ = _frozen_delattr
    return tuple(cls.__dict__[f.name].__set__ for f in fields(cls))


@dataclass(frozen=True, slots=True, init=False)
class BoundingBox:
    """Normalized center-format box. Degenerate boxes are rejected, not clamped."""

    cx: float
    cy: float
    w: float
    h: float

    def __init__(self, cx: float, cy: float, w: float, h: float) -> None:
        # one comparison passes every valid float box; the rest words the error
        if not (
            type(cx) is type(cy) is type(w) is type(h) is float
            and 0.0 <= cx <= 1.0
            and 0.0 <= cy <= 1.0
            and 0.0 < w <= 1.0
            and 0.0 < h <= 1.0
        ):
            _check_box(cx, cy, w, h)
        set_cx, set_cy, set_w, set_h = _BOX_SETTERS
        set_cx(self, cx)
        set_cy(self, cy)
        set_w(self, w)
        set_h(self, h)

    def area(self) -> float:
        return self.w * self.h

    def corners(self) -> tuple[float, float, float, float]:
        """(x0, y0, x1, y1) edges; may extend past the frame."""
        return (
            self.cx - self.w / 2.0,
            self.cy - self.h / 2.0,
            self.cx + self.w / 2.0,
            self.cy + self.h / 2.0,
        )


_BOX_SETTERS = slot_setters(BoundingBox)


def _check_box(cx: float, cy: float, w: float, h: float) -> None:
    """The box checks in full, in the order that words the first error."""
    for name, v in (("cx", cx), ("cy", cy), ("w", w), ("h", h)):
        if not isinstance(v, (int, float)) or v != v:
            raise ValueError(f"{name} must be a finite number")
    if not 0.0 <= cx <= 1.0:
        raise ValueError("cx must be in [0, 1]")
    if not 0.0 <= cy <= 1.0:
        raise ValueError("cy must be in [0, 1]")
    if w <= 0.0:
        raise ValueError("w must be > 0")
    if w > 1.0:
        raise ValueError("w must be <= 1")
    if h <= 0.0:
        raise ValueError("h must be > 0")
    if h > 1.0:
        raise ValueError("h must be <= 1")


def _check_confidence(value: float) -> None:
    """The confidence checks in full, for a value the range comparison failed."""
    if not isinstance(value, (int, float)) or value != value:
        raise ValueError("confidence must be a finite number")
    if not 0.0 <= value <= 1.0:
        raise ValueError("confidence must be in [0, 1]")


@dataclass(frozen=True, slots=True, init=False)
class Detection:
    """One box with its class and a confidence in [0, 1]: a DamageClass `cls`
    for damage, a ComponentClass one for a structural component."""

    cls: DamageClass | ComponentClass
    box: BoundingBox
    confidence: float

    def __init__(self, cls: Enum, box: BoundingBox, confidence: float) -> None:
        if not (type(confidence) is float and 0.0 <= confidence <= 1.0):
            _check_confidence(confidence)
        set_cls, set_box, set_confidence = _DETECTION_SETTERS
        set_cls(self, cls)
        set_box(self, box)
        set_confidence(self, confidence)


_DETECTION_SETTERS = slot_setters(Detection)


@dataclass(frozen=True, slots=True, init=False)
class SceneLabel:
    """The image's scene class with a confidence in [0, 1]."""

    cls: SceneClass
    confidence: float

    def __init__(self, cls: SceneClass, confidence: float) -> None:
        if not (type(confidence) is float and 0.0 <= confidence <= 1.0):
            _check_confidence(confidence)
        set_cls, set_confidence = _SCENE_SETTERS
        set_cls(self, cls)
        set_confidence(self, confidence)


_SCENE_SETTERS = slot_setters(SceneLabel)


@dataclass(frozen=True, slots=True, init=False)
class ImageEntry:
    """One manifest entry: the image id, its optional files, level and scene."""

    id: str
    image_path: str | None = None
    ground_truth_level: DamageLevel | None = None
    scene_override: SceneClass | None = None
    damage_file: str | None = None
    components_file: str | None = None

    def __init__(
        self,
        id: str,
        image_path: str | None = None,
        ground_truth_level: DamageLevel | None = None,
        scene_override: SceneClass | None = None,
        damage_file: str | None = None,
        components_file: str | None = None,
    ) -> None:
        set_id, set_image, set_level, set_scene, set_damage, set_components = _ENTRY_SETTERS
        set_id(self, id)
        set_image(self, image_path)
        set_level(self, ground_truth_level)
        set_scene(self, scene_override)
        set_damage(self, damage_file)
        set_components(self, components_file)


_ENTRY_SETTERS = slot_setters(ImageEntry)


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered image entries, their paths resolved by load_manifest, plus the
    integer-to-class maps for box text files."""

    images: tuple[ImageEntry, ...]
    damage_class_map: Mapping[int, DamageClass] = field(
        default_factory=lambda: dict(DEFAULT_DAMAGE_CLASS_MAP)
    )
    component_class_map: Mapping[int, ComponentClass] = field(
        default_factory=lambda: dict(DEFAULT_COMPONENT_CLASS_MAP)
    )


# bytes asked of one read: a detection file fits in one, a manifest in a few
_READ_SIZE = 1 << 16

_MANIFEST_KEYS = {"class_maps", "images"}
_PATH_KEYS = ("image_path", "damage_file", "components_file")
_ENTRY_KEYS = {"id", "ground_truth_level", "scene", *_PATH_KEYS}
_OPT_STR = (str, type(None))
_LEVELS = tuple(DamageLevel)  # indexed by value, without the enum call
_SCENE_BY_NAME = {c.value: c for c in SceneClass}


def read_text(path: str | os.PathLike) -> str:
    """The text of one UTF-8 input file, read with os.open and one os.pread.

    A file shorter than _READ_SIZE comes whole from the one pread: on a
    seekable file a short read is its end. A full buffer goes on with os.read
    from that offset to end of file, and a pipe, FIFO or tty (pread fails
    with ESPIPE) is read with os.read from its start.

    A path that does not exist, is a directory, runs through a file or holds
    a NUL raises MissingFile; any other OSError raises IoFailure; bytes that
    are not UTF-8 raise SchemaViolation at the path.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
        try:  # a directory opens and fails at its first read
            try:
                data = os.pread(fd, _READ_SIZE, 0)
            except OSError as exc:
                if exc.errno != errno.ESPIPE:
                    raise
                data = _read_to_end(fd, [])
            else:
                if len(data) == _READ_SIZE:
                    os.lseek(fd, _READ_SIZE, os.SEEK_SET)
                    data = _read_to_end(fd, [data])
        finally:
            os.close(fd)
    except (FileNotFoundError, IsADirectoryError, NotADirectoryError, ValueError):
        raise MissingFile(str(path)) from None
    except OSError as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise SchemaViolation(str(path), f"not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _read_to_end(fd: int, chunks: list[bytes]) -> bytes:
    """`chunks` and then what os.read gives from the descriptor's offset to
    end of file, as one bytes object."""
    while chunk := os.read(fd, _READ_SIZE):
        chunks.append(chunk)
    return b"".join(chunks)


def decode_json(text: str, field: str = "$", invalid: str = "not valid JSON") -> object:
    """json.loads for untrusted text. Text that is not JSON, and JSON nested
    deeper than the decoder's recursion limit or holding an integer longer
    than int() converts, raise SchemaViolation at `field`:
    "<invalid> (<reason>)"."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(field, f"{invalid} ({exc.msg})") from None
    except RecursionError:
        raise SchemaViolation(field, f"{invalid} (nested too deeply)") from None
    except ValueError:  # sys.get_int_max_str_digits() exceeded
        raise SchemaViolation(field, f"{invalid} (integer too long)") from None


# json.dumps with its default arguments, as one C encoder built once: json.dumps
# builds a new one per call. It keeps no circular-reference markers: every
# value it is given is a fresh tree, and markers kept across calls could hold
# stale ids after a failed encode.
_ENCODE = json.encoder.c_make_encoder and json.encoder.c_make_encoder(
    None,  # markers
    json.JSONEncoder().default,
    json.encoder.encode_basestring_ascii,
    None,  # indent
    ": ",
    ", ",
    False,  # sort_keys
    False,  # skipkeys
    True,  # allow_nan
)

if _ENCODE is None:  # no C accelerator in this interpreter

    def encode_json_line(obj: object) -> str:
        """`json.dumps(obj)` and a newline."""
        return json.dumps(obj) + "\n"

else:

    def encode_json_line(obj: object) -> str:
        """`json.dumps(obj)` and a newline, byte for byte, from one encoder."""
        return "".join(_ENCODE(obj, 0)) + "\n"


def _parse_class_map(raw: object, enum_cls: type[Enum], where: str) -> dict:
    if not isinstance(raw, dict):
        raise SchemaViolation(where, "expected an object")
    out: dict[int, object] = {}
    for key, name in raw.items():
        try:
            class_id = int(key)
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where}.{key}", "key must be an integer string") from None
        if class_id in out:  # "0", "00", "+0" and " 0" all convert to 0
            raise SchemaViolation(f"{where}.{key}", f"duplicate class id {class_id}")
        if not isinstance(name, str):
            raise SchemaViolation(f"{where}.{key}", "value must be a class name string")
        try:
            out[class_id] = enum_cls(name)
        except ValueError:
            raise UnknownClass(name) from None
    # the map must be a bijection onto the class enum
    if sorted(out.values(), key=lambda c: c.value) != sorted(enum_cls, key=lambda c: c.value):
        raise SchemaViolation(where, f"must map onto all of {[c.value for c in enum_cls]}")
    return out


def _parse_entry(raw: object, index: int, prefix: str) -> ImageEntry:
    """One manifest entry; its field path images[index] is formatted only for an error."""
    if not isinstance(raw, dict):
        raise SchemaViolation(f"images[{index}]", "expected an object")
    if not raw.keys() <= _ENTRY_KEYS:
        unknown = sorted(set(raw) - _ENTRY_KEYS)[0]
        raise SchemaViolation(f"images[{index}].{unknown}", "unknown key")
    image_id = raw.get("id")
    if not isinstance(image_id, str) or not image_id:
        if "id" not in raw:
            raise SchemaViolation(f"images[{index}].id")
        raise SchemaViolation(f"images[{index}].id", "must be a nonempty string")

    level = raw.get("ground_truth_level")
    if level is not None:
        if not isinstance(level, int) or isinstance(level, bool) or level not in (0, 1, 2, 3):
            raise SchemaViolation(
                f"images[{index}].ground_truth_level", "must be an integer in 0..3"
            )
        level = _LEVELS[level]

    scene = raw.get("scene")
    if scene is not None:
        scene = _SCENE_BY_NAME.get(scene) if isinstance(scene, str) else None
        if scene is None:
            raise SchemaViolation(f"images[{index}].scene", "must be 'inside' or 'outside'")

    image_path = raw.get("image_path")
    damage_file = raw.get("damage_file")
    components_file = raw.get("components_file")
    if not (
        isinstance(image_path, _OPT_STR)
        and isinstance(damage_file, _OPT_STR)
        and isinstance(components_file, _OPT_STR)
    ):
        key = next(k for k in _PATH_KEYS if not isinstance(raw.get(k), _OPT_STR))
        raise SchemaViolation(f"images[{index}].{key}", "must be a string")
    # prefix + p is os.path.join(dirname, p) for every p not starting with "/"
    if image_path is not None and not image_path.startswith("/"):
        image_path = prefix + image_path
    if damage_file is not None and not damage_file.startswith("/"):
        damage_file = prefix + damage_file
    if components_file is not None and not components_file.startswith("/"):
        components_file = prefix + components_file

    return ImageEntry(image_id, image_path, level, scene, damage_file, components_file)


def load_manifest(path: str | os.PathLike) -> DatasetManifest:
    """Load a dataset manifest; entries keep file order, each relative path
    joined to the manifest's directory as os.path.join would. Raises
    MissingFile, SchemaViolation (with a field path) or DuplicateImageId.
    Absent class_maps take the default integer mappings.
    """
    raw = decode_json(read_text(path))
    if not isinstance(raw, dict):
        raise SchemaViolation("$", "top level must be an object")
    unknown = set(raw) - _MANIFEST_KEYS
    if unknown:
        raise SchemaViolation(sorted(unknown)[0], "unknown key")
    if "images" not in raw or not isinstance(raw["images"], list):
        raise SchemaViolation("images", "must be an array")

    damage_map = dict(DEFAULT_DAMAGE_CLASS_MAP)
    component_map = dict(DEFAULT_COMPONENT_CLASS_MAP)
    if "class_maps" in raw:
        cm = raw["class_maps"]
        if not isinstance(cm, dict):
            raise SchemaViolation("class_maps", "expected an object")
        unknown = set(cm) - {"damage", "component"}
        if unknown:
            raise SchemaViolation(f"class_maps.{sorted(unknown)[0]}", "unknown key")
        if "damage" in cm:
            damage_map = _parse_class_map(cm["damage"], DamageClass, "class_maps.damage")
        if "component" in cm:
            component_map = _parse_class_map(
                cm["component"], ComponentClass, "class_maps.component"
            )

    prefix = os.path.join(os.path.dirname(path), "")
    entries = []
    seen: set[str] = set()
    for i, raw_entry in enumerate(raw["images"]):
        entry = _parse_entry(raw_entry, i, prefix)
        if entry.id in seen:
            raise DuplicateImageId(entry.id)
        seen.add(entry.id)
        entries.append(entry)

    return DatasetManifest(
        images=tuple(entries),
        damage_class_map=damage_map,
        component_class_map=component_map,
    )


def parse_box_text(text: str, class_map: Mapping[int, Enum]):
    """Parse line-based detections: `class_id cx cy w h [conf]` per line.

    Blank lines and `#` comments are skipped; a missing confidence defaults
    to 1.0 (manual annotations carry full certainty). Raises BadLine with a
    1-based line number on any malformed line.
    """
    out = []
    append = out.append
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
        n = len(fields)
        if n == 5 or n == 6:
            try:
                append(Detection(
                    class_map[int(fields[0])],
                    BoundingBox(
                        float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])
                    ),
                    float(fields[5]) if n == 6 else 1.0,
                ))
                continue
            except (ValueError, LookupError):
                pass
        append(_checked_box_line(line_no, fields, class_map))
    return out


def _checked_box_line(line_no: int, fields: list[str], class_map: Mapping[int, Enum]):
    """The detection on one box-text line, converted a step at a time so that
    BadLine names the first thing wrong with a malformed line."""
    n = len(fields)
    if n not in (5, 6):
        raise BadLine(line_no, f"expected 5 or 6 fields, got {n}")
    try:
        class_id = int(fields[0])
    except ValueError:
        raise BadLine(line_no, f"class_id {fields[0]!r} is not an integer") from None
    cls = class_map.get(class_id)
    if cls is None:
        raise BadLine(line_no, f"class_id {class_id} not in class map")
    try:
        cx, cy, w, h = float(fields[1]), float(fields[2]), float(fields[3]), float(fields[4])
        conf = float(fields[5]) if n == 6 else 1.0
    except ValueError:
        raise BadLine(line_no, "non-numeric field") from None
    try:
        return Detection(cls, BoundingBox(cx, cy, w, h), conf)
    except ValueError as exc:
        raise BadLine(line_no, str(exc)) from None


_DETECTION_KEYS = {"class", "box", "confidence"}


def _detection_from_obj(obj: object, enum_cls: type[Enum], index: int):
    """One detection object; its field path detections[index] is formatted only for an error."""
    if not isinstance(obj, dict):
        raise SchemaViolation(f"detections[{index}]", "expected an object")
    if not obj.keys() <= _DETECTION_KEYS:
        unknown = sorted(set(obj) - _DETECTION_KEYS)[0]
        raise SchemaViolation(f"detections[{index}].{unknown}", "unknown key")
    name = obj.get("class")
    if not isinstance(name, str):
        raise SchemaViolation(f"detections[{index}].class", "must be a class name string")
    try:
        cls = enum_cls(name)
    except ValueError:
        raise UnknownClass(name) from None
    box = obj.get("box")
    if not isinstance(box, list) or len(box) != 4:
        raise SchemaViolation(f"detections[{index}].box", "must be [cx, cy, w, h]")
    conf = obj.get("confidence", 1.0)
    if not isinstance(conf, (int, float)) or isinstance(conf, bool):
        raise SchemaViolation(f"detections[{index}].confidence", "must be a number")
    for i, v in enumerate(box):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaViolation(f"detections[{index}].box[{i}]", "must be a number")
    cx, cy, w, h = box
    try:
        return Detection(cls, BoundingBox(float(cx), float(cy), float(w), float(h)), float(conf))
    except (ValueError, OverflowError) as exc:  # OverflowError: an int too large for float
        raise SchemaViolation(f"detections[{index}]", str(exc)) from None


def detections_from_obj(obj: object, enum_cls: type[Enum]):
    """Parse the already-decoded `{"detections": [...]}` object of a .json
    file or a child reply; a class name `enum_cls` (DamageClass for damage,
    ComponentClass for components) lacks raises UnknownClass."""
    if not isinstance(obj, dict):
        raise SchemaViolation("$", "top level must be an object")
    unknown = set(obj) - {"detections"}
    if unknown:
        raise SchemaViolation(sorted(unknown)[0], "unknown key")
    dets = obj.get("detections")
    if not isinstance(dets, list):
        raise SchemaViolation("detections", "must be an array")
    return [_detection_from_obj(d, enum_cls, i) for i, d in enumerate(dets)]


def read_detections(path: str | os.PathLike, class_map: Mapping[int, Enum], enum_cls: type[Enum]):
    """Read one detection file: the JSON schema, names resolved against `enum_cls`,
    when its name ends in .json; box text resolved through `class_map` otherwise."""
    text = read_text(path)
    if os.fspath(path).endswith(".json"):
        return detections_from_obj(decode_json(text), enum_cls)
    return parse_box_text(text, class_map)


def detections_to_json(detections: Iterable[Detection]) -> str:
    """Serialize detections to the JSON schema; detections_from_obj inverts this."""
    items = [
        {
            "class": d.cls.value,
            "box": [d.box.cx, d.box.cy, d.box.w, d.box.h],
            "confidence": d.confidence,
        }
        for d in detections
    ]
    return json.dumps({"detections": items})


def detections_to_box_text(
    detections: Sequence[Detection],
    class_map: Mapping[int, Enum],
) -> str:
    """Serialize detections to the box text format using the inverse class map."""
    inverse = {cls: class_id for class_id, cls in class_map.items()}
    lines = []
    for d in detections:
        b = d.box
        lines.append(
            f"{inverse[d.cls]} {b.cx:.6f} {b.cy:.6f} {b.w:.6f} {b.h:.6f} {d.confidence:.6f}"
        )
    return "\n".join(lines) + ("\n" if lines else "")
