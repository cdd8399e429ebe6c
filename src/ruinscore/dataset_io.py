"""Core data model plus manifest and detection-file parsing.

Detections use normalized center-format boxes (cx, cy, w, h as fractions of
the image). Two on-disk conventions are supported: a line-based box text
format (`class_id cx cy w h [conf]`, `#` comments) and a JSON schema with
class names. All values are immutable and safe to share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .errors import (
    BadLine,
    DuplicateImageId,
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
        return self.name.lower()


LEVEL_BY_LABEL = {lv.label: lv for lv in DamageLevel}

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


@dataclass(frozen=True)
class BoundingBox:
    """Normalized center-format box. Degenerate boxes are rejected, not clamped."""

    cx: float
    cy: float
    w: float
    h: float

    def __post_init__(self) -> None:
        for name in ("cx", "cy", "w", "h"):
            v = getattr(self, name)
            if not isinstance(v, (int, float)) or v != v:
                raise ValueError(f"{name} must be a finite number")
        if not 0.0 <= self.cx <= 1.0:
            raise ValueError("cx must be in [0, 1]")
        if not 0.0 <= self.cy <= 1.0:
            raise ValueError("cy must be in [0, 1]")
        if self.w <= 0.0:
            raise ValueError("w must be > 0")
        if self.w > 1.0:
            raise ValueError("w must be <= 1")
        if self.h <= 0.0:
            raise ValueError("h must be > 0")
        if self.h > 1.0:
            raise ValueError("h must be <= 1")

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


def _check_confidence(value: float) -> float:
    if not isinstance(value, (int, float)) or value != value:
        raise ValueError("confidence must be a finite number")
    if not 0.0 <= value <= 1.0:
        raise ValueError("confidence must be in [0, 1]")
    return float(value)


@dataclass(frozen=True)
class DamageDetection:
    cls: DamageClass
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)


@dataclass(frozen=True)
class ComponentDetection:
    cls: ComponentClass
    box: BoundingBox
    confidence: float

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)


@dataclass(frozen=True)
class SceneLabel:
    cls: SceneClass
    confidence: float

    def __post_init__(self) -> None:
        _check_confidence(self.confidence)


@dataclass(frozen=True)
class ImageEntry:
    id: str
    image_path: str | None = None
    ground_truth_level: DamageLevel | None = None
    scene_override: SceneClass | None = None
    damage_file: str | None = None
    components_file: str | None = None


@dataclass(frozen=True)
class DatasetManifest:
    """Ordered image entries plus the integer-to-class maps for box text files.

    `root` is the directory the manifest was loaded from; relative detection
    file paths are resolved against it.
    """

    images: tuple[ImageEntry, ...]
    damage_class_map: Mapping[int, DamageClass] = field(
        default_factory=lambda: dict(DEFAULT_DAMAGE_CLASS_MAP)
    )
    component_class_map: Mapping[int, ComponentClass] = field(
        default_factory=lambda: dict(DEFAULT_COMPONENT_CLASS_MAP)
    )
    root: Path = Path(".")

    def resolve(self, relpath: str) -> Path:
        p = Path(relpath)
        return p if p.is_absolute() else self.root / p


class DetectionKind(Enum):
    DAMAGE = "damage"
    COMPONENT = "component"


_KIND_ENUM = {DetectionKind.DAMAGE: DamageClass, DetectionKind.COMPONENT: ComponentClass}
_KIND_TYPE = {DetectionKind.DAMAGE: DamageDetection, DetectionKind.COMPONENT: ComponentDetection}

_MANIFEST_KEYS = {"class_maps", "images"}
_ENTRY_KEYS = {
    "id",
    "image_path",
    "ground_truth_level",
    "scene",
    "damage_file",
    "components_file",
}


def decode_json(text: str, field: str = "$", invalid: str = "not valid JSON") -> object:
    """json.loads for untrusted text. Text that is not JSON, and JSON nested
    deeper than the decoder's recursion limit, raise SchemaViolation at
    `field`: "<invalid> (<reason>)"."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaViolation(field, f"{invalid} ({exc.msg})") from None
    except RecursionError:
        raise SchemaViolation(field, f"{invalid} (nested too deeply)") from None


def _parse_class_map(raw: object, kind: DetectionKind, where: str) -> dict:
    enum_cls = _KIND_ENUM[kind]
    if not isinstance(raw, dict):
        raise SchemaViolation(where, "expected an object")
    out: dict[int, object] = {}
    for key, name in raw.items():
        try:
            class_id = int(key)
        except (TypeError, ValueError):
            raise SchemaViolation(f"{where}.{key}", "key must be an integer string") from None
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


def _parse_entry(raw: object, index: int) -> ImageEntry:
    where = f"images[{index}]"
    if not isinstance(raw, dict):
        raise SchemaViolation(where, "expected an object")
    unknown = set(raw) - _ENTRY_KEYS
    if unknown:
        raise SchemaViolation(f"{where}.{sorted(unknown)[0]}", "unknown key")
    if "id" not in raw:
        raise SchemaViolation(f"{where}.id")
    image_id = raw["id"]
    if not isinstance(image_id, str) or not image_id:
        raise SchemaViolation(f"{where}.id", "must be a nonempty string")

    def opt_str(key: str) -> str | None:
        v = raw.get(key)
        if v is None:
            return None
        if not isinstance(v, str):
            raise SchemaViolation(f"{where}.{key}", "must be a string")
        return v

    level = None
    if raw.get("ground_truth_level") is not None:
        v = raw["ground_truth_level"]
        if not isinstance(v, int) or isinstance(v, bool) or v not in (0, 1, 2, 3):
            raise SchemaViolation(f"{where}.ground_truth_level", "must be an integer in 0..3")
        level = DamageLevel(v)

    scene = None
    if raw.get("scene") is not None:
        v = raw["scene"]
        if not isinstance(v, str):
            raise SchemaViolation(f"{where}.scene", "must be 'inside' or 'outside'")
        try:
            scene = SceneClass(v)
        except ValueError:
            raise SchemaViolation(f"{where}.scene", "must be 'inside' or 'outside'") from None

    return ImageEntry(
        id=image_id,
        image_path=opt_str("image_path"),
        ground_truth_level=level,
        scene_override=scene,
        damage_file=opt_str("damage_file"),
        components_file=opt_str("components_file"),
    )


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a dataset manifest; entries keep file order.

    Raises MissingFile, SchemaViolation (with a field path) or
    DuplicateImageId. Absent class_maps take the default integer mappings.
    """
    p = Path(path)
    if not p.is_file():
        raise MissingFile(str(p))
    raw = decode_json(p.read_text(encoding="utf-8"))
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
            damage_map = _parse_class_map(cm["damage"], DetectionKind.DAMAGE, "class_maps.damage")
        if "component" in cm:
            component_map = _parse_class_map(
                cm["component"], DetectionKind.COMPONENT, "class_maps.component"
            )

    entries = []
    seen: set[str] = set()
    for i, raw_entry in enumerate(raw["images"]):
        entry = _parse_entry(raw_entry, i)
        if entry.id in seen:
            raise DuplicateImageId(entry.id)
        seen.add(entry.id)
        entries.append(entry)

    return DatasetManifest(
        images=tuple(entries),
        damage_class_map=damage_map,
        component_class_map=component_map,
        root=p.parent,
    )


def parse_box_text(text: str, class_map: Mapping[int, object], kind: DetectionKind):
    """Parse line-based detections: `class_id cx cy w h [conf]` per line.

    Blank lines and `#` comments are skipped; a missing confidence defaults
    to 1.0 (manual annotations carry full certainty). Raises BadLine with a
    1-based line number on any malformed line.
    """
    det_type = _KIND_TYPE[kind]
    out = []
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        if len(fields) not in (5, 6):
            raise BadLine(line_no, f"expected 5 or 6 fields, got {len(fields)}")
        try:
            class_id = int(fields[0])
        except ValueError:
            raise BadLine(line_no, f"class_id {fields[0]!r} is not an integer") from None
        if class_id not in class_map:
            raise BadLine(line_no, f"class_id {class_id} not in class map")
        try:
            numbers = [float(f) for f in fields[1:]]
        except ValueError:
            raise BadLine(line_no, "non-numeric field") from None
        conf = numbers[4] if len(numbers) == 5 else 1.0
        try:
            det = det_type(class_map[class_id], BoundingBox(*numbers[:4]), conf)
        except ValueError as exc:
            raise BadLine(line_no, str(exc)) from None
        out.append(det)
    return out


def _detection_from_obj(obj: object, kind: DetectionKind, where: str):
    enum_cls = _KIND_ENUM[kind]
    det_type = _KIND_TYPE[kind]
    if not isinstance(obj, dict):
        raise SchemaViolation(where, "expected an object")
    unknown = set(obj) - {"class", "box", "confidence"}
    if unknown:
        raise SchemaViolation(f"{where}.{sorted(unknown)[0]}", "unknown key")
    name = obj.get("class")
    if not isinstance(name, str):
        raise SchemaViolation(f"{where}.class", "must be a class name string")
    try:
        cls = enum_cls(name)
    except ValueError:
        raise UnknownClass(name) from None
    box = obj.get("box")
    if not isinstance(box, list) or len(box) != 4:
        raise SchemaViolation(f"{where}.box", "must be [cx, cy, w, h]")
    conf = obj.get("confidence", 1.0)
    if not isinstance(conf, (int, float)) or isinstance(conf, bool):
        raise SchemaViolation(f"{where}.confidence", "must be a number")
    for i, v in enumerate(box):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SchemaViolation(f"{where}.box[{i}]", "must be a number")
    try:
        return det_type(cls, BoundingBox(*(float(v) for v in box)), float(conf))
    except ValueError as exc:
        raise SchemaViolation(where, str(exc)) from None


def detections_from_obj(obj: object, kind: DetectionKind):
    """Parse the already-decoded `{"detections": [...]}` object."""
    if not isinstance(obj, dict):
        raise SchemaViolation("$", "top level must be an object")
    unknown = set(obj) - {"detections"}
    if unknown:
        raise SchemaViolation(sorted(unknown)[0], "unknown key")
    dets = obj.get("detections")
    if not isinstance(dets, list):
        raise SchemaViolation("detections", "must be an array")
    return [_detection_from_obj(d, kind, f"detections[{i}]") for i, d in enumerate(dets)]


def parse_json_detections(text: str, kind: DetectionKind):
    """Parse the JSON detection schema; classes are given by name, not id."""
    return detections_from_obj(decode_json(text), kind)


def read_detections(path: Path, class_map: Mapping[int, object], kind: DetectionKind):
    """Read one detection file: the JSON schema when its name ends in .json,
    box text resolved through `class_map` otherwise."""
    if not path.is_file():
        raise MissingFile(str(path))
    text = path.read_text(encoding="utf-8")
    if path.suffix == ".json":
        return parse_json_detections(text, kind)
    return parse_box_text(text, class_map, kind)


def detections_to_json(detections: Iterable[DamageDetection | ComponentDetection]) -> str:
    """Serialize detections to the JSON schema; parse_json_detections inverts this."""
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
    detections: Sequence[DamageDetection | ComponentDetection],
    class_map: Mapping[int, object],
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
