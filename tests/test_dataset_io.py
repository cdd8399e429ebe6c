from __future__ import annotations

import copy
import dataclasses
import json
import os
import pickle
import platform
import re
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from ruinscore import dataset_io
from ruinscore.backend import CascadeOutput
from ruinscore.cli import main
from ruinscore.dataset_io import (
    DEFAULT_COMPONENT_CLASS_MAP,
    DEFAULT_DAMAGE_CLASS_MAP,
    ComponentClass,
    DamageClass,
    DamageLevel,
    Detection,
    ImageEntry,
    LEVEL_BY_LABEL,
    LEVEL_LABELS,
    SceneClass,
    check_object,
    decode_json,
    detections_from_obj,
    load_manifest,
    parse_box_text,
    read_detections,
    read_text,
)
from ruinscore.errors import (
    BadLine,
    DuplicateImageId,
    IoFailure,
    MissingFile,
    RuinscoreError,
    SchemaViolation,
    UnknownClass,
)
from ruinscore.fusion import RuleDecision

from helpers import detections_to_json, write_dataset


class TestBoundingBox:
    """A detection's box: its checks and its area."""

    def test_invariants_enforced(self):
        with pytest.raises(ValueError, match="w must be > 0"):
            Detection(DamageClass.CRACK, 0.5, 0.5, 0.0, 0.1, 0.9)
        with pytest.raises(ValueError, match="cx"):
            Detection(DamageClass.CRACK, 1.2, 0.5, 0.1, 0.1, 0.9)
        with pytest.raises(ValueError, match="h must be <= 1"):
            Detection(DamageClass.CRACK, 0.5, 0.5, 0.1, 1.5, 0.9)

    def test_area(self):
        detection = Detection(DamageClass.CRACK, 0.5, 0.5, 0.25, 0.5, 0.9)
        assert detection.area() == pytest.approx(0.125)

    def test_int_fields_pass_the_full_checks(self):
        assert Detection(DamageClass.CRACK, 0, 1, 1, 1, 1).confidence == 1
        with pytest.raises(ValueError, match="cx must be a finite number"):
            Detection(DamageClass.CRACK, "0.5", 0.5, 0.1, 0.1, 0.9)


def _values():
    """One maker per per-image value type: each call builds a new, equal value."""
    crack = lambda: Detection(DamageClass.CRACK, 0.5, 0.5, 0.25, 0.5, 0.75)
    beam = lambda: Detection(ComponentClass.BEAM, 0.5, 0.5, 0.25, 0.5, 0.5)
    return [
        crack,
        beam,
        lambda: ImageEntry("a", None, DamageLevel.SLIGHT, SceneClass.OUTSIDE, "d.txt", None),
        lambda: CascadeOutput("a", SceneClass.INSIDE, 0.9, (beam(),), (crack(), crack())),
        lambda: RuleDecision(DamageLevel.SLIGHT, 2.0, 2, 0, 0, 0, False,
                             ("conf-floor",), (crack(),)),
    ]


def _value_id(make) -> str:
    """The value's type name; a Detection is named by its class enum, since
    one type carries both kinds."""
    value = make()
    if type(value) is Detection:
        return type(value.cls).__name__.removesuffix("Class") + "Detection"
    return type(value).__name__


@pytest.mark.parametrize("level", list(DamageLevel), ids=lambda level: level.name)
def test_level_label_is_the_lowercase_name_both_ways(level):
    assert level.label == level.name.lower() == LEVEL_LABELS[level]
    assert LEVEL_BY_LABEL[level.label] is level


class TestValueTypes:
    """The values parsing builds are immutable and safe to share: no field can
    be assigned, and equal values hash equal."""

    @pytest.mark.parametrize("make", _values(), ids=_value_id)
    def test_fields_cannot_be_assigned_and_equal_values_hash_equal(self, make):
        value = make()
        for f in dataclasses.fields(value):
            with pytest.raises(AttributeError):
                setattr(value, f.name, getattr(value, f.name))
        assert make() == value and make() is not value
        assert hash(make()) == hash(value)

    @pytest.mark.parametrize("make", _values(), ids=_value_id)
    def test_slotted_values_take_no_new_attribute(self, make):
        value = make()
        assert not hasattr(value, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'note'"):
            value.note = "x"
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'note'"):
            del value.note
        first = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{first}'"):
            delattr(value, first)

    @pytest.mark.parametrize("make", _values(), ids=_value_id)
    def test_round_trips_through_replace_copy_and_pickle(self, make):
        value = make()
        every_field = {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
        assert dataclasses.replace(value, **every_field) == value
        assert copy.copy(value) == value
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(value, protocol)) == value

    @pytest.mark.parametrize("make", _values(), ids=_value_id)
    def test_init_is_hand_written(self, make):
        # dataclass-generated code is compiled from "<string>"; a generated
        # __init__ stores every field through object.__setattr__
        assert type(make()).__init__.__code__.co_filename != "<string>"


# any value json.dumps encodes: every float (nan, inf, -0.0, subnormals), ints
# past 64 bits, text with lone surrogates and control characters, nesting,
# and the non-str keys json.dumps converts
_ANY_TEXT = st.text(st.characters(codec=None, exclude_categories=()))
_JSON_LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(10**40), max_value=10**40)
    | st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    | _ANY_TEXT
)
_JSON_KEYS = _ANY_TEXT | st.integers() | st.floats() | st.booleans() | st.none()
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_JSON_KEYS, inner, max_size=4),
    max_leaves=20,
)


class TestEncodeJsonLine:
    @given(_JSON_VALUES)
    @example(float("nan"))
    @example([float("inf"), float("-inf"), -0.0, 5e-324, 2.2250738585072014e-308])
    @example({"\ud800 caf\u00e9 \x00\x1f\x7f": ["\udfff", "\U0001f600", "\u2028"]})
    @example(-(2**200))
    @example([[[[{"a": [{}]}]]], []])
    def test_equals_json_dumps_byte_for_byte(self, value):
        assert dataset_io.encode_json_line(value) == json.dumps(value) + "\n"

    def test_unserializable_value_raises_dumps_error_and_encoder_still_works(self):
        bad = {"a": [1, object()]}
        with pytest.raises(TypeError) as dumps_error:
            json.dumps(bad)
        with pytest.raises(TypeError) as line_error:
            dataset_io.encode_json_line(bad)
        assert str(line_error.value) == str(dumps_error.value)
        assert str(line_error.value) == "Object of type object is not JSON serializable"
        value = {"a": [1, {"b": None}], "c": "d"}
        assert dataset_io.encode_json_line(value) == json.dumps(value) + "\n"

    @pytest.mark.skipif(
        platform.python_implementation() != "CPython", reason="the C encoder is CPython's"
    )
    def test_cpython_uses_the_c_encoder(self):
        # the json.dumps fallback is for interpreters without json's C accelerator
        assert isinstance(dataset_io._ENCODE, json.encoder.c_make_encoder)
        assert "_ENCODE" in dataset_io.encode_json_line.__code__.co_names


class TestCheckObject:
    @pytest.mark.parametrize(
        "raw, where, field, detail",
        [
            ([], "$", "$", "expected an object"),
            (None, "images[3]", "images[3]", "expected an object"),
            ({"b": 1, "zz": 2, "c": 3}, "$", "c", "unknown key"),
            ({"b": 1, "zz": 2, "c": 3}, "backend", "backend.c", "unknown key"),
        ],
    )
    def test_a_non_object_fails_at_where_and_an_object_at_its_first_other_key(
        self, raw, where, field, detail
    ):
        ok = {"a": 1}
        assert check_object(ok, {"a", "b"}, where) is ok
        with pytest.raises(SchemaViolation) as exc:
            check_object(raw, {"a", "b"}, where)
        assert (exc.value.field, str(exc.value)) == (field, f"schema violation at {field}: {detail}")

    def test_only_dataset_io_words_an_unknown_key(self):
        # the rule is written once; a copy in another module could drift from it
        package = Path(dataset_io.__file__).parent
        holders = sorted(
            path.relative_to(package).as_posix() for path in package.rglob("*.py")
            if re.search(r"[\"']unknown key[\"']", path.read_text(encoding="utf-8"))
        )
        assert holders == ["dataset_io.py"]


class TestReadText:
    def test_descriptors_closed_whatever_the_outcome(self, tmp_path):
        fds = "/proc/self/fd"
        if not os.path.isdir(fds):
            pytest.skip("no /proc/self/fd to count descriptors in")
        text = "0 0.5 0.5 0.1 0.1 0.9\n" * (3 * dataset_io._READ_SIZE // 22)  # several reads
        regular = tmp_path / "d.txt"
        regular.write_text(text)
        binary = tmp_path / "bad.txt"
        binary.write_bytes(b"0 0.5 \xff\n")
        before = len(os.listdir(fds))
        for _ in range(200):
            assert read_text(regular) == text
            for path, error in ((tmp_path, MissingFile), (binary, SchemaViolation),
                                (tmp_path / "nope.txt", MissingFile)):
                with pytest.raises(error):
                    read_text(path)
        assert len(os.listdir(fds)) == before

    @pytest.mark.parametrize("extra", [0, 1])
    def test_file_of_one_buffer_and_one_byte_more_reads_whole(self, tmp_path, extra):
        data = b"0 0.5 0.5 0.1 0.1 0.9\n" * (dataset_io._READ_SIZE // 22)
        data += b"#" * (dataset_io._READ_SIZE + extra - len(data) - 1) + b"\n"
        assert len(data) == dataset_io._READ_SIZE + extra
        path = tmp_path / "d.txt"
        path.write_bytes(data)
        assert read_text(path) == data.decode()

    @staticmethod
    def _feed(open_writer, data: bytes) -> threading.Thread:
        """A thread that writes `data` to the descriptor open_writer() returns
        and closes it, so the reader sees end of file."""
        def run():
            fd = open_writer()
            try:
                view = memoryview(data)
                while view:
                    view = view[os.write(fd, view):]
            finally:
                os.close(fd)
        writer = threading.Thread(target=run, daemon=True)
        writer.start()
        return writer

    def test_pipe_is_read_to_its_end(self):
        if not os.path.isdir("/dev/fd"):
            pytest.skip("no /dev/fd to name a pipe by")
        text = "0 0.5 0.5 0.1 0.1 0.9\n" * (3 * dataset_io._READ_SIZE // 22 + 100)
        assert len(text) > 3 * dataset_io._READ_SIZE
        r, w = os.pipe()
        try:
            writer = self._feed(lambda: w, text.encode())
            assert read_text(f"/dev/fd/{r}") == text
            writer.join(10)
            assert not writer.is_alive()
        finally:
            os.close(r)

    def test_fifo_is_read_to_its_end(self, tmp_path):
        if not hasattr(os, "mkfifo"):
            pytest.skip("no FIFOs on this platform")
        text = "1 0.5 0.5 0.2 0.2\n" * (3 * dataset_io._READ_SIZE // 18 + 100)
        fifo = tmp_path / "d.txt"
        os.mkfifo(fifo)
        writer = self._feed(lambda: os.open(fifo, os.O_WRONLY), text.encode())
        assert read_text(fifo) == text
        writer.join(10)
        assert not writer.is_alive()


class TestLoadManifest:
    def test_empty_images(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text('{"images": []}')
        manifest = load_manifest(p)
        assert manifest.images == ()
        assert manifest.damage_class_map == DEFAULT_DAMAGE_CLASS_MAP
        assert manifest.component_class_map == DEFAULT_COMPONENT_CLASS_MAP

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_manifest(tmp_path / "nope.json")

    def test_missing_id_reports_field_path(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"images": [{"id": "a"}, {"damage_file": "x.txt"}]}))
        with pytest.raises(SchemaViolation) as exc:
            load_manifest(p)
        assert exc.value.field == "images[1].id"

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"images": [{"id": "a"}, {"id": "a"}]}))
        with pytest.raises(DuplicateImageId):
            load_manifest(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(json.dumps({"images": [], "extra": 1}))
        with pytest.raises(SchemaViolation):
            load_manifest(p)
        p.write_text(json.dumps({"images": [{"id": "a", "surprise": 1}]}))
        with pytest.raises(SchemaViolation):
            load_manifest(p)

    def test_fixture_levels(self, fixtures_dir):
        manifest = load_manifest(fixtures_dir / "fixture3" / "manifest.json")
        levels = [e.ground_truth_level for e in manifest.images]
        assert levels == [DamageLevel.ZERO, DamageLevel.MEDIUM, DamageLevel.HEAVY]
        assert [e.id for e in manifest.images] == ["img_a", "img_b", "img_c"]

    def test_custom_class_map_must_be_bijection(self, tmp_path):
        p = tmp_path / "m.json"
        p.write_text(
            json.dumps(
                {"class_maps": {"damage": {"0": "crack", "1": "crack", "2": "rebar"}},
                 "images": []}
            )
        )
        with pytest.raises(SchemaViolation):
            load_manifest(p)

    def test_class_map_keys_naming_one_id_fail_assess(self, tmp_path, capsys):
        # "0" and "00" both convert to id 0: the later key must not win silently
        damage_map = {"0": "spalling", "00": "crack", "1": "spalling", "2": "rebar"}
        images = [{"id": "a", "scene": "outside", "damage": "0 0.5 0.5 0.2 0.2 0.9\n"}]
        path = write_dataset(tmp_path / "d", images, class_maps={"damage": damage_map})
        assert main(["assess", "--manifest", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert [json.loads(line) for line in err.splitlines()] == [{
            "error": "SchemaViolation",
            "detail": "schema violation at class_maps.damage.00: duplicate class id 0",
        }]

    @pytest.mark.parametrize("where", ["cwd", "d", "./d", "absolute"])
    @pytest.mark.parametrize("rel", ["x.txt", "/abs/x.txt", "./x.txt", "a//b.txt", ""])
    def test_paths_are_os_path_join_of_the_manifest_dir(self, tmp_path, monkeypatch, where, rel):
        monkeypatch.chdir(tmp_path)
        directory = {"cwd": "", "absolute": str(tmp_path / "d")}.get(where, where)
        path = os.path.join(directory, "manifest.json")
        os.makedirs(tmp_path / "d", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"images": [
                {"id": "a", "image_path": rel, "damage_file": rel, "components_file": rel}
            ]}, fh)
        entry = load_manifest(path).images[0]
        joined = os.path.join(directory, rel)
        assert (entry.image_path, entry.damage_file, entry.components_file) == (joined,) * 3

    def test_pure_same_bytes_same_manifest(self, tmp_path):
        images = [{"id": "x", "gt": 1, "scene": "inside", "damage": ""}]
        path = write_dataset(tmp_path / "d", images)
        assert load_manifest(path) == load_manifest(path)


class TestParseBoxText:
    def test_empty(self):
        assert parse_box_text("", DEFAULT_DAMAGE_CLASS_MAP) == []

    def test_single_line_with_conf(self):
        dets = parse_box_text("2 0.5 0.5 0.2 0.1 0.9", DEFAULT_DAMAGE_CLASS_MAP)
        assert len(dets) == 1
        det = dets[0]
        assert det.cls is DamageClass.EXPOSED_REBAR
        assert (det.cx, det.cy, det.w, det.h) == (0.5, 0.5, 0.2, 0.1)
        assert det.confidence == 0.9

    def test_conf_defaults_to_one(self):
        (det,) = parse_box_text("0 0.5 0.5 0.1 0.1", DEFAULT_DAMAGE_CLASS_MAP)
        assert det.confidence == 1.0

    def test_degenerate_box_rejected(self):
        with pytest.raises(BadLine) as exc:
            parse_box_text("0 0.5 0.5 0.0 0.1", DEFAULT_DAMAGE_CLASS_MAP)
        assert exc.value.line_no == 1
        assert exc.value.reason == "w must be > 0"

    def test_comments_and_blanks_skipped_line_numbers_kept(self):
        text = "# header\n\n0 0.5 0.5 0.1 0.1\nbogus line here\n"
        with pytest.raises(BadLine) as exc:
            parse_box_text(text, DEFAULT_DAMAGE_CLASS_MAP)
        assert exc.value.line_no == 4

    def test_unknown_class_id(self):
        with pytest.raises(BadLine, match="class map"):
            parse_box_text("7 0.5 0.5 0.1 0.1", DEFAULT_DAMAGE_CLASS_MAP)

    def test_n_lines_n_detections_order_preserved(self):
        lines = "\n".join(f"0 0.5 0.5 0.1 0.1 0.{i+1}" for i in range(5))
        dets = parse_box_text(lines, DEFAULT_DAMAGE_CLASS_MAP)
        assert [d.confidence for d in dets] == [0.1, 0.2, 0.3, 0.4, 0.5]

    def test_component_kind(self):
        (det,) = parse_box_text("1 0.5 0.5 0.4 0.8 0.9", DEFAULT_COMPONENT_CLASS_MAP)
        assert det.cls is ComponentClass.COLUMN
        # id 1 in the damage map is spalling: same box, other enum, never equal
        (spall,) = parse_box_text("1 0.5 0.5 0.4 0.8 0.9", DEFAULT_DAMAGE_CLASS_MAP)
        assert spall.cls is DamageClass.SPALLING and spall != det

    @pytest.mark.parametrize("text, line_no, reason", [
        ("0 0.5 0.5 0.1", 1, "expected 5 or 6 fields, got 4"),
        ("0 0.5 0.5 0.1 0.1 0.9 7", 1, "expected 5 or 6 fields, got 7"),
        ("x 0.5 0.5 0.1 0.1", 1, "class_id 'x' is not an integer"),
        ("1.0 0.5 0.5 0.1 0.1", 1, "class_id '1.0' is not an integer"),
        ("7 0.5 0.5 0.1 0.1", 1, "class_id 7 not in class map"),
        ("-1 0.5 0.5 0.1 0.1", 1, "class_id -1 not in class map"),
        ("0 0.5 0.5 0.1 0.1\n\n007 0.5 0.5 0.1 0.1", 3, "class_id 7 not in class map"),
        ("0 0.5 abc 0.1 0.1", 1, "non-numeric field"),
        ("0 0.5 0.5 0.1 0.1 high", 1, "non-numeric field"),
        ("0 1.5 0.5 0.1 0.1 high", 1, "non-numeric field"),
        ("0 -0.1 0.5 0.1 0.1", 1, "cx must be in [0, 1]"),
        ("0 1.1 0.5 0.1 0.1", 1, "cx must be in [0, 1]"),
        ("0 0.5 -0.1 0.1 0.1", 1, "cy must be in [0, 1]"),
        ("0 0.5 1.1 0.1 0.1", 1, "cy must be in [0, 1]"),
        ("0 0.5 0.5 0 0.1", 1, "w must be > 0"),
        ("0 0.5 0.5 -0.1 0.1", 1, "w must be > 0"),
        ("0 0.5 0.5 1.1 0.1", 1, "w must be <= 1"),
        ("0 0.5 0.5 0.1 0", 1, "h must be > 0"),
        ("0 0.5 0.5 0.1 1.1", 1, "h must be <= 1"),
        ("0 nan 0.5 0.1 0.1", 1, "cx must be a finite number"),
        ("0 0.5 0.5 0.1 nan", 1, "h must be a finite number"),
        ("0 2.0 0.5 nan 0.1", 1, "w must be a finite number"),
        ("0 inf 0.5 0.1 0.1", 1, "cx must be in [0, 1]"),
        ("0 0.5 0.5 inf 0.1", 1, "w must be <= 1"),
        ("0 0.5 0.5 0.1 -inf", 1, "h must be > 0"),
        ("0 0.5 0.5 0.1 1e999", 1, "h must be <= 1"),
        ("0 0.5 0.5 0.1 0.1 1.5", 1, "confidence must be in [0, 1]"),
        ("0 0.5 0.5 0.1 0.1 -0.1", 1, "confidence must be in [0, 1]"),
        ("0 0.5 0.5 0.1 0.1 inf", 1, "confidence must be in [0, 1]"),
        ("0 0.5 0.5 0.1 0.1 nan", 1, "confidence must be a finite number"),
        ("0 1.5 0.5 0.1 0.1 nan", 1, "cx must be in [0, 1]"),
        ("   # note\n0 0.5 0.5 0.1", 2, "expected 5 or 6 fields, got 4"),
        ("\t#0 0.5 0.5 0.1 0.1 0.9 x\n  \n7 0.5 0.5 0.1 0.1", 3, "class_id 7 not in class map"),
        ("0 0.5 0.5 0.1 0.1 # note", 1, "expected 5 or 6 fields, got 7"),
    ])
    def test_bad_line_reports_its_line_and_reason(self, text, line_no, reason):
        with pytest.raises(BadLine) as exc:
            parse_box_text(text, DEFAULT_DAMAGE_CLASS_MAP)
        assert (exc.value.line_no, exc.value.reason) == (line_no, reason)

    def test_well_formed_lines_are_converted_once(self, monkeypatch):
        def checked(*args):
            raise AssertionError("a well-formed line went to the step-by-step checks")

        monkeypatch.setattr(dataset_io, "_checked_box_line", checked)
        text = (
            "# header\n0 0.5 0.5 0.1 0.1 0.9\r\n\n  2 0.3 0.3 0.2 0.2\n"
            "  # 0 0.5 0.5 0.1 0.1\n1 1 0 1 1 0\n# trailer: a comment on the last line\n"
        )
        dets = parse_box_text(text, DEFAULT_DAMAGE_CLASS_MAP)
        assert [d.cls for d in dets] == [
            DamageClass.CRACK, DamageClass.EXPOSED_REBAR, DamageClass.SPALLING
        ]
        assert [d.confidence for d in dets] == [0.9, 1.0, 0.0]

    def test_only_the_bad_line_is_checked_step_by_step(self, monkeypatch):
        checked_lines = []
        checked = dataset_io._checked_box_line

        def spy(line_no, *args):
            checked_lines.append(line_no)
            return checked(line_no, *args)

        monkeypatch.setattr(dataset_io, "_checked_box_line", spy)
        text = "0 0.5 0.5 0.1 0.1\n# note\n1 0.5 0.5 0.1 0.1\n0 0.5 0.5 0.1 1.5\n# last\n"
        with pytest.raises(BadLine) as exc:
            parse_box_text(text, DEFAULT_DAMAGE_CLASS_MAP)
        assert (exc.value.line_no, exc.value.reason) == (4, "h must be <= 1")
        assert checked_lines == [4]


def _parse_box_lines(text, class_map):
    """parse_box_text as it was before its one-try fast path: every line
    checked a step at a time. The reference for the property test below."""
    out = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        fields = line.split()
        if not fields or fields[0][0] == "#":
            continue
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
            out.append(Detection(cls, cx, cy, w, h, conf))
        except ValueError as exc:
            raise BadLine(line_no, str(exc)) from None
    return out


def _box_outcome(parse):
    """What a box text parse gives: its detections, or its BadLine's line and reason."""
    try:
        return "ok", parse()
    except BadLine as exc:
        return "bad", exc.line_no, exc.reason


# box text lines: well-formed 5- and 6-field lines most often, then comments,
# blanks, unknown class ids, non-numeric fields and out-of-range values
_good_box_lines = st.tuples(
    st.sampled_from(["0", "1", "2", "02", "+1"]),
    st.lists(st.floats(0.001, 1.0).map(repr), min_size=4, max_size=5),
).map(lambda t: " ".join([t[0], *t[1]]))
_bad_box_lines = st.tuples(
    st.sampled_from(["0", "1", "3", "-1", "x", "1.0", "#0", "9" * 5000]),
    st.lists(
        st.floats(0.0, 1.0).map(repr)
        | st.sampled_from(["0", "1", "-0.1", "1.5", "nan", "inf", "-inf", "1e999", "abc",
                           "1_0", "\u0661"]),
        min_size=4, max_size=5,
    ),
).map(lambda t: " ".join([t[0], *t[1]]))
_other_box_lines = st.sampled_from(["", "   ", "\t", "# header", "  # 0 0.5 0.5 0.1 0.1",
                                    "#0 0.5 0.5 0.1 0.1 0.9", "0 0.5 0.5 0.1",
                                    "0 0.5 0.5 0.1 0.1 0.9 7", "0 0.5 0.5 0.1 0.1 # note"])
box_texts = st.tuples(
    st.lists(st.one_of([_good_box_lines] * 6 + [_bad_box_lines, _other_box_lines]), max_size=8),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
    st.booleans(),
).map(lambda t: t[1].join(t[0]) + (t[1] if t[2] else ""))


@settings(max_examples=400, deadline=None)
@given(
    box_texts,
    st.sampled_from(
        [(DEFAULT_DAMAGE_CLASS_MAP, DamageClass), (DEFAULT_COMPONENT_CLASS_MAP, ComponentClass)]
    ),
)
def test_box_text_fast_path_equals_line_by_line(text, map_and_enum):
    class_map, enum_cls = map_and_enum
    outcome = _box_outcome(lambda: parse_box_text(text, class_map))
    assert outcome == _box_outcome(lambda: _parse_box_lines(text, class_map))
    if outcome[0] == "ok":
        assert all(type(d.cls) is enum_cls for d in outcome[1])


def _json_detections(text, enum_cls):
    """A JSON detection file's text as read_detections parses it."""
    return detections_from_obj(decode_json(text), enum_cls)


class TestParseJsonDetections:
    def test_empty(self):
        assert _json_detections('{"detections": []}', DamageClass) == []

    def test_single(self):
        text = '{"detections":[{"class":"spalling","box":[0.3,0.4,0.2,0.2],"confidence":0.8}]}'
        (det,) = _json_detections(text, DamageClass)
        assert det.cls is DamageClass.SPALLING
        assert det.confidence == 0.8

    def test_unknown_class(self):
        text = '{"detections":[{"class":"pillar","box":[0.3,0.4,0.2,0.2],"confidence":0.8}]}'
        with pytest.raises(UnknownClass) as exc:
            _json_detections(text, ComponentClass)
        assert exc.value.name == "pillar"

    def test_schema_violation_field_path(self):
        with pytest.raises(SchemaViolation) as exc:
            _json_detections('{"detections":[{"class":"crack"}]}', DamageClass)
        assert "detections[0]" in exc.value.field


damage_detections = st.builds(
    Detection,
    cls=st.sampled_from(list(DamageClass)),
    cx=st.floats(0.0, 1.0),
    cy=st.floats(0.0, 1.0),
    w=st.floats(0.001, 1.0),
    h=st.floats(0.001, 1.0),
    confidence=st.floats(0.0, 1.0),
)


@given(st.lists(damage_detections, max_size=8))
def test_json_round_trip(dets):
    reparsed = _json_detections(detections_to_json(dets), DamageClass)
    assert reparsed == dets


class TestReadDetections:
    def test_not_a_file_is_missing_file(self, tmp_path):
        (tmp_path / "plain.txt").write_text("")
        for path in (tmp_path / "nope.txt", tmp_path, tmp_path / "plain.txt" / "d.txt"):
            with pytest.raises(MissingFile) as exc:
                read_detections(str(path), DEFAULT_DAMAGE_CLASS_MAP, DamageClass)
            assert str(exc.value) == f"file not found: {path}"

    def test_other_os_error_is_io_failure(self, tmp_path):
        path = str(tmp_path / ("x" * 300))  # longer than a file name may be
        with pytest.raises(IoFailure, match="cannot read"):
            read_detections(path, DEFAULT_DAMAGE_CLASS_MAP, DamageClass)

    def test_json_error_names_the_detection_past_the_first(self, tmp_path):
        good = {"class": "crack", "box": [0.5, 0.5, 0.2, 0.2], "confidence": 0.9}
        cases = [
            ([good, good, {"class": "crack", "box": [0.5, 0.5, 0.2]}],
             "schema violation at detections[2].box: must be [cx, cy, w, h]"),
            ([good, {**good, "zeta": 1, "alpha": 2}],
             "schema violation at detections[1].alpha: unknown key"),
        ]
        path = tmp_path / "d.json"
        for dets, message in cases:
            path.write_text(json.dumps({"detections": dets}))
            with pytest.raises(SchemaViolation) as exc:
                read_detections(str(path), DEFAULT_DAMAGE_CLASS_MAP, DamageClass)
            assert str(exc.value) == message


# near-miss box text: tokens that parse, tokens that do not, and out-of-range values
BOX_TOKENS = ["0", "1", "2", "7", "-1", "0.5", "1.5", "-0.1", "nan", "inf", "1e999", "x",
              "#", "\u00e9", "\u0661"]
near_box_text = st.lists(
    st.lists(st.sampled_from(BOX_TOKENS), max_size=7).map(" ".join), max_size=4
).map("\n".join).map(str.encode)
# near-miss JSON: detection objects with arbitrary JSON scalars in their fields
json_scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
near_json = st.lists(
    st.fixed_dictionaries(
        {"class": st.sampled_from(["crack", "rebar", "beam"]) | json_scalars},
        optional={"box": st.lists(st.floats(0, 1) | json_scalars, max_size=5),
                  "confidence": json_scalars},
    ),
    max_size=3,
).map(lambda dets: json.dumps({"detections": dets}).encode())


@given(
    data=st.binary(max_size=200) | near_box_text | near_json,
    name=st.sampled_from(["d.txt", "d.json"]),
)
@example(data=b"\xff\n", name="d.txt")
@example(data=b"\xff\n", name="d.json")
@example(data=b"9" * 5000 + b" 0.5 0.5 0.1 0.1", name="d.txt")
@example(data=b"1" * 5000, name="d.json")
@example(
    data=b'{"detections": [{"class": "crack", "box": [' + b"1" * 400 + b', 0.5, 0.1, 0.1]}]}',
    name="d.json",
)
def test_any_bytes_give_detections_or_a_ruinscore_error(tmp_path_factory, data, name):
    path = tmp_path_factory.getbasetemp() / name
    path.write_bytes(data)
    try:
        dets = read_detections(str(path), DEFAULT_DAMAGE_CLASS_MAP, DamageClass)
    except RuinscoreError:
        return
    assert all(type(d) is Detection and type(d.cls) is DamageClass for d in dets)
