"""Every JSON integer the engine reads goes through `dataset_io.check_int`,
and every detection or scene-reply number that is not a float through
`dataset_io.check_number`: a malformed value is one structured error that
names its field, from the library and through `cli.main` (exit 1, one JSON
line on stderr)."""

from __future__ import annotations

import copy
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from ruinscore import dataset_io, meta
from ruinscore.backend import _evidence
from ruinscore.cli import main
from ruinscore.dataset_io import (
    DEFAULT_DAMAGE_CLASS_MAP,
    DamageClass,
    load_manifest,
    read_detections,
)
from ruinscore.errors import ProtocolViolation, SchemaViolation
from ruinscore.meta import FEATURE_DIM

from helpers import write_dataset


def cli_error(argv) -> dict:
    """The one JSON error line of a command that must exit 1."""
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    assert code == 1
    (line,) = err.getvalue().splitlines()
    return json.loads(line)


@pytest.mark.parametrize(
    "value, low, high, detail",
    [
        (True, 0, None, "must be an integer >= 0"),
        (1.0, 0, None, "must be an integer >= 0"),
        ("1", 0, None, "must be an integer >= 0"),
        (None, 1, None, "must be an integer >= 1"),
        (0, 1, None, "must be an integer >= 1"),
        (-1, 0, 3, "must be an integer in [0, 3]"),
        (4, 0, 3, "must be an integer in [0, 3]"),
        (0, 0, -1, "must be an integer in [0, -1]"),
    ],
)
def test_check_int_words_its_range(value, low, high, detail):
    for ok in (low, 10**400 if high is None else high):
        if high is None or high >= low:
            assert dataset_io.check_int(ok, "x", low, high) is ok
    with pytest.raises(SchemaViolation) as exc:
        dataset_io.check_int(value, "x", low, high)
    assert str(exc.value) == f"schema violation at x: {detail}"


@pytest.mark.parametrize("level", [True, 1.0, -1, 4])
def test_manifest_level_outside_0_to_3(tmp_path, level):
    path = tmp_path / "manifest.json"
    images = [{"id": "a", "ground_truth_level": 3}, {"id": "b", "ground_truth_level": level}]
    path.write_text(json.dumps({"images": images}))
    detail = "schema violation at images[1].ground_truth_level: must be an integer in [0, 3]"
    with pytest.raises(SchemaViolation) as exc:
        load_manifest(path)
    assert str(exc.value) == detail
    assert cli_error(["assess", "--manifest", str(path)]) == {
        "error": "SchemaViolation", "detail": detail,
    }


LEAF = {"value": 0.1}
LOGREG = {
    "format": "ruinscore-logreg-v1",
    "feature_layout": "v1",
    "dim": FEATURE_DIM,
    "weights": [[0.0] * (FEATURE_DIM + 1)] * 4,
    "mean": [0.5] * FEATURE_DIM,
    "std": [2.0] * FEATURE_DIM,
    "trained": {"iterations": 10, "final_loss": 1.2},
}
GBDT = {
    "format": "ruinscore-gbdt-v1",
    "feature_layout": "v1",
    "dim": FEATURE_DIM,
    "learning_rate": 0.1,
    "max_depth": 2,
    "degenerate": False,
    "base_scores": [-1.0, -1.5, -2.0, -1.2],
    "trees": [[{"feature": 3, "threshold": 0.5, "left": LEAF, "right": LEAF}, LEAF, LEAF, LEAF]],
}
PRIORS_ONLY = {**GBDT, "trees": []}


def _set(doc: dict, key: str, value) -> dict:
    """A copy of `doc` with the dotted, indexed field `key` set to `value`."""
    doc = copy.deepcopy(doc)
    steps = key.replace("]", "").replace("[", ".").split(".")
    *path, name = (int(s) if s.isdigit() else s for s in steps)
    target = doc
    for step in path:
        target = target[step]
    target[name] = value
    return doc


@pytest.mark.parametrize(
    "doc, field, value, detail",
    [
        (LOGREG, "dim", -1, "must be an integer >= 0"),
        (LOGREG, "dim", True, "must be an integer >= 0"),
        (LOGREG, "dim", 1.5, "must be an integer >= 0"),
        (LOGREG, "trained.iterations", -1, "must be an integer >= 0"),
        (LOGREG, "trained.iterations", True, "must be an integer >= 0"),
        (LOGREG, "trained.iterations", 1.5, "must be an integer >= 0"),
        (PRIORS_ONLY, "dim", -1, "must be an integer >= 0"),
        (GBDT, "max_depth", 0, "must be an integer >= 1"),
        (GBDT, "max_depth", True, "must be an integer >= 1"),
        (GBDT, "trees[0][0].feature", -1, f"must be an integer in [0, {FEATURE_DIM - 1}]"),
        (GBDT, "trees[0][0].feature", FEATURE_DIM, f"must be an integer in [0, {FEATURE_DIM - 1}]"),
        (GBDT, "trees[0][0].feature", True, f"must be an integer in [0, {FEATURE_DIM - 1}]"),
        (GBDT, "trees[0][0].feature", 1.0, f"must be an integer in [0, {FEATURE_DIM - 1}]"),
    ],
)
def test_model_integer_out_of_range(tmp_path, doc, field, value, detail):
    manifest = write_dataset(tmp_path, [{"id": "a", "gt": 1, "scene": "inside", "damage": ""}])
    config = tmp_path / "hybrid.json"
    config.write_text(json.dumps({"decision_mode": "hybrid"}))
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    meta.load_model(path)  # the base file loads
    path.write_text(json.dumps(_set(doc, field, value)))
    with pytest.raises(SchemaViolation) as exc:
        meta.load_model(path)
    assert str(exc.value) == f"schema violation at {field}: {detail}"
    assert cli_error(["assess", "--manifest", str(manifest), "--config", str(config),
                      "--meta-model", str(path)]) == {
        "error": "SchemaViolation", "detail": str(exc.value),
    }


@pytest.mark.parametrize(
    "field, value, detail",
    [
        ("confidence", 10**400, "must be finite"),
        ("box[2]", "0.1", "must be a number"),
    ],
    ids=["confidence-beyond-float", "box-string"],
)
def test_detection_number_not_a_finite_number(tmp_path, field, value, detail):
    manifest = write_dataset(tmp_path, [{"id": "a", "scene": "inside"}])
    doc = json.loads(manifest.read_text())
    doc["images"][0]["damage_file"] = "labels/a.json"
    manifest.write_text(json.dumps(doc))
    good = {"class": "crack", "box": [0.5, 0.5, 0.2, 0.2], "confidence": 0.9}
    path = tmp_path / "labels" / "a.json"
    path.write_text(json.dumps({"detections": [good, _set(good, field, value)]}))
    with pytest.raises(SchemaViolation) as exc:
        read_detections(path, DEFAULT_DAMAGE_CLASS_MAP, DamageClass)
    assert str(exc.value) == f"schema violation at detections[1].{field}: {detail}"
    assert cli_error(["assess", "--manifest", str(manifest)]) == {
        "error": "SchemaViolation", "detail": str(exc.value), "image_id": "a",
    }


@pytest.mark.parametrize(
    "confidence, detail",
    [("0.9", "must be a number"), (10**400, "must be finite"), (None, "must be a number")],
    ids=["string", "beyond-float", "null"],
)
def test_scene_reply_confidence_not_a_finite_number(tmp_path, confidence, detail):
    reply = {"scene": "inside", "confidence": confidence}
    with pytest.raises(ProtocolViolation) as exc:
        _evidence("scene", reply)
    assert exc.value.detail == f"schema violation at confidence: {detail}"
    manifest = write_dataset(tmp_path, [{"id": "a", "image_path": "a.jpg"}])
    child = f"import sys\nfor _ in sys.stdin:\n    print({json.dumps(reply)!r}, flush=True)\n"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"backend": {"command": [sys.executable, "-c", child]}}))
    assert cli_error(["assess", "--manifest", str(manifest), "--backend", "external",
                      "--config", str(config)]) == {
        "error": "ProtocolViolation", "detail": str(exc.value), "image_id": "a",
    }
