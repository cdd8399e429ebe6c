"""Fuzzing of the input loaders through `cli.main`: model files, manifests,
config files and evaluate's assessment records.

Valid documents get up to three mutations: a value replaced by an arbitrary
JSON value, a key or item deleted, or one added. Whatever comes out, the
command must end in exit 0, 1 or 2 and print no traceback; exit 1 must
print exactly one JSON error line, and every line exit 0 prints on stderr
must be the JSON error line of a skipped image.
"""

from __future__ import annotations

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import HealthCheck, example, given, settings, strategies as st

from ruinscore.cli import main
from ruinscore.dataset_io import DEFAULT_COMPONENT_CLASS_MAP, DEFAULT_DAMAGE_CLASS_MAP
from ruinscore.fusion import FusionConfig, FusionVersion
from ruinscore.meta import FEATURE_DIM

from helpers import write_dataset

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


def _leaf(value: float) -> dict:
    return {"value": value}


LOGREG = {
    "format": "ruinscore-logreg-v1",
    "feature_layout": "v1",
    "dim": FEATURE_DIM,
    "weights": [[0.1 * (c - i % 3) for i in range(FEATURE_DIM + 1)] for c in range(4)],
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
    "trees": [
        [
            _leaf(0.1),
            {"feature": 16, "threshold": 1.5, "left": _leaf(-0.2), "right": _leaf(0.3)},
            {
                "feature": 0,
                "threshold": 0.5,
                "left": _leaf(0.0),
                "right": {"feature": 11, "threshold": 0.5, "left": _leaf(0.2), "right": _leaf(0.4)},
            },
            _leaf(-0.1),
        ]
    ],
}
MANIFEST_IMAGES = [
    {"id": "a", "gt": 1, "scene": "inside", "damage": "0 0.5 0.5 0.2 0.2 0.9\n",
     "components": "1 0.5 0.5 0.6 0.8 0.8\n"},
    {"id": "b", "gt": 3, "scene": "outside", "damage": "2 0.4 0.4 0.1 0.1 0.8\n"
     "1 0.4 0.4 0.2 0.2 0.7\n"},
]
CLASS_MAPS = {
    "damage": {str(i): cls.value for i, cls in DEFAULT_DAMAGE_CLASS_MAP.items()},
    "component": {str(i): cls.value for i, cls in DEFAULT_COMPONENT_CLASS_MAP.items()},
}


@st.composite
def mutated(draw, doc):
    """`doc` after one to three mutations, each at a drawn object or array."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 3))):
        places = []

        def walk(node):
            if isinstance(node, (dict, list)):
                places.append(node)
                for child in node.values() if isinstance(node, dict) else node:
                    walk(child)

        walk(doc)
        node = draw(st.sampled_from(places))
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if keys and action == "replace":
            node[draw(st.sampled_from(keys))] = draw(json_values)
        elif keys and action == "delete":
            del node[draw(st.sampled_from(keys))]
        elif isinstance(node, dict):
            node[draw(st.text(max_size=6))] = draw(json_values)
        else:
            node.append(draw(json_values))
    return doc


def run_main(argv) -> tuple[int, str]:
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code == 2:  # a usage error: argparse's own text
        return
    lines = err.splitlines()
    if code == 1:
        assert len(lines) == 1, err
    for line in lines:
        keys = set(json.loads(line))
        # a skipped image's line names it; a fatal error may not
        assert keys == {"error", "detail", "image_id"} or (
            code == 1 and keys == {"error", "detail"}
        ), err


FUZZ = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@FUZZ
@given(model=mutated(LOGREG) | mutated(GBDT))
@example(model={**LOGREG, "dim": 10**400})
@example(model={**GBDT, "learning_rate": 10**400})
@example(model={**GBDT, "trees": [[{"value": 10**400}] * 4]})
def test_mutated_model_file_ends_in_a_clean_exit(tmp_path_factory, model):
    root = tmp_path_factory.getbasetemp() / "model_fuzz"
    manifest = root / "manifest.json"
    if not manifest.exists():
        write_dataset(root, MANIFEST_IMAGES, CLASS_MAPS)
        (root / "hybrid.json").write_text(json.dumps({"decision_mode": "hybrid"}))
    path = root / "model.json"
    path.write_text(json.dumps(model))
    code, err = run_main(["assess", "--manifest", str(manifest), "--config",
                          str(root / "hybrid.json"), "--meta-model", str(path)])
    assert_clean_exit(code, err)


@FUZZ
@given(data=st.data())
def test_valid_model_files_assess(tmp_path_factory, data):
    # the fuzz bases themselves: exit 0, so mutations start from a working file
    model = data.draw(st.sampled_from([LOGREG, GBDT]))
    root = tmp_path_factory.getbasetemp() / "model_base"
    if not (root / "manifest.json").exists():
        write_dataset(root, MANIFEST_IMAGES, CLASS_MAPS)
    (root / "model.json").write_text(json.dumps(model))
    code, err = run_main(["assess", "--manifest", str(root / "manifest.json"),
                          "--meta-model", str(root / "model.json")])
    assert (code, err) == (0, "")


@st.composite
def manifest_documents(draw):
    entries = [
        {"id": img["id"], "ground_truth_level": img["gt"], "scene": img["scene"],
         "damage_file": f"labels/{img['id']}.txt"}
        for img in MANIFEST_IMAGES
    ]
    entries[0]["components_file"] = "components/a.txt"
    return draw(mutated({"class_maps": CLASS_MAPS, "images": entries}))


@FUZZ
@given(manifest=manifest_documents() | st.binary(max_size=60))
@example(manifest=b"\xff")
@example(manifest={"images": [{"id": "a", "ground_truth_level": 10**400}]})
@example(manifest={"class_maps": {"damage": {"1" * 400: "crack"}}, "images": []})
@example(manifest={"images": [{"id": "a", "scene": "inside", "damage_file": "labels/a\u0000.txt"}]})
def test_mutated_manifest_ends_in_a_clean_exit(tmp_path_factory, manifest):
    root = tmp_path_factory.getbasetemp() / "manifest_fuzz"
    if not root.exists():
        write_dataset(root, MANIFEST_IMAGES, CLASS_MAPS)
    path = root / "manifest.json"
    if isinstance(manifest, bytes):
        path.write_bytes(manifest)
    else:
        path.write_text(json.dumps(manifest))
    for argv in (["assess", "--manifest", str(path), "--keep-going"],
                 ["assess", "--manifest", str(path)]):
        assert_clean_exit(*run_main(argv))


def test_nul_in_a_detection_path_skips_only_its_image(tmp_path):
    path = write_dataset(tmp_path, MANIFEST_IMAGES, CLASS_MAPS)
    manifest = json.loads(path.read_text())
    images = manifest["images"]
    images.append({**images[1], "id": "c"})
    images[0]["damage_file"] = "labels/a\u0000.txt"
    images[1]["damage_file"] = "labels/b\n.txt"
    path.write_text(json.dumps(manifest))
    out = tmp_path / "out.jsonl"
    code, err = run_main(["assess", "--manifest", str(path), "--out", str(out), "--keep-going"])
    # one escaped JSON line per skipped image: the NUL stays off stderr, the newline in the line
    assert (code, err.split("\n")) == (0, [
        json.dumps({"error": "MissingFile", "detail": f"file not found: {tmp_path}/labels/{name}",
                    "image_id": image_id})
        for image_id, name in (("a", "a\u0000.txt"), ("b", "b\n.txt"))
    ] + [""])
    assert [json.loads(line)["image_id"] for line in out.read_text().splitlines()] == ["c"]
    code, err = run_main(["assess", "--manifest", str(path)])
    assert (code, json.loads(err)["error"]) == (1, "MissingFile")


# every config key, backend section included; assess runs on the file backend
CONFIG = {
    **FusionConfig(version=FusionVersion.V2).to_dict(),
    "backend": {"command": ["detector"], "timeout_s": 5},
}


@FUZZ
@given(config=mutated(CONFIG) | st.binary(max_size=60))
@example(config={"conf_floor": 10**400})
@example(config={"v2": {"min_box_area": 10**400}})
@example(config={"backend": {"timeout_s": 10**400}})
def test_mutated_config_ends_in_a_clean_exit(tmp_path_factory, config):
    root = tmp_path_factory.getbasetemp() / "config_fuzz"
    manifest = root / "manifest.json"
    if not manifest.exists():
        write_dataset(root, MANIFEST_IMAGES, CLASS_MAPS)
    path = root / "config.json"
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(config))
    assert_clean_exit(*run_main(["assess", "--manifest", str(manifest), "--config", str(path)]))


def test_valid_config_assesses(tmp_path):
    # the fuzz base itself: exit 0, so mutations start from a working file
    write_dataset(tmp_path, MANIFEST_IMAGES, CLASS_MAPS)
    (tmp_path / "config.json").write_text(json.dumps(CONFIG))
    code, err = run_main(["assess", "--manifest", str(tmp_path / "manifest.json"),
                          "--config", str(tmp_path / "config.json")])
    assert (code, err) == (0, "")


# one assessment record per manifest image, as `assess` writes them
RECORDS = [
    {"image_id": "a", "final": "slight", "rule_level": "slight", "score": 1.5},
    {"image_id": "b", "final": "heavy", "rule_level": "heavy", "score": 6.0},
]


@FUZZ
@given(records=mutated(RECORDS) | st.binary(max_size=60))
@example(records=[{"image_id": "a", "final": ["heavy"]}])
@example(records=[{"image_id": "b", "final": {"level": "heavy"}}])
def test_mutated_assessments_end_in_a_clean_exit(tmp_path_factory, records):
    root = tmp_path_factory.getbasetemp() / "assessments_fuzz"
    manifest = root / "manifest.json"
    if not manifest.exists():
        write_dataset(root, MANIFEST_IMAGES, CLASS_MAPS)
    path = root / "assessments.jsonl"
    if isinstance(records, bytes):
        path.write_bytes(records)
    else:
        path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    for argv in (["evaluate", "--manifest", str(manifest), "--assessments", str(path)],
                 ["evaluate", "--manifest", str(manifest), "--assessments", str(path), "--json"]):
        assert_clean_exit(*run_main(argv))


def test_valid_assessments_evaluate(tmp_path):
    write_dataset(tmp_path, MANIFEST_IMAGES, CLASS_MAPS)
    path = tmp_path / "assessments.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in RECORDS))
    code, err = run_main(["evaluate", "--manifest", str(tmp_path / "manifest.json"),
                          "--assessments", str(path)])
    assert (code, err) == (0, "")
