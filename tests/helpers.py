"""Shared test utilities: random evidence generators, independent oracles
and the serializers only tests need.

The oracles here deliberately avoid the library's own helpers so they stay
independent checks: the rule oracle hardcodes the default v1 constants and
the metric oracle counts pairs directly without a matrix.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, fields, is_dataclass
from enum import Enum
from pathlib import Path

from ruinscore.backend import CascadeOutput, cascade_tasks
from ruinscore.dataset_io import (
    ComponentClass,
    DamageClass,
    DamageLevel,
    DatasetManifest,
    Detection,
    ImageEntry,
    SceneClass,
    read_detections,
)
from ruinscore.errors import MissingEvidence, RuinscoreError
from ruinscore.fusion import TAG_AMBIGUITY_BIAS, FusionConfig, RuleDecision, weighted_score

DAMAGE_CLASSES = (DamageClass.CRACK, DamageClass.SPALLING, DamageClass.EXPOSED_REBAR)
COMPONENT_CLASSES = (ComponentClass.BEAM, ComponentClass.COLUMN, ComponentClass.WALL)


def rand_box(rng: random.Random) -> tuple[float, float, float, float]:
    """(cx, cy, w, h), drawn in that order."""
    return (
        rng.uniform(0.1, 0.9),
        rng.uniform(0.1, 0.9),
        rng.uniform(0.02, 0.4),
        rng.uniform(0.02, 0.4),
    )


def rand_damage(rng: random.Random, cls: DamageClass | None = None) -> Detection:
    return Detection(
        cls if cls is not None else rng.choice(DAMAGE_CLASSES),
        *rand_box(rng),
        rng.uniform(0.0, 1.0),
    )


def rand_component(rng: random.Random) -> Detection:
    return Detection(rng.choice(COMPONENT_CLASSES), *rand_box(rng), rng.uniform(0.0, 1.0))


def rand_cascade(rng: random.Random, image_id: str = "img") -> CascadeOutput:
    scene = rng.choice((SceneClass.INSIDE, SceneClass.OUTSIDE))
    confidence = rng.uniform(0.5, 1.0)
    components = tuple(rand_component(rng) for _ in range(rng.randint(0, 3)))
    damages = tuple(rand_damage(rng) for _ in range(rng.randint(0, 6)))
    return CascadeOutput(
        image_id=image_id,
        scene=scene,
        scene_confidence=confidence,
        components=components,
        damages=damages,
    )


def reference_file_cascade(entry: ImageEntry, manifest: DatasetManifest) -> CascadeOutput:
    """The file backend's cascade answered task by task: one read per task of
    `cascade_tasks(entry)`, in order, then assembled with the manifest scene
    override in place of a scene answer. `FileBackend.cascade_chunk` must
    match it, output for output and error for error."""

    def read(task: str):
        if task == "scene":
            raise MissingEvidence(
                "scene", f"entry {entry.id!r} has no 'scene' key in the manifest"
            )
        if task == "components":
            if entry.components_file is None:
                return []
            return read_detections(
                entry.components_file, manifest.component_class_map, ComponentClass
            )
        if entry.damage_file is None:
            raise MissingEvidence("damage", f"entry {entry.id!r} names no damage_file")
        return read_detections(entry.damage_file, manifest.damage_class_map, DamageClass)

    answers = [read(task) for task in cascade_tasks(entry)]
    if entry.scene_override is None:
        (scene, confidence), components, damages = answers
    else:
        scene, confidence = entry.scene_override, 1.0
        components, damages = answers
    return CascadeOutput(
        image_id=entry.id,
        scene=scene,
        scene_confidence=confidence,
        components=tuple(components),
        damages=tuple(damages),
    )


def cascade_one(entry: ImageEntry, backend) -> CascadeOutput:
    """`entry`'s evidence from a one-entry `backend.cascade_chunk`; its error
    is raised."""
    [out] = backend.cascade_chunk([entry])
    if isinstance(out, RuinscoreError):
        raise out
    return out


def oracle_v1_level(n_crack: int, n_spall: int, n_rebar: int) -> tuple[DamageLevel, float]:
    """Piecewise evaluator of the default v1 rules, written from scratch.

    Assumes every detection clears the 0.25 confidence floor. Weights 1/2/3,
    slight at score 1, medium at score 4, any rebar forces heavy.
    """
    if n_rebar > 0:
        return DamageLevel.HEAVY, float(n_crack + 2 * n_spall)
    score = float(n_crack * 1.0 + n_spall * 2.0 + n_rebar * 3.0)
    if score >= 4.0:
        return DamageLevel.MEDIUM, score
    if score >= 1.0:
        return DamageLevel.SLIGHT, score
    return DamageLevel.ZERO, score


def recompute_score(decision: RuleDecision, config: FusionConfig) -> float:
    """Rebuild the score from the decision's own counts and tags."""
    base = weighted_score(
        decision.n_crack, decision.n_spall, decision.n_rebar_raw - decision.n_rebar_valid, config
    )
    if TAG_AMBIGUITY_BIAS in decision.applied_filters:
        base *= config.v2.no_component_score_factor
    return base


def config_to_dict(config: FusionConfig) -> dict:
    """The JSON object `FusionConfig.from_dict` reads back as `config`."""
    out: dict = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Enum):
            value = value.value
        elif is_dataclass(value):
            value = asdict(value)
        out[f.name] = value
    return out


def detections_to_json(detections) -> str:
    """Detections in the JSON schema; `dataset_io.detections_from_obj` inverts this."""
    items = [
        {
            "class": d.cls.value,
            "box": [d.cx, d.cy, d.w, d.h],
            "confidence": d.confidence,
        }
        for d in detections
    ]
    return json.dumps({"detections": items})


def naive_metrics(pairs) -> dict:
    """Direct-count metric oracle; no confusion matrix involved."""
    n = len(pairs)
    exact = sum(1 for gt, pred in pairs if int(gt) == int(pred)) / n
    pm1 = sum(1 for gt, pred in pairs if abs(int(gt) - int(pred)) <= 1) / n
    per_class = []
    for c in range(4):
        tp = sum(1 for gt, pred in pairs if int(gt) == c and int(pred) == c)
        n_pred = sum(1 for _, pred in pairs if int(pred) == c)
        n_true = sum(1 for gt, _ in pairs if int(gt) == c)
        precision = tp / n_pred if n_pred else 0.0
        recall = tp / n_true if n_true else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class.append({"precision": precision, "recall": recall, "f1": f1})
    return {"n": n, "exact": exact, "pm1": pm1, "per_class": per_class}


def finite_difference_grad(loss_fn, W, eps: float = 1e-5):
    """Central-difference gradient of a scalar loss over a matrix parameter."""
    import numpy as np

    G = np.zeros_like(W)
    for i in range(W.shape[0]):
        for j in range(W.shape[1]):
            up = W.copy()
            up[i, j] += eps
            down = W.copy()
            down[i, j] -= eps
            G[i, j] = (loss_fn(up) - loss_fn(down)) / (2 * eps)
    return G


def separable_fixture(n: int = 200, dim: int = 18, seed: int = 9):
    """Two linearly separable classes (ZERO vs HEAVY) split by feature 16."""
    import numpy as np

    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 0.3, size=(n, dim))
    y = []
    for i in range(n):
        if i % 2 == 0:
            X[i, 16] = rng.uniform(0.0, 1.5)
            y.append(DamageLevel.ZERO)
        else:
            X[i, 16] = rng.uniform(3.5, 6.0)
            y.append(DamageLevel.HEAVY)
    return X, y


def xor_fixture(n_per_cluster: int = 100, dim: int = 18, seed: int = 21):
    """Four clusters on features 0 and 1 labeled XOR-style; not linearly separable."""
    import numpy as np

    rng = np.random.default_rng(seed)
    rows, labels = [], []
    for a in (0.0, 1.0):
        for b in (0.0, 1.0):
            for _ in range(n_per_cluster):
                x = np.zeros(dim)
                x[0] = a + rng.normal(0.0, 0.05)
                x[1] = b + rng.normal(0.0, 0.05)
                rows.append(x)
                labels.append(DamageLevel.ZERO if a == b else DamageLevel.HEAVY)
    return np.stack(rows), labels


def training_accuracy(model, y) -> float:
    """Share of training rows whose most probable class, in the probabilities
    the trainer kept (`training_probs`), equals the label."""
    predicted = model.training_probs.argmax(axis=1).tolist()
    return sum(p == int(t) for p, t in zip(predicted, y)) / len(predicted)


def write_dataset(root: Path, images: list[dict], class_maps: dict | None = None) -> Path:
    """Materialize a manifest plus detection files.

    Each image dict: id, gt (int or None), scene (str or None),
    damage (box-text string or None to omit the file), components (string or
    None).
    """
    root.mkdir(parents=True, exist_ok=True)
    (root / "labels").mkdir(exist_ok=True)
    (root / "components").mkdir(exist_ok=True)
    entries = []
    for img in images:
        entry = {"id": img["id"]}
        if img.get("gt") is not None:
            entry["ground_truth_level"] = img["gt"]
        if img.get("scene") is not None:
            entry["scene"] = img["scene"]
        if img.get("damage") is not None:
            rel = f"labels/{img['id']}.txt"
            (root / rel).write_text(img["damage"], encoding="utf-8")
            entry["damage_file"] = rel
        if img.get("components") is not None:
            rel = f"components/{img['id']}.txt"
            (root / rel).write_text(img["components"], encoding="utf-8")
            entry["components_file"] = rel
        if img.get("image_path") is not None:
            entry["image_path"] = img["image_path"]
        entries.append(entry)
    manifest: dict = {"images": entries}
    if class_maps is not None:
        manifest["class_maps"] = class_maps
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    return path
