"""Versioned JSON model files, the format dispatch loader and training accuracy."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from ..dataset_io import decode_json
from ..errors import IoFailure, SchemaViolation
from .features import FEATURE_LAYOUT
from .gbdt import GBDT_FORMAT, GbdtModel, gbdt_from_dict, gbdt_to_dict, predict_gbdt_batch
from .logreg import (
    LOGREG_FORMAT,
    LogRegModel,
    logreg_from_dict,
    logreg_to_dict,
    predict_logreg_batch,
)


def model_to_json(model: LogRegModel | GbdtModel) -> str:
    if isinstance(model, LogRegModel):
        payload = logreg_to_dict(model)
    elif isinstance(model, GbdtModel):
        payload = gbdt_to_dict(model)
    else:
        raise TypeError(f"not a serializable model: {type(model)!r}")
    return json.dumps(payload, indent=2) + "\n"


def training_accuracy(model: LogRegModel | GbdtModel, X, y) -> float:
    """Share of rows whose most probable class equals the label."""
    predict = predict_logreg_batch if isinstance(model, LogRegModel) else predict_gbdt_batch
    labels = np.asarray([int(v) for v in y])
    return float((predict(model, X).argmax(axis=1) == labels).mean())


def save_model(model: LogRegModel | GbdtModel, path: str | Path) -> None:
    try:
        Path(path).write_text(model_to_json(model), encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot write model file {path}: {exc}") from None


def load_model(path: str | Path) -> LogRegModel | GbdtModel:
    """Load either model kind; rejects unknown formats, missing or mistyped
    keys and layout mismatches with SchemaViolation."""
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:
        raise IoFailure(f"cannot read model file {p}: {exc}") from None
    raw = decode_json(text, invalid="model file is not valid JSON")
    if not isinstance(raw, dict):
        raise SchemaViolation("$", "model file must be an object")
    fmt = raw.get("format")
    if fmt == LOGREG_FORMAT:
        from_dict = logreg_from_dict
    elif fmt == GBDT_FORMAT:
        from_dict = gbdt_from_dict
    else:
        raise SchemaViolation("format", f"unknown model format {fmt!r}")
    try:
        model = from_dict(raw)
    except KeyError as exc:
        raise SchemaViolation(str(exc.args[0]), "missing key") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaViolation("$", f"malformed model file ({exc})") from None
    if model.feature_layout != FEATURE_LAYOUT:
        raise SchemaViolation(
            "feature_layout",
            f"model uses layout {model.feature_layout!r}, engine expects {FEATURE_LAYOUT!r}",
        )
    return model
