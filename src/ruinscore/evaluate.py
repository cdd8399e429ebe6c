"""Confusion matrix, exact and within-one-level accuracy, per-class P/R/F1.

The report is the `ruinscore-report-v1` object that `evaluate --json`
prints: `compute_metrics` builds it as a plain dict in its printed key
order, and `render_report` renders that dict as JSON or as the text table.
Nothing reads a report back. Its input is `read_assessments`: each `assess`
record's image id and final level, checked line by line.

The matrix is a plain 4x4 table of counts, a tuple of 4 row tuples, in a
fixed orientation: rows = ground truth, columns = prediction.
Rates that come out 0/0 (a class absent or never predicted) are reported as
0 and flagged, so sparse classes stay visible instead of crashing reports.
"""

from __future__ import annotations

import json
import os

from . import dataset_io
from .dataset_io import LEVEL_BY_LABEL, DamageLevel
from .errors import EmptyMatrix, SchemaViolation

REPORT_FORMAT = "ruinscore-report-v1"
N_LEVELS = 4


def read_assessments(path: str | os.PathLike) -> dict[str, DamageLevel]:
    """Each record's image id and final level, checked line by line."""
    levels = {}
    # JSON strings may hold U+2028, U+2029 and U+0085 raw, so only "\n" ends a line
    for line_no, line in enumerate(dataset_io.read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        rec = dataset_io.decode_json(line, f"line {line_no}")
        if not isinstance(rec, dict) or "image_id" not in rec or "final" not in rec:
            raise SchemaViolation(f"line {line_no}", "record needs image_id and final")
        image_id = rec["image_id"]
        if not isinstance(image_id, str):
            raise SchemaViolation(f"line {line_no}", "image_id must be a string")
        final = rec["final"]
        if not isinstance(final, str):
            raise SchemaViolation(f"line {line_no}", "final must be a string")
        if final not in LEVEL_BY_LABEL:
            raise SchemaViolation(f"line {line_no}", f"unknown level name {final!r}")
        if image_id in levels:
            raise SchemaViolation(f"line {line_no}", f"duplicate image_id {image_id!r}")
        levels[image_id] = LEVEL_BY_LABEL[final]
    return levels


def confusion_matrix(pairs) -> tuple[tuple[int, ...], ...]:
    """Count (ground truth, prediction) pairs into a plain 4x4 table of counts:
    row `gt`, column `pred`."""
    m = [[0] * N_LEVELS for _ in range(N_LEVELS)]
    for gt, pred in pairs:
        m[int(gt)][int(pred)] += 1
    return tuple(tuple(row) for row in m)


def _class_metrics(level: DamageLevel, tp: int, col: int, row: int) -> dict:
    """One `per_class` entry; a 0/0 rate is 0 and named under `undefined`."""
    undefined = []
    if col == 0:
        precision = 0.0
        undefined.append("precision")
    else:
        precision = tp / col
    if row == 0:
        recall = 0.0
        undefined.append("recall")
    else:
        recall = tp / row
    if precision + recall == 0.0:
        f1 = 0.0
        undefined.append("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)
    return {"level": level.label, "precision": precision, "recall": recall, "f1": f1,
            "undefined": undefined}


def compute_metrics(m: tuple[tuple[int, ...], ...], config_tag: str = "") -> dict:
    """The `ruinscore-report-v1` object of a 4x4 table from `confusion_matrix`
    (rows = ground truth, columns = prediction); raises EmptyMatrix on total 0."""
    total = sum(map(sum, m))
    if total == 0:
        raise EmptyMatrix()
    return {
        "format": REPORT_FORMAT,
        "config_tag": config_tag,
        "n": total,
        "exact_accuracy": sum(m[i][i] for i in range(N_LEVELS)) / total,
        "plus_minus_one_accuracy": sum(
            m[i][j] for i in range(N_LEVELS) for j in range(N_LEVELS) if abs(i - j) <= 1
        ) / total,
        "per_class": [
            _class_metrics(lv, m[lv][lv], sum(row[lv] for row in m), sum(m[lv]))
            for lv in DamageLevel
        ],
        "matrix": [list(row) for row in m],
    }


def _split_tag(tag: str) -> tuple[str, str]:
    if " / " in tag:
        method, model = tag.split(" / ", 1)
        return method, model
    return (tag or "-"), "-"


def render_report(report: dict, fmt: str = "text") -> str:
    """Render a report object: "json" is `json.dumps` of it, "text" a stable line format."""
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    method, model = _split_tag(report["config_tag"])
    per_class = report["per_class"]
    f1_values = " ".join(f"{c['f1']:.3f}" for c in per_class)
    level_names = " ".join(lv.label for lv in DamageLevel)
    lines = [
        f"n: {report['n']}",
        f"Method: {method}  Model type: {model}",
        (
            f"Accuracy (%): {100.0 * report['exact_accuracy']:.2f}  "
            f"± 1 Accuracy: {100.0 * report['plus_minus_one_accuracy']:.2f}"
        ),
        f"Per-class F1 ({level_names}): {f1_values}",
        "Confusion matrix (rows = truth, cols = predicted):",
    ]
    for row in report["matrix"]:
        lines.append("  " + " ".join(f"{v:6d}" for v in row))
    flagged = [f"{c['level']} {name}" for c in per_class for name in c["undefined"]]
    if flagged:
        lines.append("undefined→0: " + ", ".join(flagged))
    return "\n".join(lines) + "\n"
