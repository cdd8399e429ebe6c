"""Confusion matrix, exact and within-one-level accuracy, per-class P/R/F1.

The report is the `ruinscore-report-v1` object that `evaluate --json`
prints: `compute_metrics` builds it as a plain dict in its printed key
order, and `render_report` renders that dict as JSON or as the text table.
Nothing reads a report back.

Matrix orientation is fixed as rows = ground truth, columns = prediction.
Rates that come out 0/0 (a class absent or never predicted) are reported as
0 and flagged, so sparse classes stay visible instead of crashing reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dataset_io import DamageLevel
from .errors import EmptyMatrix

REPORT_FORMAT = "ruinscore-report-v1"
N_LEVELS = 4


@dataclass(frozen=True)
class ConfusionMatrix:
    """4x4 counts; rows = ground truth ordinal, columns = predicted ordinal."""

    counts: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.counts) != N_LEVELS or any(len(r) != N_LEVELS for r in self.counts):
            raise ValueError("confusion matrix must be 4x4")
        if any(c < 0 for row in self.counts for c in row):
            raise ValueError("confusion matrix entries must be >= 0")

    @property
    def total(self) -> int:
        return sum(sum(row) for row in self.counts)

    def row_sum(self, i: int) -> int:
        return sum(self.counts[i])

    def col_sum(self, j: int) -> int:
        return sum(row[j] for row in self.counts)

    def trace(self) -> int:
        return sum(self.counts[i][i] for i in range(N_LEVELS))

    def within_one(self) -> int:
        return sum(
            self.counts[i][j]
            for i in range(N_LEVELS)
            for j in range(N_LEVELS)
            if abs(i - j) <= 1
        )


def confusion_matrix(pairs) -> ConfusionMatrix:
    """Count (ground truth, prediction) pairs into the matrix."""
    m = [[0] * N_LEVELS for _ in range(N_LEVELS)]
    for gt, pred in pairs:
        m[int(gt)][int(pred)] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in m))


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


def compute_metrics(m: ConfusionMatrix, config_tag: str = "") -> dict:
    """The `ruinscore-report-v1` object of the matrix; raises EmptyMatrix on total 0."""
    total = m.total
    if total == 0:
        raise EmptyMatrix()
    return {
        "format": REPORT_FORMAT,
        "config_tag": config_tag,
        "n": total,
        "exact_accuracy": m.trace() / total,
        "plus_minus_one_accuracy": m.within_one() / total,
        "per_class": [
            _class_metrics(lv, m.counts[lv][lv], m.col_sum(lv), m.row_sum(lv))
            for lv in DamageLevel
        ],
        "matrix": [list(row) for row in m.counts],
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
