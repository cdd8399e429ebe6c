"""Confusion matrix, exact and within-one-level accuracy, per-class P/R/F1.

Matrix orientation is fixed as rows = ground truth, columns = prediction.
Rates that come out 0/0 (a class absent or never predicted) are reported as
0 and flagged, so sparse classes stay visible instead of crashing reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .dataset_io import DamageLevel, decode_json
from .errors import EmptyMatrix, SchemaViolation

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


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    undefined: tuple[str, ...] = ()  # which of the three rates were 0/0


@dataclass(frozen=True)
class EvalReport:
    n: int
    exact_accuracy: float
    plus_minus_one_accuracy: float
    per_class: tuple[ClassMetrics, ...]
    matrix: ConfusionMatrix
    config_tag: str = ""


def confusion_matrix(pairs) -> ConfusionMatrix:
    """Count (ground truth, prediction) pairs into the matrix."""
    m = [[0] * N_LEVELS for _ in range(N_LEVELS)]
    for gt, pred in pairs:
        m[int(gt)][int(pred)] += 1
    return ConfusionMatrix(tuple(tuple(row) for row in m))


def compute_metrics(m: ConfusionMatrix, config_tag: str = "") -> EvalReport:
    """Derive every report field from the matrix; raises EmptyMatrix on total 0."""
    total = m.total
    if total == 0:
        raise EmptyMatrix()
    exact = m.trace() / total
    plus_minus_one = m.within_one() / total

    per_class = []
    for c in range(N_LEVELS):
        tp = m.counts[c][c]
        col = m.col_sum(c)
        row = m.row_sum(c)
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
        per_class.append(
            ClassMetrics(precision=precision, recall=recall, f1=f1, undefined=tuple(undefined))
        )

    return EvalReport(
        n=total,
        exact_accuracy=exact,
        plus_minus_one_accuracy=plus_minus_one,
        per_class=tuple(per_class),
        matrix=m,
        config_tag=config_tag,
    )


def _split_tag(tag: str) -> tuple[str, str]:
    if " / " in tag:
        method, model = tag.split(" / ", 1)
        return method, model
    return (tag or "-"), "-"


def render_report(report: EvalReport, fmt: str = "text") -> str:
    """Render the report; "text" is a stable line format, "json" round-trips."""
    if fmt == "json":
        return json.dumps(report_to_dict(report), indent=2) + "\n"
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    method, model = _split_tag(report.config_tag)
    f1_values = " ".join(f"{c.f1:.3f}" for c in report.per_class)
    level_names = " ".join(lv.label for lv in DamageLevel)
    lines = [
        f"n: {report.n}",
        f"Method: {method}  Model type: {model}",
        (
            f"Accuracy (%): {100.0 * report.exact_accuracy:.2f}  "
            f"± 1 Accuracy: {100.0 * report.plus_minus_one_accuracy:.2f}"
        ),
        f"Per-class F1 ({level_names}): {f1_values}",
        "Confusion matrix (rows = truth, cols = predicted):",
    ]
    for row in report.matrix.counts:
        lines.append("  " + " ".join(f"{v:6d}" for v in row))
    flagged = [
        f"{DamageLevel(i).label} {name}"
        for i, c in enumerate(report.per_class)
        for name in c.undefined
    ]
    if flagged:
        lines.append("undefined→0: " + ", ".join(flagged))
    return "\n".join(lines) + "\n"


def report_to_dict(report: EvalReport) -> dict:
    return {
        "format": REPORT_FORMAT,
        "config_tag": report.config_tag,
        "n": report.n,
        "exact_accuracy": report.exact_accuracy,
        "plus_minus_one_accuracy": report.plus_minus_one_accuracy,
        "per_class": [
            {
                "level": DamageLevel(i).label,
                "precision": c.precision,
                "recall": c.recall,
                "f1": c.f1,
                "undefined": list(c.undefined),
            }
            for i, c in enumerate(report.per_class)
        ],
        "matrix": [list(row) for row in report.matrix.counts],
    }


def report_from_dict(raw: dict) -> EvalReport:
    if raw.get("format") != REPORT_FORMAT:
        raise SchemaViolation("format", f"expected {REPORT_FORMAT!r}")
    per_class = []
    for i, c in enumerate(raw["per_class"]):
        if c.get("level") != DamageLevel(i).label:
            raise SchemaViolation(f"per_class[{i}].level", "out of order")
        per_class.append(
            ClassMetrics(
                precision=float(c["precision"]),
                recall=float(c["recall"]),
                f1=float(c["f1"]),
                undefined=tuple(c.get("undefined", [])),
            )
        )
    matrix = ConfusionMatrix(tuple(tuple(int(v) for v in row) for row in raw["matrix"]))
    return EvalReport(
        n=int(raw["n"]),
        exact_accuracy=float(raw["exact_accuracy"]),
        plus_minus_one_accuracy=float(raw["plus_minus_one_accuracy"]),
        per_class=tuple(per_class),
        matrix=matrix,
        config_tag=str(raw.get("config_tag", "")),
    )


def parse_report(text: str) -> EvalReport:
    return report_from_dict(decode_json(text, invalid="report is not valid JSON"))

