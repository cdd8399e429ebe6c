from __future__ import annotations

import json
import random

import pytest

from ruinscore.dataset_io import DamageLevel
from ruinscore.errors import EmptyMatrix
from ruinscore.evaluate import (
    ConfusionMatrix,
    compute_metrics,
    confusion_matrix,
    render_report,
)

from helpers import naive_metrics

Z, S, M, H = DamageLevel


def test_empty_pairs_all_zero_matrix():
    m = confusion_matrix([])
    assert m.total == 0
    assert m.counts == ((0,) * 4,) * 4


def test_perfect_pairs_on_diagonal():
    m = confusion_matrix([(Z, Z), (H, H)])
    assert [m.counts[i][i] for i in range(4)] == [1, 0, 0, 1]


def test_hand_counted_cells():
    m = confusion_matrix([(M, S), (M, S), (M, M)])
    assert m.counts[2][1] == 2
    assert m.counts[2][2] == 1


def test_empty_matrix_rejected():
    with pytest.raises(EmptyMatrix):
        compute_metrics(confusion_matrix([]))


def test_perfect_predictions():
    pairs = [(lv, lv) for lv in DamageLevel for _ in range(3)]
    report = compute_metrics(confusion_matrix(pairs))
    assert report["exact_accuracy"] == 1.0
    assert report["plus_minus_one_accuracy"] == 1.0
    assert all(c["f1"] == 1.0 for c in report["per_class"])


def test_plus_minus_one_hand_case():
    pairs = [(H, Z), (H, S), (H, M), (H, H)]
    report = compute_metrics(confusion_matrix(pairs))
    assert report["exact_accuracy"] == 0.25
    assert report["plus_minus_one_accuracy"] == 0.50


def test_harmonic_mean_hand_case():
    # row HEAVY (0,0,2,3), column HEAVY picks up one extra from MEDIUM row
    pairs = [(H, M), (H, M), (H, H), (H, H), (H, H), (M, H), (M, M), (M, M), (Z, Z), (Z, Z)]
    report = compute_metrics(confusion_matrix(pairs))
    heavy = report["per_class"][3]
    assert heavy["recall"] == pytest.approx(0.6)
    assert heavy["precision"] == pytest.approx(0.75)
    assert heavy["f1"] == pytest.approx(2 * 0.75 * 0.6 / 1.35)


def test_undefined_rates_flagged_as_zero():
    report = compute_metrics(confusion_matrix([(Z, Z), (S, Z)]))
    medium = report["per_class"][2]
    assert medium["precision"] == medium["recall"] == medium["f1"] == 0.0
    assert set(medium["undefined"]) == {"precision", "recall", "f1"}


def test_matrix_oracle_equivalence_1000_random_lists():
    rng = random.Random(123)
    for _ in range(1000):
        n = rng.randint(1, 50)
        pairs = [(DamageLevel(rng.randint(0, 3)), DamageLevel(rng.randint(0, 3))) for _ in range(n)]
        report = compute_metrics(confusion_matrix(pairs))
        oracle = naive_metrics(pairs)
        assert abs(report["exact_accuracy"] - oracle["exact"]) <= 1e-12
        assert abs(report["plus_minus_one_accuracy"] - oracle["pm1"]) <= 1e-12
        for c in range(4):
            got = report["per_class"][c]
            want = oracle["per_class"][c]
            assert abs(got["precision"] - want["precision"]) <= 1e-12
            assert abs(got["recall"] - want["recall"]) <= 1e-12
            assert abs(got["f1"] - want["f1"]) <= 1e-12
        assert report["plus_minus_one_accuracy"] >= report["exact_accuracy"]


def test_permutation_invariance():
    rng = random.Random(5)
    pairs = [(DamageLevel(rng.randint(0, 3)), DamageLevel(rng.randint(0, 3))) for _ in range(40)]
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert confusion_matrix(pairs) == confusion_matrix(shuffled)


def test_support_weighted_recall_equals_exact_accuracy():
    rng = random.Random(8)
    pairs = [(DamageLevel(rng.randint(0, 3)), DamageLevel(rng.randint(0, 3))) for _ in range(200)]
    report = compute_metrics(confusion_matrix(pairs))
    weighted = sum(
        report["per_class"][c]["recall"] * sum(report["matrix"][c]) for c in range(4)
    ) / report["n"]
    assert weighted == pytest.approx(report["exact_accuracy"], abs=1e-12)


def test_pm1_equals_exact_only_when_errors_are_far():
    # every error at least two levels off: pm1 collapses onto exact
    far = compute_metrics(confusion_matrix([(Z, M), (Z, H), (S, H), (M, M)]))
    assert far["plus_minus_one_accuracy"] == far["exact_accuracy"]
    near = compute_metrics(confusion_matrix([(Z, S), (M, M)]))
    assert near["plus_minus_one_accuracy"] > near["exact_accuracy"]


RULE_V2_TEXT = (
    "n: 10000\n"
    "Method: Final Decision  Model type: Rule Fusion v2\n"
    "Accuracy (%): 71.04  ± 1 Accuracy: 91.92\n"
    "Per-class F1 (zero slight medium heavy): 0.831 0.000 0.000 0.000\n"
    "Confusion matrix (rows = truth, cols = predicted):\n"
    "    7104   2088    808      0\n"
    "       0      0      0      0\n"
    "       0      0      0      0\n"
    "       0      0      0      0\n"
    "undefined→0: slight recall, slight f1, medium recall, medium f1, "
    "heavy precision, heavy recall, heavy f1\n"
)
META_LOGREG_TEXT = (
    "n: 10000\n"
    "Method: Meta-Model Decision  Model type: Logistic Regression\n"
    "Accuracy (%): 73.72  ± 1 Accuracy: 92.80\n"
    "Per-class F1 (zero slight medium heavy): 0.844 0.384 0.128 0.641\n"
    "Confusion matrix (rows = truth, cols = predicted):\n"
    "    7372   1908    720      0\n"
    "       0      0      0      0\n"
    "       0      0      0      0\n"
    "       0      0      0      0\n"
)


def load_report(fixtures_dir, name) -> dict:
    return json.loads((fixtures_dir / name).read_text(encoding="utf-8"))


class TestRendering:
    def test_accuracy_row_formatting(self, fixtures_dir):
        text = render_report(load_report(fixtures_dir, "report_rule_v2.json"), "text")
        assert "71.04" in text
        assert "91.92" in text
        assert "Accuracy (%)" in text and "± 1 Accuracy" in text
        assert "Rule Fusion v2" in text

    def test_f1_row_formatting(self, fixtures_dir):
        text = render_report(load_report(fixtures_dir, "report_meta_logreg.json"), "text")
        assert "0.844 0.384 0.128 0.641" in text
        assert "73.72" in text and "92.80" in text

    def test_json_round_trip(self, fixtures_dir):
        report = load_report(fixtures_dir, "report_meta_logreg.json")
        assert json.loads(render_report(report, "json")) == report

    def test_text_is_stable(self, fixtures_dir):
        report = load_report(fixtures_dir, "report_rule_v2.json")
        assert render_report(report, "text") == render_report(report, "text")

    def test_json_bytes_pinned(self, fixtures_dir):
        # report_meta_logreg.json is hand-formatted; this one is as evaluate writes it
        text = (fixtures_dir / "report_rule_v2.json").read_text(encoding="utf-8")
        assert render_report(json.loads(text), "json") == text

    @pytest.mark.parametrize("name, expected", [
        ("report_rule_v2.json", RULE_V2_TEXT),
        ("report_meta_logreg.json", META_LOGREG_TEXT),
    ])
    def test_text_bytes_pinned(self, fixtures_dir, name, expected):
        assert render_report(load_report(fixtures_dir, name), "text") == expected

    def test_computed_report_keys_in_printed_order(self):
        report = compute_metrics(confusion_matrix([(Z, Z), (S, M)]), config_tag="t")
        assert list(report) == [
            "format", "config_tag", "n", "exact_accuracy", "plus_minus_one_accuracy",
            "per_class", "matrix",
        ]
        assert [list(c) for c in report["per_class"]] == [
            ["level", "precision", "recall", "f1", "undefined"]
        ] * 4
        assert report["per_class"][1]["undefined"] == ["precision", "f1"]
