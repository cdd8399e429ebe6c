"""Acceptance suite: one test per release criterion, at its stated tolerance.

A summary hook in conftest.py prints one PASS/FAIL line per criterion at the
end of the run. Run this module alone with:

    pytest tests/test_acceptance.py -v
"""

from __future__ import annotations

import itertools
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import ruinscore
from ruinscore.backend import CascadeOutput, ExternalBackend
from ruinscore.cli import main
from ruinscore.dataset_io import DamageClass, DamageLevel, Detection
from ruinscore.errors import ProtocolViolation, Timeout
from ruinscore.evaluate import compute_metrics, confusion_matrix, render_report
from ruinscore.fusion import (
    DEFAULT_CONFIG,
    FusionConfig,
    _filter_with_tags,
    rule_fusion,
    validate_rebar,
)
from ruinscore.meta import (
    model_to_json,
    train_gbdt,
    train_logreg,
)
from ruinscore.meta.hyper import GbdtHyper, LogRegHyper
from ruinscore.meta.logreg import _loss_and_grad

from helpers import (
    cascade_one,
    finite_difference_grad,
    naive_metrics,
    oracle_v1_level,
    rand_cascade,
    rand_damage,
    separable_fixture,
    training_accuracy,
    xor_fixture,
)

V2_CONFIG = FusionConfig.from_dict({"version": "v2"})


def test_criterion_1_rule_semantics_properties():
    """Rebar dominance, zero evidence, monotonicity, exact boundaries; <10s."""
    start = time.perf_counter()
    rng = random.Random(20260810)
    outputs = [rand_cascade(rng, f"p{i}") for i in range(1000)]
    for config in (DEFAULT_CONFIG, V2_CONFIG):
        for out in outputs:
            decision = rule_fusion(out, config)

            filtered = _filter_with_tags(out.damages, out.scene, config)[0]
            spalls = [d for d in filtered if d.cls is DamageClass.SPALLING]
            has_valid_rebar = any(
                d.cls is DamageClass.EXPOSED_REBAR
                and validate_rebar(d, spalls, out.components, config)
                for d in filtered
            )
            if has_valid_rebar:
                assert decision.level is DamageLevel.HEAVY and decision.rebar_forced

            stripped = CascadeOutput(
                out.image_id, out.scene, out.scene_confidence, out.components, ()
            )
            assert rule_fusion(stripped, config).level is DamageLevel.ZERO

            grown = CascadeOutput(
                out.image_id,
                out.scene,
                out.scene_confidence,
                out.components,
                out.damages + (rand_damage(rng),),
            )
            assert rule_fusion(grown, config).level >= decision.level

    # exact threshold boundaries: S == t_slight -> SLIGHT, S == t_medium -> MEDIUM
    def with_score(n_crack, n_spall):
        dets = tuple(
            Detection(DamageClass.CRACK, 0.5, 0.5, 0.1, 0.1, 0.9)
            for _ in range(n_crack)
        ) + tuple(
            Detection(DamageClass.SPALLING, 0.5, 0.5, 0.1, 0.1, 0.9)
            for _ in range(n_spall)
        )
        return CascadeOutput("b", outputs[0].scene, outputs[0].scene_confidence, (), dets)

    assert rule_fusion(with_score(1, 0), DEFAULT_CONFIG).level is DamageLevel.SLIGHT
    assert rule_fusion(with_score(0, 2), DEFAULT_CONFIG).level is DamageLevel.MEDIUM
    equal_thresholds = FusionConfig.from_dict({"thresholds": {"t_slight": 2.0, "t_medium": 2.0}})
    assert rule_fusion(with_score(2, 0), equal_thresholds).level is DamageLevel.MEDIUM
    assert rule_fusion(with_score(1, 0), equal_thresholds).level is DamageLevel.ZERO

    assert time.perf_counter() - start < 10.0


def test_criterion_2_fusion_oracle_equivalence():
    """rule_fusion agrees with the independent piecewise oracle, 216/216."""
    agreements = 0
    for n_crack, n_spall, n_rebar in itertools.product(range(6), repeat=3):
        damages = tuple(
            [Detection(DamageClass.CRACK, 0.3, 0.3, 0.1, 0.1, 0.8)] * n_crack
            + [Detection(DamageClass.SPALLING, 0.6, 0.6, 0.1, 0.1, 0.8)] * n_spall
            + [Detection(DamageClass.EXPOSED_REBAR, 0.5, 0.5, 0.1, 0.1, 0.8)]
            * n_rebar
        )
        first = rand_cascade(random.Random(1))
        out = CascadeOutput("o", first.scene, first.scene_confidence, (), damages)
        decision = rule_fusion(out, DEFAULT_CONFIG)
        level, score = oracle_v1_level(n_crack, n_spall, n_rebar)
        assert decision.level is level
        if not decision.rebar_forced:
            assert decision.score == score
        agreements += 1
    assert agreements == 216


def test_criterion_3_metric_harness_and_rendering(fixtures_dir):
    """Naive oracle agreement to 1e-12, pm1 >= exact, exact render strings."""
    rng = random.Random(31337)
    for _ in range(1000):
        n = rng.randint(1, 50)
        pairs = [
            (DamageLevel(rng.randint(0, 3)), DamageLevel(rng.randint(0, 3))) for _ in range(n)
        ]
        report = compute_metrics(confusion_matrix(pairs))
        oracle = naive_metrics(pairs)
        assert abs(report["exact_accuracy"] - oracle["exact"]) <= 1e-12
        assert abs(report["plus_minus_one_accuracy"] - oracle["pm1"]) <= 1e-12
        for c in range(4):
            got, want = report["per_class"][c], oracle["per_class"][c]
            assert abs(got["precision"] - want["precision"]) <= 1e-12
            assert abs(got["recall"] - want["recall"]) <= 1e-12
            assert abs(got["f1"] - want["f1"]) <= 1e-12
        assert report["plus_minus_one_accuracy"] >= report["exact_accuracy"]

    accuracy_report = json.loads((fixtures_dir / "report_rule_v2.json").read_text())
    text = render_report(accuracy_report, "text")
    assert "71.04" in text and "91.92" in text
    f1_report = json.loads((fixtures_dir / "report_meta_logreg.json").read_text())
    assert "0.844 0.384 0.128 0.641" in render_report(f1_report, "text")


def test_criterion_4_logreg_gradient_and_fit():
    """Gradient error <1e-5 at 10 random points, monotone loss, 99% fit <5s."""
    rng = np.random.default_rng(77)
    X, y = separable_fixture(n=200)
    n, d = X.shape
    Xb = np.hstack([(X - X.mean(axis=0)) / X.std(axis=0), np.ones((n, 1))])
    Y = np.zeros((n, 4))
    Y[np.arange(n), [int(v) for v in y]] = 1.0
    for _ in range(10):
        W = rng.normal(scale=0.5, size=(4, d + 1))
        _, analytic = _loss_and_grad(W, Xb, Y, 1e-3)
        numeric = finite_difference_grad(lambda w: _loss_and_grad(w, Xb, Y, 1e-3)[0], W)
        assert float(np.abs(analytic - numeric).max()) < 1e-5

    start = time.perf_counter()
    model = train_logreg(X, y, LogRegHyper())
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    assert training_accuracy(model, y) >= 0.99
    trace = model.loss_trace
    assert all(trace[i + 1] <= trace[i] for i in range(1, len(trace) - 1))


def test_criterion_5_gbdt_fit_and_determinism():
    """Monotone boosting loss, XOR separation vs logreg, bit-identical models."""
    X, y = xor_fixture()
    gb = train_gbdt(X, y, GbdtHyper())
    trace = gb.loss_trace
    assert all(trace[i + 1] <= trace[i] for i in range(len(trace) - 1))
    assert training_accuracy(gb, y) >= 0.95
    lr = train_logreg(X, y, LogRegHyper())
    assert training_accuracy(lr, y) <= 0.65
    again = train_gbdt(X, y, GbdtHyper())
    assert model_to_json(gb) == model_to_json(again)


def test_criterion_6_end_to_end_golden_run(tmp_path):
    """gen-synthetic seed 7 n 200 -> assess -> evaluate gives 100.00/100.00;
    false-positive noise degrades accuracy strictly; all under 30s."""
    start = time.perf_counter()

    # golden run through the real installed CLI
    data = tmp_path / "golden"
    assessments = tmp_path / "assess.jsonl"
    cmds = [
        ["gen-synthetic", "--seed", "7", "--n", "200", "--out", str(data)],
        ["assess", "--manifest", str(data / "manifest.json"), "--out", str(assessments)],
        ["evaluate", "--assessments", str(assessments), "--manifest", str(data / "manifest.json")],
    ]
    # the child imports the same ruinscore package as this test, installed or not
    package_root = str(Path(ruinscore.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        entry for entry in (package_root, os.environ.get("PYTHONPATH")) if entry
    )}
    outputs = []
    for cmd in cmds:
        proc = subprocess.run(
            [sys.executable, "-m", "ruinscore", *cmd], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert "Accuracy (%): 100.00" in outputs[2]
    assert "± 1 Accuracy: 100.00" in outputs[2]

    # noise sweep via the in-process CLI entry (same code path, faster)
    def mean_accuracy(rate: float) -> float:
        accs = []
        for seed in range(5):
            d = tmp_path / f"noise_{rate}_{seed}"
            a = d / "assess.jsonl"
            assert main(
                [
                    "gen-synthetic", "--seed", str(seed), "--n", "200",
                    "--out", str(d), "--false-positive-rate", str(rate),
                ]
            ) == 0
            assert main(
                ["assess", "--manifest", str(d / "manifest.json"), "--out", str(a)]
            ) == 0
            finals = [json.loads(line)["final"] for line in a.read_text().splitlines()]
            truth = [
                img["ground_truth_level"]
                for img in json.loads((d / "manifest.json").read_text())["images"]
            ]
            levels = {"zero": 0, "slight": 1, "medium": 2, "heavy": 3}
            accs.append(
                sum(1 for f, t in zip(finals, truth) if levels[f] == t) / len(finals)
            )
        return sum(accs) / len(accs)

    acc_00 = mean_accuracy(0.0)
    acc_01 = mean_accuracy(0.1)
    acc_03 = mean_accuracy(0.3)
    assert acc_00 > acc_01 > acc_03
    assert acc_00 == 1.0

    assert time.perf_counter() - start < 30.0


def test_criterion_7_hybrid_degenerate_gates(tmp_path):
    """Hybrid gate 0 equals meta-only and gate 1.01 equals rule-only,
    record for record, on the full synthetic fixture."""
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--seed", "42", "--n", "200", "--out", str(data)]) == 0
    manifest = str(data / "manifest.json")
    model_path = tmp_path / "gb.json"
    assert main(
        ["train-meta", "--manifest", manifest, "--kind", "gbdt", "--out", str(model_path)]
    ) == 0

    def assess_with(mode_config: dict, name: str) -> list[dict]:
        config_path = tmp_path / f"config_{name}.json"
        config_path.write_text(json.dumps(mode_config))
        out = tmp_path / f"assess_{name}.jsonl"
        assert main(
            [
                "assess", "--manifest", manifest, "--config", str(config_path),
                "--meta-model", str(model_path), "--out", str(out),
            ]
        ) == 0
        return [json.loads(line) for line in out.read_text().splitlines()]

    gate0 = assess_with({"decision_mode": "hybrid", "hybrid_prob_gate": 0.0}, "gate0")
    meta_only = assess_with({"decision_mode": "meta_only"}, "meta")
    gate_hi = assess_with({"decision_mode": "hybrid", "hybrid_prob_gate": 1.01}, "gatehi")
    rule_only = assess_with({"decision_mode": "rule_only"}, "rule")

    assert len(gate0) == 200
    assert gate0 == meta_only
    assert gate_hi == rule_only


def test_criterion_8_external_backend_protocol(stub, tmp_path):
    """One good exchange, one malformed-JSON violation, one timeout."""
    from ruinscore.dataset_io import ImageEntry

    entry = ImageEntry(id="x", image_path="/fake.jpg")
    with ExternalBackend([sys.executable, stub("echo_backend")], timeout_s=10) as backend:
        out = cascade_one(entry, backend)
    assert out.scene.value == "outside"
    assert len(out.damages) == 2

    with ExternalBackend([sys.executable, stub("malformed_backend")], timeout_s=10) as backend:
        [result] = backend.exchange([(entry, ["scene"])])
    assert isinstance(result, ProtocolViolation)

    with ExternalBackend([sys.executable, stub("sleepy_backend")], timeout_s=2.0) as backend:
        [result] = backend.exchange([(entry, ["scene"])])
    assert isinstance(result, Timeout)
    assert result.seconds == 2.0
