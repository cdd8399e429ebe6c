from __future__ import annotations

import random

import numpy as np
import pytest

from ruinscore.backend import CascadeOutput, FileBackend
from ruinscore.dataset_io import (
    ComponentClass,
    DamageClass,
    Detection,
    SceneClass,
)
from ruinscore.fusion import DEFAULT_CONFIG, FusionConfig, rule_fusion
from ruinscore.meta import FEATURE_DIM, FEATURE_NAMES, extract_features
from ruinscore.synth import SynthSpec, gen_synthetic

from helpers import rand_cascade, recompute_score

INSIDE = SceneClass.INSIDE
OUTSIDE = SceneClass.OUTSIDE
_DAMAGE = (DamageClass.CRACK, DamageClass.SPALLING, DamageClass.EXPOSED_REBAR)
_COMPONENTS = (ComponentClass.BEAM, ComponentClass.COLUMN, ComponentClass.WALL)


def features_for(out, config=DEFAULT_CONFIG):
    rule = rule_fusion(out, config)
    return extract_features(out, rule), rule


def test_layout_names_match_dim():
    assert len(FEATURE_NAMES) == FEATURE_DIM == 18


def test_empty_output_all_zero_except_scene_and_level():
    out = CascadeOutput("x", INSIDE, 1.0, (), ())
    x, _ = features_for(out)
    expected = np.zeros(18)
    expected[11] = 1.0
    assert np.array_equal(x, expected)


def test_hand_assembled_example():
    cracks = (
        Detection(DamageClass.CRACK, 0.3, 0.3, 0.1, 0.1, 0.8),
        Detection(DamageClass.CRACK, 0.6, 0.6, 0.2, 0.1, 0.6),
    )
    column = Detection(ComponentClass.COLUMN, 0.5, 0.5, 0.4, 0.8, 0.9)
    out = CascadeOutput("x", INSIDE, 1.0, (column,), cracks)
    x, rule = features_for(out)
    assert rule.level.value == 1 and rule.score == 2.0
    assert x[0] == 2 and x[1] == 0 and x[2] == 0 and x[3] == 0
    assert x[4] == pytest.approx(1.4)
    assert x[7] == 0.8
    assert x[10] == pytest.approx(0.1 * 0.1 + 0.2 * 0.1)
    assert x[11] == 1.0
    assert (x[12], x[13], x[14]) == (0.0, 1.0, 0.0)
    assert x[15] == 1.0
    assert x[16] == 2.0
    assert x[17] == pytest.approx(1.0 / 3.0)


def test_area_clamped_to_one():
    big = tuple(
        Detection(DamageClass.SPALLING, 0.5, 0.5, 0.9, 0.9, 0.9)
        for _ in range(2)
    )
    out = CascadeOutput("x", OUTSIDE, 1.0, (), big)
    x, _ = features_for(out)
    assert x[10] == 1.0


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, FusionConfig.from_dict({"version": "v2"})])
def test_consistency_with_rule_decision(config):
    rng = random.Random(77)
    for _ in range(200):
        out = rand_cascade(rng)
        rule = rule_fusion(out, config)
        x = extract_features(out, rule)
        assert x[0] == rule.n_crack
        assert x[1] == rule.n_spall
        assert x[2] == rule.n_rebar_raw
        assert x[3] == rule.n_rebar_valid
        assert x[16] == rule.score == recompute_score(rule, config)
        assert x[17] == rule.level.value / 3.0
        assert np.isfinite(x).all()


def numpy_features(out, rule):
    """The float64 assembly extract_features replaced, kept as its oracle."""
    x = np.zeros(FEATURE_DIM, dtype=np.float64)
    x[0] = rule.n_crack
    x[1] = rule.n_spall
    x[2] = rule.n_rebar_raw
    x[3] = rule.n_rebar_valid
    area = 0.0
    for det in rule.survivors:
        slot = _DAMAGE.index(det.cls)
        x[4 + slot] += det.confidence
        if det.confidence > x[7 + slot]:
            x[7 + slot] = det.confidence
        area += det.area()
    x[10] = min(area, 1.0)
    x[11] = 1.0 if out.scene is INSIDE else 0.0
    for comp in out.components:
        x[12 + _COMPONENTS.index(comp.cls)] = 1.0
    x[15] = len(out.components)
    x[16] = rule.score
    x[17] = rule.level.value / 3.0
    return x


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, FusionConfig.from_dict({"version": "v2"})])
def test_rows_are_python_floats_equal_to_the_numpy_rows(config, tmp_path):
    spec = SynthSpec(seed=7, n_images=300, false_positive_rate=0.2,
                     confidence_jitter_sd=0.1, drop_rate=0.1)
    manifest = gen_synthetic(spec, tmp_path / "d")
    outs = list(FileBackend(manifest).cascade_chunk(manifest.images))
    # a Detection built in code may hold an integer confidence
    ints = tuple(Detection(cls, 0.5, 0.5, 0.2, 0.2, c) for cls in _DAMAGE for c in (0, 1))
    outs.append(CascadeOutput("ints", OUTSIDE, 1, (), ints))
    rows, oracle = [], []
    for out in outs:
        rule = rule_fusion(out, config)
        row = extract_features(out, rule)
        assert type(row) is list and len(row) == FEATURE_DIM
        assert all(type(v) is float for v in row)
        rows.append(row)
        oracle.append(numpy_features(out, rule))
    assert np.asarray(rows).tobytes() == np.stack(oracle).tobytes()
    assert (np.asarray(rows[:-1]) != 0.0).any(axis=0).all()  # the corpus sets every feature
