from __future__ import annotations

import random

import numpy as np
import pytest

from ruinscore.backend import CascadeOutput
from ruinscore.dataset_io import (
    ComponentClass,
    DamageClass,
    Detection,
    SceneClass,
)
from ruinscore.fusion import DEFAULT_CONFIG, FusionConfig, recompute_score, rule_fusion
from ruinscore.meta import FEATURE_DIM, FEATURE_NAMES, extract_features

from helpers import rand_cascade

INSIDE = SceneClass.INSIDE
OUTSIDE = SceneClass.OUTSIDE


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
