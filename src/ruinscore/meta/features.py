"""Fixed 18-entry feature vector fed to the meta-models.

Layout version "v1"; model files record it and loading rejects mismatches.
Counts and the score are taken from the rule decision so features stay
consistent with the explanation the rule stage already produced; sums, maxima
and areas are taken over the detections its filters kept (`rule.survivors`).
"""

from __future__ import annotations

import numpy as np

from ..backend import CascadeOutput
from ..dataset_io import ComponentClass, DamageClass, SceneClass
from ..fusion import RuleDecision

FEATURE_DIM = 18
FEATURE_LAYOUT = "v1"

FEATURE_NAMES = (
    "n_crack",
    "n_spall",
    "n_rebar_raw",
    "n_rebar_valid",
    "conf_sum_crack",
    "conf_sum_spall",
    "conf_sum_rebar",
    "conf_max_crack",
    "conf_max_spall",
    "conf_max_rebar",
    "damage_area_fraction",
    "scene_inside",
    "has_beam",
    "has_column",
    "has_wall",
    "n_components",
    "rule_score",
    "rule_level_scaled",
)

_DAMAGE_ORDER = (DamageClass.CRACK, DamageClass.SPALLING, DamageClass.EXPOSED_REBAR)
_COMPONENT_ORDER = (ComponentClass.BEAM, ComponentClass.COLUMN, ComponentClass.WALL)


def extract_features(out: CascadeOutput, rule: RuleDecision) -> np.ndarray:
    """Assemble the feature vector for one image from its rule decision."""
    x = np.zeros(FEATURE_DIM, dtype=np.float64)
    x[0] = rule.counts.n_crack
    x[1] = rule.counts.n_spall
    x[2] = rule.counts.n_rebar_raw
    x[3] = rule.counts.n_rebar_valid

    area = 0.0
    for det in rule.survivors:
        slot = _DAMAGE_ORDER.index(det.cls)
        x[4 + slot] += det.confidence
        if det.confidence > x[7 + slot]:
            x[7 + slot] = det.confidence
        area += det.box.area()
    x[10] = min(area, 1.0)

    x[11] = 1.0 if out.scene.cls is SceneClass.INSIDE else 0.0
    for comp in out.components:
        x[12 + _COMPONENT_ORDER.index(comp.cls)] = 1.0
    x[15] = len(out.components)
    x[16] = rule.score
    x[17] = rule.level.value / 3.0
    return x
