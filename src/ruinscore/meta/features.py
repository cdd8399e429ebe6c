"""Fixed 18-entry feature vector fed to the meta-models.

Layout version "v1"; model files record it and loading rejects mismatches.
Counts and the score are taken from the rule decision so features stay
consistent with the explanation the rule stage already produced; sums, maxima
and areas are taken over the detections its filters kept (`rule.survivors`).
"""

from __future__ import annotations

from ..backend import CascadeOutput
from ..dataset_io import ComponentClass, DamageClass, SceneClass
from ..fusion import RuleDecision

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
FEATURE_DIM = len(FEATURE_NAMES)

_DAMAGE_ORDER = (DamageClass.CRACK, DamageClass.SPALLING, DamageClass.EXPOSED_REBAR)
_COMPONENT_ORDER = (ComponentClass.BEAM, ComponentClass.COLUMN, ComponentClass.WALL)


def extract_features(out: CascadeOutput, rule: RuleDecision) -> list[float]:
    """The feature vector for one image from its rule decision: FEATURE_DIM
    Python floats in FEATURE_NAMES order."""
    sums = [0.0, 0.0, 0.0]
    peaks = [0.0, 0.0, 0.0]
    area = 0.0
    for det in rule.survivors:
        slot = _DAMAGE_ORDER.index(det.cls)
        conf = float(det.confidence)
        sums[slot] += conf
        if conf > peaks[slot]:
            peaks[slot] = conf
        area += det.area()
    has = [0.0, 0.0, 0.0]
    for comp in out.components:
        has[_COMPONENT_ORDER.index(comp.cls)] = 1.0
    return [
        float(rule.n_crack),
        float(rule.n_spall),
        float(rule.n_rebar_raw),
        float(rule.n_rebar_valid),
        *sums,
        *peaks,
        min(area, 1.0),
        1.0 if out.scene is SceneClass.INSIDE else 0.0,
        *has,
        float(len(out.components)),
        float(rule.score),
        rule.level.value / 3.0,
    ]
