"""Every real-valued setting of the library API goes through
`dataset_io.check_real`: a bool or a non-number is a ValueError that names
the setting, where a bool used to count as 0 or 1 and a string raised a bare
TypeError."""

from __future__ import annotations

import numpy as np
import pytest

from ruinscore.dataset_io import check_real
from ruinscore.fusion import FusionConfig, Thresholds, V2Params, Weights
from ruinscore.meta.hyper import GbdtHyper, LogRegHyper
from ruinscore.synth import SynthSpec

def synth_spec(**settings) -> SynthSpec:
    return SynthSpec(1, 2, **settings)


SETTINGS = [
    (LogRegHyper, "learning_rate"),
    (LogRegHyper, "l2"),
    (GbdtHyper, "learning_rate"),
    (GbdtHyper, "lam"),
    (Weights, "w_crack"),
    (Weights, "w_spall"),
    (Weights, "w_rebar"),
    (Thresholds, "t_slight"),
    (Thresholds, "t_medium"),
    (V2Params, "inside_conf_floor"),
    (V2Params, "min_box_area"),
    (V2Params, "rebar_conf_min"),
    (V2Params, "rebar_iou_min"),
    (V2Params, "rebar_containment_min"),
    (V2Params, "component_conf_min"),
    (V2Params, "no_component_score_factor"),
    (FusionConfig, "conf_floor"),
    (FusionConfig, "hybrid_prob_gate"),
    (synth_spec, "false_positive_rate"),
    (synth_spec, "confidence_jitter_sd"),
    (synth_spec, "drop_rate"),
]


@pytest.mark.parametrize("make, name", SETTINGS, ids=[f"{m.__name__}.{n}" for m, n in SETTINGS])
@pytest.mark.parametrize("value", [True, "0.5"])
def test_real_setting_rejects_bools_and_strings(make, name, value):
    make(**{name: 1.0})  # in range for every one of them
    make(**{name: np.float64(1.0)})  # a numpy number constructs too
    with pytest.raises(ValueError) as exc:
        make(**{name: value})
    assert str(exc.value) == f"{name} must be a number"


@pytest.mark.parametrize(
    "value, low, high, above, finite, detail",
    [
        (None, None, None, False, True, "x must be a number"),
        (np.bool_(True), 0, None, False, True, "x must be a number"),
        (-0.5, 0, None, False, True, "x must be >= 0"),
        (0.0, 0, None, True, True, "x must be > 0"),
        (float("nan"), 0, None, False, False, "x must be >= 0"),
        (float("inf"), 0, None, False, True, "x must be finite and >= 0"),
        (float("inf"), 0, None, True, True, "x must be finite and > 0"),
        (1.5, 0, 1, False, True, "x must be in [0, 1]"),
        (float("nan"), 0, 1, False, True, "x must be in [0, 1]"),
        (0.0, 0, 1, True, True, "x must be in (0, 1]"),
    ],
)
def test_check_real_words_its_range(value, low, high, above, finite, detail):
    with pytest.raises(ValueError) as exc:
        check_real(value, "x", low, high, above=above, finite=finite)
    assert str(exc.value) == detail


@pytest.mark.parametrize(
    "value, low, high, above, finite",
    [
        (float("nan"), None, None, False, True),  # no low: the type only
        (np.float32(0.5), 0, None, True, True),
        (float("inf"), 0, None, False, False),
        (0, 0, 1, False, True),
        (1, 0, 1, True, True),
    ],
)
def test_check_real_passes_in_range(value, low, high, above, finite):
    check_real(value, "x", low, high, above=above, finite=finite)
