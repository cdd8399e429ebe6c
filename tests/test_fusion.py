from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from ruinscore.backend import CascadeOutput
from ruinscore.dataset_io import (
    ComponentClass,
    DamageClass,
    DamageLevel,
    Detection,
    SceneClass,
)
from ruinscore.errors import MissingMeta, SchemaViolation
from ruinscore.fusion import (
    DEFAULT_CONFIG,
    TAG_AMBIGUITY_BIAS,
    TAG_CONF_FLOOR,
    TAG_INSIDE_FLOOR,
    TAG_MIN_AREA,
    TAG_REBAR_DEMOTED,
    DecisionMode,
    FusionConfig,
    FusionVersion,
    RuleDecision,
    Thresholds,
    V2Params,
    Weights,
    _filter_with_tags,
    containment_ratio,
    final_decision,
    iou,
    rule_fusion,
    validate_rebar,
    weighted_score,
)

from helpers import config_to_dict, oracle_v1_level, rand_cascade, rand_damage, recompute_score

V2_CONFIG = FusionConfig.from_dict({"version": "v2"})
OUTSIDE = SceneClass.OUTSIDE
INSIDE = SceneClass.INSIDE


def box(cx, cy, w, h):
    """A box as the four numbers a Detection takes."""
    return cx, cy, w, h


def dmg(cls, b, conf):
    return Detection(cls, *b, conf)


def boxed(cx, cy, w, h):
    """A detection that stands for its box alone."""
    return dmg(DamageClass.CRACK, box(cx, cy, w, h), 1.0)


def cascade(damages=(), components=(), scene=OUTSIDE):
    return CascadeOutput("t", scene, 1.0, tuple(components), tuple(damages))


def survivors(damages, scene, config):
    """The damages rule fusion kept through its filters, in input order."""
    return list(rule_fusion(cascade(damages, scene=scene), config).survivors)


class TestIou:
    def test_identity(self):
        b = boxed(0.4, 0.4, 0.2, 0.3)
        assert iou(b, b) == 1.0

    def test_touching_edges_are_disjoint(self):
        a = boxed(0.25, 0.5, 0.5, 0.5)
        b = boxed(0.75, 0.5, 0.5, 0.5)
        assert iou(a, b) == 0.0

    def test_containment_case(self):
        a = boxed(0.5, 0.5, 0.5, 0.5)
        b = boxed(0.5, 0.5, 0.25, 0.25)
        assert iou(a, b) == pytest.approx(0.25)

    def test_containment_ratio(self):
        inner = boxed(0.5, 0.5, 0.2, 0.2)
        outer = boxed(0.5, 0.5, 0.6, 0.6)
        assert containment_ratio(inner, outer) == pytest.approx(1.0)
        assert containment_ratio(outer, inner) == pytest.approx(0.04 / 0.36)


class TestFilterDetections:
    def test_empty(self):
        assert survivors([], OUTSIDE, DEFAULT_CONFIG) == []

    def test_v1_conf_floor(self):
        dets = [
            dmg(DamageClass.CRACK, box(0.5, 0.5, 0.1, 0.1), 0.2),
            dmg(DamageClass.CRACK, box(0.5, 0.5, 0.1, 0.1), 0.3),
        ]
        kept = survivors(dets, OUTSIDE, DEFAULT_CONFIG)
        assert [d.confidence for d in kept] == [0.3]

    def test_v2_inside_floor(self):
        dets = [
            dmg(DamageClass.SPALLING, box(0.5, 0.5, 0.1, 0.1), 0.3),
            dmg(DamageClass.SPALLING, box(0.5, 0.5, 0.1, 0.1), 0.5),
        ]
        kept = survivors(dets, INSIDE, V2_CONFIG)
        assert [d.confidence for d in kept] == [0.5]
        # outside, the base floor applies and both survive
        assert len(survivors(dets, OUTSIDE, V2_CONFIG)) == 2

    def test_v2_min_area(self):
        tiny = dmg(DamageClass.CRACK, box(0.5, 0.5, 0.01, 0.01), 0.9)  # area 1e-4
        big = dmg(DamageClass.CRACK, box(0.5, 0.5, 0.1, 0.1), 0.9)
        assert survivors([tiny, big], OUTSIDE, V2_CONFIG) == [big]
        assert survivors([tiny, big], OUTSIDE, DEFAULT_CONFIG) == [tiny, big]

    def test_order_preserved(self):
        rng = random.Random(5)
        dets = [rand_damage(rng) for _ in range(20)]
        kept = survivors(dets, OUTSIDE, DEFAULT_CONFIG)
        assert kept == [d for d in dets if d.confidence >= 0.25]


class TestValidateRebar:
    def rebar(self, conf=0.9):
        return dmg(DamageClass.EXPOSED_REBAR, box(0.5, 0.5, 0.2, 0.2), conf)

    def test_v1_floor_only(self):
        assert validate_rebar(self.rebar(0.3), [], [], DEFAULT_CONFIG) is True
        assert validate_rebar(self.rebar(0.2), [], [], DEFAULT_CONFIG) is False

    def test_v2_needs_co_evidence(self):
        assert validate_rebar(self.rebar(), [], [], V2_CONFIG) is False

    def test_v2_spall_overlap(self):
        spall = dmg(DamageClass.SPALLING, box(0.55, 0.5, 0.2, 0.2), 0.8)
        assert iou(self.rebar(), spall) >= 0.1
        assert validate_rebar(self.rebar(), [spall], [], V2_CONFIG) is True

    def test_v2_component_containment(self):
        column = dmg(ComponentClass.COLUMN, box(0.5, 0.5, 0.5, 0.9), 0.9)
        assert validate_rebar(self.rebar(), [], [column], V2_CONFIG) is True

    def test_v2_low_conf_fails_despite_evidence(self):
        spall = dmg(DamageClass.SPALLING, box(0.5, 0.5, 0.2, 0.2), 0.8)
        assert validate_rebar(self.rebar(0.4), [spall], [], V2_CONFIG) is False


class TestWeightedScore:
    def test_zero(self):
        assert weighted_score(0, 0, 0, DEFAULT_CONFIG) == 0.0

    def test_hand_arithmetic(self):
        assert weighted_score(2, 1, 0, DEFAULT_CONFIG) == 4.0
        assert weighted_score(0, 0, 1, DEFAULT_CONFIG) == 3.0


class TestRuleFusion:
    def test_no_evidence_is_zero(self):
        decision = rule_fusion(cascade(), DEFAULT_CONFIG)
        assert decision.level is DamageLevel.ZERO
        assert decision.score == 0.0
        assert not decision.rebar_forced

    def test_single_rebar_forces_heavy_v1(self):
        decision = rule_fusion(
            cascade([dmg(DamageClass.EXPOSED_REBAR, box(0.5, 0.5, 0.2, 0.2), 0.9)]),
            DEFAULT_CONFIG,
        )
        assert decision.level is DamageLevel.HEAVY
        assert decision.rebar_forced

    def test_v1_scoring_bands(self):
        two_cracks = [dmg(DamageClass.CRACK, box(0.5, 0.5, 0.1, 0.1), 0.8) for _ in range(2)]
        d = rule_fusion(cascade(two_cracks), DEFAULT_CONFIG)
        assert (d.level, d.score) == (DamageLevel.SLIGHT, 2.0)
        mixed = two_cracks[:1] + [
            dmg(DamageClass.SPALLING, box(0.5, 0.5, 0.1, 0.1), 0.8) for _ in range(2)
        ]
        d = rule_fusion(cascade(mixed), DEFAULT_CONFIG)
        assert (d.level, d.score) == (DamageLevel.MEDIUM, 5.0)

    def test_threshold_boundaries_exact(self):
        one_crack = [dmg(DamageClass.CRACK, box(0.5, 0.5, 0.1, 0.1), 0.8)]
        assert rule_fusion(cascade(one_crack), DEFAULT_CONFIG).level is DamageLevel.SLIGHT
        two_spalls = [dmg(DamageClass.SPALLING, box(0.5, 0.5, 0.1, 0.1), 0.8) for _ in range(2)]
        assert rule_fusion(cascade(two_spalls), DEFAULT_CONFIG).level is DamageLevel.MEDIUM

    def test_demoted_rebar_still_scores(self):
        # v2, lone rebar without co-evidence: no force, w_rebar counts in S
        rebar = dmg(DamageClass.EXPOSED_REBAR, box(0.5, 0.5, 0.2, 0.2), 0.9)
        column = dmg(ComponentClass.COLUMN, box(0.1, 0.1, 0.05, 0.05), 0.9)
        decision = rule_fusion(cascade([rebar], [column]), V2_CONFIG)
        assert not decision.rebar_forced
        assert decision.n_rebar_raw == 1
        assert decision.n_rebar_valid == 0
        assert decision.score == 3.0
        assert decision.level is DamageLevel.SLIGHT
        assert "rebar-demoted" in decision.applied_filters

    def test_v2_ambiguity_bias(self):
        cracks = [dmg(DamageClass.CRACK, box(0.5, 0.5, 0.1, 0.1), 0.8) for _ in range(2)]
        decision = rule_fusion(cascade(cracks), V2_CONFIG)
        assert decision.score == 1.0  # 2.0 halved, no confident component
        assert "ambiguity-bias" in decision.applied_filters
        column = dmg(ComponentClass.COLUMN, box(0.5, 0.5, 0.4, 0.8), 0.9)
        decision = rule_fusion(cascade(cracks, [column]), V2_CONFIG)
        assert decision.score == 2.0
        assert "ambiguity-bias" not in decision.applied_filters

    def test_score_recomputes_from_counts(self):
        rng = random.Random(11)
        for config in (DEFAULT_CONFIG, V2_CONFIG):
            for _ in range(200):
                decision = rule_fusion(rand_cascade(rng), config)
                assert recompute_score(decision, config) == decision.score

    @pytest.mark.parametrize("level", [DamageLevel.ZERO, DamageLevel.SLIGHT, DamageLevel.MEDIUM])
    def test_decision_rejects_rebar_forced_below_heavy(self, level):
        with pytest.raises(ValueError, match="rebar_forced implies level HEAVY"):
            RuleDecision(level, 0.0, rebar_forced=True)
        assert RuleDecision(DamageLevel.HEAVY, 0.0, rebar_forced=True).rebar_forced

    def test_decision_rejects_negative_score(self):
        with pytest.raises(ValueError, match="score must be >= 0"):
            RuleDecision(DamageLevel.ZERO, -0.5)
        # the rebar invariant is checked first
        with pytest.raises(ValueError, match="rebar_forced implies level HEAVY"):
            RuleDecision(DamageLevel.ZERO, -0.5, rebar_forced=True)
        assert RuleDecision(DamageLevel.ZERO, 0.0).score == 0.0


class TestOracleEquivalence:
    def test_all_count_vectors_up_to_5(self):
        """Brute-force piecewise oracle over all 216 count vectors."""
        checked = 0
        for n_crack, n_spall, n_rebar in itertools.product(range(6), repeat=3):
            damages = (
                [dmg(DamageClass.CRACK, box(0.3, 0.3, 0.1, 0.1), 0.8)] * n_crack
                + [dmg(DamageClass.SPALLING, box(0.6, 0.6, 0.1, 0.1), 0.8)] * n_spall
                + [dmg(DamageClass.EXPOSED_REBAR, box(0.5, 0.5, 0.1, 0.1), 0.8)] * n_rebar
            )
            decision = rule_fusion(cascade(damages), DEFAULT_CONFIG)
            expect_level, expect_score = oracle_v1_level(n_crack, n_spall, n_rebar)
            assert decision.level is expect_level, (n_crack, n_spall, n_rebar)
            if not decision.rebar_forced:
                assert decision.score == expect_score
            checked += 1
        assert checked == 216


class TestFinalDecision:
    def rule(self, level, forced=False):
        return RuleDecision(level=level, score=0.0, rebar_forced=forced)

    def test_rule_only_passthrough(self):
        assert (
            final_decision(self.rule(DamageLevel.MEDIUM), None, DEFAULT_CONFIG)
            is DamageLevel.MEDIUM
        )

    def test_meta_only_requires_probs(self):
        config = FusionConfig.from_dict({"decision_mode": "meta_only"})
        with pytest.raises(MissingMeta):
            final_decision(self.rule(DamageLevel.ZERO), None, config)

    def test_meta_only_tie_breaks_to_higher_severity(self):
        config = FusionConfig.from_dict({"decision_mode": "meta_only"})
        level = final_decision(self.rule(DamageLevel.ZERO), (0.4, 0.4, 0.1, 0.1), config)
        assert level is DamageLevel.SLIGHT

    def test_hybrid_gate_satisfied(self):
        config = FusionConfig.from_dict({"decision_mode": "hybrid", "hybrid_prob_gate": 0.6})
        level = final_decision(self.rule(DamageLevel.SLIGHT), (0.1, 0.1, 0.7, 0.1), config)
        assert level is DamageLevel.MEDIUM

    def test_hybrid_gate_not_met_keeps_rule(self):
        config = FusionConfig.from_dict({"decision_mode": "hybrid", "hybrid_prob_gate": 0.6})
        level = final_decision(self.rule(DamageLevel.SLIGHT), (0.3, 0.3, 0.25, 0.15), config)
        assert level is DamageLevel.SLIGHT

    def test_hybrid_never_overrides_forced_heavy_downward(self):
        config = FusionConfig.from_dict({"decision_mode": "hybrid", "hybrid_prob_gate": 0.6})
        rule = self.rule(DamageLevel.HEAVY, forced=True)
        assert final_decision(rule, (0.7, 0.1, 0.1, 0.1), config) is DamageLevel.HEAVY

    def test_degenerate_gates(self):
        rng = random.Random(3)
        gate0 = FusionConfig.from_dict({"decision_mode": "hybrid", "hybrid_prob_gate": 0.0})
        gate_hi = FusionConfig.from_dict({"decision_mode": "hybrid", "hybrid_prob_gate": 1.01})
        meta_only = FusionConfig.from_dict({"decision_mode": "meta_only"})
        for _ in range(300):
            raw = [rng.random() for _ in range(4)]
            probs = tuple(v / sum(raw) for v in raw)
            level = DamageLevel(rng.randint(0, 3))
            rule = self.rule(level, forced=False)
            assert final_decision(rule, probs, gate0) == final_decision(rule, probs, meta_only)
            assert final_decision(rule, probs, gate_hi) == level


class TestFusionConfigIo:
    def test_defaults_round_trip(self):
        assert FusionConfig.from_dict(config_to_dict(DEFAULT_CONFIG)) == DEFAULT_CONFIG
        # a config with every field changed keeps the field-derived keys complete
        config = FusionConfig(
            version=FusionVersion.V2,
            weights=Weights(w_crack=1.5, w_spall=2.5, w_rebar=3.5),
            thresholds=Thresholds(t_slight=0.5, t_medium=6.0),
            conf_floor=0.3,
            v2=V2Params(
                inside_conf_floor=0.45,
                min_box_area=0.001,
                rebar_conf_min=0.55,
                rebar_iou_min=0.15,
                rebar_containment_min=0.6,
                component_conf_min=0.35,
                no_component_score_factor=0.75,
            ),
            decision_mode=DecisionMode.HYBRID,
            hybrid_prob_gate=0.7,
        )
        raw = config_to_dict(config)
        assert FusionConfig.from_dict(raw) == config
        # every field, nested ones included, differs from its default
        defaults = config_to_dict(DEFAULT_CONFIG)
        for key, value in raw.items():
            if isinstance(value, dict):
                assert all(value[k] != defaults[key][k] for k in value), key
            else:
                assert value != defaults[key], key

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaViolation):
            FusionConfig.from_dict({"no_such_knob": 1})
        with pytest.raises(SchemaViolation):
            FusionConfig.from_dict({"weights": {"w_bogus": 1}})

    def test_absent_keys_keep_defaults(self):
        config = FusionConfig.from_dict({"conf_floor": 0.1})
        assert config.conf_floor == 0.1
        assert config.weights == DEFAULT_CONFIG.weights

    def test_invariants_enforced(self):
        # a range error is reported at its section or top-level key
        out_of_range = [
            ({"thresholds": {"t_slight": 5.0, "t_medium": 1.0}}, "thresholds",
             "thresholds must satisfy 0 <= t_slight <= t_medium"),
            ({"weights": {"w_crack": -1.0}}, "weights", "w_crack must be >= 0"),
            ({"v2": {"min_box_area": -1.0}}, "v2", "min_box_area must be >= 0"),
            ({"conf_floor": 2.0}, "conf_floor", "conf_floor must be in [0, 1]"),
            ({"hybrid_prob_gate": -0.5}, "hybrid_prob_gate", "hybrid_prob_gate must be >= 0"),
        ]
        for raw, field, detail in out_of_range:
            with pytest.raises(SchemaViolation) as exc:
                FusionConfig.from_dict(raw)
            assert exc.value.field == field
            assert str(exc.value) == f"schema violation at {field}: {detail}"
        non_finite = [
            {"weights": {"w_crack": float("nan")}},
            {"weights": {"w_spall": float("inf")}},
            {"thresholds": {"t_medium": float("inf")}},
            {"v2": {"min_box_area": float("nan")}},
            {"conf_floor": float("nan")},
            {"hybrid_prob_gate": float("inf")},
            {"hybrid_prob_gate": float("-inf")},
        ]
        for raw in non_finite:
            with pytest.raises(SchemaViolation, match="must be finite"):
                FusionConfig.from_dict(raw)
        # a finite gate above 1 still disables the hybrid override
        assert FusionConfig.from_dict({"hybrid_prob_gate": 1.01}).hybrid_prob_gate == 1.01

    @pytest.mark.parametrize(
        "make, detail",
        [
            (lambda: Weights(w_crack=float("nan")), "w_crack must be >= 0"),
            (lambda: Weights(w_spall=float("inf")), "w_spall must be finite and >= 0"),
            (lambda: Weights(w_rebar=-1.0), "w_rebar must be >= 0"),
            (lambda: V2Params(min_box_area=float("nan")), "min_box_area must be >= 0"),
            (lambda: FusionConfig(hybrid_prob_gate=float("nan")),
             "hybrid_prob_gate must be >= 0"),
        ],
    )
    def test_settings_built_in_code_reject_nan(self, make, detail):
        # the JSON path's number check never lets these through; a caller
        # building the settings directly meets the dataclasses' own checks
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == detail

    @pytest.mark.parametrize(
        "make, detail",
        [
            (lambda: FusionConfig(version="v2"), "version must be a FusionVersion, not 'v2'"),
            (lambda: FusionConfig(version="v1"), "version must be a FusionVersion, not 'v1'"),
            (lambda: replace(FusionConfig(), version="v1"),
             "version must be a FusionVersion, not 'v1'"),
            (lambda: FusionConfig(decision_mode="hybrid"),
             "decision_mode must be a DecisionMode, not 'hybrid'"),
        ],
        ids=["version-v2", "version-v1", "replace-version-v1", "decision_mode-hybrid"],
    )
    def test_enum_fields_take_only_their_members(self, make, detail):
        # a string would pass some of fusion's `is` tests of the enum and fail
        # others, grading with v1 filters and v2 rebar validation at once
        with pytest.raises(ValueError) as exc:
            make()
        assert str(exc.value) == detail


# quantified properties over generated evidence


@st.composite
def cascades(draw):
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return rand_cascade(rng)


@settings(max_examples=150, deadline=None)
@given(cascades(), st.sampled_from([DEFAULT_CONFIG, V2_CONFIG]))
def test_property_rebar_dominance(out, config):
    filtered = _filter_with_tags(out.damages, out.scene, config)[0]
    spalls = [d for d in filtered if d.cls is DamageClass.SPALLING]
    has_valid_rebar = any(
        d.cls is DamageClass.EXPOSED_REBAR
        and validate_rebar(d, spalls, out.components, config)
        for d in filtered
    )
    decision = rule_fusion(out, config)
    if has_valid_rebar:
        assert decision.level is DamageLevel.HEAVY
        assert decision.rebar_forced


@settings(max_examples=150, deadline=None)
@given(cascades(), st.sampled_from([DEFAULT_CONFIG, V2_CONFIG]), st.integers(0, 2**32 - 1))
def test_property_monotone_under_added_detection(out, config, seed):
    rng = random.Random(seed)
    added = rand_damage(rng)
    before = rule_fusion(out, config).level
    grown = CascadeOutput(
        out.image_id, out.scene, out.scene_confidence, out.components, out.damages + (added,)
    )
    after = rule_fusion(grown, config).level
    assert after >= before


# rule_fusion as it was written before it became one pass per image: a filter
# loop, one list comprehension per class, and an any() over the components


def _multi_pass_filter(damages, scene, config):
    floor = config.conf_floor
    inside_v2 = config.version is FusionVersion.V2 and scene is SceneClass.INSIDE
    if inside_v2:
        floor = max(floor, config.v2.inside_conf_floor)
    kept, tags = [], []
    for det in damages:
        if det.confidence < floor:
            tag = (
                TAG_INSIDE_FLOOR
                if inside_v2 and det.confidence >= config.conf_floor
                else TAG_CONF_FLOOR
            )
            if tag not in tags:
                tags.append(tag)
            continue
        if config.version is FusionVersion.V2 and det.area() < config.v2.min_box_area:
            if TAG_MIN_AREA not in tags:
                tags.append(TAG_MIN_AREA)
            continue
        kept.append(det)
    return kept, tags


def _multi_pass_rule_fusion(out, config):
    filtered, tags = _multi_pass_filter(out.damages, out.scene, config)
    cracks = [d for d in filtered if d.cls is DamageClass.CRACK]
    spalls = [d for d in filtered if d.cls is DamageClass.SPALLING]
    rebars = [d for d in filtered if d.cls is DamageClass.EXPOSED_REBAR]
    valid_rebars = [r for r in rebars if validate_rebar(r, spalls, out.components, config)]
    if rebars and len(valid_rebars) < len(rebars):
        tags.append(TAG_REBAR_DEMOTED)
    score = weighted_score(len(cracks), len(spalls), len(rebars) - len(valid_rebars), config)
    if valid_rebars:
        level = DamageLevel.HEAVY
    else:
        if config.version is FusionVersion.V2 and not any(
            c.confidence >= config.v2.component_conf_min for c in out.components
        ):
            score *= config.v2.no_component_score_factor
            tags.append(TAG_AMBIGUITY_BIAS)
        if score < config.thresholds.t_slight:
            level = DamageLevel.ZERO
        elif score < config.thresholds.t_medium:
            level = DamageLevel.SLIGHT
        else:
            level = DamageLevel.MEDIUM
    return RuleDecision(
        level=level,
        score=score,
        n_crack=len(cracks),
        n_spall=len(spalls),
        n_rebar_raw=len(rebars),
        n_rebar_valid=len(valid_rebars),
        rebar_forced=bool(valid_rebars),
        applied_filters=tuple(tags),
        survivors=tuple(filtered),
    )


# v2 with a box-area floor the generated boxes straddle, a stricter component
# floor and weights whose sums round, beside the two default versions
STRICT_V2_CONFIG = FusionConfig.from_dict({
    "version": "v2",
    "weights": {"w_crack": 0.7, "w_spall": 1.3, "w_rebar": 2.9},
    "v2": {"min_box_area": 0.01, "component_conf_min": 0.6, "no_component_score_factor": 0.3},
})


@settings(max_examples=300, deadline=None)
@given(
    cascades(),
    st.sampled_from([DEFAULT_CONFIG, V2_CONFIG, STRICT_V2_CONFIG]),
    st.sampled_from([INSIDE, OUTSIDE]),
    st.booleans(),
)
def test_property_one_pass_equals_multi_pass(out, config, scene, with_components):
    out = CascadeOutput(
        out.image_id, scene, 1.0, out.components if with_components else (), out.damages
    )
    one_pass = rule_fusion(out, config)
    # whole decisions: level, score, counts, tags in order and survivors
    assert one_pass == _multi_pass_rule_fusion(out, config)
    assert type(one_pass.rebar_forced) is bool


def test_every_damage_class_is_a_crack_a_spall_or_a_rebar():
    # rule_fusion counts as cracks the survivors that are neither spalls nor
    # rebars; a new DamageClass member must be given its own count there first
    assert list(DamageClass) == [
        DamageClass.CRACK, DamageClass.SPALLING, DamageClass.EXPOSED_REBAR
    ]
