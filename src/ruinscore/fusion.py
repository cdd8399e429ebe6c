"""Rule-based damage grading (v1 and v2) and the final decision combinator.

v1 drops low-confidence detections, forces HEAVY on any surviving exposed
rebar, and otherwise thresholds a weighted count score. v2 adds scene-aware
confidence floors, a minimum box area, rebar co-evidence validation, and a
score discount when no structural component was seen with confidence.

All functions here are pure; the config carries every weight, threshold and
toggle, serialized as a strict JSON file whose objects and numbers
`dataset_io.check_object` and `check_number` check (unknown keys rejected).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from typing import Sequence

from .dataset_io import (
    DamageClass,
    DamageLevel,
    Detection,
    SceneClass,
    check_number,
    check_object,
    check_real,
    slot_setters,
)
from .errors import MissingMeta, SchemaViolation

# filter tags recorded on RuleDecision.applied_filters
TAG_CONF_FLOOR = "conf-floor"
TAG_INSIDE_FLOOR = "inside-conf-floor"
TAG_MIN_AREA = "min-box-area"
TAG_REBAR_DEMOTED = "rebar-demoted"
TAG_AMBIGUITY_BIAS = "ambiguity-bias"


class FusionVersion(Enum):
    V1 = "v1"
    V2 = "v2"


class DecisionMode(Enum):
    RULE_ONLY = "rule_only"
    META_ONLY = "meta_only"
    HYBRID = "hybrid"


@dataclass(frozen=True)
class Weights:
    """Score contribution per surviving detection of each damage class."""

    w_crack: float = 1.0
    w_spall: float = 2.0
    w_rebar: float = 3.0

    def __post_init__(self) -> None:
        for f in fields(self):
            check_real(getattr(self, f.name), f.name, 0)


@dataclass(frozen=True)
class Thresholds:
    """Score cut points: ZERO below t_slight, MEDIUM at or above t_medium."""

    t_slight: float = 1.0
    t_medium: float = 4.0

    def __post_init__(self) -> None:
        check_real(self.t_slight, "t_slight")
        check_real(self.t_medium, "t_medium")
        if not 0 <= self.t_slight <= self.t_medium:
            raise ValueError("thresholds must satisfy 0 <= t_slight <= t_medium")


@dataclass(frozen=True)
class V2Params:
    """The v2 rule's scene floor, box area, rebar co-evidence and component knobs."""

    inside_conf_floor: float = 0.40
    min_box_area: float = 0.0004
    rebar_conf_min: float = 0.5
    rebar_iou_min: float = 0.1
    rebar_containment_min: float = 0.5
    component_conf_min: float = 0.3
    no_component_score_factor: float = 0.5

    def __post_init__(self) -> None:
        for name in (
            "inside_conf_floor",
            "rebar_conf_min",
            "rebar_iou_min",
            "rebar_containment_min",
            "component_conf_min",
        ):
            check_real(getattr(self, name), name, 0, 1)
        check_real(self.min_box_area, "min_box_area", 0, finite=False)  # inf, like 2, keeps no box
        check_real(self.no_component_score_factor, "no_component_score_factor", 0, 1, above=True)


@dataclass(frozen=True)
class FusionConfig:
    """Every weight, threshold and toggle of rule fusion and the final decision."""

    version: FusionVersion = FusionVersion.V1
    weights: Weights = Weights()
    thresholds: Thresholds = Thresholds()
    conf_floor: float = 0.25
    v2: V2Params = V2Params()
    decision_mode: DecisionMode = DecisionMode.RULE_ONLY
    # meta probabilities override the rule level only at or above this gate;
    # a gate above 1 disables the override entirely
    hybrid_prob_gate: float = 0.6

    def __post_init__(self) -> None:
        # a plain string would pass some `is` tests of the enum and fail others
        if not isinstance(self.version, FusionVersion):
            raise ValueError(f"version must be a FusionVersion, not {self.version!r}")
        if not isinstance(self.decision_mode, DecisionMode):
            raise ValueError(f"decision_mode must be a DecisionMode, not {self.decision_mode!r}")
        check_real(self.conf_floor, "conf_floor", 0, 1)
        check_real(self.hybrid_prob_gate, "hybrid_prob_gate", 0, finite=False)

    @staticmethod
    def from_dict(raw: dict) -> "FusionConfig":
        """Build a config from a JSON object; absent keys keep their defaults,
        unknown keys raise SchemaViolation."""
        check_object(raw, {f.name for f in fields(FusionConfig)}, what="config must be an object")
        # enums first, then sections, then scalars: the order errors are reported in
        order = sorted(
            fields(FusionConfig),
            key=lambda f: (not isinstance(f.default, Enum), not is_dataclass(f.default)),
        )
        # each key is set on its own, so a range error is reported at that key
        config = FusionConfig()
        for f in order:
            if f.name not in raw:
                continue
            try:
                value = _parse_field(f.name, f.default, raw[f.name])
                config = replace(config, **{f.name: value})
            except ValueError as exc:
                raise SchemaViolation(f.name, str(exc)) from None
        return config


def _parse_field(name: str, default, value):
    """One top-level config value, typed after the field's default."""
    if isinstance(default, Enum):
        try:
            return type(default)(value)
        except ValueError:
            names = [repr(m.value) for m in type(default)]
            raise SchemaViolation(
                name, f"must be {', '.join(names[:-1])} or {names[-1]}"
            ) from None
    if is_dataclass(default):
        check_object(value, {f.name for f in fields(default)}, name)
        for key, v in value.items():
            check_number(v, f"{name}.{key}")
        return type(default)(**{key: float(v) for key, v in value.items()})
    check_number(value, name)
    return float(value)


@dataclass(frozen=True, slots=True, init=False)
class RuleDecision:
    """Rule outcome plus its own explanation.

    The counts are of the detections the filters kept, rebar split into raw
    and validated. `score` always equals
    weighted_score(n_crack, n_spall, n_rebar_raw - n_rebar_valid) times the
    no-component factor when (and only when) the "ambiguity-bias" tag is
    present, so the decision can be audited from its counts alone.
    `survivors` are the damage detections the filters kept, in input order:
    the meta features are taken over them, and no record writes them.
    """

    level: DamageLevel
    score: float
    n_crack: int = 0
    n_spall: int = 0
    n_rebar_raw: int = 0
    n_rebar_valid: int = 0
    rebar_forced: bool = False
    applied_filters: tuple[str, ...] = ()
    survivors: tuple[Detection, ...] = ()

    def __init__(
        self,
        level: DamageLevel,
        score: float,
        n_crack: int = 0,
        n_spall: int = 0,
        n_rebar_raw: int = 0,
        n_rebar_valid: int = 0,
        rebar_forced: bool = False,
        applied_filters: tuple[str, ...] = (),
        survivors: tuple[Detection, ...] = (),
    ) -> None:
        if rebar_forced and level is not DamageLevel.HEAVY:
            raise ValueError("rebar_forced implies level HEAVY")
        if score < 0:
            raise ValueError("score must be >= 0")
        (set_level, set_score, set_crack, set_spall, set_rebar_raw, set_rebar_valid,
         set_forced, set_filters, set_survivors) = _DECISION_SETTERS
        set_level(self, level)
        set_score(self, score)
        set_crack(self, n_crack)
        set_spall(self, n_spall)
        set_rebar_raw(self, n_rebar_raw)
        set_rebar_valid(self, n_rebar_valid)
        set_forced(self, rebar_forced)
        set_filters(self, applied_filters)
        set_survivors(self, survivors)


_DECISION_SETTERS = slot_setters(RuleDecision)


def _intersection(a: Detection, b: Detection) -> float:
    """The area two boxes share; 0.0 for disjoint or edge-touching boxes."""
    ax0, ay0, ax1, ay1 = a.corners()
    bx0, by0, bx1, by1 = b.corners()
    iw = min(ax1, bx1) - max(ax0, bx0)
    ih = min(ay1, by1) - max(ay0, by0)
    return iw * ih if iw > 0.0 and ih > 0.0 else 0.0


def iou(a: Detection, b: Detection) -> float:
    """Intersection over union of two boxes; 0.0 for disjoint or edge-touching boxes."""
    inter = _intersection(a, b)
    return inter / (a.area() + b.area() - inter) if inter else 0.0


def containment_ratio(inner: Detection, outer: Detection) -> float:
    """Intersection area over the inner box's own area (1.0 when fully contained)."""
    inter = _intersection(inner, outer)
    return inter / inner.area() if inter else 0.0


def _filter_with_tags(
    damages: Sequence[Detection],
    scene: SceneClass,
    config: FusionConfig,
) -> tuple[list[Detection], list[Detection], list[Detection], list[str]]:
    """The survivors, their spalls and their rebars (each in input order), and
    the filter tags in the order they first applied. Every survivor that is
    neither a spall nor a rebar is a crack: DamageClass has these three members
    (test_every_damage_class_is_a_crack_a_spall_or_a_rebar)."""
    floor = config.conf_floor
    v2 = config.version is FusionVersion.V2
    inside_v2 = v2 and scene is SceneClass.INSIDE
    if inside_v2:
        floor = max(floor, config.v2.inside_conf_floor)
    min_area = config.v2.min_box_area
    kept: list[Detection] = []
    spalls: list[Detection] = []
    rebars: list[Detection] = []
    tags: list[str] = []
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
        if v2 and det.area() < min_area:
            if TAG_MIN_AREA not in tags:
                tags.append(TAG_MIN_AREA)
            continue
        kept.append(det)
        # `is` tests: a dict keyed by the enum would hash it in Python per detection
        cls = det.cls
        if cls is DamageClass.SPALLING:
            spalls.append(det)
        elif cls is DamageClass.EXPOSED_REBAR:
            rebars.append(det)
    return kept, spalls, rebars, tags


def validate_rebar(
    rebar: Detection,
    spalls: Sequence[Detection],
    components: Sequence[Detection],
    config: FusionConfig,
) -> bool:
    """Decide whether an exposed-rebar detection is trustworthy.

    v1 only checks the confidence floor. v2 additionally demands co-evidence:
    an overlapping spall (exposed bars physically follow cover spalling) or a
    structural component containing most of the rebar box.
    """
    if rebar.cls is not DamageClass.EXPOSED_REBAR:
        raise ValueError("validate_rebar expects an EXPOSED_REBAR detection")
    if config.version is FusionVersion.V1:
        return rebar.confidence >= config.conf_floor
    if rebar.confidence < config.v2.rebar_conf_min:
        return False
    for spall in spalls:
        if iou(rebar, spall) >= config.v2.rebar_iou_min:
            return True
    for comp in components:
        if containment_ratio(rebar, comp) >= config.v2.rebar_containment_min:
            return True
    return False


def weighted_score(
    n_crack: int, n_spall: int, n_rebar_unvalidated: int, config: FusionConfig
) -> float:
    """Weighted count score over surviving detections.

    Only unvalidated rebar is counted here; validated rebar never reaches
    scoring because it forces HEAVY outright.
    """
    w = config.weights
    return (
        w.w_crack * n_crack + w.w_spall * n_spall + w.w_rebar * n_rebar_unvalidated
    )


def rule_fusion(out, config: FusionConfig) -> RuleDecision:
    """Assign a damage level to one image's cascade output.

    Order of operations: filter detections, force HEAVY if any surviving
    rebar validates, otherwise score the survivors (demoted rebar still
    counts), apply the v2 no-component discount, and threshold.
    """
    kept, spalls, rebars, tags = _filter_with_tags(out.damages, out.scene, config)
    n_spall = len(spalls)
    n_rebar = len(rebars)
    n_crack = len(kept) - n_spall - n_rebar
    components = out.components
    n_valid = 0
    for rebar in rebars:
        if validate_rebar(rebar, spalls, components, config):
            n_valid += 1
    if n_valid < n_rebar:
        tags.append(TAG_REBAR_DEMOTED)

    score = weighted_score(n_crack, n_spall, n_rebar - n_valid, config)

    if n_valid:
        level = DamageLevel.HEAVY
    else:
        if config.version is FusionVersion.V2:
            component_floor = config.v2.component_conf_min
            for comp in components:
                if comp.confidence >= component_floor:
                    break
            else:  # no component seen with confidence
                score *= config.v2.no_component_score_factor
                tags.append(TAG_AMBIGUITY_BIAS)
        thresholds = config.thresholds
        if score < thresholds.t_slight:
            level = DamageLevel.ZERO
        elif score < thresholds.t_medium:
            level = DamageLevel.SLIGHT
        else:
            level = DamageLevel.MEDIUM
    return RuleDecision(
        level, score, n_crack, n_spall, n_rebar, n_valid, n_valid > 0, tuple(tags), tuple(kept)
    )


def meta_argmax(probs: Sequence[float]) -> DamageLevel:
    """Most probable level; ties resolve to the higher severity."""
    if len(probs) != 4:
        raise ValueError("expected 4 class probabilities")
    best = max(range(4), key=lambda i: (probs[i], i))
    return DamageLevel(best)


def final_decision(
    rule: RuleDecision,
    meta: Sequence[float] | None,
    config: FusionConfig,
) -> DamageLevel:
    """Combine the rule decision with optional meta-model probabilities.

    HYBRID takes the meta argmax when its confidence clears the gate, else
    the rule level; a rebar-forced HEAVY is never overridden downward.
    """
    mode = config.decision_mode
    if mode is DecisionMode.RULE_ONLY:
        return rule.level
    if meta is None:
        raise MissingMeta(mode.value)
    meta_level = meta_argmax(meta)
    if mode is DecisionMode.META_ONLY:
        return meta_level
    chosen = meta_level if max(meta) >= config.hybrid_prob_gate else rule.level
    if rule.rebar_forced and chosen < rule.level:
        chosen = rule.level
    return chosen


DEFAULT_CONFIG = FusionConfig()
