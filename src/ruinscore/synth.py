"""Deterministic synthetic datasets: manifests, box files, ground truth.

The generator inverts the default v1 rule config: for each image it draws a
ground-truth level and emits detections that fuse back to exactly that level
when all noise knobs are zero (heavy images get a validated rebar with an
overlapping spall, so the construction also survives v2 rebar validation).
Noise is applied afterwards in a fixed order: drops, confidence jitter,
false-positive insertion.

Randomness comes from an explicitly specified 64-bit generator so output
trees are byte-identical for a given spec, independent of platform:
seeding via splitmix64 (increment 0x9E3779B97F4A7C15, mixers
0xBF58476D1CE4E5B9 and 0x94D049BB133111EB), stream via xorshift64*
(shifts 12/25/27, multiplier 0x2545F4914F6CDD1D), doubles taken as the top
53 bits over 2**53.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from .dataset_io import (
    DEFAULT_COMPONENT_CLASS_MAP,
    DEFAULT_DAMAGE_CLASS_MAP,
    BoundingBox,
    DamageClass,
    DamageDetection,
    ComponentDetection,
    DamageLevel,
    DatasetManifest,
    detections_to_box_text,
    load_manifest,
)
from .errors import IoFailure

_MASK64 = (1 << 64) - 1

# (n_crack, n_spall) combinations that score into each band under the
# default v1 weights (1, 2) and thresholds (1, 4)
_SLIGHT_COMBOS = ((1, 0), (2, 0), (3, 0), (0, 1), (1, 1))
_MEDIUM_COMBOS = ((4, 0), (5, 0), (2, 1), (3, 1), (0, 2), (1, 2))


class XorShift64Star:
    """xorshift64* stream seeded through splitmix64; see the module docstring."""

    def __init__(self, seed: int):
        z = (seed + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self._state = z or 0x9E3779B97F4A7C15  # xorshift state must be nonzero

    def next_u64(self) -> int:
        s = self._state
        s ^= (s >> 12)
        s = (s ^ (s << 25)) & _MASK64
        s ^= (s >> 27)
        self._state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64

    def random(self) -> float:
        """Uniform double in [0, 1) from the top 53 bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.random()

    def randint(self, n: int) -> int:
        """Uniform integer in [0, n); n is tiny here so the float path is fine."""
        return min(int(self.random() * n), n - 1)

    def gauss(self) -> float:
        """Standard normal via Box-Muller (two draws per call, no caching)."""
        u1 = max(self.random(), 2.0 ** -53)
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class NoiseSpec:
    false_positive_rate: float = 0.0
    confidence_jitter_sd: float = 0.0
    drop_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.false_positive_rate <= 1.0:
            raise ValueError("false_positive_rate must be in [0, 1]")
        if not 0.0 <= self.confidence_jitter_sd < math.inf:  # NaN fails too
            raise ValueError("confidence_jitter_sd must be finite and >= 0")
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must be in [0, 1]")


@dataclass(frozen=True)
class SynthSpec:
    seed: int
    n_images: int
    noise: NoiseSpec = NoiseSpec()
    level_priors: tuple[float, float, float, float] = (0.25, 0.25, 0.25, 0.25)

    def __post_init__(self) -> None:
        # the generator seeds from the value modulo 2**64, so a seed outside
        # that range would alias one inside it
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must be in [0, 2**64)")
        if self.n_images < 0:
            raise ValueError("n_images must be >= 0")
        if len(self.level_priors) != 4 or any(not 0 <= p <= 1 for p in self.level_priors):
            raise ValueError("level_priors must be 4 numbers in [0, 1]")
        if abs(sum(self.level_priors) - 1.0) > 1e-9:
            raise ValueError("level_priors must sum to 1")


def _draw_level(rng: XorShift64Star, priors) -> DamageLevel:
    u = rng.random()
    cum = 0.0
    for lv in DamageLevel:
        cum += priors[lv.value]
        if u < cum:
            return lv
    return DamageLevel.HEAVY


def _random_box(rng: XorShift64Star, smin: float = 0.05, smax: float = 0.30) -> BoundingBox:
    return BoundingBox(
        cx=rng.uniform(0.15, 0.85),
        cy=rng.uniform(0.15, 0.85),
        w=rng.uniform(smin, smax),
        h=rng.uniform(smin, smax),
    )


def _damage(rng: XorShift64Star, cls: DamageClass, lo: float, hi: float) -> DamageDetection:
    return DamageDetection(cls, _random_box(rng), rng.uniform(lo, hi))


def _clean_damages(rng: XorShift64Star, level: DamageLevel) -> list[DamageDetection]:
    if level is DamageLevel.ZERO:
        # occasional sub-floor clutter keeps zero images from being trivially empty
        if rng.random() < 0.3:
            return [_damage(rng, DamageClass.CRACK, 0.05, 0.20)]
        return []
    if level is DamageLevel.HEAVY:
        rebar_box = BoundingBox(
            cx=rng.uniform(0.25, 0.75),
            cy=rng.uniform(0.25, 0.75),
            w=rng.uniform(0.08, 0.25),
            h=rng.uniform(0.08, 0.25),
        )
        spall_box = BoundingBox(
            cx=rebar_box.cx, cy=rebar_box.cy, w=rebar_box.w * 1.5, h=rebar_box.h * 1.5
        )
        dets = [
            DamageDetection(DamageClass.EXPOSED_REBAR, rebar_box, rng.uniform(0.6, 0.95)),
            DamageDetection(DamageClass.SPALLING, spall_box, rng.uniform(0.6, 0.95)),
        ]
        for _ in range(rng.randint(3)):
            dets.append(_damage(rng, DamageClass.CRACK, 0.5, 0.95))
        return dets
    combos = _SLIGHT_COMBOS if level is DamageLevel.SLIGHT else _MEDIUM_COMBOS
    n_crack, n_spall = combos[rng.randint(len(combos))]
    dets = [_damage(rng, DamageClass.CRACK, 0.5, 0.95) for _ in range(n_crack)]
    dets += [_damage(rng, DamageClass.SPALLING, 0.5, 0.95) for _ in range(n_spall)]
    return dets


def _apply_noise(
    rng: XorShift64Star, dets: list[DamageDetection], noise: NoiseSpec
) -> list[DamageDetection]:
    out = []
    for det in dets:
        if noise.drop_rate > 0.0 and rng.random() < noise.drop_rate:
            continue
        if noise.confidence_jitter_sd > 0.0:
            conf = det.confidence + noise.confidence_jitter_sd * rng.gauss()
            det = DamageDetection(det.cls, det.box, min(1.0, max(0.01, conf)))
        out.append(det)
    if noise.false_positive_rate > 0.0 and rng.random() < noise.false_positive_rate:
        cls = DEFAULT_DAMAGE_CLASS_MAP[rng.randint(3)]
        out.append(_damage(rng, cls, 0.3, 0.9))
    return out


def gen_synthetic(spec: SynthSpec, out_dir: str | Path) -> DatasetManifest:
    """Write manifest.json plus labels/ and components/ files; returns the
    manifest reparsed through the regular loader."""
    root = Path(out_dir)
    rng = XorShift64Star(spec.seed)
    try:
        (root / "labels").mkdir(parents=True, exist_ok=True)
        (root / "components").mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create output directory {root}: {exc}") from None

    entries = []
    width = max(4, len(str(max(spec.n_images - 1, 0))))
    for i in range(spec.n_images):
        image_id = f"img_{i:0{width}d}"
        level = _draw_level(rng, spec.level_priors)
        scene = "inside" if rng.random() < 0.5 else "outside"

        components = [
            ComponentDetection(
                DEFAULT_COMPONENT_CLASS_MAP[rng.randint(3)], _random_box(rng), rng.uniform(0.5, 1.0)
            )
            for _ in range(rng.randint(3))
        ]
        damages = _apply_noise(rng, _clean_damages(rng, level), spec.noise)

        damage_rel = f"labels/{image_id}.txt"
        entry = {
            "id": image_id,
            "ground_truth_level": level.value,
            "scene": scene,
            "damage_file": damage_rel,
        }
        try:
            (root / damage_rel).write_text(
                detections_to_box_text(damages, DEFAULT_DAMAGE_CLASS_MAP), encoding="utf-8"
            )
            if components:
                comp_rel = f"components/{image_id}.txt"
                (root / comp_rel).write_text(
                    detections_to_box_text(components, DEFAULT_COMPONENT_CLASS_MAP),
                    encoding="utf-8",
                )
                entry["components_file"] = comp_rel
        except OSError as exc:
            raise IoFailure(f"cannot write detection files under {root}: {exc}") from None
        entries.append(entry)

    manifest = {
        "class_maps": {
            "damage": {str(i): cls.value for i, cls in DEFAULT_DAMAGE_CLASS_MAP.items()},
            "component": {str(i): cls.value for i, cls in DEFAULT_COMPONENT_CLASS_MAP.items()},
        },
        "images": entries,
    }
    try:
        (root / "manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        raise IoFailure(f"cannot write manifest under {root}: {exc}") from None
    return load_manifest(root / "manifest.json")
