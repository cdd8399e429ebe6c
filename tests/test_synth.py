from __future__ import annotations

import filecmp
from pathlib import Path

import pytest

from ruinscore.backend import FileBackend, run_cascade
from ruinscore.dataset_io import DamageLevel
from ruinscore.fusion import DEFAULT_CONFIG, rule_fusion
from ruinscore.synth import NoiseSpec, SynthSpec, XorShift64Star, gen_synthetic


def assess_levels(manifest) -> list[DamageLevel]:
    backend = FileBackend(manifest)
    return [
        rule_fusion(run_cascade(entry, backend), DEFAULT_CONFIG).level
        for entry in manifest.images
    ]


def exact_accuracy(manifest) -> float:
    levels = assess_levels(manifest)
    truth = [e.ground_truth_level for e in manifest.images]
    return sum(1 for a, b in zip(levels, truth) if a == b) / len(levels)


class TestRng:
    def test_deterministic_stream(self):
        a = XorShift64Star(7)
        b = XorShift64Star(7)
        assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]

    def test_seed_changes_stream(self):
        assert XorShift64Star(1).next_u64() != XorShift64Star(2).next_u64()

    def test_unit_interval(self):
        rng = XorShift64Star(3)
        values = [rng.random() for _ in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        assert 0.4 < sum(values) / len(values) < 0.6

    def test_zero_seed_valid(self):
        rng = XorShift64Star(0)
        assert 0.0 <= rng.random() < 1.0


class TestGenSynthetic:
    def test_empty(self, tmp_path):
        manifest = gen_synthetic(SynthSpec(seed=1, n_images=0), tmp_path / "d")
        assert manifest.images == ()

    def test_noise_free_round_trip_exact(self, tmp_path):
        manifest = gen_synthetic(SynthSpec(seed=7, n_images=200), tmp_path / "d")
        assert exact_accuracy(manifest) == 1.0

    def test_round_trip_many_seeds(self, tmp_path):
        for seed in range(20):
            manifest = gen_synthetic(SynthSpec(seed=seed, n_images=30), tmp_path / f"s{seed}")
            assert exact_accuracy(manifest) == 1.0, f"seed {seed}"

    def test_byte_identical_regeneration(self, tmp_path):
        spec = SynthSpec(seed=11, n_images=40, noise=NoiseSpec(0.2, 0.05, 0.1))
        gen_synthetic(spec, tmp_path / "a")
        gen_synthetic(spec, tmp_path / "b")
        a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.txt"))
        b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.txt"))
        assert a_files == b_files and a_files
        for rel in a_files + [Path("manifest.json")]:
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel

    def test_ground_truth_covers_all_levels(self, tmp_path):
        manifest = gen_synthetic(SynthSpec(seed=5, n_images=100), tmp_path / "d")
        assert {e.ground_truth_level for e in manifest.images} == set(DamageLevel)

    def test_priors_respected(self, tmp_path):
        spec = SynthSpec(seed=9, n_images=300, level_priors=(0.0, 0.0, 0.0, 1.0))
        manifest = gen_synthetic(spec, tmp_path / "d")
        assert all(e.ground_truth_level is DamageLevel.HEAVY for e in manifest.images)

    def test_invalid_priors_rejected(self):
        with pytest.raises(ValueError):
            SynthSpec(seed=1, n_images=1, level_priors=(0.5, 0.5, 0.5, 0.5))

    def test_monotone_degradation_with_false_positives(self, tmp_path):
        means = []
        for rate in (0.0, 0.1, 0.3):
            accs = []
            for seed in range(5):
                spec = SynthSpec(
                    seed=seed, n_images=120, noise=NoiseSpec(false_positive_rate=rate)
                )
                manifest = gen_synthetic(spec, tmp_path / f"r{rate}_{seed}")
                accs.append(exact_accuracy(manifest))
            means.append(sum(accs) / len(accs))
        assert means[0] > means[1] > means[2]
