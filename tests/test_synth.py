from __future__ import annotations

import filecmp
import hashlib
from pathlib import Path

import numpy as np
import pytest

from ruinscore.backend import FileBackend
from ruinscore.cli import main
from ruinscore.dataset_io import DamageLevel
from ruinscore.fusion import DEFAULT_CONFIG, rule_fusion
from ruinscore.synth import SynthSpec, XorShift64Star, gen_synthetic


def assess_levels(manifest) -> list[DamageLevel]:
    outs = FileBackend(manifest).cascade_chunk(manifest.images)
    return [rule_fusion(out, DEFAULT_CONFIG).level for out in outs]


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
        spec = SynthSpec(seed=11, n_images=40, false_positive_rate=0.2,
                         confidence_jitter_sd=0.05, drop_rate=0.1)
        gen_synthetic(spec, tmp_path / "a")
        gen_synthetic(spec, tmp_path / "b")
        a_files = sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*.txt"))
        b_files = sorted(p.relative_to(tmp_path / "b") for p in (tmp_path / "b").rglob("*.txt"))
        assert a_files == b_files and a_files
        for rel in a_files + [Path("manifest.json")]:
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel

    def test_seeded_noisy_tree_digest(self, tmp_path, capsys):
        # the benchmark's noise knobs; every file's path and bytes are pinned
        out = tmp_path / "d"
        assert main(["gen-synthetic", "--seed", "7", "--n", "200", "--out", str(out),
                     "--false-positive-rate", "0.2", "--confidence-jitter-sd", "0.1",
                     "--drop-rate", "0.1"]) == 0
        digest = hashlib.sha256()
        files = sorted(p for p in out.rglob("*") if p.is_file())
        for path in files:
            digest.update(path.relative_to(out).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
        assert len(files) == 343
        assert digest.hexdigest() == (
            "bb1ae6ad333216cf57727da63e29c35b8601dd8de9f51f6f9c84c3a9413c21b7"
        )

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

    @pytest.mark.parametrize(
        "seed, n_images, name",
        [(1, 2.5, "n_images"), (1.5, 2, "seed"), (True, True, "seed")],
    )
    def test_integer_fields_reject_bools_and_floats(self, seed, n_images, name):
        # each used to construct, then fail in gen_synthetic or run from seed 1
        with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0$"):
            SynthSpec(seed=seed, n_images=n_images)

    def test_numpy_integers_generate_as_python_ints(self, tmp_path):
        gen_synthetic(SynthSpec(seed=np.int64(11), n_images=np.int64(6)), tmp_path / "a")
        gen_synthetic(SynthSpec(seed=11, n_images=6), tmp_path / "b")
        for rel in ["manifest.json", *(p.relative_to(tmp_path / "b")
                                       for p in (tmp_path / "b").rglob("*.txt"))]:
            assert filecmp.cmp(tmp_path / "a" / rel, tmp_path / "b" / rel, shallow=False), rel

    def test_monotone_degradation_with_false_positives(self, tmp_path):
        means = []
        for rate in (0.0, 0.1, 0.3):
            accs = []
            for seed in range(5):
                spec = SynthSpec(seed=seed, n_images=120, false_positive_rate=rate)
                manifest = gen_synthetic(spec, tmp_path / f"r{rate}_{seed}")
                accs.append(exact_accuracy(manifest))
            means.append(sum(accs) / len(accs))
        assert means[0] > means[1] > means[2]
