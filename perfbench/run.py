#!/usr/bin/env python3
"""Pipeline benchmark for ruinscore: seeded workloads run through the CLI.

    python3 perfbench/run.py --workload NAME [--seed 7] [--seconds 10] [--trace 0|1]

Run from the root of a source checkout; the engine is imported from ./src.
Inputs are generated from --seed with `ruinscore gen-synthetic` (noise knobs
on) and cached under .perfbench_work/seed-N-KEY, KEY covering the engine
source, so the same seed always gives the same corpus and repeated runs skip
generation. Delete .perfbench_work to drop old caches.

End-to-end runs (--trace 0) spawn one CLI process at a time, closed loop, for
--seconds and report medians over the repeats: images_per_s,
cpu_ms_per_image (user+system of the command and its reaped children, from
os.wait4), peak_rss_mb, setup_s (fresh interpreter running the loaders the
command calls before its first image, see setup_probe.py), exact_accuracy and
pm1_accuracy. Timed runs share one CPU with a calibration sidecar and every
time is reported in reference seconds (hostspeed.py); the raw wall and CPU
times are in the details line. Traced runs (--trace 1) repeat the untraced
loop, then run the command in-process through trace.py and report the
per-layer metrics.

Every run checks correctness and exits 1 on a mismatch: each command must
exit 0, repeats must be byte-identical, assess-external must equal a
file-backend run of the same config, and for the seed in golden.json the
sha256 of every output and trained model must equal the recorded one.

The line before the result is a JSON object of details: machine facts, input
sizes, raw samples, output digests and traffic shares. The last line is the
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from hostspeed import HostSpeed

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
PY = sys.executable

DEFAULT_SEED = 7
# ROADMAP's noise knobs for the seeded corpus
NOISE = ("--false-positive-rate", "0.2", "--confidence-jitter-sd", "0.1", "--drop-rate", "0.1")
CORPUS_IMAGES = 10000  # one corpus per seed; workloads use prefixes of it
META_TRAIN_IMAGES = 2000  # derived-seed corpus the hybrid meta-models train on
HELD_OUT_IMAGES = 300  # derived-seed images train-gbdt's model is graded on
MIN_REPS = 3
SETUP_PROBES_PER_REP = 1
TRACE_REPS = 3
COMMAND_TIMEOUT_S = 60


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "assess" or "train-meta"
    images: int
    config: dict
    backend: str = "file"
    jobs: int = 1
    model: str | None = None  # meta-model kind trained during set-up


WORKLOADS = {
    w.name: w
    for w in (
        # file read, box-text parse, rule fusion, JSONL write; meta idle
        Workload("assess-rule", "assess", 10000, {"version": "v2"}),
        # per-row gbdt predict dominates; parsing and fusion as assess-rule
        Workload(
            "assess-hybrid-gbdt",
            "assess",
            500,
            {"version": "v2", "decision_mode": "hybrid"},
            model="gbdt",
        ),
        # gbdt training: per-node sorts and the split scan
        Workload("train-gbdt", "train-meta", 1500, {"version": "v2"}),
        # JSON over pipes to replay children, worker pool, logreg predict
        Workload(
            "assess-external",
            "assess",
            1000,
            {"version": "v1", "decision_mode": "hybrid"},
            backend="external",
            jobs=2,
            model="logreg",
        ),
    )
}

END_TO_END_UNITS = {
    "images_per_s": "1/s",
    "cpu_ms_per_image": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "exact_accuracy": "ratio",
    "pm1_accuracy": "ratio",
}

# per-layer metric: (unit, span recorded by trace.py, statistic)
LAYER_METRICS = {
    "dataset_io.load_manifest_s": ("s", "dataset_io.load_manifest", "total_s"),
    "dataset_io.parse_s": ("s", "dataset_io.parse", "total_s"),
    "dataset_io.parse_calls": ("count", "dataset_io.parse", "calls"),
    "backend.file_query_self_s": ("s", "backend.file_query", "self_s"),
    "backend.cascade_s": ("s", "backend.cascade", "total_s"),
    "backend.cascade_calls": ("count", "backend.cascade", "calls"),
    "backend.exchange_s": ("s", "backend.exchange", "total_s"),
    "backend.exchanges": ("count", "backend.exchange", "calls"),
    "backend.exchange_p50_us": ("us", "backend.exchange", "exchange_p50_us"),
    "backend.exchange_p99_us": ("us", "backend.exchange", "exchange_p99_us"),
    "backend.children_spawned": ("count", "backend.spawn", "calls"),
    "backend.errors": ("count", "backend.cascade", "errors"),
    "fusion.rule_fusion_s": ("s", "fusion.rule_fusion", "total_s"),
    "fusion.final_decision_s": ("s", "fusion.final_decision", "total_s"),
    "meta.features_s": ("s", "meta.features", "total_s"),
    "meta.predict_s": ("s", "meta.predict", "total_s"),
    "meta.predict_calls": ("count", "meta.predict", "calls"),
    "meta.predict_rows": ("count", "meta.predict", "rows"),
    "meta.load_model_s": ("s", "meta.load_model", "total_s"),
    "meta.gbdt.train_s": ("s", "meta.gbdt.train", "total_s"),
    "meta.gbdt.split_scan_s": ("s", "meta.gbdt.split_scan", "total_s"),
    "meta.gbdt.split_scan_calls": ("count", "meta.gbdt.split_scan", "calls"),
    "meta.gbdt.train_self_s": ("s", "meta.gbdt.train", "self_s"),
    "meta.save_model_s": ("s", "meta.save_model", "total_s"),
    "evaluate.report_s": ("s", "evaluate.report", "total_s"),
    "cli.self_s": ("s", None, "self_s"),
    "fusion.rebar_forced_share": ("ratio", "fusion.rule_fusion", "rebar_forced"),
    "fusion.ambiguity_bias_share": ("ratio", "fusion.rule_fusion", "ambiguity_bias"),
    "fusion.meta_override_share": ("ratio", "fusion.final_decision", "meta_override"),
    "trace_overhead_ratio": ("ratio", None, "overhead"),
}


class BenchFailure(Exception):
    """A command failed or an output did not match; the run is not valid."""


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    digest: str
    scale: float  # reference seconds per measured second (hostspeed.py)


@dataclass
class Inputs:
    manifest: Path
    config: Path
    model: Path | None = None
    # what the output is checked against: the file-backend run of the same
    # images (assess-external) or the held-out images (train-gbdt)
    ref_manifest: Path | None = None
    ref_config: Path | None = None
    digests: dict = field(default_factory=dict)  # set-up artifacts: name -> sha256


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("RUINSCORE_CONFIG", None)
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[float, float, float]:
    """Run argv to completion; returns (wall s, cpu s incl. reaped children,
    peak RSS MB). Raises BenchFailure on a nonzero exit or a timeout."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=cli_env(), cwd=ROOT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        tail = stderr.read_text(encoding="utf-8", errors="replace")[-2000:]
        raise BenchFailure(f"{' '.join(argv[2:5])} exited {proc.returncode}: {tail}")
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def ruinscore(*args: str) -> list[str]:
    return [PY, "-m", "ruinscore", *args]


def build_once(target: Path, build) -> Path:
    """Create target with build(tmp) unless it exists; atomic by rename."""
    if not target.exists():
        tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
        if tmp.exists():
            shutil.rmtree(tmp) if tmp.is_dir() else tmp.unlink()
        build(tmp)
        os.replace(tmp, target)
    return target


def write_json(path: Path, obj) -> None:
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


def gen_corpus(seed: int, n: int, out: Path, logs: Path) -> None:
    spawn(ruinscore("gen-synthetic", "--seed", str(seed), "--n", str(n), "--out", str(out), *NOISE),
          logs / "gen.out", logs / "gen.err")


def prefix_manifest(corpus: Path, images: int, out: Path, external: bool) -> None:
    """The first `images` entries of the corpus manifest. The generator draws
    from one sequential stream, so a prefix equals a smaller corpus. For the
    external backend, scene keys are dropped (the child answers them) and
    each entry gets an image_path named after its id."""
    raw = json.loads((corpus / "manifest.json").read_text(encoding="utf-8"))
    entries = raw["images"][:images]
    if len(entries) != images:
        raise BenchFailure(f"corpus has {len(entries)} images, workload needs {images}")
    if external:
        entries = [
            {**{k: v for k, v in e.items() if k != "scene"}, "image_path": f"frames/{e['id']}.jpg"}
            for e in entries
        ]
    write_json(out, {"class_maps": raw["class_maps"], "images": entries})


def prepare(w: Workload, seed: int, logs: Path) -> Inputs:
    """Generate (or reuse) this seed's inputs for workload w. The cache is
    keyed on the engine source too, because the corpus and the meta-models
    are made by the code under test."""
    key = hashlib.sha256(
        repr((src_sha256(), NOISE, CORPUS_IMAGES, META_TRAIN_IMAGES, HELD_OUT_IMAGES)).encode()
    ).hexdigest()[:12]
    seed_dir = WORK / f"seed-{seed}-{key}"
    seed_dir.mkdir(parents=True, exist_ok=True)
    corpus = build_once(seed_dir / "corpus", lambda p: gen_corpus(seed, CORPUS_IMAGES, p, logs))
    # meta-models train on a derived seed, so no workload grades its own training set
    derived_seed = seed + 1_000_003
    needs_derived = w.model is not None or w.command == "train-meta"
    derived = (
        build_once(
            seed_dir / "derived",
            lambda p: gen_corpus(derived_seed, META_TRAIN_IMAGES, p, logs),
        )
        if needs_derived
        else None
    )

    config = dict(w.config)
    if w.backend == "external":
        replay = [PY, str(BENCH / "replay_detector.py"), str(corpus / "manifest.json")]
        config["backend"] = {"command": replay, "timeout_s": 30}
    wdir = seed_dir / w.name
    wdir.mkdir(exist_ok=True)
    inputs = Inputs(manifest=corpus / f"{w.name}.json", config=wdir / "config.json")
    write_json(inputs.config, config)
    prefix_manifest(corpus, w.images, inputs.manifest, w.backend == "external")

    if w.model is not None:
        def train(path: Path) -> None:
            spawn(ruinscore("train-meta", "--manifest", str(derived / "manifest.json"),
                            "--config", str(inputs.config), "--kind", w.model, "--out", str(path)),
                  logs / "train.out", logs / "train.err")

        inputs.model = build_once(seed_dir / f"{w.name}.{w.model}.json", train)
        inputs.digests["model"] = sha256(inputs.model)
    if w.backend == "external":
        ref_config = wdir / "reference-config.json"
        write_json(ref_config, w.config)
        ref_manifest = corpus / f"{w.name}.reference.json"
        prefix_manifest(corpus, w.images, ref_manifest, external=False)
        inputs.ref_manifest, inputs.ref_config = ref_manifest, ref_config
    if w.command == "train-meta":
        held_out = derived / "held-out.json"
        prefix_manifest(derived, HELD_OUT_IMAGES, held_out, external=False)
        held_config = wdir / "held-out-config.json"
        write_json(held_config, {**w.config, "decision_mode": "meta_only"})
        inputs.ref_manifest, inputs.ref_config = held_out, held_config
    return inputs


def command_argv(w: Workload, inputs: Inputs, out: Path) -> list[str]:
    args = [w.command, "--manifest", str(inputs.manifest), "--config", str(inputs.config),
            "--out", str(out)]
    if w.command == "train-meta":
        return args + ["--kind", "gbdt"]
    args += ["--jobs", str(w.jobs), "--backend", w.backend]
    if inputs.model is not None:
        args += ["--meta-model", str(inputs.model)]
    return args


def run_command(w: Workload, inputs: Inputs, run_dir: Path, host: HostSpeed | None = None
                ) -> Sample:
    out = run_dir / ("model.json" if w.command == "train-meta" else "out.jsonl")
    before = host.reading() if host else None
    wall, cpu, rss = spawn(ruinscore(*command_argv(w, inputs, out)),
                           run_dir / "cmd.out", run_dir / "cmd.err")
    return Sample(wall, cpu, rss, sha256(out), host.scale(before) if host else 1.0)


def probe_argv(inputs: Inputs) -> list[str]:
    argv = [PY, str(BENCH / "setup_probe.py"), str(inputs.manifest), str(inputs.config)]
    return argv + [str(inputs.model)] if inputs.model is not None else argv


def evaluate(assessments: Path, manifest: Path, run_dir: Path) -> dict:
    report_path = run_dir / "report.json"
    spawn(ruinscore("evaluate", "--assessments", str(assessments), "--manifest", str(manifest),
                    "--json"), report_path, run_dir / "evaluate.err")
    return json.loads(report_path.read_text(encoding="utf-8"))


def no_components_share(manifest: Path) -> float:
    entries = json.loads(manifest.read_text(encoding="utf-8"))["images"]
    return sum("components_file" not in e for e in entries) / len(entries)


def traffic_from_output(assessments: Path, manifest: Path) -> dict:
    """Shares of images by the properties later claims may depend on."""
    records = [json.loads(line) for line in assessments.read_text(encoding="utf-8").splitlines()]
    n = len(records)
    return {
        "rebar_forced_share": sum(r["rule"]["rebar_forced"] for r in records) / n,
        "ambiguity_bias_share": sum("ambiguity-bias" in r["rule"]["filters"] for r in records) / n,
        "meta_override_share": sum(r["final"] != r["rule"]["level"] for r in records) / n,
        "no_components_file_share": no_components_share(manifest),
    }


def cpu_steal_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies from /proc/stat, or None where unavailable."""
    try:
        fields = Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]
    except OSError:
        return None
    ticks = [int(v) for v in fields]
    return (ticks[7] if len(ticks) > 7 else 0), sum(ticks[:8])


def src_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def source_facts() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {"commit": commit, "src_sha256": src_sha256()}


def check_golden(w: Workload, seed: int, digests: dict) -> None:
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    if seed != golden["seed"]:
        return
    for key, value in golden["sha256"][w.name].items():
        if digests.get(key) != value:
            raise BenchFailure(
                f"{w.name} {key} sha256 {digests.get(key)} != recorded {value} (seed {seed})"
            )


def check_outputs(w: Workload, inputs: Inputs, run_dir: Path) -> tuple[Sample, dict, dict, dict]:
    """Untimed first run plus the checks that need one output: the file-backend
    reference (assess-external), evaluate, and for train-gbdt a meta-only
    grade of held-out images. Returns (first sample, digests, quality, traffic)."""
    first = run_command(w, inputs, run_dir)
    out = run_dir / ("model.json" if w.command == "train-meta" else "out.jsonl")
    digests = {"output" if w.command == "assess" else "model": first.digest, **inputs.digests}
    ref_dir = run_dir / "reference"
    ref_dir.mkdir()
    if w.command == "assess":
        if w.backend == "external":
            file_w = Workload(w.name, "assess", w.images, w.config)
            ref_inputs = Inputs(inputs.ref_manifest, inputs.ref_config, inputs.model)
            if run_command(file_w, ref_inputs, ref_dir).digest != first.digest:
                raise BenchFailure("assess-external output differs from the file backend's")
        report = evaluate(out, inputs.manifest, run_dir)
        if report["n"] != w.images:
            raise BenchFailure(f"evaluate graded {report['n']} of {w.images} images")
        quality = {"exact_accuracy": report["exact_accuracy"],
                   "pm1_accuracy": report["plus_minus_one_accuracy"]}
        return first, digests, quality, traffic_from_output(out, inputs.manifest)

    printed = dict(kv.split("=", 1) for kv in (run_dir / "cmd.out").read_text().split() if "=" in kv)
    if int(printed["n"]) != w.images:
        raise BenchFailure(f"train-meta trained on {printed['n']} of {w.images} images")
    held_w = Workload(w.name, "assess", HELD_OUT_IMAGES, {})
    held_inputs = Inputs(inputs.ref_manifest, inputs.ref_config, out)
    digests["held_out_output"] = run_command(held_w, held_inputs, ref_dir).digest
    report = evaluate(ref_dir / "out.jsonl", inputs.ref_manifest, ref_dir)
    quality = {"exact_accuracy": float(printed["training_accuracy"]),
               "pm1_accuracy": report["plus_minus_one_accuracy"],
               "held_out_exact_accuracy": report["exact_accuracy"]}
    return first, digests, quality, {"no_components_file_share": no_components_share(inputs.manifest)}


def measure(w: Workload, inputs: Inputs, run_dir: Path, seconds: float, expected: str,
            host: HostSpeed) -> tuple[list[Sample], list[float], dict]:
    """Closed loop: one command, then set-up probes, until `seconds` pass.
    Returns the samples, set-up times in reference seconds and probe facts."""
    samples: list[Sample] = []
    setup: list[float] = []
    probe_out = run_dir / "probe.out"
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < seconds:
        sample = run_command(w, inputs, run_dir, host)
        if sample.digest != expected:
            raise BenchFailure(f"{w.name}: repeat output differs from the first run")
        samples.append(sample)
        for _ in range(SETUP_PROBES_PER_REP):
            before = host.reading()
            wall = spawn(probe_argv(inputs), probe_out, run_dir / "probe.err")[0]
            setup.append(wall * host.scale(before))
    facts = json.loads(probe_out.read_text(encoding="utf-8"))
    return samples, setup, facts


def traced(w: Workload, inputs: Inputs, run_dir: Path, expected: str, host: HostSpeed
           ) -> tuple[list[dict], dict]:
    """TRACE_REPS in-process runs of the command through trace.py (plus one
    traced evaluate for assess workloads). Each rep's stats carry its wall
    time and host-speed scale."""
    reps = []
    tracer = [PY, str(BENCH / "trace.py")]
    stats_path = run_dir / "trace.json"
    out = run_dir / ("traced-model.json" if w.command == "train-meta" else "traced.jsonl")
    for _ in range(TRACE_REPS):
        argv = tracer + [str(stats_path), "--", *command_argv(w, inputs, out)]
        before = host.reading()
        wall = spawn(argv, run_dir / "trace.out", run_dir / "trace.err")[0]
        if sha256(out) != expected:
            raise BenchFailure(f"{w.name}: traced output differs from the untraced run")
        reps.append({**json.loads(stats_path.read_text(encoding="utf-8")),
                     "wall_s": wall, "scale": host.scale(before)})
    eval_stats: dict = {}
    if w.command == "assess":
        argv = tracer + [str(stats_path), "--", "evaluate", "--assessments", str(out),
                         "--manifest", str(inputs.manifest), "--json"]
        before = host.reading()
        spawn(argv, run_dir / "trace.out", run_dir / "trace.err")
        eval_stats = {**json.loads(stats_path.read_text(encoding="utf-8")),
                      "scale": host.scale(before)}
    return reps, eval_stats


def layer_metrics(w: Workload, reps: list[dict], eval_stats: dict, untraced_wall: float
                  ) -> tuple[dict, list[str]]:
    """Per-layer metrics as medians over traced reps, times in reference
    seconds. A metric whose hook target is gone is listed as absent and
    reads 0."""
    absent_spans = set(reps[0]["absent"])
    metrics, absent = {}, []
    for name, (unit, span, stat) in LAYER_METRICS.items():
        if span in absent_spans:
            absent.append(name)
        values = []
        for rep in reps:
            if stat == "overhead":
                value = rep["wall_s"] * rep["scale"] / untraced_wall
            elif span is None:
                value = (rep["wall_s"] - rep["covered_s"]) * rep["scale"]
            elif stat == "errors":
                value = sum(rep["errors"].values())
            elif stat.startswith("exchange_"):
                value = rep[stat] * rep["scale"]
            elif stat in ("rebar_forced", "ambiguity_bias", "meta_override"):
                value = rep["traffic"].get(stat, 0) / w.images
            elif span == "evaluate.report":
                value = eval_stats.get(stat, {}).get(span, 0.0) * eval_stats.get("scale", 1.0)
            else:
                value = rep[stat].get(span, 0) * (rep["scale"] if unit == "s" else 1)
            values.append(value)
        metrics[name] = {"value": statistics.median(values), "unit": unit}
    return metrics, absent


def run(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    run_dir = WORK / f"run-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        inputs = prepare(w, seed, run_dir)
        first, digests, quality, traffic = check_outputs(w, inputs, run_dir)
        check_golden(w, seed, digests)
        steal0 = cpu_steal_ticks()
        with HostSpeed(run_dir / "hostspeed.bin") as host:
            samples, setup, facts = measure(w, inputs, run_dir, seconds, first.digest, host)
            reps, eval_stats = traced(w, inputs, run_dir, first.digest, host) if trace else ([], {})
        steal1 = cpu_steal_ticks()
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    untraced_wall = statistics.median(s.wall_s * s.scale for s in samples)
    metrics = {
        "images_per_s": statistics.median(w.images / (s.wall_s * s.scale) for s in samples),
        "cpu_ms_per_image": statistics.median(1000.0 * s.cpu_s * s.scale / w.images
                                              for s in samples),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "exact_accuracy": quality["exact_accuracy"],
        "pm1_accuracy": quality["pm1_accuracy"],
    }
    details = {
        "workload": w.name,
        "seed": seed,
        "machine": {
            "nproc": os.cpu_count(),
            "platform": platform.platform(),
            **{k: facts[k] for k in ("python", "numpy", "split_kernel")},
            **source_facts(),
            "cpu_steal_share": (
                (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1])
                if steal0 and steal1 else None
            ),
        },
        "inputs": {"corpus_images": CORPUS_IMAGES, "workload_images": w.images,
                   "meta_train_images": META_TRAIN_IMAGES if w.model else None,
                   "held_out_images": HELD_OUT_IMAGES if w.command == "train-meta" else None,
                   "backend": w.backend, "jobs": w.jobs, "config": w.config},
        "absent_loaders": facts["absent_loaders"],
        "reps": len(samples),
        "raw_samples": {"wall_s": [s.wall_s for s in samples],
                        "cpu_s": [s.cpu_s for s in samples],
                        "host_scale": [s.scale for s in samples],
                        "peak_rss_mb": [s.rss_mb for s in samples]},
        "setup_s": setup,
        "quality": quality,
        "sha256": digests,
        "traffic": traffic,
        "end_to_end": metrics,
    }
    result_metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    if trace:
        result_metrics, absent = layer_metrics(w, reps, eval_stats, untraced_wall)
        details["traced"] = {"absent_metrics": absent, "errors_by_class": reps[0]["errors"],
                             "wall_s": [r["wall_s"] for r in reps]}
    result = {"correct": True, "attempted": w.images * len(samples), "failed": 0,
              "metrics": result_metrics}
    return details, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ruinscore" / "__init__.py").is_file():
        print(f"perfbench: no ruinscore source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    try:
        details, result = run(w, args.seed, args.seconds, bool(args.trace))
    except BenchFailure as exc:
        print(f"perfbench: {w.name} seed {args.seed}: FAILED: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": w.images, "failed": w.images,
                          "metrics": {}}))
        return 1
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
