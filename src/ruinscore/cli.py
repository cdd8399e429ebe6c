"""Command-line entry point: assess, evaluate, train-meta, fuse, gen-synthetic.

assess streams one JSON record per image (JSONL), working through the
manifest in fixed-size chunks, so corpora of any size process with bounded
memory whatever --jobs is. Exit codes: 0 success, 1 runtime failure
(structured JSON error on stderr), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dataset_io, evaluate as evaluate_mod, fusion, meta, synth
from .backend import (
    DEFAULT_TIMEOUT_S,
    CascadeOutput,
    ExternalBackend,
    FileBackend,
    run_cascade,
)
from .dataset_io import (
    DetectionKind,
    LEVEL_BY_LABEL,
    SceneClass,
    SceneLabel,
)
from .errors import (
    DegenerateData,
    DimensionMismatch,
    MissingFile,
    MissingMeta,
    NoGroundTruth,
    RuinscoreError,
    SchemaViolation,
)
from .fusion import (
    DecisionMode,
    FusionConfig,
    FusionVersion,
    check_number,
    meta_argmax,
    rule_fusion,
)

CONFIG_ENV_VAR = "RUINSCORE_CONFIG"
# entries per assess chunk: the most a run holds in flight, for any --jobs,
# and the row count of one batched meta predict. Throughput is flat from 16
# to 256 entries while peak memory grows with the chunk.
CHUNK_SIZE = 64


@dataclass(frozen=True)
class BackendSettings:
    command: tuple[str, ...] | None = None
    timeout_s: float = DEFAULT_TIMEOUT_S


def load_config_file(path: str | Path | None) -> tuple[FusionConfig, BackendSettings]:
    """Load the JSON config; the optional top-level "backend" section is split
    off here so FusionConfig keeps its strict unknown-key rejection."""
    if path is None:
        return FusionConfig(), BackendSettings()
    p = Path(path)
    if not p.is_file():
        raise MissingFile(str(p))
    raw = dataset_io.decode_json(p.read_text(encoding="utf-8"))
    if not isinstance(raw, dict):
        raise SchemaViolation("$", "config must be an object")

    backend_cfg = BackendSettings()
    if "backend" in raw:
        section = raw.pop("backend")
        if not isinstance(section, dict):
            raise SchemaViolation("backend", "expected an object")
        unknown = set(section) - {"command", "timeout_s"}
        if unknown:
            raise SchemaViolation(f"backend.{sorted(unknown)[0]}", "unknown key")
        command = section.get("command")
        if command is not None and (
            not isinstance(command, list)
            or not command
            or not all(isinstance(c, str) for c in command)
        ):
            raise SchemaViolation("backend.command", "must be a nonempty list of strings")
        timeout_s = section.get("timeout_s", DEFAULT_TIMEOUT_S)
        check_number(timeout_s, "backend.timeout_s")
        if timeout_s <= 0:
            raise SchemaViolation("backend.timeout_s", "must be a positive number")
        backend_cfg = BackendSettings(
            command=tuple(command) if command else None, timeout_s=float(timeout_s)
        )
    return FusionConfig.from_dict(raw), backend_cfg


def _config_path(args) -> str | None:
    if getattr(args, "config", None):
        return args.config
    return os.environ.get(CONFIG_ENV_VAR) or None


def _assessment_record(out, rule, probs, final) -> dict:
    rec = {
        "image_id": out.image_id,
        "scene": {"class": out.scene.cls.value, "confidence": out.scene.confidence},
        "counts": {
            "n_crack": rule.counts.n_crack,
            "n_spall": rule.counts.n_spall,
            "n_rebar_raw": rule.counts.n_rebar_raw,
            "n_rebar_valid": rule.counts.n_rebar_valid,
        },
        "rule": {
            "level": rule.level.label,
            "score": rule.score,
            "rebar_forced": rule.rebar_forced,
            "filters": list(rule.applied_filters),
        },
        "meta": (
            {"probs": list(probs), "level": meta_argmax(probs).label}
            if probs is not None
            else None
        ),
        "final": final.label,
    }
    return rec


def _chunk_probs(model, rows: list) -> list[tuple[float, float, float, float]]:
    """Meta probabilities of one chunk's feature vectors, in row order."""
    if isinstance(model, meta.LogRegModel):
        # per row: predict_logreg_batch can round the last bit differently,
        # which would change assess output bytes
        return [meta.predict_logreg(model, x) for x in rows]
    return [tuple(p) for p in meta.predict_gbdt_batch(model, np.stack(rows)).tolist()]


def _cmd_assess(args) -> int:
    manifest = dataset_io.load_manifest(args.manifest)
    config, backend_cfg = load_config_file(_config_path(args))
    model = meta.load_model(args.meta_model) if args.meta_model else None
    if config.decision_mode is not DecisionMode.RULE_ONLY and model is None:
        raise MissingMeta(config.decision_mode.value)
    if model is not None and model.dim != meta.FEATURE_DIM:
        raise DimensionMismatch(meta.FEATURE_DIM, model.dim)

    handles: list[ExternalBackend] = []
    handle_lock = threading.Lock()
    local = threading.local()
    if args.backend == "file":
        shared = FileBackend(manifest)

        def get_backend():
            return shared

    else:
        if backend_cfg.command is None:
            raise SchemaViolation("backend.command", "external backend selected but no command configured")

        def get_backend():
            handle = getattr(local, "handle", None)
            if handle is None:
                handle = ExternalBackend(backend_cfg.command, backend_cfg.timeout_s, manifest.root)
                local.handle = handle
                with handle_lock:
                    handles.append(handle)
            return handle

    def stage(entry):
        """Cascade, rule fusion and features of one entry, or its failure."""
        try:
            out = run_cascade(entry, get_backend())
            rule = rule_fusion(out, config)
            x = meta.extract_features(out, rule, config) if model is not None else None
        except RuinscoreError as exc:
            exc.image_id = entry.id
            return exc
        return out, rule, x

    def finish(staged: list, out_stream) -> None:
        """Predict the chunk's staged rows in one call, then write records and
        skip lines in manifest order; re-raise a failure without --keep-going."""
        rows = [item[2] for item in staged if not isinstance(item, RuinscoreError)]
        probs = iter(_chunk_probs(model, rows) if model is not None and rows else ())
        for item in staged:
            if isinstance(item, RuinscoreError):
                if not args.keep_going:
                    raise item
                print(f"skip {item.image_id}: {type(item).__name__}: {item}", file=sys.stderr)
                continue
            out, rule, _ = item
            p = next(probs) if model is not None else None
            final = fusion.final_decision(rule, p, config)
            out_stream.write(json.dumps(_assessment_record(out, rule, p, final)) + "\n")

    pool = ThreadPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
    run_stage = pool.map if pool is not None else map
    out_stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        images = manifest.images
        for start in range(0, len(images), CHUNK_SIZE):
            staged = []
            for item in run_stage(stage, images[start : start + CHUNK_SIZE]):
                staged.append(item)
                if isinstance(item, RuinscoreError) and not args.keep_going:
                    break
            finish(staged, out_stream)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
        if args.out:
            out_stream.close()
        for handle in handles:
            handle.close()
    return 0


def read_assessments(path: str | Path) -> list[dict]:
    p = Path(path)
    if not p.is_file():
        raise MissingFile(str(p))
    records = []
    seen: set = set()
    for line_no, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        rec = dataset_io.decode_json(line, f"line {line_no}")
        if not isinstance(rec, dict) or "image_id" not in rec or "final" not in rec:
            raise SchemaViolation(f"line {line_no}", "record needs image_id and final")
        image_id = rec["image_id"]
        if not isinstance(image_id, str):
            raise SchemaViolation(f"line {line_no}", "image_id must be a string")
        if image_id in seen:
            raise SchemaViolation(f"line {line_no}", f"duplicate image_id {image_id!r}")
        seen.add(image_id)
        records.append(rec)
    return records


def _cmd_evaluate(args) -> int:
    manifest = dataset_io.load_manifest(args.manifest)
    records = read_assessments(args.assessments)
    truth = {
        e.id: e.ground_truth_level
        for e in manifest.images
        if e.ground_truth_level is not None
    }
    pairs = []
    for rec in records:
        gt = truth.get(rec["image_id"])
        if gt is None:
            continue
        final = rec["final"]
        if final not in LEVEL_BY_LABEL:
            raise SchemaViolation("final", f"unknown level name {final!r}")
        pairs.append((gt, LEVEL_BY_LABEL[final]))
    if not pairs:
        raise NoGroundTruth()
    report = evaluate_mod.compute_metrics(
        evaluate_mod.confusion_matrix(pairs), config_tag=args.tag
    )
    sys.stdout.write(
        evaluate_mod.render_report(report, "json" if args.json else "text")
    )
    return 0


def _cmd_train_meta(args) -> int:
    manifest = dataset_io.load_manifest(args.manifest)
    config, _ = load_config_file(_config_path(args))
    backend = FileBackend(manifest)

    X, y, skipped = [], [], 0
    for entry in manifest.images:
        if entry.ground_truth_level is None:
            skipped += 1
            continue
        try:
            out = run_cascade(entry, backend)
        except RuinscoreError as exc:
            exc.image_id = entry.id
            raise
        rule = rule_fusion(out, config)
        X.append(meta.extract_features(out, rule, config))
        y.append(entry.ground_truth_level)
    if not X:
        raise DegenerateData("no manifest entry carries ground_truth_level")
    if skipped:
        print(f"ignored {skipped} entries without ground truth", file=sys.stderr)

    hyper = meta.TrainHyper(
        logreg=meta.LogRegHyper(
            learning_rate=args.learning_rate, l2=args.l2, iterations=args.iterations
        ),
        gbdt=meta.GbdtHyper(
            rounds=args.rounds,
            learning_rate=args.learning_rate,
            max_depth=args.max_depth,
            min_leaf=args.min_leaf,
            lam=args.reg_lambda,
        ),
    )
    if args.kind == "logreg":
        model = meta.train_logreg(X, y, hyper)
        final_loss = model.final_loss
    else:
        model = meta.train_gbdt(X, y, hyper)
        final_loss = model.loss_trace[-1]
        if model.degenerate:
            print("warning: single-class training set, priors-only model", file=sys.stderr)
    accuracy = meta.training_accuracy(model, X, y)
    meta.save_model(model, args.out)
    print(
        f"trained {args.kind}: n={len(y)} training_accuracy={accuracy:.4f} "
        f"final_loss={final_loss:.6f} model={args.out}"
    )
    return 0


def _cmd_fuse(args) -> int:
    config, _ = load_config_file(_config_path(args))
    if args.version:
        config = config.with_version(FusionVersion(args.version))
    path = Path(args.detections)
    dets = dataset_io.read_detections(
        path, dataset_io.DEFAULT_DAMAGE_CLASS_MAP, DetectionKind.DAMAGE
    )
    cascade = CascadeOutput(
        image_id=path.name,
        scene=SceneLabel(SceneClass(args.scene), 1.0),
        components=(),
        damages=tuple(dets),
    )
    rule = rule_fusion(cascade, config)
    if rule.rebar_forced:
        print(f"{rule.level.label} (rebar_forced)")
    else:
        print(f"{rule.level.label} (S={rule.score})")
    c = rule.counts
    print(
        f"counts: crack={c.n_crack} spall={c.n_spall} "
        f"rebar_raw={c.n_rebar_raw} rebar_valid={c.n_rebar_valid}"
    )
    print(f"filters: {', '.join(rule.applied_filters) if rule.applied_filters else 'none'}")
    return 0


def _cmd_gen_synthetic(args) -> int:
    priors = tuple(float(v) for v in args.level_priors.split(","))
    if len(priors) != 4:
        raise SchemaViolation("level_priors", "expected 4 comma-separated numbers")
    try:
        spec = synth.SynthSpec(
            seed=args.seed,
            n_images=args.n,
            noise=synth.NoiseSpec(
                false_positive_rate=args.false_positive_rate,
                confidence_jitter_sd=args.confidence_jitter_sd,
                drop_rate=args.drop_rate,
            ),
            level_priors=priors,
        )
    except ValueError as exc:
        raise SchemaViolation("$", str(exc)) from None
    manifest = synth.gen_synthetic(spec, args.out)
    print(f"wrote {len(manifest.images)} images to {args.out}")
    return 0


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:  # NaN fails too
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {value}")
    return value


def non_negative_float(text: str) -> float:
    value = float(text)
    if not 0 <= value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and >= 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ruinscore",
        description="Grade earthquake damage evidence by rule fusion and meta-models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("assess", help="run the cascade and fusion over a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help=f"JSON config (fallback: ${CONFIG_ENV_VAR})")
    p.add_argument("--backend", choices=["file", "external"], default="file")
    p.add_argument("--meta-model", dest="meta_model")
    p.add_argument("--out", help="write JSONL here instead of stdout")
    p.add_argument("--jobs", type=positive_int, default=1)
    p.add_argument("--keep-going", action="store_true")
    p.set_defaults(func=_cmd_assess)

    p = sub.add_parser("evaluate", help="score an assessment stream against ground truth")
    p.add_argument("--assessments", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--json", action="store_true")
    p.add_argument("--tag", default="assess")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("train-meta", help="train a meta-model on a labeled manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help=f"JSON config (fallback: ${CONFIG_ENV_VAR})")
    p.add_argument("--kind", choices=["logreg", "gbdt"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--learning-rate", type=positive_float, default=0.1)
    p.add_argument("--l2", type=non_negative_float, default=1e-3)
    p.add_argument("--iterations", type=non_negative_int, default=500)
    p.add_argument("--rounds", type=non_negative_int, default=50)
    p.add_argument("--max-depth", type=positive_int, default=3)
    p.add_argument("--min-leaf", type=positive_int, default=5)
    p.add_argument("--reg-lambda", type=positive_float, default=1.0)
    p.set_defaults(func=_cmd_train_meta)

    p = sub.add_parser("fuse", help="fuse one detection file into a level with explanation")
    p.add_argument("--detections", required=True)
    p.add_argument("--scene", choices=["inside", "outside"], default="outside")
    p.add_argument("--version", choices=["v1", "v2"])
    p.add_argument("--config", help=f"JSON config (fallback: ${CONFIG_ENV_VAR})")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser("gen-synthetic", help="generate a deterministic synthetic dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--false-positive-rate", type=float, default=0.0)
    p.add_argument("--confidence-jitter-sd", type=float, default=0.0)
    p.add_argument("--drop-rate", type=float, default=0.0)
    p.add_argument("--level-priors", default="0.25,0.25,0.25,0.25")
    p.set_defaults(func=_cmd_gen_synthetic)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except RuinscoreError as exc:
        payload = {"error": type(exc).__name__, "detail": str(exc)}
        if exc.image_id is not None:
            payload["image_id"] = exc.image_id
        print(json.dumps(payload), file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
