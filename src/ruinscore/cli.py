"""Command-line entry point: assess, evaluate, train-meta, fuse, gen-synthetic.

assess streams one JSON record per image (JSONL), working through the
manifest in fixed-size chunks, so corpora of any size process with bounded
memory whatever --jobs is. Everything runs in the calling thread; --jobs N
is the number of external backend children, capped at the chunk size (a
chunk deals out no more images than that). Each chunk runs its stages in
order, each over the whole chunk: one exchange with the children (external
backend only), the cascade, rule fusion, feature extraction and one batch
meta predict (hybrid only), then one write of the chunk's records. A failing
image ends the cascade stage, so the records before it are written before
its error is raised; under --keep-going it is skipped instead, and its
error goes to stderr as the same JSON line a fatal failure prints. train-meta
runs the same cascade stage chunk by chunk, and fuse runs one detection file
through it as a one-entry manifest. Exit codes: 0 success, 1 runtime failure
(structured JSON error on stderr), 2 usage error. Every command writes its
stdout through one helper, so a stdout whose reader is gone is an IoFailure
like any other failed write.

Each command imports only what it runs: numpy and the meta package load only
in the commands that load or train a meta-model (and `meta.hyper` only in
train-meta), `evaluate` only in evaluate, `synth` only in gen-synthetic, and
the external backend's `subprocess` and `selectors` only when it starts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import dataclass, replace

from . import dataset_io, fusion
from .backend import (
    DEFAULT_TIMEOUT_S,
    ExternalBackend,
    FileBackend,
    cascade_tasks,
    run_cascade,
)
from .dataset_io import LEVEL_BY_LABEL, DamageLevel, DatasetManifest, ImageEntry, SceneClass
from .errors import (
    DegenerateData,
    DimensionMismatch,
    IoFailure,
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
    """The config file's "backend" section: the external command and its reply timeout."""

    command: tuple[str, ...] | None = None
    timeout_s: float = DEFAULT_TIMEOUT_S


def load_config_file(path: str | os.PathLike | None) -> tuple[FusionConfig, BackendSettings]:
    """Load the JSON config; the optional top-level "backend" section is split
    off here so FusionConfig keeps its strict unknown-key rejection."""
    if path is None:
        return FusionConfig(), BackendSettings()
    raw = dataset_io.decode_json(dataset_io.read_text(path))
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
    return getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR) or None


def _write(stream, text: str, what: str) -> None:
    """Write and flush `text`, so a failing write shows here and not at exit:
    a full disk, or a stdout whose reader is gone, is an IoFailure."""
    try:
        stream.write(text)
        stream.flush()
    except OSError as exc:
        raise IoFailure(f"cannot write {what}: {exc}") from None


def _error_line(exc: RuinscoreError) -> str:
    """The JSON line stderr carries for a failure, fatal or skipped."""
    payload = {"error": type(exc).__name__, "detail": str(exc)}
    if exc.image_id is not None:
        payload["image_id"] = exc.image_id
    return dataset_io.encode_json_line(payload)


def _assessment_record(out, rule, probs, final) -> dict:
    return {
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


def _cascade_chunk(chunk, backend, keep_going: bool) -> tuple[list, RuinscoreError | None]:
    """The cascade outputs of a chunk's entries in manifest order, and the
    failure, tagged with its image id, that ended the chunk early. Under
    `keep_going` a failing entry is skipped with its error line on stderr instead."""
    outs = []
    for entry in chunk:
        try:
            outs.append(run_cascade(entry, backend))
        except RuinscoreError as exc:
            exc.image_id = entry.id
            if not keep_going:
                return outs, exc
            sys.stderr.write(_error_line(exc))
    return outs, None


def _cmd_assess(args) -> int:
    manifest = dataset_io.load_manifest(args.manifest)
    config, backend_cfg = load_config_file(_config_path(args))
    model = None
    if args.meta_model:
        from . import meta

        model = meta.load_model(args.meta_model)
        if model.dim != meta.FEATURE_DIM:
            raise DimensionMismatch(meta.FEATURE_DIM, model.dim)
    if config.decision_mode is not DecisionMode.RULE_ONLY and model is None:
        raise MissingMeta(config.decision_mode.value)

    external = args.backend == "external"
    if external and backend_cfg.command is None:
        raise SchemaViolation("backend.command", "external backend selected but no command configured")
    images = manifest.images
    backend = None if external else FileBackend(manifest)
    try:
        out_stream = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    except OSError as exc:
        raise IoFailure(f"cannot write assessments to {args.out}: {exc}") from None
    try:
        if external and images:  # children start only for images that exist
            # a chunk's images go to at most CHUNK_SIZE children; more never get one
            jobs = min(args.jobs, CHUNK_SIZE)
            backend = ExternalBackend(backend_cfg.command, backend_cfg.timeout_s, jobs)
        for start in range(0, len(images), CHUNK_SIZE):
            chunk = images[start : start + CHUNK_SIZE]
            if external:
                backend.exchange([(entry, cascade_tasks(entry)) for entry in chunk])
            outs, failure = _cascade_chunk(chunk, backend, args.keep_going)
            rules = [rule_fusion(out, config) for out in outs]
            probs = [None] * len(outs)
            if model is not None and outs:
                rows = [meta.extract_features(out, rule) for out, rule in zip(outs, rules)]
                probs = meta.predict_batch(model, rows).tolist()
            records = (
                _assessment_record(out, rule, p, fusion.final_decision(rule, p, config))
                for out, rule, p in zip(outs, rules, probs)
            )
            _write(
                out_stream,
                "".join(map(dataset_io.encode_json_line, records)),
                f"assessments to {args.out or 'stdout'}",
            )
            if failure is not None:
                raise failure
    finally:
        if args.out:
            out_stream.close()
        if external and backend is not None:
            backend.close()
    return 0


def read_assessments(path: str | os.PathLike) -> dict[str, DamageLevel]:
    """Each record's image id and final level, checked line by line."""
    levels = {}
    for line_no, line in enumerate(dataset_io.read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        rec = dataset_io.decode_json(line, f"line {line_no}")
        if not isinstance(rec, dict) or "image_id" not in rec or "final" not in rec:
            raise SchemaViolation(f"line {line_no}", "record needs image_id and final")
        image_id = rec["image_id"]
        if not isinstance(image_id, str):
            raise SchemaViolation(f"line {line_no}", "image_id must be a string")
        final = rec["final"]
        if not isinstance(final, str):
            raise SchemaViolation(f"line {line_no}", "final must be a string")
        if final not in LEVEL_BY_LABEL:
            raise SchemaViolation(f"line {line_no}", f"unknown level name {final!r}")
        if image_id in levels:
            raise SchemaViolation(f"line {line_no}", f"duplicate image_id {image_id!r}")
        levels[image_id] = LEVEL_BY_LABEL[final]
    return levels


def _cmd_evaluate(args) -> int:
    from . import evaluate as evaluate_mod

    manifest = dataset_io.load_manifest(args.manifest)
    predicted = read_assessments(args.assessments)
    pairs = [
        (e.ground_truth_level, predicted[e.id])
        for e in manifest.images
        if e.ground_truth_level is not None and e.id in predicted
    ]
    if not pairs:
        raise NoGroundTruth()
    report = evaluate_mod.compute_metrics(
        evaluate_mod.confusion_matrix(pairs), config_tag=args.tag
    )
    text = evaluate_mod.render_report(report, "json" if args.json else "text")
    _write(sys.stdout, text, "report to stdout")
    return 0


def _cmd_train_meta(args) -> int:
    from . import meta
    from .meta.hyper import GbdtHyper, LogRegHyper

    manifest = dataset_io.load_manifest(args.manifest)
    config, _ = load_config_file(_config_path(args))
    backend = FileBackend(manifest)

    labeled = [entry for entry in manifest.images if entry.ground_truth_level is not None]
    X = []
    for start in range(0, len(labeled), CHUNK_SIZE):
        chunk = labeled[start : start + CHUNK_SIZE]
        outs, failure = _cascade_chunk(chunk, backend, keep_going=False)
        if failure is not None:
            raise failure
        X += [meta.extract_features(out, rule_fusion(out, config)) for out in outs]
    if not X:
        raise DegenerateData("no manifest entry carries ground_truth_level")
    y = [entry.ground_truth_level for entry in labeled]
    skipped = len(manifest.images) - len(labeled)
    if skipped:
        print(f"ignored {skipped} entries without ground truth", file=sys.stderr)

    if args.kind == "logreg":
        hp = LogRegHyper(learning_rate=args.learning_rate, l2=args.l2, iterations=args.iterations)
        model = meta.train_logreg(X, y, hp)
    else:
        hp = GbdtHyper(
            rounds=args.rounds,
            learning_rate=args.learning_rate,
            max_depth=args.max_depth,
            min_leaf=args.min_leaf,
            lam=args.reg_lambda,
        )
        model = meta.train_gbdt(X, y, hp)
        if model.degenerate:
            print("warning: single-class training set, priors-only model", file=sys.stderr)
    accuracy = meta.training_accuracy(model, X, y)
    meta.save_model(model, args.out)
    _write(
        sys.stdout,
        f"trained {args.kind}: n={len(y)} training_accuracy={accuracy:.4f} "
        f"final_loss={model.loss_trace[-1]:.6f} model={args.out}\n",
        "training summary to stdout",
    )
    return 0


def _cmd_fuse(args) -> int:
    config, _ = load_config_file(_config_path(args))
    if args.version:
        config = replace(config, version=FusionVersion(args.version))
    entry = ImageEntry(
        args.detections, scene_override=SceneClass(args.scene), damage_file=args.detections
    )
    rule = rule_fusion(run_cascade(entry, FileBackend(DatasetManifest((entry,)))), config)
    c = rule.counts
    why = "rebar_forced" if rule.rebar_forced else f"S={rule.score}"
    _write(
        sys.stdout,
        f"{rule.level.label} ({why})\n"
        f"counts: crack={c.n_crack} spall={c.n_spall} "
        f"rebar_raw={c.n_rebar_raw} rebar_valid={c.n_rebar_valid}\n"
        f"filters: {', '.join(rule.applied_filters) or 'none'}\n",
        "fusion result to stdout",
    )
    return 0


def _cmd_gen_synthetic(args) -> int:
    from . import synth

    try:
        priors = tuple(float(v) for v in args.level_priors.split(","))
    except ValueError:  # a part that is not a number
        priors = ()
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
    _write(sys.stdout, f"wrote {len(manifest.images)} images to {args.out}\n", "summary to stdout")
    return 0


def bounded(cast, low: float, strict: bool = False):
    """An argparse type: a finite `cast` number >= `low`, or > `low` if `strict`."""

    def parse(text: str):
        value = cast(text)
        if not (value > low if strict else value >= low) or value == math.inf:  # NaN fails too
            raise argparse.ArgumentTypeError(
                f"must be finite and {'>' if strict else '>='} {low}, got {value}"
            )
        return value

    parse.__name__ = cast.__name__  # argparse names the type when `cast` fails
    return parse


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
    p.add_argument("--jobs", type=bounded(int, 1), default=1)
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
    p.add_argument("--learning-rate", type=bounded(float, 0, strict=True), default=0.1)
    p.add_argument("--l2", type=bounded(float, 0), default=1e-3)
    p.add_argument("--iterations", type=bounded(int, 0), default=500)
    p.add_argument("--rounds", type=bounded(int, 0), default=50)
    p.add_argument("--max-depth", type=bounded(int, 1), default=3)
    p.add_argument("--min-leaf", type=bounded(int, 1), default=5)
    p.add_argument("--reg-lambda", type=bounded(float, 0, strict=True), default=1.0)
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
        sys.stderr.write(_error_line(exc))
        return 1


def entry() -> None:
    sys.exit(main())
