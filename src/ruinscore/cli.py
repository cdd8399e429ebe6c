"""Command-line entry point: assess, evaluate, train-meta, fuse, gen-synthetic.

assess streams one JSON record per image (JSONL), working through the
manifest in fixed-size chunks, so corpora of any size process with bounded
memory whatever --jobs is. Everything runs in the calling thread; --jobs N
is the number of external backend children, capped at the chunk size (a
chunk deals out no more images than that). Each chunk runs its stages in
order, each over the whole chunk: the cascade, which the backend's
`cascade_chunk` yields image by image (the external backend exchanges the
whole chunk with its children first), rule fusion, feature extraction and
one batch meta predict (hybrid only), then one write of the chunk's
records. One generator, `_graded`, runs the cascade and rule fusion for
assess and train-meta alike. A failing image ends its chunk's cascade, so no
image after it is read or asked for again, and its error is raised once the
chunk's records are written; under --keep-going it is skipped instead, and
its error goes to stderr as the same JSON line a fatal failure prints.
train-meta writes each image's features into its training matrix. fuse does
not chunk: it takes its one detection file's result from the file backend's
`cascade_chunk`, as a one-entry manifest. Exit codes: 0 success, 1
runtime failure (structured JSON error on stderr), 2 usage error. Every
command writes its stdout through one helper, so a stdout whose reader is
gone is an IoFailure like any other failed write.

Each command imports only what it runs: numpy and the meta package load only
in the commands that load or train a meta-model (and `meta.hyper` only in
train-meta), `evaluate` only in evaluate, `synth` only in gen-synthetic, and
the external backend's `subprocess` and `selectors` only when it starts.
The console entry point freezes the heap before the interpreter exits (see
`entry`).
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import dataclass, fields, replace

from . import dataset_io, fusion
from .backend import DEFAULT_TIMEOUT_S, Backend, ExternalBackend, FileBackend
from .dataset_io import DatasetManifest, ImageEntry, SceneClass
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
    backend_cfg = BackendSettings()
    if isinstance(raw, dict) and "backend" in raw:  # FusionConfig.from_dict words a non-object
        section = dataset_io.check_object(raw.pop("backend"), {"command", "timeout_s"}, "backend")
        command = section.get("command")
        if command is not None and (
            not isinstance(command, list)
            or not command
            or not all(isinstance(c, str) for c in command)
        ):
            raise SchemaViolation("backend.command", "must be a nonempty list of strings")
        timeout_s = section.get("timeout_s", DEFAULT_TIMEOUT_S)
        dataset_io.check_number(timeout_s, "backend.timeout_s")
        if timeout_s <= 0:
            raise SchemaViolation("backend.timeout_s", "must be a positive number")
        backend_cfg = BackendSettings(
            command=tuple(command) if command else None, timeout_s=float(timeout_s)
        )
    return FusionConfig.from_dict(raw), backend_cfg


def _config_path(args) -> str | None:
    return getattr(args, "config", None) or os.environ.get(CONFIG_ENV_VAR) or None


def _given(args, spec) -> dict:
    """The fields of dataclass `spec` that the command line set."""
    names = {f.name for f in fields(spec)}
    return {name: value for name, value in vars(args).items() if name in names}


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
        "scene": {"class": out.scene.value, "confidence": out.scene_confidence},
        "counts": {
            "n_crack": rule.n_crack,
            "n_spall": rule.n_spall,
            "n_rebar_raw": rule.n_rebar_raw,
            "n_rebar_valid": rule.n_rebar_valid,
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


def _graded(entries, backend: Backend, config: FusionConfig, keep_going: bool):
    """Each CHUNK_SIZE slice of `entries` as `(outs, rules)`: the cascade
    outputs served, in manifest order, and their rule fusion decisions. A
    failing entry gets its image id and, under `keep_going`, a stderr line;
    otherwise it ends the chunk, raised once the caller asks for the next."""
    for start in range(0, len(entries), CHUNK_SIZE):
        chunk = entries[start : start + CHUNK_SIZE]
        outs, failure = [], None
        for entry, out in zip(chunk, backend.cascade_chunk(chunk)):
            if isinstance(out, RuinscoreError):
                out.image_id = entry.id
                if not keep_going:
                    failure = out
                    break
                sys.stderr.write(_error_line(out))
            else:
                outs.append(out)
        yield outs, [rule_fusion(out, config) for out in outs]
        if failure is not None:
            raise failure


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
        for outs, rules in _graded(images, backend, config, args.keep_going):
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
    finally:
        if args.out:
            out_stream.close()
        if external and backend is not None:
            backend.close()
    return 0


def _cmd_evaluate(args) -> int:
    from . import evaluate as evaluate_mod

    manifest = dataset_io.load_manifest(args.manifest)
    predicted = evaluate_mod.read_assessments(args.assessments)
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
    import numpy as np

    from . import meta
    from .meta.hyper import GbdtHyper, LogRegHyper

    hyper, other = (LogRegHyper, GbdtHyper) if args.kind == "logreg" else (GbdtHyper, LogRegHyper)
    # a flag of the other kind alone is a usage error, not silently dropped
    if stray := sorted(_given(args, other).keys() - _given(args, hyper).keys()):
        flag = "--reg-lambda" if stray[0] == "lam" else "--" + stray[0].replace("_", "-")
        kind = "gbdt" if args.kind == "logreg" else "logreg"
        print(f"ruinscore train-meta: error: {flag} is a {kind} flag; --kind is {args.kind}",
              file=sys.stderr)
        return 2
    manifest = dataset_io.load_manifest(args.manifest)
    config, _ = load_config_file(_config_path(args))
    backend = FileBackend(manifest)

    labeled = [entry for entry in manifest.images if entry.ground_truth_level is not None]
    if not labeled:
        raise DegenerateData("no manifest entry carries ground_truth_level")
    # the one training matrix: each image's features are written into it
    X = np.empty((len(labeled), meta.FEATURE_DIM), dtype=np.float64)
    row = 0
    for outs, rules in _graded(labeled, backend, config, keep_going=False):
        for out, rule in zip(outs, rules):
            X[row] = meta.extract_features(out, rule)
            row += 1
    y = [entry.ground_truth_level for entry in labeled]

    train = meta.train_logreg if args.kind == "logreg" else meta.train_gbdt
    model = train(X, y, hyper(**_given(args, hyper)))
    # the trainer's own probabilities of its rows: no second predict
    hits = sum(p == t for p, t in zip(model.training_probs.argmax(axis=1).tolist(), y))
    accuracy = hits / len(y)
    meta.save_model(model, args.out)
    _write(
        sys.stdout,
        f"trained {args.kind}: n={len(y)} training_accuracy={accuracy:.4f} "
        f"final_loss={model.loss_trace[-1]:.6f} model={args.out}\n",
        "training summary to stdout",
    )
    # notices follow success, so a failed run prints its JSON error line alone
    if skipped := len(manifest.images) - len(labeled):
        print(f"ignored {skipped} entries without ground truth", file=sys.stderr)
    if args.kind == "gbdt" and model.degenerate:
        print("warning: single-class training set, priors-only model", file=sys.stderr)
    return 0


def _cmd_fuse(args) -> int:
    config, _ = load_config_file(_config_path(args))
    if args.version:
        config = replace(config, version=FusionVersion(args.version))
    entry = ImageEntry(
        args.detections, scene_override=SceneClass(args.scene), damage_file=args.detections
    )
    [out] = FileBackend(DatasetManifest((entry,))).cascade_chunk((entry,))
    if isinstance(out, RuinscoreError):
        raise out
    rule = rule_fusion(out, config)
    why = "rebar_forced" if rule.rebar_forced else f"S={rule.score}"
    _write(
        sys.stdout,
        f"{rule.level.label} ({why})\n"
        f"counts: crack={rule.n_crack} spall={rule.n_spall} "
        f"rebar_raw={rule.n_rebar_raw} rebar_valid={rule.n_rebar_valid}\n"
        f"filters: {', '.join(rule.applied_filters) or 'none'}\n",
        "fusion result to stdout",
    )
    return 0


def _cmd_gen_synthetic(args) -> int:
    from . import synth

    given = _given(args, synth.SynthSpec)
    if "level_priors" in given:
        try:
            priors = tuple(float(v) for v in given["level_priors"].split(","))
        except ValueError:  # a part that is not a number
            priors = ()
        if len(priors) != 4:
            raise SchemaViolation("level_priors", "expected 4 comma-separated numbers")
        given["level_priors"] = priors
    try:
        spec = synth.SynthSpec(**given)
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

    # train-meta and gen-synthetic set only the flags given: every other
    # field keeps the default its library type declares
    p = sub.add_parser(
        "train-meta",
        help="train a meta-model on a labeled manifest",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", help=f"JSON config (fallback: ${CONFIG_ENV_VAR})")
    p.add_argument("--kind", choices=["logreg", "gbdt"], required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--learning-rate", type=bounded(float, 0, strict=True))
    p.add_argument("--l2", type=bounded(float, 0))
    p.add_argument("--iterations", type=bounded(int, 0))
    p.add_argument("--rounds", type=bounded(int, 0))
    p.add_argument("--max-depth", type=bounded(int, 1))
    p.add_argument("--min-leaf", type=bounded(int, 1))
    p.add_argument(
        "--reg-lambda", dest="lam", metavar="REG_LAMBDA", type=bounded(float, 0, strict=True)
    )
    p.set_defaults(func=_cmd_train_meta)

    p = sub.add_parser("fuse", help="fuse one detection file into a level with explanation")
    p.add_argument("--detections", required=True)
    p.add_argument("--scene", choices=["inside", "outside"], default="outside")
    p.add_argument("--version", choices=["v1", "v2"])
    p.add_argument("--config", help=f"JSON config (fallback: ${CONFIG_ENV_VAR})")
    p.set_defaults(func=_cmd_fuse)

    p = sub.add_parser(
        "gen-synthetic",
        help="generate a deterministic synthetic dataset",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", dest="n_images", metavar="N", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--false-positive-rate", type=float)
    p.add_argument("--confidence-jitter-sd", type=float)
    p.add_argument("--drop-rate", type=float)
    p.add_argument("--level-priors")
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
    """`python -m ruinscore` and the `ruinscore` script: run `main`, then exit."""
    code = main()
    # The process is about to end and the OS reclaims its memory whole, but
    # the interpreter's exit-time collections would first walk every object
    # numpy and ruinscore loaded. Frozen objects are left out of those walks.
    # The only cyclic garbage left by now is the argparse parser, which holds
    # no file, pipe or child, so no finalizer that matters is skipped; atexit
    # handlers and the final flush of stdout and stderr still run.
    gc.freeze()
    sys.exit(code)
