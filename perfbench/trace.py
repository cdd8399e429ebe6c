#!/usr/bin/env python3
"""Traced in-process run of one ruinscore CLI command, timed layer by layer.

    python3 trace.py STATS_JSON -- ARGV...

Imports ruinscore (from PYTHONPATH), wraps timers around the public entry
points of each layer, runs `ruinscore.cli.main(ARGV)` and writes the layer
statistics to STATS_JSON. Nothing under src/ is modified: each wrapper
replaces a function in every ruinscore module namespace (or class) that holds
it, which is where callers look it up. A hook whose target no longer exists
is reported under "absent" instead of failing the run, so a refactor that
removes an entry point only removes its metric.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from collections import Counter

# (span name, module, attribute path). Several targets may share a span name;
# their calls are added together. Predict entry points also count rows: one
# per call for the per-row functions, len(X) for the `_batch` ones.
HOOKS = (
    ("dataset_io.load_manifest", "ruinscore.dataset_io", "load_manifest"),
    ("dataset_io.parse", "ruinscore.dataset_io", "parse_box_text"),
    ("dataset_io.parse", "ruinscore.dataset_io", "detections_from_obj"),
    ("backend.file_query", "ruinscore.backend", "FileBackend.query"),
    ("backend.external_query", "ruinscore.backend", "ExternalBackend.query"),
    ("backend.exchange", "ruinscore.backend", "ExternalBackend.exchange"),
    ("backend.spawn", "ruinscore.backend", "ExternalBackend.__init__"),
    ("backend.cascade", "ruinscore.backend", "run_cascade"),
    ("fusion.rule_fusion", "ruinscore.fusion", "rule_fusion"),
    ("fusion.final_decision", "ruinscore.fusion", "final_decision"),
    ("meta.features", "ruinscore.meta.features", "extract_features"),
    ("meta.predict", "ruinscore.meta.gbdt", "predict_gbdt"),
    ("meta.predict", "ruinscore.meta.gbdt", "predict_gbdt_batch"),
    ("meta.predict", "ruinscore.meta.logreg", "predict_logreg"),
    ("meta.predict", "ruinscore.meta.logreg", "predict_logreg_batch"),
    ("meta.load_model", "ruinscore.meta.serialize", "load_model"),
    ("meta.save_model", "ruinscore.meta.serialize", "save_model"),
    ("meta.gbdt.train", "ruinscore.meta.gbdt", "train_gbdt"),
    ("meta.gbdt.split_scan", "ruinscore.meta._kernels", "best_split"),
    ("evaluate.report", "ruinscore.evaluate", "confusion_matrix"),
    ("evaluate.report", "ruinscore.evaluate", "compute_metrics"),
    ("evaluate.report", "ruinscore.evaluate", "render_report"),
)

# spans whose errors are counted by class (the backend's public calls)
ERROR_SPANS = {"backend.file_query", "backend.external_query"}
# spans whose arguments or results feed row counts and traffic shares
OBSERVED = {"meta.predict", "fusion.rule_fusion", "fusion.final_decision"}


class Tracer:
    """Collects per-span calls, inclusive and self time, rows and errors."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.local = threading.local()
        self.calls: Counter = Counter()
        self.total_s: Counter = Counter()
        self.self_s: Counter = Counter()
        self.rows: Counter = Counter()
        self.exchange_s: list[float] = []
        self.errors: Counter = Counter()
        self.traffic: Counter = Counter()
        self.top_level: list[tuple[float, float]] = []  # (start, end) of outermost spans

    def wrap(self, span: str, fn, batch: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(tracer.local, "stack", None)
            if stack is None:
                stack = tracer.local.stack = []
            children_s = [0.0]  # time covered by nested spans
            stack.append(children_s)
            start = time.perf_counter()
            error = None
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - start
                with tracer.lock:
                    tracer.calls[span] += 1
                    tracer.total_s[span] += dur
                    tracer.self_s[span] += dur - children_s[0]
                    if span == "backend.exchange":
                        tracer.exchange_s.append(dur)
                    if error is not None and span in ERROR_SPANS:
                        tracer.errors[type(error).__name__] += 1
                    if stack:
                        stack[-1][0] += dur
                    else:
                        tracer.top_level.append((start, end))
            if span in OBSERVED:
                tracer.observe(span, args, result, batch)
            return result

        wrapper.__wrapped_by_trace__ = True
        return wrapper

    def observe(self, span: str, args: tuple, result, batch: bool) -> None:
        """Count rows and the decisions the traffic shares are built from."""
        with self.lock:
            if span == "meta.predict":
                self.rows[span] += len(args[1]) if batch else 1
            elif span == "fusion.rule_fusion":
                self.traffic["images"] += 1
                self.traffic["rebar_forced"] += bool(getattr(result, "rebar_forced", False))
                self.traffic["ambiguity_bias"] += "ambiguity-bias" in getattr(
                    result, "applied_filters", ()
                )
            elif span == "fusion.final_decision" and args:
                rule_level = getattr(args[0], "level", None)
                self.traffic["meta_override"] += result != rule_level

    def covered_s(self) -> float:
        """Wall time covered by at least one outermost span, on any thread."""
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(self.top_level):
            if end <= reach:
                continue
            covered += end - max(start, reach)
            reach = end
        return covered


def resolve(module_name: str, attr_path: str):
    """(owner, attribute name, function) for a hook target, or None if gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, name = attr_path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(name) if isinstance(owner, type) else getattr(owner, name, None)
    if not callable(fn):
        return None
    return owner, name, fn


def install(tracer: Tracer) -> list[str]:
    """Wrap every hook target where callers look it up; returns absent spans."""
    import ruinscore

    for info in pkgutil.walk_packages(ruinscore.__path__, "ruinscore."):
        if info.name.endswith(".__main__"):
            continue
        try:
            importlib.import_module(info.name)
        except ImportError:
            pass  # optional compiled modules
    modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "ruinscore"]

    found: set[str] = set()
    for span, module_name, attr_path in HOOKS:
        target = resolve(module_name, attr_path)
        if target is None:
            continue
        owner, name, fn = target
        found.add(span)
        if getattr(fn, "__wrapped_by_trace__", False):
            continue
        wrapper = tracer.wrap(span, fn, attr_path.endswith("_batch"))
        if isinstance(owner, type):
            setattr(owner, name, wrapper)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, key, wrapper)
    return sorted({span for span, _, _ in HOOKS} - found)


def percentile_us(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))] * 1e6


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: trace.py STATS_JSON -- ARGV...", file=sys.stderr)
        return 2
    stats_path, cli_argv = argv[0], argv[2:]
    tracer = Tracer()
    absent = install(tracer)
    from ruinscore import cli

    rc = cli.main(cli_argv)
    stats = {
        "rc": rc,
        "covered_s": tracer.covered_s(),
        "absent": absent,
        "calls": dict(tracer.calls),
        "total_s": dict(tracer.total_s),
        "self_s": dict(tracer.self_s),
        "rows": dict(tracer.rows),
        "errors": dict(tracer.errors),
        "traffic": dict(tracer.traffic),
        "exchange_p50_us": percentile_us(tracer.exchange_s, 0.50),
        "exchange_p99_us": percentile_us(tracer.exchange_s, 0.99),
    }
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
