"""The benchmark's trace hooks and set-up loaders must name functions that
still exist.

perfbench/trace.py reports a hook whose target is gone as "absent" and reads
its per-layer metric as 0, so a rename would silently blank a metric. This
test reads the hook table and resolves each target with trace.py's own
`resolve`, leaving perfbench/ untouched. perfbench/setup_probe.py likewise
skips a loader it cannot find, so a rename would read as a faster set-up;
the loaders it names in its text must resolve too.
"""

from __future__ import annotations

import ast
import importlib
import types
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACE = PERFBENCH / "trace.py"
SETUP_PROBE = PERFBENCH / "setup_probe.py"
# targets that no longer exist; each hook goes at the next benchmark change.
# best_split's compiled kernel was removed; the one-row predicts were too, and
# the meta.predict span still resolves through the `_batch` targets. Both
# backends yield a chunk's results from one `cascade_chunk` generator, so
# neither has a per-image query or cascade call: FileBackend.query,
# ExternalBackend.query and run_cascade are gone, the backend.cascade and
# backend.external_query spans read absent, and the cascade's time lands in
# cli.self_s (ExternalBackend.exchange is still timed)
KNOWN_ABSENT = {
    ("ruinscore.backend", "ExternalBackend.query"),
    ("ruinscore.backend", "FileBackend.query"),
    ("ruinscore.backend", "run_cascade"),
    ("ruinscore.meta._kernels", "best_split"),
    ("ruinscore.meta.gbdt", "predict_gbdt"),
    ("ruinscore.meta.logreg", "predict_logreg"),
}


def load_trace() -> types.ModuleType:
    """trace.py as a module, compiled from its text so no bytecode is written."""
    module = types.ModuleType("perfbench_trace")
    module.__file__ = str(TRACE)
    exec(compile(TRACE.read_text(encoding="utf-8"), str(TRACE), "exec"), module.__dict__)
    return module


trace = load_trace()


@pytest.mark.parametrize(
    "span, module_name, attr_path",
    [hook for hook in trace.HOOKS if hook[1:] not in KNOWN_ABSENT],
    ids=str,
)
def test_hook_target_resolves(span, module_name, attr_path):
    assert trace.resolve(module_name, attr_path) is not None, f"{span}: {module_name}.{attr_path}"


def test_known_absent_hooks_are_still_listed():
    # once the benchmark re-points a hook, drop it from KNOWN_ABSENT
    assert KNOWN_ABSENT <= {hook[1:] for hook in trace.HOOKS}


def probe_loaders() -> list[tuple[str, str]]:
    """(module, function) of each `(module, "name", path)` loader tuple in
    setup_probe.py, its module named as the probe's `from ruinscore import`
    binds it."""
    tree = ast.parse(SETUP_PROBE.read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name: f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "ruinscore"
        for alias in node.names
    }
    return [
        (modules[node.elts[0].id], node.elts[1].value)
        for node in ast.walk(tree)
        if isinstance(node, ast.Tuple)
        and len(node.elts) == 3
        and isinstance(node.elts[0], ast.Name)
        and node.elts[0].id in modules
        and isinstance(node.elts[1], ast.Constant)
        and isinstance(node.elts[1].value, str)
    ]


def test_setup_probe_loaders_resolve():
    loaders = probe_loaders()
    assert loaders, "no loader tuple found in setup_probe.py"
    for module_name, name in loaders:
        loader = getattr(importlib.import_module(module_name), name, None)
        assert callable(loader), f"setup_probe.py loader {module_name}.{name}"
