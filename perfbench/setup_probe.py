#!/usr/bin/env python3
"""Set-up probe: a fresh interpreter that does what a command does before
its first image, timed from outside by run.py.

    python3 setup_probe.py MANIFEST CONFIG [MODEL]

Imports ruinscore and calls the loaders `assess` and `train-meta` call first:
dataset_io.load_manifest, cli.load_config_file and, with MODEL,
meta.load_model. Prints one JSON line of machine facts and the names of
loaders that no longer exist (those are skipped, not failed).
"""

from __future__ import annotations

import json
import platform
import sys


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print("usage: setup_probe.py MANIFEST CONFIG [MODEL]", file=sys.stderr)
        return 2
    import numpy

    import ruinscore
    from ruinscore import cli, dataset_io, meta

    loaders = [(dataset_io, "load_manifest", argv[0]), (cli, "load_config_file", argv[1])]
    if len(argv) == 3:
        loaders.append((meta, "load_model", argv[2]))
    absent = []
    for module, name, path in loaders:
        loader = getattr(module, name, None)
        if loader is None:
            absent.append(f"{module.__name__}.{name}")
        else:
            loader(path)

    try:
        from ruinscore.meta import _kernels

        kernel = _kernels.backend_name()
    except (ImportError, AttributeError):
        kernel = None
    facts = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "split_kernel": kernel,
        "ruinscore_file": ruinscore.__file__,
        "absent_loaders": absent,
    }
    print(json.dumps(facts))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
