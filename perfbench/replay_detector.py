#!/usr/bin/env python3
"""Replay detector for the external-backend workload.

Answers ruinscore's wire protocol (one JSON request line in, one JSON reply
line out, tasks scene/components/damage) from the box-text files of a
synthetic corpus, so `assess --backend external` must reproduce the grades of
`assess --backend file` on the same corpus byte for byte.

    python3 replay_detector.py CORPUS_MANIFEST

Requests are keyed on the basename of `image` without its extension, so the
answer does not depend on how the engine spells the path. The script uses
the standard library only, so its own cost does not move with the engine.
"""

from __future__ import annotations

import json
import os
import sys


def load_index(manifest_path: str) -> tuple[dict, dict]:
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    root = os.path.dirname(os.path.abspath(manifest_path))
    class_maps = manifest["class_maps"]
    names = {
        "damage": {int(k): v for k, v in class_maps["damage"].items()},
        "components": {int(k): v for k, v in class_maps["component"].items()},
    }
    index = {}
    for entry in manifest["images"]:
        files = {"damage": entry["damage_file"], "components": entry.get("components_file")}
        index[entry["id"]] = (
            entry["scene"],
            {k: v and os.path.join(root, v) for k, v in files.items()},
        )
    return index, names


def read_boxes(path: str | None, class_names: dict) -> list[dict]:
    if path is None:
        return []
    detections = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            numbers = [float(f) for f in fields[1:]]
            detections.append(
                {
                    "class": class_names[int(fields[0])],
                    "box": numbers[:4],
                    "confidence": numbers[4] if len(numbers) == 5 else 1.0,
                }
            )
    return detections


def answer(request: dict, index: dict, names: dict) -> dict:
    task = request["task"]
    key = os.path.splitext(os.path.basename(request["image"]))[0]
    scene, files = index[key]
    if task == "scene":
        return {"scene": scene, "confidence": 1.0, "task": task}
    return {"detections": read_boxes(files[task], names[task]), "task": task}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: replay_detector.py CORPUS_MANIFEST", file=sys.stderr)
        return 2
    index, names = load_index(argv[1])
    for line in sys.stdin:
        sys.stdout.write(json.dumps(answer(json.loads(line), index, names)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
