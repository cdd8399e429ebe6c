#!/usr/bin/env python3
"""Backend stub answering from a manifest's files, dying at one image.

    files_backend.py MANIFEST DIE_ID

Scenes come from the manifest's "scene" keys (confidence 1.0) and
detections from its box-text files, so `assess --backend external` grades
as `assess --backend file` does on MANIFEST. Requests are keyed on the stem
of the image path. Instead of answering the components request of image
DIE_ID, the child exits with code 3.
"""

import json
import os
import sys

manifest_path, die_id = sys.argv[1], sys.argv[2]
root = os.path.dirname(os.path.abspath(manifest_path))
with open(manifest_path, encoding="utf-8") as fh:
    manifest = json.load(fh)
names = {
    "damage": {int(k): v for k, v in manifest["class_maps"]["damage"].items()},
    "components": {int(k): v for k, v in manifest["class_maps"]["component"].items()},
}
entries = {entry["id"]: entry for entry in manifest["images"]}


def detections(path, class_names):
    if path is None:
        return []
    out = []
    with open(os.path.join(root, path), encoding="utf-8") as fh:
        for line in fh:
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            numbers = [float(f) for f in fields[1:]]
            out.append(
                {
                    "class": class_names[int(fields[0])],
                    "box": numbers[:4],
                    "confidence": numbers[4] if len(numbers) == 5 else 1.0,
                }
            )
    return out


for line in sys.stdin:
    request = json.loads(line)
    task = request["task"]
    image_id = os.path.splitext(os.path.basename(request["image"]))[0]
    entry = entries[image_id]
    if task == "scene":
        response = {"scene": entry["scene"], "confidence": 1.0}
    elif task == "components":
        if image_id == die_id:
            sys.exit(3)
        response = {"detections": detections(entry.get("components_file"), names[task])}
    else:
        response = {"detections": detections(entry["damage_file"], names[task])}
    print(json.dumps(response), flush=True)
