#!/usr/bin/env python3
"""Backend stub that misbehaves on the first request it ever gets.

    misbehave_once_backend.py exit|deep MARKER

While the file MARKER does not exist, the next request creates it and then
either gets its reply after which the child exits (exit), or gets a JSON
array nested 100000 deep as its reply (deep). Every other request is
answered at once. Replies carry no task echo and depend on the request, so
a reply read for the wrong image shows: the damage reply holds one crack
per character of the image's stem.
"""

import json
import os
import sys

mode, marker = sys.argv[1], sys.argv[2]
for line in sys.stdin:
    request = json.loads(line)
    first = not os.path.exists(marker)
    if first:
        open(marker, "w").close()
        if mode == "deep":
            print("[" * 100_000 + "]" * 100_000, flush=True)
            continue
    if request["task"] == "scene":
        response = {"scene": "outside", "confidence": 1.0}
    elif request["task"] == "components":
        response = {"detections": []}
    else:
        stem = os.path.splitext(os.path.basename(request["image"]))[0]
        crack = {"class": "crack", "box": [0.5, 0.5, 0.2, 0.2], "confidence": 0.9}
        response = {"detections": [crack] * len(stem)}
    print(json.dumps(response), flush=True)
    if first and mode == "exit":
        sys.exit(0)
