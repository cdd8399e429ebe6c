#!/usr/bin/env python3
"""Backend stub whose very first request stalls, across restarts.

    stall_first_backend.py MARKER

While the file MARKER does not exist, the next request creates it and then
sleeps far past any test timeout; every other request is answered at once.
Replies carry no task echo and depend on the request, so a reply read for
the wrong image shows: the scene is "inside" when the image file exists,
and the damage reply holds one crack per character of the image's stem.
"""

import json
import os
import sys
import time

marker = sys.argv[1]
for line in sys.stdin:
    request = json.loads(line)
    if not os.path.exists(marker):
        open(marker, "w").close()
        time.sleep(60)
    image = request["image"]
    if request["task"] == "scene":
        response = {"scene": "inside" if os.path.isfile(image) else "outside", "confidence": 1.0}
    elif request["task"] == "components":
        response = {"detections": []}
    else:
        stem = os.path.splitext(os.path.basename(image))[0]
        crack = {"class": "crack", "box": [0.5, 0.5, 0.2, 0.2], "confidence": 0.9}
        response = {"detections": [crack] * len(stem)}
    print(json.dumps(response), flush=True)
