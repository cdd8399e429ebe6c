#!/usr/bin/env python3
"""Backend stub whose every reply names the image and task it answers.

    keyed_backend.py [MARKER]

Replies carry no task echo. For an image whose stem has n characters the
scene is "inside" when n is odd, else "outside"; the components reply holds
n % 3 columns and the damage reply n cracks. A components reply read for a
damage request fails on the column class, and a detection reply read for a
scene request fails the scene schema, so a reply shifted by one request
shows. While the file MARKER does not exist, the child creates it and exits
right after answering its 4th request, mid-way through the second image.
Without MARKER every child exits after its 4th request.
"""

import json
import os
import sys

marker = sys.argv[1] if len(sys.argv) > 1 else None
exit_after = None if marker and os.path.exists(marker) else 4
for count, line in enumerate(sys.stdin, 1):
    request = json.loads(line)
    n = len(os.path.splitext(os.path.basename(request["image"]))[0])
    if request["task"] == "scene":
        response = {"scene": "inside" if n % 2 else "outside", "confidence": 1.0}
    elif request["task"] == "components":
        column = {"class": "column", "box": [0.5, 0.5, 0.4, 0.8], "confidence": 0.9}
        response = {"detections": [column] * (n % 3)}
    else:
        crack = {"class": "crack", "box": [0.5, 0.5, 0.2, 0.2], "confidence": 0.9}
        response = {"detections": [crack] * n}
    print(json.dumps(response), flush=True)
    if count == exit_after:
        if marker:
            open(marker, "w").close()
        sys.exit(0)
