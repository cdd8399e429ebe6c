"""Host-speed normalisation: times reported in reference seconds.

On a shared host, neighbours slow the CPU by up to 2x for seconds at a time;
CPU time slows with wall time, so neither is steady between runs. HostSpeed
pins this process (and so every child it starts) to one CPU and runs a
low-priority sidecar there that executes a fixed calibration block in a loop
and publishes (blocks done, its CPU time). Over any interval, the sidecar's
CPU time per block says how fast that CPU is running right now; a time
measured over the same interval is scaled by REF_BLOCK_S over that figure.
On an uncontended reference core, the scale is 1.

The block mixes interpreted Python (string split, int and float parsing)
with numpy sorting and prefix sums, the two kinds of work ruinscore does,
because contention slows them by different amounts. The sidecar runs at
nice 10 (about a tenth of the CPU while a command runs) and imports nothing
from ruinscore, so its cost does not move with the code under test. It
publishes its counters through a small memory-mapped file.
"""

from __future__ import annotations

import mmap
import os
import struct
import subprocess
import sys
import time
from pathlib import Path

# CPU time of one calibration block on an uncontended core, measured on a
# 2-vCPU Intel Xeon (family 6 model 207) KVM guest with Python 3.11 and
# numpy 2.4: about the 2nd percentile over 8000 blocks.
REF_BLOCK_S = 1.65e-3
SIDECAR_NICE = 10
MIN_BLOCKS = 3  # fewer blocks in an interval: use the whole run's rate
# shared state file: blocks done and sidecar CPU seconds (two doubles), then
# a stop byte the parent sets
STATE = struct.Struct("dd")
STOP_AT = STATE.size


def sidecar(state_path: str) -> None:
    import numpy as np

    os.nice(SIDECAR_NICE)
    with open(state_path, "r+b") as fh:
        state = mmap.mmap(fh.fileno(), STOP_AT + 1)
    parent = os.getppid()
    x = np.random.default_rng(0).random((400, 18))
    blocks = 0
    while state[STOP_AT] == 0 and os.getppid() == parent:
        acc = 0.0
        for i in range(1000):
            a, b = f"{i} {i * 0.5:.6f}".split()
            acc += int(a) + float(b)
        order = np.argsort(x, axis=0, kind="stable")
        np.cumsum(np.take_along_axis(x, order, axis=0), axis=0)
        blocks += 1
        STATE.pack_into(state, 0, blocks, time.process_time())


class HostSpeed:
    """Context manager running the sidecar; see the module docstring.
    `state_path` is a scratch file the two processes share."""

    def __init__(self, state_path: Path) -> None:
        self._path = state_path
        self._proc = None
        self._start = (0.0, 0.0)

    def __enter__(self) -> "HostSpeed":
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        self._path.write_bytes(bytes(STOP_AT + 1))
        with open(self._path, "r+b") as fh:
            self._state = mmap.mmap(fh.fileno(), STOP_AT + 1)
        self._proc = subprocess.Popen([sys.executable, __file__, str(self._path)])
        while self.reading()[0] < MIN_BLOCKS:
            if self._proc.poll() is not None:
                raise RuntimeError("host-speed sidecar exited at start")
            time.sleep(0.01)
        self._start = self.reading()
        return self

    def __exit__(self, *exc_info) -> None:
        self._state[STOP_AT] = 1
        try:
            self._proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._state.close()

    def reading(self) -> tuple[float, float]:
        return STATE.unpack_from(self._state, 0)

    def scale(self, before: tuple[float, float]) -> float:
        """Reference seconds per measured second since `before`."""
        after = self.reading()
        blocks, cpu = after[0] - before[0], after[1] - before[1]
        if blocks < MIN_BLOCKS:
            blocks, cpu = after[0] - self._start[0], after[1] - self._start[1]
        return REF_BLOCK_S * blocks / cpu


if __name__ == "__main__":
    sidecar(sys.argv[1])
