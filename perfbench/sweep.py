#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/sweep.py [--seeds 1-10] [--workloads a,b] [--trace 0|1]

Workloads are interleaved: every seed runs each workload once, in an order
rotated from seed to seed, so host-speed drift over the sweep is spread over
all workloads instead of being charged to whichever ran last. For every
workload and end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n=4), the spread (q3 - q1) / median and the metric's
bound from BENCHMARK.json. Raw results go to .perfbench_work/sweep.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path.cwd()


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    results: dict[str, list[dict]] = {w: [] for w in workloads}
    for i, seed in enumerate(seeds):
        for w in workloads[i % len(workloads):] + workloads[: i % len(workloads)]:
            cmd = [*spec["command"], "--workload", w, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{w} seed {seed}: FAILED (exit {proc.returncode})\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                return 1
            results[w].append({"seed": seed, **result})
            print(f"{w} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  file=sys.stderr, flush=True)

    out = ROOT / ".perfbench_work" / "sweep.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    print(f"{'workload':20} {'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} bound")
    for w, runs in results.items():
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread < bound / 3 else "  <-- above bound/3"
            print(f"{w:20} {name:24} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.2%} {bound}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
