#!/usr/bin/env python3
"""Steadiness study: repeated fresh runs of each workload, one seed each.

Run from the repository root::

    python3 perfbench/steadiness.py --workloads paper-bus traffic-10k \
        --seeds 1-10 --seconds 30 --out .bench_build/steadiness-a.json

Each run is a fresh ``perfbench/run.py`` process.  For every end-to-end
metric the study prints the median, the quartiles (``statistics.quantiles``
with ``n=4``) and the spread, the inter-quartile distance as a share of the
median, next to the metric's bound from ``BENCHMARK.json``, and the spread
of the same metric in wall-clock time (not host-normalised).  It writes
every run's result and the summary to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WALL_LINE = "wall-clock figures (not host-normalised): "


def _seeds(spec: str):
    low, _, high = spec.partition("-")
    return list(range(int(low), int(high or low) + 1))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    """One fresh benchmark process: its final JSON line, ``wall`` (the
    wall-clock figures) and ``wall_s`` (the run's own duration)."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    wall = next(line for line in lines if line.startswith(WALL_LINE))
    result["wall"] = {name: float(value) for name, value in (
        item.split("=") for item in wall[len(WALL_LINE):].split())}
    result["wall_s"] = time.perf_counter() - start
    return result


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds in BENCHMARK.json")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    study = {}
    for workload in args.workloads:
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, seconds)
            runs.append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.0f} s, "
                  f"attempted {result['attempted']} "
                  f"failed {result['failed']} correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   for name in runs[0]["metrics"]}
        wall = {name: summarize([r["wall"][name] for r in runs])
                for name in runs[0]["wall"]}
        study[workload] = {
            "runs": runs, "metrics": metrics, "wall": wall,
            "failed_share": [r["failed"] / r["attempted"] for r in runs]}
        for name, s in metrics.items():
            print(f"  {workload:12s} {name:15s} median {s['median']:10.4g} "
                  f"q1 {s['q1']:10.4g} q3 {s['q3']:10.4g} "
                  f"spread {s['spread']:6.3f} bound {bounds.get(name)} "
                  f"wall-clock spread {wall[name]['spread']:6.3f}",
                  flush=True)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(study, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
