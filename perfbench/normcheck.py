#!/usr/bin/env python3
"""Does a slowdown of the program come through host normalisation whole?

Run from the repository root::

    python3 perfbench/normcheck.py --seeds 1-3 --seconds 30

For each seed it runs ``traffic-10k`` twice, each time in a fresh process:
once as it is and once on the program's slower reference paths
(``transfer_engine=False``, ``router_soa=False``), and prints the ratio of
the two runs' ``ticks_per_s`` in wall-clock time and after host
normalisation (see hostspeed.py).  If the probes took up the program's
heap or cache state, a slower program would also slow the probes, and the
normalised ratio would stay nearer 1 than the wall-clock one.  Wall-clock
ratios are noisy on a drifting host: compare medians over several seeds.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_PATHS = {"transfer_engine": False, "router_soa": False}
WALL_LINE = "wall-clock figures (not host-normalised): "


def _reference_main(argv) -> int:
    """run.py's main with traffic-10k switched to the reference paths."""
    sys.path.insert(0, str(HERE))
    import run

    workload = run.WORKLOADS["traffic-10k"]
    cells = workload.cells
    run.WORKLOADS["traffic-10k"] = dataclasses.replace(
        workload, cells=lambda seed: [dataclasses.replace(c, **REFERENCE_PATHS)
                                      for c in cells(seed)])
    return run.main(argv)


def _ticks_per_s(seed: int, seconds: int, reference: bool):
    """(wall-clock, normalised) ticks_per_s of one fresh run."""
    script = [str(HERE / "normcheck.py"), "--reference"] if reference \
        else [str(HERE / "run.py")]
    proc = subprocess.run(
        [sys.executable, *script, "--workload", "traffic-10k",
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(f"seed {seed}: checks failed: {proc.stdout}")
    wall = dict(item.split("=") for item in next(
        line for line in lines if line.startswith(WALL_LINE))
        [len(WALL_LINE):].split())
    return float(wall["ticks_per_s"]), result["metrics"]["ticks_per_s"]["value"]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "--reference":
        return _reference_main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-3")
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args(argv)
    low, _, high = args.seeds.partition("-")
    for seed in range(int(low), int(high or low) + 1):
        current = _ticks_per_s(seed, args.seconds, reference=False)
        slower = _ticks_per_s(seed, args.seconds, reference=True)
        print(f"seed {seed}: ticks_per_s current wall {current[0]:.4g} "
              f"normalised {current[1]:.4g}; reference wall {slower[0]:.4g} "
              f"normalised {slower[1]:.4g}; reference/current wall "
              f"{slower[0] / current[0]:.3f} normalised "
              f"{slower[1] / current[1]:.3f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
