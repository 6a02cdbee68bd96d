"""Record the sim workloads' reference counters in data/reference.json.

    python3 bench/record_reference.py

Runs each sim workload's sweeps untraced at the default seed: the full
profile at BENCHMARK.json's run_seconds, the tiny one at 1 s (the size
the tests use).  A run at the same seed and budget must reproduce these
counters exactly; any other run must keep each point's FER inside the
binomial gate around them (harness.fer_gate).  Re-record only when a
change is meant to alter the draw order, and say so.
"""

from __future__ import annotations

import json
import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH_DIR]

import workloads  # noqa: E402


def main() -> None:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        full_seconds = json.load(fh)["run_seconds"]
    doc = {}
    for profile, seconds in (("full", full_seconds), ("tiny", 1)):
        prof = workloads.PROFILES[profile]
        codes = workloads.setup(prof)["codes"]
        doc[profile] = {}
        for name, (field, rate_field, workers) in workloads.SIMS.items():
            frames = workloads.frame_budget(getattr(prof, rate_field), seconds)
            points = workloads.sweep(prof, codes, getattr(prof, field), frames, workers,
                                     workloads.DEFAULT_SEED)
            for p in points:
                del p["seconds"]
            doc[profile][name] = {"seed": workloads.DEFAULT_SEED, "seconds": seconds,
                                  "points": points}
            print(profile, name, points, flush=True)
    with open(os.path.join(workloads.DATA_DIR, "reference.json"), "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
