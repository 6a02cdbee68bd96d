"""Run one benchmark workload against the library in ../src.

    python3 bench/run.py --workload sim-waterfall --seed 1 --seconds 30 --trace 0

Workloads: sim-waterfall, sim-highsnr, code-design (see workloads.py);
"--workload all" runs the three in turn, each in a fresh process.
With --trace 0 the run measures the end-to-end metrics and patches
nothing; with --trace 1 it measures the per-layer metrics from spans,
together with the tracing overhead.  Every metric is printed with its
unit, the full result (machine facts included) is written to
bench/out/BENCH_<workload>_seed<seed>_trace<0|1>.json, and the last
stdout line is a JSON summary holding the metrics BENCHMARK.json lists.
The exit status is 1 if any correctness check failed, 2 if the run
could not start.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")
WORKLOADS = ("sim-waterfall", "sim-highsnr", "code-design")


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import productldpc from this checkout's src/, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "productldpc", "__init__.py")):
        fail(f"no library sources at {SRC}/productldpc")
    sys.path.insert(0, SRC)
    import productldpc

    where = os.path.dirname(os.path.abspath(productldpc.__file__))
    if where != os.path.join(SRC, "productldpc"):
        fail(f"imported productldpc from {where}, not from {SRC}")
    return productldpc


def stop_helper_processes() -> None:
    """Reap every child and stop multiprocessing's resource tracker.

    code-design's spawn pool starts the tracker, which is meant to
    outlive this process and exit on its own only after the pipe to it
    closes.  The pool's locks are collected first, because a lock
    finalised after the stop would start a new tracker.
    """
    from multiprocessing import active_children, resource_tracker

    gc.collect()
    for child in active_children():
        child.join()
    resource_tracker._resource_tracker._stop()


def bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_commit():
    # Only this checkout's own repository; a checkout that is not a git
    # tree must not report the commit of some enclosing directory.
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over the library sources, for checkouts that are not git trees."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "productldpc")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_facts(args, design_seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seeds": {"workload": args.seed, "design": design_seed},
        "pool_start_method": {"run_sweep": multiprocessing.get_start_method(),
                              "code_design_lane": "spawn"},
        "trace": bool(args.trace),
        "profile": args.size,
        "seconds": args.seconds,
        "platform": platform.platform(),
    }


def fmt_metric(name, entry) -> str:
    value, unit = entry[0], entry[1]
    extra = entry[2] if len(entry) > 2 else {}
    tail = "".join(f", {k}={v}" for k, v in extra.items())
    return f"  {name:<36} {value:>14.6g} {unit}{tail}"


def run_all(args) -> int:
    """Each workload in its own process; one summary line over all three."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        status = max(status, proc.returncode)
        try:
            part = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            summary["correct"] = False
            continue
        summary["correct"] &= part["correct"]
        summary["attempted"] += part["attempted"]
        summary["failed"] += part["failed"]
        for key, val in part["metrics"].items():
            summary["metrics"][f"{name}/{key}"] = val
    print(json.dumps(summary))
    return status if summary["correct"] else max(status, 1)


def main(argv=None) -> int:
    try:
        return run(argv)
    finally:
        stop_helper_processes()


def run(argv=None) -> int:
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    default_seconds = 30
    if os.path.exists(spec_path):
        default_seconds = bench_spec()["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=default_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs the same steps on (144,25)-sized codes, for tests")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)

    t0 = time.perf_counter()
    import_library()
    sys.path.insert(0, BENCH_DIR)
    import workloads

    import_s = time.perf_counter() - t0
    spec = bench_spec()
    os.makedirs(OUT_DIR, exist_ok=True)

    report = workloads.run_workload(args.workload, args.size, args.seed, args.seconds,
                                    bool(args.trace), OUT_DIR)
    checks = report.checks

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace} profile {args.size} (imports {import_s:.2f} s)")
    if report.end_to_end:
        print("end-to-end:")
        for name, entry in report.end_to_end.items():
            print(fmt_metric(name, entry))
    if report.per_layer:
        print("per-layer:")
        for name, entry in sorted(report.per_layer.items()):
            print(fmt_metric(name, entry))
    if "self_times" in report.detail:
        print(f"spans ({report.detail['span_count']}): calls, total s, self s")
        for name, row in sorted(report.detail["self_times"].items(),
                                key=lambda kv: -kv[1]["self_s"]):
            print(f"  {name:<36} {row['calls']:>8} {row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    if "results_identical" in report.detail:
        print(f"results_identical: {report.detail['results_identical']}")
    print(f"checks: {checks.attempted} attempted, {checks.failed} failed")
    for line in checks.failures:
        print(f"  FAILED {line}")

    result = {
        "workload": args.workload,
        "machine": machine_facts(args, workloads.DESIGN_SEED),
        "import_s": import_s,
        "checks": {"attempted": checks.attempted, "failed": checks.failed,
                   "failures": checks.failures},
        "end_to_end": {k: list(v) for k, v in report.end_to_end.items()},
        "per_layer": {k: list(v) for k, v in report.per_layer.items()},
        "detail": report.detail,
    }
    path = os.path.join(OUT_DIR, f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(result, fh, indent=1, default=str)
        fh.write("\n")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    source = report.per_layer if args.trace else report.end_to_end
    metrics = {}
    for m in wanted:
        if m["name"] not in source:
            fail(f"metric {m['name']} was not measured")
        if source[m["name"]][1] != m["unit"]:
            fail(f"metric {m['name']} measured in {source[m['name']][1]}, not {m['unit']}")
        metrics[m["name"]] = {"value": source[m["name"]][0], "unit": m["unit"]}
    print(json.dumps({"correct": checks.failed == 0, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0 if checks.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
