"""Tests of the benchmark's own code: percentiles, span self time, the FER
gate, and a tiny-size run of every workload through the real command."""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

from harness import Tracer, fer_gate, percentile, self_times, tail_percentile  # noqa: E402

WORKLOADS = ("sim-waterfall", "sim-highsnr", "code-design")

# What each workload must print, by name and unit, beyond BENCHMARK.json.
E2E = {
    "sim-waterfall": {"frames_per_s": "1/s"},
    "sim-highsnr": {"frames_per_s": "1/s"},
    "code-design": {"design_s": "s", "girth_s": "s", "spectrum_mwords_per_s": "Mword/s"},
}
E2E_ALL = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ops_failed_ratio": "ratio"}
SIM_LAYERS = {
    "decoder.decode_ms_p50": "ms", "decoder.iter_us": "us",
    "decoder.computed_mb_per_iter": "MB", "decoder.iterations_per_frame": "count",
    "decoder.converged_ratio": "ratio", "decoder.cold_call_ms": "ms",
    "product.encode_us_p50": "us", "simulate.busy_ratio": "ratio",
    "simulate.residual_ms_per_frame": "ms", "simulate.chunks": "count",
}
LAYERS = {
    "sim-waterfall": SIM_LAYERS,
    "sim-highsnr": SIM_LAYERS,
    "code-design": {
        "peg.design_s": "s", "peg.candidates_scored": "count", "peg.us_per_candidate": "us",
        "peg.girth_us_per_root": "us", "analysis.exhaustive_s": "s",
        "analysis.ns_per_word": "ns", "analysis.low_weight_ms": "ms",
        "alist.write_ms": "ms", "alist.read_ms": "ms",
    },
}


@pytest.mark.parametrize(
    "n, expect",
    [(9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0), (999, 90.0),
     (1000, 99.0), (10000, 99.9), (100000, 99.99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expect):
    p, value, count = tail_percentile(list(range(1, n + 1)))
    assert (p, count) == (expect, n)
    if p is not None:
        assert value == percentile(range(1, n + 1), p)
        assert n - value >= 10


def test_percentile_is_nearest_rank():
    data = [5, 1, 4, 2, 3]
    assert percentile(data, 50) == 3
    assert percentile(data, 100) == 5
    assert percentile(range(1, 101), 90) == 90


def _span(sid, parent, start, end):
    return {"id": sid, "name": sid, "parent": parent, "tag": None, "start": start, "end": end}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span("root", None, 0.0, 10.0),
        _span("a", "root", 1.0, 3.0),
        _span("b", "root", 2.0, 5.0),  # overlaps a, as pool workers do
        _span("c", "root", 8.0, 12.0),  # clipped to the parent's end
        _span("a1", "a", 1.5, 2.5),  # a grandchild only reduces a
    ]
    selfs = self_times(spans)
    assert selfs["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs["a"] == pytest.approx(1.0)
    assert selfs["a1"] == pytest.approx(1.0)
    assert selfs["c"] == pytest.approx(4.0)


def test_tracer_links_nested_spans():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert [s["name"] for s in tracer.spans] == ["inner", "outer"]
    selfs = self_times(tracer.spans)
    assert selfs[outer["id"]] <= outer["end"] - outer["start"]


@pytest.mark.parametrize(
    "errors, frames, ref_errors, ref_frames, ok",
    [(0, 3600, 0, 3600, True), (2, 3600, 0, 3600, True), (3600, 3600, 0, 3600, False),
     (50, 1000, 55, 1125, True), (500, 1000, 55, 1125, False), (0, 1000, 500, 1000, False)],
)
def test_fer_gate(errors, frames, ref_errors, ref_frames, ok):
    assert fer_gate(errors, frames, ref_errors, ref_frames)[0] is ok


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    proc = _run(["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace), "--size", "tiny"])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in summary["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in summary["metrics"].values())

    printed = {}  # metric lines read "name value unit[, extra]"
    for line in lines[:-1]:
        parts = line.split()
        try:
            float(parts[1])
        except (IndexError, ValueError):
            continue
        if len(parts) >= 3:
            printed[parts[0]] = parts[2].rstrip(",")
    named = {m["name"]: m["unit"] for m in listed}
    named.update(LAYERS[workload] if trace else {**E2E_ALL, **E2E[workload]})
    for name, unit in named.items():
        assert printed.get(name) == unit, f"{name} not printed with unit {unit}"

    with open(os.path.join(BENCH_DIR, "out", f"BENCH_{workload}_seed1_trace{trace}.json")) as fh:
        result = json.load(fh)
    for fact in ("nproc", "cpu_model", "python", "numpy", "scipy", "git_commit",
                 "seeds", "pool_start_method", "trace"):
        assert fact in result["machine"]
    if workload != "code-design" and not trace:
        assert result["detail"]["results_identical"] is True


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(["--workload", "sim-waterfall", "--seed", "1", "--seconds", "1",
                 "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def _session_members(sid):
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[3]) == sid:
            members.append(int(entry))
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
@pytest.mark.parametrize("trace", [0, 1])
def test_run_leaves_no_process_behind(trace):
    # code-design's spawn pool starts multiprocessing's resource tracker,
    # which by default outlives the process that started it.
    proc = subprocess.Popen(
        [sys.executable, "bench/run.py", "--workload", "code-design", "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True)
    assert proc.wait(timeout=170) == 0
    assert _session_members(proc.pid) == []
