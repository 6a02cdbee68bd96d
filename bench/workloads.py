"""The benchmark's workloads, their correctness checks and their metrics.

sim-waterfall  run_sweep, one process, on the (10000,6561) direct code at
               2.5 dB and the generic-interleaved one at 2.0 dB: long
               decodes (15-17 iterations, some frames run all 100), so the
               decoder does the work and no process pool runs.
sim-highsnr    run_sweep with 2 workers on the same pair at 4.5 dB: short
               early-exit decodes, so per-frame fixed costs and pool
               dispatch (the code is pickled on every chunk) weigh most.
code-design    PEG design, girth, exact spectra, low-weight search and an
               alist round trip; no decoding.  The sims load their
               permutations from a checked-in fixture instead, so PEG,
               BFS and spectrum changes show here and nowhere else.

All three are closed-loop batch jobs from one process with at most two
pool workers (the bounds were set on a 2-core machine).  Each sim's frame budget is
fixed by --seconds (min_frame_errors = max_frames), so the work does not
depend on the stopping rule or on how fast the code runs.  code-design
is fixed work whatever --seconds says: the design lane and the analysis
lane (a spawned worker) each take about 25 s on a 2-core Xeon, so the
run fits a 30-second budget only because the lanes overlap.
"""

from __future__ import annotations

import contextlib
import gc
import json
import math
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context

import numpy as np

from harness import (
    Checks,
    Tracer,
    cpu_seconds,
    durations,
    fer_gate,
    instrument,
    median,
    peak_rss_mb,
    percentile,
    span_cost_s,
    span_table,
    tail_percentile,
    timed,
)
from productldpc import (
    build_hp,
    build_hp_interleaved,
    design_generic,
    exhaustive_spectrum,
    local_girth,
    low_weight_search,
    parse_component_spec,
    run_sweep,
    syndrome,
)
from productldpc import simulate
from productldpc.alist import read_alist, write_alist
from productldpc.product import load_permutation_array, save_permutation_array
from productldpc.simulate import SimConfig

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
DATA_DIR = os.path.join(BENCH_DIR, "data")
DEFAULT_SEED = 1
DESIGN_SEED = 1  # the fixture's seed; the design must reproduce it
SETUP_REPEATS = 9
SAMPLE_FRAMES = 50
FRAME_QUANTUM = 25  # frame budgets are whole multiples of this
PICKLE_REPEATS = 5
TAIL_DECODES = 1000  # p99 of 1000 samples has ten beyond it

# Section V of the paper: the (144,25) direct product code's low-weight
# multiplicities (zeros included).
TABLE_SPECTRUM = {16: 64, 20: 0, 22: 0, 24: 246, 26: 0, 28: 504, 30: 392, 32: 1262}


@dataclass(frozen=True)
class Profile:
    """Sizes and expected values; "tiny" exists so tests run in seconds."""

    comp: str
    fixture: str
    girth: dict  # code key -> expected local-girth histogram
    waterfall: tuple  # (code key, Eb/N0 dB) per sweep
    highsnr: tuple
    waterfall_fps: float  # frames per code per budget second
    highsnr_fps: float
    spectrum_comp: str
    spectrum_table: dict
    spectrum_min_weight: int
    low_weight: tuple  # (component spec, A4)
    max_iter: int = 100


PROFILES = {
    "full": Profile(
        comp="mscmpc:81:9,10",
        fixture="perms_mscmpc81_seed1.json",
        girth={"pc": {8.0: 9000, math.inf: 1000}, "ipc": {8.0: 9000, math.inf: 1000}},
        waterfall=(("pc", 2.5), ("ipc", 2.0)),
        highsnr=(("pc", 4.5), ("ipc", 4.5)),
        waterfall_fps=24.0,
        highsnr_fps=105.0,
        spectrum_comp="mscmpc:5:3,4",
        spectrum_table=TABLE_SPECTRUM,
        spectrum_min_weight=16,
        low_weight=(("mscmpc:81:9,10", 2025), ("mscmpc:169:13,14", 8281)),
    ),
    "tiny": Profile(
        comp="mscmpc:5:3,4",
        fixture="perms_mscmpc5_seed1.json",
        girth={"pc": {8.0: 64, 12.0: 32, math.inf: 48},
               "ipc": {8.0: 58, 10.0: 6, 12.0: 32, math.inf: 48}},
        waterfall=(("pc", 3.0), ("ipc", 3.0)),
        highsnr=(("pc", 6.0), ("ipc", 6.0)),
        waterfall_fps=100.0,
        highsnr_fps=200.0,
        spectrum_comp="spc:2",
        spectrum_table={4: 9, 6: 6},
        spectrum_min_weight=4,
        low_weight=(("mscmpc:5:3,4", 8), ("spc:3", 1)),
    ),
}

SIMS = {
    # workload -> (Profile field with the sweep points, its rate field, workers)
    "sim-waterfall": ("waterfall", "waterfall_fps", 1),
    "sim-highsnr": ("highsnr", "highsnr_fps", 2),
}


class Report:
    """What one benchmark run found: checks, metrics and raw detail."""

    def __init__(self) -> None:
        self.checks = Checks()
        self.end_to_end: dict = {}  # name -> (value, unit)
        self.per_layer: dict = {}  # name -> (value, unit[, extras dict])
        self.detail: dict = {}

    def e2e(self, name, value, unit) -> None:
        self.end_to_end[name] = (value, unit)

    def layer(self, name, value, unit, **extra) -> None:
        self.per_layer[name] = (value, unit, extra) if extra else (value, unit)


def frame_budget(rate: float, seconds: float) -> int:
    return max(FRAME_QUANTUM, round(rate * seconds / FRAME_QUANTUM) * FRAME_QUANTUM)


def load_reference(profile: str) -> dict:
    path = os.path.join(DATA_DIR, "reference.json")
    if not os.path.exists(path):
        return {}
    with open(path) as fh:
        return json.load(fh).get(profile, {})


# ---------------------------------------------------------------- set-up


def setup(prof: Profile, tracer=None) -> dict:
    """Parse the component, build both codes, load the fixture permutations."""
    t0 = time.perf_counter()
    comp, _ = timed(tracer, "components.parse_component_spec", parse_component_spec, prof.comp)
    pc, _ = timed(tracer, "product.build_hp", build_hp, comp, comp)
    perms, _ = timed(tracer, "product.load_permutation_array", load_permutation_array,
                     os.path.join(DATA_DIR, prof.fixture))
    ipc, _ = timed(tracer, "product.build_hp_interleaved", build_hp_interleaved, comp, comp, perms)
    return {"comp": comp, "codes": {"pc": pc, "ipc": ipc}, "seconds": time.perf_counter() - t0}


def repeated_setup(prof: Profile, report: Report, tracer=None) -> dict:
    """Set up SETUP_REPEATS times from a collected heap; keep the last.

    The median time is setup_s.  Only the first and the latest set-up
    stay alive, so later repeats do not pay for a growing heap.
    """
    first = state = None
    times = []
    for i in range(SETUP_REPEATS):
        state = None
        gc.collect()
        if tracer is None:
            state = setup(prof)
        else:
            with tracer.span("setup", tag=f"setup#{i}"):
                state = setup(prof, tracer)
        times.append(state["seconds"])
        first = first or state
    report.e2e("setup_s", median(times), "s")
    report.checks.check("setup is repeatable",
                        all(first["codes"][k].H == state["codes"][k].H for k in first["codes"]),
                        "codes differ between set-ups")
    return state


def setup_layers(spans, report: Report) -> None:
    """Per-set-up medians of the construction layers (traced runs).

    Every span inside set-up number i carries the tag "setup#i".
    """
    per_setup: dict = {}
    for s in spans:
        if s["name"] != "setup":
            bucket = per_setup.setdefault(s["tag"], {})
            bucket[s["name"]] = bucket.get(s["name"], 0.0) + (s["end"] - s["start"])
    for name, metric in (
        ("components.parse_component_spec", "components.build_ms"),
        ("gf2.kron", "gf2.kron_ms"),
        ("gf2.vec_kron", "gf2.vec_kron_ms"),
        ("product.build_hp", "product.build_hp_ms"),
        ("product.build_hp_interleaved", "product.build_hp_interleaved_ms"),
        ("product.load_permutation_array", "product.load_perms_ms"),
    ):
        report.layer(metric, 1e3 * median(b.get(name, 0.0) for b in per_setup.values()), "ms")


def check_sample_frames(codes, seed: int, report: Report, tracer=None) -> None:
    """Encode SAMPLE_FRAMES random blocks per code; each needs a zero syndrome."""
    rng = np.random.default_rng([seed, 1])
    for key, code in codes.items():
        for i in range(SAMPLE_FRAMES):
            cw = code.encode(rng.integers(0, 2, code.k, dtype=np.uint8))
            syn, _ = timed(tracer, "gf2.syndrome", syndrome, code.H, cw)
            report.checks.check(f"{key} sample frame {i} syndrome", not syn.any(),
                                f"{int(syn.sum())} unsatisfied checks")
    if tracer is not None:
        report.layer("gf2.syndrome_us_p50",
                     1e6 * percentile(durations(tracer.spans, "gf2.syndrome"), 50), "us")


def encode_layer(spans, report: Report) -> None:
    enc = durations(spans, "product.encode")
    report.layer("product.encode_us_p50", 1e6 * percentile(enc, 50), "us", samples=len(enc))


def pickle_layers(codes, report: Report) -> None:
    """Size and round-trip time of the pickle a pool submit sends.

    Call it on freshly built codes: caches filled by later use (the CSR
    form, the decoder's edge structure) would be pickled too.
    """
    sizes, trips = [], []
    for code in codes.values():
        blob = pickle.dumps(code)
        sizes.append(len(blob) / 1024.0)
        runs = []
        for _ in range(PICKLE_REPEATS):
            t0 = time.perf_counter()
            pickle.loads(pickle.dumps(code))
            runs.append(time.perf_counter() - t0)
        trips.append(median(runs))
    report.layer("product.pickle_kb", sum(sizes) / len(sizes), "KiB")
    report.layer("product.pickle_roundtrip_ms", 1e3 * sum(trips) / len(trips), "ms")


# ---------------------------------------------------------------- sims


def sweep(prof: Profile, codes, points, frames: int, workers: int, seed: int,
          tracer=None) -> list:
    """One run_sweep per point; returns the counters and wall time of each."""
    out = []
    for key, ebn0 in points:
        cfg = SimConfig(code=codes[key], ebn0_db=[ebn0], max_iter=prof.max_iter,
                        min_frame_errors=frames, max_frames=frames, seed=seed,
                        workers=workers)
        res, dt = timed(tracer, "simulate.run_sweep", run_sweep, cfg, tag=f"sweep:{key}@{ebn0:g}")
        p = res.points[0]
        out.append({"code": key, "ebn0_db": ebn0, "frames": p.frames,
                    "bit_errors": p.bit_errors, "frame_errors": p.frame_errors,
                    "avg_iterations": p.avg_iterations, "seconds": dt})
    return out


COUNTERS = ("frames", "bit_errors", "frame_errors", "avg_iterations")


def counters(points) -> list:
    return [tuple(p[c] for c in COUNTERS) for p in points]


def check_points(name: str, points, ref: dict, seed: int, report: Report) -> None:
    """FER gate on every point; exact comparison where the reference applies."""
    ref_points = ref.get("points", [])
    if len(ref_points) != len(points):
        report.checks.check(f"{name} reference present", False,
                            "no recorded reference for these sweep points")
        return
    for p, r in zip(points, ref_points):
        ok, (lo, hi) = fer_gate(p["frame_errors"], p["frames"], r["frame_errors"], r["frames"])
        p["fer_ref_interval"] = [lo, hi]
        report.checks.check(
            f"{name} {p['code']}@{p['ebn0_db']:g}dB FER", ok,
            f"{p['frame_errors']}/{p['frames']} frame errors against reference "
            f"{r['frame_errors']}/{r['frames']} (FER interval [{lo:.3g}, {hi:.3g}])")
    if seed == ref.get("seed") and [p["frames"] for p in points] == [r["frames"] for r in ref_points]:
        report.detail["results_identical"] = counters(points) == counters(ref_points)
    else:
        report.detail["results_identical"] = None  # no exact reference for this seed/budget


def sim_layers(spans, passes, codes, workers: int, report: Report) -> None:
    """Decoder, encoder and dispatch metrics from one traced sweep pass."""
    decodes = [s for s in spans if s["name"] == "decoder.spa_decode"]
    times = [s["end"] - s["start"] for s in decodes]
    iters = [s["attrs"]["iters"] for s in decodes]
    report.layer("decoder.decode_ms_p50", 1e3 * percentile(times, 50), "ms", samples=len(times))
    p, val, n = tail_percentile(times)
    if p is not None and p > 50:
        report.layer(f"decoder.decode_ms_p{p:g}", 1e3 * val, "ms", samples=n)
    report.layer("decoder.iter_us", 1e6 * sum(times) / sum(iters), "us")
    # Computed, not measured: one flooding iteration must at least read
    # and write every float64 edge message (16 B/edge), read each edge's
    # variable index (8 B/edge), and read the channel LLR and write the
    # posterior of every variable (16 B/variable).
    mb = [(24 * c.H.nnz + 16 * c.n) / 1e6 for c in codes.values()]
    report.layer("decoder.computed_mb_per_iter", sum(mb) / len(mb), "MB")
    report.layer("decoder.iterations_per_frame", sum(iters) / len(iters), "count")
    report.layer("decoder.converged_ratio",
                 sum(1 for s in decodes if s["attrs"]["ok"]) / len(decodes), "ratio")
    cold = [s["end"] - s["start"] for s in decodes if s["attrs"]["cold"]]
    report.layer("decoder.cold_call_ms", 1e3 * median(cold), "ms", samples=len(cold))
    enc = durations(spans, "product.encode")
    encode_layer(spans, report)
    wall = sum(p["seconds"] for p in passes)
    frames = sum(p["frames"] for p in passes)
    busy = sum(times) + sum(enc)
    report.layer("simulate.busy_ratio", busy / (workers * wall), "ratio")
    report.layer("simulate.residual_ms_per_frame", 1e3 * (workers * wall - busy) / frames, "ms")
    report.layer("simulate.chunks",
                 sum(math.ceil(p["frames"] / simulate.CHUNK_FRAMES) for p in passes), "count")
    report.checks.check("trace holds every frame", len(decodes) == frames and len(enc) == frames,
                        f"{len(decodes)} decode and {len(enc)} encode spans for {frames} frames")


def run_sim(name: str, prof: Profile, seed: int, seconds: float, trace: bool,
            out_dir: str, profile_name: str) -> Report:
    report = Report()
    field, rate_field, workers = SIMS[name]
    points = getattr(prof, field)
    frames = frame_budget(getattr(prof, rate_field), seconds)
    ref = load_reference(profile_name).get(name, {})

    if not trace:
        state = repeated_setup(prof, report)
        codes = state["codes"]
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        result = sweep(prof, codes, points, frames, workers, seed)
        wall = time.perf_counter() - t0
        report.e2e("wall_s", wall, "s")
        report.e2e("cpu_s", cpu_seconds() - cpu0, "s")
        report.e2e("frames_per_s", sum(p["frames"] for p in result)
                   / sum(p["seconds"] for p in result), "1/s")
        check_points(name, result, ref, seed, report)
        check_sample_frames(codes, seed, report)
        report.detail["points"] = result
        return report

    setup_tracer = Tracer()
    with instrument(setup_tracer):
        state = repeated_setup(prof, report, setup_tracer)
    codes = state["codes"]
    setup_layers(setup_tracer.spans, report)
    pickle_layers(codes, report)
    # Each pass of a traced run (untraced, traced, and the workers=1
    # replay) gets half the budget, but at least TAIL_DECODES decodes so
    # that the decode-time tail reaches p99.
    per_point = -(-TAIL_DECODES // (len(points) * FRAME_QUANTUM)) * FRAME_QUANTUM
    frames = max(frame_budget(getattr(prof, rate_field) / 2, seconds), per_point)

    t0 = time.perf_counter()
    plain = sweep(prof, codes, points, frames, workers, seed)
    wall_plain = time.perf_counter() - t0

    tracer = Tracer(out_dir)
    t0 = time.perf_counter()
    with instrument(tracer), tracer.span("workload", tag=name):
        traced = sweep(prof, codes, points, frames, workers, seed, tracer)
    wall_traced = time.perf_counter() - t0
    spans = tracer.spans + tracer.collect_workers()
    report.checks.check("tracing leaves results unchanged", counters(traced) == counters(plain),
                        f"{counters(traced)} != {counters(plain)}")
    check_points(name, plain, ref, seed, report)
    if workers > 1:
        serial = sweep(prof, codes, points, frames, 1, seed)
        report.checks.check("results independent of worker count",
                            counters(serial) == counters(plain),
                            f"workers=1 {counters(serial)} != workers={workers} {counters(plain)}")
    sim_layers(spans, traced, codes, workers, report)

    sample_tracer = Tracer()
    with instrument(sample_tracer):
        check_sample_frames(codes, seed, report, sample_tracer)
    finish_trace(report, wall_plain, wall_traced,
                 setup_tracer.spans + spans + sample_tracer.spans, out_dir, name, seed)
    report.detail["points"] = plain
    return report


def finish_trace(report: Report, wall_plain, wall_traced, spans, out_dir, name, seed) -> None:
    """Tracing overhead, self times, and the spans file.

    overhead_pct compares one traced and one untraced pass, so host noise
    of a few percent swamps it; span_cost_pct (spans recorded times the
    cost of an empty span, over the traced wall) is the steadier bound.
    """
    report.layer("trace.overhead_s", wall_traced - wall_plain, "s")
    report.layer("trace.overhead_pct", 100.0 * (wall_traced - wall_plain) / wall_plain, "%")
    report.layer("trace.span_cost_pct", 100.0 * len(spans) * span_cost_s() / wall_traced, "%")
    report.detail["untraced_wall_s"] = wall_plain
    report.detail["traced_wall_s"] = wall_traced
    report.detail["self_times"] = span_table(spans)
    path = os.path.join(out_dir, f"spans_{name}_seed{seed}.json")
    with open(path, "w") as fh:
        json.dump(spans, fh)
    report.detail["spans_file"] = os.path.relpath(path, os.path.dirname(BENCH_DIR))
    report.detail["span_count"] = len(spans)


# ---------------------------------------------------------------- code design


def candidates_scored(comp) -> int:
    """Candidate columns design_generic scores for a square product.

    Block columns past the information rows, or whose column-code column
    is empty, are placed blind.  Every other block column runs one BFS
    per permutation row u and scores the n_a - u columns still free.
    """
    n_a, k_b = comp.n, comp.k
    colsup = comp.H.col_support()
    scored = sum(1 for j in range(n_a) if j < k_b and len(colsup[j]))
    return scored * n_a * (n_a + 1) // 2


def analysis_lane(profile_name: str, seed: int, codes: dict, out_dir: str, parent=None) -> dict:
    """Girth, spectra, low-weight search and the alist round trip.

    Runs in a spawned pool worker next to the PEG design.  Returns its
    outputs and step times, plus its spans when `parent` (the span the
    lane hangs off) is given.
    """
    prof = PROFILES[profile_name]
    tracer = None
    if parent is not None:
        tracer = Tracer()
        tracer.stack.append(parent)  # (span id, tag) of the span the lane hangs off
    ctx = instrument(tracer) if tracer is not None else contextlib.nullcontext()
    out: dict = {"girth": {}, "girth_s": 0.0, "girth_roots": 0, "spectra": {},
                 "spectrum_s": 0.0, "spectrum_words": 0, "low_weight": {}}
    with ctx:
        for key, code in codes.items():
            rep, dt = timed(tracer, "peg.local_girth", local_girth, code.H, tag=key)
            out["girth"][key] = {str(g): c for g, c in rep.histogram.items()}
            out["girth_s"] += dt
            out["girth_roots"] += code.n
        sc = parse_component_spec(prof.spectrum_comp)
        small = {"direct": build_hp(sc, sc),
                 "interleaved": build_hp_interleaved(sc, sc, design_generic(sc, sc, seed=seed))}
        for key, code in small.items():
            spec, dt = timed(tracer, "analysis.exhaustive_spectrum", exhaustive_spectrum, code, tag=key)
            out["spectra"][key] = {str(w): c for w, c in sorted(spec.counts.items())}
            out["spectrum_s"] += dt
            out["spectrum_words"] += 1 << code.k
        t_lw = 0.0
        for spec_text, _ in prof.low_weight:
            comp = parse_component_spec(spec_text)
            lw, dt = timed(tracer, "analysis.low_weight_search", low_weight_search, comp, 4, tag=spec_text)
            out["low_weight"][spec_text] = lw.multiplicity(4)
            t_lw += dt
        out["low_weight_s"] = t_lw
        path = os.path.join(out_dir, "ipc.alist")
        H = codes["ipc"].H
        _, out["alist_write_s"] = timed(tracer, "alist.write_alist", write_alist, H, path)
        back, out["alist_read_s"] = timed(tracer, "alist.read_alist", read_alist, path)
        out["alist_roundtrip_ok"] = back == H
        os.remove(path)
    if tracer is not None:
        out["spans"] = tracer.spans
    return out


def design_pass(prof: Profile, profile_name: str, comp, codes, seed: int, out_dir: str,
                tracer=None) -> dict:
    """PEG design in this process while the analysis lane runs in a worker."""
    parent = tracer.stack[-1] if tracer is not None else None
    with ProcessPoolExecutor(max_workers=1, mp_context=get_context("spawn")) as pool:
        lane = pool.submit(analysis_lane, profile_name, seed, codes, out_dir, parent)
        perms, design_s = timed(tracer, "peg.design_generic", design_generic, comp, comp,
                                seed=DESIGN_SEED)
        out = lane.result()
    path = os.path.join(out_dir, "design.json")
    save_permutation_array(perms, path)
    with open(path, "rb") as fh, open(os.path.join(DATA_DIR, prof.fixture), "rb") as ref:
        out["design_matches_fixture"] = fh.read() == ref.read()
    os.remove(path)
    out["design_s"] = design_s
    return out


def check_design(prof: Profile, out: dict, report: Report) -> None:
    ck = report.checks
    ck.check("design reproduces the fixture byte for byte", out["design_matches_fixture"],
             f"design_generic(seed={DESIGN_SEED}) differs from {prof.fixture}")
    for key, want in prof.girth.items():
        want = {str(g): c for g, c in want.items()}
        ck.check(f"{key} girth histogram", out["girth"][key] == want,
                 f"{out['girth'][key]} != {want}")
    direct = {int(w): c for w, c in out["spectra"]["direct"].items()}
    got = {w: direct.get(w, 0) for w in prof.spectrum_table}
    ck.check("direct spectrum matches the table", got == prof.spectrum_table,
             f"{got} != {prof.spectrum_table}")
    inter = min(int(w) for w in out["spectra"]["interleaved"] if int(w) > 0)
    ck.check("interleaved minimum weight", inter == prof.spectrum_min_weight,
             f"{inter} != {prof.spectrum_min_weight}")
    for spec_text, a4 in prof.low_weight:
        ck.check(f"{spec_text} A4", out["low_weight"][spec_text] == a4,
                 f"{out['low_weight'][spec_text]} != {a4}")
    ck.check("alist round trip", out["alist_roundtrip_ok"], "read_alist(write_alist(H)) != H")


def run_design(name: str, prof: Profile, seed: int, seconds: float, trace: bool,
               out_dir: str, profile_name: str) -> Report:
    report = Report()
    if not trace:
        state = repeated_setup(prof, report)
        cpu0, t0 = cpu_seconds(), time.perf_counter()
        out = design_pass(prof, profile_name, state["comp"], state["codes"], seed, out_dir)
        report.e2e("wall_s", time.perf_counter() - t0, "s")
        report.e2e("cpu_s", cpu_seconds() - cpu0, "s")
        report.e2e("design_s", out["design_s"], "s")
        report.e2e("girth_s", out["girth_s"], "s")
        report.e2e("spectrum_mwords_per_s", out["spectrum_words"] / out["spectrum_s"] / 1e6, "Mword/s")
        check_design(prof, out, report)
        check_sample_frames(state["codes"], seed, report)
        return report

    setup_tracer = Tracer()
    with instrument(setup_tracer):
        state = repeated_setup(prof, report, setup_tracer)
    setup_layers(setup_tracer.spans, report)
    comp, codes = state["comp"], state["codes"]
    pickle_layers(codes, report)

    t0 = time.perf_counter()
    plain = design_pass(prof, profile_name, comp, codes, seed, out_dir)
    wall_plain = time.perf_counter() - t0
    tracer = Tracer()
    t0 = time.perf_counter()
    with instrument(tracer), tracer.span("workload", tag=name):
        out = design_pass(prof, profile_name, comp, codes, seed, out_dir, tracer)
    wall_traced = time.perf_counter() - t0
    spans = tracer.spans + out.pop("spans")
    check_design(prof, plain, report)
    check_design(prof, out, report)

    report.layer("peg.design_s", out["design_s"], "s")
    cands = candidates_scored(comp)
    report.layer("peg.candidates_scored", cands, "count")
    report.layer("peg.us_per_candidate", 1e6 * out["design_s"] / cands, "us")
    report.layer("peg.girth_us_per_root", 1e6 * out["girth_s"] / out["girth_roots"], "us")
    report.layer("analysis.exhaustive_s", out["spectrum_s"], "s")
    report.layer("analysis.ns_per_word", 1e9 * out["spectrum_s"] / out["spectrum_words"], "ns")
    report.layer("analysis.low_weight_ms", 1e3 * out["low_weight_s"], "ms")
    report.layer("alist.write_ms", 1e3 * out["alist_write_s"], "ms")
    report.layer("alist.read_ms", 1e3 * out["alist_read_s"], "ms")

    sample_tracer = Tracer()
    with instrument(sample_tracer):
        check_sample_frames(codes, seed, report, sample_tracer)
    encode_layer(sample_tracer.spans, report)
    finish_trace(report, wall_plain, wall_traced,
                 setup_tracer.spans + spans + sample_tracer.spans, out_dir, name, seed)
    return report


def run_workload(name: str, profile_name: str, seed: int, seconds: float, trace: bool,
                 out_dir: str) -> Report:
    prof = PROFILES[profile_name]
    run = run_design if name == "code-design" else run_sim
    report = run(name, prof, seed, seconds, trace, out_dir, profile_name)
    if not trace:
        report.e2e("peak_rss_mb", peak_rss_mb(), "MB")
        report.e2e("ops_failed_ratio", report.checks.failed / report.checks.attempted, "ratio")
    return report
