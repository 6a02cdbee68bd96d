"""Measurement plumbing for the benchmark: spans, percentiles, checks.

Spans are recorded only by benchmark code, around calls into the
library's public functions.  A traced run also swaps a few names the
library looks up at call time (see `instrument`) so that calls made
inside the library, including those in forked pool workers, are timed
too.  Untraced runs create no spans and patch nothing.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import resource
import time
from multiprocessing import util as mp_util

from scipy.stats import beta, binom

# Percentiles offered by the tail rule, highest last.
PERCENTILE_LADDER = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_MIN_BEYOND = 10

# Span ids are "<pid>:<n>" with n from one counter per process, so the
# spans of several tracers (and of forked workers) can be merged.
_span_seq = itertools.count(1)


def _rank(p: float, n: int) -> int:
    # Rounded first so that, say, 90 % of 100 is rank 90 and not 91.
    return max(1, math.ceil(round(p * n / 100.0, 9)))


def percentile(samples, p: float) -> float:
    """Nearest-rank percentile of a nonempty sample."""
    ordered = sorted(samples)
    return ordered[_rank(p, len(ordered)) - 1]


def tail_percentile(samples):
    """Highest ladder percentile with at least ten samples beyond it.

    Returns (percentile, value, sample count); the percentile is None
    when even the median has fewer than ten samples above it.
    """
    n = len(samples)
    chosen = None
    for p in PERCENTILE_LADDER:
        if n - _rank(p, n) >= TAIL_MIN_BEYOND:
            chosen = p
    if chosen is None:
        return None, None, n
    return chosen, percentile(samples, chosen), n


def median(values) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


# ---------------------------------------------------------------- spans


class Tracer:
    """In-memory span recorder, one per process.

    A span is (id, name, start, end, parent, tag, attrs); the tag names
    the frame or phase and is inherited from the enclosing span.  Ids are
    "<pid>:<seq>" so spans from pool workers never collide; a forked
    worker keeps the parent's open-span stack, so its spans hang off the
    span that was open when the pool forked.  Workers write their spans
    to `<out_dir>/spans-<pid>.json` when they exit.
    """

    def __init__(self, out_dir=None) -> None:
        self.out_dir = out_dir
        self.pid = os.getpid()
        self.spans: list = []
        self.stack: list = []
        mp_util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        self.pid = os.getpid()
        self.spans = []
        if self.out_dir is not None:
            mp_util.Finalize(None, self.dump_worker, exitpriority=100)

    def dump_worker(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}.json")
        with open(path, "w") as fh:
            json.dump(self.spans, fh)

    @contextlib.contextmanager
    def span(self, name: str, tag=None, attrs=None):
        sid = f"{self.pid}:{next(_span_seq)}"
        parent, outer_tag = self.stack[-1] if self.stack else (None, None)
        tag = outer_tag if tag is None else tag
        record = {"id": sid, "name": name, "parent": parent, "tag": tag,
                  "start": time.perf_counter(), "end": None}
        if attrs:
            record["attrs"] = attrs
        self.stack.append((sid, tag))
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.stack.pop()
            self.spans.append(record)

    def collect_workers(self) -> list:
        """Spans written by exited workers; the files are removed."""
        found = []
        if self.out_dir is None:
            return found
        for entry in sorted(os.listdir(self.out_dir)):
            if entry.startswith("spans-") and entry.endswith(".json"):
                path = os.path.join(self.out_dir, entry)
                with open(path) as fh:
                    found.extend(json.load(fh))
                os.remove(path)
        return found


def timed(tracer, name, fn, *args, tag=None, **kwargs):
    """Call fn, inside a span when tracing; returns (result, seconds)."""
    t0 = time.perf_counter()
    if tracer is None:
        out = fn(*args, **kwargs)
    else:
        with tracer.span(name, tag=tag):
            out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by child spans.

    Children may run in other processes and overlap each other, so the
    covered part is the length of the union of their clipped intervals.
    """
    by_id = {s["id"]: s for s in spans}
    kids: dict = {}
    for s in spans:
        if s["parent"] in by_id:
            kids.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        start, end = s["start"], s["end"]
        pieces = sorted(
            (max(c["start"], start), min(c["end"], end)) for c in kids.get(s["id"], ())
        )
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in pieces:
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s["id"]] = (end - start) - covered
    return out


def span_table(spans) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    selfs = self_times(spans)
    table: dict = {}
    for s in spans:
        row = table.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += selfs[s["id"]]
    return table


def span_cost_s(repeats: int = 5000) -> float:
    """Seconds one empty span costs on this machine, median of 5 batches."""
    tracer = Tracer()
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(repeats):
            with tracer.span("cost"):
                pass
        batches.append((time.perf_counter() - t0) / repeats)
        tracer.spans.clear()
    return median(batches)


def durations(spans, name) -> list:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


@contextlib.contextmanager
def instrument(tracer):
    """Time the library calls that happen inside other library calls.

    Swaps the names looked up at call time: the decoder and encoder as
    the simulator sees them, and the gf2 products as the constructors
    see them.  Everything is restored on exit.
    """
    from productldpc import product, simulate

    originals = {
        (simulate, "spa_decode"): simulate.spa_decode,
        (product, "kron"): product.kron,
        (product, "vec_kron"): product.vec_kron,
        (product, "vstack"): product.vstack,
        (product.ProductCode, "encode"): product.ProductCode.encode,
    }
    decode = simulate.spa_decode
    encode = product.ProductCode.encode
    state = {"last_h": None, "frame": 0}

    def traced_decode(H, channel_llr, **kwargs):
        # A decode is cold when H is not the matrix of the previous
        # call; holding that one reference keeps ids from being reused.
        cold = H is not state["last_h"]
        state["last_h"] = H
        with tracer.span("decoder.spa_decode", tag=f"frame:{tracer.pid}.{state['frame']}") as rec:
            res = decode(H, channel_llr, **kwargs)
        rec["attrs"] = {"iters": res.iterations_used, "ok": res.converged, "cold": cold}
        return res

    def traced_encode(self, info):
        state["frame"] += 1
        with tracer.span("product.encode", tag=f"frame:{tracer.pid}.{state['frame']}"):
            return encode(self, info)

    def wrap(name, fn):
        def traced(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)
        return traced

    simulate.spa_decode = traced_decode
    product.ProductCode.encode = traced_encode
    product.kron = wrap("gf2.kron", originals[(product, "kron")])
    product.vec_kron = wrap("gf2.vec_kron", originals[(product, "vec_kron")])
    product.vstack = wrap("gf2.vstack", originals[(product, "vstack")])
    try:
        yield
    finally:
        for (owner, attr), fn in originals.items():
            setattr(owner, attr, fn)


# ---------------------------------------------------------------- checks


class Checks:
    """Counts correctness checks; every failure is kept for the report."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list = []

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{name}: {detail}")


# Both tails of the FER gate: the reference's Clopper-Pearson interval
# and the run's binomial acceptance region are taken at 1 - ALPHA.
FER_GATE_ALPHA = 1e-6


def fer_gate(errors: int, frames: int, ref_errors: int, ref_frames: int,
             alpha: float = FER_GATE_ALPHA):
    """Is `errors` of `frames` consistent with the reference counts?

    Passes when some FER inside the reference's two-sided 1-alpha
    Clopper-Pearson interval puts `errors` inside its own two-sided
    1-alpha binomial acceptance region.  Returns (ok, (lo, hi)).
    """
    lo = 0.0 if ref_errors == 0 else float(beta.ppf(alpha / 2, ref_errors, ref_frames - ref_errors + 1))
    hi = 1.0 if ref_errors == ref_frames else float(
        beta.ppf(1 - alpha / 2, ref_errors + 1, ref_frames - ref_errors))
    too_many = errors > 0 and binom.sf(errors - 1, frames, hi) < alpha / 2
    too_few = binom.cdf(errors, frames, lo) < alpha / 2
    return not (too_many or too_few), (lo, hi)


# ---------------------------------------------------------------- process


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak of a reaped child."""
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (me + kids) / 1024.0
