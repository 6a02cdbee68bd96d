"""Monte Carlo BER/FER estimation over BPSK/AWGN.

Frames are drawn in fixed-size chunks, each chunk seeded independently
from (seed, point index, chunk index).  The chunk is the one unit of
parallel work: one loop hands chunks to the free slots of the sweep's
executor, folds their counters strictly in chunk-index order and stops
once enough frame errors (or the frame cap) have accumulated, so results
are identical whichever executor ran the chunks.  With more than one
worker the executor is one process pool: each worker receives the code
once, when it starts (never pickled under fork, pickled once per worker
under spawn), so a submit carries only the chunk's numbers, and the
decoder state that the worker builds stays built for the whole sweep.
With one worker, if H has at least _LANE_EDGES edges, it is a pool of
one thread per usable CPU (the CPU lanes), whose numpy calls overlap
and which each build their own decoder state once; otherwise the
chunks run in process, one at a time, and no chunk past the stop is
decoded.  A new chunk is submitted whenever a slot is free, unless the
chunks in flight are expected to finish the point, so at most one chunk
per slot is in flight and none waits in a queue; the chunks still
running when a point stops finish and are discarded.
Errors are counted over information bits only.
"""

from __future__ import annotations

import math
import numbers
from collections import deque
from concurrent.futures import (FIRST_COMPLETED, Executor, Future, ProcessPoolExecutor,
                                ThreadPoolExecutor, wait)
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .decoder import spa_decode
from .gf2 import _cpus, check_int

CHUNK_FRAMES = 25
# A process pool starts all its workers on its first submit, so a
# mistyped worker count must be refused before any pool exists.
MAX_WORKERS = 64
# The fewest edges in H at which one worker runs chunks in CPU lanes.
# numpy calls over fewer edges are too short to overlap, and the GIL
# hand-offs make two lanes slower.  Wall time of a one-worker sweep at
# 2.5 dB (400 to 5,000 frames) in two lanes over that in one, median of
# 3 pairs on 2 cores (edges: ratio):
#   mscmpc:5:3,4 squared     340: 1.12    mscmpc:49:7,8 squared   13,560: 0.91
#   spc:30 squared         1,891: 1.89    mscmpc:64:8,9 squared   22,185: 0.76
#   mscmpc:25:5,6 squared  4,026: 1.68    mscmpc:81:9,10 squared  34,390: 0.68
#   mscmpc:36:6,7 squared  7,735: 1.23
# Re-measured over 6 pairs (1,500 and 1,200 frames): 7,735 edges 1.20
# (q1-q3 1.16-1.26, slower in 6 of 6), 13,560 edges 0.89 (0.76-1.00,
# faster in 5 of 6).  The ratio crosses 1 near 11,400 edges.
_LANE_EDGES = 11_000
_BPSK = np.array([1.0, -1.0])  # the transmitted level of bit 0 and of bit 1


def _noise_variance(rate: float, ebn0_db: float) -> float:
    """Per-sample AWGN variance of BPSK at `ebn0_db` for a code of `rate`:
    0 or inf where Eb/N0 as a power ratio leaves the float range."""
    try:
        return 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    except OverflowError:
        return 0.0
    except ZeroDivisionError:
        return math.inf


@dataclass
class SimConfig:
    code: object
    ebn0_db: list
    max_iter: int = 100
    min_frame_errors: int = 50
    max_frames: int = 100_000
    seed: int = 0
    workers: int = 1

    def __post_init__(self) -> None:
        check_int("max_iter", self.max_iter, 1)
        check_int("min_frame_errors", self.min_frame_errors, 1)
        check_int("max_frames", self.max_frames, 1)
        check_int("seed", self.seed, 0)
        check_int("workers", self.workers, 1)
        if self.workers > MAX_WORKERS:
            raise ValueError(f"workers must be at most {MAX_WORKERS}, got {self.workers}")
        if not len(self.ebn0_db):
            raise ValueError("Eb/N0 grid must be nonempty")
        for e in self.ebn0_db:
            if isinstance(e, bool) or not isinstance(e, numbers.Real) or not math.isfinite(e):
                raise ValueError(f"ebn0_db entries must be finite numbers, got {e!r}")
            sigma2 = _noise_variance(self.code.k / self.code.n, e)
            if not (0.0 < sigma2 < math.inf and 2.0 / sigma2 < math.inf):
                raise ValueError(
                    f"ebn0_db entry {e!r} is out of range: noise variance {sigma2!r}"
                )
        if self.max_frames < self.min_frame_errors:
            raise ValueError("max_frames must be at least min_frame_errors")


@dataclass
class SimPoint:
    ebn0_db: float
    frames: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    avg_iterations: float
    low_confidence: bool


@dataclass
class SimResult:
    points: list
    meta: dict = field(default_factory=dict)


def _run_chunk(code, ebn0_db: float, n_frames: int, seed, point_idx: int,
               chunk_idx: int, max_iter: int):
    """Simulate one chunk of frames; returns raw counters.

    Each frame is drawn in stream order (info word, encode, noise) and
    decoded before the next is drawn, so a chunk holds one frame's
    buffers at a time, not 25 frames of LLRs and information words
    (2.2 MB at n = 10,000).  The channel LLRs are computed in place, bit
    for bit equal to ``(2 / sigma2) * (tx + sigma * noise)``.  Against
    drawing the whole chunk first, this alone cut the one-worker
    (10000,6561) sweep's peak memory by 3.7 % (lower in 6 of 6 pairs on
    2 cores) for 1.027x its wall time; with the decoder's in-place edge
    arrays, the sweep's peak fell from 114.5 to 110.1 MB (10 of 10).
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_idx, chunk_idx))
    )
    sigma2 = _noise_variance(code.k / code.n, ebn0_db)
    sigma = np.sqrt(sigma2)
    info_pos = code.info_positions()
    bit_errors = frame_errors = iterations = 0
    for _ in range(n_frames):
        info = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        codeword = code.encode(info)
        llr = rng.standard_normal(code.n)
        llr *= sigma
        llr += _BPSK[codeword]
        llr *= 2.0 / sigma2
        result = spa_decode(code.H, llr, max_iter=max_iter)
        errs = int(np.count_nonzero(result.hard_bits[info_pos] != info))
        bit_errors += errs
        frame_errors += errs > 0
        iterations += result.iterations_used
    return bit_errors, frame_errors, iterations, n_frames


def _chunk_plan(max_frames: int):
    """The frame counts of a point's chunks, in order, made as they are
    asked for: a point that stops early never holds the rest.  The range
    walk takes any max_frames, even one past sys.maxsize."""
    return (min(CHUNK_FRAMES, max_frames - s) for s in range(0, max_frames, CHUNK_FRAMES))


# The code of the sweep a pool worker serves, set once by _init_worker
# when the worker starts; a submit then carries only the chunk's numbers.
_worker_code = None


def _init_worker(code) -> None:
    global _worker_code
    _worker_code = code


def _run_worker_chunk(*chunk):
    return _run_chunk(_worker_code, *chunk)


def _simulate_point(cfg: SimConfig, point_idx: int, ebn0_db: float, submit, slots: int,
                    running: set) -> SimPoint:
    """Fold chunk counters in index order until the stopping rule fires.

    `submit(ebn0_db, n_frames, seed, point_idx, chunk_idx, max_iter)`
    returns a future of `_run_chunk`'s counters from an executor of
    `slots` workers.  `running` holds the sweep's submitted futures,
    those of earlier points included; a chunk is submitted only while
    fewer than `slots` of them are not done, so no chunk waits in a
    queue, and a slot that finishes any chunk gets the next one without
    waiting for the older chunks to be folded, unless the chunks in
    flight are expected to finish the point.  Chunks past the one that
    fires the rule are discarded: those that finished while an older
    chunk still ran, and those still running, one per busy slot at most,
    which finish first.
    """
    plan = enumerate(_chunk_plan(cfg.max_frames))
    pending = deque()  # (future, frames) submitted and not yet folded, in chunk order
    pending_frames = 0
    bit_errors = frame_errors = iterations = frames = 0
    while frame_errors < cfg.min_frame_errors:
        if pending and pending[0][0].done():
            fut, size = pending.popleft()
            be, fe, it, fr = fut.result()
            pending_frames -= size
            bit_errors += be
            frame_errors += fe
            iterations += it
            frames += fr
            continue
        running.difference_update([fut for fut in running if fut.done()])
        # A free slot gets the next chunk unless the chunks in flight
        # are expected to bring the point to its stop at the frame error
        # rate folded so far (every frame failing, before the first fold).
        rate = frame_errors / frames if frames else 1.0
        if (len(running) < slots
                and frame_errors + rate * pending_frames < cfg.min_frame_errors):
            chunk = next(plan, None)
            if chunk is not None:
                chunk_idx, size = chunk
                fut = submit(ebn0_db, size, cfg.seed, point_idx, chunk_idx, cfg.max_iter)
                pending.append((fut, size))
                pending_frames += size
                running.add(fut)
                continue
            if not pending:
                break
        wait(running, return_when=FIRST_COMPLETED)
    return SimPoint(
        ebn0_db=ebn0_db,
        frames=frames,
        bit_errors=bit_errors,
        frame_errors=frame_errors,
        ber=bit_errors / (frames * cfg.code.k),
        fer=frame_errors / frames,
        avg_iterations=iterations / frames,
        low_confidence=frame_errors < cfg.min_frame_errors,
    )


class _InProcess(Executor):
    """The executor of one slot: runs each chunk at once, in this process."""

    def submit(self, fn, /, *args, **kwargs) -> Future:
        fut = Future()
        fut.set_result(fn(*args, **kwargs))
        return fut


def run_sweep(cfg: SimConfig) -> SimResult:
    """BER/FER at every grid point, stopping each point on enough errors."""
    if cfg.workers > 1:
        slots = cfg.workers
        executor = ProcessPoolExecutor(max_workers=slots, initializer=_init_worker,
                                       initargs=(cfg.code,))
        submit = partial(executor.submit, _run_worker_chunk)
    else:
        # One slot runs inline, on this thread: handing each chunk to a
        # pool of one thread costs about 2 % on a tiny code, where a
        # chunk is short (mscmpc:5:3,4 squared, 10,000 frames at 2.5 dB:
        # 1.021x the inline time, slower in 10 of 10 pairs on 2 CPUs,
        # 1.001x on one; spc:30 squared, 3,000 frames: 1.008x).
        slots = _cpus() if cfg.code.H.nnz >= _LANE_EDGES else 1
        executor = ThreadPoolExecutor(slots) if slots > 1 else _InProcess()
        submit = partial(executor.submit, _run_chunk, cfg.code)
    running = set()
    with executor:
        points = [
            _simulate_point(cfg, idx, float(ebn0), submit, slots, running)
            for idx, ebn0 in enumerate(cfg.ebn0_db)
        ]
    meta = {
        "code": getattr(cfg.code, "label", repr(cfg.code)),
        "n": cfg.code.n,
        "k": cfg.code.k,
        "seed": cfg.seed,
        "max_iter": cfg.max_iter,
        "min_frame_errors": cfg.min_frame_errors,
        "max_frames": cfg.max_frames,
        "chunk_frames": CHUNK_FRAMES,
        "error_counting": "information bits only",
    }
    return SimResult(points=points, meta=meta)


def write_sim_csv(path, result: SimResult) -> None:
    with open(path, "w") as fh:
        for key, val in result.meta.items():
            fh.write(f"# {key}={val}\n")
        fh.write(
            "ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iter,low_confidence\n"
        )
        for p in result.points:
            fh.write(
                f"{p.ebn0_db:.6g},{p.frames},{p.bit_errors},{p.frame_errors},"
                f"{p.ber:.6e},{p.fer:.6e},{p.avg_iterations:.3f},"
                f"{int(p.low_confidence)}\n"
            )
