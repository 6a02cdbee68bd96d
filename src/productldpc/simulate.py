"""Monte Carlo BER/FER estimation over BPSK/AWGN.

Frames are drawn in fixed-size chunks, each chunk seeded independently
from (seed, point index, chunk index).  Aggregation walks chunks in
index order and stops once enough frame errors (or the frame cap) have
accumulated, so results are identical no matter how many workers ran
the chunks.  Errors are counted over information bits only.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decoder import check_max_iter, spa_decode
from .gf2 import SparseBinMatrix

CHUNK_FRAMES = 25


class IdentityCode:
    """Rate-1 stand-in: k = n, empty H, codeword = information word."""

    def __init__(self, n: int) -> None:
        self.n = n
        self.k = n
        self.H = SparseBinMatrix(0, n, [])
        self.label = f"uncoded:{n}"

    def info_positions(self) -> np.ndarray:
        return np.arange(self.n)

    def encode(self, info) -> np.ndarray:
        info = np.asarray(info, dtype=np.uint8)
        if info.shape != (self.k,):
            raise ValueError(f"expected {self.k} info bits, got {info.shape}")
        return info


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
        check_max_iter(self.max_iter)
        if self.min_frame_errors < 1:
            raise ValueError("min_frame_errors must be at least 1")
        if not len(self.ebn0_db):
            raise ValueError("Eb/N0 grid must be nonempty")
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
    """Simulate one chunk of frames; returns raw counters."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(point_idx, chunk_idx))
    )
    rate = code.k / code.n
    sigma2 = 1.0 / (2.0 * rate * 10.0 ** (ebn0_db / 10.0))
    sigma = np.sqrt(sigma2)
    info_pos = code.info_positions()
    bit_errors = 0
    frame_errors = 0
    iterations = 0
    for _ in range(n_frames):
        info = rng.integers(0, 2, size=code.k, dtype=np.uint8)
        codeword = code.encode(info)
        tx = 1.0 - 2.0 * codeword.astype(np.float64)
        rx = tx + sigma * rng.standard_normal(code.n)
        llr = (2.0 / sigma2) * rx
        result = spa_decode(code.H, llr, max_iter=max_iter)
        errs = int(np.count_nonzero(result.hard_bits[info_pos] != info))
        bit_errors += errs
        frame_errors += errs > 0
        iterations += result.iterations_used
    return bit_errors, frame_errors, iterations, n_frames


def _chunk_plan(max_frames: int) -> list:
    sizes = [CHUNK_FRAMES] * (max_frames // CHUNK_FRAMES)
    if max_frames % CHUNK_FRAMES:
        sizes.append(max_frames % CHUNK_FRAMES)
    return sizes


def _aggregate(cfg: SimConfig, ebn0_db: float, chunk_results) -> SimPoint:
    """Fold chunk counters in index order until the stopping rule fires."""
    bit_errors = frame_errors = iterations = frames = 0
    for be, fe, it, fr in chunk_results:
        bit_errors += be
        frame_errors += fe
        iterations += it
        frames += fr
        if frame_errors >= cfg.min_frame_errors:
            break
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


def _simulate_point_serial(cfg: SimConfig, point_idx: int, ebn0_db: float) -> SimPoint:
    results = []
    frame_errors = 0
    for chunk_idx, size in enumerate(_chunk_plan(cfg.max_frames)):
        res = _run_chunk(
            cfg.code, ebn0_db, size, cfg.seed, point_idx, chunk_idx, cfg.max_iter
        )
        results.append(res)
        frame_errors += res[1]
        if frame_errors >= cfg.min_frame_errors:
            break
    return _aggregate(cfg, ebn0_db, results)


def _simulate_point_parallel(cfg: SimConfig, point_idx: int, ebn0_db: float,
                             pool: ProcessPoolExecutor) -> SimPoint:
    plan = _chunk_plan(cfg.max_frames)
    results = []
    frame_errors = 0
    cursor = 0
    while cursor < len(plan):
        wave = range(cursor, min(cursor + cfg.workers, len(plan)))
        futures = [
            pool.submit(
                _run_chunk, cfg.code, ebn0_db, plan[c], cfg.seed, point_idx,
                c, cfg.max_iter,
            )
            for c in wave
        ]
        for fut in futures:
            res = fut.result()
            results.append(res)
            frame_errors += res[1]
        cursor += len(futures)
        if frame_errors >= cfg.min_frame_errors:
            break
    return _aggregate(cfg, ebn0_db, results)


def run_sweep(cfg: SimConfig) -> SimResult:
    """BER/FER at every grid point, stopping each point on enough errors."""
    points = []
    if cfg.workers > 1:
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for idx, ebn0 in enumerate(cfg.ebn0_db):
                points.append(_simulate_point_parallel(cfg, idx, float(ebn0), pool))
    else:
        for idx, ebn0 in enumerate(cfg.ebn0_db):
            points.append(_simulate_point_serial(cfg, idx, float(ebn0)))
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
