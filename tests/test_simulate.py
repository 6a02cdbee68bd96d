import hashlib
import math
import tracemalloc
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from productldpc import (
    ComponentCode,
    ProductCode,
    build_hp,
    build_mscmpc,
    build_spc,
    build_uncoded,
    simulate,
)
from productldpc.analysis import qfunc
from productldpc.simulate import (
    CHUNK_FRAMES,
    MAX_WORKERS,
    SimConfig,
    SimPoint,
    _chunk_plan,
    _init_worker,
    _run_chunk,
    _run_worker_chunk,
    _simulate_point,
    run_sweep,
    write_sim_csv,
)
from productldpc.product import load_permutation_array

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


class CountingCode(ComponentCode):
    """An uncoded code that counts the pickles made of it; workers
    unpickle a plain one."""

    pickles = 0

    def __init__(self, n):
        uncoded = build_uncoded(n)
        super().__init__(n, n, uncoded.H, uncoded.label)

    def __reduce_ex__(self, protocol):
        CountingCode.pickles += 1
        return build_uncoded, (self.n,)


@pytest.fixture(scope="module")
def tiny_pc():
    spc = build_spc(3)
    return build_hp(spc, spc)


# The executors a sweep hands chunks to, with their slot counts: process
# pools, and the thread pools of the CPU lanes.
POOLS = [
    pytest.param(ProcessPoolExecutor, 2, id="2"),
    pytest.param(ProcessPoolExecutor, 3, id="3"),
    pytest.param(ThreadPoolExecutor, 2, id="threads-2"),
    pytest.param(ThreadPoolExecutor, 3, id="threads-3"),
]


class TestConfigValidation:
    def test_rejects_zero_min_errors(self, tiny_pc):
        with pytest.raises(ValueError):
            SimConfig(code=tiny_pc, ebn0_db=[1.0], min_frame_errors=0)

    def test_rejects_empty_grid(self, tiny_pc):
        with pytest.raises(ValueError):
            SimConfig(code=tiny_pc, ebn0_db=[])

    @pytest.mark.parametrize("max_iter", [0, -3, 2.5, 10.0, "10", None])
    def test_rejects_bad_max_iter(self, tiny_pc, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            SimConfig(code=tiny_pc, ebn0_db=[1.0], max_iter=max_iter)

    @pytest.mark.parametrize("field, value", [
        ("min_frame_errors", 2.7), ("min_frame_errors", True), ("max_frames", 30.9),
        ("max_frames", "100"), ("seed", 1.5), ("seed", -1), ("seed", None),
        ("workers", 0), ("workers", -4), ("workers", 2.0), ("workers", True),
    ])
    def test_rejects_bad_integer_field(self, tiny_pc, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(code=tiny_pc, ebn0_db=[1.0], **{field: value})

    def test_rejects_workers_above_cap(self, tiny_pc):
        # Only constructs the config: no pool is started at any count.
        SimConfig(code=tiny_pc, ebn0_db=[1.0], workers=MAX_WORKERS)
        with pytest.raises(ValueError, match=f"at most {MAX_WORKERS}, got {MAX_WORKERS + 1}"):
            SimConfig(code=tiny_pc, ebn0_db=[1.0], workers=MAX_WORKERS + 1)

    def test_rejects_frame_cap_below_target(self, tiny_pc):
        with pytest.raises(ValueError):
            SimConfig(code=tiny_pc, ebn0_db=[1.0], min_frame_errors=10, max_frames=5)


class TestDeterminism:
    def test_same_config_same_result(self, tiny_pc):
        cfg = SimConfig(code=tiny_pc, ebn0_db=[1.0, 3.0], min_frame_errors=10,
                        max_frames=200, seed=77)
        a = run_sweep(cfg)
        b = run_sweep(cfg)
        assert [vars(p) for p in a.points] == [vars(p) for p in b.points]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_workers_do_not_change_result(self, tiny_pc, workers):
        # One pool serves every point.  The first two points stop on
        # their errors after 3 and 9 chunks, neither a multiple of 2 or
        # 3 workers, so chunks past the stop may still run when the next
        # point starts; the last point runs all of its 20 chunks.
        kw = dict(code=tiny_pc, ebn0_db=[0.0, 2.0, 8.0], min_frame_errors=20,
                  max_frames=500, seed=3)
        serial = run_sweep(SimConfig(workers=1, **kw))
        parallel = run_sweep(SimConfig(workers=workers, **kw))
        assert [p.frames for p in serial.points] == [75, 225, 500]
        assert [vars(p) for p in serial.points] == [vars(p) for p in parallel.points]

    @pytest.mark.parametrize("pool_type, workers", POOLS)
    def test_chunks_go_only_to_free_workers(self, tiny_pc, pool_type, workers):
        # No chunk waits in a queue, so when the point stops, at most one
        # chunk per worker is left to decode and be discarded.  The point
        # needs 14 chunks at about 7 frame errors each, so the chunks in
        # flight are held by the worker count, not by the expected stop.
        cfg = SimConfig(code=tiny_pc, ebn0_db=[0.0], min_frame_errors=100,
                        max_frames=2000, seed=3)
        submitted = []
        with pool_type(max_workers=workers) as pool:
            def submit(*chunk):
                assert sum(not fut.done() for fut in submitted) < workers
                submitted.append(pool.submit(_run_chunk, tiny_pc, *chunk))
                return submitted[-1]

            point = _simulate_point(cfg, 0, 0.0, submit, workers, set())
            assert sum(not fut.done() for fut in submitted) <= workers
        assert point.frames == 14 * CHUNK_FRAMES

    @pytest.mark.parametrize("pool_type, workers", POOLS)
    def test_no_chunk_past_the_expected_stop(self, pool_type, workers):
        # Every frame fails, so two 25-frame chunks reach 50 errors: no
        # worker starts a third chunk that the stop would discard.
        cfg = SimConfig(code=build_uncoded(16), ebn0_db=[-30.0], min_frame_errors=50,
                        max_frames=500, seed=5)
        submitted = []
        with pool_type(max_workers=workers) as pool:
            def submit(*chunk):
                submitted.append(pool.submit(_run_chunk, cfg.code, *chunk))
                return submitted[-1]

            point = _simulate_point(cfg, 0, -30.0, submit, workers, set())
        assert (point.frames, point.frame_errors) == (50, 50)
        assert len(submitted) == 2

    def test_code_is_sent_once_per_worker(self):
        CountingCode.pickles = 0
        cfg = SimConfig(code=CountingCode(16), ebn0_db=[0.0, 1.0, 2.0],
                        min_frame_errors=200, max_frames=200, seed=4, workers=2)
        points = run_sweep(cfg).points
        assert sum(p.frames for p in points) == 600  # 24 chunks over 3 points
        assert CountingCode.pickles <= cfg.workers

    def test_full_size_frames_decode_in_lanes_in_process_only(self, monkeypatch, lanes):
        # The (10000,6561) direct code has 34,390 edges, above _LANE_EDGES:
        # one process runs its chunks on a pool of one thread per CPU, with
        # the same counts; a pool worker decodes its chunk on its own thread.
        c = build_mscmpc(81, [9, 10])
        code = build_hp(c, c)
        assert code.H.nnz >= simulate._LANE_EDGES
        cfg = SimConfig(code, ebn0_db=[2.5], min_frame_errors=50, max_frames=50, seed=7)
        points = {}
        for cpus in (1, 2):
            pools = lanes(cpus)
            points[cpus] = [vars(p) for p in run_sweep(cfg).points]
            assert pools == ([2] if cpus == 2 else [])  # one pool per sweep
        assert points[1] == points[2]
        monkeypatch.setattr(simulate, "_worker_code", None)
        _init_worker(code)
        pools = lanes(2)
        chunk = (2.5, CHUNK_FRAMES, cfg.seed, 0, 0, cfg.max_iter)
        assert _run_worker_chunk(*chunk) == _run_chunk(code, *chunk)
        assert pools == []


class TestChunkPlan:
    @pytest.mark.parametrize("max_frames, sizes", [
        (1, [1]),
        (CHUNK_FRAMES, [CHUNK_FRAMES]),
        (2 * CHUNK_FRAMES, [CHUNK_FRAMES, CHUNK_FRAMES]),
        (2 * CHUNK_FRAMES + 10, [CHUNK_FRAMES, CHUNK_FRAMES, 10]),
    ])
    def test_sizes(self, max_frames, sizes):
        assert list(_chunk_plan(max_frames)) == sizes

    def test_a_large_frame_cap_is_not_built_up_front(self):
        # Every frame fails, so the point stops after two chunks; a plan
        # built as a list would hold 4 million sizes (about 30 MiB).
        cfg = SimConfig(code=build_uncoded(16), ebn0_db=[-30.0], min_frame_errors=50,
                        max_frames=10**8, seed=5)
        tracemalloc.start()
        try:
            (point,) = run_sweep(cfg).points
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (point.frames, point.frame_errors) == (50, 50)
        assert peak < 1 << 20


class TestCounters:
    def test_point_arithmetic(self, tiny_pc):
        cfg = SimConfig(code=tiny_pc, ebn0_db=[0.0], min_frame_errors=15,
                        max_frames=300, seed=5)
        (p,) = run_sweep(cfg).points
        assert p.ber == pytest.approx(p.bit_errors / (p.frames * tiny_pc.k))
        assert p.fer == pytest.approx(p.frame_errors / p.frames)
        assert p.ber <= p.fer
        assert p.frames <= 300
        assert p.low_confidence == (p.frame_errors < 15)
        # a frame is erred iff any information bit differs
        assert p.frame_errors <= p.frames
        assert p.bit_errors <= tiny_pc.k * p.frame_errors

    def test_stops_on_enough_errors(self, tiny_pc):
        cfg = SimConfig(code=tiny_pc, ebn0_db=[-2.0], min_frame_errors=5,
                        max_frames=10_000, seed=1)
        (p,) = run_sweep(cfg).points
        assert p.frame_errors >= 5
        assert p.frames < 10_000
        assert not p.low_confidence

    def test_noiseless_surrogate_has_no_errors(self, tiny_pc):
        cfg = SimConfig(code=tiny_pc, ebn0_db=[60.0], min_frame_errors=50,
                        max_frames=60, seed=2)
        (p,) = run_sweep(cfg).points
        assert p.frame_errors == 0 and p.bit_errors == 0
        assert p.fer == 0.0
        assert p.low_confidence

    def test_monotone_over_grid_with_ci(self, tiny_pc):
        cfg = SimConfig(code=tiny_pc, ebn0_db=[0.0, 4.0, 8.0], min_frame_errors=30,
                        max_frames=2000, seed=8)
        points = run_sweep(cfg).points
        for lo, hi in zip(points, points[1:]):
            # allow three binomial sigmas of Monte Carlo slack
            slack = 3 * math.sqrt(max(lo.fer * (1 - lo.fer), 1e-9) / lo.frames)
            assert hi.fer <= lo.fer + slack


class TestUncoded:
    def test_identity_code_matches_bpsk_theory(self):
        code = build_uncoded(5000)
        cfg = SimConfig(code=code, ebn0_db=[4.0], min_frame_errors=100,
                        max_frames=100, seed=21)
        (p,) = run_sweep(cfg).points
        theory = float(qfunc(math.sqrt(2 * 10 ** (4.0 / 10))))
        n_bits = p.frames * code.k
        assert abs(p.ber - theory) <= 3 * math.sqrt(theory * (1 - theory) / n_bits)

    def test_identity_encode_validates_length(self):
        code = build_uncoded(8)
        with pytest.raises(ValueError):
            code.encode(np.zeros(7, dtype=np.uint8))


def test_csv_output(tmp_path):
    point = SimPoint(2.0, 100, 7, 3, 7 / 900, 0.03, 4.5, True)
    from productldpc.simulate import SimResult

    res = SimResult(points=[point], meta={"seed": 1})
    path = tmp_path / "out.csv"
    write_sim_csv(path, res)
    text = path.read_text()
    assert "# seed=1" in text
    assert "ebn0_db,frames,bit_errors,frame_errors,ber,fer,avg_iter,low_confidence" in text
    assert text.strip().endswith("4.500,1")


# SHA-256 of the sweep CSV of each (144,25) code when these pins were
# recorded, with its (frames, frame errors, bit errors) per point; the
# bytes must not depend on the worker count.
@pytest.mark.parametrize("perms, counts, digest", [
    (None, [(150, 20, 51), (425, 22, 49), (2000, 12, 33)],
     "481faad634c91728762442a31c08613430dfb98b7f9e649729e07039002facdb"),
    ("perms_mscmpc5_seed1.json", [(225, 20, 44), (650, 21, 37), (2000, 8, 16)],
     "50307c36bf2c7e4cc5163422a0cca68e33b52c9d04b8164e54e65332a8464df8"),
], ids=["direct-144", "interleaved-144"])
@pytest.mark.parametrize("workers, cpus", [
    pytest.param(1, None, id="1"),
    pytest.param(2, None, id="2"),
    # Below _LANE_EDGES the chunks run inline; with the floor at 0 the
    # (144,25) codes run them on a pool of three threads.
    pytest.param(1, 3, id="1-3lanes"),
])
def test_sweep_csv_bytes_are_pinned(tmp_path, monkeypatch, lanes, comp5, perms, counts, digest,
                                    workers, cpus):
    table = None if perms is None else load_permutation_array(DATA / perms)
    code = ProductCode(comp5, comp5, table)
    if cpus is not None:
        pools = lanes(cpus)
        monkeypatch.setattr(simulate, "_LANE_EDGES", 0)
    result = run_sweep(SimConfig(code, ebn0_db=[2.0, 3.0, 4.0], max_iter=50, min_frame_errors=20,
                                 max_frames=2000, seed=7, workers=workers))
    assert [(p.frames, p.frame_errors, p.bit_errors) for p in result.points] == counts
    if cpus is not None:
        assert pools == [cpus]  # one pool per sweep
    path = tmp_path / "sweep.csv"
    write_sim_csv(path, result)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
