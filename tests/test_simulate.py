import math

import numpy as np
import pytest

from productldpc import build_hp, build_spc
from productldpc.analysis import qfunc
from productldpc.simulate import (
    IdentityCode,
    SimConfig,
    SimPoint,
    run_sweep,
    write_sim_csv,
)


@pytest.fixture(scope="module")
def tiny_pc():
    spc = build_spc(3)
    return build_hp(spc, spc)


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

    def test_workers_do_not_change_result(self, tiny_pc):
        kw = dict(code=tiny_pc, ebn0_db=[2.0], min_frame_errors=10,
                  max_frames=200, seed=3)
        serial = run_sweep(SimConfig(workers=1, **kw))
        parallel = run_sweep(SimConfig(workers=2, **kw))
        assert [vars(p) for p in serial.points] == [vars(p) for p in parallel.points]


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
        code = IdentityCode(5000)
        cfg = SimConfig(code=code, ebn0_db=[4.0], min_frame_errors=100,
                        max_frames=100, seed=21)
        (p,) = run_sweep(cfg).points
        theory = float(qfunc(math.sqrt(2 * 10 ** (4.0 / 10))))
        n_bits = p.frames * code.k
        assert abs(p.ber - theory) <= 3 * math.sqrt(theory * (1 - theory) / n_bits)

    def test_identity_encode_validates_length(self):
        code = IdentityCode(8)
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
