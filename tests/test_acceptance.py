"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

The full-scale BER/FER comparison (criterion 7) simulates the
(10000, 6561) pair and takes the longest; everything else finishes in
a few minutes.
"""

import math
import time

import numpy as np
import pytest

from productldpc import (
    build_hp,
    build_hp_interleaved,
    build_mscmpc,
    build_uncoded,
    design_circulant,
    design_generic,
    exhaustive_spectrum,
    local_girth,
    low_weight_search,
    spa_decode,
    syndrome,
    union_bound,
)
from productldpc.analysis import WeightSpectrum, qfunc
from productldpc.simulate import SimConfig, run_sweep

TABLE_SPECTRUM = {16: 64, 20: 0, 22: 0, 24: 246, 26: 0, 28: 504, 30: 392, 32: 1262}


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def comp5():
    return build_mscmpc(5, [3, 4])


@pytest.fixture(scope="module")
def comp81():
    return build_mscmpc(81, [9, 10])


@pytest.fixture(scope="module")
def pc144(comp5):
    return build_hp(comp5, comp5)


@pytest.fixture(scope="module")
def pc10000(comp81):
    return build_hp(comp81, comp81)


@pytest.fixture(scope="module")
def rp_perms_10000(comp81):
    return design_generic(comp81, comp81, seed=1)


@pytest.fixture(scope="module")
def ipc10000(comp81, rp_perms_10000):
    return build_hp_interleaved(comp81, comp81, rp_perms_10000)


def test_criterion_1_component_oracles(comp81):
    t0 = time.time()
    checks = []
    for code, expect_nk, expect_a4 in [
        (comp81, (100, 81), 2025),
        (build_mscmpc(169, [13, 14]), (196, 169), 8281),
    ]:
        spec = low_weight_search(code, 4)
        checks.append((code.n, code.k) == expect_nk)
        checks.append(spec.min_distance() == 4)
        checks.append(spec.multiplicity(4) == expect_a4)
    girth_ok = local_girth(comp81.H).global_girth >= 6
    elapsed = time.time() - t0
    ok = all(checks) and girth_ok and elapsed < 60
    _report(
        1,
        ok,
        f"(100,81) and (196,169): d=4, A4=2025/8281 exact, girth>=6, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_2_table_spectrum(pc144):
    t0 = time.time()
    spec = exhaustive_spectrum(pc144)
    elapsed = time.time() - t0
    got = {w: spec.multiplicity(w) for w in TABLE_SPECTRUM}
    ok = got == TABLE_SPECTRUM and elapsed < 900
    _report(
        2,
        ok,
        f"(144,25) direct spectrum {got} matches the reference spectrum, "
        f"{elapsed:.1f}s (< 15min)",
    )


def test_criterion_3_interleaved_consistency(comp5):
    rng = np.random.default_rng(2024)
    bad = 0
    arrays = [design_circulant(comp5, comp5, seed) for seed in range(5)]
    arrays += [design_generic(comp5, comp5, seed) for seed in range(5)]
    for perms in arrays:
        ipc = build_hp_interleaved(comp5, comp5, perms)
        for _ in range(1000):
            info = rng.integers(0, 2, 25, dtype=np.uint8)
            if syndrome(ipc.H, ipc.encode(info)).any():
                bad += 1
    ok = bad == 0
    _report(3, ok, f"10 designed arrays x 1000 frames: {bad} nonzero syndromes")


def test_criterion_4_girth_bound(pc144, comp5, pc10000, ipc10000):
    ipc144 = build_hp_interleaved(comp5, comp5, design_generic(comp5, comp5, 0))
    girths = {
        "(144,25) direct": local_girth(pc144.H).global_girth,
        "(144,25) interleaved": local_girth(ipc144.H).global_girth,
        "(10000,6561) direct": local_girth(pc10000.H).global_girth,
        "(10000,6561) interleaved": local_girth(ipc10000.H).global_girth,
    }
    ok = all(g >= 6 for g in girths.values())
    _report(4, ok, f"measured girths {girths}, all >= 6")


def test_criterion_5_distance_preservation(comp5):
    min_weights = []
    a16 = []
    for seed in range(10):
        perms = design_generic(comp5, comp5, seed)
        ipc = build_hp_interleaved(comp5, comp5, perms)
        spec = exhaustive_spectrum(ipc)
        min_weights.append(spec.min_distance())
        a16.append(spec.multiplicity(16))
    thinned = sum(1 for count in a16 if count <= 64)
    ok = all(w == 16 for w in min_weights) and thinned >= 8
    _report(
        5,
        ok,
        f"10 seeds: min weights {sorted(set(min_weights))} (all 16), "
        f"A16 {a16} (<= 64 in {thinned}/10)",
    )


def test_criterion_6_decoder_sanity(pc144):
    rng = np.random.default_rng(99)
    fixed_ok = True
    for _ in range(5):
        cw = pc144.encode(rng.integers(0, 2, 25, dtype=np.uint8))
        res = spa_decode(pc144.H, 20.0 * (1.0 - 2.0 * cw.astype(float)))
        fixed_ok &= res.converged and res.iterations_used == 1
        fixed_ok &= bool(np.array_equal(res.hard_bits, cw))

    code = build_uncoded(10000)
    cfg = SimConfig(code=code, ebn0_db=[2.0, 4.0, 6.0], max_iter=5,
                    min_frame_errors=200, max_frames=200, seed=31)
    points = run_sweep(cfg).points
    deviations = []
    uncoded_ok = True
    for p in points:
        theory = float(qfunc(math.sqrt(2.0 * 10 ** (p.ebn0_db / 10))))
        ci3 = 3 * math.sqrt(theory * (1 - theory) / (p.frames * code.k))
        deviations.append(f"{p.ebn0_db:g}dB:{abs(p.ber - theory):.2e}<= {ci3:.2e}")
        uncoded_ok &= abs(p.ber - theory) <= ci3
    ok = fixed_ok and uncoded_ok
    _report(
        6,
        ok,
        f"noiseless codewords converge in 1 iteration; uncoded BER within "
        f"3-sigma CI at [{', '.join(deviations)}]",
    )


def test_criterion_7_waterfall_gain(pc10000, ipc10000):
    grid = [2.0 + 0.25 * i for i in range(12)]  # 2.00 .. 4.75 dB
    sim_kw = dict(max_iter=100, min_frame_errors=50, max_frames=12000,
                  seed=2718, workers=2)
    pc_fer = None
    e_star = None
    for ebn0 in grid:
        cfg = SimConfig(code=pc10000, ebn0_db=[ebn0], **sim_kw)
        (p,) = run_sweep(cfg).points
        print(f"\n  PC   {ebn0:.2f} dB: fer={p.fer:.3e} ({p.frames} frames)")
        if p.fer <= 1e-2:
            pc_fer = p.fer
            e_star = ebn0
            break
    if e_star is None:
        _report(7, False, "direct code never reached FER <= 1e-2 on the grid")
        return
    cfg = SimConfig(code=ipc10000, ebn0_db=[e_star - 0.5], **sim_kw)
    (ip,) = run_sweep(cfg).points
    print(f"  iPC-RP {e_star - 0.5:.2f} dB: fer={ip.fer:.3e} ({ip.frames} frames)")
    ok = ip.fer <= pc_fer
    _report(
        7,
        ok,
        f"direct PC first reaches FER {pc_fer:.3e} at {e_star:.2f} dB; "
        f"interleaved (generic) FER {ip.fer:.3e} at {e_star - 0.5:.2f} dB",
    )


def test_criterion_8_union_bound_identity():
    mult = 2025 * 2025
    spec = WeightSpectrum(n=10000, k=6561, counts={16: mult})
    rate = 6561 / 10000
    fer0, ber0 = union_bound(spec, rate, [-math.inf])
    identity_ok = abs(fer0[0] - mult / 2) <= 1e-12 * (mult / 2)
    grid = np.arange(0.0, 6.01, 0.25)
    fer, ber = union_bound(spec, rate, grid)
    monotone_ok = bool(np.all(np.diff(fer) < 0))
    ber_ok = bool(np.all(ber <= fer)) and ber0[0] <= fer0[0]
    ok = identity_ok and monotone_ok and ber_ok
    _report(
        8,
        ok,
        f"FER_UB(EbN0->0) = {fer0[0]:.6f} vs A_d/2 = {mult / 2} "
        f"(rel err {abs(fer0[0] - mult / 2) / (mult / 2):.2e} <= 1e-12); "
        f"monotone={monotone_ok}, BER<=FER={ber_ok}",
    )
