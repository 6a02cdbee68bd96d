"""The SPA decoder against a segment-by-segment reference implementation.

``reference_spa_decode`` is the edge-list decoder the degree-bucketed
plan replaced, kept verbatim apart from building its edge structure on
every call instead of caching it on H.  It sums each check's messages
with ``np.add.reduceat`` over a check-sorted edge list and each
variable's with ``np.bincount``; the decoder must reproduce its
decisions, iteration counts and convergence flags exactly.
"""

import numpy as np
import pytest

from productldpc import (
    PermutationArray,
    SparseBinMatrix,
    build_hp,
    build_hp_interleaved,
    spa_decode,
)
from productldpc.decoder import DecodeResult, _check_sums

CLAMP_LLR = 30.0
_MIN_MAG = 1e-12


class _EdgeStructure:
    """Edge-parallel view of H, sorted by check node."""

    def __init__(self, H: SparseBinMatrix) -> None:
        indptr, indices = H.indptr, H.indices
        deg = np.diff(indptr)
        nonempty = np.flatnonzero(deg > 0)
        self.var = np.concatenate(
            [H.row_support[r] for r in nonempty]
        ).astype(np.int64) if nonempty.size else np.empty(0, dtype=np.int64)
        self.deg = deg[nonempty]
        self.starts = np.zeros(len(nonempty), dtype=np.int64)
        np.cumsum(self.deg[:-1], out=self.starts[1:])
        self.seg = np.repeat(np.arange(len(self.deg)), self.deg)
        self.n = H.cols


def _phi(x: np.ndarray) -> np.ndarray:
    # -log(tanh(x/2)), self-inverse on (0, inf); input is pre-clamped.
    return -np.log(np.tanh(0.5 * x))


def reference_spa_decode(H: SparseBinMatrix, channel_llr, max_iter: int = 100) -> DecodeResult:
    """Decode one frame of channel LLRs against H."""
    llr = np.asarray(channel_llr, dtype=np.float64)
    if llr.shape != (H.cols,):
        raise ValueError(f"expected {H.cols} LLRs, got shape {llr.shape}")
    if not np.all(np.isfinite(llr)):
        raise ValueError("channel LLRs must be finite")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")

    es = _EdgeStructure(H)
    if es.var.size == 0:
        # No constraints: the channel decision already satisfies H.
        return DecodeResult((llr < 0).astype(np.uint8), 1, True)

    seg = es.seg
    c2v = np.zeros(es.var.size)
    posterior = llr
    hard = (llr < 0).astype(np.uint8)
    for it in range(1, max_iter + 1):
        v2c = np.clip(posterior[es.var] - c2v, -CLAMP_LLR, CLAMP_LLR)
        mag = np.maximum(np.abs(v2c), _MIN_MAG)
        alpha = _phi(mag)
        alpha_sum = np.add.reduceat(alpha, es.starts)
        neg = v2c < 0
        parity = np.add.reduceat(neg, es.starts).astype(np.int64) & 1
        excl = np.maximum(alpha_sum[seg] - alpha, _MIN_MAG)
        sign = 1.0 - 2.0 * ((parity[seg] ^ neg).astype(np.float64))
        c2v = np.clip(sign * _phi(excl), -CLAMP_LLR, CLAMP_LLR)
        posterior = llr + np.bincount(es.var, weights=c2v, minlength=es.n)
        hard = (posterior < 0).astype(np.uint8)
        unsat = np.add.reduceat(hard[es.var].astype(np.int64), es.starts) & 1
        if not unsat.any():
            return DecodeResult(hard, it, True)
    return DecodeResult(hard, max_iter, False)


def _same(res, ref) -> bool:
    return (
        res.iterations_used == ref.iterations_used
        and res.converged == ref.converged
        and np.array_equal(res.hard_bits, ref.hard_bits)
    )


def _dense_with_edge_cases():
    """Rows of degree 0, 1, 2, 9, 10, 17 and 140, so every branch of the
    check-sum tree (sequential, eight accumulators with and without a
    second block, halving above 128) and the empty-row path run."""
    rng = np.random.default_rng(404)
    n = 160
    a = np.zeros((8, n), dtype=np.uint8)
    for row, weight in zip(a, (0, 1, 2, 9, 10, 17, 140, 3)):
        row[rng.choice(n, weight, replace=False)] = 1
    return SparseBinMatrix.from_dense(a)


@pytest.fixture(scope="module")
def codes(comp5, spc3, pc144):
    rng = np.random.default_rng(2024)
    return {
        "pc144": pc144.H,
        "interleaved144": build_hp_interleaved(
            comp5, comp5, PermutationArray.random(12, 12, rng)
        ).H,
        # check degrees 2, 3 and 4: three buckets
        "mixed": build_hp(comp5, spc3).H,
        # one empty row and one degree-1 check
        "small_dense": SparseBinMatrix.from_dense(
            [[1, 1, 0, 1, 0, 0],
             [0, 0, 0, 0, 0, 0],
             [0, 0, 1, 0, 0, 0],
             [0, 1, 1, 0, 1, 1],
             [1, 0, 0, 1, 1, 0]]
        ),
        "dense_wide": _dense_with_edge_cases(),
    }


def _corpus(n: int, seed: int):
    """(llr, max_iter) pairs: noisy frames at several scales, then the
    edge cases."""
    rng = np.random.default_rng(seed)
    frames = []
    for scale in (0.5, 1.0, 2.0, 3.0, 6.0):
        for _ in range(12):
            cw_sign = rng.choice([-1.0, 1.0], n)
            llr = scale * (cw_sign + rng.normal(0.0, 1.0, n))
            frames.append((llr, 60))
    frames.append((np.zeros(n), 60))
    frames.append((np.full(n, -0.0), 60))
    frames.append((1e9 * rng.choice([-1.0, 1.0], n), 60))
    frames.append((np.full(n, 1e9), 60))
    frames.append((np.full(n, -1e9), 60))
    noisy = rng.normal(0.0, 2.0, n)
    for max_iter in (1, 2):
        frames.append((noisy, max_iter))
        frames.append((np.zeros(n), max_iter))
    return frames


@pytest.mark.parametrize(
    "name, seed",
    [("pc144", 1), ("interleaved144", 2), ("mixed", 3), ("small_dense", 4), ("dense_wide", 5)],
)
def test_agrees_with_reference(codes, name, seed):
    H = codes[name]
    for idx, (llr, max_iter) in enumerate(_corpus(H.cols, seed)):
        res = spa_decode(H, llr, max_iter=max_iter)
        assert _same(res, reference_spa_decode(H, llr, max_iter)), idx
        assert res.hard_bits.dtype == np.uint8


def test_alternating_codes_reuse_no_stale_plan(codes):
    # A thread's state holds one H; switching back and forth must rebuild it.
    rng = np.random.default_rng(5)
    for _ in range(3):
        for H in (codes["pc144"], codes["mixed"]):
            llr = rng.normal(0.0, 2.0, H.cols)
            assert _same(spa_decode(H, llr, max_iter=30), reference_spa_decode(H, llr, 30))


@pytest.mark.parametrize("checks", [1, 7])
def test_check_sums_follow_reduceat_order(checks):
    rng = np.random.default_rng(checks)
    for degree in list(range(1, 40)) + [127, 128, 129, 136, 200, 300]:
        rows = rng.random((degree, checks)) * 10.0 ** rng.uniform(-6, 6, (degree, checks))
        segments = np.add.reduceat(rows.T.ravel(), np.arange(checks) * degree)
        assert np.array_equal(_check_sums(rows), segments), degree


def test_variable_sums_follow_check_order():
    # Variable 2 sits at position 1 of check 0 and position 0 of checks 1
    # and 2, so the flat edge order reaches its messages as checks 1, 2, 0.
    # |LLR_2| > CLAMP_LLR fixes v2c_2 at -30, which makes the first
    # iteration's messages m0, m1, m2 into variable 2 independent of
    # LLR_2; LLR_2 is -((m0 + m1) + m2), so the posterior is exactly 0
    # (bit 0) in ascending check order, while (m0 + m2) + m1 and
    # (m1 + m2) + m0 both round one ulp lower (bit 1).
    H = SparseBinMatrix(3, 5, [[1, 2], [2, 3], [2, 4]])
    llr = np.array([1.0, 12.393694429929521, -41.744217084270666,
                    18.76484230810704, 10.585680348051943])
    res = spa_decode(H, llr, max_iter=1)
    assert _same(res, reference_spa_decode(H, llr, 1))
    assert res.hard_bits[2] == 0
