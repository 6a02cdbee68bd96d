import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import shortest_path

from productldpc import (
    PermutationArray,
    SparseBinMatrix,
    build_hp,
    build_hp_interleaved,
    spa_decode,
    syndrome,
)
from productldpc.decoder import _EdgePlan, _plan
from test_decoder_reference import reference_spa_decode


def bpsk_llr(codeword, magnitude):
    return magnitude * (1.0 - 2.0 * np.asarray(codeword, dtype=np.float64))


class TestFixedPoints:
    def test_strong_all_zero_evidence(self, pc144):
        res = spa_decode(pc144.H, np.full(pc144.n, 20.0))
        assert res.converged
        assert res.iterations_used == 1
        assert not res.hard_bits.any()

    def test_noiseless_codeword(self, pc144, rng):
        info = rng.integers(0, 2, 25, dtype=np.uint8)
        cw = pc144.encode(info)
        res = spa_decode(pc144.H, bpsk_llr(cw, 20.0))
        assert res.converged and res.iterations_used == 1
        assert np.array_equal(res.hard_bits, cw)


class TestCorrection:
    def test_single_flip_recovered(self, pc144, rng):
        info = rng.integers(0, 2, 25, dtype=np.uint8)
        cw = pc144.encode(info)
        llr = bpsk_llr(cw, 8.0)
        llr[60] = -2.0 * (1.0 - 2.0 * cw[60])  # one bit pushed the wrong way
        res = spa_decode(pc144.H, llr)
        assert res.converged
        assert np.array_equal(res.hard_bits, cw)
        assert not syndrome(pc144.H, res.hard_bits).any()

    def test_converged_flag_truthful(self, pc144, rng):
        # noisy saturation: whatever comes out, the flag must match the syndrome
        for trial in range(10):
            llr = rng.normal(0.0, 2.0, pc144.n)
            res = spa_decode(pc144.H, llr, max_iter=8)
            if res.converged:
                assert not syndrome(pc144.H, res.hard_bits).any()


class TestSymmetry:
    def test_sign_flip_maps_output_through_codeword(self, comp5, pc144, rng):
        pa = PermutationArray.random(12, 12, rng)
        ipc = build_hp_interleaved(comp5, comp5, pa)
        cw = ipc.encode(rng.integers(0, 2, 25, dtype=np.uint8))
        flip = 1.0 - 2.0 * cw.astype(np.float64)
        for _ in range(5):
            llr = rng.normal(0.0, 3.0, ipc.n)
            base = spa_decode(ipc.H, llr, max_iter=25)
            mapped = spa_decode(ipc.H, llr * flip, max_iter=25)
            assert mapped.converged == base.converged
            assert mapped.iterations_used == base.iterations_used
            assert np.array_equal(mapped.hard_bits, base.hard_bits ^ cw)


def _codewords(dense: np.ndarray) -> np.ndarray:
    """Every word x with dense @ x = 0 over GF(2), by enumeration."""
    n = dense.shape[1]
    words = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    return words[~((words @ dense.T.astype(np.int64)) % 2).any(axis=1)].astype(np.uint8)


@st.composite
def _code_and_codeword(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(2, 10))
    dense = np.array(
        draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                      min_size=m, max_size=m)),
        dtype=np.uint8,
    )
    words = _codewords(dense)
    cw = words[draw(st.integers(0, len(words) - 1))]
    return SparseBinMatrix.from_dense(dense), cw


class TestSymmetryProperty:
    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(_code_and_codeword(), st.integers(0, 2**32 - 1),
           st.floats(0.3, 6.0), st.integers(1, 30))
    def test_sign_flip_through_any_codeword(self, code, seed, scale, max_iter):
        # Random H with mixed check degrees, empty rows and degree-1
        # checks; continuous LLRs, so no posterior is exactly zero.
        H, cw = code
        assert not syndrome(H, cw).any()
        llr = np.random.default_rng(seed).normal(0.0, scale, H.cols)
        flip = 1.0 - 2.0 * cw.astype(np.float64)
        base = spa_decode(H, llr, max_iter=max_iter)
        mapped = spa_decode(H, llr * flip, max_iter=max_iter)
        assert mapped.converged == base.converged
        assert mapped.iterations_used == base.iterations_used
        assert np.array_equal(mapped.hard_bits, base.hard_bits ^ cw)


def _bitwise_map(H: SparseBinMatrix, llr: np.ndarray):
    """Brute-force bitwise-MAP decisions and the smallest |log-odds|."""
    words = _codewords(H.to_dense())
    logp = -(words @ llr)  # log P(word | y) up to a constant
    top = logp.max()
    weight = np.exp(logp - top)
    p1 = weight @ words
    p0 = weight.sum() - p1
    log_odds = np.log(p0) - np.log(p1)
    return (log_odds < 0).astype(np.uint8), np.abs(log_odds).min()


def _random_check_tree(rng):
    """Tanner graph that is a tree: each new check joins one old variable
    to one or two new ones.  Returns H and its diameter in checks."""
    supports = [list(range(int(rng.integers(2, 4))))]
    n = len(supports[0])
    for _ in range(int(rng.integers(1, 5))):
        fresh = int(rng.integers(1, 3))
        supports.append([int(rng.integers(n))] + list(range(n, n + fresh)))
        n += fresh
    H = SparseBinMatrix(len(supports), n, [sorted(s) for s in supports])
    # A path between two variables passes one check per two edges.
    a = H.to_dense()
    graph = np.block([[np.zeros((n, n)), a.T], [a, np.zeros((len(supports),) * 2)]])
    return H, int(shortest_path(graph, unweighted=True)[:n, :n].max()) // 2


class TestBitwiseMapOracle:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_single_parity_check_one_iteration(self, n):
        # On one check, the first flooding iteration's posterior is the
        # exact bitwise-MAP log-odds.
        H = SparseBinMatrix(1, n, [np.arange(n)])
        rng = np.random.default_rng(n)
        checked = 0
        while checked < 40:
            llr = rng.normal(0.0, rng.uniform(0.5, 4.0), n)
            decision, margin = _bitwise_map(H, llr)
            if margin < 1e-6:
                continue  # a near-tie: the rounding could decide either way
            res = spa_decode(H, llr, max_iter=1)
            assert np.array_equal(res.hard_bits, decision)
            checked += 1

    def test_cycle_free_graphs_after_diameter_iterations(self):
        rng = np.random.default_rng(77)
        checked = skipped = 0
        for _ in range(40):
            H, diameter = _random_check_tree(rng)
            for _ in range(10):
                llr = rng.normal(0.0, rng.uniform(0.5, 3.0), H.cols)
                decision, margin = _bitwise_map(H, llr)
                res = spa_decode(H, llr, max_iter=2 * diameter + 5)
                if margin < 1e-6 or res.iterations_used < diameter:
                    skipped += 1
                    continue
                assert np.array_equal(res.hard_bits, decision)
                checked += 1
        assert checked >= 100, (checked, skipped)


class TestInputValidation:
    def test_rejects_non_finite(self, pc144):
        llr = np.zeros(pc144.n)
        llr[3] = np.inf
        with pytest.raises(ValueError):
            spa_decode(pc144.H, llr)
        llr[3] = np.nan
        with pytest.raises(ValueError):
            spa_decode(pc144.H, llr)

    def test_rejects_wrong_length(self, pc144):
        with pytest.raises(ValueError):
            spa_decode(pc144.H, np.zeros(pc144.n - 1))

    def test_rejects_zero_iterations(self, pc144):
        with pytest.raises(ValueError):
            spa_decode(pc144.H, np.zeros(pc144.n), max_iter=0)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, "3", None, True])
    def test_rejects_non_integer_iterations(self, pc144, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            spa_decode(pc144.H, np.zeros(pc144.n), max_iter=max_iter)

    def test_accepts_numpy_integer_iterations(self, pc144):
        res = spa_decode(pc144.H, np.full(pc144.n, 5.0), max_iter=np.int64(3))
        assert res.converged and res.iterations_used == 1


class TestDegenerate:
    def test_empty_h_is_hard_decision(self):
        h = SparseBinMatrix(0, 6, [])
        llr = np.array([1.0, -2.0, 3.0, -0.5, 0.1, -9.0])
        res = spa_decode(h, llr)
        assert res.converged and res.iterations_used == 1
        assert np.array_equal(res.hard_bits, [0, 1, 0, 1, 0, 1])

    def test_huge_magnitudes_stay_finite(self, pc144):
        res = spa_decode(pc144.H, np.full(pc144.n, 1e9))
        assert res.converged
        assert not res.hard_bits.any()


@st.composite
def _sparse_h(draw):
    """H with column weights 0 to 6, so empty rows and columns occur."""
    m = draw(st.integers(1, 9))
    n = draw(st.integers(1, 12))
    col_checks = [draw(st.sets(st.integers(0, m - 1), max_size=min(6, m))) for _ in range(n)]
    return SparseBinMatrix(m, n, [[v for v in range(n) if c in col_checks[v]]
                                  for c in range(m)])


def _brute_force_var_edges(H: SparseBinMatrix):
    """The plan's flat edge numbering written out check by check, and
    each variable's flat edges in ascending check order, padded with
    the edge count."""
    support = [list(map(int, s)) for s in H.row_support]
    flat = {}
    offset = 0
    for d in sorted({len(s) for s in support} - {0}):
        bucket = [c for c, s in enumerate(support) if len(s) == d]
        for j, c in enumerate(bucket):
            for pos, v in enumerate(support[c]):
                flat[c, v] = offset + pos * len(bucket) + j
        offset += d * len(bucket)
    per_var = [[flat[c, v] for c in range(H.rows) if (c, v) in flat] for v in range(H.cols)]
    width = max(map(len, per_var))
    padded = [edges + [offset] * (width - len(edges)) for edges in per_var]
    return np.array(padded, dtype=np.int64).reshape(H.cols, width).T, offset


class TestEdgePlan:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_sparse_h(), st.integers(0, 2**32 - 1))
    def test_var_edges_against_brute_force(self, H, seed):
        plan = _EdgePlan(H)
        var_edges, n_edges = _brute_force_var_edges(H)
        assert plan.n_edges == n_edges
        assert np.array_equal(plan.var_edges, var_edges)
        real = var_edges < n_edges
        assert np.array_equal(plan.var[var_edges[real]], np.nonzero(real)[1])
        llr = np.random.default_rng(seed).normal(0.0, 2.0, H.cols)
        res = spa_decode(H, llr, max_iter=20)
        ref = reference_spa_decode(H, llr, 20)
        assert (res.iterations_used, res.converged) == (ref.iterations_used, ref.converged)
        assert np.array_equal(res.hard_bits, ref.hard_bits)

    def test_threads_swapping_the_plan_decode_as_one(self, pc144, spc3):
        # Eight threads on two codes, switching every microsecond: each
        # swaps its own state back and forth between the codes, and must
        # decode every frame as one thread alone does.
        codes = [pc144, build_hp(spc3, spc3)]
        rng = np.random.default_rng(7)
        frames = [(c.H, rng.normal(1.0, 1.5, c.n)) for _ in range(4) for c in codes]

        def run(_):
            return [(r.hard_bits.tobytes(), r.iterations_used, r.converged)
                    for r in (spa_decode(H, llr, max_iter=20) for H, llr in frames)]

        want = run(None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(8) as pool:
                got = list(pool.map(run, range(8), timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert got == [want] * 8

    def test_a_decode_on_another_thread_leaves_this_threads_state(self, pc144, spc3):
        # Each thread holds its own state, so decoding another code on
        # other threads neither replaces this thread's nor writes to it.
        other = build_hp(spc3, spc3)
        rng = np.random.default_rng(11)
        frames = [rng.normal(1.0, 1.5, pc144.n) for _ in range(4)]
        other_frames = [rng.normal(1.0, 1.5, other.n) for _ in range(16)]

        def decisions():
            return [(r.hard_bits.tobytes(), r.iterations_used, r.converged)
                    for r in (spa_decode(pc144.H, llr, max_iter=20) for llr in frames)]

        want = decisions()
        state = _plan(pc144.H)
        with ThreadPoolExecutor(4) as pool:
            list(pool.map(lambda llr: spa_decode(other.H, llr, max_iter=20), other_frames,
                          timeout=60))
        assert _plan(pc144.H) is state
        assert decisions() == want
