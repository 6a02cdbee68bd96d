import hashlib
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.special import erfc

from productldpc import (
    ComponentCode,
    ProductCode,
    SparseBinMatrix,
    build_hp,
    build_mscmpc,
    build_spc,
    build_uncoded,
    exhaustive_spectrum,
    low_weight_search,
    union_bound,
)
from productldpc.analysis import (
    WeightSpectrum,
    load_spectrum,
    qfunc,
    save_spectrum,
)
from productldpc.product import load_permutation_array

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def brute_force_spectrum(code):
    """Direct enumeration without the Gray-code path."""
    counts = {}
    for word in range(1 << code.k):
        info = np.array([(word >> i) & 1 for i in range(code.k)], dtype=np.uint8)
        cw = code.encode(info)
        w = int(cw.sum())
        counts[w] = counts.get(w, 0) + 1
    return counts


def random_triangular_code(rng, k, r):
    support = []
    for i in range(r):
        left = np.flatnonzero(rng.random(k + i) < 0.4)
        support.append(np.append(left, k + i))
    H = SparseBinMatrix(r, k + r, support)
    return ComponentCode(k + r, k, H, f"random:{k}:{r}")


class TestExhaustiveSpectrum:
    def test_repetition_square(self):
        spc = build_spc(1)
        pc = build_hp(spc, spc)  # (4, 1): all-zero and all-ones words
        spec = exhaustive_spectrum(pc)
        assert spec.counts == {0: 1, 4: 1}
        assert spec.complete

    def test_spc_square_against_direct_enumeration(self, spc3):
        pc = build_hp(spc3, spc3)
        spec = exhaustive_spectrum(pc)
        assert spec.counts == brute_force_spectrum(pc)
        assert sum(spec.counts.values()) == 1 << pc.k
        assert spec.min_distance() == 4

    def test_component_code_accepted(self, comp5):
        spec = exhaustive_spectrum(comp5)
        assert sum(spec.counts.values()) == 32
        assert spec.counts[4] == 8
        assert spec.counts == brute_force_spectrum(comp5)

    @pytest.mark.parametrize("n", [1, 2, 7, 13, 20])
    def test_uncoded_word_space_gives_binomial_counts(self, n):
        spec = exhaustive_spectrum(build_uncoded(n))
        assert spec.counts == {w: math.comb(n, w) for w in range(n + 1)}
        assert (spec.n, spec.k, spec.complete) == (n, n, True)

    def test_guard_rejects_large_k(self):
        big = build_mscmpc(81, [9, 10])
        with pytest.raises(ValueError, match="low_weight_search"):
            exhaustive_spectrum(build_hp(big, big))

    def test_a0_is_one(self, comp5):
        assert exhaustive_spectrum(comp5).counts[0] == 1


class TestLowWeightSearch:
    def test_small_code_matches_exhaustive(self, comp5):
        trunc = low_weight_search(comp5, 4)
        full = exhaustive_spectrum(comp5)
        for w in range(5):
            assert trunc.multiplicity(w) == full.multiplicity(w)
        assert not trunc.complete

    def test_random_codes_match_exhaustive(self, rng):
        for _ in range(10):
            code = random_triangular_code(rng, k=rng.integers(4, 9), r=rng.integers(3, 6))
            trunc = low_weight_search(code, 4)
            full = exhaustive_spectrum(code)
            for w in range(5):
                assert trunc.multiplicity(w) == full.multiplicity(w), code.label

    def test_reference_multiplicities(self):
        spec81 = low_weight_search(build_mscmpc(81, [9, 10]), 4)
        assert spec81.min_distance() == 4
        assert spec81.multiplicity(4) == 2025
        spec169 = low_weight_search(build_mscmpc(169, [13, 14]), 4)
        assert spec169.min_distance() == 4
        assert spec169.multiplicity(4) == 8281

    def test_w_max_guard(self, comp5):
        with pytest.raises(ValueError):
            low_weight_search(comp5, 5)
        with pytest.raises(ValueError):
            low_weight_search(comp5, 0)


@st.composite
def _triangular_with_zero_and_equal_columns(draw):
    """A triangular component whose information column 0 is zero and
    whose information columns 1 and 2 are equal, with a w_max."""
    k = draw(st.integers(3, 9))
    r = draw(st.integers(1, 5))
    info_cols = draw(st.lists(st.integers(0, (1 << r) - 1), min_size=k, max_size=k))
    info_cols[0] = 0
    info_cols[2] = info_cols[1]
    support = []
    for i in range(r):
        parity = draw(st.lists(st.booleans(), min_size=i, max_size=i))
        support.append([c for c in range(k) if info_cols[c] >> i & 1]
                       + [k + j for j in range(i) if parity[j]] + [k + i])
    code = ComponentCode(k + r, k, SparseBinMatrix(r, k + r, support), "forced")
    return code, draw(st.integers(1, 4))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_triangular_with_zero_and_equal_columns())
def test_low_weight_search_matches_exhaustive_prefix(case):
    code, w_max = case
    full = exhaustive_spectrum(code).counts
    assert low_weight_search(code, w_max).counts == {
        w: c for w, c in full.items() if w <= w_max
    }


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=0, max_dims=2, min_side=0, max_side=6),
                  elements=st.floats(-40.0, 40.0)))
@example(0.0)
@example(np.array(-1.5))
@example(np.array([[0.0, math.inf], [-math.inf, math.nan]]))
@example(np.linspace(0.0, 40.0, 4001))
def test_qfunc_matches_scipy_erfc(x):
    want = 0.5 * erfc(np.asarray(x) / math.sqrt(2.0))
    got = qfunc(x)
    assert np.shape(got) == np.shape(x)
    # Past x = 37.5, Q is subnormal and has fewer than 53 bits to compare;
    # scipy also rounds it to 0 from x = 37.68 on, where math.erfc does
    # not.  There the two agree to within the smallest normal float.
    np.testing.assert_allclose(got, want, rtol=1e-13, atol=np.finfo(np.float64).tiny)


class TestUnionBound:
    def test_rejects_spectrum_without_positive_terms(self):
        spec = WeightSpectrum(n=10, k=2, counts={0: 1})
        with pytest.raises(ValueError):
            union_bound(spec, 0.5, [0.0])

    def test_q_of_zero_identity(self):
        # at vanishing Eb/N0 every term degrades to A_w * Q(0) = A_w / 2
        spec = WeightSpectrum(n=16, k=9, counts={0: 1, 4: 36})
        fer, ber = union_bound(spec, 9 / 16, [-math.inf])
        assert fer[0] == pytest.approx(18.0, rel=1e-12)
        assert ber[0] == pytest.approx((4 / 16) * 18.0, rel=1e-12)

    def test_single_term_closed_form(self):
        spec = WeightSpectrum(n=100, k=50, counts={6: 11})
        grid = [0.0, 2.0, 4.0]
        fer, _ = union_bound(spec, 0.5, grid)
        for point, e in zip(fer, grid):
            expected = 11 * qfunc(math.sqrt(2 * 0.5 * 6 * 10 ** (e / 10)))
            assert point == pytest.approx(float(expected), rel=1e-12)

    def test_monotone_and_ber_below_fer(self):
        spec = WeightSpectrum(n=144, k=25, counts={16: 64, 24: 246, 28: 504})
        grid = np.linspace(-2, 8, 21)
        fer, ber = union_bound(spec, 25 / 144, grid)
        assert np.all(np.diff(fer) <= 0)
        assert np.all(ber <= fer)

    def test_large_code_floor_crossing(self):
        # single-term bound for the (10000, 6561) construction
        spec = WeightSpectrum(n=10000, k=6561, counts={16: 2025 * 2025})
        grid = np.arange(0.0, 5.01, 0.1)
        fer, ber = union_bound(spec, 0.6561, grid)
        assert np.all(np.diff(fer) < 0)
        assert np.all(ber <= fer)
        crossing = grid[np.argmax(fer <= 1e-4)]
        assert 2.0 <= crossing <= 4.0

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf, 0.0, -0.5, 1.5])
    def test_rejects_rate_outside_unit_interval(self, rate):
        spec = WeightSpectrum(n=16, k=9, counts={4: 36})
        with pytest.raises(ValueError, match="rate must be finite"):
            union_bound(spec, rate, [1.0])

    @pytest.mark.parametrize("counts", [{16: 10**400}, {4: 3, 16: 10**400}])
    def test_rejects_count_past_the_float_range(self, counts):
        spec = WeightSpectrum(n=10000, k=6561, counts=counts)
        with pytest.raises(ValueError, match="A_16 is past the float range"):
            union_bound(spec, 0.6561, [1.0])

    def test_rejects_bound_past_the_float_range(self):
        # Every count fits a float, but their sum at -300 dB does not.
        spec = WeightSpectrum(n=100, k=50, counts={w: 10**308 for w in range(4, 8)})
        with pytest.raises(ValueError, match=r"Eb/N0 = -300 dB is past the float range"):
            union_bound(spec, 0.5, [0.0, -300.0])

    @pytest.mark.parametrize("rate", ["0.5", None, True], ids=["str", "none", "bool"])
    def test_rejects_a_rate_that_is_not_a_real_number(self, rate):
        spec = WeightSpectrum(n=16, k=9, counts={4: 36})
        message = f"rate must be a real number, got {rate!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            union_bound(spec, rate, [1.0])

    def test_rate_one_accepted(self):
        spec = WeightSpectrum(n=16, k=9, counts={4: 36})
        fer, ber = union_bound(spec, 1.0, [1.0])
        assert np.isfinite(fer).all() and np.isfinite(ber).all()


class TestSpectrumTerms:
    @pytest.mark.parametrize("w", [-1, 145, 200])
    def test_rejects_weight_outside_length(self, w):
        with pytest.raises(ValueError, match=f"weight {w} is outside 0..144"):
            WeightSpectrum(n=144, k=25, counts={w: 1})

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError, match="negative"):
            WeightSpectrum(n=144, k=25, counts={16: -64})

    def test_extreme_weights_accepted(self):
        spec = WeightSpectrum(n=144, k=25, counts={0: 1, 144: 1, 16: 0})
        assert spec.multiplicity(144) == 1

    @pytest.mark.parametrize("doc", [
        [1, 2],
        "spectrum",
        {"n": 144, "k": 25, "complete": False, "counts": [[16, 64]]},
        {"n": 144, "k": 25, "complete": False},
    ], ids=["list", "string", "counts-list", "no-counts"])
    def test_from_json_rejects_wrong_shape(self, doc):
        with pytest.raises(ValueError, match="JSON object"):
            WeightSpectrum.from_json_dict(doc)

    def test_from_json_rejects_null_entries(self):
        doc = {"n": None, "k": 25, "complete": False, "counts": {"16": 64}}
        with pytest.raises(ValueError, match="not a number"):
            WeightSpectrum.from_json_dict(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("n", 144.9, "spectrum n must be an integer, got 144.9"),
        ("n", True, "spectrum n must be an integer, got True"),
        ("k", 25.0, "spectrum k must be an integer, got 25.0"),
        ("k", "25", "not a number"),
        ("count", 64.7, "spectrum A_16 must be an integer, got 64.7"),
        ("count", False, "spectrum A_16 must be an integer, got False"),
        ("weight", "16.5", "spectrum weight '16.5' is not an integer"),
        ("weight", "1_6", "spectrum weight '1_6' is not an integer"),
        ("weight", " 16", "spectrum weight ' 16' is not an integer"),
        ("complete", "no", "complete must be true or false, got 'no'"),
        ("complete", 0, "complete must be true or false, got 0"),
    ])
    def test_from_json_rejects_non_integers(self, field, value, message):
        doc = {"n": 144, "k": 25, "complete": False, "counts": {"16": 64}}
        if field == "count":
            doc["counts"] = {"16": value}
        elif field == "weight":
            doc["counts"] = {value: 64}
        else:
            doc[field] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            WeightSpectrum.from_json_dict(doc)

    def test_from_json_keeps_integer_entries(self):
        doc = {"n": 144, "k": 25, "complete": True, "counts": {"0": 1, "16": 64}}
        spec = WeightSpectrum.from_json_dict(doc)
        assert (spec.n, spec.k, spec.complete, spec.counts) == (144, 25, True, {0: 1, 16: 64})

    def test_from_json_applies_term_checks(self):
        doc = {"n": 144, "k": 25, "complete": False, "counts": {"200": 1}}
        with pytest.raises(ValueError, match="outside"):
            WeightSpectrum.from_json_dict(doc)


class TestSerialization:
    def test_round_trip(self, tmp_path, comp5):
        spec = exhaustive_spectrum(comp5)
        path = tmp_path / "spec.json"
        save_spectrum(spec, path, meta={"source": "test"})
        again = load_spectrum(path)
        assert again.counts == spec.counts
        assert (again.n, again.k, again.complete) == (spec.n, spec.k, spec.complete)

    # SHA-256 of the spectrum file (no meta) of each (144,25) code when these
    # pins were recorded; any change to the counts or the file format shows.
    @pytest.mark.parametrize("perms, digest", [
        (None, "d6c260af5578f8a95c643559289e16f6ee25fb9329320045ec442d9b830752e4"),
        ("perms_mscmpc5_seed1.json",
         "8bb57d3ed67151efaad9fba1794cf999d04e80fe391ee35ee9900f57b62e23c1"),
    ], ids=["direct-144", "interleaved-144"])
    def test_spectrum_bytes_are_pinned(self, tmp_path, comp5, perms, digest):
        table = None if perms is None else load_permutation_array(DATA / perms)
        path = tmp_path / "spec.json"
        save_spectrum(exhaustive_spectrum(ProductCode(comp5, comp5, table)), path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("perms", [None, "perms_mscmpc5_seed1.json"],
                             ids=["direct-144", "interleaved-144"])
    def test_spectrum_is_the_same_in_any_number_of_lanes(self, lanes, comp5, perms):
        # 4,096 high rows in blocks of 32: three lanes take 1,366, 1,365
        # and 1,365 rows, in blocks of 11 with a partial last one.
        table = None if perms is None else load_permutation_array(DATA / perms)
        code = ProductCode(comp5, comp5, table)
        runs = []
        for cpus in (1, 2, 3):
            pools = lanes(cpus)
            runs.append(exhaustive_spectrum(code).counts)
            assert pools == ([] if cpus == 1 else [cpus - 1])
        assert runs[0] == runs[1] == runs[2]

    @pytest.mark.parametrize("perms", [None, "perms_mscmpc5_seed1.json"],
                             ids=["direct-144", "interleaved-144"])
    def test_spectrum_blocks_stay_at_a_few_mb(self, lanes, comp5, perms):
        # _PAIRS_PER_BLOCK bounds the blocks in flight in all lanes together.
        table = None if perms is None else load_permutation_array(DATA / perms)
        code = ProductCode(comp5, comp5, table)
        for cpus in (1, 2, 3):
            lanes(cpus)
            tracemalloc.start()
            try:
                exhaustive_spectrum(code)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 6 * 2**20, (cpus, peak)
