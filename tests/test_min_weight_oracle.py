"""The minimum-weight multiplicity of a product code, from its components.

Every nonzero word of a direct or interleaved product code has weight
at least d_a * d_b: a nonzero information row sets at least d_a bits,
each on its own track (column-code word), and each such track sets at
least d_b.  A word of exactly that weight has d_a nonzero tracks T, all
carrying one weight-d_b word c of C_b, and each information row j in
c's support is a weight-d_a word of C_a with support P_j(T), where P_j
is row j's permutation.  Conversely every such c and T give a codeword.
Hence

    A_{d_a d_b} = sum over c in W_{d_b}(C_b) of
                  | intersection over information rows j in supp(c)
                    of P_j^-1(W_{d_a}(C_a)) |,

with W_d(C) the supports of C's weight-d words.  An interleaver can make
every intersection empty, and the minimum distance then exceeds
d_a * d_b.  The count needs only the components' minimum-weight words,
so it reaches the (10000,6561) codes, where `exhaustive_spectrum`
cannot; on codes small enough to enumerate, the two must agree.
"""

import math
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productldpc import (
    ComponentCode,
    PermutationArray,
    ProductCode,
    build_mscmpc,
    design_circulant,
    design_generic,
    exhaustive_spectrum,
    low_weight_search,
)
from productldpc.product import load_permutation_array
from test_duality import _component

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def _weight_words(comp: ComponentCode, d: int) -> np.ndarray:
    """Supports of comp's weight-d words as sorted (count, d) rows: sets of
    d columns of H that add to zero, met in the middle as two halves
    whose column sums are equal."""
    assert comp.H.rows < 63
    masks = (comp.H.to_dense().astype(np.int64) << np.arange(comp.H.rows)[:, None]).sum(axis=0)
    halves = [np.array(list(combinations(range(comp.n), size)), dtype=np.int64)
              .reshape(math.comb(comp.n, size), size) for size in ((d + 1) // 2, d // 2)]
    left_sum, right_sum = (np.bitwise_xor.reduce(masks[h], axis=1) for h in halves)
    order = np.argsort(right_sum, kind="stable")
    lo = np.searchsorted(right_sum[order], left_sum, "left")
    count = np.searchsorted(right_sum[order], left_sum, "right") - lo
    left = np.repeat(np.arange(left_sum.size), count)
    right = order[np.arange(left.size) - np.repeat(np.cumsum(count) - count - lo, count)]
    rows = np.sort(np.hstack([halves[0][left], halves[1][right]]), axis=1)
    return np.unique(rows[(np.diff(rows, axis=1) > 0).all(axis=1)], axis=0)


def _min_weight_words(comp: ComponentCode) -> np.ndarray:
    d = 1
    while not len(words := _weight_words(comp, d)):
        d += 1
    return words


def min_weight_multiplicity(code: ProductCode) -> int:
    """A_{d_a d_b} of a direct or interleaved product code by the formula
    in the module docstring."""
    a, b = code.comp_a, code.comp_b
    table = PermutationArray.identity(a.n, b.n) if code.interleaver is None else code.interleaver
    words_a = _min_weight_words(a)
    # keys[j]: sorted ids of the track sets P_j^-1(S), S in W_{d_a}(C_a).
    tracks = np.sort(np.argsort(table.perms, axis=1)[:, words_a], axis=2)
    keys = np.sort(np.ravel_multi_index(np.moveaxis(tracks, 2, 0), (a.n,) * words_a.shape[1]))
    total = 0
    for c in _min_weight_words(b):
        rows = np.intersect1d(c, b.info_positions())
        common = keys[rows[0]]
        for j in rows[1:]:
            common = np.intersect1d(common, keys[j], assume_unique=True)
        total += common.size
    return total


def interleaver_floor(a: ComponentCode, b: ComponentCode) -> int:
    """f * |W_{d_a}(C_a)|, where f counts the words of W_{d_b}(C_b) with
    exactly one information row: each such c gives |W_{d_a}(C_a)| terms
    in the sum above whatever the permutations, so no table goes below."""
    info_rows = np.isin(_min_weight_words(b), b.info_positions()).sum(axis=1)
    return int(np.count_nonzero(info_rows == 1)) * len(_min_weight_words(a))


COMP5 = build_mscmpc(5, [3, 4])


def _random(a, b, seed):
    return PermutationArray.random(a.n, b.n, np.random.default_rng(seed))


# A_16 of mscmpc:5:3,4 squared, seeds 0-9 of each design method.
@pytest.mark.parametrize("design, counts", [
    (design_generic, [40, 40, 40, 40, 41, 40, 40, 41, 40, 40]),
    (design_circulant, [40, 42, 43, 43, 51, 43, 43, 46, 44, 43]),
    (_random, [40, 40, 40, 40, 40, 40, 40, 40, 40, 40]),
], ids=["generic", "circulant", "random"])
def test_matches_the_exhaustive_spectrum_across_seeds(design, counts):
    found = []
    for seed in range(len(counts)):
        code = ProductCode(COMP5, COMP5, design(COMP5, COMP5, seed))
        found.append(min_weight_multiplicity(code))
        assert exhaustive_spectrum(code).counts[16] == found[-1], seed
    assert found == counts
    assert min(found) >= interleaver_floor(COMP5, COMP5) == 40


def test_direct_code_is_the_square_of_the_component_count():
    code = ProductCode(COMP5, COMP5)
    assert exhaustive_spectrum(code).counts[16] == min_weight_multiplicity(code) == 8 ** 2


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_component(4, 3), _component(4, 3), st.integers(0, 2**32 - 1))
def test_matches_the_exhaustive_spectrum_of_drawn_codes(a, b, seed):
    code = ProductCode(a, b, _random(a, b, seed))
    d = _min_weight_words(a).shape[1] * _min_weight_words(b).shape[1]
    spectrum, count = exhaustive_spectrum(code), min_weight_multiplicity(code)
    assert spectrum.counts.get(d, 0) == count >= interleaver_floor(a, b)
    assert spectrum.min_distance() == d if count else spectrum.min_distance() > d


def test_full_size_interleaver_thins_the_minimum_weight_words():
    comp = build_mscmpc(81, [9, 10])
    assert len(_min_weight_words(comp)) == low_weight_search(comp, 4).counts[4] == 2025
    direct = min_weight_multiplicity(ProductCode(comp, comp))
    interleaved = min_weight_multiplicity(
        ProductCode(comp, comp, load_permutation_array(DATA / "perms_mscmpc81_seed1.json")))
    assert (direct, interleaved) == (2025 ** 2, 164_388)
    floor = interleaver_floor(comp, comp)
    assert floor == 81 * 2025 == 164_025
    assert floor <= interleaved <= 1.003 * floor
