"""MacWilliams duality ties the exhaustive spectrum to the low-weight search.

The weight counts B_j of a code's dual follow from its full spectrum:
B_j = 2^-k * sum_w A_w K_j(w), where K_j is the Krawtchouk polynomial
for length n (MacWilliams and Sloane, *The Theory of Error-Correcting
Codes*, 1977, ch. 5).  A weight-j word of the dual is j columns of the
generator matrix G adding to zero, which is what `low_weight_search`
counts when it is given G as its parity-check matrix.  The exact
enumeration and the column-pair count are each checked against their
own references elsewhere; here they must agree with each other for
j <= 4.  Every sum is an exact Python integer, so 2^k must divide it
for every j up to n.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productldpc import (
    ComponentCode,
    PermutationArray,
    ProductCode,
    SparseBinMatrix,
    build_hp,
    build_mscmpc,
    build_spc,
    build_uncoded,
    design_generic,
    exhaustive_spectrum,
    low_weight_search,
)
from productldpc.analysis import LOW_WEIGHT_MAX


def _krawtchouk(n: int, j: int, w: int) -> int:
    return sum((-1) ** s * math.comb(w, s) * math.comb(n - w, j - s) for s in range(j + 1))


def _dual_counts(code) -> list[int]:
    """B_0..B_n from the exhaustive spectrum, after checking that 2^k
    divides every sum."""
    counts = exhaustive_spectrum(code).counts
    sums = [sum(a * _krawtchouk(code.n, j, w) for w, a in counts.items())
            for j in range(code.n + 1)]
    assert [s % (1 << code.k) for s in sums] == [0] * len(sums)
    return [s >> code.k for s in sums]


def _dual_low_weights(code) -> list[int]:
    """B_0..B_4 from the column sums of the generator matrix."""
    gen = code.encode(np.eye(code.k, dtype=np.uint8))
    dual = SimpleNamespace(H=SparseBinMatrix.from_dense(gen), k=code.n - code.k)
    counts = low_weight_search(dual, LOW_WEIGHT_MAX).counts
    return [counts.get(j, 0) for j in range(LOW_WEIGHT_MAX + 1)]


def _assert_duality(code) -> list[int]:
    low = _dual_low_weights(code)
    # A dual shorter than 4 has no words past its length.
    assert (_dual_counts(code) + [0] * LOW_WEIGHT_MAX)[: LOW_WEIGHT_MAX + 1] == low
    return low


COMP5 = build_mscmpc(5, [3, 4])


@pytest.mark.parametrize("make, low", [
    (lambda: build_hp(build_spc(3), build_spc(3)), [1, 0, 0, 0, 8]),
    (lambda: build_hp(COMP5, COMP5), [1, 0, 26, 288, 1667]),
    (lambda: ProductCode(COMP5, COMP5, design_generic(COMP5, COMP5, 1)), [1, 0, 20, 224, 1160]),
    (lambda: COMP5, [1, 0, 1, 8, 11]),
    (lambda: build_uncoded(6), [1, 0, 0, 0, 0]),
], ids=["spc3-squared", "mscmpc5-squared", "mscmpc5-squared-generic-seed1", "mscmpc5",
        "uncoded6"])
def test_dual_low_weights_match_the_spectrum(make, low):
    assert _assert_duality(make()) == low


@st.composite
def _component(draw, max_k: int, max_r: int) -> ComponentCode:
    k = draw(st.integers(1, max_k))
    r = draw(st.integers(0, max_r))
    support = []
    for i in range(r):
        left = draw(st.lists(st.booleans(), min_size=k + i, max_size=k + i))
        support.append(np.append(np.flatnonzero(left), k + i))
    return ComponentCode(k + r, k, SparseBinMatrix(r, k + r, support), f"random:{k}:{r}")


@st.composite
def _code(draw):
    """A drawn component alone, or two as a direct or randomly
    interleaved product."""
    if draw(st.booleans()):
        return draw(_component(12, 6))
    a, b = draw(_component(4, 3)), draw(_component(4, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ProductCode(a, b, PermutationArray.random(a.n, b.n, rng) if draw(st.booleans()) else None)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_code())
def test_dual_low_weights_match_the_spectrum_of_drawn_codes(code):
    _assert_duality(code)
