"""The exhaustive spectrum against a Gray-loop reference implementation.

``reference_exhaustive_spectrum`` is the enumeration the meet-in-the-
middle kernel replaced, kept verbatim: information words are visited in
Gray order, so each step XORs one generator codeword held as a Python
int and weighs it with ``int.bit_count``.  Python ints never wrap, so
the reference is exact for any n; the kernel must give the same counts.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from productldpc import (
    ComponentCode,
    SparseBinMatrix,
    build_hp,
    build_hp_interleaved,
    design_generic,
    exhaustive_spectrum,
)
from productldpc.analysis import WeightSpectrum


def _pack_bits(bits: np.ndarray) -> int:
    return int.from_bytes(
        np.packbits(bits.astype(np.uint8), bitorder="little").tobytes(), "little"
    )


def _generator_words(code) -> list[int]:
    """Packed codewords of the k unit information words."""
    return [_pack_bits(word) for word in code.encode(np.eye(code.k, dtype=np.uint8))]


def reference_exhaustive_spectrum(code) -> WeightSpectrum:
    gens = _generator_words(code)
    counts = [0] * (code.n + 1)
    word = 0
    counts[0] += 1
    for i in range(1, 1 << code.k):
        word ^= gens[(i & -i).bit_length() - 1]
        counts[word.bit_count()] += 1
    return WeightSpectrum(
        n=code.n,
        k=code.k,
        counts={w: c for w, c in enumerate(counts) if c},
        complete=True,
    )


def _assert_same_spectrum(code) -> None:
    got = exhaustive_spectrum(code)
    ref = reference_exhaustive_spectrum(code)
    assert got.counts == ref.counts
    assert (got.n, got.k, got.complete) == (ref.n, ref.k, ref.complete)


@st.composite
def _triangular_code(draw):
    k = draw(st.integers(1, 12))
    r = draw(st.integers(1, 6))
    support = []
    for i in range(r):
        left = draw(st.lists(st.booleans(), min_size=k + i, max_size=k + i))
        support.append(np.append(np.flatnonzero(left), k + i))
    return ComponentCode(k + r, k, SparseBinMatrix(r, k + r, support), f"random:{k}:{r}")


def _code_from_rows(k, rows):
    r = len(rows)
    support = [np.append(np.asarray(left, dtype=np.int64), k + i) for i, left in enumerate(rows)]
    return ComponentCode(k + r, k, SparseBinMatrix(r, k + r, support), f"rows:{k}:{r}")


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_triangular_code())
@example(_code_from_rows(1, [[]]))
@example(_code_from_rows(1, [[0], [0, 1]]))
@example(_code_from_rows(11, [list(range(11))]))
@example(_code_from_rows(12, [list(range(0, 12, 2)), list(range(1, 12, 2))]))
def test_random_triangular_codes_match_reference(code):
    _assert_same_spectrum(code)


def test_small_square_products_match_reference(comp5):
    # k = 25: a 13/12 split over three 64-bit words.
    _assert_same_spectrum(build_hp(comp5, comp5))
    for seed in range(4):
        perms = design_generic(comp5, comp5, seed)
        _assert_same_spectrum(build_hp_interleaved(comp5, comp5, perms))


def test_repetition_code_longer_than_255_bits():
    # The all-ones word has weight 300; an 8-bit weight accumulator
    # would report it as 300 - 256 = 44.
    n = 300
    support = [np.array([0, 1 + i]) for i in range(n - 1)]
    code = ComponentCode(n, 1, SparseBinMatrix(n - 1, n, support), "repetition:300")
    assert exhaustive_spectrum(code).counts == {0: 1, n: 1}
    _assert_same_spectrum(code)

