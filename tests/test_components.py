import re
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productldpc import components
from productldpc import (
    ComponentCode,
    PermutationArray,
    SparseBinMatrix,
    WeightSpectrum,
    build_mscmpc,
    build_spc,
    build_uncoded,
    local_girth,
    low_weight_search,
    parse_component_spec,
    rank_gf2,
    syndrome,
)


def reference_encode(code, info):
    """Row-by-row back-substitution through the triangular H: parity bit
    i is the XOR of row i's other columns, all of which are known by then."""
    out = np.zeros((info.shape[0], code.n), dtype=np.uint8)
    out[:, : code.k] = info
    for i, sup in enumerate(code.H.row_support):
        out[:, code.k + i] = out[:, sup[:-1]].sum(axis=1, dtype=np.int64) & 1
    return out


class TestSpc:
    def test_spc4_3(self):
        code = build_spc(3)
        assert (code.n, code.k, code.r) == (4, 3, 1)
        assert np.array_equal(code.H.to_dense(), [[1, 1, 1, 1]])

    def test_repetition_pair(self):
        code = build_spc(1)
        assert (code.n, code.k) == (2, 1)
        assert np.array_equal(code.H.to_dense(), [[1, 1]])

    def test_even_parity_encoding(self):
        code = build_spc(3)
        assert np.array_equal(code.encode([1, 0, 1]), [1, 0, 1, 0])
        assert np.array_equal(code.encode([1, 1, 0]), [1, 1, 0, 0])

    def test_rejects_k_zero(self):
        with pytest.raises(ValueError):
            build_spc(0)

    @pytest.mark.parametrize("k, message", [
        (True, "k must be an integer, got True"),
        (3.0, "k must be an integer, got 3.0"),
        (0, "SPC needs k >= 1"),  # too small: the message it had
    ], ids=["bool", "float", "zero"])
    def test_rejects_k_that_is_not_a_count(self, k, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_spc(k)


class TestMscmpc:
    @pytest.mark.parametrize(
        "k,r_list,n", [(81, [9, 10], 100), (169, [13, 14], 196), (5, [3, 4], 12)]
    )
    def test_dimensions(self, k, r_list, n):
        code = build_mscmpc(k, r_list)
        assert (code.n, code.k) == (n, k)
        assert code.r == sum(r_list)

    def test_lower_triangular_rows(self):
        code = build_mscmpc(5, [3, 4])
        for i, sup in enumerate(code.H.row_support):
            assert sup[-1] == code.k + i

    def test_full_rank(self):
        for code in (build_mscmpc(5, [3, 4]), build_mscmpc(81, [9, 10])):
            assert rank_gf2(code.H) == code.r

    @pytest.mark.parametrize("r_list", [[3, 3], [], [1, 4]])
    def test_rejects_bad_stage_lists(self, r_list):
        with pytest.raises(ValueError):
            build_mscmpc(5, r_list)

    @pytest.mark.parametrize("k, r_list, message", [
        (5, [3.7, 4], "stage redundancy must be an integer, got 3.7"),
        (True, [3, 4], "k must be an integer, got True"),
        (5.0, [3, 4], "k must be an integer, got 5.0"),
        # Too small: the messages they had.
        (0, [3, 4], "need k >= 1"),
        (5, [3, 1.5], "every stage redundancy must be >= 2"),
    ], ids=["float-stage", "bool-k", "float-k", "zero-k", "small-stage"])
    def test_rejects_parameters_that_are_not_counts(self, k, r_list, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            build_mscmpc(k, r_list)

    def test_girth_at_least_six(self):
        for code in (
            build_mscmpc(5, [3, 4]),
            build_mscmpc(81, [9, 10]),
            build_mscmpc(10, [11, 12, 13]),
        ):
            assert local_girth(code.H).global_girth >= 6

    def test_rejects_parameters_that_close_four_cycles(self):
        # moduli too small for the running stage length
        with pytest.raises(ValueError, match="girth 4"):
            build_mscmpc(20, [4, 5, 7])

    def test_no_two_rows_share_two_columns(self):
        # girth >= 6 seen directly on the row supports
        code = build_mscmpc(81, [9, 10])
        rows = [set(sup.tolist()) for sup in code.H.row_support]
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert len(rows[i] & rows[j]) <= 1


class TestConstructorRules:
    @pytest.mark.parametrize("rows, cols", [(1, 5), (2, 4), (0, 4)])
    def test_rejects_h_of_the_wrong_shape(self, rows, cols):
        H = SparseBinMatrix(rows, cols, [[cols - 1]] * rows)
        with pytest.raises(ValueError, match=f"^H must be 1x4, got {rows}x{cols}$"):
            ComponentCode(4, 3, H, "bad")

    @pytest.mark.parametrize("support, row", [
        ([[0, 3], [1, 3]], 0),  # row 0 ends at column 3, not 2
        ([[0, 2], [1, 2]], 1),  # row 1 ends at column 2, not 3
        ([[], [1, 3]], 0),      # an empty row has no rightmost 1
    ])
    def test_rejects_a_row_not_ending_at_k_plus_i(self, support, row):
        H = SparseBinMatrix(2, 4, support)
        with pytest.raises(ValueError, match=f"^row {row} must have its rightmost 1 "
                                             f"at column {2 + row}$"):
            ComponentCode(4, 2, H, "bad")

    @pytest.mark.parametrize("n, k", [(2, 0), (0, 0), (2, 3)])
    def test_rejects_k_below_one_or_n_below_k(self, n, k):
        H = SparseBinMatrix(max(n - k, 0), n, [[i] for i in range(max(n - k, 0))])
        with pytest.raises(ValueError, match=f"^need k >= 1 and n >= k, got n={n}, k={k}$"):
            ComponentCode(n, k, H, "bad")

    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    def test_uncoded_is_the_identity_code(self, n, rng):
        code = build_uncoded(n)
        assert (code.n, code.k, code.r, code.label) == (n, n, 0, f"uncoded:{n}")
        assert (code.H.rows, code.H.cols) == (0, n)
        assert np.array_equal(code.info_positions(), np.arange(n))
        words = rng.integers(0, 2, (3, 2, n), dtype=np.uint8)
        got = code.encode(words)
        assert got.dtype == np.uint8 and np.array_equal(got, words)
        with pytest.raises(ValueError, match=f"length k={n}"):
            code.encode(np.zeros(n + 1, dtype=np.uint8))

    @pytest.mark.parametrize("n", [1, 2, 9, 300])
    def test_uncoded_has_n_weight_one_words(self, n):
        assert low_weight_search(build_uncoded(n), 1).counts == {0: 1, 1: n}

    def test_info_positions_are_the_systematic_prefix(self, comp5):
        assert np.array_equal(comp5.info_positions(), np.arange(5))


class TestEncoding:
    def test_zero_maps_to_zero(self, comp5):
        assert not comp5.encode(np.zeros(5, dtype=np.uint8)).any()

    def test_systematic_prefix(self, comp5, rng):
        info = rng.integers(0, 2, 5, dtype=np.uint8)
        assert np.array_equal(comp5.encode(info)[:5], info)

    def test_all_32_codewords_satisfy_h(self, comp5):
        for word in range(32):
            info = np.array([(word >> i) & 1 for i in range(5)], dtype=np.uint8)
            cw = comp5.encode(info)
            assert not syndrome(comp5.H, cw).any()

    def test_batch_matches_single(self, comp5, rng):
        infos = rng.integers(0, 2, (8, 5), dtype=np.uint8)
        batch = comp5.encode(infos)
        for row, info in zip(batch, infos):
            assert np.array_equal(row, comp5.encode(info))

    @pytest.mark.parametrize("spec", [
        "spc:1", "spc:3", "spc:300", "mscmpc:5:3,4", "mscmpc:81:9,10", "mscmpc:169:13,14",
    ])
    def test_batch_matches_back_substitution(self, spec, rng):
        # The all-ones and unit rows reach the largest and the single-term
        # sums; spc:300 sums up to 300 ones, more than an 8-bit type holds.
        code = parse_component_spec(spec)
        infos = np.concatenate([
            np.ones((1, code.k), dtype=np.uint8),
            np.eye(code.k, dtype=np.uint8),
            rng.integers(0, 2, (40, code.k), dtype=np.uint8),
        ])
        batch = code.encode(infos)
        assert batch.dtype == np.uint8
        assert np.array_equal(batch, reference_encode(code, infos))
        assert not syndrome(code.H, batch[0]).any()

    def test_empty_batch(self, comp5):
        assert comp5.encode(np.zeros((0, 5), dtype=np.uint8)).shape == (0, 12)

    def test_length_mismatch_rejected(self, comp5):
        with pytest.raises(ValueError):
            comp5.encode(np.zeros(4, dtype=np.uint8))

    @pytest.mark.parametrize("shape", [(), (4,), (3, 2, 6), (5, 3)])
    def test_last_axis_other_than_k_rejected(self, comp5, shape):
        with pytest.raises(ValueError, match=rf"length k=5, got shape \({', '.join(map(str, shape))}"):
            comp5.encode(np.zeros(shape, dtype=np.uint8))


@st.composite
def _code_and_words(draw):
    """A random triangular (k + r, k) code and a (F1, F2, k) block of info words."""
    k = draw(st.integers(1, 10))
    r = draw(st.integers(1, 5))
    support = []
    for i in range(r):
        left = draw(st.lists(st.booleans(), min_size=k + i, max_size=k + i))
        support.append(np.append(np.flatnonzero(left), k + i))
    code = ComponentCode(k + r, k, SparseBinMatrix(r, k + r, support), f"random:{k}:{r}")
    f1, f2 = draw(st.integers(0, 3)), draw(st.integers(0, 4))
    bits = draw(st.lists(st.booleans(), min_size=f1 * f2 * k, max_size=f1 * f2 * k))
    return code, np.array(bits, dtype=np.uint8).reshape(f1, f2, k)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_code_and_words())
def test_encode_maps_the_last_axis_like_back_substitution_word_by_word(case):
    code, info = case
    got = code.encode(info)
    assert got.shape == info.shape[:-1] + (code.n,) and got.dtype == np.uint8
    for index in np.ndindex(info.shape[:-1]):
        assert np.array_equal(got[index], reference_encode(code, info[index][None, :])[0])


def pair_walk_violates(H):
    """Reference 4-cycle check: walk each column's row pairs and report
    the first pair already met in an earlier column."""
    seen = set()
    for rows in H.col_support():
        for pair in combinations(rows.tolist(), 2):
            if pair in seen:
                return True
            seen.add(pair)
    return False


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_row_column_check_matches_pair_walk(data):
    rows, cols = data.draw(st.integers(0, 6)), data.draw(st.integers(0, 8))
    bits = data.draw(st.lists(st.booleans(), min_size=rows * cols, max_size=rows * cols))
    H = SparseBinMatrix.from_dense(np.array(bits, dtype=np.uint8).reshape(rows, cols))
    assert components._violates_row_column_constraint(H) == pair_walk_violates(H)


def test_row_column_check_counts_past_255_shared_columns():
    # Two rows sharing 256 columns: an 8-bit Gram product would wrap to 0.
    H = SparseBinMatrix.from_dense(np.ones((2, 256), dtype=np.uint8))
    assert components._violates_row_column_constraint(H) and pair_walk_violates(H)


def test_mscmpc_acceptance_matches_pair_walk(monkeypatch):
    checked = []
    check = components._violates_row_column_constraint
    monkeypatch.setattr(components, "_violates_row_column_constraint",
                        lambda H: checked.append(H) or check(H))
    for k in range(1, 61):
        for stages in permutations(range(2, 13), 2):
            try:
                build_mscmpc(k, stages)
                accepted = True
            except ValueError:
                accepted = False
            assert accepted != pair_walk_violates(checked[-1]), (k, stages)


def dense_stage_rule(k, stages):
    """H of the serial MPC stages, entry by entry: row p of stage j checks
    its parity column and each stage input column congruent to p mod r_j."""
    n = k + sum(stages)
    H = np.zeros((n - k, n), dtype=np.uint8)
    row, start = 0, k
    for r in stages:
        for p in range(r):
            for col in range(start):
                H[row, col] = col % r == p
            H[row, start + p] = 1
            row += 1
        start += r
    return H


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 80), st.lists(st.integers(2, 30), min_size=1, max_size=4, unique=True))
def test_mscmpc_matches_the_dense_stage_rule(k, stages):
    expected = SparseBinMatrix.from_dense(dense_stage_rule(k, stages))
    if pair_walk_violates(expected):
        with pytest.raises(ValueError, match="girth 4"):
            build_mscmpc(k, stages)
    else:
        # == compares the CSR arrays, so each row must be sorted and distinct.
        assert build_mscmpc(k, stages).H == expected


_H12 = build_mscmpc(5, [3, 4]).H

# Every public count, as (name in its message, call with the count set to
# v, a string for it).  The strings for rows, block size and stage
# redundancy raised a raw TypeError while the range came before the type,
# as did those for a spectrum's entries, which took any float or bool.
_COUNTS = [
    ("rows", lambda v: SparseBinMatrix(v, 2, [[], []]), "2"),
    ("cols", lambda v: SparseBinMatrix(2, v, [[], []]), "2"),
    ("block size", lambda v: PermutationArray(v, []), "3"),
    ("block count", lambda v: PermutationArray.identity(2, v), "3"),
    ("k", build_spc, "3"),
    ("k", lambda v: build_mscmpc(v, [3, 4]), "5"),
    ("stage redundancy", lambda v: build_mscmpc(5, [v, 4]), "3"),
    ("n", build_uncoded, "3"),
    ("n", lambda v: ComponentCode(v, 5, _H12, "x"), "12"),
    ("k", lambda v: ComponentCode(12, v, _H12, "x"), "5"),
    ("w_max", lambda v: low_weight_search(build_spc(3), v), "2"),
    ("spectrum n", lambda v: WeightSpectrum(n=v, k=1), "144"),
    ("spectrum k", lambda v: WeightSpectrum(n=144, k=v), "25"),
    ("spectrum weight", lambda v: WeightSpectrum(n=144, k=25, counts={v: 64}), "16"),
    ("spectrum A_16", lambda v: WeightSpectrum(n=144, k=25, counts={16: v}), "64"),
]


@pytest.mark.parametrize("name, make, text", _COUNTS, ids=[
    "rows", "cols", "block-size", "block-count", "spc-k", "mscmpc-k", "stage",
    "uncoded-n", "component-n", "component-k", "w_max", "spectrum-n", "spectrum-k",
    "spectrum-weight", "spectrum-count"])
@pytest.mark.parametrize("kind", ["str", "float", "bool"])
def test_every_count_refuses_what_is_not_an_integer_by_name(name, make, text, kind):
    # 12.5 is above every minimum, so only its type can be at fault.
    value = {"str": text, "float": 12.5, "bool": True}[kind]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
        make(value)


class TestParse:
    def test_spc(self):
        assert parse_component_spec("spc:3").label == "spc:3"

    def test_mscmpc(self):
        code = parse_component_spec("mscmpc:81:9,10")
        assert (code.n, code.k) == (100, 81)

    # int() would read the last five as spc:30, mscmpc:25:5,6, spc:3, spc:3
    # and spc:3.
    @pytest.mark.parametrize("text", ["spc", "spc:x", "mscmpc:5", "foo:1", "mscmpc:5:3,3",
                                      "spc:3_0", "mscmpc:2_5:5,6", "spc:+3", "spc: 3",
                                      "spc:\uff13"])
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_component_spec(text)

    def test_label_round_trips(self, comp5):
        again = parse_component_spec(comp5.label)
        assert again.H == comp5.H
