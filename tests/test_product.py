import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productldpc import (
    PermutationArray,
    ProductCode,
    build_hp,
    build_hp_interleaved,
    build_mscmpc,
    build_spc,
    parse_component_spec,
    rank_gf2,
    syndrome,
)
from productldpc.product import load_permutation_array, save_permutation_array


@pytest.fixture(scope="module")
def spc_square():
    spc = build_spc(3)
    return build_hp(spc, spc)


# Worked example: SPC(4,3) on both dimensions with the four permutations
# {1,2,3,4}, {2,1,3,4}, {3,1,4,2}, {2,3,4,1}; copy q of the column code
# touches codeword bit (m-1)*n_a + perm_m(q) in every encoding-matrix row m.
WORKED_PERMS = [[1, 2, 3, 4], [2, 1, 3, 4], [3, 1, 4, 2], [2, 3, 4, 1]]
WORKED_COPIES = {
    0: {0, 5, 10, 13},
    1: {1, 4, 8, 14},
    2: {2, 6, 11, 15},
    3: {3, 7, 9, 12},
}


def worked_array():
    return PermutationArray(4, [np.array(p) - 1 for p in WORKED_PERMS])


class TestDirectConstruction:
    def test_spc_square_shape_and_rank(self, spc_square):
        assert (spc_square.n, spc_square.k) == (16, 9)
        assert (spc_square.H.rows, spc_square.H.cols) == (7, 16)
        assert rank_gf2(spc_square.H) == 7

    def test_row_count_formula(self, pc144, comp5):
        expected = comp5.k * comp5.r + comp5.n * comp5.r
        assert pc144.H.rows == expected
        assert rank_gf2(pc144.H) == pc144.n - pc144.k

    def test_large_dimensions(self):
        a = build_mscmpc(81, [9, 10])
        assert (build_hp(a, a).n, build_hp(a, a).k) == (10000, 6561)
        b = build_mscmpc(169, [13, 14])
        pc = build_hp(b, b)
        assert (pc.n, pc.k) == (38416, 28561)

    def test_mixed_components(self, comp5, spc3):
        pc = build_hp(spc3, comp5)
        assert (pc.n, pc.k) == (4 * 12, 3 * 5)
        assert pc.H.rows == comp5.k * spc3.r + spc3.n * comp5.r
        assert rank_gf2(pc.H) == pc.n - pc.k


class TestInterleavedConstruction:
    def test_identity_array_reproduces_direct(self, comp5, pc144):
        ipc = build_hp_interleaved(
            comp5, comp5, PermutationArray.identity(12, 12)
        )
        assert ipc.H == pc144.H

    def test_worked_example_copy_structure(self):
        spc = build_spc(3)
        ipc = build_hp_interleaved(spc, spc, worked_array())
        # bottom block: r_b * n_a = 4 rows, one per column-code copy
        copies = ipc.H.row_support[-4:]
        for q, sup in enumerate(copies):
            assert set(sup.tolist()) == WORKED_COPIES[q]

    def test_each_bit_in_exactly_one_copy(self, comp5, rng):
        pa = PermutationArray.random(12, 12, rng)
        ipc = build_hp_interleaved(comp5, comp5, pa)
        n_a, r_b = comp5.n, comp5.r
        bottom = ipc.H.row_support[-r_b * n_a :]
        col_w = comp5.H.col_support()
        copies_touching = {bit: set() for bit in range(ipc.n)}
        for row_idx, sup in enumerate(bottom):
            copy = row_idx % n_a
            for bit in sup:
                copies_touching[int(bit)].add(copy)
        for bit, copies in copies_touching.items():
            block = bit // n_a
            assert len(copies) == (1 if len(col_w[block]) else 0)

    def test_rank_equals_n_minus_k(self, comp5, rng):
        for _ in range(3):
            pa = PermutationArray.random(12, 12, rng)
            ipc = build_hp_interleaved(comp5, comp5, pa)
            assert rank_gf2(ipc.H) == ipc.n - ipc.k

    def test_dimension_mismatch_rejected(self, comp5):
        with pytest.raises(ValueError):
            build_hp_interleaved(comp5, comp5, PermutationArray.identity(11, 12))
        with pytest.raises(ValueError):
            build_hp_interleaved(comp5, comp5, PermutationArray.identity(12, 11))


def dense_product_h(a, b, table):
    """H from the paper's block formulas in dense arithmetic: I_{k_b} (x) H_a
    padded with zero columns to n, on top of H_b with entry (i, j) expanded
    to the block P_j, which has a 1 at (q, table[j][q])."""
    n_a = a.n
    top = np.kron(np.eye(b.k, dtype=np.uint8), a.H.to_dense())
    top = np.pad(top, ((0, 0), (0, a.n * b.n - top.shape[1])))
    h_b = b.H.to_dense()
    bottom = np.zeros((h_b.shape[0] * n_a, a.n * b.n), dtype=np.uint8)
    for i, j in zip(*np.nonzero(h_b)):
        block = np.zeros((n_a, n_a), dtype=np.uint8)
        block[np.arange(n_a), table[j]] = 1
        bottom[i * n_a : (i + 1) * n_a, j * n_a : (j + 1) * n_a] = block
    return np.vstack([top, bottom])


@pytest.mark.parametrize("spec_a,spec_b", [
    ("spc:3", "spc:3"),
    ("mscmpc:5:3,4", "mscmpc:5:3,4"),
    ("spc:3", "mscmpc:5:3,4"),
    ("mscmpc:5:3,4", "spc:2"),
    ("spc:1", "mscmpc:10:11,12,13"),
])
def test_h_matches_the_dense_block_formulas(spec_a, spec_b, rng):
    a, b = parse_component_spec(spec_a), parse_component_spec(spec_b)
    identity = [np.arange(a.n)] * b.n
    assert np.array_equal(ProductCode(a, b).H.to_dense(), dense_product_h(a, b, identity))
    for _ in range(3):
        table = PermutationArray.random(a.n, b.n, rng)
        dense = dense_product_h(a, b, table.perms)
        assert np.array_equal(ProductCode(a, b, table).H.to_dense(), dense)


class TestEncoder:
    def test_zero_info_zero_codeword(self, pc144):
        assert not pc144.encode(np.zeros(25, dtype=np.uint8)).any()

    def test_single_one_gives_minimum_weight_product(self, spc_square):
        info = np.zeros(9, dtype=np.uint8)
        info[0] = 1
        cw = spc_square.encode(info)
        assert cw.sum() == 4  # d_a * d_b for two distance-2 components
        grid = cw.reshape(4, 4)
        assert grid[0, 0] == grid[0, 3] == grid[3, 0] == grid[3, 3] == 1

    def test_flat_info_accepted(self, pc144, rng):
        info = rng.integers(0, 2, 25, dtype=np.uint8)
        cw = pc144.encode(info)
        assert cw.shape == (pc144.n,)
        assert np.array_equal(cw, pc144.encode(info[None, :])[0])

    def test_block_rejected(self, pc144):
        with pytest.raises(ValueError, match="length k=25"):
            pc144.encode(np.zeros((5, 5), dtype=np.uint8))

    def test_consistency_direct(self, pc144, rng):
        for _ in range(25):
            info = rng.integers(0, 2, 25, dtype=np.uint8)
            assert not syndrome(pc144.H, pc144.encode(info)).any()

    def test_consistency_interleaved_random_arrays(self, comp5, rng):
        for _ in range(5):
            pa = PermutationArray.random(12, 12, rng)
            ipc = build_hp_interleaved(comp5, comp5, pa)
            for _ in range(20):
                info = rng.integers(0, 2, 25, dtype=np.uint8)
                assert not syndrome(ipc.H, ipc.encode(info)).any()

    def test_consistency_mixed_components(self, comp5, spc3, rng):
        pa = PermutationArray.random(spc3.n, comp5.n, rng)
        ipc = build_hp_interleaved(spc3, comp5, pa)
        for _ in range(20):
            info = rng.integers(0, 2, comp5.k * spc3.k, dtype=np.uint8)
            assert not syndrome(ipc.H, ipc.encode(info)).any()

    def test_identity_array_encodes_identically(self, comp5, pc144, rng):
        ipc = build_hp_interleaved(comp5, comp5, PermutationArray.identity(12, 12))
        info = rng.integers(0, 2, 25, dtype=np.uint8)
        assert np.array_equal(pc144.encode(info), ipc.encode(info))

    def test_linearity(self, comp5, rng):
        pa = PermutationArray.random(12, 12, rng)
        ipc = build_hp_interleaved(comp5, comp5, pa)
        u = rng.integers(0, 2, 25, dtype=np.uint8)
        v = rng.integers(0, 2, 25, dtype=np.uint8)
        assert np.array_equal(ipc.encode(u ^ v), ipc.encode(u) ^ ipc.encode(v))

    def test_info_positions_hold_info_bits(self, comp5, rng):
        pa = PermutationArray.random(12, 12, rng)
        ipc = build_hp_interleaved(comp5, comp5, pa)
        info = rng.integers(0, 2, 25, dtype=np.uint8)
        assert np.array_equal(ipc.encode(info)[ipc.info_positions()], info)

    @pytest.mark.parametrize("spec_a,spec_b", [
        ("spc:3", "mscmpc:5:3,4"),
        ("mscmpc:5:3,4", "spc:3"),
        ("spc:1", "mscmpc:5:3,4"),
        ("mscmpc:10:11,12,13", "spc:2"),
    ])
    def test_non_square_pairs(self, spec_a, spec_b, rng):
        a, b = parse_component_spec(spec_a), parse_component_spec(spec_b)
        direct = build_hp(a, b)
        twin = build_hp_interleaved(a, b, PermutationArray.identity(a.n, b.n))
        interleaved = build_hp_interleaved(a, b, PermutationArray.random(a.n, b.n, rng))
        for _ in range(10):
            info = rng.integers(0, 2, b.k * a.k, dtype=np.uint8)
            words = [pc.encode(info) for pc in (direct, twin, interleaved)]
            assert np.array_equal(words[0], words[1])
            for pc, cw in zip((direct, twin, interleaved), words):
                assert cw.shape == (a.n * b.n,) and cw.dtype == np.uint8
                assert not syndrome(pc.H, cw).any()
                assert np.array_equal(cw[pc.info_positions()], info)

    def test_shape_mismatch_rejected(self, pc144):
        with pytest.raises(ValueError):
            pc144.encode(np.zeros((4, 5), dtype=np.uint8))


PROPERTY_COMPONENTS = [
    parse_component_spec(spec) for spec in ("spc:1", "spc:3", "mscmpc:5:3,4", "mscmpc:10:11,12,13")
]


@st.composite
def _product_and_words(draw):
    """A direct or randomly interleaved product of two drawn components
    (often of different sizes) and an (f1, f2, k) stack of info words."""
    a = draw(st.sampled_from(PROPERTY_COMPONENTS))
    b = draw(st.sampled_from(PROPERTY_COMPONENTS))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    table = draw(st.sampled_from([None, PermutationArray.random(a.n, b.n, rng)]))
    pc = ProductCode(a, b, table)
    f1, f2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    return pc, rng.integers(0, 2, (f1, f2, pc.k), dtype=np.uint8)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_product_and_words())
def test_encode_maps_the_last_axis_like_one_word_at_a_time(case):
    pc, info = case
    got = pc.encode(info)
    assert got.shape == info.shape[:-1] + (pc.n,) and got.dtype == np.uint8
    for index in np.ndindex(info.shape[:-1]):
        assert np.array_equal(got[index], pc.encode(info[index]))
        assert not syndrome(pc.H, got[index]).any()
        assert np.array_equal(got[index][pc.info_positions()], info[index])


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PROPERTY_COMPONENTS), st.sampled_from(PROPERTY_COMPONENTS),
       st.integers(0, 2**32 - 1), st.booleans())
def test_track_maps_match_the_argsort_reference(a, b, seed, interleaved):
    table = PermutationArray.random(a.n, b.n, np.random.default_rng(seed)) if interleaved else None
    pc = ProductCode(a, b, table)
    perms = (PermutationArray.identity(a.n, b.n) if table is None else table).perms
    tracks = (np.arange(0, pc.n, a.n)[:, None] + perms).T
    assert np.array_equal(pc._info_tracks, tracks[:, : b.k])
    order = np.argsort(tracks[:, b.k :], axis=None)
    assert pc._parity_order.dtype == order.dtype and np.array_equal(pc._parity_order, order)


class TestPermutationJson:
    def test_round_trip(self, tmp_path, rng):
        pa = PermutationArray.random(7, 5, rng)
        path = tmp_path / "perms.json"
        save_permutation_array(pa, path, meta={"seed": 3})
        assert load_permutation_array(path) == pa

    def test_serialized_entries_are_one_based(self, tmp_path):
        import json

        pa = worked_array()
        path = tmp_path / "perms.json"
        save_permutation_array(pa, path)
        doc = json.loads(path.read_text())
        assert doc["n_a"] == 4
        assert doc["perms"] == WORKED_PERMS

    def test_n_a_may_be_as_large_as_the_file_and_no_larger(self, tmp_path):
        # {"n_a": 24, "perms": []} is 24 characters long.
        path = tmp_path / "perms.json"
        path.write_text('{"n_a": 24, "perms": []}')
        assert load_permutation_array(path) == PermutationArray(24, [])
        path.write_text('{"n_a": 25, "perms": []}')
        with pytest.raises(ValueError, match=" n_a = 25 does not fit in a file of 24 characters$"):
            load_permutation_array(path)
