import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productldpc import (
    PermutationArray,
    SparseBinMatrix,
    density,
    kron,
    rank_gf2,
    syndrome,
    vec_kron,
)
from productldpc.gf2 import _in_lanes, vstack


def dense_rank_gf2(a):
    """Independent oracle: plain Gaussian elimination on a dense copy."""
    a = np.array(a, dtype=np.uint8) % 2
    m, n = a.shape
    rank = 0
    row = 0
    for col in range(n):
        piv = None
        for r in range(row, m):
            if a[r, col]:
                piv = r
                break
        if piv is None:
            continue
        a[[row, piv]] = a[[piv, row]]
        for r in range(m):
            if r != row and a[r, col]:
                a[r] ^= a[row]
        row += 1
        rank += 1
    return rank


def random_sparse(rng, rows, cols, p=0.3):
    return SparseBinMatrix.from_dense(rng.random((rows, cols)) < p)


# Small shapes, zero rows and zero columns included; empty rows and
# columns come up in most draws.
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@st.composite
def _dense(draw, rows=None, cols=None):
    rows = draw(st.integers(0, 4)) if rows is None else rows
    cols = draw(st.integers(0, 5)) if cols is None else cols
    bits = draw(st.lists(st.lists(st.booleans(), min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))
    return np.array(bits, dtype=np.uint8).reshape(rows, cols)


def _supports(d):
    return [np.nonzero(row)[0].tolist() for row in d]


class TestSparseBinMatrix:
    def test_rejects_out_of_range_index(self):
        with pytest.raises(ValueError):
            SparseBinMatrix(1, 3, [[0, 3]])

    def test_rejects_unsorted_support(self):
        with pytest.raises(ValueError):
            SparseBinMatrix(1, 4, [[2, 1]])

    def test_rejects_duplicate_support(self):
        with pytest.raises(ValueError):
            SparseBinMatrix(1, 4, [[1, 1]])

    @pytest.mark.parametrize("row", [[2**32 + 1], np.array([2**32 + 1]),
                                     np.array([2**63 + 1], dtype=np.uint64)])
    def test_rejects_index_that_wraps_into_range(self, row):
        with pytest.raises(ValueError, match="out of range"):
            SparseBinMatrix(1, 4, [row])

    @pytest.mark.parametrize("row", [[1.5, 2.9], [True], ["1"]])
    def test_rejects_non_integer_entries(self, row):
        with pytest.raises(ValueError, match="integers"):
            SparseBinMatrix(1, 4, [row])

    @pytest.mark.parametrize("rows, cols", [(-1, 3), (2, -1)])
    def test_rejects_negative_dimensions(self, rows, cols):
        with pytest.raises(ValueError, match="^matrix dimensions must be nonnegative$"):
            SparseBinMatrix(rows, cols, [])

    @pytest.mark.parametrize("supports", [[[0]], [[0], [1], [2]]])
    def test_rejects_support_count_other_than_rows(self, supports):
        with pytest.raises(ValueError, match=f"^expected 2 support lists, got {len(supports)}$"):
            SparseBinMatrix(2, 3, supports)

    @pytest.mark.parametrize("shape", [(), (3,), (2, 2, 2)])
    def test_from_dense_rejects_other_than_two_axes(self, shape):
        with pytest.raises(ValueError, match="^dense input must be two-dimensional$"):
            SparseBinMatrix.from_dense(np.ones(shape, dtype=np.uint8))

    def test_all_zero_row_is_representable(self):
        m = SparseBinMatrix(2, 4, [[], [0, 3]])
        assert m.nnz == 2
        assert np.array_equal(m.to_dense()[0], [0, 0, 0, 0])

    @PROPERTY
    @given(_dense())
    def test_dense_round_trip(self, d):
        m = SparseBinMatrix.from_dense(d)
        assert m == SparseBinMatrix(*d.shape, _supports(d))
        assert np.array_equal(m.to_dense(), d)
        assert m.nnz == d.sum()
        assert np.array_equal(m.row_weights(), d.sum(axis=1))
        assert [sup.tolist() for sup in m.row_support] == _supports(d)

    @PROPERTY
    @given(_dense())
    def test_col_support_is_transpose(self, d):
        m = SparseBinMatrix.from_dense(d)
        t = m.transpose()
        assert (t.rows, t.cols) == (m.cols, m.rows)
        assert np.array_equal(t.to_dense(), d.T)
        assert t.transpose() == m
        assert t.indptr.dtype == np.int64 and t.indices.dtype == np.int32
        assert not t.indptr.flags.writeable and not t.indices.flags.writeable
        assert [sup.tolist() for sup in m.col_support()] == _supports(d.T)

    @PROPERTY
    @given(st.data())
    def test_vstack_against_dense(self, data):
        top = data.draw(_dense())
        bottom = data.draw(_dense(cols=top.shape[1]))
        a, b = SparseBinMatrix.from_dense(top), SparseBinMatrix.from_dense(bottom)
        assert np.array_equal(vstack([a, b]).to_dense(), np.vstack([top, bottom]))

    @PROPERTY
    @given(st.data(), st.sampled_from(["out-of-range", "unsorted", "duplicate", "2-D"]))
    def test_rejects_one_bad_row_anywhere(self, data, fault):
        rows, cols = data.draw(st.integers(1, 4)), data.draw(st.integers(2, 5))
        d = data.draw(_dense(rows=rows, cols=cols))
        supports = _supports(d)
        i = data.draw(st.integers(0, rows - 1))
        row = supports[i]
        if fault == "out-of-range":
            supports[i], message = row + [cols], "out of range"
        elif fault == "unsorted":
            supports[i] = row[::-1] if len(row) >= 2 else [1, 0]
            message = "strictly increasing"
        elif fault == "duplicate":
            supports[i], message = (row + row[-1:] if row else [0, 0]), "strictly increasing"
        else:
            supports[i], message = [row], "one-dimensional"
        with pytest.raises(ValueError, match=message):
            SparseBinMatrix(rows, cols, supports)


class TestKron:
    def test_identity_times_matrix_is_block_diagonal(self, rng):
        a = random_sparse(rng, 3, 5)
        out = kron(SparseBinMatrix.identity(2), a).to_dense()
        expected = np.zeros((6, 10), dtype=np.uint8)
        expected[:3, :5] = a.to_dense()
        expected[3:, 5:] = a.to_dense()
        assert np.array_equal(out, expected)

    def test_identity_one_is_neutral(self, rng):
        a = random_sparse(rng, 4, 6)
        assert kron(a, SparseBinMatrix.identity(1)) == a

    def test_row_vector_times_identity(self):
        a = SparseBinMatrix(1, 2, [[0, 1]])
        out = kron(a, SparseBinMatrix.identity(2))
        assert np.array_equal(out.to_dense(), [[1, 0, 1, 0], [0, 1, 0, 1]])

    @PROPERTY
    @given(_dense(), _dense())
    def test_matches_numpy_kron(self, a, b):
        out = kron(SparseBinMatrix.from_dense(a), SparseBinMatrix.from_dense(b))
        assert np.array_equal(out.to_dense(), np.kron(a, b))


class TestVecKron:
    def dense_vec_kron(self, a, bbar, w):
        """Brute-force expansion of the column-blockwise definition."""
        ad, bd = a.to_dense(), bbar.to_dense()
        x, y = ad.shape
        v = bd.shape[0]
        out = np.zeros((x * v, w * y), dtype=np.uint8)
        for i in range(y):
            block = bd[:, i * w : (i + 1) * w]
            for r in range(x):
                out[r * v : (r + 1) * v, i * w : (i + 1) * w] = ad[r, i] * block
        return out

    def test_row_of_identities_equals_kron_with_identity(self, comp5):
        n = 7
        row_of_ids = PermutationArray.identity(n, comp5.H.cols).to_matrix()
        assert vec_kron(comp5.H, row_of_ids, n) == kron(
            comp5.H, SparseBinMatrix.identity(n)
        )

    def test_identity_permutations_equal_plain_kron(self, comp5):
        pa = PermutationArray.identity(12, 12)
        assert vec_kron(comp5.H, pa.to_matrix(), 12) == kron(
            comp5.H, SparseBinMatrix.identity(12)
        )

    def test_hand_built_blocks_against_dense_expansion(self):
        a = SparseBinMatrix.from_dense([[1, 0], [1, 1]])
        p1 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        p2 = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        bbar = SparseBinMatrix.from_dense(np.hstack([p1, p2]))
        out = vec_kron(a, bbar, 3)
        assert np.array_equal(out.to_dense(), self.dense_vec_kron(a, bbar, 3))

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    @PROPERTY
    @given(data=st.data())
    def test_random_against_dense_expansion(self, w, data):
        a = SparseBinMatrix.from_dense(data.draw(_dense()))
        bbar = SparseBinMatrix.from_dense(data.draw(_dense(cols=w * a.cols)))
        out = vec_kron(a, bbar, w)
        assert np.array_equal(out.to_dense(), self.dense_vec_kron(a, bbar, w))

    @pytest.mark.parametrize("w", [2, 3, 4])
    def test_random_matrix_with_identity_row(self, rng, w):
        a = random_sparse(rng, 4, 6)
        row_of_ids = PermutationArray.identity(w, 6).to_matrix()
        assert vec_kron(a, row_of_ids, w) == kron(a, SparseBinMatrix.identity(w))

    def test_dimension_mismatch_reports_sizes(self, comp5):
        bad = SparseBinMatrix.identity(5)
        with pytest.raises(ValueError, match="5"):
            vec_kron(comp5.H, bad, 3)


class TestDensity:
    def test_identity(self):
        assert density(SparseBinMatrix.identity(10)) == pytest.approx(0.1)

    def test_block_replication_divides_density(self):
        from productldpc import build_mscmpc

        h = build_mscmpc(81, [9, 10]).H
        replicated = kron(SparseBinMatrix.identity(100), h)
        assert density(replicated) == pytest.approx(density(h) / 100)

    def test_interleaved_expansion_density_exact(self, comp5, rng):
        pa = PermutationArray.random(12, 12, rng)
        expanded = vec_kron(comp5.H, pa.to_matrix(), 12)
        # exact count identity, not a float comparison
        assert expanded.nnz == comp5.H.nnz * 12
        assert expanded.rows * expanded.cols == comp5.H.rows * comp5.H.cols * 144

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            density(SparseBinMatrix(0, 4, []))


class TestRank:
    def test_identity(self):
        assert rank_gf2(SparseBinMatrix.identity(17)) == 17

    def test_unreduced_spc_square_is_rank_deficient(self, spc3):
        full = vstack(
            [
                kron(SparseBinMatrix.identity(4), spc3.H),
                kron(spc3.H, SparseBinMatrix.identity(4)),
            ]
        )
        assert full.rows == 8
        assert rank_gf2(full) == 7
        assert dense_rank_gf2(full.to_dense()) == 7

    def test_matches_dense_oracle(self, rng):
        for _ in range(10):
            m = random_sparse(rng, 8, 12, p=0.35)
            assert rank_gf2(m) == dense_rank_gf2(m.to_dense())

    def test_bounded_and_permutation_invariant(self, rng):
        m = random_sparse(rng, 9, 7)
        r = rank_gf2(m)
        assert r <= min(m.rows, m.cols)
        perm = rng.permutation(m.rows)
        shuffled = SparseBinMatrix(m.rows, m.cols, [m.row_support[i] for i in perm])
        assert rank_gf2(shuffled) == r


class TestSyndrome:
    def test_zero_vector(self, comp5):
        assert not syndrome(comp5.H, np.zeros(12, dtype=np.uint8)).any()

    def test_identity_passthrough(self):
        out = syndrome(SparseBinMatrix.identity(2), np.array([1, 0]))
        assert np.array_equal(out, [1, 0])

    def test_matches_dense_product(self, rng):
        m = random_sparse(rng, 6, 10)
        x = rng.integers(0, 2, 10, dtype=np.uint8)
        assert np.array_equal(syndrome(m, x), m.to_dense() @ x % 2)

    def test_length_mismatch_rejected(self, comp5):
        with pytest.raises(ValueError):
            syndrome(comp5.H, np.zeros(11, dtype=np.uint8))


class TestPermutationArray:
    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PermutationArray(3, [[0, 0, 2]])

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            PermutationArray(3, [[0, 1]])

    def test_rejects_empty_blocks(self):
        with pytest.raises(ValueError, match="^block size must be at least 1$"):
            PermutationArray(0, [])

    @pytest.mark.parametrize("perm", [[0.5, 1, 2], [0.0, 1.0, 2.0], ["0", "1", "2"]])
    def test_rejects_non_integer_entries(self, perm):
        with pytest.raises(ValueError, match="integers"):
            PermutationArray(3, [perm])

    @pytest.mark.parametrize("perms, message", [
        ([[0, 1, 2], [0, 0, 2], [0.5, 1, 2], [0, 1]], "block 1 is not a permutation"),
        ([[0, 1, 2], [0.5, 1, 2], [0, 0, 2]], "block 1 entries must be integers"),
        ([[2, 1, 0], [0, 1, 2], [0, 1], ["0", "1", "2"]], "block 2 is not a permutation"),
        ([[1, 2, 0], [[0, 1, 2]], [3, 1, 0]], "block 1 is not a permutation"),
        ([[1, 2, 0], [2, 0, 1], [0, 1, 3], [0.0, 1.0, 2.0]], "block 2 is not a permutation"),
    ])
    def test_names_the_first_bad_block(self, perms, message):
        with pytest.raises(ValueError, match=message):
            PermutationArray(3, perms)

    def test_perms_is_one_read_only_table(self):
        pa = PermutationArray(3, [[1, 2, 0], [0, 1, 2]])
        assert isinstance(pa.perms, np.ndarray)
        assert pa.perms.shape == (2, 3) and pa.perms.dtype == np.int64
        assert np.array_equal(pa.perms, [[1, 2, 0], [0, 1, 2]])
        with pytest.raises(ValueError):
            pa.perms[0, 0] = 2
        assert PermutationArray(4, []).perms.shape == (0, 4)

    def test_to_matrix_places_ones_by_row(self):
        pa = PermutationArray(3, [[1, 2, 0], [0, 1, 2]])
        dense = pa.to_matrix().to_dense()
        p1 = np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
        assert np.array_equal(dense[:, :3], p1)
        assert np.array_equal(dense[:, 3:], np.eye(3, dtype=np.uint8))

    @PROPERTY
    @given(st.data())
    def test_to_matrix_against_dense(self, data):
        n_a = data.draw(st.integers(1, 5))
        perms = data.draw(st.lists(st.permutations(range(n_a)), max_size=4))
        expected = np.zeros((n_a, n_a * len(perms)), dtype=np.uint8)
        for j, p in enumerate(perms):
            expected[np.arange(n_a), j * n_a + np.array(p)] = 1
        assert np.array_equal(PermutationArray(n_a, perms).to_matrix().to_dense(), expected)

    def test_random_is_valid(self, rng):
        pa = PermutationArray.random(9, 4, rng)
        assert len(pa) == 4
        for p in pa.perms:
            assert np.array_equal(np.sort(p), np.arange(9))


@pytest.mark.parametrize("make", [
    lambda: SparseBinMatrix(2, 3, [[0], [1, 2]]),
    lambda: PermutationArray(3, [[1, 2, 0], [0, 1, 2]]),
], ids=["matrix", "permutations"])
def test_content_equal_values_are_unhashable(make):
    # Equal by content, so an identity hash would break hash(a) == hash(b).
    a, b = make(), make()
    assert a == b
    with pytest.raises(TypeError):
        hash(a)


@pytest.mark.parametrize("cpus, items, grain, shares, pools", [
    (3, 10, 2, [[0, 3, 6, 9], [1, 4, 7], [2, 5, 8]], [2]),  # lane 0 on this thread
    (3, 4, 2, [[0, 2], [1, 3]], [1]),  # no more lanes than runs of grain items
    (8, 3, 4, [[0, 1, 2]], []),  # one lane runs inline
    (1, 10, 1, [list(range(10))], []),
])
def test_in_lanes_deals_items_round_robin(lanes, cpus, items, grain, shares, pools):
    started = lanes(cpus)
    got = _in_lanes(lambda share, count: (list(range(items))[share], count), items, grain)
    assert got == [(share, len(shares)) for share in shares]
    assert started == pools


@pytest.mark.parametrize("failing", [0, 1], ids=["calling-thread", "pool"])
def test_in_lanes_passes_a_lane_failure_on(lanes, failing):
    lanes(2)

    def task(share, count):
        if share.start == failing:
            raise MemoryError(f"lane {failing}")
        return share

    with pytest.raises(MemoryError, match=f"lane {failing}"):
        _in_lanes(task, 4, 1)
