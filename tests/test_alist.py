import hashlib
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from productldpc import SparseBinMatrix, build_hp, build_hp_interleaved, build_mscmpc
from productldpc.alist import read_alist, write_alist
from productldpc.product import load_permutation_array

DATA = Path(__file__).resolve().parents[1] / "bench" / "data"


def test_round_trip_small(tmp_path, rng):
    m = SparseBinMatrix.from_dense((rng.random((7, 13)) < 0.3).astype(int))
    path = tmp_path / "m.alist"
    write_alist(m, path)
    assert read_alist(path) == m


def test_round_trip_with_empty_rows_and_columns(tmp_path):
    m = SparseBinMatrix(3, 4, [[0, 2], [], [2]])  # column 1 and 3 empty, row 1 empty
    path = tmp_path / "m.alist"
    write_alist(m, path)
    assert read_alist(path) == m


def test_written_text_is_stable(tmp_path):
    m = build_mscmpc(5, [3, 4]).H
    p1 = tmp_path / "a.alist"
    p2 = tmp_path / "b.alist"
    write_alist(m, p1)
    write_alist(read_alist(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_header_is_cols_then_rows(tmp_path):
    m = build_mscmpc(5, [3, 4]).H  # 7 x 12
    path = tmp_path / "m.alist"
    write_alist(m, path)
    first = path.read_text().splitlines()[0]
    assert first == "12 7"


def test_indices_are_one_based_and_padded(tmp_path):
    m = SparseBinMatrix(2, 2, [[0], [0, 1]])
    path = tmp_path / "m.alist"
    write_alist(m, path)
    lines = path.read_text().splitlines()
    # columns: col 0 hits rows 1,2; col 1 hits row 2 padded with 0
    assert lines[4] == "1 2"
    assert lines[5] == "2 0"


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "bad.alist"
    path.write_text("4 2\n2 2\n1 1 1 1\n")
    with pytest.raises(ValueError):
        read_alist(path)


@pytest.mark.parametrize("text", [
    "2 1\n-1 0\n0 0\n0\n",
    "-2 1\n1 1\n",
    "2 -1\n1 1\n",
    "2 1\n1 -3\n1 1\n1\n",
], ids=["max_col", "cols", "rows", "max_row"])
def test_negative_header_sizes_rejected(tmp_path, text):
    path = tmp_path / "bad.alist"
    path.write_text(text)
    with pytest.raises(ValueError, match="cols rows max_col max_row must be nonnegative"):
        read_alist(path)


# One row over eleven columns: "11" is the column count (token 0), the
# row's degree (token 15) and the row's last index (the last token).
ELEVEN = SparseBinMatrix(1, 11, [list(range(11))])


@pytest.mark.parametrize("at", ["header", "degree", "index"])
@pytest.mark.parametrize("token", ["1_1", "+11", "\uff11\uff11", "\u0661\u0661"],
                         ids=["separator", "plus", "full-width", "arabic-indic"])
def test_integers_other_than_ascii_digits_rejected(tmp_path, token, at):
    # int() reads each of these tokens as 11, which would give ELEVEN back.
    path = tmp_path / "m.alist"
    write_alist(ELEVEN, path)
    tokens = path.read_text().split()
    where = {"header": 0, "degree": 15, "index": -1}[at]
    assert tokens[where] == "11"
    tokens[where] = token
    path.write_text(" ".join(tokens) + "\n")
    message = f"alist token {token!r} is not an integer"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_alist(path)


@pytest.fixture(scope="module")
def written(tmp_path_factory):
    """The alist tokens of a few small matrices, with a file to write to."""
    folder = tmp_path_factory.mktemp("alist")
    tokens = []
    for m in (build_mscmpc(5, [3, 4]).H, ELEVEN, SparseBinMatrix(3, 4, [[0, 2], [], [2]]),
              SparseBinMatrix(0, 3, []), SparseBinMatrix(3, 0, [[], [], []])):
        write_alist(m, folder / "m.alist")
        tokens.append((m, (folder / "m.alist").read_text().split()))
    return folder / "swapped.alist", tokens


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_a_swapped_token_reads_the_same_matrix_or_raises_value_error(written, data):
    path, matrices = written
    m, tokens = data.draw(st.sampled_from(matrices))
    tokens = list(tokens)
    where = data.draw(st.integers(0, len(tokens) - 1))
    text = tokens[where] = data.draw(st.one_of(
        st.text(),
        st.from_regex(r"[-+ _0-9\uff10-\uff19\u0660-\u0669]{0,4}", fullmatch=True),
        st.integers(-2, 13).map(str),
        st.integers(10**18, 10**30).map(str),
    ))
    path.write_text(" ".join(tokens) + "\n")
    if text.split() == [text] and not re.fullmatch(r"-?[0-9]+", text):
        # One token outside the rule, and the only one in the file.
        message = f"alist token {text!r} is not an integer"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            read_alist(path)
        return
    try:
        got = read_alist(path)
    except ValueError:
        return
    assert got == m


def test_inconsistent_lists_rejected(tmp_path):
    m = SparseBinMatrix(2, 2, [[0], [1]])
    path = tmp_path / "m.alist"
    write_alist(m, path)
    text = path.read_text().splitlines()
    text[-1] = "1"  # row 1 now claims column 1, columns say column 2
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError):
        read_alist(path)


# SHA-256 of the alist text each product construction wrote when these
# pins were recorded; any change to the matrix or its text format shows.
@pytest.mark.parametrize("k, stages, perms, digest", [
    (5, [3, 4], None,
     "58e8b42507b8026075d6601ead0476f8a682a5a561d32988623b9cf82088168b"),
    (5, [3, 4], "perms_mscmpc5_seed1.json",
     "cb6a42a349560515fcb1d07655414c257c19d719e8d6101d18ac23b9847e37d2"),
    (81, [9, 10], None,
     "9d97874461dc063cb7b14614f6d1583c0d9d1748de4937db0e4241c44c5d7c61"),
    (81, [9, 10], "perms_mscmpc81_seed1.json",
     "b0223e572470f14d5b590a0b3890b8fe0c554e12ce2908480c73c84c2a93c230"),
], ids=["direct-144", "interleaved-144", "direct-10000", "interleaved-10000"])
def test_product_alist_bytes_are_pinned(tmp_path, k, stages, perms, digest):
    comp = build_mscmpc(k, stages)
    if perms is None:
        code = build_hp(comp, comp)
    else:
        code = build_hp_interleaved(comp, comp, load_permutation_array(DATA / perms))
    path = tmp_path / "h.alist"
    write_alist(code.H, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


# SHA-256 of the alist text of matrices with no rows, no columns, or
# empty rows and columns; each must also read back unchanged.
@pytest.mark.parametrize("m, digest", [
    (SparseBinMatrix(0, 3, []),
     "9c1eeca2fa210b4c5cab142a41e167e244da27f927efde60174ae1778ef117ef"),
    (SparseBinMatrix(3, 0, [[], [], []]),
     "a2da7291dad0446ac4673454cab955d23bae4cf6a18af672684cef519e7a7e2a"),
    (SparseBinMatrix(0, 0, []),
     "22dfb13c9ef09c69d8f19bd1f6468cd2de4b07c7dc7375bdeb43b17f644c00d2"),
    (SparseBinMatrix(3, 4, [[0, 2], [], [2]]),
     "16057a5f54fb1d1828dc17d2a7f6c467abfce80f01d55271534ab703df97fced"),
], ids=["0x3", "3x0", "0x0", "empty-rows-and-columns"])
def test_edge_shape_alist_bytes_are_pinned(tmp_path, m, digest):
    path = tmp_path / "m.alist"
    write_alist(m, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest
    assert read_alist(path) == m
