"""Direct and column-interleaved product code assembly and encoding.

Both codes are built from one table of permutations P_1..P_{n_b}, one
per encoding-matrix row; the direct code is the one whose every P_j is
the identity.  The parity-check matrix stacks a block-diagonal
replication of the row code's H (one block per information row of the
encoding matrix, which already yields full rank) on top of the column
code's H with entry (i, m) expanded to P_m, straight from the table: its
q-th copy touches, in encoding-matrix row m, the bit selected by P_m at
index q.

The same table gives the layout, a track map of n_a column words: bit
j of column-code word q is codeword bit j*n_a + P_j[q].  The encoder
reads and writes the column code's words through this map alone.
"""

from __future__ import annotations

import array
import json

import numpy as np

from .components import ComponentCode
from .gf2 import PermutationArray, SparseBinMatrix, check_int, kron, vec_kron, vstack


class ProductCode:
    """Two component codes on the rows/columns of an encoding matrix.

    `interleaver` is the permutation table, n_b blocks of size n_a; None
    gives the direct code, whose table is the identity.
    """

    __slots__ = ("comp_a", "comp_b", "interleaver", "H", "n", "k", "_info_tracks", "_parity_order")

    def __init__(
        self,
        comp_a: ComponentCode,
        comp_b: ComponentCode,
        interleaver: PermutationArray | None = None,
    ) -> None:
        a, b = comp_a, comp_b
        table = PermutationArray.identity(a.n, b.n) if interleaver is None else interleaver
        if table.n_a != a.n or len(table) != b.n:
            raise ValueError(
                f"permutation array must be {b.n} blocks of size {a.n}, "
                f"got {len(table)} of size {table.n_a}"
            )
        self.comp_a = a
        self.comp_b = b
        self.interleaver = interleaver
        self.n = a.n * b.n
        self.k = a.k * b.k
        # H_a checks only the k_b information rows, which the row code encodes; a
        # parity row's copy is redundant in the direct code and false in others.
        info_rows = SparseBinMatrix._from_csr(b.k, b.n, np.arange(b.k + 1), np.arange(b.k))
        hp1 = kron(info_rows, a.H)
        hp2 = vec_kron(b.H, table)
        self.H = vstack([hp1, hp2])
        # Row q of the track map: the codeword indices of column-code word q.
        # Its first k_b columns are gathered as they stand.  The parity bits
        # fill the codeword from k_b*n_a on, each index once, so the order
        # that reads them back is the one that sorts the parity tracks.
        tracks = (np.arange(0, self.n, a.n)[:, None] + table.perms).T
        self._info_tracks = np.ascontiguousarray(tracks[:, : b.k])
        self._parity_order = np.argsort(tracks[:, b.k :], axis=None)

    @property
    def label(self) -> str:
        tag = "ipc" if self.interleaver is not None else "pc"
        return f"{tag}({self.comp_a.label} x {self.comp_b.label})"

    def info_positions(self) -> np.ndarray:
        """Codeword indices of the k information bits, row-major."""
        n_a, k_a, k_b = self.comp_a.n, self.comp_a.k, self.comp_b.k
        return (np.arange(k_b)[:, None] * n_a + np.arange(k_a)).ravel()

    def encode(self, info) -> np.ndarray:
        """Encode info words along the last axis: (..., k) bits to (..., n).

        A word is the k_b x k_a information block read row-wise.  The row
        code encodes its rows, written first; the column code then encodes
        each track's information bits, and its parity bits go back through
        the track map.  The codeword is the encoding matrix read row-wise.
        """
        a, b = self.comp_a, self.comp_b
        info = np.asarray(info, dtype=np.uint8)
        if info.shape[-1:] != (self.k,):
            raise ValueError(f"expected info words of length k={self.k}, got shape {info.shape}")
        lead = info.shape[:-1]
        rows = a.encode(info.reshape(*lead, b.k, a.k)).reshape(*lead, b.k * a.n)
        words = b.encode(np.take(rows, self._info_tracks, axis=-1))  # (..., n_a, n_b)
        parity = words[..., b.k :].reshape(*lead, a.n * b.r)
        return np.concatenate([rows, np.take(parity, self._parity_order, axis=-1)], axis=-1)


def build_hp(a: ComponentCode, b: ComponentCode) -> ProductCode:
    """Direct product code with full-rank parity-check matrix."""
    return ProductCode(a, b)


def build_hp_interleaved(
    a: ComponentCode, b: ComponentCode, perms: PermutationArray
) -> ProductCode:
    """Column-interleaved product code for a given permutation array."""
    return ProductCode(a, b, perms)


def save_permutation_array(perms: PermutationArray, path, meta: dict | None = None) -> None:
    """Write a permutation array as JSON with 1-based entries."""
    doc = {
        "n_a": perms.n_a,
        "perms": (perms.perms + 1).tolist(),
    }
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_permutation_array(path) -> PermutationArray:
    """Read a file written by save_permutation_array; reject any other shape."""
    with open(path) as fh:
        text = fh.read()
    doc = json.loads(text)
    if not isinstance(doc, dict) or not isinstance(doc.get("perms"), list):
        raise ValueError(f"{path}: expected a JSON object with a perms list")
    n_a = doc.get("n_a")
    check_int("n_a", n_a, 1)
    # Refused before anything n_a long is allocated: a block of n_a entries
    # takes more characters than n_a.
    if n_a > len(text):
        raise ValueError(f"{path}: n_a = {n_a} does not fit in a file of {len(text)} characters")
    blocks = doc["perms"]
    # Checked in bulk: array.fromlist takes lists of ints only and reads a
    # bool as 0 or 1, so a True can hide only among the 1s.  A file that
    # fails is read again block by block, so the message names its first
    # bad block.
    flat = array.array("q")
    try:
        for p in blocks:
            flat.fromlist(p)
    except (TypeError, OverflowError):  # not a list, or an entry not an int in int64
        flat = None
    if flat is not None and all(len(p) == n_a for p in blocks):
        table = np.frombuffer(flat, dtype=np.int64).reshape(len(blocks), n_a)
        if (table.min(initial=1) >= 1 and table.max(initial=n_a) <= n_a
                and not any(blocks[j][q] is True for j, q in zip(*np.nonzero(table == 1)))):
            return PermutationArray(n_a, table - 1)
    for j, p in enumerate(blocks):
        if not isinstance(p, list) or not all(type(v) is int and 1 <= v <= n_a for v in p):
            raise ValueError(f"{path}: block {j} must be a list of integers in 1..{n_a}")
    return PermutationArray(n_a, [np.asarray(p, dtype=np.int64) - 1 for p in blocks])
