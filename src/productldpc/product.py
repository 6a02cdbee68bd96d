"""Direct and column-interleaved product code assembly and encoding.

The parity-check matrix stacks a block-diagonal replication of the row
code's H (one block per information row of the encoding matrix, which
already yields full rank) on top of the column code's H expanded so
that its q-th copy touches, in encoding-matrix row m, the bit selected
by the m-th permutation at index q.  Without an interleaver the
expansion reduces to a plain Kronecker product with the identity.

Both codes share one layout, a track map: bit j of column-code word q
is codeword bit j*n_a + perm_j[q], with identity permutations for the
direct code.  The encoder reads and writes the column code's words
through this map alone.
"""

from __future__ import annotations

import json

import numpy as np

from .components import ComponentCode
from .gf2 import PermutationArray, SparseBinMatrix, check_int, kron, vec_kron, vstack


class ProductCode:
    """Two component codes on the rows/columns of an encoding matrix."""

    __slots__ = ("comp_a", "comp_b", "interleaver", "H", "n", "k", "_tracks")

    def __init__(
        self,
        comp_a: ComponentCode,
        comp_b: ComponentCode,
        interleaver: PermutationArray | None,
        H: SparseBinMatrix,
    ) -> None:
        self.comp_a = comp_a
        self.comp_b = comp_b
        self.interleaver = interleaver
        self.H = H
        self.n = comp_a.n * comp_b.n
        self.k = comp_a.k * comp_b.k
        perms = np.arange(comp_a.n) if interleaver is None else np.stack(interleaver.perms)
        # Entry (j, q): codeword index of bit j of column-code word q.
        self._tracks = np.arange(0, self.n, comp_a.n)[:, None] + perms

    @property
    def label(self) -> str:
        tag = "ipc" if self.interleaver is not None else "pc"
        return f"{tag}({self.comp_a.label} x {self.comp_b.label})"

    def info_positions(self) -> np.ndarray:
        """Codeword indices of the k information bits, row-major."""
        n_a, k_a, k_b = self.comp_a.n, self.comp_a.k, self.comp_b.k
        return (np.arange(k_b)[:, None] * n_a + np.arange(k_a)).ravel()

    def encode(self, info) -> np.ndarray:
        """Codeword for a k_b x k_a information block (or flat length-k).

        The information rows are encoded with the row code and written
        first; the column code then encodes the information bits of each
        track and its parity bits go back through the track map.  The
        codeword is the n_b x n_a encoding matrix read row-wise.
        """
        a, b = self.comp_a, self.comp_b
        info = np.asarray(info, dtype=np.uint8)
        if info.shape == (self.k,):
            info = info.reshape(b.k, a.k)
        if info.shape != (b.k, a.k):
            raise ValueError(
                f"info must be {b.k}x{a.k} (or flat length {self.k}), got {info.shape}"
            )
        out = np.zeros(self.n, dtype=np.uint8)
        out[: b.k * a.n] = a.encode(info).ravel()
        parity = b.encode(out[self._tracks[: b.k]].T)[:, b.k :]  # (n_a, r_b)
        out[self._tracks[b.k :]] = parity.T
        return out


def _hp1(a: ComponentCode, b: ComponentCode) -> SparseBinMatrix:
    # Full replication has one H_a block per encoding-matrix row; dropping
    # the last r_a*r_b rows (the checks-on-checks blocks) restores full rank.
    full = kron(SparseBinMatrix.identity(b.n), a.H)
    return full.take_rows(b.k * a.r)


def build_hp(a: ComponentCode, b: ComponentCode) -> ProductCode:
    """Direct product code with full-rank parity-check matrix."""
    hp2 = kron(b.H, SparseBinMatrix.identity(a.n))
    return ProductCode(a, b, None, vstack([_hp1(a, b), hp2]))


def build_hp_interleaved(
    a: ComponentCode, b: ComponentCode, perms: PermutationArray
) -> ProductCode:
    """Column-interleaved product code for a given permutation array."""
    if perms.n_a != a.n or len(perms) != b.n:
        raise ValueError(
            f"permutation array must be {b.n} blocks of size {a.n}, "
            f"got {len(perms)} of size {perms.n_a}"
        )
    hp2 = vec_kron(b.H, perms.to_matrix(), a.n)
    return ProductCode(a, b, perms, vstack([_hp1(a, b), hp2]))


def save_permutation_array(perms: PermutationArray, path, meta: dict | None = None) -> None:
    """Write a permutation array as JSON with 1-based entries."""
    doc = {
        "n_a": perms.n_a,
        "perms": [(p + 1).tolist() for p in perms.perms],
    }
    if meta:
        doc["meta"] = meta
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")


def load_permutation_array(path) -> PermutationArray:
    """Read a file written by save_permutation_array; reject any other shape."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("perms"), list):
        raise ValueError(f"{path}: expected a JSON object with a perms list")
    n_a = doc.get("n_a")
    check_int("n_a", n_a, 1)
    for j, p in enumerate(doc["perms"]):
        if not isinstance(p, list) or not all(type(v) is int and 1 <= v <= n_a for v in p):
            raise ValueError(f"{path}: block {j} must be a list of integers in 1..{n_a}")
    return PermutationArray(n_a, [np.asarray(p, dtype=np.int64) - 1 for p in doc["perms"]])
