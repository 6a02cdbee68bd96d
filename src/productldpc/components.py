"""Systematic component codes with lower-triangular parity-check matrices.

Two families are provided: single parity-check codes and serial
concatenations of multiple-parity-check stages with pairwise distinct
moduli, plus the uncoded word space (r = 0, empty H) that serves as the
BPSK reference.  All put the redundancy at the end of the codeword, so
row i of H has its rightmost 1 at column k+i.  Back-substitution
through H, run once, gives the (k, r) parity generator; every encode is
then one GF(2) product with it.
"""

from __future__ import annotations

import numpy as np

from .gf2 import SparseBinMatrix, _bounds, check_int, parse_numbers


class ComponentCode:
    """An (n, k) systematic block code defined by a triangular H."""

    __slots__ = ("n", "k", "r", "H", "label", "_parity_gen")

    def __init__(self, n: int, k: int, H: SparseBinMatrix, label: str) -> None:
        small = f"need k >= 1 and n >= k, got n={n}, k={k}"
        check_int("k", k, 1, small=small)
        check_int("n", n, k, small=small)
        r = n - k
        if H.rows != r or H.cols != n:
            raise ValueError(f"H must be {r}x{n}, got {H.rows}x{H.cols}")
        for i, sup in enumerate(H.row_support):
            if sup.size == 0 or sup[-1] != k + i:
                raise ValueError(
                    f"row {i} must have its rightmost 1 at column {k + i}"
                )
        self.n = n
        self.k = k
        self.r = r
        self.H = H
        self.label = label
        # Row i takes in the info columns of each earlier parity row it
        # touches, reduced before it: parity bit i is then a sum of info bits.
        rows = H.to_dense()
        for i, c in zip(*np.nonzero(np.tril(rows[:, k:], -1))):
            rows[i] ^= rows[c]
        # In C order: encode's product with the transposed layout is slower.
        self._parity_gen = rows[:, :k].T.astype(np.float64, order="C")

    def info_positions(self) -> np.ndarray:
        """Codeword indices of the k information bits: the first k."""
        return np.arange(self.k)

    def encode(self, info) -> np.ndarray:
        """Encode info words along the last axis: (..., k) bits to (..., n)."""
        info = np.asarray(info, dtype=np.uint8)
        if info.shape[-1:] != (self.k,):
            raise ValueError(f"expected info words of length k={self.k}, got shape {info.shape}")
        # Exact in float64: no sum exceeds k.
        parity = (info @ self._parity_gen).astype(np.int64) & 1
        return np.concatenate([info, parity.astype(np.uint8)], axis=-1)

    def __repr__(self) -> str:
        return f"ComponentCode({self.label}: n={self.n}, k={self.k})"


def build_uncoded(n: int) -> ComponentCode:
    """The (n, n) word space: no parity bits, and encode is the identity."""
    check_int("n", n, 1)
    return ComponentCode(n, n, SparseBinMatrix(0, n, []), f"uncoded:{n}")


def build_spc(k: int) -> ComponentCode:
    """Single parity-check code (k+1, k): H is one all-ones row."""
    check_int("k", k, 1, small="SPC needs k >= 1")
    H = SparseBinMatrix(1, k + 1, [np.arange(k + 1)])
    return ComponentCode(k + 1, k, H, f"spc:{k}")


def _violates_row_column_constraint(H: SparseBinMatrix) -> bool:
    """True if some pair of rows shares more than one column (a 4-cycle)."""
    # Gram entry (x, y) counts the columns rows x and y share; int64
    # cannot overflow, as no count exceeds H.cols.
    dense = H.to_dense().astype(np.int64)
    shared = dense @ dense.T
    np.fill_diagonal(shared, 0)
    return bool((shared > 1).any())


def build_mscmpc(k: int, r_list) -> ComponentCode:
    """Serial concatenation of multiple-parity-check stages.

    Stage j sees the length-L_j output of the previous stage (L_1 = k)
    and appends r_j parity bits; parity p is the XOR of the stage input
    bits at positions congruent to p modulo r_j.  The moduli must be
    pairwise distinct, and the resulting matrix is checked for the
    row-column constraint: short stage moduli relative to the running
    length can still align two rows on two columns, which would drop
    the girth to 4, so such parameter sets are rejected.
    """
    r_list = list(r_list)
    check_int("k", k, 1, small="need k >= 1")
    if not r_list:
        raise ValueError("need at least one parity stage")
    for r in r_list:
        check_int("stage redundancy", r, 2, small="every stage redundancy must be >= 2")
    r_list = [int(r) for r in r_list]
    if len(set(r_list)) != len(r_list):
        raise ValueError("stage redundancies must be pairwise distinct")
    n = k + sum(r_list)
    # Row p of a stage holds the stage input's columns p, p + r_j, ... below
    # the stage's start, then its parity column start + p: increasing, so
    # the rows go straight into CSR.
    rows, start = [], k
    for r_j in r_list:
        rows += [[*range(p, start, r_j), start + p] for p in range(r_j)]
        start += r_j
    H = SparseBinMatrix._from_csr(n - k, n, _bounds([len(row) for row in rows]), np.concatenate(rows))
    if _violates_row_column_constraint(H):
        raise ValueError(
            f"k={k}, stages {r_list} put two parity rows on two shared "
            "columns (girth 4); pick larger or coprime stage moduli"
        )
    label = f"mscmpc:{k}:{','.join(str(r) for r in r_list)}"
    return ComponentCode(n, k, H, label)


def _count(token: str) -> int:
    """A count read under gf2.parse_numbers' rule for integers."""
    return parse_numbers([token], int, "{!r} is not a count")[0]


def parse_component_spec(text: str) -> ComponentCode:
    """Build a component from its textual form.

    Grammar: ``spc:k`` or ``mscmpc:k:r1,r2,...``, every number in ASCII
    digits.
    """
    parts = text.strip().split(":")
    try:
        if parts[0] == "spc" and len(parts) == 2:
            return build_spc(_count(parts[1]))
        if parts[0] == "mscmpc" and len(parts) == 3:
            r_list = [_count(tok) for tok in parts[2].split(",") if tok]
            return build_mscmpc(_count(parts[1]), r_list)
    except ValueError as exc:
        raise ValueError(f"invalid component spec {text!r}: {exc}") from exc
    raise ValueError(
        f"invalid component spec {text!r} (use spc:k or mscmpc:k:r1,r2,...)"
    )
