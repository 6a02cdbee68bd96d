"""Sparse binary linear algebra over GF(2).

Parity-check matrices are stored row-sparse: for each row, the sorted
column indices of its nonzero entries.  Bit vectors cross the module
boundary as 0/1 integer arrays; any packed representation used
internally (e.g. for rank elimination) stays internal.
"""

from __future__ import annotations

import numpy as np

_IDX = np.int32


def _as_support(entries, cols: int) -> np.ndarray:
    arr = np.asarray(entries, dtype=_IDX)
    if arr.ndim != 1:
        raise ValueError("row support must be one-dimensional")
    if arr.size:
        if arr[0] < 0 or arr[-1] >= cols:
            if np.any(arr < 0) or np.any(arr >= cols):
                raise ValueError(f"column index out of range [0, {cols})")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("row support must be strictly increasing")
    arr.flags.writeable = False
    return arr


class SparseBinMatrix:
    """Binary matrix stored as per-row sorted column-index lists.

    Immutable after construction; instances may be shared freely across
    threads and worker processes.
    """

    __slots__ = ("rows", "cols", "row_support", "_csr", "_colsup")

    def __init__(self, rows: int, cols: int, row_support) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(row_support) != rows:
            raise ValueError(f"expected {rows} support lists, got {len(row_support)}")
        self.rows = int(rows)
        self.cols = int(cols)
        self.row_support = [_as_support(r, cols) for r in row_support]
        self._csr = None
        self._colsup = None

    @classmethod
    def identity(cls, n: int) -> "SparseBinMatrix":
        return cls(n, n, [[i] for i in range(n)])

    @classmethod
    def from_dense(cls, a) -> "SparseBinMatrix":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        return cls(a.shape[0], a.shape[1], [np.nonzero(row % 2)[0] for row in a])

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        for i, sup in enumerate(self.row_support):
            out[i, sup] = 1
        return out

    @property
    def nnz(self) -> int:
        return sum(len(sup) for sup in self.row_support)

    def row_weights(self) -> np.ndarray:
        return np.array([len(sup) for sup in self.row_support], dtype=np.int64)

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """(indptr, indices) arrays of the row-compressed form."""
        if self._csr is None:
            indptr = np.zeros(self.rows + 1, dtype=np.int64)
            np.cumsum(self.row_weights(), out=indptr[1:])
            indices = (
                np.concatenate(self.row_support)
                if self.rows and indptr[-1]
                else np.empty(0, dtype=_IDX)
            )
            self._csr = (indptr, indices)
        return self._csr

    def col_support(self) -> list[np.ndarray]:
        """Per-column sorted row indices (transpose of row_support)."""
        if self._colsup is None:
            indptr, indices = self.csr()
            edge_rows = np.repeat(
                np.arange(self.rows, dtype=_IDX), np.diff(indptr)
            )
            order = np.argsort(indices, kind="stable")
            sorted_cols = indices[order]
            splits = np.searchsorted(sorted_cols, np.arange(1, self.cols))
            self._colsup = [
                np.array(part, dtype=_IDX)
                for part in np.split(edge_rows[order], splits)
            ]
        return self._colsup

    def take_rows(self, count: int) -> "SparseBinMatrix":
        """First `count` rows, column count unchanged."""
        if not 0 <= count <= self.rows:
            raise ValueError(f"cannot take {count} rows from {self.rows}")
        return SparseBinMatrix(count, self.cols, self.row_support[:count])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseBinMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(
                np.array_equal(a, b)
                for a, b in zip(self.row_support, other.row_support)
            )
        )

    def __hash__(self):
        return id(self)

    def __repr__(self) -> str:
        return f"SparseBinMatrix({self.rows}x{self.cols}, nnz={self.nnz})"


def vstack(mats) -> SparseBinMatrix:
    """Stack matrices with equal column counts on top of each other."""
    mats = list(mats)
    if not mats:
        raise ValueError("need at least one matrix to stack")
    cols = mats[0].cols
    for m in mats[1:]:
        if m.cols != cols:
            raise ValueError(f"column mismatch in vstack: {m.cols} != {cols}")
    support = [sup for m in mats for sup in m.row_support]
    return SparseBinMatrix(sum(m.rows for m in mats), cols, support)


def kron(a: SparseBinMatrix, b: SparseBinMatrix) -> SparseBinMatrix:
    """Kronecker product: entry ((i*b.rows+u),(j*b.cols+v)) = a[i,j]*b[u,v]."""
    out_rows = a.rows * b.rows
    out_cols = a.cols * b.cols
    support: list = []
    for sup_a in a.row_support:
        scaled = sup_a.astype(np.int64) * b.cols
        for sup_b in b.row_support:
            if scaled.size and sup_b.size:
                support.append((scaled[:, None] + sup_b[None, :]).ravel())
            else:
                support.append(np.empty(0, dtype=_IDX))
    return SparseBinMatrix(out_rows, out_cols, support)


def vec_kron(a: SparseBinMatrix, bbar: SparseBinMatrix, w: int) -> SparseBinMatrix:
    """Column-blockwise Kronecker variant.

    `bbar` is read as `a.cols` adjacent blocks of `w` columns.  Block i of
    the result is the plain Kronecker product of a's i-th column with
    bbar's i-th block, so the output is (a.rows*bbar.rows) x bbar.cols.
    """
    if w <= 0:
        raise ValueError("block width must be positive")
    if bbar.cols != w * a.cols:
        raise ValueError(
            f"block operand has {bbar.cols} columns, expected "
            f"{w} * {a.cols} = {w * a.cols}"
        )
    # Bucket each bbar row's support by block index; supports are sorted,
    # so each bucket is sorted and concatenation over ascending blocks is too.
    boundaries = np.arange(1, a.cols, dtype=np.int64) * w
    buckets = [
        np.split(sup, np.searchsorted(sup, boundaries)) for sup in bbar.row_support
    ]
    empty = np.empty(0, dtype=_IDX)
    support = []
    for sup_a in a.row_support:
        for bu in buckets:
            parts = [bu[i] for i in sup_a]
            support.append(np.concatenate(parts) if parts else empty)
    return SparseBinMatrix(a.rows * bbar.rows, bbar.cols, support)


def density(m: SparseBinMatrix) -> float:
    """Fraction of entries equal to 1."""
    if m.rows == 0 or m.cols == 0:
        raise ValueError("density of an empty matrix is undefined")
    return m.nnz / (m.rows * m.cols)


def _packed_rows(m: SparseBinMatrix) -> list[int]:
    words = []
    nbytes = (m.cols + 7) // 8
    for sup in m.row_support:
        buf = np.zeros(nbytes * 8, dtype=np.uint8)
        buf[sup] = 1
        words.append(
            int.from_bytes(np.packbits(buf, bitorder="little").tobytes(), "little")
        )
    return words


def rank_gf2(m: SparseBinMatrix) -> int:
    """GF(2) row rank by elimination on packed bit rows."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in _packed_rows(m):
        while row:
            col = (row & -row).bit_length() - 1
            piv = pivots.get(col)
            if piv is None:
                pivots[col] = row
                rank += 1
                break
            row ^= piv
    return rank


def syndrome(m: SparseBinMatrix, x) -> np.ndarray:
    """m @ x over GF(2); x is a 0/1 vector of length m.cols."""
    x = np.asarray(x)
    if x.shape != (m.cols,):
        raise ValueError(f"vector length {x.shape} does not match {m.cols} columns")
    if m.rows == 0:
        return np.zeros(0, dtype=np.uint8)
    indptr, indices = m.csr()
    edge_rows = np.repeat(np.arange(m.rows), np.diff(indptr))
    sums = np.bincount(edge_rows, weights=x[indices].astype(np.float64), minlength=m.rows)
    return (sums.astype(np.int64) & 1).astype(np.uint8)


class PermutationArray:
    """A list of same-size permutations, one per block.

    Entries are 0-based internally; 1-based notation appears only in
    serialized form (see product.save_permutation_array).
    """

    __slots__ = ("n_a", "perms")

    def __init__(self, n_a: int, perms) -> None:
        if n_a < 1:
            raise ValueError("block size must be at least 1")
        self.n_a = int(n_a)
        self.perms = []
        for j, p in enumerate(perms):
            arr = np.asarray(p, dtype=np.int64)
            if arr.shape != (n_a,) or np.any(np.bincount(arr, minlength=n_a) != 1):
                raise ValueError(f"block {j} is not a permutation of 0..{n_a - 1}")
            arr.flags.writeable = False
            self.perms.append(arr)

    @classmethod
    def identity(cls, n_a: int, n_b: int) -> "PermutationArray":
        return cls(n_a, [np.arange(n_a)] * n_b)

    @classmethod
    def random(cls, n_a: int, n_b: int, rng: np.random.Generator) -> "PermutationArray":
        return cls(n_a, [rng.permutation(n_a) for _ in range(n_b)])

    def __len__(self) -> int:
        return len(self.perms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermutationArray):
            return NotImplemented
        return (
            self.n_a == other.n_a
            and len(self.perms) == len(other.perms)
            and all(np.array_equal(a, b) for a, b in zip(self.perms, other.perms))
        )

    def __hash__(self):
        return id(self)

    def to_matrix(self) -> SparseBinMatrix:
        """Concatenation [P_1 | P_2 | ... ]: n_a rows, n_a*len(self) columns.

        Block j has a 1 at (i, perms[j][i]).
        """
        n_a = self.n_a
        offsets = np.arange(len(self.perms), dtype=np.int64) * n_a
        support = [
            offsets + np.array([p[i] for p in self.perms])
            for i in range(n_a)
        ]
        return SparseBinMatrix(n_a, n_a * len(self.perms), support)
