"""Sparse binary linear algebra over GF(2).

Parity-check matrices are stored in compressed sparse row (CSR) form:
row i's nonzero columns are ``indices[indptr[i]:indptr[i + 1]]``, in
strictly increasing order, and ``transpose()`` reads a matrix by
columns.  Bit vectors cross the module boundary as 0/1 integer arrays;
any packed representation (e.g. for rank elimination) stays internal.

The module imports nothing from the package, so it is also the home of
what every layer shares: ``check_int``, the count check applied to
inputs, and ``_in_lanes``, which splits independent work over the CPUs.
"""

from __future__ import annotations

import numbers
import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_IDX = np.int32


def check_int(name: str, value, minimum: int) -> None:
    """Reject a count that is a bool, not an integer, or below `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value}")


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_lanes(task, items: int, grain: int) -> list:
    """[task(share, lanes) for each lane], in lane order.

    range(items) is dealt out round robin, lane i taking the items
    slice(i, None, lanes), to one lane per usable CPU but to no more
    lanes than there are runs of `grain` items.  Lane 0 runs on the
    calling thread and the others on a pool of threads, which numpy's
    bulk operations let overlap; with one lane no pool starts.
    """
    lanes = max(1, min(_cpus(), -(-items // grain)))
    if lanes == 1:
        return [task(slice(None), 1)]
    with ThreadPoolExecutor(lanes - 1) as pool:
        rest = [pool.submit(task, slice(lane, None, lanes), lanes) for lane in range(1, lanes)]
        return [task(slice(0, None, lanes), lanes)] + [lane.result() for lane in rest]


def _row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry, in storage order."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.int64), np.diff(indptr))


def _bounds(counts) -> np.ndarray:
    """Segment boundaries [0, c0, c0 + c1, ...] of consecutive counts."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


class SparseBinMatrix:
    """Binary matrix in CSR form: ``indptr`` (int64) and ``indices`` (int32).

    Both arrays are validated once, when the matrix is built, and are
    read-only; instances may be shared freely across threads and worker
    processes.
    """

    __slots__ = ("rows", "cols", "indptr", "indices")

    def __init__(self, rows: int, cols: int, row_support) -> None:
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(row_support) != rows:
            raise ValueError(f"expected {rows} support lists, got {len(row_support)}")
        supports = [np.asarray(r) for r in row_support]
        if any(sup.ndim != 1 for sup in supports):
            raise ValueError("row support must be one-dimensional")
        if any(sup.size and sup.dtype.kind not in "iu" for sup in supports):
            raise ValueError("row support entries must be integers")
        # Range-checked at 64 bits, so no index wraps into range.
        supports = [np.asarray(sup, dtype=np.int64) for sup in supports]
        c = np.concatenate([np.empty(0, dtype=np.int64), *supports])
        if c.size and (c.min() < 0 or c.max() >= cols):
            raise ValueError(f"column index out of range [0, {cols})")
        # Row-major positions increase strictly iff every row's support does.
        pos = _row_ids(_bounds([sup.size for sup in supports])) * cols + c
        if np.any(np.diff(pos) <= 0):
            raise ValueError("row support must be strictly increasing")
        self._store(int(rows), int(cols), pos)

    def _store(self, rows: int, cols: int, pos: np.ndarray) -> None:
        """Keep the entries at sorted, distinct row-major positions row*cols + col."""
        self.rows = rows
        self.cols = cols
        self.indptr = _bounds(np.bincount(pos // cols, minlength=rows))
        self.indices = (pos % cols).astype(_IDX)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @classmethod
    def _from_coords(cls, rows: int, cols: int, r, c) -> "SparseBinMatrix":
        """Matrix with a 1 at each (r[t], c[t]): distinct, in any order."""
        m = cls.__new__(cls)
        # Stable is linear on the sorted runs that kron, vec_kron and vstack pass.
        m._store(rows, cols, np.sort(np.asarray(r, dtype=np.int64) * cols + c, kind="stable"))
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseBinMatrix":
        return cls._from_coords(n, n, np.arange(n), np.arange(n))

    @classmethod
    def from_dense(cls, a) -> "SparseBinMatrix":
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        return cls._from_coords(a.shape[0], a.shape[1], *np.nonzero(a % 2))

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.rows, self.cols), dtype=np.uint8)
        out[_row_ids(self.indptr), self.indices] = 1
        return out

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    @property
    def row_support(self) -> list[np.ndarray]:
        """Per-row sorted column indices, as read-only views of ``indices``."""
        bounds = self.indptr.tolist()
        return [self.indices[lo:hi] for lo, hi in zip(bounds, bounds[1:])]

    def row_weights(self) -> np.ndarray:
        return np.diff(self.indptr)

    def transpose(self) -> "SparseBinMatrix":
        """The matrix by columns: row j of the result is column j."""
        return self._from_coords(self.cols, self.rows, self.indices, _row_ids(self.indptr))

    def col_support(self) -> list[np.ndarray]:
        """Per-column sorted row indices: the row supports of the transpose."""
        return self.transpose().row_support

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseBinMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
        )

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
    first = _bounds([m.rows for m in mats])
    r = np.concatenate([_row_ids(m.indptr) + off for m, off in zip(mats, first)])
    c = np.concatenate([m.indices for m in mats])
    return SparseBinMatrix._from_coords(int(first[-1]), cols, r, c)


def kron(a: SparseBinMatrix, b: SparseBinMatrix) -> SparseBinMatrix:
    """Kronecker product: entry ((i*b.rows+u),(j*b.cols+v)) = a[i,j]*b[u,v]."""
    r = _row_ids(a.indptr)[:, None] * b.rows + _row_ids(b.indptr)
    c = a.indices.astype(np.int64)[:, None] * b.cols + b.indices
    rows, cols = a.rows * b.rows, a.cols * b.cols
    return SparseBinMatrix._from_coords(rows, cols, r.ravel(), c.ravel())


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
    # bbar's entries grouped by block, block j holding [lo[j], lo[j + 1]).
    block = bbar.indices // w
    order = np.argsort(block, kind="stable")
    lo = _bounds(np.bincount(block, minlength=a.cols))
    # Pair each entry (i, j) of a with every bbar entry (u, c) of block j.
    count = np.diff(lo)[a.indices]
    a_of = np.repeat(np.arange(a.nnz), count)
    skip = _bounds(count)[:-1] - lo[a.indices]
    b_of = order[np.arange(a_of.size) - np.repeat(skip, count)]
    r = _row_ids(a.indptr)[a_of] * bbar.rows + _row_ids(bbar.indptr)[b_of]
    c = bbar.indices[b_of]
    return SparseBinMatrix._from_coords(a.rows * bbar.rows, bbar.cols, r, c)


def density(m: SparseBinMatrix) -> float:
    """Fraction of entries equal to 1."""
    if m.rows == 0 or m.cols == 0:
        raise ValueError("density of an empty matrix is undefined")
    return m.nnz / (m.rows * m.cols)


def _packed_rows(m: SparseBinMatrix) -> list[int]:
    packed = np.packbits(m.to_dense(), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


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
    sums = np.bincount(
        _row_ids(m.indptr), weights=x[m.indices].astype(np.float64), minlength=m.rows
    )
    return (sums.astype(np.int64) & 1).astype(np.uint8)


class PermutationArray:
    """Same-size permutations, one per block, held as one table.

    ``perms`` is a read-only int64 array of shape (blocks, n_a) whose row
    j is block j's permutation.  Entries are 0-based internally; 1-based
    notation appears only in serialized form (see
    product.save_permutation_array).
    """

    __slots__ = ("n_a", "perms")

    def __init__(self, n_a: int, perms) -> None:
        if n_a < 1:
            raise ValueError("block size must be at least 1")
        self.n_a = n_a = int(n_a)
        blocks = [np.asarray(p) for p in perms]
        # A block of the wrong shape or kind enters the table as a row of
        # -1s, so the one sort below finds every bad block in block order.
        table = np.array(
            [b if b.shape == (n_a,) and b.dtype.kind in "iu" else np.full(n_a, -1)
             for b in blocks],
            dtype=np.int64,
        ).reshape(len(blocks), n_a)
        bad = np.flatnonzero((np.sort(table, axis=1) != np.arange(n_a)).any(axis=1))
        if bad.size:
            j = int(bad[0])
            if blocks[j].size and blocks[j].dtype.kind not in "iu":
                raise ValueError(f"block {j} entries must be integers")
            raise ValueError(f"block {j} is not a permutation of 0..{n_a - 1}")
        table.flags.writeable = False
        self.perms = table

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
        return self.n_a == other.n_a and np.array_equal(self.perms, other.perms)

    def to_matrix(self) -> SparseBinMatrix:
        """Concatenation [P_1 | P_2 | ... ]: n_a rows, n_a*len(self) columns.

        Block j has a 1 at (i, perms[j][i]).
        """
        n_a = self.n_a
        k = np.arange(self.perms.size)  # entry k: row k % n_a of block k // n_a
        return SparseBinMatrix._from_coords(n_a, k.size, k % n_a, k - k % n_a + self.perms.ravel())
