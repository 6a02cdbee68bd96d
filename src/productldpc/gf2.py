"""Sparse binary linear algebra over GF(2).

Parity-check matrices are stored in compressed sparse row (CSR) form:
row i's nonzero columns are ``indices[indptr[i]:indptr[i + 1]]``, in
strictly increasing order, and ``transpose()`` reads a matrix by
columns.  A result whose rows come out sorted is written straight into
CSR: ``vstack`` offsets and joins its operands' arrays, and
``from_dense`` takes ``np.nonzero``'s row-major order as it comes.
``transpose`` and ``kron`` place their entries by one stable sort on the
output row.  For kron(E, H_a) in product.py, whose E holds one entry
per row, the rows come already in order and the sort is linear.
``PermutationArray`` sorts each block to check it.  ``vec_kron``, whose
second operand is a table of permutations, does not sort: a row of a
with w entries gives w interleaved runs, which a stable sort merges in
N log w, so it works out each entry's CSR slot from a's row pointers
and writes it with one scatter, in linear time.  By a sort it took
1.9 ms against 1.4 ms on mscmpc:169:13,14 squared and 54-59 ms against
38-43 ms on mscmpc:961:31,32 squared (2 cores).  Bit vectors cross the
module boundary as 0/1 integer arrays; any packed representation (e.g.
for rank elimination) stays internal.

The module imports nothing from the package, so it is also the home of
what every layer shares: ``check_int``, the count check applied to
inputs, ``parse_numbers``, the one rule for numbers read from text,
``_cpus``, the usable CPU count, and ``_in_lanes``, which splits
independent work over the CPUs.
"""

from __future__ import annotations

import numbers
import os
import re
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_IDX = np.int32


def check_int(name: str, value, minimum: int, small: str | None = None) -> None:
    """Reject a count that is below `minimum`, a bool, or not an integer.

    Only a real number, bools aside, is compared, so a number below
    `minimum` is too small even when it is not whole, and anything else
    is refused by type, never by a raw TypeError.  A too-small count is
    reported as `small` when the caller gives its own message.
    """
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and value < minimum:
        raise ValueError(small or f"{name} must be at least {minimum}, got {value}")
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def parse_numbers(tokens: list[str], kind: type, message: str) -> list:
    """[kind(t) for t in tokens], kind being int or float, under one rule.

    An integer read from text is ASCII ``-?[0-9]+``.  A real is whatever
    float() reads from an ASCII token with no "_", so "inf", "nan",
    "1e-3" and "+1.5" parse and finiteness stays the caller's check, and
    a word float() cannot read keeps float()'s own error.  int() and
    float() alone would also read "1_0" and other scripts' digits, such
    as "１" or "١", and int() would read "+1" and " 1".  The first token
    outside the rule raises ValueError(message.format(token)).

    One quick test covers the whole list at less than the cost of its
    int() calls: it passes ASCII digits alone, and every list of reals
    that fits, since a real's test is one of characters.  A list it
    does not pass, such as one holding a negative integer, is tested
    token by token.
    """
    text = "".join(tokens)
    quick = all(map(str.isdigit, tokens)) if kind is int else "_" not in text
    if not (text.isascii() and quick):
        for t in tokens:
            if not (re.fullmatch(r"-?[0-9]+", t) if kind is int else t.isascii() and "_" not in t):
                raise ValueError(message.format(t))
    return list(map(kind, tokens))


def _cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_lanes(task, items: int, grain: int) -> list:
    """[task(share, run) for each lane], in lane order.

    A lane is one thread that takes a round-robin share of independent
    work: range(items) is dealt out to one lane per usable CPU but to no
    more lanes than there are runs of `grain` items, lane i taking the
    items slice(i, None, lanes).  Each lane works its share in runs of
    ceil(grain / lanes) items, so the lanes' runs together hold what one
    serial run of `grain` holds.  Lane 0 runs on the calling thread and
    the others on a pool of threads, which numpy's bulk operations let
    overlap; with one lane no pool starts.
    """
    lanes = max(1, min(_cpus(), -(-items // grain)))
    run = -(-grain // lanes)
    if lanes == 1:
        return [task(slice(None), run)]
    with ThreadPoolExecutor(lanes - 1) as pool:
        rest = [pool.submit(task, slice(lane, None, lanes), run) for lane in range(1, lanes)]
        return [task(slice(0, None, lanes), run)] + [lane.result() for lane in rest]


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
        check_int("rows", rows, 0, small="matrix dimensions must be nonnegative")
        check_int("cols", cols, 0, small="matrix dimensions must be nonnegative")
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
        indptr = _bounds([sup.size for sup in supports])
        # Row-major positions increase strictly iff every row's support does.
        if np.any(np.diff(_row_ids(indptr) * cols + c) <= 0):
            raise ValueError("row support must be strictly increasing")
        self._keep(int(rows), int(cols), indptr, c)

    def _keep(self, rows: int, cols: int, indptr, indices) -> None:
        """Hold CSR arrays whose rows are already sorted and distinct, read-only."""
        self.rows = rows
        self.cols = cols
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=_IDX)
        self.indptr.flags.writeable = False
        self.indices.flags.writeable = False

    @classmethod
    def _from_csr(cls, rows: int, cols: int, indptr, indices) -> "SparseBinMatrix":
        """Matrix over CSR arrays whose rows are already sorted and distinct."""
        m = cls.__new__(cls)
        m._keep(rows, cols, indptr, indices)
        return m

    @classmethod
    def identity(cls, n: int) -> "SparseBinMatrix":
        return cls._from_csr(n, n, np.arange(n + 1), np.arange(n))

    @classmethod
    def from_dense(cls, a) -> "SparseBinMatrix":
        """The matrix of a's odd entries, written into CSR without a sort:
        np.nonzero yields them row by row, each row's columns ascending."""
        a = np.asarray(a)
        if a.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        if a.dtype.kind not in "biu":
            raise ValueError(f"dense input must be bool or integer, got {a.dtype}")
        odd = a % 2
        return cls._from_csr(*a.shape, _bounds(np.count_nonzero(odd, axis=1)), np.nonzero(odd)[1])

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
        """The matrix by columns: row j of the result is column j.

        A stable sort of the entries on their column keeps each column's
        rows in increasing order.
        """
        # Stable sorting is linear on sorted runs, which CSR order is full of.
        order = np.argsort(self.indices, kind="stable")
        indptr = _bounds(np.bincount(self.indices, minlength=self.cols))
        return self._from_csr(self.cols, self.rows, indptr, _row_ids(self.indptr)[order])

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
    # Each operand's rows follow the last one's entries: its indptr moves up
    # by the entries above it, and its sorted rows stand as they are.
    first = _bounds([m.nnz for m in mats])
    indptr = np.concatenate([m.indptr[:-1] + off for m, off in zip(mats, first)] + [first[-1:]])
    indices = np.concatenate([m.indices for m in mats])
    return SparseBinMatrix._from_csr(sum(m.rows for m in mats), cols, indptr, indices)


def kron(a: SparseBinMatrix, b: SparseBinMatrix) -> SparseBinMatrix:
    """Kronecker product: entry ((i*b.rows+u),(j*b.cols+v)) = a[i,j]*b[u,v]."""
    # The pairs come in a's entry order, each with b's entries in CSR order,
    # so a stable sort on the output row keeps every row's columns ascending.
    rows = np.add.outer(_row_ids(a.indptr) * b.rows, _row_ids(b.indptr)).ravel()
    cols = np.add.outer(a.indices * b.cols, b.indices).ravel()
    indptr = _bounds(np.multiply.outer(np.diff(a.indptr), np.diff(b.indptr)).ravel())
    order = np.argsort(rows, kind="stable")
    return SparseBinMatrix._from_csr(a.rows * b.rows, a.cols * b.cols, indptr, cols[order])


def vec_kron(a: SparseBinMatrix, table: PermutationArray) -> SparseBinMatrix:
    """a with entry (u, j) expanded to the permutation matrix of table block j.

    Block j is the n_a x n_a matrix P_j with a 1 at (i, perms[j][i]).  The
    result is (a.rows*n_a) x (a.cols*n_a), and row (u, i) holds
    j*n_a + perms[j][i] for each j in row u of a.
    """
    n_a = table.n_a
    if len(table) != a.cols:
        raise ValueError(
            f"permutation table has {len(table)} blocks, expected one per column of a: {a.cols}"
        )
    wa = np.diff(a.indptr)
    first = np.repeat(a.indptr[:-1], wa)  # where each entry's row of a starts
    # Row (u, i) holds wa[u] entries from a.indptr[u] * n_a + i * wa[u] on,
    # one per entry of a's row u and in its order, so ascending in j and
    # sorted as written: a's entry e, t-th in its row, is the t-th.
    slot = np.repeat(wa, wa)[:, None] * np.arange(n_a)
    slot += (first * n_a + np.arange(a.nnz) - first)[:, None]
    j = a.indices.astype(np.int64)
    indices = np.empty(a.nnz * n_a, dtype=_IDX)
    indices[slot] = table.perms[j] + (j * n_a)[:, None]
    indptr = _bounds(np.repeat(wa, n_a))
    return SparseBinMatrix._from_csr(a.rows * n_a, a.cols * n_a, indptr, indices)


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
        check_int("block size", n_a, 1, small="block size must be at least 1")
        self.n_a = n_a = int(n_a)
        # An integer table of n_a columns is taken whole.  Otherwise a block
        # of the wrong shape or kind enters the table as a row of -1s, so the
        # one sort below finds every bad block in block order.
        if isinstance(perms, np.ndarray) and perms.dtype.kind in "iu" and perms.shape[1:] == (n_a,):
            blocks = table = perms.astype(np.int64)
        else:
            blocks = [np.asarray(p) for p in perms]
            table = np.array(
                [b if b.shape == (n_a,) and b.dtype.kind in "iu" else np.full(n_a, -1)
                 for b in blocks],
                dtype=np.int64,
            ).reshape(len(blocks), n_a)
        # A block is a permutation iff its sorted entries are 0..n_a-1.
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
        n_a = cls(n_a, []).n_a  # the block size, checked before the count
        check_int("block count", n_b, 0)
        return cls(n_a, np.tile(np.arange(n_a), (n_b, 1)))

    @classmethod
    def random(cls, n_a: int, n_b: int, rng: np.random.Generator) -> "PermutationArray":
        return cls(n_a, [rng.permutation(n_a) for _ in range(n_b)])

    def __len__(self) -> int:
        return len(self.perms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PermutationArray):
            return NotImplemented
        return self.n_a == other.n_a and np.array_equal(self.perms, other.perms)
