"""Reader/writer for the alist sparse-matrix text format.

Layout: first line "cols rows", then "max_col_degree max_row_degree",
the per-column and per-row degree lists, and finally the 1-based index
lists, one line per column then one per row, zero-padded to the maximum
degree.  write_alist/read_alist round-trip bit-exactly.
"""

from __future__ import annotations

import numpy as np

from .gf2 import SparseBinMatrix


def write_alist(m: SparseBinMatrix, path) -> None:
    halves = (m.transpose(), m)  # the column lists, then the row lists
    degrees = [x.row_weights() for x in halves]
    lines = [f"{m.cols} {m.rows}", " ".join(str(d.max(initial=0)) for d in degrees)]
    lines += [" ".join(map(str, d.tolist())) for d in degrees]
    for x, d in zip(halves, degrees):
        padded = np.zeros((x.rows, d.max(initial=0)), dtype=np.int64)
        padded[np.arange(padded.shape[1]) < d[:, None]] = x.indices + 1
        lines += [" ".join(map(str, row)) for row in padded.tolist()]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_alist(path) -> SparseBinMatrix:
    with open(path) as fh:
        tokens = fh.read().split()
    pos = 0

    def take(count):
        nonlocal pos
        if pos + count > len(tokens):
            raise ValueError("truncated alist file")
        vals = [int(t) for t in tokens[pos : pos + count]]
        pos += count
        return vals

    cols, rows = take(2)
    max_col, max_row = take(2)
    if min(cols, rows, max_col, max_row) < 0:
        raise ValueError(
            "alist header sizes cols rows max_col max_row must be nonnegative, "
            f"got {cols} {rows} {max_col} {max_row}"
        )
    col_deg = take(cols)
    row_deg = take(rows)

    # Column index lists fully determine the matrix; the row lists are
    # read and checked for consistency.
    entries_by_row: list[list[int]] = [[] for _ in range(rows)]
    for c in range(cols):
        vals = take(max_col)
        nz = [v - 1 for v in vals if v != 0]
        if len(nz) != col_deg[c]:
            raise ValueError(f"column {c}: degree list disagrees with indices")
        for r in nz:
            if not 0 <= r < rows:
                raise ValueError(f"column {c}: row index {r + 1} out of range")
            entries_by_row[r].append(c)
    for r in range(rows):
        vals = take(max_row)
        nz = sorted(v - 1 for v in vals if v != 0)
        if nz != entries_by_row[r] or len(nz) != row_deg[r]:
            raise ValueError(f"row {r}: row and column index lists disagree")
    if pos != len(tokens):
        raise ValueError(f"{len(tokens) - pos} trailing tokens after the row lists")
    return SparseBinMatrix(rows, cols, entries_by_row)
