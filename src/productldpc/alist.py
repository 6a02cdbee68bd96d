"""Reader/writer for the alist sparse-matrix text format.

Layout: first line "cols rows", then "max_col_degree max_row_degree",
the per-column and per-row degree lists, and finally the 1-based index
lists, one line per column then one per row, zero-padded to the maximum
degree.  write_alist/read_alist round-trip bit-exactly.

Every token is an integer in ASCII digits, ``-?[0-9]+``, by the rule
``gf2.parse_numbers`` applies to every number read from text: component
specs, spectrum JSON weights, alist files, and Eb/N0 and LLR lists,
whose reals are what float() reads from ASCII with no "_".  A token
int() alone would read, such as "1_1", "+11" or "１１", is refused by
name.  The reader checks every token first, then that the file holds
the lists the header's sizes call for, then the lists themselves, and
reports tokens past the row lists last.
"""

from __future__ import annotations

import numpy as np

from .gf2 import SparseBinMatrix, parse_numbers


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
        vals = parse_numbers(fh.read().split(), int, "alist token {!r} is not an integer")
    if len(vals) < 4:
        raise ValueError("truncated alist file")
    cols, rows, max_col, max_row = vals[:4]
    if min(cols, rows, max_col, max_row) < 0:
        raise ValueError(
            "alist header sizes cols rows max_col max_row must be nonnegative, "
            f"got {cols} {rows} {max_col} {max_row}"
        )
    # After the header come the column degrees, the row degrees, the
    # column lists from col_at and the row lists from row_at.
    col_at = 4 + cols + rows
    row_at = col_at + cols * max_col
    end = row_at + rows * max_row
    if end > len(vals):
        raise ValueError("truncated alist file")

    # Column index lists fully determine the matrix; the row lists are
    # read and checked for consistency.
    entries_by_row: list[list[int]] = [[] for _ in range(rows)]
    for c in range(cols):
        at = col_at + c * max_col
        nz = [v - 1 for v in vals[at : at + max_col] if v != 0]
        if len(nz) != vals[4 + c]:
            raise ValueError(f"column {c}: degree list disagrees with indices")
        for r in nz:
            if not 0 <= r < rows:
                raise ValueError(f"column {c}: row index {r + 1} out of range")
            entries_by_row[r].append(c)
    for r in range(rows):
        at = row_at + r * max_row
        nz = sorted(v - 1 for v in vals[at : at + max_row] if v != 0)
        if nz != entries_by_row[r] or len(nz) != vals[4 + cols + r]:
            raise ValueError(f"row {r}: row and column index lists disagree")
    if end != len(vals):
        raise ValueError(f"{len(vals) - end} trailing tokens after the row lists")
    return SparseBinMatrix(rows, cols, entries_by_row)
