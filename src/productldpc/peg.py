"""Interleaver design by progressive edge growth, plus girth measurement.

The permutation array is grown block column by block column.  Placing
row u of block j's permutation at column t ties the fresh variable of
that block/column to a fixed group of column-code checks; the greedy
picks the t whose new edges close the longest possible cycle, measured
by breadth-first distances in the partially built Tanner graph (row-code
checks are present from the start).  Ties are broken uniformly at
random from a seeded generator, so equal seeds reproduce equal arrays.

Both the design and the girth measurement run one labelled BFS, each
stopping at the depth it reads.  The girth of a variable is 2 plus the
least distance between two of its checks in the graph without it, so
that search stops as soon as that distance is exact.  A design
candidate t scores min(pair_meet + 2, dist(t) + 1), where pair_meet is
the least distance between two of the new edges' checks; once the
search has reached depth pair_meet, any candidate not yet reached would
score at least pair_meet + 2 anyway, so it stops there (the
depth-limited search of Hu, Eleftheriou and Arnold, IEEE Trans. IT
2005).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import ComponentCode
from .gf2 import PermutationArray, SparseBinMatrix


@dataclass
class GirthReport:
    """Shortest-cycle statistics of a Tanner graph.

    Lengths are counted in edges and are infinite where no cycle passes
    through a variable node.  global_girth is the minimum local girth.
    """

    global_girth: float
    per_variable_local_girth: np.ndarray
    histogram: dict


def _gather(indptr, indices, fill, frontier):
    """All filled neighbor slots of the frontier, with per-edge source index."""
    counts = fill[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=indices.dtype), np.empty(0, dtype=np.int64)
    cum = np.cumsum(counts)
    within = np.arange(total, dtype=np.int64) - np.repeat(cum - counts, counts)
    flat = np.repeat(indptr[frontier], counts) + within
    src = np.repeat(np.arange(len(frontier), dtype=np.int64), counts)
    return indices[flat], src


def _labelled_bfs(indptr, indices, fill, n_nodes, sources, skip, span):
    """BFS distances from `sources`, plus the least distance between two.

    Level-synchronized BFS in which each source propagates its own
    label; a meeting of two labels closes a path between two distinct
    sources.  Node `skip` is never entered (-1 skips nothing).  The
    search stops at the first level L with ``pair_meet <= span * L``:
    every meeting found later is at least 2L long, so span=2 stops once
    pair_meet is exact, and span=1 stops once, in addition, every node
    within pair_meet of a source has its distance.  Nodes not reached
    keep distance -1.
    """
    dist = np.full(n_nodes, -1, dtype=np.int32)
    label = np.full(n_nodes, -1, dtype=np.int32)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    label[frontier] = np.arange(len(sources), dtype=np.int32)
    pair_meet = math.inf
    level = 0
    while frontier.size and pair_meet > span * level:
        nbrs, src = _gather(indptr, indices, fill, frontier)
        src_lab = label[frontier[src]]
        if skip >= 0:
            keep = nbrs != skip
            nbrs, src_lab = nbrs[keep], src_lab[keep]
        tdist = dist[nbrs]
        seen = tdist >= 0
        cross = seen & (label[nbrs] != src_lab)
        if np.any(cross):
            pair_meet = min(pair_meet, int(tdist[cross].min()) + level + 1)
        fresh, fresh_lab = nbrs[~seen], src_lab[~seen]
        if fresh.size == 0:
            break
        order = np.argsort(fresh, kind="stable")
        fresh, fresh_lab = fresh[order], fresh_lab[order]
        first = np.ones(fresh.size, dtype=bool)
        first[1:] = fresh[1:] != fresh[:-1]
        if np.any(~first[1:] & (fresh_lab[1:] != fresh_lab[:-1])):
            pair_meet = min(pair_meet, 2 * (level + 1))
        frontier = fresh[first].astype(np.int64)
        dist[frontier] = level + 1
        label[frontier] = fresh_lab[first]
        level += 1
    return dist, pair_meet


def _min_cycle_through(indptr, indices, fill, n_nodes, root) -> float:
    """Length of the shortest cycle through `root`, inf if none.

    A cycle through the root is a path between two of its neighbors
    that avoids the root, plus the two root edges.
    """
    deg = int(fill[root])
    if deg < 2:
        return math.inf
    start = int(indptr[root])
    nbrs = indices[start : start + deg]
    return _labelled_bfs(indptr, indices, fill, n_nodes, nbrs, root, span=2)[1] + 2


def local_girth(H: SparseBinMatrix) -> GirthReport:
    """Per-variable shortest cycle lengths of H's Tanner graph."""
    if H.rows == 0 or H.cols == 0:
        raise ValueError("girth of an empty matrix is undefined")
    n, m = H.cols, H.rows
    checks = np.repeat(np.arange(m, dtype=np.int64), np.diff(H.indptr)) + n
    ends = np.concatenate([H.indices.astype(np.int64), checks])
    other = np.concatenate([checks, H.indices.astype(np.int64)])
    deg = np.bincount(ends, minlength=n + m).astype(np.int32)
    indptr = np.zeros(n + m + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])
    order = np.argsort(ends, kind="stable")
    indices = other[order].astype(np.int32)
    local = np.array(
        [_min_cycle_through(indptr, indices, deg, n + m, v) for v in range(n)]
    )
    finite = local[np.isfinite(local)]
    hist: dict = {}
    for val in sorted(set(local.tolist())):
        hist[val] = int(np.sum(local == val))
    return GirthReport(
        global_girth=float(finite.min()) if finite.size else math.inf,
        per_variable_local_girth=local,
        histogram=hist,
    )


class _DesignGraph:
    """Tanner graph with preallocated adjacency, grown edge by edge."""

    def __init__(self, capacity: np.ndarray) -> None:
        self.n_nodes = len(capacity)
        self.indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(capacity, out=self.indptr[1:])
        self.indices = np.zeros(int(self.indptr[-1]), dtype=np.int32)
        self.fill = np.zeros(self.n_nodes, dtype=np.int32)

    def add_edge(self, u: int, v: int) -> None:
        self.indices[self.indptr[u] + self.fill[u]] = v
        self.indices[self.indptr[v] + self.fill[v]] = u
        self.fill[u] += 1
        self.fill[v] += 1


def _design(a: ComponentCode, b: ComponentCode, seed: int, circulant: bool) -> PermutationArray:
    rng = np.random.default_rng(seed)
    n_a, n_b, k_b, r_a, r_b = a.n, b.n, b.k, a.r, b.r
    n_vars = n_a * n_b
    chk1_base = n_vars
    chk2_base = n_vars + k_b * r_a

    colsup_a = a.H.col_support()
    colsup_b = b.H.col_support()
    rowsup_a = a.H.row_support
    roww_b = b.H.row_weights()

    capacity = np.zeros(n_vars + k_b * r_a + r_b * n_a, dtype=np.int64)
    for j in range(n_b):
        var_base = j * n_a
        extra = len(colsup_b[j])
        for t in range(n_a):
            capacity[var_base + t] = extra + (len(colsup_a[t]) if j < k_b else 0)
    capacity[chk1_base:chk2_base] = np.tile(a.H.row_weights(), k_b)
    for s in range(r_b):
        capacity[chk2_base + s * n_a : chk2_base + (s + 1) * n_a] = roww_b[s]

    graph = _DesignGraph(capacity)
    for m in range(k_b):
        for i, sup in enumerate(rowsup_a):
            chk = chk1_base + m * r_a + i
            for t in sup:
                graph.add_edge(chk, m * n_a + int(t))

    def quality_row(j: int, sources) -> np.ndarray:
        dist, pair_meet = _labelled_bfs(
            graph.indptr, graph.indices, graph.fill, graph.n_nodes, sources, -1, span=1
        )
        cand = dist[j * n_a : (j + 1) * n_a].astype(np.float64)
        cand[cand < 0] = math.inf
        return np.minimum(pair_meet + 2, cand + 1)

    def pick_max(qual: np.ndarray) -> int:
        top = qual.max()
        ties = np.flatnonzero(qual == top)
        return int(ties[rng.integers(len(ties))])

    def commit(j: int, t: int, sources) -> None:
        for chk in sources:
            graph.add_edge(chk, j * n_a + t)

    perms = []
    for j in range(n_b):
        sources_of = [
            [chk2_base + int(s) * n_a + u for s in colsup_b[j]] for u in range(n_a)
        ]
        # Variables of block columns past the information rows carry no
        # row-code edges yet, so every candidate is equivalent there.
        blind = j >= k_b or len(colsup_b[j]) == 0
        if circulant:
            if blind:
                shift = int(rng.integers(n_a))
            else:
                qual = np.stack(
                    [quality_row(j, sources_of[u]) for u in range(n_a)]
                )
                rows = np.arange(n_a)
                shift_qual = np.array(
                    [qual[rows, (rows + s) % n_a].min() for s in range(n_a)]
                )
                shift = pick_max(shift_qual)
            perm = (np.arange(n_a) + shift) % n_a
            for u in range(n_a):
                commit(j, int(perm[u]), sources_of[u])
        else:
            perm = np.empty(n_a, dtype=np.int64)
            used = np.zeros(n_a, dtype=bool)
            for u in range(n_a):
                if blind:
                    qual = np.where(used, -math.inf, 0.0)
                else:
                    qual = np.where(used, -math.inf, quality_row(j, sources_of[u]))
                t = pick_max(qual)
                perm[u] = t
                used[t] = True
                commit(j, t, sources_of[u])
        perms.append(perm)
    return PermutationArray(n_a, perms)


def design_circulant(a: ComponentCode, b: ComponentCode, seed: int) -> PermutationArray:
    """Interleaver built from cyclic-shift permutations, one shift per block.

    All shifts of a block are scored before committing; the shift whose
    worst new cycle is longest wins.
    """
    return _design(a, b, seed, circulant=True)


def design_generic(a: ComponentCode, b: ComponentCode, seed: int) -> PermutationArray:
    """Interleaver from unconstrained permutations, chosen entry by entry."""
    return _design(a, b, seed, circulant=False)
