"""Interleaver design by progressive edge growth, plus girth measurement.

The permutation array is grown block column by block column.  Placing
row u of block j's permutation at column t ties the fresh variable of
that block/column to a fixed group of column-code checks; the greedy
picks the t whose new edges close the longest possible cycle, measured
by breadth-first distances in the partially built Tanner graph (row-code
checks are present from the start).  Ties are broken uniformly at
random from a seeded generator, so equal seeds reproduce equal arrays.

Both the design and the girth measurement run one labelled BFS,
_labelled_bfs, which needs no sort, and each stops at the depth it
reads.  The girth of a variable is 2 plus the least distance between two
of its checks in the graph without it, so that search stops as soon as
that distance is exact; local_girth runs many roots per call.  A design
candidate t scores min(pair_meet + 2, dist(t) + 1), where pair_meet is
the least distance between two of the new edges' checks.  The Tanner
graph is bipartite, the sources are checks and the candidates are
variables, so pair_meet is even and dist(t) is odd: a candidate at
distance pair_meet or more scores pair_meet + 2 whether it was reached
or not.  The design search therefore stops once every candidate nearer
than pair_meet has its distance, which it reads off the last frontier
instead of expanding it (the depth-limited search of Hu, Eleftheriou and
Arnold, IEEE Trans. IT 2005).  The circulant design scores all rows of a
block column in grouped calls, since they share one graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .components import ComponentCode
from .decoder import check_int
from .gf2 import PermutationArray, SparseBinMatrix
from .product import build_hp


@dataclass
class GirthReport:
    """Shortest-cycle statistics of a Tanner graph.

    Lengths are counted in edges and are infinite where no cycle passes
    through a variable node.  global_girth is the minimum local girth.
    """

    global_girth: float
    per_variable_local_girth: np.ndarray
    histogram: dict


# Label of a node a group never enters: it is neither fresh nor reached.
_WALL = -2

# Groups per _labelled_bfs call in local_girth and the circulant design.
# The call's state is three int32 arrays of _PASS_GROUPS * n_nodes
# entries (0.4 MB per thousand nodes).  On the (10000,6561) codes 16 to
# 64 roots per call time alike; fewer pay more per-level overhead, more
# touch more memory per level.
_PASS_GROUPS = 32


class _Graph:
    """Adjacency with room for capacity[v] edges at node v, of which the
    first fill[v] are present, plus the state _labelled_bfs reuses: a
    label per (group, node), which is -1 between searches, and working
    distances and stamps."""

    def __init__(self, capacity) -> None:
        self.n_nodes = len(capacity)
        self.indptr = np.zeros(self.n_nodes + 1, dtype=np.int64)
        np.cumsum(capacity, out=self.indptr[1:])
        self.indices = np.zeros(int(self.indptr[-1]), dtype=np.int64)
        self.fill = np.zeros(self.n_nodes, dtype=np.int64)
        self.label = self.dist = self.stamp = np.empty(0, dtype=np.int32)

    @classmethod
    def tanner(cls, H: SparseBinMatrix) -> "_Graph":
        """H's Tanner graph: variables 0..n-1, then checks n..n+m-1."""
        n, m = H.cols, H.rows
        checks = np.repeat(np.arange(m, dtype=np.int64), np.diff(H.indptr)) + n
        ends = np.concatenate([H.indices.astype(np.int64), checks])
        graph = cls(np.bincount(ends, minlength=n + m))
        graph.indices[:] = np.concatenate([checks, H.indices])[np.argsort(ends, kind="stable")]
        graph.fill = np.diff(graph.indptr)
        return graph

    def add_edge(self, u: int, v: int) -> None:
        self.indices[self.indptr[u] + self.fill[u]] = v
        self.indices[self.indptr[v] + self.fill[v]] = u
        self.fill[u] += 1
        self.fill[v] += 1


def _neighbours(graph: _Graph, flat: np.ndarray, groups: int):
    """Flat indices of the neighbours of the flat nodes, node after node,
    and the number of neighbours of each."""
    node = flat % graph.n_nodes if groups > 1 else flat
    deg = graph.fill[node]
    starts = np.cumsum(deg) - deg
    total = int(starts[-1] + deg[-1]) if deg.size else 0
    nbrs = graph.indices[np.arange(total) + np.repeat(graph.indptr[node] - starts, deg)]
    if groups > 1:
        nbrs += np.repeat(flat - node, deg)
    return nbrs, deg


def _labelled_bfs(graph: _Graph, sources, walls=None, targets=None):
    """BFS distances from groups of sources, and each group's least
    distance between two of its sources.

    Each of the G groups searches its own copy of the graph, at flat
    indices ``group * n_nodes + node``: ``sources[g]`` lists group g's
    distinct sources and ``walls[g]``, if given, a node it never enters
    (-1 for none).  The graph is bipartite and each group's sources lie on one
    side, so every edge joins two consecutive levels.

    The search is level-synchronized and every source carries its own
    label.  No level is sorted.  The frontier writes its labels onto its
    fresh neighbours by scatter and reads them back, and the next frontier
    is deduplicated the same way with a position stamp.  A fresh node that
    reads back another label than the one it was reached with was reached
    by two labels from level L, which closes a path of length 2(L + 1)
    between two sources.  Which label wins a node does not matter: a
    node's label is always a source at its exact distance, so the shortest
    path between two sources has an edge where the label changes, between
    levels l and l + 1 with 2(l + 1) the path's length, and that edge is
    read back as a clash when level l is expanded.  Once the frontier is
    at level L, every meeting up to 2L long has been seen.

    Each group stops on its own.  Without `targets` (girth) it stops at
    the first frontier level L with ``pair_meet <= 2L``, where pair_meet
    is exact.  With `targets` (design) it stops at the first L with
    ``pair_meet <= min(L + 2, 2L)`` and, instead of expanding level L,
    gives distance L + 1 to each unreached target next to a reached node,
    which can only be a node of level L; so every target nearer than
    pair_meet to a source has its distance.

    Returns the targets' distances, shape (G, T) with -1 where not
    found (None without targets), and pair_meet, shape (G,), inf where no
    two sources meet.
    """
    groups, n_nodes = len(sources), graph.n_nodes
    if graph.label.size < groups * n_nodes:
        graph.label = np.full(groups * n_nodes, -1, dtype=np.int32)
        graph.dist = np.empty(groups * n_nodes, dtype=np.int32)
        graph.stamp = np.empty(groups * n_nodes, dtype=np.int32)
    label, dist, stamp = graph.label, graph.dist, graph.stamp
    base = np.arange(groups, dtype=np.int64) * n_nodes
    sizes = np.array([len(s) for s in sources], dtype=np.int64)
    frontier = np.concatenate([np.asarray(s, dtype=np.int64) for s in sources])
    frontier += np.repeat(base, sizes)
    label[frontier] = np.arange(frontier.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)
    dist[frontier] = 0
    visited = [frontier]
    if walls is not None:
        walls = np.asarray(walls, dtype=np.int64)
        walls = (base + walls)[walls >= 0]
        label[walls] = _WALL
        visited.append(walls)
    pair_meet = np.full(groups, np.inf)
    active = np.ones(groups, dtype=bool)
    stop = np.zeros(groups, dtype=np.int64)
    level = 0
    while frontier.size:
        limit = 2 * level if targets is None else min(level + 2, 2 * level)
        done = active & (pair_meet <= limit)
        if done.any():
            active &= ~done
            stop[done] = level
            frontier = frontier[active[frontier // n_nodes]]
            if not frontier.size:
                break
        nbrs, deg = _neighbours(graph, frontier, groups)
        labs = np.repeat(label[frontier], deg)
        fresh = label[nbrs] == -1
        nbrs, labs = nbrs[fresh], labs[fresh]
        pos = np.arange(nbrs.size, dtype=np.int32)
        stamp[nbrs] = pos
        winner = stamp[nbrs]
        clash = labs[winner] != labs
        if clash.any():
            met = nbrs[clash] // n_nodes
            pair_meet[met] = np.minimum(pair_meet[met], 2 * (level + 1))
        first = winner == pos
        frontier = nbrs[first]
        level += 1
        label[frontier] = labs[first]
        dist[frontier] = level
        visited.append(frontier)
    stop[active] = level
    found = None
    if targets is not None:
        flat = (base[:, None] + np.asarray(targets, dtype=np.int64)).ravel()
        lab = label[flat]
        found = np.where(lab >= 0, dist[flat], -1)
        want = np.flatnonzero(lab == -1)
        nbrs, deg = _neighbours(graph, flat[want], groups)
        hit = label[nbrs] >= 0
        found[np.repeat(want, deg)[hit]] = stop[nbrs[hit] // n_nodes] + 1
        found = found.reshape(groups, -1)
    label[np.concatenate(visited)] = -1
    return found, pair_meet


def local_girth(H: SparseBinMatrix) -> GirthReport:
    """Per-variable shortest cycle lengths of H's Tanner graph.

    A cycle through variable v is a path between two of its checks that
    avoids v, plus the two edges at v: v's search starts at its checks and
    is walled off from v.  The roots are searched _PASS_GROUPS per call.
    """
    if H.rows == 0 or H.cols == 0:
        raise ValueError("girth of an empty matrix is undefined")
    graph = _Graph.tanner(H)
    indptr, indices = graph.indptr, graph.indices
    local = np.full(H.cols, math.inf)
    roots = np.flatnonzero(graph.fill[: H.cols] >= 2)
    for first in range(0, roots.size, _PASS_GROUPS):
        group = roots[first : first + _PASS_GROUPS]
        sources = [indices[indptr[v] : indptr[v + 1]] for v in group]
        local[group] = _labelled_bfs(graph, sources, group)[1] + 2
    finite = local[np.isfinite(local)]
    hist: dict = {}
    for val in sorted(set(local.tolist())):
        hist[val] = int(np.sum(local == val))
    return GirthReport(
        global_girth=float(finite.min()) if finite.size else math.inf,
        per_variable_local_girth=local,
        histogram=hist,
    )


def _design(a: ComponentCode, b: ComponentCode, seed: int, circulant: bool) -> PermutationArray:
    check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    n_a, n_b, k_b = a.n, b.n, b.k
    chk2_base = n_a * n_b + k_b * a.r
    colsup_b = b.H.col_support()

    # The direct code's Tanner graph has every final degree, since no
    # permutation changes one.  Each variable lists its row-code checks
    # before its column-code checks, so keeping only the row-code edges
    # present leaves the start graph: the column-code checks are refilled
    # as the permutations are chosen.
    graph = _Graph.tanner(build_hp(a, b).H)
    node = np.repeat(np.arange(graph.n_nodes), graph.fill)
    row_code = (node < chk2_base) & (graph.indices < chk2_base)
    graph.fill = np.bincount(node[row_code], minlength=graph.n_nodes)

    def quality(j: int, sources) -> np.ndarray:
        """Scores of block j's candidates against the current graph, one
        row per entry of `sources`, the checks of one variable's new edges."""
        targets = np.arange(j * n_a, (j + 1) * n_a)
        qual = []
        for first in range(0, len(sources), _PASS_GROUPS):
            part = sources[first : first + _PASS_GROUPS]
            dist, pair_meet = _labelled_bfs(graph, part, targets=targets)
            cand = dist.astype(np.float64)
            cand[cand < 0] = math.inf
            qual.append(np.minimum(pair_meet[:, None] + 2, cand + 1))
        return np.concatenate(qual)

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
                qual = quality(j, sources_of)
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
                    qual = np.where(used, -math.inf, quality(j, [sources_of[u]])[0])
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
