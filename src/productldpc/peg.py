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
reads.  Where the node degrees are near regular, as in the product
codes' Tanner graphs, the graph keeps each node's neighbours in one
padded row whose free slots hold the node itself, so a level expands by
one 2-D gather, of only a variable's first few slots on the variable
side; a graph with a few long rows (a long spc check, a dense alist
row) keeps CSR slots instead, so memory stays linear in the edges.

The girth search is rooted at the checks.  Check c's search is walled
off from c and starts from c's variables, each with a label of its own.
A cycle through edge (c, v) leaves c by that edge and comes back by
another of c's edges, so it is 2 plus a path from v to another variable
of c that avoids c: the level at which v's label first clashes with
another label gives the shortest such path, and so the shortest cycle
through the edge.  Every cycle through v passes through one of v's
edges, so v's local girth is the least over its edges.  One search
serves all of a check's edges, and a long check is one root instead of
a source in a search for each of its variables.  local_girth runs many
roots per call, and deals its roots out to one lane per usable CPU.

A design candidate t scores min(pair_meet + 2, dist(t) + 1), where
pair_meet is the least distance between two of the new edges' checks.
The Tanner graph is bipartite, the sources are checks and the candidates
are variables, so pair_meet is even and dist(t) is odd: a candidate at
distance pair_meet or more scores pair_meet + 2 whether it was reached
or not.  The design search therefore stops once every candidate nearer
than pair_meet has a distance it can read without expanding further (the
depth-limited search of Hu, Eleftheriou and Arnold, IEEE Trans. IT
2005).  The candidates of block column j are the variables of row j.  A
free one has no edges but its row-code checks, which are present from
the start and join only row j's variables, so an unreached free
candidate that shares a row-code check with a reached one lies two
levels past the last odd frontier.  The search reads those off a static
table of the row code's shared checks, H_a^T H_a > 0, and stops at
frontier pair_meet - 3 instead of expanding to pair_meet - 2.  Only free
candidates are read: the generic design masks the used ones, and the
circulant design scores a whole block column, in grouped calls on one
graph, before it commits any of it.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .components import ComponentCode
from .gf2 import PermutationArray, SparseBinMatrix, _in_lanes, check_int
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

# Groups per _labelled_bfs call: check roots in local_girth, shared out
# among its lanes, and permutation rows in the circulant design.  A
# call's state is three int32 arrays of groups * n_nodes entries (0.4 MB
# per thousand nodes at 32).  On the (10000,6561) codes, warm, one lane
# takes 99-118 ms a code for 16 to 128 roots per call and 117-127 for
# 8.  Two lanes of 16 take 86-92 ms; two of 32 take 68-73 ms warm, but
# no less in the benchmark's cold first call, where they raised
# code-design's peak RSS by 3.5-5.8 % against 1.8-3.3 % (2 cores).
_PASS_GROUPS = 32

# A graph gets padded rows while its largest capacity is at most this
# many times the mean, so the rows never take more than this many times
# the slots of CSR.  The Tanner graphs of mscmpc:81:9,10^2 and
# mscmpc:169:13,14^2 stay under 2.5; a long spc check or a dense alist
# row makes a graph CSR.
_PAD_SPREAD = 4


class _Graph:
    """Adjacency with room for capacity[v] edges at node v, in slots
    indptr[v] to indptr[v + 1] - 1 of `slots`: the first fill[v] hold the
    edges present and every free slot holds v itself.  Where no capacity
    exceeds _PAD_SPREAD times the mean, every node gets the largest
    capacity and `rows` views the slots as one padded row per node;
    otherwise `rows` is None.  A Tanner graph's variables 0..n_vars-1
    have at most var_rows.shape[1] edges, so their rows are read through
    var_rows, which drops the free slots past that; other graphs have
    n_vars = 0.  Plus the state _labelled_bfs reuses: a label per
    (group, node), which is -1 between searches, and working distances
    and stamps."""

    def __init__(self, capacity) -> None:
        capacity = np.asarray(capacity, dtype=np.int64)
        n = self.n_nodes = capacity.size
        width = int(capacity.max()) if n else 0
        padded = width * n <= _PAD_SPREAD * int(capacity.sum())
        if padded:
            capacity = np.full(n, width)
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(capacity, out=self.indptr[1:])
        self.slots = np.repeat(np.arange(n, dtype=np.int64), capacity)
        self.rows = self.slots.reshape(n, width) if padded else None
        self.fill = np.zeros(n, dtype=np.int64)
        self.n_vars, self.var_rows = 0, self.rows
        self.label = self.dist = self.stamp = np.empty(0, dtype=np.int32)

    def fork(self) -> "_Graph":
        """A graph on this one's slots with a search state of its own."""
        twin = copy.copy(self)
        twin.label = twin.dist = twin.stamp = np.empty(0, dtype=np.int32)
        return twin

    @classmethod
    def tanner(cls, H: SparseBinMatrix) -> "_Graph":
        """H's Tanner graph: variables 0..n-1, then checks n..n+m-1."""
        # Ascending neighbours: a variable's row of H^T, a check's row of H.
        by_col = H.transpose()
        degree = np.concatenate([by_col.row_weights(), H.row_weights()])
        others = np.concatenate([by_col.indices + H.cols, H.indices])
        graph = cls(degree)
        start = graph.indptr[:-1] - np.cumsum(degree) + degree
        graph.slots[np.arange(others.size) + np.repeat(start, degree)] = others
        graph.fill = degree
        if graph.rows is not None:
            graph.n_vars = H.cols
            graph.var_rows = graph.rows[:, : degree[: H.cols].max()]
        return graph

    def keep_below(self, first: int) -> None:
        """Drop every edge at nodes first and up.  Each node's edges to
        nodes below `first` must come before its other edges."""
        owner = np.repeat(np.arange(self.n_nodes), np.diff(self.indptr))
        kept = (owner < first) & (self.slots < first) & (self.slots != owner)
        self.fill = np.bincount(owner[kept], minlength=self.n_nodes)
        np.copyto(self.slots, owner, where=~kept)

    def add_edge(self, u: int, v: int) -> None:
        self.slots[self.indptr[u] + self.fill[u]] = v
        self.slots[self.indptr[v] + self.fill[v]] = u
        self.fill[u] += 1
        self.fill[v] += 1


def _labelled_bfs(graph: _Graph, sources, walls=None, targets=None, share=None):
    """BFS distances from groups of sources, and each source's least
    distance to another source of its group.

    Each of the G groups searches its own copy of the graph, at flat
    indices ``group * n_nodes + node``: ``sources[g]`` lists group g's
    distinct sources and ``walls[g]``, if given, a node it never enters
    (-1 for none).  The graph is bipartite and all sources lie on one
    side, so every edge joins two consecutive levels and each level lies
    on one side.

    The search is level-synchronized and every source carries its own
    label.  No level is sorted.  A level expands by one gather of the
    frontier's padded rows (var_rows on the variable side), or of its
    CSR slots where the graph has no padded rows; a node's free row
    slots hold the node itself, which is labelled, so the fresh test
    drops them.  The frontier writes its labels onto its fresh neighbours
    by scatter and reads them back, and the next frontier is deduplicated
    the same way with a position stamp.  A fresh node that reads back
    another label than the one it was reached with was reached by two
    labels from level L, which closes a path of length 2(L + 1) between
    two sources: the two labels clash.  A node's label is always a source
    at its exact distance, so a label clashes first at the level L where
    2(L + 1) is its least distance to another source, its meet: not
    earlier, since the path closed is never shorter, and not later, since
    on a shortest path to the other source the nodes L, L + 1 and L steps
    from its ends are reached at those levels, the first by the label
    itself and the last by another, as any source nearer to them would
    be nearer to it.  A group's pair_meet, the least distance between two
    of its sources, is the least meet of its labels.

    Without `targets` (girth) every label's meet is found.  A group keeps
    its whole frontier, since a label meets the others where they lie,
    until every label on it has clashed: a label off the frontier never
    clashes again.  With `targets` (design) only pair_meet is found, at
    the group's first clash when expanding level l, and the group stops
    at frontier L = max(l + 1, pair_meet - 3).  `share` must then be the
    (T, T) boolean table of which targets share a neighbour.  Instead of
    expanding further, the group gives distance L + 1 + (L % 2) to each
    unreached target that shares a neighbour with a reached target, so
    every target nearer than pair_meet to a source has its distance.
    That needs the targets on the side away from the sources, at odd
    distances, and every neighbour of an unreached target present and
    adjacent to targets only: the last two steps of a shortest path to
    it then run from a target through a shared neighbour, and that
    target is at the last odd level, L or L - 1.  Each level compares one
    integer, the least stop level of the groups still searching, and
    drops the stopped groups' nodes when it is reached.  Once every group
    has its pair_meet, labels only mark nodes as reached.

    Returns the targets' distances, shape (G, T) with -1 where not found,
    or None without targets; pair_meet, shape (G,), inf where no two
    sources meet; and, without targets, each source's meet in the order
    of the concatenated sources, inf where it meets no other source, or
    None with targets.
    """
    groups, n_nodes = len(sources), graph.n_nodes
    if graph.label.size < groups * n_nodes:
        graph.label = np.full(groups * n_nodes, -1, dtype=np.int32)
        graph.dist = np.empty(groups * n_nodes, dtype=np.int32)
        graph.stamp = np.empty(groups * n_nodes, dtype=np.int32)
    label, dist, stamp = graph.label, graph.dist, graph.stamp
    rows, slots, indptr, fill = graph.rows, graph.slots, graph.indptr, graph.fill
    if groups == 1:
        frontier = np.asarray(sources[0], dtype=np.int64)
    else:
        base = np.arange(groups, dtype=np.int64) * n_nodes
        sizes = [len(s) for s in sources]
        frontier = np.concatenate(sources).astype(np.int64) + np.repeat(base, sizes)
    # Labels are distinct over all groups, so distinct within each.
    labs = np.arange(frontier.size, dtype=np.int32)
    label[frontier] = labs
    if targets is not None:
        dist[frontier] = 0
    visited = [frontier]
    if walls is not None:
        walls = np.asarray(walls, dtype=np.int64)
        walls = (walls + np.arange(groups) * n_nodes)[walls >= 0]
        label[walls] = _WALL
        visited.append(walls)
    meet = None
    if targets is None:
        meet = np.full(frontier.size, np.inf)
        pending = np.ones(frontier.size, dtype=bool)  # labels yet to clash
        owner = np.repeat(np.arange(groups), [len(s) for s in sources])
    pair_meet = np.full(groups, np.inf)
    # Each group's stop level, past every level until it is set.
    stop = np.full(groups, n_nodes, dtype=np.int64)
    halt = n_nodes
    seeking = groups
    level = 0
    while frontier.size:
        if level == halt:
            if groups == 1:
                break
            going = stop[frontier // n_nodes] > level
            frontier = frontier[going]
            if seeking:
                labs = labs[going]
            halt = int(stop[stop > level].min(initial=n_nodes))
            if not frontier.size:
                break
        node = frontier if groups == 1 else frontier % n_nodes
        if rows is not None:
            nbrs = (rows if node[0] >= graph.n_vars else graph.var_rows)[node]
            if groups > 1:
                nbrs += (frontier - node)[:, None]
            fresh = (label[nbrs] == -1).ravel().nonzero()[0]
            if seeking:
                labs = labs[fresh // nbrs.shape[1]]
            nbrs = nbrs.ravel()[fresh]
        else:
            deg = fill[node]
            ends = np.cumsum(deg)
            nbrs = slots[np.arange(ends[-1]) + np.repeat(indptr[node] + deg - ends, deg)]
            if groups > 1:
                nbrs += np.repeat(frontier - node, deg)
            fresh = label[nbrs] == -1
            if seeking:
                labs = np.repeat(labs, deg)[fresh]
            nbrs = nbrs[fresh]
        pos = np.arange(nbrs.size, dtype=np.int32)
        stamp[nbrs] = pos
        winner = stamp[nbrs]
        first = winner == pos
        frontier = nbrs[first]
        if seeking and targets is None:
            won = labs[winner]
            clash = won != labs
            pending[labs[clash]] = False
            pending[won[clash]] = False
            meet[~pending & np.isinf(meet)] = 2 * (level + 1)
            labs = labs[first]
            label[frontier] = labs
            on = np.zeros(meet.size, dtype=bool)
            on[labs] = True
            live = np.zeros(groups, dtype=bool)
            live[owner[on & pending]] = True
            done = ~live & (stop > level)
            count = np.count_nonzero(done)
            if count:
                stop[done] = halt = level + 1
                seeking -= count
        elif seeking:
            clash = labs[winner] != labs
            # count_nonzero, not any(): on short arrays it costs a third.
            if np.count_nonzero(clash):
                met = np.isinf(pair_meet)
                if groups > 1:
                    met &= np.bincount(nbrs[clash] // n_nodes, minlength=groups) > 0
                count = np.count_nonzero(met)
                if count:
                    pair_meet[met] = 2 * (level + 1)
                    after = max(level + 1, 2 * level - 1)
                    stop[met] = after
                    halt = min(halt, after)
                    seeking -= count
            labs = labs[first]
            label[frontier] = labs
        else:
            label[frontier] = 0
        level += 1
        if targets is not None:
            dist[frontier] = level
        visited.append(frontier)
    found = None
    if targets is None:
        np.minimum.at(pair_meet, owner, meet)
    else:
        targets = np.asarray(targets, dtype=np.int64)
        flat = targets if groups == 1 else (base[:, None] + targets).ravel()
        lab = label[flat].reshape(groups, targets.size)
        found = np.where(lab >= 0, dist[flat].reshape(lab.shape), -1)
        near = ((lab >= 0) @ share) & (lab == -1)
        found = np.where(near, (stop + 1 + stop % 2)[:, None], found)
    label[np.concatenate(visited)] = -1
    return found, pair_meet, meet


def local_girth(H: SparseBinMatrix) -> GirthReport:
    """Per-variable shortest cycle lengths of H's Tanner graph.

    Each check c of degree 2 or more roots one search, walled off from
    c, whose sources are c's variables: the shortest cycle through edge
    (c, v) is 2 plus v's meet.  A variable's local girth is the least
    over its edges.  The roots are dealt out to the lanes of
    gf2._in_lanes, each with a graph state of its own, and each lane
    searches its roots in calls of _PASS_GROUPS / lanes groups, so the
    lanes' states together take what one serial lane's would.
    """
    if H.rows == 0 or H.cols == 0:
        raise ValueError("girth of an empty matrix is undefined")
    graph = _Graph.tanner(H)
    slots, indptr, fill = graph.slots, graph.indptr, graph.fill
    roots = H.cols + np.flatnonzero(H.row_weights() >= 2)

    def search(share: slice, lanes: int) -> list:
        """(variables, meets) of each call on this lane's roots."""
        lane, mine = graph.fork(), roots[share]
        size = -(-_PASS_GROUPS // lanes)
        calls = []
        for first in range(0, mine.size, size):
            batch = mine[first : first + size]
            sources = [slots[indptr[c] : indptr[c] + fill[c]] for c in batch]
            calls.append((np.concatenate(sources), _labelled_bfs(lane, sources, batch)[2]))
        return calls

    local = np.full(H.cols, math.inf)
    for calls in _in_lanes(search, roots.size, _PASS_GROUPS):
        for ends, meets in calls:
            np.minimum.at(local, ends, meets + 2)
    finite = local[np.isfinite(local)]
    lengths, counts = np.unique(local, return_counts=True)
    return GirthReport(
        global_girth=float(finite.min()) if finite.size else math.inf,
        per_variable_local_girth=local,
        histogram=dict(zip(lengths.tolist(), counts.tolist())),
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
    graph.keep_below(chk2_base)
    # Block j's candidates are the variables of row j.  A free one has
    # only its row-code checks, which join only row j's variables, and
    # two of those share a check where their columns share one in H_a.
    h_a = a.H.to_dense().astype(np.int64)
    share = h_a.T @ h_a > 0

    def quality(targets: np.ndarray, sources: np.ndarray) -> np.ndarray:
        """Scores of the free candidates `targets` against the current
        graph, one row per row of `sources`, the checks of one variable's
        new edges."""
        dist, pair_meet, _ = _labelled_bfs(graph, sources, targets=targets, share=share)
        return np.minimum(pair_meet[:, None] + 2, np.where(dist < 0, math.inf, dist + 1))

    def pick_max(qual: np.ndarray) -> int:
        ties = (qual == qual[qual.argmax()]).nonzero()[0]
        return int(ties[rng.integers(len(ties))])

    def commit(var: int, sources: np.ndarray) -> None:
        for chk in sources.tolist():
            graph.add_edge(chk, var)

    perms = []
    for j in range(n_b):
        # Row u lists the column-code checks that the variable placed
        # for row u of block j's permutation joins.
        sources = chk2_base + colsup_b[j] * n_a + np.arange(n_a)[:, None]
        targets = np.arange(j * n_a, (j + 1) * n_a)
        # Variables of block columns past the information rows carry no
        # row-code edges yet, so every candidate is equivalent there.
        blind = j >= k_b or len(colsup_b[j]) == 0
        if circulant:
            if blind:
                shift = int(rng.integers(n_a))
            else:
                qual = np.concatenate([
                    quality(targets, sources[first : first + _PASS_GROUPS])
                    for first in range(0, n_a, _PASS_GROUPS)
                ])
                # Entry (u, s) scores row u under shift s.
                rows = np.arange(n_a)
                shift = pick_max(qual[rows[:, None], (rows[:, None] + rows) % n_a].min(axis=0))
            perm = (np.arange(n_a) + shift) % n_a
            for u in range(n_a):
                commit(j * n_a + int(perm[u]), sources[u])
        else:
            perm = np.empty(n_a, dtype=np.int64)
            used = np.zeros(n_a, dtype=bool)
            for u in range(n_a):
                if blind:
                    qual = np.where(used, -math.inf, 0.0)
                else:
                    qual = np.where(used, -math.inf, quality(targets, sources[u : u + 1])[0])
                t = pick_max(qual)
                perm[u] = t
                used[t] = True
                commit(j * n_a + t, sources[u])
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
