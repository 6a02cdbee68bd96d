"""PEG designs against the design loop and labelled BFS they replaced.

``_Graph``, ``_neighbours``, ``_labelled_bfs`` and ``_design`` below are
the kernel and design loop as they stood before padded adjacency rows,
per-group stop levels and the shared-check stop, kept verbatim: the
graph in CSR form with a fill count per node, a cumsum/arange/repeat
neighbour gather, done/active group masks rebuilt at every level, and a
design search that reads its last targets off the neighbours of its last
frontier.  Both designs must give the same permutation arrays from this
reference and from the library, whose tie-break RNG draws must therefore
match one for one.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from productldpc import (
    ComponentCode,
    PermutationArray,
    SparseBinMatrix,
    build_hp,
    build_mscmpc,
    design_circulant,
    design_generic,
    parse_component_spec,
)
from productldpc import peg
from productldpc.decoder import check_int

_WALL = -2
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


def _component_specs(max_n: int) -> list:
    """Every spc and one- or two-stage mscmpc spec with n <= max_n."""
    specs = [f"spc:{k}" for k in range(1, max_n)]
    for k in range(1, max_n):
        stages = [[r] for r in range(2, max_n - k + 1)]
        stages += [[r, s] for r in range(2, max_n) for s in range(r + 1, max_n - k - r + 1)]
        for r_list in stages:
            try:
                build_mscmpc(k, r_list)
            except ValueError:  # two rows share two columns
                continue
            specs.append(f"mscmpc:{k}:{','.join(map(str, r_list))}")
    return specs


_SPECS = _component_specs(20)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(_SPECS), st.sampled_from(_SPECS), st.integers(0, 50))
@example("mscmpc:9:4,6", "mscmpc:9:4,6", 0)
@example("mscmpc:5:3,4", "spc:1", 50)
def test_designs_match_the_reference(comp_a, comp_b, seed):
    a, b = parse_component_spec(comp_a), parse_component_spec(comp_b)
    for circulant, design in ((True, design_circulant), (False, design_generic)):
        assert design(a, b, seed) == _design(a, b, seed, circulant)


# A design-shaped tree: block variables 2-9 and checks 11-18, and check
# 10 joining variables 0 and 1 outside it.  Check 11 leads through 2,
# 12, 3, 13, 4, 14 and 5 to check 15, and through 6, 16, 7, 17, 8 and 18
# to variable 9.  The library stops the three groups at frontiers 5, 3
# and 2 and reads the block off the table of shared checks; the
# reference stops them at 6, 4 and 2 and reads it off the neighbours of
# its last frontier.
_TREE = [(10, 0), (10, 1), (11, 2), (11, 6), (12, 2), (12, 3), (13, 3), (13, 4),
         (14, 4), (14, 5), (15, 5), (16, 6), (16, 7), (17, 7), (17, 8), (18, 8), (18, 9)]


@pytest.mark.parametrize("spare", [0, 200])
def test_shared_check_read_off_matches_the_reference(spare):
    degree = np.bincount(np.array(_TREE).ravel(), minlength=19)
    degree[0] += spare  # 200 makes the library graph CSR, 0 leaves it padded
    graph, reference = peg._Graph(degree), _Graph(degree)
    assert (graph.rows is None) == (spare > 0)
    for u, v in _TREE:
        graph.add_edge(u, v)
        reference.add_edge(u, v)
    incidence = np.zeros((8, 8), dtype=np.int64)
    for c, v in _TREE[2:]:
        incidence[c - 11, v - 2] = 1
    targets, share = np.arange(2, 10), incidence.T @ incidence > 0
    sources = [[11, 15], [11, 14, 10], [12, 16]]
    label = np.full(len(sources) * 19, -1, dtype=np.int32)
    found, pair_meet, _ = peg._labelled_bfs(graph, label, sources, targets=targets, share=share)
    want, want_meet = _labelled_bfs(reference, sources, targets=targets)
    assert pair_meet.tolist() == want_meet.tolist() == [8, 6, 4]
    assert np.array_equal(found, want)
    assert found.tolist() == [[1, 3, 3, 1, 1, 3, 5, 7],
                              [1, 3, 1, 1, 1, 3, 5, -1],
                              [1, 1, 3, -1, 1, 1, 3, -1]]
    # The label table is the search's whole state, so each call leaves it
    # all -1 for the next: a girth call of one group walled off from
    # variable 6, which cuts check 16 off, then a design call on a second
    # table with walls at targets 4 and 7, which read -1.
    assert np.all(label == -1)
    _, pair_meet, meets = peg._labelled_bfs(graph, label, [[11, 15, 16]], [6])
    assert pair_meet.tolist() == _labelled_bfs(reference, [[11, 15, 16]], [6])[1].tolist() == [8]
    assert meets.tolist() == [8, 8, math.inf]
    assert np.all(label == -1)
    second, walls = np.full_like(label, -1), [-1, 4, 7]
    found, pair_meet, _ = peg._labelled_bfs(graph, second, sources, walls, targets, share)
    want, want_meet = _labelled_bfs(reference, sources, walls, targets)
    assert pair_meet.tolist() == want_meet.tolist()
    assert np.array_equal(found, want)
    assert found[1, 4 - 2] == found[2, 7 - 2] == -1
    assert np.all(second == -1) and np.all(label == -1)
