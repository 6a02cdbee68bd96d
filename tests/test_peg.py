import hashlib
import json
import math
import tracemalloc
from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from productldpc import (
    SparseBinMatrix,
    build_hp,
    build_hp_interleaved,
    build_mscmpc,
    build_spc,
    design_circulant,
    design_generic,
    local_girth,
    parse_component_spec,
)
from productldpc.peg import _PASS_GROUPS, _Graph, _labelled_bfs
from productldpc.product import load_permutation_array, save_permutation_array

FIXTURE = Path(__file__).resolve().parents[1] / "bench" / "data" / "perms_mscmpc81_seed1.json"


class TestLocalGirth:
    def test_identity_is_acyclic(self):
        report = local_girth(SparseBinMatrix.identity(6))
        assert math.isinf(report.global_girth)
        assert all(math.isinf(g) for g in report.per_variable_local_girth)

    def test_four_cycle(self):
        h = SparseBinMatrix.from_dense([[1, 1], [1, 1]])
        report = local_girth(h)
        assert report.global_girth == 4
        assert report.histogram == {4.0: 2}

    def test_six_cycle(self):
        h = SparseBinMatrix.from_dense([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
        assert local_girth(h).global_girth == 6

    def test_global_is_min_of_locals(self, comp5):
        report = local_girth(comp5.H)
        finite = [g for g in report.per_variable_local_girth if math.isfinite(g)]
        assert report.global_girth == min(finite)

    def test_all_cycle_lengths_even(self, comp5, pc144):
        for h in (comp5.H, pc144.H):
            for g in local_girth(h).per_variable_local_girth:
                assert math.isinf(g) or g % 2 == 0

    def test_component_girth_at_least_six(self):
        assert local_girth(build_mscmpc(81, [9, 10]).H).global_girth >= 6

    def test_spc_square_girth_is_eight(self, spc3):
        # single-row components are acyclic, so the bound min(g_a, g_b, 8) = 8
        pc = build_hp(spc3, spc3)
        assert local_girth(pc.H).global_girth == 8

    def test_histogram_counts_every_variable(self, pc144):
        report = local_girth(pc144.H)
        assert sum(report.histogram.values()) == pc144.n

    def test_histogram_keys_are_sorted_python_floats(self):
        # variables 0-1 close a 4-cycle, 2-4 a 6-cycle, 5 none
        h = SparseBinMatrix.from_dense([
            [1, 1, 0, 0, 0, 0], [1, 1, 0, 0, 0, 0], [0, 0, 1, 0, 1, 0],
            [0, 0, 1, 1, 0, 0], [0, 0, 0, 1, 1, 0], [0, 0, 0, 0, 0, 1],
        ])
        hist = local_girth(h).histogram
        assert hist == {4.0: 2, 6.0: 3, math.inf: 1}
        assert list(hist) == [4.0, 6.0, math.inf]
        assert [type(k) for k in hist] == [float] * 3
        assert [type(v) for v in hist.values()] == [int] * 3


def _adjacency(dense: np.ndarray) -> dict:
    m, n = dense.shape
    adj = {("v", j): [("c", i) for i in range(m) if dense[i, j]] for j in range(n)}
    adj.update({("c", i): [("v", j) for j in range(n) if dense[i, j]] for i in range(m)})
    return adj


def _cycle_through(adj: dict, c, v) -> float:
    """Shortest cycle through the edge (v, c): 1 + the BFS distance from c
    back to v without that edge."""
    dist = {c: 0}
    queue = deque([c])
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if y not in dist and {x, y} != {c, v}:
                dist[y] = dist[x] + 1
                queue.append(y)
    return dist[v] + 1 if v in dist else math.inf


def _girth_oracle(dense: np.ndarray) -> list:
    """Shortest cycle through each variable: the least, over its edges,
    of the shortest cycle through the edge."""
    adj = _adjacency(dense)
    return [min((_cycle_through(adj, c, ("v", j)) for c in adj[("v", j)]), default=math.inf)
            for j in range(dense.shape[1])]


@st.composite
def _tanner(draw):
    m = draw(st.integers(1, 6))
    n = draw(st.integers(1, 8))
    rows = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n),
                         min_size=m, max_size=m))
    return np.array(rows, dtype=np.uint8)


# A tree with an empty row and columns of degree 0, 1 and 2.
_ACYCLIC = np.array([[1, 1, 0, 0], [0, 0, 0, 0], [0, 1, 1, 0]], dtype=np.uint8)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tanner())
@example(_ACYCLIC)
@example(np.zeros((2, 3), dtype=np.uint8))
@example(np.ones((3, 3), dtype=np.uint8))
def test_local_girth_matches_edge_removal_oracle(dense):
    report = local_girth(SparseBinMatrix.from_dense(dense))
    assert report.per_variable_local_girth.tolist() == _girth_oracle(dense)


@pytest.mark.parametrize("code", ["direct", "interleaved"])
def test_local_girth_over_several_passes_matches_oracle(code, comp5, pc144):
    # 119 check roots: three full passes of 32 and a partial fourth in one lane
    if code == "direct":
        h = pc144.H
    else:
        h = build_hp_interleaved(comp5, comp5, design_generic(comp5, comp5, seed=0)).H
    roots = np.count_nonzero(h.row_weights() >= 2)
    assert roots > _PASS_GROUPS and roots % _PASS_GROUPS
    report = local_girth(h)
    assert report.per_variable_local_girth.tolist() == _girth_oracle(h.to_dense())


@st.composite
def _bfs_case(draw):
    """A bipartite graph with variables 0..n-1 and checks n..n+m-1, held
    with spare capacity at some nodes as in a part-built design graph,
    and up to four groups, each with distinct check sources and a
    variable wall or none.  In some cases one node has room for so many
    more edges that the graph keeps CSR slots, not padded rows.

    Half the cases are design-shaped: the last nb variables are a block
    whose checks, the last mb checks, join only block variables, as the
    row-code checks join a block of candidates, and the rest of the
    graph joins only the rest.  Their targets are the block, with the
    table of which targets share a check.  The other cases have no
    targets."""
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 8))
    block = None
    if draw(st.booleans()):
        nb, mb = draw(st.integers(1, n)), draw(st.integers(1, m))
        inside = st.tuples(st.integers(n + m - mb, n + m - 1), st.integers(n - nb, n - 1))
        edges = draw(st.sets(inside, max_size=nb * mb))
        if nb < n and mb < m:
            outside = st.tuples(st.integers(n, n + m - mb - 1), st.integers(0, n - nb - 1))
            edges |= draw(st.sets(outside, max_size=(n - nb) * (m - mb)))
        block = _block(n, m, nb, mb, edges)
    else:
        edges = draw(st.sets(st.tuples(st.integers(n, n + m - 1), st.integers(0, n - 1)),
                             max_size=n * m))
    spare = draw(st.lists(st.integers(0, 2), min_size=n + m, max_size=n + m))
    spare[draw(st.integers(0, n + m - 1))] += draw(st.sampled_from([0, 20 * (n + m)]))
    groups = []
    for _ in range(draw(st.integers(1, 4))):
        sources = draw(st.lists(st.integers(n, n + m - 1), min_size=1, max_size=m,
                                unique=True))
        wall = draw(st.integers(-1, n - 1))
        groups.append((sources, wall))
    return n + m, sorted(edges), spare, groups, block


def _block(n, m, nb, mb, edges):
    """The targets of a block of the last nb variables and mb checks, and
    the (nb, nb) table of which two share a check."""
    incidence = np.zeros((mb, nb), dtype=np.int64)
    for c, v in edges:
        if c >= n + m - mb:
            incidence[c - (n + m - mb), v - (n - nb)] = 1
    return np.arange(n - nb, n), incidence.T @ incidence > 0


def _bfs_oracle(n_nodes, edges, sources, wall):
    """scipy distances from the nearest source, least source-to-source
    distance and each source's least distance to another source, in the
    graph without the wall node."""
    kept = [(u, v) for u, v in edges if wall not in (u, v)]
    u, v = np.array(kept, dtype=int).reshape(-1, 2).T
    adj = csr_matrix((np.ones(len(kept)), (u, v)), shape=(n_nodes, n_nodes))
    d = shortest_path(adj, directed=False, unweighted=True, indices=sources)
    pair = np.where(np.eye(len(sources), dtype=bool), np.inf, d[:, sources])
    each = pair.min(axis=1, initial=np.inf)
    return d.min(axis=0), each.min(initial=np.inf), each


# Checks 8, 9, 10, 11 joined in a path by variables 0, 1, 2; a branch
# from variable 1 through check 12 to variable 3; and a tail from 3
# through checks 13-15 and variables 4-6.  Sources 8 and 10 meet at 4
# with variable 3 at 3, and sources 8 and 11 at 6 with variable 3 at 5,
# so the two groups stop at different levels, frontiers 2 and 3, each
# reading variable 3 off the check it shares with variable 1.  Every
# variable is a target, so the whole graph is the block.
_BRANCH_EDGES = [(8, 0), (9, 0), (9, 1), (10, 1), (10, 2), (11, 2), (12, 1), (12, 3),
                 (13, 3), (13, 4), (14, 4), (14, 5), (15, 5), (15, 6)]
_BRANCH = (16, _BRANCH_EDGES, [0] * 16, [([8, 10], -1), ([8, 11], -1)],
           _block(7, 9, 7, 9, _BRANCH_EDGES))

# A design-shaped tree: block variables 2-9 and checks 11-18, and check
# 10 joining variables 0 and 1 outside it.  Check 11 leads through 2,
# 12, 3, 13, 4, 14 and 5 to check 15, and through 6, 16, 7, 17, 8 and 18
# to variable 9.  Sources 11 and 15 meet at 8, so the search stops at
# frontier 5 and reads variable 9, at 7, off the check it shares with
# variable 8; sources 11 and 14 meet at 6 and stop at frontier 3 with
# variable 8 at 5; sources 12 and 16 meet at 4 and stop at frontier 2
# with variables 4 and 8 at 3; sources 12 and 18 walled off from
# variable 7 never meet.
_SHARE_EDGES = [(10, 0), (10, 1), (11, 2), (11, 6), (12, 2), (12, 3), (13, 3), (13, 4),
                (14, 4), (14, 5), (15, 5), (16, 6), (16, 7), (17, 7), (17, 8), (18, 8),
                (18, 9)]
_SHARE = (19, _SHARE_EDGES, [0] * 19,
          [([11, 15], -1), ([11, 14, 10], -1), ([12, 16], -1), ([12, 18], 7)],
          _block(10, 9, 8, 8, _SHARE_EDGES))


@settings(max_examples=800, deadline=None, derandomize=True, database=None)
@given(_bfs_case(), st.booleans())
@example(_BRANCH, True)
@example(_BRANCH, False)
@example(_SHARE, True)
@example(_SHARE, False)
def test_labelled_bfs_matches_scipy_shortest_paths(case, design):
    n_nodes, edges, spare, groups, block = case
    degree = np.bincount(np.array(edges, dtype=int).ravel(), minlength=n_nodes)
    graph = _Graph(degree + np.array(spare))
    for u, v in edges:
        graph.add_edge(u, v)
    # A search writes only its caller's table, so lanes may share a graph.
    # The padded rows view the slots, but a view keeps its own flag.
    for array in (graph.slots, graph.fill, graph.indptr, graph.rows):
        if array is not None:
            array.flags.writeable = False
    sources = [g[0] for g in groups]
    walls = [g[1] for g in groups]
    design = design and block is not None
    targets, share = block if design else (None, None)
    ends = np.cumsum([len(src) for src in sources])
    label = np.full(len(groups) * n_nodes, -1, dtype=np.int32)
    for _ in range(2):  # the second call finds the table the first left
        found, pair_meet, meets = _labelled_bfs(graph, label, sources, walls, targets, share)
        assert np.all(label == -1)  # the search's only state, reset
        assert (meets is None) == design
        for g, (src, wall) in enumerate(groups):
            dist, meet, each = _bfs_oracle(n_nodes, edges, src, wall)
            assert pair_meet[g] == meet
            if not design:
                # every source's own least distance, and pair_meet the least of them
                assert meets[ends[g] - len(src) : ends[g]].tolist() == each.tolist()
            if design:
                # exact where the design reads, never wrong elsewhere
                dist = dist[targets]
                exact = np.where(np.isinf(dist), -1, dist)
                assert np.all((found[g] == exact) | (found[g] == -1))
                assert np.array_equal(found[g][dist < meet], exact[dist < meet])
                assert np.all(found[g][targets == wall] == -1)
            else:
                assert found is None


def _star(n):
    """A check joined to n variables, each with a check of its own."""
    edges = [(n, v) for v in range(n)] + [(n + 1 + v, v) for v in range(n)]
    return 2 * n + 1, edges


@pytest.mark.parametrize("n", [5, 8])
def test_labelled_bfs_on_a_star_matches_scipy(n):
    # Largest degree n against a mean of 4n / (2n + 1): n = 5 pads the
    # rows and n = 8 keeps CSR slots.
    n_nodes, edges = _star(n)
    graph = _Graph(np.bincount(np.array(edges).ravel(), minlength=n_nodes))
    assert (graph.rows is None) == (n == 8)
    for u, v in edges:
        graph.add_edge(u, v)
    groups, walls = [[n + 1, n + 2], [n, n + 3], [n + 4, n + 5, n]], [-1, 2, 3]
    label = np.full(len(groups) * n_nodes, -1, dtype=np.int32)
    for batch in ([0], [0, 1, 2]):
        _, pair_meet, _ = _labelled_bfs(graph, label, [groups[g] for g in batch],
                                        [walls[g] for g in batch])
        assert pair_meet.tolist() == [_bfs_oracle(n_nodes, edges, groups[g], walls[g])[1]
                                      for g in batch]


def _star_dense(n):
    """_star(n) as H: check 0 on all n variables, check 1 + v on variable v."""
    return np.vstack([np.ones((1, n), dtype=np.uint8), np.eye(n, dtype=np.uint8)])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_tanner(), st.data())
@example(_star_dense(5), None)
@example(_star_dense(8), None)
@example(np.ones((3, 3), dtype=np.uint8), None)
def test_each_meet_gives_the_shortest_cycle_through_its_edge(dense, data):
    # Root check c, walled off, with its variables for sources: source v's
    # meet + 2 is the shortest cycle through edge (c, v), by edge removal.
    # The Tanner graph pads its rows, and cuts the variables' rows to
    # var_rows, or keeps CSR slots: the 5-star pads and the 8-star does not.
    m, n = dense.shape
    graph = _Graph.tanner(SparseBinMatrix.from_dense(dense))
    if data is None:
        roots = list(range(m))
        assert (graph.rows is None) == (n == 8)
    else:
        roots = data.draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=4, unique=True))
    sources = [np.flatnonzero(dense[c]) for c in roots]
    ends = np.cumsum([len(src) for src in sources])
    label = np.full(len(roots) * graph.n_nodes, -1, dtype=np.int32)
    _, pair_meet, meets = _labelled_bfs(graph, label, sources, [n + c for c in roots])
    adj = _adjacency(dense)
    for g, c in enumerate(roots):
        got = meets[ends[g] - len(sources[g]) : ends[g]] + 2
        want = [_cycle_through(adj, ("c", c), ("v", v)) for v in sources[g].tolist()]
        assert got.tolist() == want
        assert pair_meet[g] == min(want, default=math.inf) - 2


def test_product_graphs_pad_their_rows():
    for spec in ("spc:3", "mscmpc:5:3,4", "mscmpc:81:9,10"):
        comp = parse_component_spec(spec)
        assert _Graph.tanner(build_hp(comp, comp).H).rows is not None


def _check_slots(graph: _Graph, nbrs: list) -> None:
    """Node v's first fill[v] slots are nbrs[v], in ascending order, and
    every free slot holds v."""
    assert graph.fill.tolist() == [len(x) for x in nbrs]
    for v, x in enumerate(nbrs):
        own = graph.slots[graph.indptr[v] : graph.indptr[v + 1]].tolist()
        assert own == x + [v] * (len(own) - len(x))


def _check_tanner(dense: np.ndarray, firsts) -> _Graph:
    """_Graph.tanner's slots against a dense reference, then after
    keep_below(first) on a fresh graph for each first in firsts: the
    edges whose ends both lie below first stay, in the same order."""
    m, n = dense.shape
    H = SparseBinMatrix.from_dense(dense)
    nbrs = ([(n + np.flatnonzero(col)).tolist() for col in dense.T]
            + [np.flatnonzero(row).tolist() for row in dense])
    graph = _Graph.tanner(H)
    _check_slots(graph, nbrs)
    for first in firsts:
        kept = _Graph.tanner(H)
        kept.keep_below(first)
        _check_slots(kept, [[u for u in x if u < first] if v < first else []
                            for v, x in enumerate(nbrs)])
    return graph


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_tanner(), st.data())
def test_tanner_slots_in_padded_rows_match_dense(dense, data):
    m, n = dense.shape
    graph = _check_tanner(dense, [data.draw(st.integers(0, n + m), label="first")])
    assume(graph.rows is not None)
    assert graph.rows.base is graph.slots
    assert graph.rows.shape == (n + m, graph.indptr[1])


def test_tanner_slots_in_csr_match_dense():
    # One check on all 40 variables beside 20 checks of degree 4.
    n, m = 40, 21
    dense = np.zeros((m, n), dtype=np.uint8)
    dense[0] = 1
    dense[1 + np.arange(n) % 20, np.arange(n)] = 1
    dense[1 + (np.arange(n) + 1) % 20, np.arange(n)] = 1
    graph = _check_tanner(dense, [0, n, n + 1, n + 11, n + m])
    assert graph.rows is None
    assert np.array_equal(np.diff(graph.indptr), graph.fill)


def test_girth_memory_stays_linear_in_the_edges():
    # One check on all 4000 variables beside 2000 checks of degree 4:
    # padded rows would be 6001 x 4000 slots, 190 MB.
    n, m = 4000, 2001
    dense = np.zeros((m, n), dtype=np.uint8)
    dense[0] = 1
    dense[1 + np.arange(n) % 2000, np.arange(n)] = 1
    dense[1 + (np.arange(n) + 1) % 2000, np.arange(n)] = 1
    H = SparseBinMatrix.from_dense(dense)
    del dense
    # One check alone on 100,000 variables is one root, so its label
    # table is one group of nodes, not a run of _PASS_GROUPS (12.8 MB).
    alone = SparseBinMatrix(1, 100_000, [np.arange(100_000)])
    for H, histogram in ((H, {4.0: n}), (alone, {math.inf: 100_000})):
        tracemalloc.start()
        try:
            report = local_girth(H)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.histogram == histogram
        assert peak < 16 * 2**20


def test_local_girth_is_the_same_in_any_number_of_lanes(lanes, comp5, pc144):
    # Three lanes split 119 and 3,439 check roots unevenly, in calls of
    # 11 groups with a partial last one.
    comp81 = build_mscmpc(81, [9, 10])
    codes = [pc144, build_hp_interleaved(comp5, comp5, design_generic(comp5, comp5, seed=0)),
             build_hp_interleaved(comp81, comp81, load_permutation_array(FIXTURE))]
    for code in codes:
        runs = []
        for cpus in (1, 2, 3):
            pools = lanes(cpus)
            runs.append(local_girth(code.H).per_variable_local_girth)
            assert pools == ([] if cpus == 1 else [cpus - 1])
        assert np.array_equal(runs[0], runs[1]) and np.array_equal(runs[0], runs[2])


class TestFullSize:
    """Seed-1 designs of the (10000,6561) interleaver and the girth
    histograms of the direct and interleaved (10000,6561) codes."""

    @pytest.fixture(scope="class")
    def comp81(self):
        return build_mscmpc(81, [9, 10])

    @pytest.fixture(scope="class")
    def generic(self, comp81):
        return design_generic(comp81, comp81, seed=1)

    def test_generic_design_reproduces_the_fixture(self, generic, tmp_path):
        path = tmp_path / "perms.json"
        save_permutation_array(generic, path)
        assert path.read_bytes() == FIXTURE.read_bytes()

    def test_circulant_design_is_pinned(self, comp81):
        doc = json.dumps([[int(x) for x in p] for p in design_circulant(comp81, comp81, 1).perms])
        assert hashlib.sha256(doc.encode()).hexdigest() == (
            "ee274e7acad1b29299031a1f1ba0013c50ee1571de7aef1211fd640893329869"
        )

    def test_girth_histograms(self, comp81, generic):
        for code in (build_hp(comp81, comp81), build_hp_interleaved(comp81, comp81, generic)):
            assert local_girth(code.H).histogram == {8.0: 9000, math.inf: 1000}


class TestDesigns:
    def test_determinism(self, comp5):
        for design in (design_circulant, design_generic):
            assert design(comp5, comp5, seed=42) == design(comp5, comp5, seed=42)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer"),
        (True, "seed must be an integer"),
        (-1, "seed must be at least 0"),
    ])
    def test_rejects_bad_seed(self, comp5, seed, message):
        for design in (design_circulant, design_generic):
            with pytest.raises(ValueError, match=message):
                design(comp5, comp5, seed)

    def test_seeds_differ(self, comp5):
        a = design_generic(comp5, comp5, seed=0)
        b = design_generic(comp5, comp5, seed=1)
        assert a != b

    def test_output_is_valid_array(self, comp5):
        pa = design_generic(comp5, comp5, seed=7)
        assert pa.n_a == comp5.n and len(pa) == comp5.n
        for p in pa.perms:
            assert np.array_equal(np.sort(p), np.arange(comp5.n))

    def test_circulant_structure(self, comp5):
        pa = design_circulant(comp5, comp5, seed=5)
        for p in pa.perms:
            shift = int(p[0])
            assert np.array_equal(p, (np.arange(comp5.n) + shift) % comp5.n)

    def test_degenerate_block_size_one(self):
        from productldpc import PermutationArray

        # only the identity permutation exists at block size 1
        pa = PermutationArray(1, [[0], [0]])
        assert all(np.array_equal(p, [0]) for p in pa.perms)
        with pytest.raises(ValueError):
            PermutationArray(1, [[1]])

    def test_smallest_real_components(self):
        one = build_spc(1)
        for design in (design_circulant, design_generic):
            pa = design(one, one, seed=0)
            ipc = build_hp_interleaved(one, one, pa)
            assert (ipc.n, ipc.k) == (4, 1)

    def test_girth_bound_holds_for_designs(self, comp5):
        g_a = local_girth(comp5.H).global_girth
        bound = min(g_a, g_a, 8)
        for design in (design_circulant, design_generic):
            for seed in range(3):
                pa = design(comp5, comp5, seed)
                ipc = build_hp_interleaved(comp5, comp5, pa)
                assert local_girth(ipc.H).global_girth >= bound

    def test_identity_shifts_reproduce_direct_code(self, comp5, pc144):
        from productldpc import PermutationArray

        pa = PermutationArray(12, [(np.arange(12) + 0) % 12] * 12)
        assert build_hp_interleaved(comp5, comp5, pa).H == pc144.H


def _bad_cumulative(hist, lengths):
    cum = {}
    total = 0
    for length in lengths:
        total += hist.get(length, 0)
        cum[length] = total
    return cum


class TestVariantComparison:
    def test_generic_histogram_dominates_often(self, comp5):
        """Unconstrained permutations should be at least as good as
        circulants (fewer variables stuck on short cycles) for at least
        half of a 20-seed sweep."""
        wins = 0
        seeds = range(20)
        for seed in seeds:
            h_cir = build_hp_interleaved(
                comp5, comp5, design_circulant(comp5, comp5, seed)
            ).H
            h_gen = build_hp_interleaved(
                comp5, comp5, design_generic(comp5, comp5, seed)
            ).H
            hist_c = local_girth(h_cir).histogram
            hist_g = local_girth(h_gen).histogram
            lengths = sorted(
                set(k for k in hist_c if math.isfinite(k))
                | set(k for k in hist_g if math.isfinite(k))
            )
            cum_c = _bad_cumulative(hist_c, lengths)
            cum_g = _bad_cumulative(hist_g, lengths)
            if all(cum_g[length] <= cum_c[length] for length in lengths):
                wins += 1
        assert wins >= len(seeds) // 2, f"generic dominated only {wins}/20 sweeps"


# First 16 hex digits of the SHA-256 of each design's permutations as a
# JSON list of lists, for seeds 0-3, as the designs stood when the two
# BFS kernels were merged; any drift in a fixed-seed design fails here.
_DESIGN_DIGESTS = {
    ("mscmpc:5:3,4", "mscmpc:5:3,4", "circulant"):
        ["608db16b0d580f8e", "7d3402e74e1da800", "8c5f754c3b48cd0e", "d6086d077c0ff267"],
    ("mscmpc:5:3,4", "mscmpc:5:3,4", "generic"):
        ["8b297dcc07427e58", "9b83a046a882bf89", "91cb5054f06eb16a", "3aef7d89a031fed5"],
    ("spc:3", "mscmpc:5:3,4", "circulant"):
        ["a0681362209fda3d", "bc662abec54ec55a", "85e62f8e0c024544", "903637365c22215b"],
    ("spc:3", "mscmpc:5:3,4", "generic"):
        ["b41323b77885cb08", "2d78d6cd1a081f6c", "7d32bbd3eb7a9638", "b611b7f6b32b6dca"],
    ("mscmpc:9:3,4", "mscmpc:9:3,4", "circulant"):
        ["c5799e07d232e321", "c6694c22bf41cc32", "3a2c7a5377d83235", "857abeccd8d2f104"],
    ("mscmpc:9:3,4", "mscmpc:9:3,4", "generic"):
        ["49444ecc934c1e09", "43cc8a22fe4ca81e", "69ee0506ff00a93d", "a4230e8c3b328567"],
}


@pytest.mark.parametrize("comp_a, comp_b, variant", list(_DESIGN_DIGESTS))
def test_fixed_seed_designs_are_pinned(comp_a, comp_b, variant):
    a, b = parse_component_spec(comp_a), parse_component_spec(comp_b)
    design = design_circulant if variant == "circulant" else design_generic
    digests = []
    for seed in range(4):
        doc = json.dumps([[int(x) for x in p] for p in design(a, b, seed).perms])
        digests.append(hashlib.sha256(doc.encode()).hexdigest()[:16])
    assert digests == _DESIGN_DIGESTS[comp_a, comp_b, variant]
