import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cutlab import graph
from cutlab.graph import (
    SparseGraph,
    component_labels,
    decompose_giant,
    dump_edge_list,
    induced_subgraph,
    is_bipartite,
    kernel_paths,
    odd_girth,
    parse_edge_list,
    two_core,
)
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp
from oracles import (
    chain_graphs,
    chain_tuples,
    giants_with_trees,
    graphs_with_small_cycles,
    reference_kernel_paths,
    reference_odd_girth,
    reference_two_core,
)


def cycle(k, offset=0):
    return [(offset + i, offset + (i + 1) % k) if i < (i + 1) % k
            else (offset + (i + 1) % k, offset + i) for i in range(k)]


def test_construction_rejects_bad_edges():
    with pytest.raises(ValueError):
        SparseGraph(3, [(0, 0)])
    with pytest.raises(ValueError):
        SparseGraph(3, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        SparseGraph(3, [(0, 3)])
    with pytest.raises(ValueError):
        SparseGraph(3, [(-1, 2)])


def test_vertex_count_must_be_an_integer():
    for bad in (-1, 3.7, 3.0, True, "3", None):
        with pytest.raises(ValueError, match="vertex count"):
            SparseGraph(bad)
    g = SparseGraph(np.int32(3), [(0, 2)])
    assert type(g.n) is int and g.n == 3


@pytest.mark.parametrize("edges", [
    [(0.7, 2.2)], np.array([[0.7, 2.2]]), [(0.0, 2.0)], [(True, 2)],
    np.array([[True, False]]), [("0", "2")], [(0, 2 ** 63)], [(0, -2 ** 63 - 1)],
    np.array([[0, 2 ** 63]], dtype=np.uint64),
], ids=["floats", "float-array", "whole-floats", "bool", "bool-array",
        "strings", "past-int64", "below-int64", "uint64-past-int64"])
def test_edges_must_be_integers(edges):
    with pytest.raises(ValueError, match="edges must"):
        SparseGraph(3, edges)


def test_empty_and_integer_edge_inputs_are_valid():
    for empty in ([], (), np.zeros((0, 2)), np.zeros(0, dtype=np.uint8)):
        assert SparseGraph(3, empty).m == 0
    for edges in ([(np.int64(0), 2)], np.array([[0, 2]], dtype=np.uint32),
                  [np.array([0, 2])]):
        g = SparseGraph(3, edges)
        assert (g.eu.dtype, g.eu.tolist(), g.ev.tolist()) == (np.int64, [0], [2])


@pytest.mark.parametrize("edges", [
    [(0, 2), (0, 1), (0, 2)],  # unsorted duplicate
    [(3, 1), (1, 3)],  # one edge given in both orientations
    [(0, 1), (1, 2), (1, 2)],  # sorted, adjacent duplicate
])
def test_construction_rejects_duplicates_sorted_or_not(edges):
    with pytest.raises(ValueError, match="duplicate"):
        SparseGraph(4, edges)


@pytest.mark.parametrize("body", ["0 5\n4 5\n", "4 5\n0 5\n"])
def test_duplicate_check_holds_for_huge_vertex_counts(body):
    # pair codes u * n + v would collide: 4 * 2^62 + 5 wraps to 5 in int64
    g = parse_edge_list("4611686018427387904 2\n" + body)
    assert (g.n, g.m) == (2 ** 62, 2)
    assert g.edge_set() == {(0, 5), (4, 5)}
    with pytest.raises(ValueError, match="duplicate"):
        parse_edge_list("4611686018427387904 3\n" + body + "0 5\n")


def test_components_edgeless():
    labels, sizes = component_labels(SparseGraph(3))
    assert labels.tolist() == [0, 1, 2] and sizes.tolist() == [1, 1, 1]


def test_components_triangle():
    labels, sizes = component_labels(
        SparseGraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert labels.tolist() == [0, 0, 0] and sizes.tolist() == [3]


def test_components_path_plus_isolated():
    labels, sizes = component_labels(SparseGraph(4, [(0, 1), (1, 2)]))
    assert labels.tolist() == [0, 0, 0, 1] and sizes.tolist() == [3, 1]


def test_components_tie_break_by_smallest_vertex():
    g = SparseGraph(4, [(0, 1), (2, 3)])
    labels, sizes = component_labels(g)
    assert labels.tolist() == [0, 0, 1, 1] and sizes.tolist() == [2, 2]


@st.composite
def labelling_inputs(draw):
    """G(n, c/n) with n = 0..40 or next to ``_SMALL``, c = 0 (edgeless) to
    4, as sampled or after ``delete_edges`` or ``induced_subgraph`` with a
    random mask, so isolated vertices and many components are common."""
    n = draw(st.one_of(st.integers(0, 40),
                       st.integers(graph._SMALL - 2, graph._SMALL + 2)))
    c = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    g = sample_gnp(n, min(c / n, 1.0), RngSpec(seed)) if n and c else SparseGraph(n)
    rng = np.random.default_rng(seed)
    derive = draw(st.sampled_from(["sampled", "delete_edges", "induced_subgraph"]))
    if derive == "delete_edges":
        g = g.delete_edges(np.flatnonzero(rng.random(g.m) < 0.3))
    elif derive == "induced_subgraph":
        g = induced_subgraph(g, rng.random(g.n) < 0.8)[0]
    return g


@settings(deadline=None, max_examples=150)
@given(labelling_inputs())
@example(SparseGraph(0))
@example(SparseGraph(1))
@example(SparseGraph(2))
@example(SparseGraph(2, [(0, 1)]))
@example(SparseGraph(graph._SMALL))
@example(SparseGraph(graph._SMALL + 1))
def test_one_pass_matches_scipy_and_numpy_bfs(g):
    (labels, sizes), (color, owner) = graph._one_pass(g)
    want_labels, want_sizes = graph._scipy_labels(g)
    want_color, want_owner = graph._bfs_two_color(
        g, graph._smallest_per_label(want_labels, want_sizes.size))
    for got, want in ((labels, want_labels), (sizes, want_sizes),
                      (color, want_color), (owner, want_owner)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable
    # the cached pairs come from the path _SMALL picks, read-only either way:
    # only the one pass colours a graph while it labels it
    h = copy.deepcopy(g)
    cached = component_labels(h)
    assert (h._coloring is not None) == (h.n <= graph._SMALL)
    cached += graph._bfs_two_color(h)
    for got, want in zip(cached, (labels, sizes, color, owner)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not got.flags.writeable


@settings(deadline=None, max_examples=100)
@given(labelling_inputs())
@example(SparseGraph(0))
@example(SparseGraph(3, [(0, 2), (1, 2), (0, 1)]))
def test_neighbor_view_matches_the_csr_adjacency(g):
    view = g._neighbor_view()
    assert type(view) is tuple and len(view) == g.n
    for v, nbrs in enumerate(view):
        assert type(nbrs) is tuple and list(nbrs) == g.neighbors(v)[0].tolist()
    assert g._neighbor_view() is view


def test_two_core_tree_empty():
    tree = SparseGraph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    dec = two_core(tree)
    assert dec.graph.n == 0 and dec.graph.m == 0


def test_two_core_cycle_fixed():
    c5 = SparseGraph(5, cycle(5))
    dec = two_core(c5)
    assert dec.graph.n == 5 and dec.graph.m == 5
    assert dec.vertices.tolist() == [0, 1, 2, 3, 4]


def test_two_core_triangle_with_pendant():
    g = SparseGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    dec = two_core(g)
    assert dec.graph.n == 3 and dec.graph.m == 3
    assert dec.vertices.tolist() == [0, 1, 2]
    assert dec.edge_ids.tolist() == [0, 1, 2]


def test_two_core_idempotent_on_random_graphs():
    gen = RngSpec(101).generator()
    for _ in range(25):
        g = sample_gnp(80, 1.5 / 80, gen)
        dec = two_core(g)
        again = two_core(dec.graph)
        assert again.graph.n == dec.graph.n
        assert again.graph.m == dec.graph.m
        assert again.vertices.tolist() == list(range(dec.graph.n))


def assert_same_core(got, want):
    assert np.array_equal(got.vertices, want.vertices)
    assert np.array_equal(got.edge_ids, want.edge_ids)
    assert got.graph.n == want.graph.n
    assert np.array_equal(got.graph.eu, want.graph.eu)
    assert np.array_equal(got.graph.ev, want.graph.ev)


@settings(deadline=None, max_examples=80)
@given(st.one_of(graphs_with_small_cycles(), chain_graphs(), giants_with_trees()))
def test_two_core_matches_reference(g):
    assert_same_core(two_core(g), reference_two_core(g))


def test_two_core_matches_reference_on_deep_trees():
    # a pendant path 60 deep, a broom and a tree between two cycles take
    # one peeling round per level
    path = [(i, i + 1) for i in range(5, 65)]
    broom = [(65 + i, 66 + i) for i in range(20)] + [(85, 86 + i) for i in range(9)]
    g = SparseGraph(100, cycle(5) + path + [(0, 65)] + broom
                    + cycle(4, offset=96) + [(70, 96)])
    assert_same_core(two_core(g), reference_two_core(g))
    gen = RngSpec(103).generator()
    for c in (0.5, 1.1, 1.5, 3.0):
        g = sample_gnp(3000, c / 3000, gen)
        assert_same_core(two_core(g), reference_two_core(g))


def test_is_bipartite_c4_and_c5():
    part = is_bipartite(SparseGraph(4, cycle(4)))
    assert part is not None
    assert part.tolist() == [0, 1, 0, 1]
    assert is_bipartite(SparseGraph(5, cycle(5))) is None


def test_is_bipartite_empty_graph():
    part = is_bipartite(SparseGraph(4))
    assert part is not None and part.tolist() == [0, 0, 0, 0]


def test_odd_girth_examples():
    assert odd_girth(SparseGraph(7, cycle(7))) == 7
    assert odd_girth(SparseGraph(4, cycle(4))) is None
    tri_pendant = SparseGraph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    assert odd_girth(tri_pendant) == 3


def test_bipartite_iff_no_odd_girth():
    gen = RngSpec(55).generator()
    for _ in range(40):
        g = sample_gnp(22, 2.0 / 22, gen)
        assert (is_bipartite(g) is None) == (odd_girth(g) is not None)


@pytest.mark.parametrize("seed", (1, 7, 1 << 20))
def test_odd_girth_matches_reference(seed):
    gen = RngSpec(seed).generator()
    graphs = [SparseGraph(0), SparseGraph(5),
              SparseGraph(12, cycle(9, offset=2)),
              SparseGraph(9, cycle(5) + cycle(3, offset=6)),
              SparseGraph(10, cycle(4) + cycle(6, offset=4))]
    graphs += [sample_gnp(n, min(c / n, 1.0), gen) for n in (3, 10, 30, 60)
               for c in (1.0, 2.0, 4.0)]
    for g in graphs:
        assert odd_girth(g) == reference_odd_girth(g)


@settings(deadline=None, max_examples=60)
@given(graphs_with_small_cycles())
def test_odd_girth_matches_reference_on_small_cycles(g):
    assert odd_girth(g) == reference_odd_girth(g)


@settings(deadline=None, max_examples=40)
@given(chain_graphs(longest=21))
def test_odd_girth_matches_reference_on_long_odd_chains(g):
    assert odd_girth(g) == reference_odd_girth(g)


def closures_counted(monkeypatch, g):
    """odd_girth(g) and the sources it ran a BFS from, in order."""
    sources = []
    closure = graph._odd_closure_from

    def counted(nbrs, s, best):
        sources.append(s)
        return closure(nbrs, s, best)

    monkeypatch.setattr(graph, "_odd_closure_from", counted)
    return odd_girth(g), sources


def test_odd_girth_keeps_a_shorter_cycle_scanned_later(monkeypatch):
    # the C9 on 0..8 is scanned first and closes at 9 from every source;
    # the triangle on 9..11 comes after and must win
    g = SparseGraph(12, cycle(9) + cycle(3, offset=9))
    assert closures_counted(monkeypatch, g) == (3, list(range(12)))


def test_odd_girth_runs_no_bfs_on_bipartite_components(monkeypatch):
    even = SparseGraph(10, cycle(6) + [(0, 3)] + cycle(4, offset=6))
    assert closures_counted(monkeypatch, even) == (None, [])
    # beside a C5, the C4 on 5..8 and the isolated vertex 9 are no sources
    g = SparseGraph(10, cycle(5) + cycle(4, offset=5))
    assert closures_counted(monkeypatch, g) == (5, [0, 1, 2, 3, 4])


class LoggedLists(tuple):
    """A neighbour view that logs the vertices whose lists are read."""

    def __new__(cls, lists):
        view = super().__new__(cls, lists)
        view.read = []
        return view

    def __getitem__(self, v):
        self.read.append(v)
        return tuple.__getitem__(self, v)


def test_odd_girth_stops_each_bfs_at_the_best_closure():
    # a triangle 0-1-2 with the path 2-3-4-5-6-7 hung on it: from 7 the
    # walk closes at level 6, 2 * 6 + 1 = 13
    g = SparseGraph(8, cycle(3) + [(i, i + 1) for i in range(2, 7)])
    for best, want, read in ((14, 13, [7, 6, 5, 4, 3, 2, 1]),
                             (13, 13, [7, 6, 5, 4, 3, 2]),
                             (9, 9, [7, 6, 5, 4]),
                             (3, 3, [7])):
        nbrs = LoggedLists(g._neighbor_view())
        assert graph._odd_closure_from(nbrs, 7, best) == want
        assert nbrs.read == read
    nbrs = LoggedLists(g._neighbor_view())
    assert graph._odd_closure_from(nbrs, 0, 9) == 3 and nbrs.read == [0, 1]
    assert odd_girth(g) == 3


@pytest.mark.parametrize("small", [0, 11])
def test_odd_girth_past_small_matches_reference(monkeypatch, small):
    # the clashing components come from scipy's labels and the numpy BFS,
    # and a bipartite graph past _SMALL builds no neighbour view at all
    monkeypatch.setattr(graph, "_SMALL", small)
    gen = RngSpec(59).generator()
    graphs = [SparseGraph(12, cycle(9) + cycle(3, offset=9)),
              SparseGraph(10, cycle(5) + cycle(4, offset=5))]
    graphs += [sample_gnp(n, c / n, gen) for n in (12, 40) for c in (1.5, 3.0)]
    for g in graphs:
        assert odd_girth(g) == reference_odd_girth(g)
        assert g._coloring is not None
        assert (g._view is None) == (odd_girth(g) is None)


def test_kernel_paths_bare_cycle():
    paths = kernel_paths(SparseGraph(6, cycle(6)))
    assert len(paths) == 1
    assert paths.a[0] == paths.b[0] == 0 and paths.lengths[0] == 6


def test_kernel_paths_theta():
    # two degree-3 vertices joined by paths of lengths 1, 2, 2
    theta = SparseGraph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    paths = kernel_paths(theta)
    assert sorted(paths.lengths.tolist()) == [1, 2, 2]
    assert (paths.a == 0).all() and (paths.b == 1).all()


def test_kernel_paths_k4():
    k4 = SparseGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    paths = kernel_paths(k4)
    assert len(paths) == 6
    assert (paths.lengths == 1).all()


def test_kernel_paths_rejects_low_degree():
    with pytest.raises(ValueError):
        kernel_paths(SparseGraph(2, [(0, 1)]))
    with pytest.raises(ValueError):
        kernel_paths(SparseGraph(4, cycle(3) + [(0, 3)]))


def test_kernel_paths_partition_edges():
    gen = RngSpec(7).generator()
    for _ in range(30):
        g = sample_gnp(120, 1.6 / 120, gen)
        core = two_core(g).graph
        if core.m == 0:
            continue
        paths = kernel_paths(core)
        assert sorted(paths.edge_ids.tolist()) == list(range(core.m))
        assert paths.lengths.sum() == core.m
        deg = core.degrees()
        open_chain = paths.a != paths.b
        assert (deg[paths.a[open_chain]] >= 3).all()
        assert (deg[paths.b[open_chain]] >= 3).all()


@settings(deadline=None)
@given(chain_graphs())
def test_kernel_paths_match_reference_on_built_chains(core):
    assert chain_tuples(kernel_paths(core)) == reference_kernel_paths(core)


@settings(deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(3, 80), st.floats(1.0, 3.5))
def test_kernel_paths_match_reference_on_random_cores(seed, n, c):
    core = two_core(sample_gnp(n, min(c / n, 1.0), RngSpec(seed))).graph
    assert chain_tuples(kernel_paths(core)) == reference_kernel_paths(core)


@settings(deadline=None, max_examples=50)
@given(graphs_with_small_cycles())
def test_decompose_giant_matches_separate_steps(g):
    dec = decompose_giant(g)
    labels, sizes = component_labels(g)
    giant, _, giant_edge_ids = induced_subgraph(g, labels == 0)
    core = two_core(giant)
    assert np.array_equal(dec.labels, labels) and np.array_equal(dec.sizes, sizes)
    assert np.array_equal(dec.giant_edge_ids, giant_edge_ids)
    assert np.array_equal(dec.core.vertices, core.vertices)
    assert np.array_equal(dec.core.edge_ids, core.edge_ids)
    assert chain_tuples(dec.paths) == reference_kernel_paths(core.graph)


def test_deleting_one_edge_per_path_leaves_forest():
    gen = RngSpec(13).generator()
    for _ in range(25):
        g = sample_gnp(300, 1.4 / 300, gen)
        core = two_core(g).graph
        if core.m == 0:
            continue
        reps = kernel_paths(core).last_edge_ids
        left = core.delete_edges(reps)
        labels, sizes = component_labels(left)
        assert left.m == left.n - len(sizes)  # acyclic


def test_induced_subgraph_reindexing():
    g = SparseGraph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 3)])
    sub, verts, eids = induced_subgraph(g, np.array([False, True, True, True, False]))
    assert verts.tolist() == [1, 2, 3]
    assert sub.n == 3 and sub.m == 3
    assert eids.tolist() == [1, 2, 4]


def test_edge_list_roundtrip():
    g = SparseGraph(5, [(0, 3), (1, 2), (2, 4)])
    text = dump_edge_list(g)
    assert text.splitlines()[0] == "5 3"
    h = parse_edge_list(text)
    assert h.n == g.n and h.edge_set() == g.edge_set()


def test_edge_list_reader_rejects_garbage():
    with pytest.raises(ValueError):
        parse_edge_list("")
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n1 0")  # u < v violated
    with pytest.raises(ValueError):
        parse_edge_list("2 1\n0 2")  # out of range
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1\n0 1")  # duplicate
    with pytest.raises(ValueError):
        parse_edge_list("3 2\n0 1")  # wrong edge count
    for text in ["3 1\n0 99999999999999999999",  # outside int64
                 "99999999999999999999 0",  # header outside int64
                 "3 1\n0 1 # no comments", "3 1\n0 1 2", "3 1\n0", "3 1\n0 1.5",
                 "3\n"]:
        with pytest.raises(ValueError):
            parse_edge_list(text)


def test_adjacency_refuses_codes_past_int64():
    # head * 2m + entry would wrap: 2^62 vertices, 2 edges, 4 entries
    g = SparseGraph(2 ** 62, [(0, 1), (2, 3)])
    with pytest.raises(ValueError, match="too large"):
        g._adjacency()


def test_delete_edges_rejects_out_of_range_ids():
    g = SparseGraph(3, [(0, 1), (1, 2)])
    for bad in ([-1], [g.m], [0, -1], np.array([2])):
        with pytest.raises(ValueError, match="edge id out of range"):
            g.delete_edges(bad)
    assert g.delete_edges([1]).edge_set() == {(0, 1)}
    assert g.delete_edges(frozenset()).edge_set() == g.edge_set()


def test_delete_edges_rejects_non_integer_ids():
    g = SparseGraph(3, [(0, 1), (1, 2)])
    for bad in ([0.5], np.array([1.0]), [True], ["1"]):
        with pytest.raises(ValueError, match="edge ids must be integers"):
            g.delete_edges(bad)


def test_graph_arrays_and_cached_invariants_are_read_only():
    g = SparseGraph(9, cycle(5) + cycle(4, offset=5))
    labels, sizes = component_labels(g)
    color, owner = graph._bfs_two_color(g)
    for arr in (g.eu, g.ev, labels, sizes, color, owner, *g._adjacency(),
                g.neighbors(0)[0]):
        with pytest.raises(ValueError):
            arr[0] = 1
    view = g._neighbor_view()
    for seq in (view, view[0]):
        with pytest.raises(TypeError):
            seq[0] = 1
    assert view[0] == (1, 4) and view[5] == (6, 8)
    # the values every later call reads are intact
    assert labels.tolist() == [0] * 5 + [1] * 4 and sizes.tolist() == [5, 4]
    assert color.tolist() == [0, 1, 0, 0, 1, 0, 1, 0, 1]
    assert owner.tolist() == labels.tolist()


def test_cached_invariants_are_returned_again():
    g = SparseGraph(9, cycle(5) + cycle(4, offset=5))
    assert component_labels(g) is component_labels(g)
    assert graph._bfs_two_color(g) is graph._bfs_two_color(g)
    # a caller's copy is its own: writing into it reaches no later call
    part = is_bipartite(SparseGraph(4, cycle(4)))
    part[:] = 0
    assert is_bipartite(SparseGraph(4, cycle(4))).tolist() == [0, 1, 0, 1]


def test_rooted_coloring_is_the_callers_own():
    g = SparseGraph(6, cycle(6))
    color, owner = graph._bfs_two_color(g, np.array([3]))
    color ^= 1  # giant_cut_algorithm flips trees in place
    assert graph._bfs_two_color(g)[0].tolist() == [0, 1, 0, 1, 0, 1]


def test_copies_are_rebuilt_read_only_with_the_same_invariants():
    g = SparseGraph(9, cycle(5) + cycle(4, offset=5))
    want = ([a.tolist() for a in component_labels(g)], odd_girth(g))
    for h in (copy.deepcopy(g), pickle.loads(pickle.dumps(g))):
        assert (h.n, h.edge_set()) == (g.n, g.edge_set())
        with pytest.raises(ValueError):
            h.eu[0] = 1
        assert ([a.tolist() for a in component_labels(h)], odd_girth(h)) == want
