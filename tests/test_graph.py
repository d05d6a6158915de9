import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlab import graph
from cutlab.graph import (
    SparseGraph,
    component_labels,
    connected_components,
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
    graphs_with_small_cycles,
    reference_kernel_paths,
    reference_odd_girth,
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
    comps = connected_components(SparseGraph(3))
    assert comps == [{0}, {1}, {2}]


def test_components_triangle():
    comps = connected_components(SparseGraph(3, [(0, 1), (1, 2), (0, 2)]))
    assert comps == [{0, 1, 2}]


def test_components_path_plus_isolated():
    comps = connected_components(SparseGraph(4, [(0, 1), (1, 2)]))
    assert comps == [{0, 1, 2}, {3}]


def test_components_tie_break_by_smallest_vertex():
    g = SparseGraph(4, [(0, 1), (2, 3)])
    assert connected_components(g) == [{0, 1}, {2, 3}]


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


CELLS = (1, 7, graph._CELLS)  # one source per block, a few, the default


@pytest.mark.parametrize("cells", CELLS)
def test_odd_girth_matches_reference(monkeypatch, cells):
    monkeypatch.setattr(graph, "_CELLS", cells)
    gen = RngSpec(57).generator()
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
    want = reference_odd_girth(g)
    for cells in CELLS:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(graph, "_CELLS", cells)
            assert odd_girth(g) == want


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
