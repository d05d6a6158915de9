import numpy as np
import pytest
from hypothesis import given, settings

from cutlab import cuts
from cutlab.core_model import (
    ExpandedCore,
    KernelMultigraph,
    expand_paths,
    sample_core_model,
)
from cutlab.cuts import (
    dist_bp_exact,
    dist_bp_via_kernel,
    exact_maxcut,
    giant_cut_algorithm,
    min_bad_edges,
    odd_path_bipartization,
    sandwich_check,
)
from cutlab.errors import GuardLimitError
from cutlab.graph import SparseGraph, decompose_giant, is_bipartite
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp
from oracles import chain_graphs, graphs_with_small_cycles, reference_giant_cut


def cycle(k):
    return [(i, (i + 1) % k) if i < (i + 1) % k else ((i + 1) % k, i)
            for i in range(k)]


def naive_maxcut(g):
    """Independent recount: all 2^n bipartitions, edge by edge."""
    edges = list(g.edge_pairs())
    best = -1
    for mask in range(1 << g.n):
        cut = sum(1 for (u, v) in edges if ((mask >> u) ^ (mask >> v)) & 1)
        best = max(best, cut)
    return best


def naive_lex_best_partition(g):
    """First maximizer in lexicographic label-sequence order."""
    edges = list(g.edge_pairs())
    best, best_labels = -1, None
    for mask in range(1 << g.n):
        labels = [(mask >> (g.n - 1 - v)) & 1 for v in range(g.n)]
        if labels[0] == 1:
            continue
        cut = sum(1 for (u, v) in edges if labels[u] != labels[v])
        if cut > best:
            best, best_labels = cut, labels
    return best, best_labels


def petersen():
    edges = set()
    for i in range(5):
        edges.add(tuple(sorted((i, (i + 1) % 5))))
        edges.add((i, i + 5))
        edges.add(tuple(sorted((5 + i, 5 + (i + 2) % 5))))
    return SparseGraph(10, sorted(edges))


def manual_core(path_specs):
    """Build an ExpandedCore by hand from (kernel_u, kernel_v, length)."""
    kernel_n = 1 + max(max(u, v) for u, v, _ in path_specs)
    pairs, lengths, ids = [], [], []
    next_v, next_e = kernel_n, 0
    for u, v, ell in path_specs:
        lengths.append(ell)
        if ell == 1:
            pairs.append((u, v))
            ids.append(np.array([next_e]))
            next_e += 1
            continue
        lo, hi = min(u, v), max(u, v)
        chain = [lo] + list(range(next_v, next_v + ell - 1)) + [hi]
        next_v += ell - 1
        ids.append(np.arange(next_e, next_e + ell))
        next_e += ell
        pairs.extend(zip(chain[:-1], chain[1:]))
    return ExpandedCore(
        graph=SparseGraph(next_v, pairs),
        kernel=KernelMultigraph(kernel_n, [(u, v) for u, v, _ in path_specs]),
        kernel_to_core=np.arange(kernel_n),
        path_lengths=np.array(lengths),
        path_edge_ids=ids,
    )


def test_exact_maxcut_small_cases():
    assert exact_maxcut(SparseGraph(3, cycle(3))).cut_size == 2
    assert exact_maxcut(SparseGraph(5, cycle(5))).cut_size == 4
    k4 = SparseGraph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert exact_maxcut(k4).cut_size == 4


def test_exact_maxcut_petersen_golden():
    # frozen from the exhaustive 2^10 recount
    res = exact_maxcut(petersen())
    assert res.cut_size == 12
    assert naive_maxcut(petersen()) == 12


def test_exact_maxcut_agrees_with_naive_recount():
    gen = RngSpec(71).generator()
    for trial in range(120):
        n = 2 + trial % 7
        p = (0.2, 0.5, 0.8)[trial % 3]
        g = sample_gnp(n, p, gen)
        assert exact_maxcut(g).cut_size == naive_maxcut(g), (n, p, trial)


def test_exact_maxcut_partition_is_lex_least():
    gen = RngSpec(73).generator()
    for trial in range(60):
        g = sample_gnp(2 + trial % 6, 0.5, gen)
        cut, labels = naive_lex_best_partition(g)
        res = exact_maxcut(g)
        assert res.cut_size == cut
        assert res.partition.tolist() == labels


def test_exact_maxcut_partition_consistency():
    gen = RngSpec(74).generator()
    for _ in range(40):
        g = sample_gnp(9, 0.4, gen)
        res = exact_maxcut(g)
        crossing = int((res.partition[g.eu] != res.partition[g.ev]).sum())
        assert crossing == res.cut_size
        assert len(res.deleted_edge_ids) == g.m - res.cut_size
        assert is_bipartite(g.delete_edges(res.deleted_edge_ids)) is not None


def test_exact_guard():
    with pytest.raises(GuardLimitError):
        exact_maxcut(SparseGraph(31))
    assert exact_maxcut(SparseGraph(31), limit=31).cut_size == 0


def test_dist_bp_small_cases():
    tree = SparseGraph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])
    assert dist_bp_exact(tree) == 0
    assert dist_bp_exact(SparseGraph(3, cycle(3))) == 1
    two_triangles = SparseGraph(6, cycle(3) + [(3, 4), (4, 5), (3, 5)])
    assert dist_bp_exact(two_triangles) == 2


def test_dist_bp_monotone_under_subgraphs():
    gen = RngSpec(79).generator()
    for _ in range(30):
        g = sample_gnp(13, 0.35, gen)
        if g.m == 0:
            continue
        keep = np.flatnonzero(gen.random(g.m) < 0.7)
        sub = SparseGraph(g.n, np.column_stack([g.eu[keep], g.ev[keep]]))
        assert dist_bp_exact(sub) <= dist_bp_exact(g)


def test_giant_cut_forest_and_odd_cycle():
    forest = SparseGraph(6, [(0, 1), (1, 2), (3, 4)])
    res = giant_cut_algorithm(forest)
    assert res.deleted_edge_ids == frozenset()
    assert res.cut_size == forest.m

    res = giant_cut_algorithm(SparseGraph(7, cycle(7)))
    assert len(res.deleted_edge_ids) == 1
    assert res.cut_size == 6


def test_giant_cut_on_connected_expanded_core():
    # theta kernel expanded: deletions = number of kernel paths
    core = manual_core([(0, 1, 3), (0, 1, 2), (0, 1, 4)])
    res = giant_cut_algorithm(core.graph)
    assert len(res.deleted_edge_ids) == 3


def test_giant_cut_always_bipartizes():
    gen = RngSpec(83).generator()
    for c in (0.7, 1.3, 2.5):
        for _ in range(10):
            g = sample_gnp(2000, c / 2000, gen)
            res = giant_cut_algorithm(g)
            rem = g.delete_edges(res.deleted_edge_ids)
            part = is_bipartite(rem)
            assert part is not None
            assert res.cut_size == g.m - len(res.deleted_edge_ids)
            assert (part[rem.eu] != part[rem.ev]).all()


def test_odd_path_bipartization_even_paths_empty():
    core = manual_core([(0, 1, 2), (0, 1, 4), (0, 1, 2)])
    assert odd_path_bipartization(core) == set()
    assert is_bipartite(core.graph) is not None


def test_odd_path_bipartization_all_odd():
    core = manual_core([(0, 1, 3), (0, 1, 5), (0, 1, 1)])
    cut = odd_path_bipartization(core)
    assert len(cut) == core.kernel.m
    assert is_bipartite(core.graph.delete_edges(cut)) is not None


def test_odd_path_bipartization_sampled_cores():
    for s in range(20):
        core = sample_core_model(4000, 0.3, RngSpec(89, s))
        cut = odd_path_bipartization(core)
        assert is_bipartite(core.graph.delete_edges(cut)) is not None


def test_odd_path_bipartization_rejects_plain_graph():
    with pytest.raises(TypeError):
        odd_path_bipartization(SparseGraph(3, cycle(3)))


def naive_min_bad(kernel, parities):
    # bad iff (inside a block and odd) or (crossing and even),
    # i.e. crossing bit != parity bit
    best = None
    for mask in range(1 << kernel.n):
        bad = sum(
            1
            for e in range(kernel.m)
            if (((mask >> int(kernel.eu[e])) ^ (mask >> int(kernel.ev[e]))) & 1)
            != parities[e] % 2
        )
        best = bad if best is None else min(best, bad)
    return best


def test_min_bad_edges_loop_and_parallel():
    assert min_bad_edges(KernelMultigraph(1, [(0, 0)]), [1]) == 1
    assert min_bad_edges(KernelMultigraph(1, [(0, 0)]), [0]) == 0
    triple = KernelMultigraph(2, [(0, 1)] * 3)
    assert min_bad_edges(triple, [0, 0, 0]) == 0
    assert min_bad_edges(triple, [1, 1, 1]) == 0  # all crossing, all odd
    assert min_bad_edges(triple, [1, 0, 0]) == 1  # parity conflict forced


def test_min_bad_edges_matches_brute_force():
    gen = RngSpec(97).generator()
    for _ in range(60):
        # random cubic-ish multigraph on 6 vertices
        stubs = np.repeat(np.arange(6), 3)
        stubs = stubs[gen.permutation(stubs.size)]
        kernel = KernelMultigraph(6, np.column_stack([stubs[0::2], stubs[1::2]]))
        parities = (gen.random(kernel.m) < 0.5).astype(int)
        assert min_bad_edges(kernel, parities) == naive_min_bad(kernel, parities)


@pytest.mark.parametrize("block", [1, 4, 64])
def test_engine_across_many_blocks(monkeypatch, block):
    # tiny blocks split the labeling table of these small graphs into many
    # products, so ties between blocks must keep the earlier witness
    monkeypatch.setattr(cuts, "_BLOCK", block)
    gen = RngSpec(109).generator()
    for trial in range(80):
        g = sample_gnp(2 + trial % 8, (0.2, 0.4, 0.7)[trial % 3], gen)
        cut, labels = naive_lex_best_partition(g)
        res = exact_maxcut(g)
        assert (res.cut_size, res.partition.tolist()) == (cut, labels), trial
    for trial in range(80):
        n = 1 + trial % 8
        ends = gen.integers(0, n, size=(int(gen.integers(1, 3 * n + 1)), 2))
        kernel = KernelMultigraph(n, ends)  # loops and parallel edges
        parities = gen.integers(0, 2, size=kernel.m)
        assert min_bad_edges(kernel, parities) == naive_min_bad(kernel, parities)


def test_min_bad_edges_equals_exact_distance_on_model_cores():
    accepted = stream = 0
    while accepted < 400:
        core = sample_core_model(60, 0.45, RngSpec(113, stream))
        stream += 1
        if core.kernel.m == 0 or core.graph.n > 20:
            continue
        accepted += 1
        assert (min_bad_edges(core.kernel, core.parities)
                == dist_bp_exact(core.graph)), stream


def test_min_bad_edges_guard_and_validation():
    big = KernelMultigraph(25, [(0, 1)])
    with pytest.raises(GuardLimitError):
        min_bad_edges(big, [1])
    with pytest.raises(ValueError):
        min_bad_edges(KernelMultigraph(2, [(0, 1)]), [1, 0])


def test_sandwich_bipartite_core():
    core = manual_core([(0, 1, 2), (0, 1, 2), (0, 1, 4)])
    assert sandwich_check(core) == (0, 0, 0)


def test_sandwich_single_odd_cycle():
    core = manual_core([(0, 0, 5)])
    assert sandwich_check(core) == (1, 1, 1)


def test_sandwich_random_cores():
    kernel = KernelMultigraph(4, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2), (1, 3)])
    for s in range(25):
        core = expand_paths(kernel, 0.55, RngSpec(103, s))
        if core.graph.n > 30:
            continue
        lower, exact, upper = sandwich_check(core)
        assert lower <= exact <= upper


def test_dist_bp_via_kernel_matches_exact():
    gen = RngSpec(107).generator()
    for trial in range(100):
        g = sample_gnp(16, (1.2 + (trial % 5) * 0.4) / 16, gen)
        assert dist_bp_via_kernel(g) == dist_bp_exact(g), trial


def test_cut_result_json():
    res = exact_maxcut(SparseGraph(3, cycle(3)))
    import json

    data = json.loads(res.to_json())
    assert data["cut_size"] == 2
    assert set(data) == {"cut_size", "partition", "deleted_edge_ids"}
    assert len(data["partition"]) == 3


def assert_same_cut(got, want):
    assert got.cut_size == want.cut_size
    assert np.array_equal(got.partition, want.partition)
    assert got.deleted_edge_ids == want.deleted_edge_ids


@settings(deadline=None)
@given(graphs_with_small_cycles())
def test_giant_cut_matches_reference_with_cyclic_small_components(g):
    want = reference_giant_cut(g)
    assert_same_cut(giant_cut_algorithm(g), want)
    assert_same_cut(giant_cut_algorithm(g, decompose_giant(g)), want)


@settings(deadline=None)
@given(chain_graphs())
def test_giant_cut_matches_reference_on_built_chains(g):
    assert_same_cut(giant_cut_algorithm(g), reference_giant_cut(g))


def test_giant_cut_rejects_foreign_decomposition():
    g = SparseGraph(4, cycle(4))
    with pytest.raises(ValueError):
        giant_cut_algorithm(g, decompose_giant(SparseGraph(3, cycle(3))))
