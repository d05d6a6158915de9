import dataclasses
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlab import cuts
from cutlab.core_model import (
    ExpandedCore,
    KernelMultigraph,
    expand_paths,
    sample_core_model,
)
from cutlab.cuts import (
    EXACT_LIMIT,
    dist_bp_exact,
    dist_bp_via_kernel,
    exact_maxcut,
    giant_cut_algorithm,
    min_bad_edges,
    odd_path_bipartization,
    sandwich_check,
)
from cutlab.errors import GuardLimitError
from cutlab.graph import (KernelChains, SparseGraph, decompose_giant,
                          is_bipartite, kernel_paths)
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp
from oracles import (chain_graphs, giants_with_trees, graphs_with_small_cycles,
                     kernel_multigraphs, reference_giant_cut,
                     reference_least_labeling)


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
        edge_ids=np.concatenate(ids),
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
    assert odd_path_bipartization(core.graph, core.chains).tolist() == []
    assert is_bipartite(core.graph) is not None


def test_odd_path_bipartization_all_odd():
    core = manual_core([(0, 1, 3), (0, 1, 5), (0, 1, 1)])
    cut = odd_path_bipartization(core.graph, core.chains)
    assert cut.tolist() == [2, 7, 8]  # each chain's last edge
    assert is_bipartite(core.graph.delete_edges(cut)) is not None


def test_odd_path_bipartization_sampled_cores():
    for s in range(20):
        core = sample_core_model(4000, 0.3, RngSpec(89, s))
        cut = odd_path_bipartization(core.graph, core.chains)
        assert is_bipartite(core.graph.delete_edges(cut)) is not None


def test_odd_path_bipartization_rejects_plain_graph():
    # a plain graph is cut only together with its chain table
    g = SparseGraph(3, cycle(3))
    with pytest.raises(TypeError):
        odd_path_bipartization(g)
    assert odd_path_bipartization(g, kernel_paths(g)).tolist() == [2]


@settings(deadline=None)
@given(chain_graphs())
def test_odd_path_bipartization_certifies_real_chain_tables(core):
    paths = kernel_paths(core)
    cut = odd_path_bipartization(core, paths)
    assert cut.tolist() == paths.last_edge_ids[paths.lengths % 2 == 1].tolist()
    assert is_bipartite(core.delete_edges(cut)) is not None


# the theta graph: hubs 0 and 1 joined by edge 0, by edges 1, 2 (through
# vertex 2) and by edges 3, 4 (through vertex 3); its chains are edge 0,
# then edges 1, 2, then edges 3, 4
THETA = SparseGraph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
# two triangles at vertex 0: loops 0-1-2-0 (edges 0, 1, 2) and 0-3-4-0
# (edges 3, 4, 5)
BOWTIE = SparseGraph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])


@pytest.mark.parametrize("g, lengths, edge_ids", [
    (THETA, [2, 2, 2], [0, 1, 2, 3, 4]),  # one parity flipped: 6 lengths, 5 ids
    (THETA, [2, 1, 2], [0, 1, 2, 3, 4]),  # two parities flipped, same total
    (THETA, [1, 2, 2], [1, 0, 2, 3, 4]),  # edge ids 0 and 1 swapped
    # no odd chain, so no cut; vertices 2 and 3 are left uncolored, and
    # read as a third color they would clash with no neighbor
    (BOWTIE, [2, 4], [0, 1, 2, 3, 5, 4]),
], ids=["one_parity", "two_parities", "swapped_ids", "uncolored"])
def test_odd_path_bipartization_rejects_a_wrong_chain_table(g, lengths,
                                                            edge_ids):
    paths = kernel_paths(g)
    assert (paths.lengths.sum(), paths.edge_ids.tolist()) == (g.m, list(range(g.m)))
    cut = odd_path_bipartization(g, paths)
    assert is_bipartite(g.delete_edges(cut)) is not None
    broken = dataclasses.replace(paths, lengths=np.array(lengths),
                                 edge_ids=np.array(edge_ids))
    with pytest.raises(AssertionError):
        odd_path_bipartization(g, broken)


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


@st.composite
def gnp_graphs(draw):
    n = draw(st.integers(0, 16))
    if n == 0:
        return SparseGraph(0)  # the sampler starts at n = 1
    p = draw(st.sampled_from([0.1, 0.3, 0.5, 0.8]))
    return sample_gnp(n, p, RngSpec(draw(st.integers(0, 2 ** 32))))


@settings(deadline=None)
@given(st.one_of(kernel_multigraphs(), gnp_graphs(),
                 chain_graphs().filter(lambda g: g.n <= 18)),
       st.sampled_from([1, 4, 64, cuts._BLOCK]), st.data())
def test_engine_matches_the_float64_reference(g, block, data):
    # loops, parallel edges and mixed signs; tiny blocks split the table.
    # Scaling keeps every tie, and at 997 the sums leave float16's range.
    # Sparse chain cores leave anything from none to all of the high half
    # on the border with the low half.
    signs = data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                               min_size=g.m, max_size=g.m))
    weight = data.draw(st.sampled_from([1, 997])) * np.array(signs)
    assert_engine_matches_reference(g.n, g.eu, g.ev, weight, block)


def assert_engine_matches_reference(n, eu, ev, weight, block):
    want_value, want_labels = reference_least_labeling(n, eu, ev, weight)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cuts, "_BLOCK", block)
        value, labels = cuts._least_labeling(n, eu, ev, weight)
    assert value == want_value
    assert labels.tolist() == want_labels.tolist()


@pytest.mark.parametrize("block", [1, 4, 64, cuts._BLOCK])
@pytest.mark.parametrize("n, edges, weight", [
    (0, [], []),
    (1, [], []),
    (1, [(0, 0)], [-1.0]),
    (2, [(0, 1)], [-1.0]),
    (2, [(0, 1), (0, 1), (1, 1)], [1.0, -1.0, 1.0]),
    # n = 8 splits into H = 1..3 and L = 4..7: a triangle in H and a
    # square in L, both tied to vertex 0 but not to each other (|B| = 0)
    (8, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (6, 7), (4, 7), (0, 1),
         (0, 6)], [-1.0, -1.0, -1.0, -1.0, -1.0, -1.0, 1.0, -1.0, 1.0]),
    # a kernel on H = 1..2 and L = 3..5: the odd and the even copy of 1-4
    # cancel, so only vertex 2 is on the border
    (6, [(1, 4), (1, 4), (2, 5), (1, 2), (3, 4), (3, 5), (0, 3), (1, 1)],
     [-1.0, 1.0, -1.0, -1.0, 1.0, -1.0, -1.0, -1.0]),
    # both of H = 1..2 on the border: a signature keeps its bits' order
    (6, [(1, 3), (2, 4), (2, 5), (1, 2), (3, 5), (0, 4)],
     [1.0, -1.0, -1.0, -1.0, -1.0, 1.0]),
], ids=["n0", "n1", "n1_loop", "n2", "n2_parallel_and_loop", "no_border",
        "cancelled_border", "full_border"])
def test_engine_on_small_borders(block, n, edges, weight):
    eu = np.array([u for u, _ in edges], dtype=np.int64)
    ev = np.array([v for _, v in edges], dtype=np.int64)
    assert_engine_matches_reference(n, eu, ev, np.array(weight), block)


def test_engine_guards_its_float32_sums():
    # 10 sum(|weight|) must stay below 2^24, where float32 stops being exact
    eu, ev = np.array([0, 1, 0]), np.array([1, 2, 2])
    with pytest.raises(GuardLimitError, match="2\\^24"):
        cuts._least_labeling(3, eu, ev, np.full(3, -2.0 ** 22))
    w = (2 ** 24 - 1) // 30  # the heaviest triangle under the guard
    assert cuts._least_labeling(3, eu, ev, np.full(3, -float(w)))[0] == -2 * w
    # exact_maxcut's heaviest input, K_n at the guard, is far below it
    assert 10 * EXACT_LIMIT * (EXACT_LIMIT - 1) // 2 < 2 ** 24 // 1000
    # min_bad_edges gives weight +-1 per kernel edge: the guard needs
    # 2^24 / 10 of them, and a kernel that size raises rather than rounds
    ends = np.zeros((2 ** 24 // 10 + 1, 2), dtype=np.int64)
    ends[:, 1] = 1
    parities = np.arange(len(ends)) % 2
    with pytest.raises(GuardLimitError):
        min_bad_edges(KernelMultigraph(2, ends), parities)
    assert min_bad_edges(KernelMultigraph(2, ends[1:]), parities[1:]) == (
        len(ends) - 1) // 2


EXACT_WITNESS_DIGEST = (
    "39713e8144e101a2d6a7fd7201f370e5bf3d488691b6297c9a699ef1052ba39f")


def exact_witness_digest() -> str:
    """sha256 over exact_maxcut's JSON on the first 60 model cores with
    17 <= n <= 26 (too large for the brute-force oracles)."""
    digest, accepted, stream = hashlib.sha256(), 0, 0
    while accepted < 60:
        core = sample_core_model(60, 0.45, RngSpec(127, stream))
        stream += 1
        if 17 <= core.graph.n <= 26:
            accepted += 1
            digest.update(exact_maxcut(core.graph).to_json().encode())
    return digest.hexdigest()


def test_exact_witnesses_are_pinned():
    assert exact_witness_digest() == EXACT_WITNESS_DIGEST


def test_exact_witnesses_do_not_depend_on_blas_threads():
    # another thread count splits the products differently, so BLAS sums
    # in another order; float32 exactness must make that invisible
    paths = [str(Path(__file__).parent), str(Path(cuts.__file__).parents[1])]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
               PYTHONPATH=os.pathsep.join(
                   paths + [os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-c",
         "from test_cuts import exact_witness_digest; "
         "print(exact_witness_digest())"],
        env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == EXACT_WITNESS_DIGEST


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


def test_sandwich_on_cores_with_isolated_kernel_vertices():
    # expand_paths keeps an edgeless kernel vertex as an isolated core
    # vertex; the certificate colors edge ends only, so it passes
    assert sandwich_check(expand_paths(KernelMultigraph(1), 0.5, RngSpec(3))) \
        == (0, 0, 0)
    for s in range(10):
        core = expand_paths(KernelMultigraph(3, [(0, 0)]), 0.5, RngSpec(5, s))
        odd = int(core.path_lengths[0] % 2)
        assert core.graph.degrees()[1:3].tolist() == [0, 0]
        assert sandwich_check(core) == (odd, odd, odd)


def test_sandwich_certifies_the_chain_table():
    # chain lengths 3, 2, 4 read as 2, 3, 4: the same edges and total
    core = manual_core([(0, 1, 3), (0, 1, 2), (0, 1, 4)])
    assert sandwich_check(core) == (1, 1, 1)
    broken = dataclasses.replace(core, path_lengths=np.array([2, 3, 4]))
    with pytest.raises(AssertionError, match="odd-path deletion"):
        sandwich_check(broken)


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
    assert data["partition"] == "".join(str(b) for b in res.partition)
    empty = cuts.CutResult(0, np.zeros(0, dtype=np.int64), frozenset())
    assert json.loads(empty.to_json())["partition"] == ""


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


def test_giant_cut_checks_the_giant_is_left_bipartite():
    # a decomposition that breaks no chain leaves the giant's 5-cycle whole
    g = SparseGraph(8, cycle(5) + [(5, 6)])
    dec = decompose_giant(g)
    empty = np.zeros(0, dtype=np.int64)
    broken = dataclasses.replace(
        dec, paths=KernelChains(empty, empty, empty, empty))
    with pytest.raises(AssertionError, match="bipartization left an odd cycle"):
        giant_cut_algorithm(g, broken)


@settings(deadline=None)
@given(giants_with_trees())
def test_giant_cut_matches_reference_with_trees_on_the_core(g):
    # trees hang off the core, so a tree's lowest vertex is often not its
    # chain end and its colors must be flipped
    assert_same_cut(giant_cut_algorithm(g), reference_giant_cut(g))


@pytest.mark.parametrize("eps, digest", [
    (0.1, "8d129692b69f32159279474e99ffb0032a5e8e47f16fc2cc293e42d842bba117"),
    (0.3, "7744c7058e865e1d255ecb29f162a8d81b7ca278ab7174a3cd95ad30d5d05095"),
    (0.5, "385176cf5cd005f43a8829ce9af522c9f6a1764ff6c99cd071b95a7696549653"),
])
def test_giant_cut_json_is_pinned(eps, digest):
    # the CSV digests do not cover the partition; this pins all of the cut
    n = 200_000
    g = sample_gnp(n, (1.0 + eps) / n, RngSpec(11))
    text = giant_cut_algorithm(g).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_giant_cut_raises_when_a_giant_tree_has_no_seed():
    # the theta graph (hubs 0 and 1) read as three loops at hub 0: the same
    # representatives, but hub 1's tree holds no chain end
    g = SparseGraph(4, [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)])
    dec = decompose_giant(g)
    zeros = np.zeros(len(dec.paths), dtype=np.int64)
    loops = dataclasses.replace(dec.paths, a=zeros, b=zeros)
    assert_same_cut(giant_cut_algorithm(g, dec), reference_giant_cut(g))
    with pytest.raises(AssertionError, match="bipartization left an odd cycle"):
        giant_cut_algorithm(g, dataclasses.replace(dec, paths=loops))
