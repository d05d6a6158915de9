import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from cutlab.core_model import (
    CoreModelParams,
    _geometric,
    _geometric_lengths,
    DegreeProfile,
    KernelMultigraph,
    dump_expanded_core,
    expand_paths,
    kernelize,
    parse_expanded_core,
    sample_core_model,
    sample_degree_profile,
    sample_kernel,
    solve_mu,
)
from cutlab.cuts import odd_path_bipartization
from cutlab.graph import kernel_paths
from cutlab.rng import RngSpec
from oracles import (
    chain_graphs,
    chain_tuples,
    kernel_density_exponent,
    kernel_multigraphs,
    reference_dump_expanded_core,
    reference_expand_paths,
    reference_odd_path_bipartization,
)

# pinned by the bisection run, cross-checked against brentq below
MU_OF_1_5 = 0.625782534201283


def dual_root(lam):
    target = lam * math.exp(-lam)
    return brentq(lambda x: x * math.exp(-x) - target, 1e-12, 1 - 1e-12,
                  xtol=1e-15)


def test_solve_mu_claim_bounds_at_0_1():
    mu = solve_mu(1.1)
    assert 0.9 < mu < 0.90667


def test_solve_mu_near_critical():
    assert abs(solve_mu(1.0 + 1e-6) - 1.0) < 1e-2


def test_solve_mu_golden_1_5():
    assert abs(solve_mu(1.5) - MU_OF_1_5) < 1e-12
    assert abs(solve_mu(1.5) - dual_root(1.5)) < 1e-11


def test_solve_mu_matches_independent_root():
    for eps in (0.05, 0.17, 0.33, 0.49, 0.8):
        assert abs(solve_mu(1 + eps) - dual_root(1 + eps)) < 1e-10


def test_solve_mu_bounds_full_grid():
    for i in range(1, 51):
        eps = i / 100.0
        mu = solve_mu(1.0 + eps)
        assert 1.0 - eps < mu < 1.0 - eps + (2.0 / 3.0) * eps * eps


def test_solve_mu_rejects_subcritical():
    with pytest.raises(ValueError):
        solve_mu(1.0)
    with pytest.raises(ValueError):
        solve_mu(0.9)


def test_params_validation():
    with pytest.raises(ValueError):
        CoreModelParams(1.2, 0.5, 100)  # wrong dual root
    p = CoreModelParams.from_eps(0.2, 1000)
    assert abs(p.eps - 0.2) < 1e-12


def test_degree_profile_parity_and_attempts():
    params = CoreModelParams.from_eps(0.2, 2000)
    for s in range(10):
        prof = sample_degree_profile(2000, params.lam, params.mu, RngSpec(3, s))
        assert prof.truncated_sum % 2 == 0
        assert prof.attempts >= 1
        counts = prof.counts()
        assert counts.sum() == 2000
        assert prof.kernel_size == counts[3:].sum()


def test_degree_profile_single_vertex():
    params = CoreModelParams.from_eps(0.3, 1)
    for s in range(20):
        prof = sample_degree_profile(1, params.lam, params.mu, RngSpec(8, s))
        assert prof.truncated_sum % 2 == 0


def test_lambda_mean_within_3_sigma():
    n, trials = 10 ** 5, 100
    params = CoreModelParams.from_eps(0.2, n)
    vals = [
        sample_degree_profile(n, params.lam, params.mu, RngSpec(21, s)).lam_value
        for s in range(trials)
    ]
    sigma = 1.0 / math.sqrt(n * trials)
    assert abs(np.mean(vals) - (params.lam - params.mu)) <= 3 * sigma


def test_kernel_degrees_match_profile():
    params = CoreModelParams.from_eps(0.35, 4000)
    gen = RngSpec(5).generator()
    prof = sample_degree_profile(4000, params.lam, params.mu, gen)
    kernel = sample_kernel(prof, gen)
    want = sorted(prof.degrees[prof.degrees >= 3].tolist())
    assert sorted(kernel.degrees().tolist()) == want


def test_kernel_two_cubic_vertices():
    prof = DegreeProfile(0.5, np.array([3, 3]), 1)
    for s in range(10):
        k = sample_kernel(prof, RngSpec(31, s))
        assert k.n == 2 and sorted(k.degrees().tolist()) == [3, 3]


def test_kernel_empty_profile():
    prof = DegreeProfile(0.1, np.array([0, 1, 2, 2]), 1)
    assert sample_kernel(prof, RngSpec(1)).n == 0


def test_kernel_multigraph_validates_its_vertex_count():
    for bad in (2.7, -1, True, "3", None):
        with pytest.raises(ValueError, match="vertex count"):
            KernelMultigraph(bad)
    with pytest.raises(ValueError, match="vertex count"):
        KernelMultigraph(2.7, [(0, 2)])  # not n = 2 with an endpoint 2
    with pytest.raises(ValueError, match="edges must be integers"):
        KernelMultigraph(3, [(0, 1.5)])
    kernel = KernelMultigraph(np.int64(3), [(0, 2)])
    assert type(kernel.n) is int and kernel.n == 3


def test_kernel_rejects_odd_stub_total():
    prof = DegreeProfile(0.5, np.array([3, 4]), 1)
    with pytest.raises(ValueError):
        sample_kernel(prof, RngSpec(1))


def test_expand_paths_simple_even_under_degenerate_kernel():
    # two loops at one vertex plus a triple edge: expansion must stay simple
    kernel = KernelMultigraph(2, [(0, 0), (0, 0), (0, 1), (0, 1), (0, 1)])
    for s in range(30):
        core = expand_paths(kernel, 0.05, RngSpec(17, s))
        lengths = core.path_lengths
        assert (lengths[:2] >= 3).all()  # loops stretch to cycles
        g = core.graph  # construction itself rejects loops and duplicates
        assert g.m == int(lengths.sum())
        assert g.n == 2 + int((lengths - 1).sum())


def test_expand_paths_mean_length():
    mu = 0.9
    params_kernel = KernelMultigraph(
        1000, [(i, (i + 1) % 1000) for i in range(1000)]
    )
    draws = []
    for s in range(12):
        core = expand_paths(params_kernel, mu, RngSpec(23, s))
        draws.extend(core.path_lengths.tolist())
    mean = 1.0 / (1.0 - mu)
    var = mu / (1.0 - mu) ** 2
    sigma = math.sqrt(var / len(draws))
    assert len(draws) >= 10 ** 4
    assert abs(np.mean(draws) - mean) <= 3 * sigma


def test_expand_paths_length_independence():
    kernel = KernelMultigraph(4, [(0, 1), (2, 3)])
    first, second = [], []
    for s in range(3000):
        core = expand_paths(kernel, 0.8, RngSpec(29, s))
        first.append(core.path_lengths[0])
        second.append(core.path_lengths[1])
    corr = np.corrcoef(first, second)[0, 1]
    assert abs(corr) < 0.05


def test_euler_count_preserved():
    for s in range(10):
        core = sample_core_model(20000, 0.3, RngSpec(41, s))
        g, k = core.graph, core.kernel
        assert g.m - g.n == k.m - k.n


def test_roundtrip_contraction_recovers_kernel():
    for s in range(8):
        core = sample_core_model(30000, 0.25, RngSpec(43, s))
        if core.kernel.m == 0:
            continue
        recovered = kernelize(core.graph)
        assert sorted(recovered.kernel.degrees().tolist()) == sorted(
            core.kernel.degrees().tolist()
        )
        assert sorted(recovered.path_lengths.tolist()) == sorted(
            core.path_lengths.tolist()
        )


def test_sampled_core_min_degree_two():
    for s in range(20):
        core = sample_core_model(10 ** 4, 0.1, RngSpec(47, s))
        if core.graph.n:
            assert core.graph.degrees().min() >= 2


def test_kernelize_path_ids_reference_host_edges():
    core = sample_core_model(20000, 0.3, RngSpec(53))
    total = sorted(e for ids in core.path_edge_ids for e in ids.tolist())
    assert total == list(range(core.graph.m))


@settings(deadline=None, max_examples=300)
@given(kernel_multigraphs(), st.floats(0.05, 0.95), st.integers(0, 2 ** 64 - 1))
def test_expand_paths_matches_the_per_edge_reference(kernel, mu, seed):
    gen, ref_gen = RngSpec(seed).generator(), RngSpec(seed).generator()
    core = expand_paths(kernel, mu, gen)
    ref = reference_expand_paths(kernel, mu, ref_gen)
    assert core.graph.n == ref.graph.n
    assert core.graph.eu.tolist() == ref.graph.eu.tolist()
    assert core.graph.ev.tolist() == ref.graph.ev.tolist()
    assert core.path_lengths.tolist() == ref.path_lengths.tolist()
    assert [x.tolist() for x in core.path_edge_ids] == \
        [x.tolist() for x in ref.path_edge_ids]
    assert dump_expanded_core(core) == reference_dump_expanded_core(ref)
    assert odd_path_bipartization(core.graph, core.chains).tolist() == \
        reference_odd_path_bipartization(ref)
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


def resampling_kernel(seed, k):
    """A kernel on k vertices: a path through them (simple edges, which
    never resample), three loops at every fourth vertex and five more
    copies of the path edge from it; in shuffled order."""
    edges = ([(v, v + 1) for v in range(k - 1)]
             + [(v, v) for v in range(0, k, 4)] * 3
             + [(v, v + 1) for v in range(0, k - 1, 4)] * 5)
    order = np.random.default_rng(seed).permutation(len(edges))
    return KernelMultigraph(k, [edges[i] for i in order])


@pytest.mark.parametrize("stream", [1, 64])
@pytest.mark.parametrize("k", [4, 40])
@pytest.mark.parametrize("mu", [0.04, 0.05, 0.06, 0.5, 0.94, 0.95, 0.96])
def test_expand_paths_matches_the_reference_on_resampling_kernels(
        mu, k, stream):
    # 11-edge and 119-edge kernels, each drawn from one stream of its seed
    resampled = 0
    for seed in range(20):
        kernel = resampling_kernel(seed, k)
        spec = RngSpec(seed, stream)
        gen, ref_gen = spec.generator(), spec.generator()
        core = expand_paths(kernel, mu, gen)
        ref = reference_expand_paths(kernel, mu, ref_gen)
        assert core.graph.eu.tolist() == ref.graph.eu.tolist()
        assert core.graph.ev.tolist() == ref.graph.ev.tolist()
        assert core.path_lengths.tolist() == ref.path_lengths.tolist()
        np.testing.assert_equal(gen.bit_generator.state,
                                ref_gen.bit_generator.state)
        probe = spec.generator()
        probe.random(kernel.m)  # where the draws end without resampling
        resampled += probe.random() != ref_gen.random()
    assert resampled >= 5  # many kernels drew extra uniforms


@settings(deadline=None, max_examples=300)
@given(kernel_multigraphs(), st.floats(0.05, 0.95), st.integers(0, 2 ** 64 - 1))
def test_bulk_draw_matches_the_per_edge_reference(kernel, mu, seed):
    gen, ref_gen = RngSpec(seed).generator(), RngSpec(seed).generator()
    core = expand_paths(kernel, mu, gen)
    ref = reference_expand_paths(kernel, mu, ref_gen)
    assert core.graph.eu.tolist() == ref.graph.eu.tolist()
    assert core.graph.ev.tolist() == ref.graph.ev.tolist()
    assert core.path_lengths.tolist() == ref.path_lengths.tolist()
    np.testing.assert_equal(gen.bit_generator.state, ref_gen.bit_generator.state)


class FixedUniforms:
    """A stand-in generator whose ``random`` returns the given values in turn."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, k=None):
        if k is None:
            return self.values.pop(0)
        out, self.values = self.values[:k], self.values[k:]
        return np.array(out)


@pytest.mark.parametrize("mu", [0.05, 0.3, 0.5, 0.7, 0.95])
def test_bulk_lengths_match_the_scalar_rule_at_integer_quotients(mu):
    # 1 - U = mu^j puts log(1 - U) / log(mu) at or next to the integer j,
    # where a last-ulp difference between np.log and math.log can move ceil
    uniforms = [1.0 - mu ** j * f for j in range(1, 60)
                for f in (1.0, 1 + 2 ** -52, 1 - 2 ** -53)]
    uniforms = [u for u in uniforms if 0.0 <= u < 1.0] + [0.0]
    bulk = _geometric_lengths(mu, FixedUniforms(uniforms), len(uniforms))
    scalar_gen = FixedUniforms(uniforms)
    assert bulk.tolist() == [_geometric(mu, scalar_gen) for _ in uniforms]


@pytest.mark.parametrize("r, mu", [
    (0.00205684306461984, 0.9994853921382295),
    (0.15445732024412995, 0.958923326986219),
    (0.4422530602272593, 0.7468245709487207),
    (0.448427435968326, 0.742679314395974),
    (0.79498204818437, 0.45278908093684195),
    (0.836085510418037, 0.5472752170606571),
])
def test_bulk_lengths_follow_math_log_where_np_log_differs(r, mu):
    # at these (U, mu), found with numpy 2.4 on x86-64, np.log(1 - U) is one
    # ulp off math.log(1 - U), and ceil of the quotient moves with it
    assert _geometric_lengths(mu, FixedUniforms([r]), 1).tolist() == \
        [_geometric(mu, FixedUniforms([r]))]


@settings(deadline=None)
@given(chain_graphs())
def test_kernelized_core_matches_the_per_path_reference(graph):
    core = kernelize(graph)
    assert chain_tuples(core.chains) == chain_tuples(kernel_paths(graph))
    assert dump_expanded_core(core) == reference_dump_expanded_core(core)
    assert odd_path_bipartization(core.graph, core.chains).tolist() == \
        reference_odd_path_bipartization(core)


def test_kernel_density_oracle_slope():
    # the exponent criterion 7's fitted B is compared with
    assert round(kernel_density_exponent([0.1, 0.2, 0.3, 0.4, 0.5]), 3) == 2.548


def test_serialization_roundtrip():
    core = sample_core_model(5000, 0.3, RngSpec(59))
    text = dump_expanded_core(core)
    back = parse_expanded_core(text)
    assert back.graph.edge_set() == core.graph.edge_set()
    assert back.path_lengths.tolist() == core.path_lengths.tolist()
    assert back.kernel.m == core.kernel.m
    assert sorted(back.kernel.degrees().tolist()) == sorted(
        core.kernel.degrees().tolist()
    )


def test_serialization_rejects_malformed():
    with pytest.raises(ValueError):
        parse_expanded_core("3 1\n0 1\n")  # no sidecar
    core = sample_core_model(5000, 0.3, RngSpec(61))
    text = dump_expanded_core(core)
    broken = text.replace("kernel", "kernle", 1)
    with pytest.raises(ValueError):
        parse_expanded_core(broken)


# a 4-cycle as one loop at vertex 0, walked along edges 0, 2, 3, 1
C4_SIDECAR = "4 4\n0 1\n0 3\n1 2\n2 3\nkernel 1 1\n{}\n"


def test_serialization_accepts_bare_cycle():
    core = parse_expanded_core(C4_SIDECAR.format("0 0 4 0 2 3 1"))
    assert core.kernel_to_core.tolist() == [0]
    assert core.path_edge_ids[0].tolist() == [0, 2, 3, 1]


# the theta graph: hubs 0 and 1 joined by paths of lengths 1, 2 and 2
THETA_SIDECAR = "4 5\n0 1\n0 2\n1 2\n0 3\n1 3\nkernel 2 3\n{}\n"


@pytest.mark.parametrize("row, match", [
    ("0 0", "bad kernel edge line"),  # fewer than 3 fields
    ("0 0 4 0 1 2 9", "out of range"),  # edge id 9 on a 4-edge graph
    ("0 0 4 0 0 0 0", "exactly once"),  # one edge id repeated
    ("7 7 4 0 2 3 1", "not a graph vertex"),  # endpoint outside 0..3
    ("0 0 4 0 1 2 3", "not a walk"),  # edges 1 and 2 share no vertex
    ("0 1 0", "at least one edge"),  # zero length
    ("0 0 4 0 2 3 99999999999999999999", "could not convert"),  # int64
    # whole sidecars: a loop at 0 made of edge 0, which joins 0 and 1
    pytest.param(THETA_SIDECAR.format("0 0 1 0\n0 1 2 1 2\n0 1 2 3 4"),
                 "not a walk", id="theta-loop"),
    # a closed walk through hub 1, whose degree is 3
    pytest.param(THETA_SIDECAR.replace("kernel 2 3", "kernel 2 2").format(
        "0 1 1 0\n0 0 4 1 2 4 3"), "degree is not 2", id="theta-through-hub"),
    pytest.param(C4_SIDECAR.replace("kernel 1 1", "kernel 1").format(
        "0 0 4 0 2 3 1"), "bad kernel header", id="C4-short-header"),
])
def test_serialization_rejects_bad_kernel_rows(row, match):
    text = row if "\n" in row else C4_SIDECAR.format(row)
    with pytest.raises(ValueError, match=match):
        parse_expanded_core(text)


def test_serialization_stores_a_row_from_its_lower_end():
    # "1 0 2 2 1" walks from hub 1 through vertex 2 to hub 0
    text = THETA_SIDECAR.format("0 1 1 0\n1 0 2 2 1\n0 1 2 3 4")
    want = THETA_SIDECAR.format("0 1 1 0\n0 1 2 1 2\n0 1 2 3 4")
    assert dump_expanded_core(parse_expanded_core(text)) == want
    assert dump_expanded_core(parse_expanded_core(want)) == want


def reversed_rows(text: str, every: int) -> str:
    """The sidecar with every ``every``-th kernel row that is no loop written
    from its higher end."""
    head, _, body = text.partition("\nkernel ")
    header, *rows = body.splitlines()
    for i in range(0, len(rows), every):
        cu, cv, ell, *ids = rows[i].split()
        if cu != cv:
            rows[i] = " ".join([cv, cu, ell] + ids[::-1])
    return "\n".join([head, "kernel " + header] + rows) + "\n"


@pytest.mark.parametrize("every", [1, 2, 7])
def test_dump_of_parse_reparses_to_the_lower_end_form(every):
    core = sample_core_model(3000, 0.3, RngSpec(67))
    text = dump_expanded_core(core)
    flipped = reversed_rows(text, every)
    assert flipped != text
    back = dump_expanded_core(parse_expanded_core(flipped))
    assert back == text
    assert dump_expanded_core(parse_expanded_core(back)) == text


def test_sample_core_model_validates_eps():
    with pytest.raises(ValueError):
        sample_core_model(100, 0.0, RngSpec(1))
    with pytest.raises(ValueError):
        sample_core_model(100, 1.0, RngSpec(1))
