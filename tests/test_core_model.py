import math

import numpy as np
import pytest
from scipy.optimize import brentq

from cutlab.core_model import (
    CoreModelParams,
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
from cutlab.rng import RngSpec

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


@pytest.mark.parametrize("row, match", [
    ("0 0", "bad kernel edge line"),  # fewer than 3 fields
    ("0 0 4 0 1 2 9", "out of range"),  # edge id 9 on a 4-edge graph
    ("0 0 4 0 0 0 0", "exactly once"),  # one edge id repeated
    ("7 7 4 0 2 3 1", "not a graph vertex"),  # endpoint outside 0..3
])
def test_serialization_rejects_bad_kernel_rows(row, match):
    with pytest.raises(ValueError, match=match):
        parse_expanded_core(C4_SIDECAR.format(row))


def test_sample_core_model_validates_eps():
    with pytest.raises(ValueError):
        sample_core_model(100, 0.0, RngSpec(1))
    with pytest.raises(ValueError):
        sample_core_model(100, 1.0, RngSpec(1))
