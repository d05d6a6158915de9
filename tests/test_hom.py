import hashlib
import subprocess
import sys

import numpy as np
import pytest

from cutlab.cuts import dist_bp_exact, dist_bp_via_kernel
from cutlab.errors import GuardLimitError
from cutlab.graph import SparseGraph, odd_girth, write_edge_list
from cutlab.hom import ell_epsilon, hom_to_odd_cycle, no_hom_certificate
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp


def cycle(k):
    return [(i, (i + 1) % k) if i < (i + 1) % k else ((i + 1) % k, i)
            for i in range(k)]


def check_witness(g, witness):
    L = witness.cycle_length
    for u, v in g.edge_pairs():
        d = (int(witness.mapping[u]) - int(witness.mapping[v])) % L
        assert d in (1, L - 1)


def test_triangle_to_itself_and_not_to_c5():
    tri = SparseGraph(3, cycle(3))
    w = hom_to_odd_cycle(tri, 1)
    assert w is not None
    check_witness(tri, w)
    assert hom_to_odd_cycle(tri, 2) is None


def test_c7_maps_down_but_not_up():
    c7 = SparseGraph(7, cycle(7))
    for ell in (1, 2, 3):
        w = hom_to_odd_cycle(c7, ell)
        assert w is not None
        check_witness(c7, w)
    assert hom_to_odd_cycle(c7, 4) is None


def test_bipartite_graph_always_maps():
    c6 = SparseGraph(6, cycle(6))
    for ell in (1, 2, 5):
        w = hom_to_odd_cycle(c6, ell)
        assert w is not None
        check_witness(c6, w)


def test_downward_closure_random_graphs():
    gen = RngSpec(201).generator()
    for _ in range(1000):
        g = sample_gnp(12, 0.25, gen)
        found = {ell: hom_to_odd_cycle(g, ell) for ell in (1, 2, 3)}
        for ell in (2, 3):
            if found[ell] is not None:
                for k in range(1, ell):
                    assert found[k] is not None
        for ell, w in found.items():
            if w is not None:
                check_witness(g, w)


def test_odd_girth_consistency():
    gen = RngSpec(203).generator()
    for _ in range(80):
        g = sample_gnp(14, 0.22, gen)
        og = odd_girth(g)
        if og is None:
            continue
        t = (og - 1) // 2
        for ell in range(t + 1, t + 3):
            assert hom_to_odd_cycle(g, ell) is None


def test_guards():
    with pytest.raises(GuardLimitError):
        hom_to_odd_cycle(SparseGraph(61), 1)
    with pytest.raises(ValueError):
        hom_to_odd_cycle(SparseGraph(3, cycle(3)), 0)
    # overridable
    assert hom_to_odd_cycle(SparseGraph(61), 1, node_limit=61) is not None


def test_certificate_basics():
    tri = SparseGraph(3, cycle(3))
    assert no_hom_certificate(tri, 2, 1)  # 1 > 3/5
    assert not no_hom_certificate(tri, 2, 0)
    with pytest.raises(ValueError):
        no_hom_certificate(tri, 2, -1)
    with pytest.raises(ValueError):
        no_hom_certificate(tri, 0, 1)


def test_certificate_soundness_with_exact_bounds():
    gen = RngSpec(207).generator()
    for _ in range(120):
        g = sample_gnp(14, 3.0 / 14, gen)
        bound = dist_bp_exact(g)
        for ell in range(1, 8):
            if no_hom_certificate(g, ell, bound):
                assert hom_to_odd_cycle(g, ell) is None


def test_certificate_soundness_with_kernel_bounds():
    gen = RngSpec(209).generator()
    fired = 0
    for _ in range(60):
        g = sample_gnp(30, 2.6 / 30, gen)
        try:
            bound = dist_bp_via_kernel(g)
        except GuardLimitError:
            continue  # kernel too large for the enumeration guard
        for ell in range(1, 10):
            if no_hom_certificate(g, ell, bound):
                fired += 1
                assert hom_to_odd_cycle(g, ell) is None
    assert fired > 0  # the run must actually exercise the certificate


def test_ell_epsilon_values():
    assert ell_epsilon(0.25) == 2
    assert ell_epsilon(0.5) == 1
    assert ell_epsilon(0.01) == 50
    assert ell_epsilon(0.2) == 3
    with pytest.raises(ValueError):
        ell_epsilon(0.0)
    with pytest.raises(ValueError):
        ell_epsilon(1.0)


def test_ell_epsilon_guarantee_sweep():
    import math

    for i in range(1, 200):
        delta = i / 200.0
        ell = ell_epsilon(delta)
        assert ell == math.ceil(1.0 / (2.0 * delta))
        # the guarantee extends to every larger ell
        for probe in (ell, ell + 1, ell + 7):
            assert 1.0 / (2 * probe + 1) < delta


def test_witness_serialization():
    tri = SparseGraph(3, cycle(3))
    w = hom_to_odd_cycle(tri, 1)
    lines = w.to_lines().strip().splitlines()
    assert len(lines) == 3
    assert all(len(ln.split()) == 2 for ln in lines)


def test_witnesses_are_pinned():
    # criterion-9 graphs (n = 8..36, c = 2, 2.5, 3) and one graph mixing an
    # isolated vertex, odd and even cycles, a path and a pendant triangle
    graphs = [sample_gnp(8 + t % 29, (2.0, 2.5, 3.0)[t % 3] / (8 + t % 29),
                         RngSpec(1009, t + 1)) for t in range(150)]
    graphs.append(SparseGraph(25, [
        (1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (6, 7), (7, 8), (8, 9), (6, 9),
        (10, 11), (13, 14), (14, 15), (13, 15), (15, 16)]
        + [(17 + i, 17 + (i + 1) % 7) for i in range(7)]))
    h = hashlib.sha256()
    for g in graphs:
        for ell in range(1, 11):
            w = hom_to_odd_cycle(g, ell)
            h.update(("NONE\n" if w is None else w.to_lines()).encode())
    assert h.hexdigest() == (
        "429096d62a09a963e0ca35aac1d719f7ede60becd01e090609a9d71474ead9b2")


def test_long_cycle_does_not_exhaust_the_stack(tmp_path):
    c1201 = SparseGraph(1201, cycle(1201))
    w = hom_to_odd_cycle(c1201, 1, node_limit=5000, edge_limit=5000)
    assert w is not None and w.is_valid(c1201)
    path = tmp_path / "c1201.txt"
    write_edge_list(c1201, path)
    out = subprocess.run(
        [sys.executable, "-m", "cutlab.cli", "hom", "--input", str(path),
         "--ell", "1", "--node-limit", "5000", "--edge-limit", "5000"],
        capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    assert out.stdout == w.to_lines()
