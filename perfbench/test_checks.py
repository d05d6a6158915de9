"""Each checker accepts a correct output and fires on a corrupted one.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
from cutlab import (  # noqa: E402
    ExperimentConfig, RngSpec, SparseGraph, Tournament, exact_maxcut,
    giant_cut_algorithm, hero_tournament, hom_to_odd_cycle, run_experiment,
    sample_core_model, sample_gnp, sandwich_check, solve_mu, write_edge_list)


def _petersen_like():
    # a 5-cycle plus a chord and a pendant path: odd cycles, n = 8
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (4, 5), (5, 6),
             (6, 7)]
    return SparseGraph(8, edges)


def _flip(cut, v=1):
    part = cut.partition.copy()
    part[v] ^= 1
    return dataclasses.replace(cut, partition=part)


def test_brute_force_maxcut_known_values():
    assert checks.brute_force_maxcut(3, np.array([0, 0, 1]), np.array([1, 2, 2])) == 2
    c5 = SparseGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    assert checks.brute_force_maxcut(5, c5.eu, c5.ev) == 4
    k4 = SparseGraph(4, [(a, b) for a in range(4) for b in range(a + 1, 4)])
    assert checks.brute_force_maxcut(4, k4.eu, k4.ev) == 4


def test_chain_count_theta_and_cycle():
    theta = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 1)]
    eu, ev = np.array(theta).T
    assert checks.chain_count(5, eu, ev) == 3
    assert checks.chain_count(4, np.array([0, 1, 2, 0]), np.array([1, 2, 3, 3])) == 1


def test_mu_from_lambert_w_matches_bisection():
    for eps in (0.1, 0.3, 0.5):
        assert checks.mu_lambertw(1 + eps) == pytest.approx(solve_mu(1 + eps), abs=1e-9)


def test_exact_cut_flipped_bit_and_off_by_one():
    g = _petersen_like()
    cut = exact_maxcut(g)
    assert checks.exact_cut(g.n, g.eu, g.ev, cut) == []
    assert checks.exact_cut(g.n, g.eu, g.ev, _flip(cut))
    off = dataclasses.replace(cut, cut_size=cut.cut_size + 1)
    assert checks.exact_cut(g.n, g.eu, g.ev, off)


def test_sandwich_catches_wrong_bracket_and_witness():
    core = next(c for s in range(200)
                for c in [sample_core_model(60, 0.45, RngSpec(5, s))]
                if c.kernel.m and 8 <= c.graph.n <= 14)
    g = core.graph
    cut = exact_maxcut(g)
    bracket = sandwich_check(core)
    assert checks.sandwich(g.n, g.eu, g.ev, core.path_lengths, bracket, cut) == []
    lower, exact, upper = bracket
    assert checks.sandwich(g.n, g.eu, g.ev, core.path_lengths,
                           (lower, exact + 1, upper), cut)
    assert checks.sandwich(g.n, g.eu, g.ev, core.path_lengths, bracket, _flip(cut))


def test_scaling_trial_flipped_bit_and_off_by_one():
    n, eps, seed = 20_000, 0.3, 4
    cfg = ExperimentConfig(experiment="maxcut_scaling", eps_grid=(eps,),
                           n_grid=(n,), trials=1, seed=seed)
    records, _ = run_experiment(cfg)
    row = {k: str(v) for k, v in records[0].stats.items()}
    g = sample_gnp(n, (1 + eps) / n, RngSpec(seed, 0).generator())
    cut = giant_cut_algorithm(g)

    def cut_problems(c, r=row):
        found = checks.scaling_trial(eps, n, g.eu, g.ev, c, r)
        return [p for p in found if "cross" in p or "cut_size" in p
                or "!=" in p]

    assert cut_problems(cut) == []
    kept = next(e for e in range(g.m) if e not in cut.deleted_edge_ids)
    assert cut_problems(_flip(cut, int(g.eu[kept])))
    assert cut_problems(dataclasses.replace(cut, cut_size=cut.cut_size - 1))
    assert cut_problems(cut, dict(row, kernel_paths=str(int(row["kernel_paths"]) + 1)))


def test_hom_witness_checks():
    c5 = SparseGraph(5, [(i, (i + 1) % 5) for i in range(5)])
    w = hom_to_odd_cycle(c5, 2)
    assert checks.hom(5, c5.eu, c5.ev, 1, [(2, False, w.mapping)]) == []
    bad = w.mapping.copy()
    bad[0] = (bad[0] + 2) % 5
    assert checks.hom(5, c5.eu, c5.ev, 1, [(2, False, bad)])
    assert checks.hom(5, c5.eu, c5.ev, 1, [(2, True, w.mapping)])
    assert checks.hom(5, c5.eu, c5.ev, 0, [])  # distance 1, not 0


def test_hero_copy_misordered_tuple():
    h = hero_tournament()
    assert checks.hero_copy(7, h.bu, h.bv, (1, 2, 3, 4, 5, 6, 7)) == []
    assert checks.hero_copy(7, h.bu, h.bv, (1, 2, 3, 5, 4, 6, 7))
    # an increasing tuple whose induced backedges are not the hero's
    shifted = Tournament(8, np.column_stack([h.bu + 1, h.bv + 1]))
    assert checks.hero_copy(8, shifted.bu, shifted.bv, (1, 2, 3, 4, 5, 6, 7))
    assert checks.hero_copy(8, shifted.bu, shifted.bv, (2, 3, 4, 5, 6, 7, 8)) == []


def test_colouring_checks():
    h = hero_tournament()  # chromatic number 3
    assert checks.cyclic_triples(7, h.bu, h.bv).shape[0] > 0
    assert checks.two_coloring(7, h.bu, h.bv, None) == []
    assert checks.coloring(7, h.bu, h.bv, np.zeros(7, dtype=int), 1)
    assert checks.chromatic(7, h.bu, h.bv, 3, np.array([0, 0, 1, 0, 0, 1, 2])) == []
    assert checks.chromatic(7, h.bu, h.bv, 3, np.array([0, 0, 0, 1, 1, 1, 2]))
    cyc = Tournament(3, [(1, 3)])  # one directed triangle, 2-colourable
    assert checks.chromatic(3, cyc.bu, cyc.bv, 3, np.array([0, 1, 2]))
    assert checks.two_coloring(3, cyc.bu, cyc.bv, None)
    assert checks.two_coloring(3, cyc.bu, cyc.bv, np.array([0, 0, 1])) == []


def test_far_trial_counts():
    t = Tournament(10, [(1, 9), (2, 3), (4, 10)])
    assert checks.far_trial(10, 3 / 45, t.bu, t.bv, 2, 0.5) == []
    assert checks.far_trial(10, 3 / 45, t.bu, t.bv, 3, 0.5)


def test_truncated_file(tmp_path):
    g = _petersen_like()
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    assert checks.text_file(path, f"{g.n} {g.m}") == []
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    assert checks.text_file(path, f"{g.n} {g.m}")


def test_round_trip_comparisons():
    g = _petersen_like()
    assert checks.same_graph(g, SparseGraph(8, list(g.edge_pairs()))) == []
    assert checks.same_graph(g, g.delete_edges([0]))
    core = sample_core_model(1000, 0.5, RngSpec(2))
    other = dataclasses.replace(core, path_lengths=core.path_lengths + 1)
    assert checks.same_core(core, core) == []
    assert checks.same_core(core, other)


def test_benchmark_json_lists_the_reported_metrics():
    import probe
    import run
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        list(probe.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_replayed_trial_must_match():
    g = _petersen_like()
    cut = exact_maxcut(g)
    row = {"deficit": "2"}
    assert checks.same_replay((cut, row), (cut, dict(row))) == []
    assert checks.same_replay((cut, row), (_flip(cut), row))
    assert checks.same_replay((cut, row), (cut, {"deficit": "3"}))
