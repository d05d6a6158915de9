"""Acceptance suite: one test per criterion, each printing a verdict line.

Every tolerance and instance size is pinned here; nothing is deferred to
later calibration.  Criteria are exercised end to end against independent
oracles where one is stated.
"""

import json
import math
import time
from itertools import combinations
from pathlib import Path

import numpy as np

from cutlab.core_model import (
    CoreModelParams,
    sample_core_model,
    sample_degree_profile,
    sample_kernel,
    solve_mu,
)
from cutlab.cuts import (
    dist_bp_exact,
    dist_bp_via_kernel,
    exact_maxcut,
    giant_cut_algorithm,
    sandwich_check,
)
from cutlab.errors import GuardLimitError
from cutlab.experiments import ExperimentConfig, records_to_csv, run_experiment
from cutlab.graph import is_bipartite
from cutlab.hom import hom_to_odd_cycle, no_hom_certificate
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp, sample_tournament
from cutlab.tournament import (
    Tournament,
    backedge_blowup_count,
    backedge_graph,
    bounded_degree_matching,
    chromatic_number_exact,
    dist_tour_bp_exact,
    hero_tournament,
    long_backedges,
    two_coloring,
)
from oracles import (backedge_set, hero_first_moment, kernel_density_exponent,
                     kernel_density_oracle)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def verdict(num, name, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {status} "
          f"[{detail}] ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert elapsed < budget, f"time budget exceeded: {elapsed:.1f}s"
    assert ok, detail


# 1 ---------------------------------------------------------------------------

def naive_maxcut(g):
    edges = list(g.edge_pairs())
    best = 0
    for mask in range(1 << g.n):
        cut = sum(1 for (u, v) in edges if ((mask >> u) ^ (mask >> v)) & 1)
        best = max(best, cut)
    return best


def test_c01_exact_cut_oracle_equivalence():
    t0 = time.time()
    gen = RngSpec(1001).generator()
    bad = 0
    for trial in range(1000):
        n = 2 + trial % 7
        p = (0.2, 0.5, 0.8)[trial % 3]
        g = sample_gnp(n, p, gen)
        if exact_maxcut(g).cut_size != naive_maxcut(g):
            bad += 1
    verdict(1, "exact-cut-oracle", bad == 0,
            f"disagreements={bad}/1000", time.time() - t0, 10)


# 2 ---------------------------------------------------------------------------

def test_c02_kernel_density_eps03():
    t0 = time.time()
    eps, n, trials = 0.3, 10 ** 6, 20
    params = CoreModelParams.from_eps(eps, n)
    oracle = kernel_density_oracle(eps)
    vals = []
    for s in range(trials):
        gen = RngSpec(1002, s).generator()
        prof = sample_degree_profile(n, params.lam, params.mu, gen)
        kernel = sample_kernel(prof, gen)
        vals.append(kernel.m / n)
    mean = float(np.mean(vals))
    leading = 2 * eps ** 3
    ok_oracle = abs(mean - oracle) <= 0.30 * oracle
    ok_leading = abs(mean - leading) <= 0.35 * leading
    verdict(2, "kernel-density",
            ok_oracle and ok_leading,
            f"mean={mean:.6f} oracle={oracle:.6f} (30% req: {ok_oracle}) "
            f"2eps^3={leading:.6f} (35% req: {ok_leading})",
            time.time() - t0, 120)


# 3 ---------------------------------------------------------------------------

def test_c03_mu_bounds_grid():
    t0 = time.time()
    ok = True
    worst = ""
    for i in range(1, 51):
        eps = i / 100.0
        mu = solve_mu(1.0 + eps)
        if not (1.0 - eps < mu < 1.0 - eps + (2.0 / 3.0) * eps * eps):
            ok = False
            worst = f"eps={eps} mu={mu}"
    verdict(3, "mu-bounds", ok, worst or "all 50 grid points inside",
            time.time() - t0, 1)


# 4 ---------------------------------------------------------------------------

def test_c04_parity_conditioning_attempts():
    t0 = time.time()
    n, trials = 10 ** 5, 1000
    params = CoreModelParams.from_eps(0.2, n)
    attempts = [
        sample_degree_profile(n, params.lam, params.mu, RngSpec(1004, s)).attempts
        for s in range(trials)
    ]
    mean = float(np.mean(attempts))
    verdict(4, "parity-conditioning", mean <= 2.2,
            f"mean attempts={mean:.3f} over {trials}", time.time() - t0, 60)


# 5 ---------------------------------------------------------------------------

def test_c05_odd_path_fraction():
    t0 = time.time()
    details = []
    ok = True
    for eps, n, reps in ((0.1, 1600000, 4), (0.3, 400000, 1)):
        mu = solve_mu(1.0 + eps)
        p_odd = 1.0 / (1.0 + mu)
        lengths = []
        for s in range(reps):
            core = sample_core_model(n, eps, RngSpec(1005, s))
            lengths.extend(core.path_lengths.tolist())
        draws = len(lengths)
        frac = float(np.mean([l % 2 for l in lengths]))
        sigma = math.sqrt(p_odd * (1 - p_odd) / draws)
        ok_here = draws >= 10 ** 4 and abs(frac - p_odd) <= 3 * sigma
        ok = ok and ok_here
        details.append(f"eps={eps}: {frac:.4f} vs {p_odd:.4f} "
                       f"(3sig={3 * sigma:.4f}, draws={draws})")
    verdict(5, "odd-path-fraction", ok, "; ".join(details),
            time.time() - t0, 60)


# 6 ---------------------------------------------------------------------------

def test_c06_sandwich_small_cores():
    t0 = time.time()
    accepted = 0
    stream = 0
    violations = 0
    while accepted < 200:
        core = sample_core_model(60, 0.45, RngSpec(1006, stream))
        stream += 1
        if core.kernel.m == 0 or core.graph.n > 30:
            continue
        accepted += 1
        lower, exact, upper = sandwich_check(core)
        if not (lower <= exact <= upper):
            violations += 1
    verdict(6, "sandwich", violations == 0,
            f"violations={violations}/200 (scanned {stream} draws)",
            time.time() - t0, 300)


# 7 ---------------------------------------------------------------------------

def test_c07_scaling_exponent():
    t0 = time.time()
    cfg_data = json.loads((CONFIG_DIR / "scaling_full.json").read_text())
    cfg_data["out"] = None
    cfg = ExperimentConfig.from_dict(cfg_data)
    records, fit = run_experiment(cfg)
    ok = fit is not None and 2.7 <= fit.exponent <= 3.3
    detail = (f"fitted B={fit.exponent:.3f} ci=({fit.ci_low:.3f},"
              f"{fit.ci_high:.3f}) target [2.7, 3.3]") if fit else "no fit"
    detail += f"; kernel density oracle B={kernel_density_exponent(cfg.eps_grid):.3f}"
    verdict(7, "scaling-exponent", ok, detail, time.time() - t0, 1800)


# 8 ---------------------------------------------------------------------------

def test_c08_bipartization_totality():
    t0 = time.time()
    n, trials = 10 ** 4, 1000
    failures = 0
    for s in range(trials):
        g = sample_gnp(n, 1.3 / n, RngSpec(1008, s))
        res = giant_cut_algorithm(g)
        if is_bipartite(g.delete_edges(res.deleted_edge_ids)) is None:
            failures += 1
    verdict(8, "bipartization-totality", failures == 0,
            f"failures={failures}/{trials}", time.time() - t0, 120)


# 9 ---------------------------------------------------------------------------

def test_c09_hom_certificate_soundness():
    t0 = time.time()
    gen_sizes = RngSpec(1009).generator()
    unsound = 0
    fired_total = 0
    for trial in range(500):
        n = 8 + trial % 29  # 8..36
        c = (2.0, 2.5, 3.0)[trial % 3]
        g = sample_gnp(n, c / n, RngSpec(1009, trial + 1))
        if n <= 20:
            bound = dist_bp_exact(g)
        else:
            try:
                bound = dist_bp_via_kernel(g)
            except GuardLimitError:
                continue
        for ell in range(1, 11):
            if no_hom_certificate(g, ell, bound):
                fired_total += 1
                if hom_to_odd_cycle(g, ell) is not None:
                    unsound += 1
    verdict(9, "hom-certificate-soundness",
            unsound == 0 and fired_total > 0,
            f"unsound={unsound}, fired={fired_total} over 500 graphs",
            time.time() - t0, 600)


# 10 --------------------------------------------------------------------------

def test_c10_hero_facts():
    t0 = time.time()
    h = hero_tournament()
    chi, _ = chromatic_number_exact(h)
    bset = backedge_set(h)
    spans_ok = all(
        sum(1 for i, j in combinations(s, 2) if (i, j) in bset) <= len(s)
        for r in range(8)
        for s in combinations(range(1, 8), r)
    )
    ok = chi == 3 and spans_ok and two_coloring(h) is None
    verdict(10, "hero-facts", ok,
            f"chi={chi}, all 128 subsets span <= |S| backedges: {spans_ok}",
            time.time() - t0, 1)


# 11 --------------------------------------------------------------------------

def graph_chromatic_exact(g):
    """Test-local exact graph coloring by backtracking."""
    if g.m == 0:
        return 1 if g.n else 0
    adj = [set() for _ in range(g.n)]
    for u, v in g.edge_pairs():
        adj[u].add(v)
        adj[v].add(u)
    order = sorted(range(g.n), key=lambda v: -len(adj[v]))

    def colorable(k):
        colors = [-1] * g.n

        def rec(i, max_used):
            if i == g.n:
                return True
            v = order[i]
            used = {colors[u] for u in adj[v] if colors[u] >= 0}
            # colors beyond max_used+1 are symmetric to the first fresh one
            for c in range(min(k, max_used + 2)):
                if c not in used:
                    colors[v] = c
                    if rec(i + 1, max(max_used, c)):
                        return True
                    colors[v] = -1
            return False

        return rec(0, -1)

    k = 1
    while not colorable(k):
        k += 1
    return k


def test_c11_backedge_reduction():
    t0 = time.time()
    violations = 0
    for trial in range(500):
        n = 4 + trial % 9  # 4..12
        p = (0.15, 0.3, 0.45)[trial % 3]
        t = sample_tournament(n, p, RngSpec(1011, trial))
        b = backedge_graph(t)
        chi_t, _ = chromatic_number_exact(t)
        chi_b = graph_chromatic_exact(b)
        if chi_t > chi_b:
            violations += 1
        if dist_tour_bp_exact(t) > dist_bp_exact(b):
            violations += 1
    verdict(11, "backedge-reduction", violations == 0,
            f"violations={violations}/500", time.time() - t0, 300)


# 12 --------------------------------------------------------------------------

def test_c12_tournament_statistics():
    t0 = time.time()
    n, eps, trials = 10 ** 4, 0.2, 100
    p = (1 + eps) / n
    alpha = n ** (-1.0 / 6.0)
    pairs = n * (n - 1) / 2
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p))
    good = 0
    for s in range(trials):
        t = sample_tournament(n, p, RngSpec(1012, s))
        ok1 = abs(t.backedge_count - mean) <= 3 * sigma
        n_long = len(long_backedges(t, alpha))
        ok2 = (t.backedge_count - n_long) <= 2 * alpha * (1 + eps) * n
        deg = np.bincount(np.concatenate([t.bu, t.bv]), minlength=n + 1)
        ok3 = deg.max() <= math.log(n)
        good += int(ok1 and ok2 and ok3)
    verdict(12, "tournament-statistics", good >= 95,
            f"all-three-held in {good}/100 trials", time.time() - t0, 120)


# 13 --------------------------------------------------------------------------

def test_c13_blowup_bound():
    t0 = time.time()
    gen = RngSpec(1013).generator()
    checked = 0
    violations = 0
    while checked < 100:
        n = int(gen.integers(20, 41))
        t_sz = int(gen.integers(1, 5))
        alpha = 0.25
        lo_pool = np.arange(1, n // 3)
        hi_pool = np.arange(2 * n // 3 + 1, n + 1)
        if len(lo_pool) < t_sz or len(hi_pool) < t_sz:
            continue
        us = sorted(gen.choice(lo_pool, size=t_sz, replace=False).tolist())
        vs = sorted(gen.choice(hi_pool, size=t_sz, replace=False).tolist())
        if min(v - u for u, v in zip(us, vs)) < alpha * n:
            continue
        backs = {(u, v) for u in us for v in vs}
        t = Tournament(n, sorted(backs))
        matching = list(zip(us, vs))
        count = backedge_blowup_count(t, matching, alpha=alpha)
        bound = math.comb(math.ceil(alpha * t_sz) + 1, 2)
        # independent recount of the reversed pairs the construction implies
        bset = backedge_set(t)
        manual = sum(
            1 for v_hi in vs for u_lo in us if (u_lo, v_hi) in bset
        )
        if count < bound or count > manual:
            violations += 1
        checked += 1
    verdict(13, "blowup-bound", violations == 0,
            f"violations={violations}/100", time.time() - t0, 60)


# 14 --------------------------------------------------------------------------

def test_c14_matching_bound():
    t0 = time.time()
    gen = RngSpec(1014).generator()
    violations = 0
    done = 0
    while done < 200:
        d = 2 + int(gen.integers(0, 5))
        deg = {}
        F = []
        seen = set()
        for _ in range(80):
            u, v = int(gen.integers(0, 40)), int(gen.integers(0, 40))
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                continue
            if deg.get(u, 0) < d and deg.get(v, 0) < d:
                F.append(key)
                seen.add(key)
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
        if not F:
            continue
        got = bounded_degree_matching(F, d)
        used = [x for e in got for x in e]
        if len(set(used)) != len(used) or not set(got) <= set(F):
            violations += 1
        if len(got) < len(F) / (d + 1):
            violations += 1
        done += 1
    verdict(14, "matching-bound", violations == 0,
            f"violations={violations}/200", time.time() - t0, 60)


# 15 --------------------------------------------------------------------------

def test_c15_two_colorability_band():
    t0 = time.time()
    n, trials = 20, 500
    p = 0.5 / n
    hits = 0
    for s in range(trials):
        t = sample_tournament(n, p, RngSpec(1015, s))
        if two_coloring(t) is not None:
            hits += 1
    frac = hits / trials
    verdict(15, "two-colorability-band", 0.02 < frac < 0.98,
            f"empirical Pr[chi<=2]={frac:.3f}, required strictly in (0.02,0.98); "
            f"hero first moment C(n,7)p^5(1-p)^16={hero_first_moment(n, p):.1e}",
            time.time() - t0, 600)


# 16 --------------------------------------------------------------------------

def test_c16_replay_determinism():
    t0 = time.time()
    cfg_data = json.loads((CONFIG_DIR / "replay_mini.json").read_text())
    cfg = ExperimentConfig.from_dict(cfg_data)
    a, _ = run_experiment(cfg)
    b, _ = run_experiment(cfg)
    csv_a = records_to_csv(a, cfg.schema)
    csv_b = records_to_csv(b, cfg.schema)
    verdict(16, "replay-determinism", csv_a == csv_b,
            f"byte-identical={csv_a == csv_b} over {len(a)} trials",
            time.time() - t0, 60)
