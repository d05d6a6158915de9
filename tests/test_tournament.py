import copy
import hashlib
import math
import os
import pickle
from itertools import combinations, permutations

import numpy as np
import pytest

from cutlab import cli, tournament
from cutlab.errors import GuardLimitError
from cutlab.rng import RngSpec
from cutlab.sampling import sample_tournament
from cutlab.tournament import (
    Tournament,
    backedge_blowup_count,
    backedge_graph,
    bounded_degree_matching,
    chromatic_number_exact,
    directed_triangles,
    dist_tour_bp_exact,
    dump_tournament,
    find_h_copy,
    hero_tournament,
    is_transitive,
    long_backedges,
    parse_tournament,
    two_coloring,
)
from oracles import backedge_set, beats, hero_first_moment, reference_find_h_copy


# --- independent oracles ----------------------------------------------------

def brute_transitive(t, verts):
    verts = list(verts)
    for a, b, c in combinations(verts, 3):
        arcs = [(x, y) if beats(t, x, y) else (y, x)
                for x, y in ((a, b), (b, c), (a, c))]
        heads = {x for x, _ in arcs}
        if len(heads) == 3:  # every vertex wins once: a directed 3-cycle
            return False
    return True


def brute_two_colorable(t):
    vs = list(range(1, t.n + 1))
    for r in range(t.n + 1):
        for s in combinations(vs, r):
            s = set(s)
            if brute_transitive(t, s) and brute_transitive(t, set(vs) - s):
                return True
    return False


def brute_min_fas(t, verts):
    verts = list(verts)
    if len(verts) <= 1:
        return 0
    best = None
    for perm in permutations(verts):
        pos = {v: i for i, v in enumerate(perm)}
        cost = sum(
            1
            for x in verts
            for y in verts
            if x != y and beats(t, x, y) and pos[x] > pos[y]
        )
        best = cost if best is None else min(best, cost)
    return best


def brute_dist_tour(t):
    vs = list(range(1, t.n + 1))
    best = None
    for r in range(t.n + 1):
        for s in combinations(vs, r):
            cost = brute_min_fas(t, s) + brute_min_fas(t, set(vs) - set(s))
            best = cost if best is None else min(best, cost)
    return best


# --- construction and validation ---------------------------------------------

def test_tournament_validation():
    with pytest.raises(ValueError):
        Tournament(5, [(3, 2)])
    with pytest.raises(ValueError):
        Tournament(5, [(0, 2)])
    with pytest.raises(ValueError):
        Tournament(5, [(1, 6)])
    with pytest.raises(ValueError):
        Tournament(5, [(1, 2), (1, 2)])
    with pytest.raises(ValueError, match="duplicate"):
        Tournament(5, [(1, 2), (2, 4), (1, 3), (1, 2)])  # unsorted duplicate
    with pytest.raises(ValueError, match="duplicate"):
        Tournament(5, [(1, 2), (1, 3), (1, 3), (2, 4)])  # sorted duplicate
    with pytest.raises(ValueError, match="nonnegative"):
        Tournament(-2)
    for bad in (3.7, True, "7", None):
        with pytest.raises(ValueError, match="vertex count"):
            Tournament(bad)
    t = Tournament(np.int64(7), [(1, 3)])
    assert type(t.n) is int and t.n == 7


def test_tournament_backedges_must_be_integers():
    for bad in ([(1.5, 3)], np.array([[1.0, 3.0]]), [(True, 3)], [("1", "3")],
                [(1, 2 ** 63)]):
        with pytest.raises(ValueError, match="backedges must"):
            Tournament(5, bad)
    assert Tournament(5, []).backedge_count == 0


def test_tournament_copies_stay_read_only_with_no_stale_cache():
    t = Tournament(5, [(1, 3), (2, 4)])
    for u in (copy.deepcopy(t), pickle.loads(pickle.dumps(t)), copy.copy(t)):
        assert u.n == 5
        assert (u.bu.tolist(), u.bv.tolist()) == ([1, 2], [3, 4])
        for arr in (u.bu, u.bv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        assert directed_triangles(u) == [(1, 2, 3), (2, 3, 4)]


def test_tournament_stores_any_input_order_sorted_and_read_only():
    t = sample_tournament(300, 0.05, RngSpec(5))
    pairs = np.column_stack([t.bu, t.bv])
    shuffled = pairs[RngSpec(6).generator().permutation(len(pairs))]
    for given in (pairs, shuffled, shuffled.tolist()):
        u = Tournament(300, given)
        assert u.bu.tolist() == t.bu.tolist()
        assert u.bv.tolist() == t.bv.tolist()
        for arr in (u.bu, u.bv):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
    u = Tournament(300, pairs)
    pairs[0] = 0  # sorted input is copied, not shared
    assert (u.bu[0], u.bv[0]) == (t.bu[0], t.bv[0])


def test_beats_orientation():
    t = Tournament(3, [(1, 3)])
    assert beats(t, 1, 2) and beats(t, 2, 3) and beats(t, 3, 1)


# --- hero facts ---------------------------------------------------------------

def test_hero_has_five_backedges():
    assert hero_tournament().backedge_count == 5


def test_hero_arc_structure():
    h = hero_tournament()
    assert beats(h, 1, 2) and beats(h, 2, 3) and beats(h, 3, 1)
    assert beats(h, 4, 5) and beats(h, 5, 6) and beats(h, 6, 4)
    for a in (1, 2, 3):
        for b in (4, 5, 6):
            assert beats(h, a, b)
        assert beats(h, 7, a)
    for b in (4, 5, 6):
        assert beats(h, b, 7)


def test_hero_not_two_colorable_exhaustive():
    h = hero_tournament()
    assert not brute_two_colorable(h)
    assert two_coloring(h) is None


def test_hero_chromatic_number_three():
    h = hero_tournament()
    k, coloring = chromatic_number_exact(h)
    assert k == 3
    for c in range(3):
        cls = [v + 1 for v in range(7) if coloring[v] == c]
        assert is_transitive(h, cls)


def test_hero_subsets_span_at_most_size_backedges():
    h = hero_tournament()
    bset = backedge_set(h)
    for r in range(8):
        for s in combinations(range(1, 8), r):
            spanned = sum(1 for i, j in combinations(s, 2) if (i, j) in bset)
            assert spanned <= len(s)


def test_hero_reversal_distance_frozen():
    # pinned by the exhaustive bipartition x ordering brute force
    h = hero_tournament()
    assert brute_dist_tour(h) == 1
    assert dist_tour_bp_exact(h) == 1


# --- transitivity and coloring -------------------------------------------------

def test_is_transitive_basic():
    assert is_transitive(Tournament(5, []))
    assert not is_transitive(Tournament(3, [(1, 3)]))
    assert not is_transitive(hero_tournament())
    assert is_transitive(hero_tournament(), [1, 2, 4])


def test_is_transitive_matches_brute_on_subsets():
    gen = RngSpec(301).generator()
    for _ in range(40):
        t = sample_tournament(9, 0.3, gen)
        for r in (3, 5, 7):
            verts = list(range(1, r + 1))
            assert is_transitive(t, verts) == brute_transitive(t, verts)


def test_is_transitive_rejects_a_bad_subset():
    with pytest.raises(ValueError, match="out of range"):
        is_transitive(Tournament(3, []), [0, 5])
    with pytest.raises(ValueError, match="out of range"):
        is_transitive(Tournament(3, []), [1, 4])
    with pytest.raises(ValueError, match="repeats"):
        is_transitive(Tournament(3, [(1, 3)]), [1, 2, 3, 3])
    with pytest.raises(ValueError, match="repeats"):
        is_transitive(Tournament(3, []), [2, 2])
    for bad in ([1.5, 2], [1, 2.0], [True, 2], ["1", "2"], np.array([1.0, 2.0])):
        with pytest.raises(ValueError, match="subset must be integers"):
            is_transitive(Tournament(4), bad)
    assert is_transitive(Tournament(3, [(1, 3)]), [])
    assert is_transitive(Tournament(3, [(1, 3)]), (3, 1))


def test_chromatic_small_cases():
    assert chromatic_number_exact(Tournament(4, []))[0] == 1
    c3 = Tournament(3, [(1, 3)])
    k, coloring = chromatic_number_exact(c3)
    assert k == 2


def test_two_coloring_matches_brute_force():
    gen = RngSpec(303).generator()
    for _ in range(60):
        t = sample_tournament(8, 0.3, gen)
        got = two_coloring(t)
        want = brute_two_colorable(t)
        assert (got is not None) == want
        if got is not None:
            for c in (0, 1):
                cls = [v + 1 for v in range(t.n) if got[v] == c]
                assert is_transitive(t, cls)


def test_coloring_classes_always_transitive():
    gen = RngSpec(305).generator()
    for _ in range(40):
        t = sample_tournament(10, 0.25, gen)
        k, coloring = chromatic_number_exact(t)
        for c in range(k):
            cls = [v + 1 for v in range(t.n) if coloring[v] == c]
            assert is_transitive(t, cls)
        if k > 1:
            assert two_coloring(t) is None if k > 2 else True


def test_chromatic_deterministic_witness():
    t = sample_tournament(10, 0.3, RngSpec(307))
    a = chromatic_number_exact(t)
    b = chromatic_number_exact(t)
    assert a[0] == b[0] and a[1].tolist() == b[1].tolist()


def test_guards_raise():
    with pytest.raises(GuardLimitError):
        chromatic_number_exact(Tournament(15, []))
    with pytest.raises(GuardLimitError):
        two_coloring(Tournament(25, []))
    with pytest.raises(GuardLimitError):
        dist_tour_bp_exact(Tournament(15, []))


# --- reversal distance ----------------------------------------------------------

def test_dist_tour_basic():
    assert dist_tour_bp_exact(Tournament(6, [])) == 0
    assert dist_tour_bp_exact(Tournament(3, [(1, 3)])) == 0


def test_dist_tour_matches_brute_force():
    gen = RngSpec(309).generator()
    for _ in range(25):
        t = sample_tournament(6, 0.35, gen)
        assert dist_tour_bp_exact(t) == brute_dist_tour(t)


def test_dist_tour_zero_iff_two_colorable():
    gen = RngSpec(311).generator()
    for _ in range(40):
        t = sample_tournament(9, 0.25, gen)
        assert (dist_tour_bp_exact(t) == 0) == (two_coloring(t) is not None)


# --- hero copy search -------------------------------------------------------------

def test_h_copy_identity():
    res = find_h_copy(hero_tournament())
    assert res.found == (1, 2, 3, 4, 5, 6, 7)
    assert not res.exhausted


def test_h_copy_transitive_none():
    res = find_h_copy(Tournament(40, []))
    assert res.found is None and not res.exhausted


def test_h_copy_with_appended_dominated_vertex():
    h = hero_tournament()
    bigger = Tournament(8, list(zip(h.bu.tolist(), h.bv.tolist())))
    res = find_h_copy(bigger)
    assert res.found == (1, 2, 3, 4, 5, 6, 7)


def test_h_copy_found_tuple_is_embedding():
    gen = RngSpec(313).generator()
    hits = 0
    for _ in range(20):
        t = sample_tournament(400, 2.5 / 400, gen)
        res = find_h_copy(t, budget=10 ** 6)
        if res.found is None:
            continue
        hits += 1
        u = res.found
        h = hero_tournament()
        for i, j in combinations(range(1, 8), 2):
            assert beats(t, u[i - 1], u[j - 1]) == beats(h, i, j)
        sub_chi, _ = chromatic_number_exact(
            Tournament(7, [
                (a + 1, b + 1)
                for a, b in combinations(range(7), 2)
                if beats(t, u[b], u[a])
            ])
        )
        assert sub_chi == 3
    assert hits >= 1


def test_h_copy_frequency_bounded_away_from_zero_at_threshold():
    # at p = 1.5/n the containment probability is a small constant: the
    # copies all hang off a rare 4-vertex backedge skeleton, so frequency
    # is flat in n rather than tending to 1; check it stays positive and
    # that the seeded search space is fully explored
    for n in (1000, 10000, 100000):
        found = 0
        for s in range(40):
            t = sample_tournament(n, 1.5 / n, RngSpec(606, s))
            res = find_h_copy(t, budget=10 ** 6)
            assert not res.exhausted
            found += res.found is not None
        assert found >= 2, (n, found)


def _same_search(t, budget):
    res, want = find_h_copy(t, budget), reference_find_h_copy(t, budget)
    assert (res.found, res.exhausted, res.scanned) == (
        want.found, want.exhausted, want.scanned), (t, budget)
    return res


def _spread(t, gaps):
    """t with vertex i moved to gaps[0] + ... + gaps[i-1]."""
    at = np.cumsum(gaps)
    return Tournament(int(at[-1]), np.column_stack([at[t.bu - 1], at[t.bv - 1]]))


@pytest.mark.parametrize("budget", [0, 5, 50, 10 ** 6])
def test_h_copy_matches_reference(budget):
    ts = [sample_tournament(n, 1.5 / n, RngSpec(606, s))
          for n in (1000, 10000) for s in range(10)]
    ts += [sample_tournament(60, 0.3, RngSpec(808, s)) for s in range(10)]
    ts += [sample_tournament(30, 0.5, RngSpec(909, s)) for s in range(10)]
    ts += [Tournament(0), Tournament(1), Tournament(2, [(1, 2)]),
           hero_tournament(), sample_tournament(7, 0.5, RngSpec(910))]
    ts += [sample_tournament(10 ** 5, 1.5e-5, RngSpec(606, s)) for s in range(4)]
    found = sum(_same_search(t, budget).found is not None for t in ts)
    assert budget < 10 ** 6 or found > 0


def _hit_tournaments():
    h = hero_tournament()
    ts = [h, _spread(h, [1, 1, 1, 1, 1, 1, 1])]
    ts += [sample_tournament(60, 0.3, RngSpec(808, s)) for s in range(10)]
    ts += [sample_tournament(400, 2.5 / 400, RngSpec(313, s)) for s in range(10)]
    return [t for t in ts if find_h_copy(t).found is not None]


def test_h_copy_matches_reference_at_every_budget_up_to_the_hit():
    # the hero's hit costs 2: budget 0 runs out at its (d, f) candidate
    # and budget 1 at its e, so both exhaustion points are covered
    ts = _hit_tournaments()
    assert len(ts) >= 10
    assert max(find_h_copy(t).scanned for t in ts) > 20
    for t in ts:
        for budget in range(find_h_copy(t).scanned + 2):
            res = _same_search(t, budget)
            assert res.exhausted == (res.found is None)
            assert not res.exhausted or res.scanned == budget + 1


@pytest.mark.parametrize("block", [1, 7])
def test_h_copy_is_the_same_in_small_seed_blocks(monkeypatch, block):
    monkeypatch.setattr(tournament, "_BLOCK", block)
    for t in _hit_tournaments()[:8]:
        for budget in (0, 3, 10 ** 6):
            _same_search(t, budget)


def test_h_copy_at_a_vertex_count_past_int64_keys():
    n = 1 << 40
    h = hero_tournament()
    top = _spread(h, [n - 6, 1, 1, 1, 1, 1, 1])
    res = _same_search(top, 10 ** 6)
    assert res.found == tuple(range(n - 6, n + 1))
    ends = _spread(h, [1, (1 << 20) - 1, (1 << 30) - (1 << 20),
                       (1 << 35) - (1 << 30), 5, (1 << 39) - (1 << 35) - 5,
                       1 << 39])
    assert ends.n == n
    res = _same_search(ends, 10 ** 6)
    assert res.found == (1, 1 << 20, 1 << 30, 1 << 35, (1 << 35) + 1,
                         1 << 39, n)
    for budget in (0, 1):
        assert _same_search(ends, budget).exhausted


def test_h_copy_is_the_same_on_widely_spread_vertices():
    # far apart endpoints are renumbered before the search: gaps of 1 stay,
    # wider ones shrink, and neither the hit nor the count may change
    gen = RngSpec(319).generator()
    for s in range(20):
        t = sample_tournament(25, 0.3, RngSpec(320, s))
        spread = _spread(t, gen.choice([1, 1, 2, 3, 1 << 34], size=t.n))
        for budget in (0, 1, 2, 5, 20, 10 ** 6):
            _same_search(spread, budget)


def test_h_copy_budget_flag():
    t = sample_tournament(2000, 1.5 / 2000, RngSpec(317))
    res = find_h_copy(t, budget=1)
    assert res.found is None
    # with such a tiny budget, either nothing was scanned or it ran out
    assert res.exhausted or res.scanned <= 1


def test_h_copy_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="budget"):
        find_h_copy(hero_tournament(), budget=-1)
    # the CLI exits 2, as the config's budget option does
    assert cli.main(["tournament", "--n", "10", "--p", "0.2", "--find-h",
                     "--budget", "-1"]) == 2
    assert cli.main(["tournament", "--n", "10", "--p", "0.2", "--find-h",
                     "--budget", "0", "--out", os.devnull]) == 0


def test_h_copy_rejects_a_budget_that_is_no_integer():
    for bad in (2.5, 2.0, True, "5", None):
        with pytest.raises(ValueError, match="budget"):
            find_h_copy(hero_tournament(), budget=bad)
    assert find_h_copy(hero_tournament(), budget=np.int64(2)).scanned == 2


# --- backedge machinery --------------------------------------------------------

def test_backedge_graph_shapes():
    assert backedge_graph(Tournament(5, [])).m == 0
    full = [(i, j) for i, j in combinations(range(1, 6), 2)]
    assert backedge_graph(Tournament(5, full)).m == 10
    assert backedge_graph(hero_tournament()).m == 5


def test_long_backedges():
    t = Tournament(10, [(1, 10), (2, 4), (3, 9)])
    assert len(long_backedges(t, 1.0)) == 0
    assert len(long_backedges(t, 1e-9)) == 3
    got = long_backedges(t, 0.5)
    assert {(int(a), int(b)) for a, b in got} == {(1, 10), (3, 9)}
    with pytest.raises(ValueError):
        long_backedges(t, 0.0)
    with pytest.raises(ValueError):
        long_backedges(t, 1.5)


def test_matching_already_perfect():
    F = [(1, 2), (3, 4), (5, 6)]
    got = bounded_degree_matching(F, 1)
    assert sorted(got) == F


def test_matching_star():
    F = [(0, i) for i in range(1, 6)]
    got = bounded_degree_matching(F, 5)
    assert len(got) == 1


def test_matching_path_five_edges():
    F = [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    got = bounded_degree_matching(F, 2)
    assert len(got) >= 2
    used = [v for e in got for v in e]
    assert len(set(used)) == len(used)


def test_matching_random_bounded_degree_sets():
    gen = RngSpec(319).generator()
    for trial in range(50):
        d = 2 + trial % 5
        deg = {}
        F = []
        for _ in range(60):
            u, v = int(gen.integers(0, 30)), int(gen.integers(0, 30))
            if u == v or (min(u, v), max(u, v)) in F:
                continue
            if deg.get(u, 0) < d and deg.get(v, 0) < d:
                F.append((min(u, v), max(u, v)))
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
        if not F:
            continue
        got = bounded_degree_matching(F, d)
        used = [v for e in got for v in e]
        assert len(set(used)) == len(used)
        assert set(got) <= set(F)
        assert len(got) >= len(F) / (d + 1)


def test_matching_validation():
    with pytest.raises(ValueError):
        bounded_degree_matching([(1, 2), (2, 3)], 1)  # degree bound broken
    with pytest.raises(ValueError):
        bounded_degree_matching([(1, 1)], 2)
    with pytest.raises(ValueError):
        bounded_degree_matching([(1, 2), (2, 1)], 2)
    assert bounded_degree_matching([], 3) == []


def test_matching_rejects_bad_input():
    for bad in (1.5, True, None, "2"):
        with pytest.raises(ValueError, match="degree bound must be an integer"):
            bounded_degree_matching([(1, 2)], bad)
    with pytest.raises(ValueError, match="degree bound must be nonnegative"):
        bounded_degree_matching([], -1)
    for bad in ([(1.5, 2)], [("a", "b")], [(True, 2)], [(1, 2, 3)],
                np.array([[1.0, 2.0]])):
        with pytest.raises(ValueError, match="edges must be"):
            bounded_degree_matching(bad, 3)
    with pytest.raises(ValueError, match="duplicate"):
        bounded_degree_matching([(1, 2), (3, 4), (2, 1)], 2)
    assert bounded_degree_matching([], 0) == []
    assert bounded_degree_matching(np.array([[4, 3], [1, 2]]), 1) == [(1, 2), (4, 3)]


def matching_family():
    """300 seeded edge sets, each of max degree at most d = 2..7 and each
    edge in a random orientation, then demo 06's long backedges of
    T(10^4, 1.2/n)."""
    gen = RngSpec(349).generator()
    for trial in range(300):
        d, size = 2 + trial % 6, int(gen.integers(8, 41))
        deg, seen, F = {}, set(), []
        for _ in range(3 * size):
            u, v = gen.integers(0, size, size=2).tolist()
            if (u == v or (min(u, v), max(u, v)) in seen
                    or max(deg.get(u, 0), deg.get(v, 0)) >= d):
                continue
            seen.add((min(u, v), max(u, v)))
            F.append((u, v) if gen.random() < 0.5 else (v, u))
            deg[u], deg[v] = deg.get(u, 0) + 1, deg.get(v, 0) + 1
        yield F, d
    n = 10 ** 4
    t = sample_tournament(n, 1.2 / n, RngSpec(808))
    deg = np.bincount(np.concatenate([t.bu, t.bv]))
    yield ([tuple(e) for e in long_backedges(t, n ** (-1 / 6)).tolist()],
           int(deg.max()))


def test_matching_outputs_are_pinned():
    """sha256 over the matchings of ``matching_family``: the colouring is
    deterministic, so any change of fan order, free colour, path inversion
    or rotation shows here."""
    digest = hashlib.sha256()
    for F, d in matching_family():
        got = bounded_degree_matching(F, d)
        digest.update(repr([(int(a), int(b)) for a, b in got]).encode())
    assert digest.hexdigest() == \
        "41e71ebc94fa94ffaa19be78d001647ef0c7c3ecee814c095377bc52051ceb0b"


def test_blowup_single_edge():
    t = Tournament(10, [(2, 8)])
    assert backedge_blowup_count(t, [(2, 8)], alpha=0.5) == 1


def test_blowup_extremal_configuration():
    # t disjoint long backedges over one threshold, all cross pairs reversed
    for tt in (2, 3, 4):
        n = 6 * tt
        us = list(range(1, tt + 1))
        vs = list(range(n - tt + 1, n + 1))
        backs = [(u, v) for u in us for v in vs]
        t = Tournament(n, backs)
        matching = list(zip(us, vs))
        count = backedge_blowup_count(t, matching, alpha=0.5)
        assert count == tt * (tt + 1) // 2
        assert count >= math.comb(math.ceil(0.5 * tt) + 1, 2)


def test_blowup_cross_checked_by_enumeration():
    gen = RngSpec(331).generator()
    done = 0
    while done < 25:
        n = int(gen.integers(20, 41))
        tt = int(gen.integers(1, 4))
        alpha = 0.25
        us = sorted(gen.choice(np.arange(1, n // 3), size=tt, replace=False).tolist())
        vs = sorted(gen.choice(np.arange(2 * n // 3 + 1, n + 1), size=tt,
                               replace=False).tolist())
        if min(v - u for u, v in zip(us, vs)) < alpha * n:
            continue
        backs = {(u, v) for u in us for v in vs}
        # noise away from the endpoint set keeps preconditions intact
        others = [x for x in range(1, n + 1) if x not in set(us) | set(vs)]
        for _ in range(5):
            a, b = sorted(gen.choice(others, size=2, replace=False).tolist())
            backs.add((a, b))
        t = Tournament(n, sorted(backs))
        matching = list(zip(us, vs))
        count = backedge_blowup_count(t, matching, alpha=alpha)
        # recount: matched pairs plus implied (v_i, u_j) reversals
        bset = backedge_set(t)
        manual = sum(
            1
            for (u1, v1) in matching
            for (u2, v2) in matching
            if (min(u2, v1), max(u2, v1)) in bset and v1 >= u2
        )
        # manual counts ordered pairs (i, j) with v_i beating u_j reversed;
        # the construction makes every such pair count once
        assert count <= manual
        assert count >= math.comb(math.ceil(alpha * tt) + 1, 2)
        done += 1


def test_blowup_validation():
    t = Tournament(10, [(1, 9), (2, 8)])
    with pytest.raises(ValueError):
        backedge_blowup_count(t, [(1, 8)], alpha=0.5)  # not a backedge
    with pytest.raises(ValueError):
        backedge_blowup_count(t, [(1, 9)], alpha=0.95)  # not long enough
    with pytest.raises(ValueError):
        backedge_blowup_count(t, [], alpha=0.5)
    with pytest.raises(ValueError, match="matching must be integers"):
        backedge_blowup_count(t, [(2.0, 8.0)], alpha=0.5)
    with pytest.raises(ValueError, match="out of range"):
        backedge_blowup_count(t, [(0, 9)], alpha=0.5)
    t2 = Tournament(10, [(1, 9), (1, 8)])
    with pytest.raises(ValueError):
        backedge_blowup_count(t2, [(1, 9), (1, 8)], alpha=0.5)  # share vertex


def test_in_set_steps_run_in_the_size_of_their_input():
    t = Tournament(2 ** 40, [(1, 2 ** 40)])
    assert is_transitive(t, [1, 2 ** 40])
    assert not is_transitive(t, [1, 2, 2 ** 40])  # 1 -> 2 -> 2^40 -> 1
    assert backedge_blowup_count(t, [(1, 2 ** 40)], alpha=0.5) == 1


def test_blowup_reads_only_the_backedges_up_from_the_matching(monkeypatch):
    # the whole-tournament backedge test sizes its key table by m
    def refuse(*args):
        raise AssertionError("the blow-up count built a key table of m")

    monkeypatch.setattr(tournament, "_backedge_test", refuse)
    t = sample_tournament(10 ** 4, 1.2e-4, RngSpec(808))
    longest = int(np.argmax(t.bv - t.bu))
    e = (int(t.bu[longest]), int(t.bv[longest]))
    assert backedge_blowup_count(t, [e], alpha=0.5) == 1
    with pytest.raises(ValueError, match="not a backedge"):
        backedge_blowup_count(t, [(e[0], e[1] - 1)], alpha=0.5)


def brute_blowup(t, matching):
    """The blow-up count by its definition: the first k with the most pairs
    u <= k < v, their lower ends by wins among themselves, then the implied
    reversals (lower end of a later pair, upper end of an earlier or the
    same pair) that are backedges."""
    bset = backedge_set(t)
    chosen = max(([(u, v) for u, v in matching if u <= k < v]
                  for k in range(1, t.n + 1)), key=len)
    lows = [u for u, _ in chosen]
    chosen.sort(key=lambda e: -sum(beats(t, e[0], x) for x in lows if x != e[0]))
    return sum((chosen[j][0], chosen[i][1]) in bset
               for i in range(len(chosen)) for j in range(i, len(chosen)))


def test_blowup_threshold_and_order_match_brute():
    gen = RngSpec(353).generator()
    counts = set()
    for _ in range(300):
        t = sample_tournament(12, 0.4, gen)
        matching, used = [], set()
        for i in gen.permutation(t.backedge_count).tolist():
            e = (int(t.bu[i]), int(t.bv[i]))
            if used.isdisjoint(e) and brute_transitive(t, used | set(e)):
                matching.append(e)
                used |= set(e)
        if matching:
            alpha = min(v - u for u, v in matching) / t.n
            count = backedge_blowup_count(t, matching, alpha)
            assert count == brute_blowup(t, matching)
            counts.add(count)
    assert counts == {1, 3, 6, 10}  # one to four pairs straddle k*


def brute_triangles(t, verts):
    return [tri for tri in combinations(verts, 3) if not brute_transitive(t, tri)]


def test_directed_triangles_match_brute():
    gen = RngSpec(337).generator()
    cases = [sample_tournament(10, 0.3, gen) for _ in range(30)]
    cases += [Tournament(0), Tournament(1), Tournament(2, [(1, 2)]),
              Tournament(9), hero_tournament(),
              sample_tournament(10, 0.7, RngSpec(338))]
    for t in cases:
        assert directed_triangles(t) == brute_triangles(t, range(1, t.n + 1))
    # (n + 1)^2 passes int64 here, so the backedge test ranks the endpoints;
    # a cyclic triple holds a backedge and lies within its span, so a window
    # around the backedges holds them all
    a = 2 ** 39
    t = Tournament(2 ** 40, [(a, a + 1), (a + 1, a + 2)])
    assert directed_triangles(t) == [(a, a + 1, a + 2)]
    assert brute_triangles(t, range(a - 2, a + 5)) == [(a, a + 1, a + 2)]


def test_directed_triangles_shift_past_int64_pair_keys():
    gen = RngSpec(339).generator()
    for p in (0.1, 0.3, 0.7):
        t = sample_tournament(30, p, gen)
        shift = 2 ** 39
        far = Tournament(2 ** 40, np.column_stack([t.bu, t.bv]) + shift)
        assert directed_triangles(far) == [
            (a + shift, b + shift, c + shift) for a, b, c in directed_triangles(t)]


def test_tournament_io_roundtrip():
    t = sample_tournament(15, 0.2, RngSpec(341))
    text = dump_tournament(t)
    back = parse_tournament(text)
    assert back.n == t.n
    assert backedge_set(back) == backedge_set(t)
    with pytest.raises(ValueError):
        parse_tournament("")
    with pytest.raises(ValueError):
        parse_tournament("3 2\n1 2")


@pytest.mark.parametrize("text", [
    "3 1\n1 2 3",
    "3 1\n1 x",
    "3 1\n1 99999999999999999999",
    "3 2\n1 2\n1 3\n2 3",
    "3 2\n1 2\n1 2",
    "3 1\n1 4",
    "3 1\n2 2",
    "3 1\n3 2",
    "-2 0",
], ids=["three-fields", "non-integer", "outside-int64", "header-count",
        "duplicate", "out-of-range", "i-equals-j", "i-above-j", "negative-n"])
def test_tournament_reader_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_tournament(text)


def test_hero_first_moment_at_n20():
    # 5 of the hero's 21 pairs are backedges; criterion 15's band is n = 20
    assert hero_tournament().backedge_count == 5
    assert round(hero_first_moment(20, 0.5 / 20), 5) == 5.0e-4
    assert hero_first_moment(415, 0.5 / 415) < 1.0 <= hero_first_moment(416, 0.5 / 416)
