"""Biased tournaments: backedge structure, exact colorings, and the
counting machinery behind the non-2-colorability arguments.

A tournament on 1..n is stored as its set of backedges: pairs (i, j) with
i < j whose arc points j -> i.  Pairs absent from the set are forward arcs
i -> j, so memory stays O(#backedges) even for n in the millions.
"""

from __future__ import annotations

import math
from bisect import bisect
from dataclasses import dataclass
from itertools import combinations, groupby
from operator import itemgetter
from typing import Optional

import numpy as np

from .errors import GuardLimitError
from .graph import (SparseGraph, _dump_pairs, _pairs, _read_pairs,
                    _reject_duplicate_pairs)


class Tournament:
    """Vertex set {1..n} in natural order plus the backedge set."""

    __slots__ = ("n", "bu", "bv", "_bset")

    def __init__(self, n: int, backedges=()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = _pairs(backedges, "backedges")
        if arr.size:
            if (arr[:, 0] >= arr[:, 1]).any():
                raise ValueError("backedge pairs must satisfy i < j")
            if arr.min() < 1 or arr.max() > n:
                raise ValueError("backedge endpoint out of range 1..n")
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
            _reject_duplicate_pairs(arr[:, 0], arr[:, 1], "duplicate backedge")
        self.n = int(n)
        self.bu = arr[:, 0]
        self.bv = arr[:, 1]
        self._bset = None

    @property
    def backedge_count(self) -> int:
        return len(self.bu)

    def backedge_set(self) -> set:
        if self._bset is None:
            self._bset = set(zip(self.bu.tolist(), self.bv.tolist()))
        return self._bset

    def is_backedge(self, i: int, j: int) -> bool:
        if i > j:
            i, j = j, i
        return (i, j) in self.backedge_set()

    def beats(self, x: int, y: int) -> bool:
        """True iff the arc between x and y points x -> y."""
        if x == y:
            raise ValueError("no self-arcs")
        if x < y:
            return not self.is_backedge(x, y)
        return self.is_backedge(y, x)

    def __repr__(self):
        return f"Tournament(n={self.n}, backedges={self.backedge_count})"


def hero_tournament() -> Tournament:
    """The 7-vertex tournament with two 3-cycles dominated as
    1->2->3->1, 4->5->6->4, {1,2,3}->{4,5,6}->7->{1,2,3}.

    In the natural ordering it has exactly 5 backedges and chromatic
    number 3, which makes it the standard small certificate against
    2-colorability.
    """
    return Tournament(7, [(1, 3), (4, 6), (1, 7), (2, 7), (3, 7)])


def backedge_graph(t: Tournament) -> SparseGraph:
    """Undirected graph of reversed pairs.  Tournament vertex i maps to
    graph vertex i-1 (the graph side is 0-based)."""
    return SparseGraph(t.n, np.column_stack([t.bu - 1, t.bv - 1]))


def _scores_full(t: Tournament) -> np.ndarray:
    # out-degree of v: forward wins (n - v) minus reversed-away, plus wins
    # against smaller vertices via backedges
    lost = np.bincount(t.bu, minlength=t.n + 1)[1:]
    won = np.bincount(t.bv, minlength=t.n + 1)[1:]
    return (t.n - np.arange(1, t.n + 1)) - lost + won


def _scores_subset(t: Tournament, verts) -> list[int]:
    verts = list(verts)
    return [sum(t.beats(x, y) for y in verts if y != x) for x in verts]


def is_transitive(t: Tournament, subset=None) -> bool:
    """A tournament is transitive iff its score sequence is 0,1,...,k-1."""
    if subset is None:
        scores = np.sort(_scores_full(t))
        return bool((scores == np.arange(t.n)).all())
    scores = sorted(_scores_subset(t, subset))
    return scores == list(range(len(scores)))


def directed_triangles(t: Tournament) -> list[tuple]:
    """All cyclically oriented triples i < j < k.

    A triple is cyclic iff it has exactly one backedge spanning it
    ((i,k) reversed, middle arcs forward) or two chained backedges
    ((i,j) and (j,k) reversed, (i,k) forward).  Enumeration is seeded
    from the backedges, so the cost is output-sensitive.
    """
    bset = t.backedge_set()
    tris = []
    for i, k in zip(t.bu.tolist(), t.bv.tolist()):
        for j in range(i + 1, k):
            if (i, j) not in bset and (j, k) not in bset:
                tris.append((i, j, k))
    by_upper = {}
    for i, j in zip(t.bu.tolist(), t.bv.tolist()):
        by_upper.setdefault(j, []).append(i)
    for j, k in zip(t.bu.tolist(), t.bv.tolist()):
        for i in by_upper.get(j, ()):
            if (i, k) not in bset:
                tris.append((i, j, k))
    tris.sort()
    return tris


def _k_coloring(t: Tournament, k: int, triangles) -> Optional[np.ndarray]:
    """Lexicographically least proper k-coloring, or None.

    A color class is transitive iff it contains no directed triangle, so
    this is exact hypergraph coloring over the cyclic triples.  Vertices
    are assigned in natural order with colors tried in ascending order,
    which makes the first complete assignment the lex-least witness.
    """
    by_last = [[] for _ in range(t.n + 1)]
    for tri in triangles:
        by_last[tri[2]].append(tri)
    color = np.full(t.n + 1, -1, dtype=np.int64)

    def ok(v):
        for (a, b, c) in by_last[v]:
            if color[a] == color[b] == color[c]:
                return False
        return True

    def dfs(v):
        if v > t.n:
            return True
        for c in range(k):
            color[v] = c
            if ok(v) and dfs(v + 1):
                return True
        color[v] = -1
        return False

    if dfs(1):
        return color[1:].copy()
    return None


def two_coloring(t: Tournament, limit: int = 24) -> Optional[np.ndarray]:
    """Exact 2-colorability test with witness (vertex i -> color[i-1])."""
    if t.n > limit:
        raise GuardLimitError(f"exact 2-coloring guarded at n <= {limit}")
    return _k_coloring(t, 2, directed_triangles(t))


def chromatic_number_exact(t: Tournament, limit: int = 14):
    """Minimal k with a witness coloring (lexicographically least)."""
    if t.n > limit:
        raise GuardLimitError(f"exact chromatic number guarded at n <= {limit}")
    if t.n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    if is_transitive(t):
        return 1, np.zeros(t.n, dtype=np.int64)
    tris = directed_triangles(t)
    k = 2
    while True:
        witness = _k_coloring(t, k, tris)
        if witness is not None:
            return k, witness
        k += 1


def _min_fas_table(t: Tournament) -> list[int]:
    """dp[S] = minimum feedback arc set size of the sub-tournament S.

    Ordering DP over bitmasks: placing v last among S adds one reversal
    for every u in S\\{v} that v beats.
    """
    n = t.n
    out_mask = [0] * (n + 1)
    for v in range(1, n + 1):
        mask = 0
        for u in range(1, n + 1):
            if u != v and t.beats(v, u):
                mask |= 1 << (u - 1)
        out_mask[v] = mask
    size = 1 << n
    dp = [0] * size
    for s in range(1, size):
        best = None
        rest = s
        while rest:
            low = rest & (-rest)
            v = low.bit_length()
            prev = s ^ low
            cand = dp[prev] + (out_mask[v] & prev).bit_count()
            if best is None or cand < best:
                best = cand
            rest ^= low
        dp[s] = best
    return dp


def dist_tour_bp_exact(t: Tournament, limit: int = 14) -> int:
    """Fewest arc reversals making the tournament 2-colorable.

    Minimizes, over all bipartitions, the sum of per-class minimum
    feedback arc sets; the single DP table serves both classes via
    complement symmetry.
    """
    if t.n > limit:
        raise GuardLimitError(f"exact reversal distance guarded at n <= {limit}")
    if t.n == 0:
        return 0
    dp = _min_fas_table(t)
    full = (1 << t.n) - 1
    # vertex 1's side is fixed; complements cover the rest
    return min(dp[s] + dp[full ^ s]
               for s in range(1 << (t.n - 1), 1 << t.n)) if t.n > 1 else 0


@dataclass(frozen=True)
class HCopySearch:
    """Outcome of a budgeted ordered-copy search.

    ``found`` is the increasing 7-tuple embedding the hero tournament, or
    None.  ``exhausted`` means the budget ran out, so absence is not a
    proof of absence.
    """

    found: Optional[tuple]
    exhausted: bool
    scanned: int


def find_h_copy(t: Tournament, budget: int = 10_000_000) -> HCopySearch:
    """Search for an ordered copy of the hero: u1<...<u7 whose induced
    orientation matches it exactly.

    The scan is seeded by the hero's five backedges: u7 must sit above
    three backedge partners u1<u2<u3 with (u1,u3) also reversed, and the
    second triangle comes from a backedge (u4,u6) squeezed into the gap.
    A found tuple certifies chromatic number >= 3.
    """
    bset = t.backedge_set()
    back_sorted = list(zip(t.bu.tolist(), t.bv.tolist()))  # stored lexsorted
    by_high = np.lexsort((t.bu, t.bv))
    scanned = 0
    for w, group in groupby(zip(t.bv[by_high].tolist(), t.bu[by_high].tolist()),
                            key=itemgetter(0)):
        below = [i for _, i in group]
        if len(below) < 3:
            continue
        stop = bisect(back_sorted, (w, 0))  # the first backedge with d >= w
        for a, b, c in combinations(below, 3):
            if (a, c) not in bset or (a, b) in bset or (b, c) in bset:
                continue
            for k in range(bisect(back_sorted, (c, t.n + 1)), stop):
                d, f = back_sorted[k]
                if f >= w or f <= d + 1:
                    continue
                scanned += 1
                if scanned > budget:
                    return HCopySearch(None, True, scanned)
                if (d, w) in bset or (f, w) in bset:
                    continue
                if any((x, y) in bset for x in (a, b, c) for y in (d, f)):
                    continue
                for e in range(d + 1, f):
                    scanned += 1
                    if scanned > budget:
                        return HCopySearch(None, True, scanned)
                    if (d, e) in bset or (e, f) in bset or (e, w) in bset:
                        continue
                    if (a, e) in bset or (b, e) in bset or (c, e) in bset:
                        continue
                    return HCopySearch((a, b, c, d, e, f, w), False, scanned)
    return HCopySearch(None, False, scanned)


def long_backedges(t: Tournament, alpha: float) -> np.ndarray:
    """Backedges (u, v) with v - u >= alpha * n, as an (k, 2) array."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    mask = (t.bv - t.bu) >= alpha * t.n
    return np.column_stack([t.bu[mask], t.bv[mask]])


class _EdgeColoring:
    """Bookkeeping for a partial proper edge coloring with colors 0..k-1."""

    def __init__(self, vertices, k):
        self.k = k
        self.used = {v: set() for v in vertices}
        self.at = {v: {} for v in vertices}  # vertex -> color -> neighbor
        self.of = {}  # canonical edge -> color

    @staticmethod
    def key(u, v):
        return (u, v) if u < v else (v, u)

    def color_of(self, u, v):
        return self.of.get(self.key(u, v))

    def uncolor(self, u, v):
        c = self.of.pop(self.key(u, v), None)
        if c is not None:
            self.used[u].discard(c)
            self.used[v].discard(c)
            del self.at[u][c]
            del self.at[v][c]
        return c

    def set(self, u, v, c):
        self.uncolor(u, v)
        if c in self.used[u] or c in self.used[v]:
            raise AssertionError("improper edge color assignment")
        self.of[self.key(u, v)] = c
        self.used[u].add(c)
        self.used[v].add(c)
        self.at[u][c] = v
        self.at[v][c] = u

    def free(self, v):
        return [c for c in range(self.k) if c not in self.used[v]]


def bounded_degree_matching(edges, d: int) -> list[tuple]:
    """A matching of size >= |F|/(d+1) from an edge set of max degree d.

    Constructive route: properly edge-color the graph spanned by the edge
    set with d+1 colors (fan rotation plus alternating-path inversion on a
    simple graph), then return the largest color class.  Pigeonhole makes
    that class big enough.
    """
    F = [tuple(e) for e in edges]
    if len(set(_EdgeColoring.key(u, v) for u, v in F)) != len(F):
        raise ValueError("duplicate edges in input")
    if any(u == v for u, v in F):
        raise ValueError("loops are not allowed")
    deg = {}
    adj = {}
    for u, v in F:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if deg and max(deg.values()) > d:
        raise ValueError(f"vertex exceeds the stated degree bound {d}")
    if not F:
        return []
    for v in adj:
        adj[v].sort()
    col = _EdgeColoring(list(adj), d + 1)

    def build_fan(u, v0):
        fan = [v0]
        in_fan = {v0}
        while True:
            tail_free = set(col.free(fan[-1]))
            ext = None
            for w in adj[u]:
                if w in in_fan:
                    continue
                cw = col.color_of(u, w)
                if cw is not None and cw in tail_free:
                    ext = w
                    break
            if ext is None:
                return fan
            fan.append(ext)
            in_fan.add(ext)

    def invert_path(u, c, dd):
        # maximal path from u alternating colors dd, c
        if c == dd:
            return
        path = []
        cur, want = u, dd
        seen = {u}
        while want in col.used[cur]:
            nxt = col.at[cur][want]
            path.append((cur, nxt, want))
            cur = nxt
            if cur in seen:
                break  # cannot happen on a proper coloring; safety stop
            seen.add(cur)
            want = c if want == dd else dd
        for x, y, _ in path:
            col.uncolor(x, y)
        for x, y, old in path:
            col.set(x, y, c if old == dd else dd)

    def fan_prefix_valid(u, fan, upto):
        for i in range(upto):
            ci = col.color_of(u, fan[i + 1])
            if ci is None or ci in col.used[fan[i]]:
                return False
        return True

    for (u, v) in F:
        fan = build_fan(u, v)
        c = min(col.free(u))
        dd = min(col.free(fan[-1]))
        invert_path(u, c, dd)
        w_idx = None
        for i, w in enumerate(fan):
            if dd not in col.used[w] and fan_prefix_valid(u, fan, i):
                w_idx = i
                break
        if w_idx is None:
            raise AssertionError("edge coloring invariant violated")
        shifted = [col.color_of(u, fan[i + 1]) for i in range(w_idx)]
        for i in range(w_idx):
            col.uncolor(u, fan[i + 1])
        for i in range(w_idx):
            col.set(u, fan[i], shifted[i])
        col.set(u, fan[w_idx], dd)

    # sanity: the coloring must be proper and complete
    for (u, v) in F:
        if col.color_of(u, v) is None:
            raise AssertionError("uncolored edge after coloring pass")
    classes = {}
    for (u, v) in F:
        classes.setdefault(col.color_of(u, v), []).append((u, v))
    best_color = max(classes, key=lambda c: (len(classes[c]), -c))
    return sorted(classes[best_color])


def backedge_blowup_count(t: Tournament, matching, alpha: float) -> int:
    """Count the backedges forced by a matching of long backedges inside
    one transitive class.

    Scans every threshold k, keeps the largest straddling subset, orders
    its lower endpoints by the transitive order, and counts the implied
    reversed pairs; the count is checked against binom(ceil(alpha*t)+1, 2).
    """
    pairs = [tuple(e) for e in matching]
    if not pairs:
        raise ValueError("matching must be non-empty")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    bset = t.backedge_set()
    for (u, v) in pairs:
        if (u, v) not in bset:
            raise ValueError(f"({u},{v}) is not a backedge")
        if v - u < alpha * t.n:
            raise ValueError(f"({u},{v}) is not {alpha}-long")
    endpoints = [x for e in pairs for x in e]
    if len(set(endpoints)) != len(endpoints):
        raise ValueError("matching edges must be vertex-disjoint")
    if not is_transitive(t, endpoints):
        raise ValueError("endpoints must induce a transitive subtournament")

    # |F_k| as a function of k via +1 at u, -1 at v sweeps
    delta = np.zeros(t.n + 2, dtype=np.int64)
    for (u, v) in pairs:
        delta[u] += 1
        delta[v] -= 1
    straddle = np.cumsum(delta)[1:t.n + 1]
    k_star = int(np.argmax(straddle)) + 1
    chosen = [(u, v) for (u, v) in pairs if u <= k_star < v]
    r = len(chosen)

    us = [u for u, _ in chosen]
    order = sorted(range(r),
                   key=lambda i: -sum(t.beats(us[i], us[j])
                                      for j in range(r) if j != i))
    count = 0
    for ii in range(r):
        for jj in range(ii, r):
            hi = chosen[order[ii]][1]
            lo = chosen[order[jj]][0]
            if (lo, hi) in bset:
                count += 1
    if count != r * (r + 1) // 2:
        raise AssertionError("transitive blow-up produced a non-backedge")
    guaranteed = math.ceil(alpha * len(pairs))
    if count < math.comb(guaranteed + 1, 2):
        raise AssertionError("blow-up count below the guaranteed binomial")
    return count


# --- tournament text format: "n b" then one "i j" line per backedge ---

def dump_tournament(t: Tournament) -> str:
    return _dump_pairs(t.n, t.bu, t.bv)


def parse_tournament(text: str) -> Tournament:
    return Tournament(*_read_pairs(text, "backedge"))


def write_tournament(t: Tournament, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_tournament(t))


def read_tournament(path) -> Tournament:
    with open(path) as fh:
        return parse_tournament(fh.read())
