"""Biased tournaments: backedge structure, exact colorings, and the
counting machinery behind the non-2-colorability arguments.

A tournament on 1..n is stored as its backedges, in two sorted arrays:
pairs (i, j), i < j, whose arc points j -> i.  Every other arc points
forward, i -> j, so memory stays O(#backedges) even for n in the millions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GuardLimitError
from .graph import (SparseGraph, _count, _dump_pairs, _frozen, _integers,
                    _pairs, _read_pairs, _reject_duplicate_pairs)

# size guards of the exact routines
TWO_COLOR_LIMIT = 24
CHI_LIMIT = 14
DIST_LIMIT = 14


class Tournament:
    """Vertex set {1..n} in natural order plus the backedges, held in
    increasing (i, j) order as read-only arrays ``bu`` < ``bv``; input
    that is not yet in that order (unlike sampled or dumped) is sorted.
    A copy or pickle restores ``(n, bu, bv)``, read-only, without
    checking the arrays again."""

    __slots__ = ("n", "bu", "bv")

    def __init__(self, n: int, backedges=()):
        n = _count(n, "vertex count")
        arr = _pairs(backedges, "backedges")
        if arr.size:
            if (arr[:, 0] >= arr[:, 1]).any():
                raise ValueError("backedge pairs must satisfy i < j")
            if arr.min() < 1 or arr.max() > n:
                raise ValueError("backedge endpoint out of range 1..n")
            order = _reject_duplicate_pairs(arr[:, 0], arr[:, 1],
                                            "duplicate backedge")
            if order is not None:
                arr = arr[order]
        self.n = n
        self.bu, self.bv = _frozen(*arr.T.copy())

    def __getstate__(self):
        return self.n, self.bu, self.bv

    def __setstate__(self, state):
        self.n, bu, bv = state
        self.bu, self.bv = _frozen(bu, bv)

    @property
    def backedge_count(self) -> int:
        return len(self.bu)

    def __repr__(self):
        return f"Tournament(n={self.n}, backedges={self.backedge_count})"


_KEY_LIMIT = 1 << 63  # pair keys x * base + y must stay below this


def _backedge_test(n: int, bu: np.ndarray, bv: np.ndarray):
    """``has(x, y)``: elementwise "(x, y) is a backedge" for arrays x, y of
    vertices in 1..n, given the backedges (bu, bv) in increasing order:
    one search in the keys x * (n + 1) + y.  Where those pass int64, the
    endpoint of rank r is renumbered 2r + 1, other vertices above it 2r + 2."""
    if (n + 1) ** 2 >= _KEY_LIMIT:
        ends = np.unique(np.concatenate([bu, bv]))

        def code(z):
            return np.searchsorted(ends, z) + np.searchsorted(ends, z, "right")

        inner = _backedge_test(2 * ends.size, code(bu), code(bv))
        return lambda x, y: inner(code(x), code(y))
    base = n + 1
    keys = np.append(bu * base + bv, base * base)  # the last tops every query

    def has(x, y):
        key = x * base + y
        return keys[np.searchsorted(keys, key)] == key

    return has


def _ragged(counts: np.ndarray):
    """(row, offset) of every element when row i holds counts[i] of them."""
    rows = np.repeat(np.arange(counts.size), counts)
    starts = np.cumsum(counts) - counts
    return rows, np.arange(rows.size) - starts[rows]


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


def _ups(t: Tournament, verts: np.ndarray):
    """(i, w) for every backedge (verts[i], w) up from one of ``verts``,
    read by one search in ``bu``."""
    first = np.searchsorted(t.bu, verts)
    row, off = _ragged(np.searchsorted(t.bu, verts, "right") - first)
    return row, t.bv[first[row] + off]


def _scores(t: Tournament, verts: np.ndarray) -> np.ndarray:
    """Each vertex's out-degree in the sub-tournament that the sorted,
    distinct ``verts`` induce: the vertices above it, minus the backedges
    up from it to one of them, plus those down to it from one.  Only the
    backedges up from ``verts`` are read."""
    low, top = _ups(t, verts)
    high = np.minimum(np.searchsorted(verts, top), verts.size - 1)
    inside = verts[high] == top
    return (np.arange(verts.size - 1, -1, -1)
            - np.bincount(low[inside], minlength=verts.size)
            + np.bincount(high[inside], minlength=verts.size))


def is_transitive(t: Tournament, subset=None) -> bool:
    """A tournament is transitive iff its score sequence is 0,1,...,k-1.

    ``subset`` (distinct integer vertices of 1..n, else ValueError) tests the
    sub-tournament it induces, in time and memory for the subset and the
    backedges up from it, whatever n is; without one the whole tournament
    is tested in O(n + m).
    """
    if subset is None:
        verts = np.arange(1, t.n + 1)
    else:
        verts = np.sort(_integers(subset, "subset"))
        if verts.size and (verts[0] < 1 or verts[-1] > t.n):
            raise ValueError("subset vertex out of range 1..n")
        if (verts[1:] == verts[:-1]).any():
            raise ValueError("subset repeats a vertex")
    scores = np.sort(_scores(t, verts))
    return bool((scores == np.arange(verts.size)).all())


def directed_triangles(t: Tournament) -> list[tuple]:
    """All cyclically oriented triples i < j < k, in increasing order.

    A triple is cyclic iff it has exactly one backedge spanning it
    ((i,k) reversed, middle arcs forward) or two chained backedges
    ((i,j) and (j,k) reversed, (i,k) forward).  Enumeration is seeded
    from the backedges, and every candidate is tested in one array pass.
    """
    bu, bv = t.bu, t.bv
    r, off = _ragged(bv - bu - 1)
    into = np.argsort(bv, kind="stable")  # backedges by upper end, then lower
    high = bv[into]
    first = np.searchsorted(high, bu)
    q, qoff = _ragged(np.searchsorted(high, bu, "right") - first)
    i = np.concatenate([bu[r], bu[into[first[q] + qoff]]])
    j = np.concatenate([bu[r] + 1 + off, bu[q]])
    k = np.concatenate([bv[r], bv[q]])
    has = _backedge_test(t.n, bu, bv)
    ij, jk, ik = has(np.concatenate([i, j, i]),
                     np.concatenate([j, k, k])).reshape(3, -1)
    cyclic = np.where(ik, ~(ij | jk), ij & jk)
    return sorted(zip(*np.stack([i, j, k])[:, cyclic].tolist()))


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


def two_coloring(t: Tournament) -> Optional[np.ndarray]:
    """Exact 2-colorability test with witness (vertex i -> color[i-1])."""
    if t.n > TWO_COLOR_LIMIT:
        raise GuardLimitError(
            f"exact 2-coloring guarded at n <= {TWO_COLOR_LIMIT}")
    return _k_coloring(t, 2, directed_triangles(t))


def chromatic_number_exact(t: Tournament):
    """Minimal k with a witness coloring (lexicographically least)."""
    if t.n > CHI_LIMIT:
        raise GuardLimitError(
            f"exact chromatic number guarded at n <= {CHI_LIMIT}")
    if t.n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    tris = directed_triangles(t)
    k = 1  # one class suffices iff there is no directed triangle
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
    # v beats a higher u unless (v, u) is a backedge, a lower u iff (u, v) is
    out_mask = [(1 << n) - (1 << v) for v in range(n + 1)]
    for u, v in zip(t.bu.tolist(), t.bv.tolist()):
        out_mask[u] ^= 1 << (v - 1)
        out_mask[v] ^= 1 << (u - 1)
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


def dist_tour_bp_exact(t: Tournament) -> int:
    """Fewest arc reversals making the tournament 2-colorable.

    Minimizes, over all bipartitions, the sum of per-class minimum
    feedback arc sets; the single DP table serves both classes via
    complement symmetry.
    """
    if t.n > DIST_LIMIT:
        raise GuardLimitError(
            f"exact reversal distance guarded at n <= {DIST_LIMIT}")
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
    None.  ``scanned`` counts the (d,f) candidates (u4, u6) and the e
    values (u5) of the scan order that ``find_h_copy`` describes, at the
    hit or at the end; the search computes it in numpy array passes over
    the sorted backedges, in O(m log m) plus the seeds and candidates.
    ``exhausted`` means the count passed the budget first, so absence is
    not a proof of absence; then ``scanned == budget + 1``.
    """

    found: Optional[tuple]
    exhausted: bool
    scanned: int


_BLOCK = 1 << 16  # seed triples, or (d,f) candidates, handled at once


def _blocks(cost: np.ndarray):
    """Consecutive index ranges [i, j), each one index or costs summing to
    at most a cap that doubles from 256 to _BLOCK: an early hit stays
    cheap, and a long search runs in large blocks."""
    total = np.cumsum(cost)
    i, cap = 0, min(256, _BLOCK)
    while i < total.size:
        before = int(total[i - 1]) if i else 0
        j = max(i + 1, int(np.searchsorted(total, before + cap, "right")))
        yield i, j
        i, cap = j, min(2 * cap, _BLOCK)


def _squeeze(bu: np.ndarray, bv: np.ndarray):
    """The endpoints renumbered from 0 in order, each gap between two
    consecutive endpoints cut to at most 2, plus (endpoints, new numbers).

    The search reads only the order of the endpoints, which of them are
    adjacent integers and which gaps hold a non-endpoint, so it runs
    unchanged on the new numbers, where every span stays below 4m."""
    ends = np.unique(np.concatenate([bu, bv]))
    coord = np.concatenate([[0], np.cumsum(np.minimum(np.diff(ends), 2))])
    return (coord[np.searchsorted(ends, bu)], coord[np.searchsorted(ends, bv)],
            ends, coord)


def find_h_copy(t: Tournament, budget: int = 10_000_000) -> HCopySearch:
    """Search for an ordered copy of the hero: u1<...<u7 whose induced
    orientation matches it exactly.

    The scan is seeded by the hero's five backedges: u7 = w must sit above
    three backedge partners a<b<c with (a,c) also reversed and (a,b),
    (b,c) not, and the second triangle comes from a backedge (d,f) with
    c < d < f-1 < w-1 and an e in between.  Seeds run in (w, a, b, c)
    order, each seed's (d,f) in stored order and e upwards; ``scanned``
    counts the (d,f) tried and the e tried.  A found tuple certifies
    chromatic number >= 3.

    It runs in numpy on the sorted ``bu``/``bv``, in blocks of seeds:
    backedge tests are ``_backedge_test`` searches, and (d,f) and e are
    tested with array masks.  An e is refused only by a partner
    of d, f, w, a, b or c, so the first good e lies within that many of
    d + 1; the e not reached are counted, not tried.  Time and memory are
    O(m log m) plus the seed triples and their (d,f) candidates, whatever
    n is; endpoints too far apart for int64 keys are renumbered first.
    ValueError unless the budget is a non-negative int.
    """
    budget = _count(budget, "budget")
    bu, bv = t.bu, t.bv
    if bu.size < 5:  # the hero has five backedges
        return HCopySearch(None, False, 0)
    base = int(bv.max()) + 1
    squeezed = base * base > _KEY_LIMIT
    if squeezed:
        bu, bv, ends, coord = _squeeze(bu, bv)
        base = int(bv.max()) + 1
        if base * base > _KEY_LIMIT:  # squeezed spans stay below 4m: m > 7e8
            raise GuardLimitError("too many backedges for int64 pair keys")
    has = _backedge_test(base - 1, bu, bv)
    high, low = np.divmod(np.sort(bv * base + bu), base)  # by (w, a)

    def up(x):  # backedges up from x
        return np.searchsorted(bu, x, "right") - np.searchsorted(bu, x)

    def down(y):  # backedges down from y
        return np.searchsorted(high, y, "right") - np.searchsorted(high, y)

    group = np.flatnonzero(np.r_[True, high[1:] != high[:-1]])
    size = np.diff(np.r_[group, high.size])
    heavy = size >= 3  # only a w with 3 partners can seed a copy
    # one row per seed's a: its place in ``low`` and the end of its group
    rows, off = _ragged(size[heavy] - 2)
    pos = group[heavy][rows] + off
    stop = (group + size)[heavy][rows]
    scanned = 0
    for i, j in _blocks((stop - pos - 1) * (stop - pos - 2) // 2):
        r, off = _ragged(stop[i:j] - pos[i:j] - 2)
        pa, pc = pos[i:j][r], pos[i:j][r] + 2 + off
        keep = has(low[pa], low[pc])
        pa, pc = pa[keep], pc[keep]
        r, off = _ragged(pc - pa - 1)
        pa, pb, pc = pa[r], pa[r] + 1 + off, pc[r]
        keep = ~(has(low[pa], low[pb]) | has(low[pb], low[pc]))
        order = np.lexsort((pc[keep], pb[keep], pa[keep]))
        seeds = np.stack([low[pa], low[pb], low[pc], high[pa]])[:, keep][:, order]
        # a seed's (d,f) candidates: the stored backedges from c+1 to w-1
        first = np.searchsorted(bu, seeds[2], "right")
        last = np.searchsorted(bu, seeds[3])
        for lo, hi in _blocks(last - first):
            r, off = _ragged(last[lo:hi] - first[lo:hi])
            a, b, c, w = seeds[:, lo:hi][:, r]
            d, f = bu[first[lo:hi][r] + off], bv[first[lo:hi][r] + off]
            tried = (f < w) & (f > d + 1)
            a, b, c, w, d, f = (x[tried] for x in (a, b, c, w, d, f))
            steps = np.ones(d.size, dtype=np.int64)
            refused = has(d, w) | has(f, w)
            for x in (a, b, c):
                refused |= has(x, d) | has(x, f)
            clear = np.flatnonzero(~refused)
            a, b, c, w, d, f = (x[clear] for x in (a, b, c, w, d, f))
            span = f - d - 1
            # an e is refused only by a backedge at d, f, w, a, b or c, so
            # the first good e, if any, lies within ``reach`` of d + 1
            reach = 1 + up(a) + up(b) + up(c) + up(d) + down(f) + down(w)
            r, off = _ragged(np.minimum(span, reach))
            e = d[r] + 1 + off
            good = ~(has(d[r], e) | has(e, f[r]) | has(e, w[r]) | has(a[r], e)
                     | has(b[r], e) | has(c[r], e))
            r, off = r[good], off[good]
            with_e, lead = np.unique(r, return_index=True)
            span[with_e] = off[lead] + 1
            steps[clear] += span
            hit = r[0] if r.size else None
            scanned += int(steps[:None if hit is None else clear[hit] + 1].sum())
            if scanned > budget:
                return HCopySearch(None, True, budget + 1)
            if hit is not None:
                found = np.array([a[hit], b[hit], c[hit], d[hit],
                                  d[hit] + 1 + off[0], f[hit], w[hit]])
                if squeezed:
                    at = np.searchsorted(coord, found, "right") - 1
                    found = ends[at] + found - coord[at]
                return HCopySearch(tuple(found.tolist()), False, scanned)
    return HCopySearch(None, False, scanned)


def long_backedges(t: Tournament, alpha: float) -> np.ndarray:
    """Backedges (u, v) with v - u >= alpha * n, as an (k, 2) array."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    mask = (t.bv - t.bu) >= alpha * t.n
    return np.column_stack([t.bu[mask], t.bv[mask]])


def bounded_degree_matching(edges, d: int) -> list[tuple]:
    """A matching of size >= |F|/(d+1) from an edge set of max degree d.

    Constructive route (J. Misra and D. Gries, "A constructive proof of
    Vizing's theorem", Inf. Proc. Letters 41, 1992): properly edge-color
    the graph spanned by the edge set with d+1 colors, each edge (u, v) in
    input order by a fan at u over its sorted neighbors, one
    alternating-path inversion and a fan rotation; then return the largest
    color class, the least color on a tie.  Pigeonhole makes that class
    big enough.  The coloring is one map, ``at[x][c]`` = the neighbor of x
    along color c.  ValueError unless d is a non-negative int and the
    edges are distinct (in either orientation) pairs of distinct integers,
    no vertex in more than d of them.
    """
    d = _count(d, "degree bound")
    arr = _pairs(edges, "edges")
    _reject_duplicate_pairs(arr.min(axis=1), arr.max(axis=1),
                            "duplicate edges in input")
    F = [tuple(e) for e in arr.tolist()]
    if any(u == v for u, v in F):
        raise ValueError("loops are not allowed")
    adj = {}
    for u, v in F:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nbrs) > d for nbrs in adj.values()):
        raise ValueError(f"vertex exceeds the stated degree bound {d}")
    if not F:
        return []
    for v in adj:
        adj[v].sort()
    at = {v: {} for v in adj}  # vertex -> color -> neighbor

    def free(x):  # the least color missing at x
        return next(c for c in range(d + 1) if c not in at[x])

    def paint(x, y, c):
        if c in at[x] or c in at[y]:
            raise AssertionError("improper edge color assignment")
        at[x][c], at[y][c] = y, x

    for u, v in F:
        # the fan: v, then each colored neighbor of u whose color is free
        # at the fan's last vertex
        color = {w: k for k, w in at[u].items()}
        fan, in_fan = [v], {v}
        while True:
            ext = next((w for w in adj[u] if w not in in_fan and w in color
                        and color[w] not in at[fan[-1]]), None)
            if ext is None:
                break
            fan.append(ext)
            in_fan.add(ext)
        c, dd = free(u), free(fan[-1])
        # invert the maximal path from u alternating colors dd, c
        path, cur, want = [], u, dd
        seen = {u}
        while c != dd and want in at[cur]:
            nxt = at[cur][want]
            path.append((cur, nxt, want))
            cur = nxt
            if cur in seen:
                break  # cannot happen on a proper coloring; safety stop
            seen.add(cur)
            want = c if want == dd else dd
        for x, y, old in path:
            del at[x][old], at[y][old]
        for x, y, old in path:
            paint(x, y, c if old == dd else dd)
        # rotate the fan up to its first vertex missing dd; each step hands
        # fan[i] the color of u-fan[i+1], which must be free at fan[i]
        color = {w: k for k, w in at[u].items()}
        for i, w in enumerate(fan):
            if dd not in at[w]:
                break
            step = color.get(fan[i + 1]) if i + 1 < len(fan) else None
            if step is None or step in at[w]:
                raise AssertionError("edge coloring invariant violated")
        shifted = [color[w] for w in fan[1:i + 1]]
        for w, old in zip(fan[1:], shifted):
            del at[u][old], at[w][old]
        for w, new in zip(fan, shifted):
            paint(u, w, new)
        paint(u, fan[i], dd)

    if sum(map(len, at.values())) != 2 * len(F):
        raise AssertionError("uncolored edge after coloring pass")
    best = int(np.argmax(np.bincount([c for x in at.values() for c in x])))
    return sorted((u, v) for u, v in F if at[u].get(best) == v)


def backedge_blowup_count(t: Tournament, matching, alpha: float) -> int:
    """Count the backedges forced by a matching of long backedges inside
    one transitive class.

    Takes the first threshold k with the most pairs u <= k < v (a sweep
    over the sorted endpoints), orders those pairs' lower endpoints by the
    transitive order, and counts the implied reversed pairs; the count is
    checked against binom(ceil(alpha*t)+1, 2).  Only the backedges up
    from the matching's lower ends are read, so time and memory go with
    those and the matching, whatever n and m are.
    """
    pairs = _pairs(matching, "matching")
    if not pairs.size:
        raise ValueError("matching must be non-empty")
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if pairs.min() < 1 or pairs.max() > t.n:
        raise ValueError("matching endpoint out of range 1..n")
    u, v = pairs.T
    row, top = _ups(t, u)
    backs = np.bincount(row[top == v[row]], minlength=u.size)
    for (a, b), back in zip(pairs.tolist(), backs.tolist()):
        if not back:
            raise ValueError(f"({a},{b}) is not a backedge")
        if b - a < alpha * t.n:
            raise ValueError(f"({a},{b}) is not {alpha}-long")
    if np.unique(pairs).size != pairs.size:
        raise ValueError("matching edges must be vertex-disjoint")
    if not is_transitive(t, pairs.ravel()):
        raise ValueError("endpoints must induce a transitive subtournament")

    # k* = the first k with the most pairs u <= k < v; that count only
    # grows at a u, so k* is one
    ups, downs = np.sort(u), np.sort(v)
    straddle = np.arange(1, ups.size + 1) - np.searchsorted(downs, ups, "right")
    k_star = ups[np.argmax(straddle)]
    lo, hi = pairs[(u <= k_star) & (k_star < v)].T

    # lower ends by wins among themselves, most first (distinct: transitive)
    rank = np.argsort(lo)
    order = rank[np.argsort(-_scores(t, lo[rank]))]
    lo, hi = lo[order], hi[order]
    # the implied reversals: (lo[jj], hi[ii]) for every jj >= ii
    jj, top = _ups(t, lo)
    by_hi = np.argsort(hi)
    ii = by_hi[np.minimum(np.searchsorted(hi, top, sorter=by_hi), hi.size - 1)]
    count = int(((hi[ii] == top) & (ii <= jj)).sum())
    if count != lo.size * (lo.size + 1) // 2:
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
