"""Reference implementations and hypothesis strategies shared by the tests.

The references are the earlier versions of the chain walk, the
giant-component cut, the odd girth and the hero-copy search that the
library code replaced; the tests require the library to return exactly
what they return.
"""

from collections import deque
from itertools import combinations

import numpy as np
from hypothesis import strategies as st

from cutlab.cuts import CutResult
from cutlab.graph import (
    SparseGraph,
    _gather_neighbors,
    component_labels,
    induced_subgraph,
    two_core,
)
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp
from cutlab.tournament import HCopySearch, Tournament


def reference_two_color(g: SparseGraph) -> np.ndarray:
    """Color = parity of the BFS distance from the component's lowest vertex."""
    adj = [[] for _ in range(g.n)]
    for u, v in g.edge_pairs():
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
    return np.array(color, dtype=np.int64)


def chain_tuples(chains) -> list:
    """A ``kernel_paths`` table as one (a, b, edge ids) tuple per chain."""
    if chains.lengths.sum() != chains.edge_ids.size:
        raise ValueError("chain lengths do not add up to the edge count")
    ends = np.cumsum(chains.lengths).tolist()
    ids = chains.edge_ids.tolist()
    return [(a, b, tuple(ids[end - k:end])) for a, b, k, end in
            zip(chains.a.tolist(), chains.b.tolist(), chains.lengths.tolist(), ends)]


def reference_kernel_paths(core: SparseGraph) -> list:
    """Chains walked one vertex at a time from each branch vertex's entries
    in (vertex, edge id) order, then bare cycles from their lowest vertex;
    one (a, b, edge ids) tuple per chain."""
    deg = core.degrees()
    if core.n and deg.min() < 2:
        raise ValueError("kernel paths need minimum degree >= 2")
    indptr, nbr, nbr_edge = core._adjacency()
    used = np.zeros(core.m, dtype=bool)
    branch = deg >= 3
    paths = []

    def walk(start, first_nbr, first_eid):
        edge_ids = [int(first_eid)]
        prev_eid = int(first_eid)
        cur = int(first_nbr)
        while not branch[cur]:
            if cur == start and deg[cur] == 2:
                break  # closed bare cycle back at the break vertex
            lo, hi = indptr[cur], indptr[cur + 1]
            for w, eid in zip(nbr[lo:hi].tolist(), nbr_edge[lo:hi].tolist()):
                if eid != prev_eid:
                    edge_ids.append(eid)
                    prev_eid = eid
                    cur = w
                    break
        return cur, edge_ids

    for b in np.flatnonzero(branch).tolist():
        lo, hi = indptr[b], indptr[b + 1]
        for w, eid in zip(nbr[lo:hi].tolist(), nbr_edge[lo:hi].tolist()):
            if used[eid]:
                continue
            end, edge_ids = walk(b, w, eid)
            used[edge_ids] = True
            if end < b:
                a2, b2 = end, b
                edge_ids.reverse()
            else:
                a2, b2 = b, end
            paths.append((a2, b2, tuple(edge_ids)))

    for v in range(core.n):
        if deg[v] != 2:
            continue
        lo = indptr[v]
        eid = int(nbr_edge[lo])
        if used[eid]:
            continue
        end, edge_ids = walk(v, int(nbr[lo]), eid)
        if end != v:
            raise RuntimeError("bare cycle walk did not close")
        used[edge_ids] = True
        paths.append((v, v, tuple(edge_ids)))
    return paths


def reference_giant_cut(g: SparseGraph) -> CutResult:
    """Small components lose one conflicting edge per component per round
    until bipartite; the giant's 2-core loses the last edge of every chain."""
    labels, sizes = component_labels(g)
    deleted = []

    if len(sizes) > 1:
        sub, _, emap = induced_subgraph(g, labels != 0)
        sub_labels, _ = component_labels(sub)
        alive = np.ones(sub.m, dtype=bool)
        while True:
            alive_ids = np.flatnonzero(alive)
            cur = SparseGraph(
                sub.n, np.column_stack([sub.eu[alive_ids], sub.ev[alive_ids]])
            )
            colors = reference_two_color(cur)
            bad = np.flatnonzero(colors[cur.eu] == colors[cur.ev])
            if bad.size == 0:
                break
            bad_ids = alive_ids[bad]
            comp_of = sub_labels[sub.eu[bad_ids]]
            order = np.lexsort((bad_ids, comp_of))
            _, first = np.unique(comp_of[order], return_index=True)
            alive[bad_ids[order[first]]] = False
        deleted.extend(emap[np.flatnonzero(~alive)].tolist())

    if g.n:
        giant, _, gmap = induced_subgraph(g, labels == 0)
        dec = two_core(giant)
        if dec.graph.m:
            for _, _, edge_ids in reference_kernel_paths(dec.graph):
                deleted.append(int(gmap[dec.edge_ids[edge_ids[-1]]]))

    remaining = g.delete_edges(deleted)
    partition = reference_two_color(remaining)
    if (partition[remaining.eu] == partition[remaining.ev]).any():
        raise RuntimeError("bipartization left an odd cycle")
    return CutResult(g.m - len(deleted), partition, frozenset(deleted))


def reference_odd_girth(g: SparseGraph):
    """One BFS per source vertex; an edge whose endpoints sit at
    equal-parity distances from the source closes an odd walk."""
    if g.m == 0:
        return None
    indptr, nbr, _ = g._adjacency()
    best = None
    for s in range(g.n):
        dist = np.full(g.n, -1, dtype=np.int64)
        dist[s] = 0
        frontier = np.array([s], dtype=np.int64)
        d = 0
        while frontier.size:
            nxt = _gather_neighbors(indptr, nbr, frontier)
            fresh = np.unique(nxt[dist[nxt] == -1])
            if fresh.size:
                dist[fresh] = d + 1
            frontier = fresh
            d += 1
        du, dv = dist[g.eu], dist[g.ev]
        ok = (du >= 0) & (dv >= 0) & ((du + dv) % 2 == 0)
        if ok.any():
            cand = int((du[ok] + dv[ok]).min()) + 1
            if best is None or cand < best:
                best = cand
    return best


def reference_find_h_copy(t: Tournament, budget: int = 10_000_000) -> HCopySearch:
    """The hero-copy search with a per-w dict of low ends and a scan of
    every backedge for each seed triple, skipping the ones out of range."""
    bset = t.backedge_set()
    lower = {}
    for i, j in zip(t.bu.tolist(), t.bv.tolist()):
        lower.setdefault(j, []).append(i)
    back_sorted = sorted(zip(t.bu.tolist(), t.bv.tolist()))
    scanned = 0
    for w in sorted(lower):
        below = sorted(lower[w])
        if len(below) < 3:
            continue
        for a, b, c in combinations(below, 3):
            if (a, c) not in bset or (a, b) in bset or (b, c) in bset:
                continue
            for d, f in back_sorted:
                if d <= c or f >= w or f <= d + 1:
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


def _relabel(draw, n, edges):
    """The same graph with shuffled vertex labels and edge order."""
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(edges))))
    return SparseGraph(n, [(perm[edges[i][0]], perm[edges[i][1]]) for i in order])


@st.composite
def chain_graphs(draw):
    """2-cores built from a kernel multigraph whose edges become chains:
    loops at branch vertices, parallel chains and bare cycles included."""
    k = draw(st.integers(1, 5))
    kernel = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                     st.integers(1, 5)), max_size=10))
    cycles = draw(st.lists(st.integers(3, 7), max_size=3))
    edges, n, single = [], k, set()
    for u, v, length in kernel:
        if u == v:
            length = max(length, 3)
        elif length == 1 and (min(u, v), max(u, v)) in single:
            length = 2
        if length == 1:
            single.add((min(u, v), max(u, v)))
        chain = [u] + list(range(n, n + length - 1)) + [v]
        n += length - 1
        edges += zip(chain[:-1], chain[1:])
    for length in cycles:
        ring = list(range(n, n + length))
        n += length
        edges += zip(ring, ring[1:] + ring[:1])
    return two_core(_relabel(draw, n, edges)).graph


@st.composite
def graphs_with_small_cycles(draw):
    """A sparse random graph plus small components of random density, so
    that several components are cyclic, some hold odd cycles and some need
    more than one deletion; labels and edge order shuffled."""
    big = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    g = sample_gnp(big, min(draw(st.floats(1.0, 3.0)) / big, 1.0),
                   RngSpec(seed)) if big else SparseGraph(0)
    edges, n = [tuple(e) for e in g.edge_pairs()], g.n
    for k in draw(st.lists(st.integers(1, 7), max_size=6)):
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        chosen = draw(st.lists(st.booleans(), min_size=len(pairs),
                               max_size=len(pairs)))
        edges += [(n + i, n + j) for (i, j), c in zip(pairs, chosen) if c]
        n += k
    return _relabel(draw, n, edges)
