"""Reference implementations and hypothesis strategies shared by the tests.

The references are the earlier versions of the chain walk, the
giant-component cut, the odd girth, the 2-core peel, the hero-copy search,
the model core's path expansion and the float64 exact engine that the
library code replaced; the tests require the library to return exactly
what they return.  The closed forms at the end are the finite-eps values
the red acceptance verdicts print beside their measurements.
"""

import math
from collections import deque
from functools import lru_cache
from itertools import combinations
from types import SimpleNamespace

import numpy as np
from hypothesis import strategies as st

from cutlab.core_model import KernelMultigraph, _geometric, solve_mu
from cutlab.cuts import CutResult
from cutlab.experiments import fit_power_law
from cutlab.graph import (
    CoreDecomposition,
    SparseGraph,
    _gather_neighbors,
    component_labels,
    dump_edge_list,
    induced_subgraph,
    two_core,
)
from cutlab.rng import RngSpec, as_generator
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


def reference_two_core(g: SparseGraph) -> CoreDecomposition:
    """The 2-core by whole-graph rounds: each round strips every living
    vertex of degree below 2 and recounts degrees over all n vertices."""
    alive_v = np.ones(g.n, dtype=bool)
    live_e = np.arange(g.m)
    deg = g.degrees()
    while True:
        weak = alive_v & (deg < 2)
        if not weak.any():
            break
        alive_v[weak] = False
        if live_e.size:
            dead = weak[g.eu[live_e]] | weak[g.ev[live_e]]
            dying = live_e[dead]
            dec = np.bincount(
                np.concatenate([g.eu[dying], g.ev[dying]]), minlength=g.n
            )
            deg -= dec
            live_e = live_e[~dead]
        deg[weak] = 0
    vertices = np.flatnonzero(alive_v)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    pairs = np.column_stack([remap[g.eu[live_e]], remap[g.ev[live_e]]])
    return CoreDecomposition(SparseGraph(vertices.size, pairs), vertices, live_e)


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


@lru_cache(maxsize=16)
def backedge_set(t: Tournament) -> frozenset:
    """The backedges of ``t`` as a set of (i, j) tuples, built once per
    tournament (its arrays are read-only, so the set never goes stale)."""
    return frozenset(zip(t.bu.tolist(), t.bv.tolist()))


def beats(t: Tournament, x: int, y: int) -> bool:
    """True iff the arc between x and y points x -> y."""
    if x == y:
        raise ValueError("no self-arcs")
    if x < y:
        return (x, y) not in backedge_set(t)
    return (y, x) in backedge_set(t)


def reference_find_h_copy(t: Tournament, budget: int = 10_000_000) -> HCopySearch:
    """The hero-copy search with a per-w dict of low ends and a scan of
    every backedge for each seed triple, skipping the ones out of range."""
    bset = backedge_set(t)
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


def reference_expand_paths(kernel: KernelMultigraph, mu: float, rng):
    """Paths built one kernel edge at a time, as a namespace with the
    fields of an ``ExpandedCore`` and ``path_edge_ids`` as a list."""
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0,1)")
    gen = as_generator(rng)
    n_vertices = kernel.n
    pairs = []
    lengths = np.zeros(kernel.m, dtype=np.int64)
    path_edge_ids = []
    seen = set()
    next_edge = 0
    for e in range(kernel.m):
        u = int(kernel.eu[e])
        v = int(kernel.ev[e])
        ell = _geometric(mu, gen)
        if u == v:
            while ell < 3:
                ell = _geometric(mu, gen)
        elif ell == 1 and (u, v) in seen:
            while ell < 2:
                ell = _geometric(mu, gen)
        lengths[e] = ell
        if ell == 1:
            pairs.append((u, v))
            path_edge_ids.append(np.array([next_edge], dtype=np.int64))
            seen.add((u, v))
            next_edge += 1
            continue
        lo, hi = min(u, v), max(u, v)
        chain = [lo] + list(range(n_vertices, n_vertices + ell - 1)) + [hi]
        n_vertices += ell - 1
        ids = np.arange(next_edge, next_edge + ell, dtype=np.int64)
        for a, b in zip(chain[:-1], chain[1:]):
            pairs.append((a, b))
        path_edge_ids.append(ids)
        next_edge += ell
    graph = SparseGraph(n_vertices, pairs)
    return SimpleNamespace(
        graph=graph,
        kernel=kernel,
        kernel_to_core=np.arange(kernel.n, dtype=np.int64),
        path_lengths=lengths,
        path_edge_ids=path_edge_ids,
    )


def reference_dump_expanded_core(core) -> str:
    """The core sidecar text formatted one ``path_edge_ids`` row at a time."""
    k = core.kernel
    ends = core.kernel_to_core[np.column_stack([k.eu, k.ev])].tolist()
    rows = [f"{cu} {cv} {ell} " + " ".join(map(str, ids.tolist()))
            for (cu, cv), ell, ids in zip(ends, core.path_lengths.tolist(),
                                          core.path_edge_ids)]
    head = dump_edge_list(core.graph) + f"kernel {k.n} {k.m}"
    return "\n".join([head] + rows) + "\n"


def reference_odd_path_bipartization(core) -> list:
    """The last edge of every odd path, one kernel edge at a time."""
    out = []
    for e in range(core.kernel.m):
        if core.path_lengths[e] % 2 == 1:
            out.append(int(core.path_edge_ids[e][-1]))
    return out


def reference_least_labeling(n: int, eu, ev, weight):
    """The float64 ``cuts._least_labeling``: each block of the labeling
    table is a product with inner dimension n (zero-padded label rows),
    and the row and column sums are added after it.  Its block is fixed at
    2^18 entries, so the small graphs of the tests take one product."""
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    q = np.zeros((n, n))
    np.add.at(q, (eu, ev), -weight)
    np.add.at(q, (ev, eu), -weight)
    d = np.bincount(eu, weight, n) + np.bincount(ev, weight, n)
    h = (n - 1) // 2
    high = np.zeros((1 << h, n))
    high[:, 1:h + 1] = _reference_bits(h)
    low = np.zeros((1 << (n - 1 - h), n))
    low[:, h + 1:] = _reference_bits(n - 1 - h)
    f_high = high @ d + ((high @ q) * high).sum(axis=1)
    f_low = low @ d + ((low @ q) * low).sum(axis=1)
    cross = 2 * q @ low.T
    rows = max(1, (1 << 18) // len(low))
    best, first = np.inf, 0
    for r in range(0, len(high), rows):
        table = high[r:r + rows] @ cross
        table += f_low
        table += f_high[r:r + rows, None]
        i = int(table.argmin())
        if table.flat[i] < best:
            best, first = table.flat[i], r * len(low) + i
    return int(best), (first >> np.arange(n - 1, -1, -1)) & 1


def _reference_bits(k: int) -> np.ndarray:
    shifts = np.arange(k - 1, -1, -1)
    return ((np.arange(1 << k)[:, None] >> shifts) & 1).astype(np.float64)


def _relabel(draw, n, edges):
    """The same graph with shuffled vertex labels and edge order."""
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(edges))))
    return SparseGraph(n, [(perm[edges[i][0]], perm[edges[i][1]]) for i in order])


@st.composite
def chain_graphs(draw, longest=5):
    """2-cores built from a kernel multigraph whose edges become chains of
    1..``longest`` edges: loops at branch vertices, parallel chains and
    bare cycles (of 3..``longest`` + 2 edges) included."""
    k = draw(st.integers(1, 5))
    kernel = draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, k - 1),
                                     st.integers(1, longest)), max_size=10))
    cycles = draw(st.lists(st.integers(3, longest + 2), max_size=3))
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
def giants_with_trees(draw):
    """A ``chain_graphs`` core with trees hung on it: each new vertex joins
    one earlier vertex; labels and edge order shuffled again."""
    core = draw(chain_graphs())
    edges, n = [tuple(e) for e in core.edge_pairs()], max(core.n, 1)
    for _ in range(draw(st.integers(0, 30))):
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    return _relabel(draw, n, edges)


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


@st.composite
def kernel_multigraphs(draw):
    """Kernels with loops and double and triple parallel edges, in shuffled
    order so twins need not be adjacent; the empty kernel included."""
    k = draw(st.integers(0, 6))
    if k == 0:
        return KernelMultigraph(0)
    ends = st.integers(0, k - 1)
    base = draw(st.lists(st.tuples(ends, ends, st.integers(1, 3)), max_size=8))
    edges = [(u, v) for u, v, copies in base for _ in range(copies)]
    return KernelMultigraph(k, draw(st.permutations(edges)))


# --- closed forms for the red acceptance verdicts --------------------------

def kernel_density_oracle(eps: float) -> float:
    """E[e(K)]/n = x(1 - e^-x (1+x))/2 with x = lam - mu(lam), lam = 1 + eps:
    the kernel edges per vertex of the core model's Poisson(x) degrees."""
    x = 1.0 + eps - solve_mu(1.0 + eps)
    return x * (1.0 - math.exp(-x) * (1.0 + x)) / 2.0


def kernel_density_exponent(eps_grid) -> float:
    """Least-squares log-log slope of the kernel density oracle over eps_grid."""
    oracle = [kernel_density_oracle(eps) for eps in eps_grid]
    return fit_power_law(eps_grid, oracle).exponent


def hero_first_moment(n: int, p: float) -> float:
    """C(n,7) p^5 (1-p)^16: the expected number of ordered hero copies in
    T(n, p), whose 21 pairs hold 5 backedges."""
    return math.comb(n, 7) * p ** 5 * (1.0 - p) ** 16
