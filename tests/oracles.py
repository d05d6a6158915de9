"""Reference implementations and hypothesis strategies shared by the tests.

The references are the plain-Python versions of the chain walk and of the
giant-component cut that the vectorized library code replaced; the tests
require the library to return exactly what they return.
"""

from collections import deque

import numpy as np
from hypothesis import strategies as st

from cutlab.cuts import CutResult
from cutlab.graph import (
    KernelPath,
    SparseGraph,
    component_labels,
    induced_subgraph,
    two_core,
)
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp


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


def reference_kernel_paths(core: SparseGraph) -> list:
    """Chains walked one vertex at a time from each branch vertex's entries
    in (vertex, edge id) order, then bare cycles from their lowest vertex."""
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
            paths.append(KernelPath(a2, b2, tuple(edge_ids)))

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
        paths.append(KernelPath(v, v, tuple(edge_ids)))
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
            for path in reference_kernel_paths(dec.graph):
                deleted.append(int(gmap[dec.edge_ids[path.edge_ids[-1]]]))

    remaining = g.delete_edges(deleted)
    partition = reference_two_color(remaining)
    if (partition[remaining.eu] == partition[remaining.ev]).any():
        raise RuntimeError("bipartization left an odd cycle")
    return CutResult(g.m - len(deleted), partition, frozenset(deleted))


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
