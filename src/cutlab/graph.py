"""Undirected sparse graphs and their structural decompositions.

Vertices are dense integers 0..n-1.  Edges carry stable integer identifiers
assigned in insertion order; every decomposition here is deterministic so
that downstream edge-deletion choices replay exactly.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cc_labels

_CELLS = 1 << 20  # distance-table entries per block of odd_girth sources


def _pairs(edges, what: str) -> np.ndarray:
    """``edges`` (an array or an iterable of pairs) as a (k, 2) int64 array.

    Raises ``ValueError("<what> must be pairs")`` for any other shape.
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                     dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be pairs")
    return arr


def _reject_duplicate_pairs(u: np.ndarray, v: np.ndarray, message: str):
    """Raise ``ValueError(message)`` when two pairs (u[i], v[i]) are equal.

    Rows are compared directly, so no pair code can overflow: one O(m)
    pass when the pairs strictly increase, else a lexsort first.
    """
    if not ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        order = np.lexsort((v, u))
        u, v = u[order], v[order]
        if ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any():
            raise ValueError(message)


class SparseGraph:
    """Simple undirected graph in adjacency-list (CSR) form.

    Edge i joins ``eu[i] < ev[i]``.  Self-loops and duplicate edges are
    rejected at construction.  The duplicate check is one O(m) pass when
    the pairs ``(u, v)`` strictly increase, as they do for
    the samplers, for every derived graph (``induced_subgraph``,
    ``two_core``, ``delete_edges``) and for edge lists written by
    ``dump_edge_list``; other input falls back to a sort.  Instances are
    treated as immutable.
    """

    __slots__ = ("n", "eu", "ev", "_indptr", "_nbr", "_nbr_edge")

    def __init__(self, n: int, edges: Iterable = ()):
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        arr = _pairs(edges, "edges")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        if arr.size:
            if u.min() < 0 or v.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
            _reject_duplicate_pairs(u, v, "duplicate edges are not allowed")
        self.n = int(n)
        self.eu = u
        self.ev = v
        self._indptr = None
        self._nbr = None
        self._nbr_edge = None

    @property
    def m(self) -> int:
        return len(self.eu)

    def _adjacency(self):
        if self._indptr is None:
            heads = np.concatenate([self.eu, self.ev])
            tails = np.concatenate([self.ev, self.eu])
            eids = np.concatenate([np.arange(self.m), np.arange(self.m)])
            # per-vertex neighbor lists ordered by edge id
            order = np.lexsort((eids, heads))
            self._nbr = tails[order]
            self._nbr_edge = eids[order]
            counts = np.bincount(heads, minlength=self.n)
            self._indptr = np.concatenate([[0], np.cumsum(counts)])
        return self._indptr, self._nbr, self._nbr_edge

    def degrees(self) -> np.ndarray:
        both = np.concatenate([self.eu, self.ev])
        return np.bincount(both, minlength=self.n)

    def neighbors(self, v: int):
        """Return (neighbor array, edge-id array) for vertex v."""
        indptr, nbr, nbr_edge = self._adjacency()
        lo, hi = indptr[v], indptr[v + 1]
        return nbr[lo:hi], nbr_edge[lo:hi]

    def edge_pairs(self):
        return zip(self.eu.tolist(), self.ev.tolist())

    def edge_set(self):
        return set(self.edge_pairs())

    def delete_edges(self, edge_ids) -> "SparseGraph":
        """New graph with the given edge ids removed (vertex set unchanged)."""
        keep = np.ones(self.m, dtype=bool)
        keep[np.asarray(list(edge_ids), dtype=np.int64)] = False
        return SparseGraph(self.n, np.column_stack([self.eu[keep], self.ev[keep]]))

    def __repr__(self):
        return f"SparseGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True, eq=False)
class KernelChains:
    """The maximal degree-2 chains of a graph, one table row per chain.

    Chain i joins ``a[i] <= b[i]`` (equal for a cycle) with ``lengths[i]``
    edges; ``edge_ids`` lists every chain's edges, chain after chain, each
    in walk order.
    """

    a: np.ndarray
    b: np.ndarray
    lengths: np.ndarray
    edge_ids: np.ndarray

    def __len__(self) -> int:
        return self.lengths.size

    @property
    def last_edge_ids(self) -> np.ndarray:
        """Each chain's deterministic representative: its last edge."""
        return self.edge_ids[np.cumsum(self.lengths) - 1]


@dataclass(frozen=True)
class CoreDecomposition:
    """2-core as a reindexed graph plus maps back to the host graph."""

    graph: SparseGraph
    vertices: np.ndarray  # new index -> original vertex
    edge_ids: np.ndarray  # new edge id -> original edge id


def component_labels(g: SparseGraph):
    """(labels, sizes) with labels renumbered by (-size, smallest vertex)."""
    if g.n == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    mat = coo_matrix(
        (np.ones(g.m, dtype=np.int8), (g.eu, g.ev)), shape=(g.n, g.n)
    )
    _, raw = _cc_labels(mat, directed=False)
    sizes = np.bincount(raw)
    first = np.full(sizes.size, g.n, dtype=np.int64)
    np.minimum.at(first, raw, np.arange(g.n))
    order = np.lexsort((first, -sizes))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = rank[raw]
    return labels, sizes[order]


def connected_components(g: SparseGraph) -> list[set]:
    """Vertex sets, largest first; ties broken by smallest contained vertex."""
    labels, sizes = component_labels(g)
    comps = [set() for _ in range(len(sizes))]
    for v, lab in enumerate(labels.tolist()):
        comps[lab].add(v)
    return comps


def _gather_neighbors(indptr, nbr, frontier):
    """Neighbors of every frontier vertex, with repeats."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    rep_start = np.repeat(indptr[frontier], counts)
    block = np.repeat(np.cumsum(counts) - counts, counts)
    return nbr[rep_start + (np.arange(total) - block)]


def _bfs_two_color(g: SparseGraph) -> np.ndarray:
    """Parity layering from one root per component (root = smallest vertex).

    A vertex's color is the parity of its distance from its root.
    """
    color = np.full(g.n, -1, dtype=np.int8)
    if g.n == 0:
        return color
    labels, sizes = component_labels(g)
    roots = np.full(sizes.size, g.n, dtype=np.int64)
    np.minimum.at(roots, labels, np.arange(g.n))
    color[roots] = 0
    indptr, nbr, _ = g._adjacency()
    slot = np.empty(g.n, dtype=np.int64)
    frontier = roots
    level = 0
    while frontier.size:
        nxt = _gather_neighbors(indptr, nbr, frontier)
        fresh = nxt[color[nxt] == -1]
        # one copy of each vertex: the one whose scattered index survived
        rank = np.arange(fresh.size)
        slot[fresh] = rank
        fresh = fresh[slot[fresh] == rank]
        color[fresh] = (level + 1) % 2
        frontier = fresh
        level += 1
    return color


def is_bipartite(g: SparseGraph) -> Optional[np.ndarray]:
    """A proper 2-coloring (0/1 per vertex) if one exists, else None."""
    color = _bfs_two_color(g)
    if g.m and not (color[g.eu] != color[g.ev]).all():
        return None
    return color.astype(np.int64)


def odd_girth(g: SparseGraph) -> Optional[int]:
    """Length of a shortest odd cycle, or None when bipartite.

    An edge whose endpoints sit at equal-parity BFS distances from a source
    closes an odd walk; the least such closure over all sources is the odd
    girth.  One numpy BFS runs per block of about ``_CELLS / max(n, m)``
    sources, so memory stays O(``_CELLS``); the work is O(n(n+m)).
    """
    if g.m == 0:
        return None
    indptr, nbr, _ = g._adjacency()
    best = None
    step = max(1, _CELLS // max(g.n, g.m))
    for lo in range(0, g.n, step):
        verts = np.arange(lo, min(lo + step, g.n))  # the block's sources
        rows = np.arange(verts.size)
        dist = np.full((rows.size, g.n), -1, dtype=np.int64)
        dist[rows, verts] = d = 0
        while verts.size:
            rows = np.repeat(rows, indptr[verts + 1] - indptr[verts])
            verts = _gather_neighbors(indptr, nbr, verts)
            fresh = dist[rows, verts] == -1
            code = np.unique(rows[fresh] * g.n + verts[fresh])
            rows, verts = code // g.n, code % g.n
            d += 1
            dist[rows, verts] = d
        du, dv = dist[:, g.eu], dist[:, g.ev]
        ok = (du >= 0) & (dv >= 0) & ((du + dv) % 2 == 0)
        if ok.any():
            cand = int((du[ok] + dv[ok]).min()) + 1
            if best is None or cand < best:
                best = cand
    return best


def two_core(g: SparseGraph) -> CoreDecomposition:
    """Maximal induced subgraph of minimum degree >= 2 (may be empty).

    Iterative leaf stripping run in vectorized rounds until fixpoint; the
    result is the unique 2-core regardless of stripping order.
    """
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


def induced_subgraph(g: SparseGraph, vertex_mask: np.ndarray):
    """Subgraph induced by a boolean vertex mask.

    Returns (graph, vertices, edge_ids) with the same reindexing convention
    as CoreDecomposition.
    """
    vertices = np.flatnonzero(vertex_mask)
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[vertices] = np.arange(vertices.size)
    keep = vertex_mask[g.eu] & vertex_mask[g.ev]
    edge_ids = np.flatnonzero(keep)
    pairs = np.column_stack([remap[g.eu[edge_ids]], remap[g.ev[edge_ids]]])
    return SparseGraph(vertices.size, pairs), vertices, edge_ids


def _walk(succ, starts):
    """Follow ``succ`` from every start until it gives -1.

    Returns the visited entries laid out walk by walk, each walk in step
    order, and the offsets of the walks in that layout (one more than
    there are walks).
    """
    walker = np.arange(starts.size)
    cur = starts
    walkers, entries = [], []
    for _ in range(succ.size + 1):
        if not cur.size:
            break
        walkers.append(walker)
        entries.append(cur)
        nxt = succ[cur]
        going = nxt >= 0
        walker, cur = walker[going], nxt[going]
    else:
        raise RuntimeError("chain walk did not terminate")
    if not walkers:
        return np.empty(0, np.int64), np.zeros(1, np.int64)
    step = np.repeat(np.arange(len(walkers)), [w.size for w in walkers])
    walker = np.concatenate(walkers)
    offsets = np.concatenate([[0], np.cumsum(np.bincount(walker))])
    out = np.empty(walker.size, dtype=np.int64)
    out[offsets[walker] + step] = np.concatenate(entries)
    return out, offsets


def kernel_paths(core: SparseGraph) -> KernelChains:
    """Decompose a min-degree-2 graph into maximal degree-2 chains.

    Every edge lies in exactly one returned chain.  Chain endpoints have
    degree >= 3, except that a component which is a bare cycle yields a
    single closed chain broken at its lowest-index vertex.  An edgeless
    graph gives an empty table.

    Order: first the chains with a branch (degree >= 3) endpoint, sorted
    by (lower endpoint ``a``, id of the chain's edge at ``a``), each listing
    its edges from ``a`` to ``b``; a loop at a branch vertex starts along
    its lower-id end edge.  Then the bare cycles by lowest vertex ``v``,
    each walked from ``v`` along ``v``'s lower-id edge.  So a chain's last
    edge, ``last_edge_ids``, is a deterministic representative.

    The chains are walked in numpy, all at once: adjacency entry j is the
    half-edge from ``head[j]`` along edge ``nbr_edge[j]`` to ``nbr[j]``, and
    a degree-2 vertex hands the walk on to its other entry.
    """
    deg = core.degrees()
    if core.n and deg.min() < 2:
        raise ValueError("kernel paths need minimum degree >= 2")
    indptr, nbr, nbr_edge = core._adjacency()
    head = np.repeat(np.arange(core.n), deg)
    side = (head != core.eu[nbr_edge]).astype(np.int64)  # 0 at eu, 1 at ev
    entry_of = np.empty((core.m, 2), dtype=np.int64)
    entry_of[nbr_edge, side] = np.arange(nbr_edge.size)
    twin = entry_of[nbr_edge, 1 - side]  # the same edge's entry at nbr[j]
    succ = np.where(deg[nbr] == 2, 2 * indptr[nbr] + 1 - twin, -1)

    # every branch entry starts a walk, so each chain is walked from both
    # ends; keep the walk whose (start vertex, first edge) is smaller
    starts = np.flatnonzero(deg[head] >= 3)
    steps, offsets = _walk(succ, starts)
    last = steps[offsets[1:] - 1]
    a, first_e = head[starts], nbr_edge[starts]
    b, last_e = nbr[last], nbr_edge[last]
    keep = (a < b) | ((a == b) & (first_e < last_e))
    walked = np.diff(offsets)
    edges = [nbr_edge[steps[np.repeat(keep, walked)]]]
    path_a, path_b = [a[keep]], [b[keep]]
    lengths = [walked[keep]]

    covered = np.zeros(core.m, dtype=bool)
    covered[edges[0]] = True
    if not covered.all():
        # what is left are bare cycles: break each at its lowest vertex v by
        # ending the walk that returns to v along v's second entry
        rest = np.flatnonzero(~covered)
        mat = coo_matrix((np.ones(rest.size, dtype=np.int8),
                          (core.eu[rest], core.ev[rest])),
                         shape=(core.n, core.n))
        _, comp = _cc_labels(mat, directed=False)
        # a cycle's lowest vertex is the lower end of both its edges
        lows = np.unique(core.eu[rest])
        _, first = np.unique(comp[lows], return_index=True)
        v = np.sort(lows[first])
        succ[twin[indptr[v] + 1]] = -1
        steps, offsets = _walk(succ, indptr[v])
        if (nbr[steps[offsets[1:] - 1]] != v).any():
            raise RuntimeError("a bare cycle did not close where it began")
        edges.append(nbr_edge[steps])
        path_a.append(v)
        path_b.append(v)
        lengths.append(np.diff(offsets))
    edges = np.concatenate(edges)
    if edges.size != core.m or not np.bincount(edges, minlength=core.m).all():
        raise RuntimeError("kernel paths do not cover every edge exactly once")
    return KernelChains(np.concatenate(path_a), np.concatenate(path_b),
                        np.concatenate(lengths), edges)


@dataclass(frozen=True)
class GiantDecomposition:
    """A graph's components, its largest one, and that one's 2-core chains.

    ``labels``/``sizes`` are ``component_labels`` of the host, so the giant
    is component 0.  ``giant_edge_ids`` maps a giant edge id to its host
    edge id; ``core`` is the giant's 2-core, whose ``edge_ids`` index the
    giant's edges; ``paths`` is ``kernel_paths(core.graph)``, whose edge
    ids index the core's edges (an empty table when the core is empty).
    """

    labels: np.ndarray
    sizes: np.ndarray
    giant_edge_ids: np.ndarray
    core: CoreDecomposition
    paths: KernelChains


def decompose_giant(g: SparseGraph) -> GiantDecomposition:
    """Components, giant, 2-core and chains of g, each computed once."""
    labels, sizes = component_labels(g)
    giant, _, giant_edge_ids = induced_subgraph(g, labels == 0)
    core = two_core(giant)
    return GiantDecomposition(labels, sizes, giant_edge_ids, core,
                              kernel_paths(core.graph))


# --- text formats: a header "n k", then k lines of two integers each ---

def _read_pairs(text: str, what: str):
    """n and the k rows after a header "n k", as a (k, 2) int64 array.

    Blank lines are skipped; ValueError unless every other line holds two
    integers that fit int64 and k lines follow the header."""
    if not text or text.isspace():
        raise ValueError(f"empty {what} input")
    # comments=None: a '#' is a bad token, not a comment
    rows = np.loadtxt(io.StringIO(text), dtype=np.int64, ndmin=2, comments=None)
    if rows.shape[1] != 2:
        raise ValueError(f"bad {what} input: {rows.shape[1]} fields per line")
    (n, k), pairs = rows[0].tolist(), rows[1:]
    if len(pairs) != k:
        raise ValueError(f"expected {k} {what} lines, got {len(pairs)}")
    return n, pairs


def _dump_pairs(n: int, a: np.ndarray, b: np.ndarray) -> str:
    rows = [f"{u} {v}" for u, v in zip(a.tolist(), b.tolist())]
    return "\n".join([f"{n} {a.size}"] + rows) + "\n"


def dump_edge_list(g: SparseGraph) -> str:
    return _dump_pairs(g.n, g.eu, g.ev)


def parse_edge_list(text: str) -> SparseGraph:
    n, pairs = _read_pairs(text, "edge")
    if (pairs[:, 0] >= pairs[:, 1]).any():
        raise ValueError("edges must satisfy u < v")
    return SparseGraph(n, pairs)  # range/loop/duplicate checks happen here


def write_edge_list(g: SparseGraph, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_edge_list(g))


def read_edge_list(path) -> SparseGraph:
    with open(path) as fh:
        return parse_edge_list(fh.read())
