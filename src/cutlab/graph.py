"""Undirected sparse graphs and their structural decompositions.

Vertices are dense integers 0..n-1.  Edges carry stable integer identifiers
assigned in insertion order; every decomposition here is deterministic so
that downstream edge-deletion choices replay exactly.
"""

from __future__ import annotations

import io
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components as _cc_labels

_UNKNOWN = object()  # an odd girth not computed yet (None means bipartite)
# Most vertices labelled and coloured by one Python BFS over the neighbour
# view, not scipy's connected_components plus the numpy BFS: timed from a
# fresh G(n, c/n), c = 0.5..4, view build included, the Python pass is
# faster at every c up to n = 1000 and slower at some c from n = 1400 on.
_SMALL = 1000


def _frozen(*arrays):
    """The arrays, each made read-only in place, as a tuple."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _count(value, what: str) -> int:
    """``value`` as an int: ValueError unless it is a non-negative integer
    (a Python or numpy int; a bool or a float is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, not {value!r}")
    if value < 0:
        raise ValueError(f"{what} must be nonnegative, not {value}")
    return int(value)


def _integers(values, what: str) -> np.ndarray:
    """``values`` (an array or an iterable) as an int64 array; ValueError
    unless every entry is an integer that fits int64 (a bool is not)."""
    arr = (values if isinstance(values, np.ndarray)
           else np.asarray(list(values), dtype=object))
    kinds = set(map(type, arr.flat)) if arr.dtype == object else {arr.dtype.type}
    if arr.size and not all(issubclass(kind, numbers.Integral) and kind is not bool
                            for kind in kinds):
        raise ValueError(f"{what} must be integers")
    if (arr.size and arr.dtype.kind in "uO"
            and not -(1 << 63) <= arr.min() <= arr.max() < 1 << 63):
        raise ValueError(f"{what} must fit int64")
    return arr.astype(np.int64, copy=False)


def _pairs(edges, what: str) -> np.ndarray:
    """``edges`` (an array or an iterable of pairs) as a (k, 2) int64 array.

    Raises ValueError for any other shape or entries ``_integers`` refuses.
    """
    arr = _integers(edges, what)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{what} must be pairs")
    return arr


def _reject_duplicate_pairs(u: np.ndarray, v: np.ndarray, message: str):
    """Raise ``ValueError(message)`` when two pairs (u[i], v[i]) are equal.

    Rows are compared directly, so no pair code can overflow: one O(m)
    pass when the pairs strictly increase, else a lexsort first.  Returns
    that lexsort order, or None when the pairs already strictly increase.
    """
    if ((u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1]))).all():
        return None
    order = np.lexsort((v, u))
    u, v = u[order], v[order]
    if ((u[1:] == u[:-1]) & (v[1:] == v[:-1])).any():
        raise ValueError(message)
    return order


class SparseGraph:
    """Simple undirected graph in adjacency-list (CSR) form.

    Edge i joins ``eu[i] < ev[i]``.  Self-loops and duplicate edges are
    rejected at construction.  The duplicate check is one O(m) pass when
    the pairs ``(u, v)`` strictly increase, as they do for
    the samplers, for every derived graph (``induced_subgraph``,
    ``two_core``, ``delete_edges``) and for edge lists written by
    ``dump_edge_list``; other input falls back to a sort.

    Instances are immutable: ``eu``, ``ev`` and the adjacency arrays are
    read-only.  So each graph caches its per-graph invariants, each filled
    by the first call that needs it and never at construction: the CSR
    adjacency, the Python ``_neighbor_view``, the ``component_labels``
    pair, the rootless ``_bfs_two_color`` pair and ``odd_girth``.  Up to
    ``_SMALL`` vertices one Python BFS over the view fills both pairs at
    once; past it scipy fills the labels and a numpy BFS the colouring.
    Cached arrays are returned read-only.  A copy or pickle is rebuilt
    through ``__init__``, with empty caches.
    """

    __slots__ = ("n", "eu", "ev", "_indptr", "_nbr", "_nbr_edge", "_view",
                 "_labels", "_coloring", "_odd_girth")

    def __init__(self, n: int, edges: Iterable = ()):
        n = _count(n, "vertex count")
        arr = _pairs(edges, "edges")
        u = np.minimum(arr[:, 0], arr[:, 1])
        v = np.maximum(arr[:, 0], arr[:, 1])
        if arr.size:
            if u.min() < 0 or v.max() >= n:
                raise ValueError("edge endpoint out of range")
            if (u == v).any():
                raise ValueError("self-loops are not allowed")
            _reject_duplicate_pairs(u, v, "duplicate edges are not allowed")
        self.n = n
        self.eu, self.ev = _frozen(u, v)
        self._indptr = self._nbr = self._nbr_edge = self._view = None
        self._labels = self._coloring = None
        self._odd_girth = _UNKNOWN

    def __reduce__(self):
        return SparseGraph, (self.n, np.column_stack([self.eu, self.ev]))

    @property
    def m(self) -> int:
        return len(self.eu)

    def _adjacency(self):
        if self._indptr is None:
            # entry 2e is edge e seen from eu[e], entry 2e + 1 from ev[e];
            # one sort of the codes head * 2m + entry lists every vertex's
            # neighbors by edge id
            heads = np.column_stack([self.eu, self.ev]).ravel()
            k = heads.size
            if self.n * k >= 1 << 63:
                raise ValueError("graph too large for int64 adjacency codes")
            order = np.sort(heads * k + np.arange(k)) % k
            counts = np.bincount(heads, minlength=self.n)
            self._indptr, self._nbr, self._nbr_edge = _frozen(
                np.concatenate([[0], np.cumsum(counts)]),
                np.column_stack([self.ev, self.eu]).ravel()[order],
                order >> 1)
        return self._indptr, self._nbr, self._nbr_edge

    def _neighbor_view(self) -> tuple:
        """Every vertex's neighbours as a tuple, in edge-id order (the CSR
        order), all in one tuple: the adjacency that small-graph Python
        code walks.  Built on the first call by one pass over ``eu``/``ev``
        and cached."""
        if self._view is None:
            nbrs = [[] for _ in range(self.n)]
            for u, v in zip(self.eu.tolist(), self.ev.tolist()):
                nbrs[u].append(v)
                nbrs[v].append(u)
            self._view = tuple(map(tuple, nbrs))
        return self._view

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
        """New graph with the given edge ids removed (vertex set unchanged).

        Raises ValueError for an id that is no integer or outside 0..m-1."""
        edge_ids = _integers(edge_ids, "edge ids")
        if edge_ids.size and (edge_ids.min() < 0 or edge_ids.max() >= self.m):
            raise ValueError("edge id out of range")
        keep = np.ones(self.m, dtype=bool)
        keep[edge_ids] = False
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


def _shared_ends(eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """For edges (eu[i], ev[i]) listed in walk order, the end each shares
    with the next edge: the vertex a walk reaches after it.  Where two
    edges share no end the entry is an end of the first; callers check."""
    return np.where((eu == np.roll(eu, -1)) | (eu == np.roll(ev, -1)), eu, ev)


@dataclass(frozen=True)
class CoreDecomposition:
    """2-core as a reindexed graph plus maps back to the host graph."""

    graph: SparseGraph
    vertices: np.ndarray  # new index -> original vertex
    edge_ids: np.ndarray  # new edge id -> original edge id


def _smallest_per_label(labels: np.ndarray, k: int) -> np.ndarray:
    """The smallest vertex carrying each label 0..k-1 (each must occur).

    One reverse scatter: the write from the smallest vertex comes last.
    """
    first = np.empty(k, dtype=np.int64)
    first[labels[::-1]] = np.arange(labels.size - 1, -1, -1)
    return first


def component_labels(g: SparseGraph):
    """(labels, sizes) with labels renumbered by (-size, smallest vertex).

    Computed on g's first call and cached on g; both arrays are read-only.
    A graph of at most ``_SMALL`` vertices gets them, and its rootless
    ``_bfs_two_color`` pair with them, from one Python BFS
    (``_one_pass``); a larger one from scipy (``_scipy_labels``).
    """
    if g._labels is None:
        if g.n <= _SMALL:
            g._labels, g._coloring = _one_pass(g)
        else:
            g._labels = _scipy_labels(g)
    return g._labels


def _scipy_labels(g: SparseGraph):
    """The ``component_labels`` pair from scipy's ``connected_components``,
    read-only."""
    mat = coo_matrix(
        (np.ones(g.m, dtype=np.int8), (g.eu, g.ev)), shape=(g.n, g.n)
    )
    _, raw = _cc_labels(mat, directed=False)
    sizes = np.bincount(raw)
    order = np.lexsort((_smallest_per_label(raw, sizes.size), -sizes))
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return _frozen(rank[raw], sizes[order])


def _one_pass(g: SparseGraph):
    """The ``component_labels`` pair and the rootless ``_bfs_two_color``
    pair from one Python BFS, all four read-only.

    Start vertices are taken in increasing order, so components come out in
    smallest-vertex order and a vertex's colour is the parity of its BFS
    distance from its component's smallest vertex.  A stable sort by -size
    then gives the (-size, smallest vertex) numbering, which is also every
    vertex's owner.
    """
    nbrs = g._neighbor_view()
    raw, color, sizes = [-1] * g.n, [0] * g.n, []
    for root in range(g.n):
        if raw[root] >= 0:
            continue
        k = len(sizes)
        raw[root] = k
        queue = [root]
        for v in queue:  # the queue grows while it is read
            c = 1 - color[v]
            for w in nbrs[v]:
                if raw[w] < 0:
                    raw[w], color[w] = k, c
                    queue.append(w)
        sizes.append(len(queue))
    sizes = np.array(sizes, dtype=np.int64)
    order = np.argsort(-sizes, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    labels = rank[np.array(raw, dtype=np.int64)]
    return (_frozen(labels, sizes[order]),
            _frozen(np.array(color, dtype=np.int8), labels))


def _gather_neighbors(indptr, nbr, frontier):
    """Neighbors of every frontier vertex, with repeats."""
    counts = indptr[frontier + 1] - indptr[frontier]
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, np.int64)
    rep_start = np.repeat(indptr[frontier], counts)
    block = np.repeat(np.cumsum(counts) - counts, counts)
    return nbr[rep_start + (np.arange(total) - block)]


def _bfs_two_color(g: SparseGraph, roots=None):
    """Parity layering by one BFS from every root at once.

    Returns (color, owner): a vertex's color is the parity of its distance
    from the root that reached it, and ``owner`` is that root's index in
    ``roots``; both are -1 at a vertex that no root reaches.  Without
    ``roots`` the roots are the smallest vertex of each
    ``component_labels`` component, so ``owner`` is the component label;
    that pair is computed once per graph, cached on g and read-only.  A
    graph of at most ``_SMALL`` vertices gets it with its labels from
    ``_one_pass``; a larger one from this BFS, run from those roots.
    """
    if roots is None:
        if g._coloring is None:
            labels, sizes = component_labels(g)  # up to _SMALL, colours g too
            if g._coloring is None:
                g._coloring = _frozen(*_bfs_two_color(
                    g, _smallest_per_label(labels, sizes.size)))
        return g._coloring
    color = np.full(g.n, -1, dtype=np.int8)
    owner = np.full(g.n, -1, dtype=np.int64)
    color[roots] = 0
    owner[roots] = np.arange(roots.size)
    indptr, nbr, _ = g._adjacency()
    slot = np.empty(g.n, dtype=np.int64)
    frontier = roots
    level = 0
    while frontier.size:
        src = np.repeat(owner[frontier], indptr[frontier + 1] - indptr[frontier])
        nxt = _gather_neighbors(indptr, nbr, frontier)
        new = color[nxt] == -1
        fresh, src = nxt[new], src[new]
        # one copy of each vertex: the one whose scattered index survived
        rank = np.arange(fresh.size)
        slot[fresh] = rank
        first = slot[fresh] == rank
        fresh = fresh[first]
        color[fresh] = (level + 1) % 2
        owner[fresh] = src[first]
        frontier = fresh
        level += 1
    return color, owner


def is_bipartite(g: SparseGraph) -> Optional[np.ndarray]:
    """A proper 2-coloring (0/1 per vertex) if one exists, else None."""
    color, _ = _bfs_two_color(g)
    if g.m and not (color[g.eu] != color[g.ev]).all():
        return None
    return color.astype(np.int64)


def odd_girth(g: SparseGraph) -> Optional[int]:
    """Length of a shortest odd cycle, or None when bipartite.

    Computed on g's first call by ``_shortest_odd_closure`` and cached on g.
    """
    if g._odd_girth is _UNKNOWN:
        g._odd_girth = _shortest_odd_closure(g)
    return g._odd_girth


def _shortest_odd_closure(g: SparseGraph) -> Optional[int]:
    """The odd girth of g, computed by one BFS per source.

    Seen from a source, a vertex at distance r with a neighbour also at
    distance r closes an odd walk of length 2r + 1, and the least such
    closure over all sources is the odd girth.  Only the sources in a
    component whose rootless colouring has a clashing edge can close one,
    and each BFS stops once 2r + 1 reaches the best closure so far: at
    worst O(n(n + m)) steps in Python.
    """
    color, owner = _bfs_two_color(g)
    clash = color[g.eu] == color[g.ev]
    if not clash.any():
        return None
    odd_comp = np.zeros(g.n, dtype=bool)  # np.isin is 7x slower here
    odd_comp[owner[g.eu[clash]]] = True
    nbrs = g._neighbor_view()
    best = g.n + 1  # a shortest odd cycle has at most n vertices
    for s in np.flatnonzero(odd_comp[owner]).tolist():
        best = _odd_closure_from(nbrs, s, best)
    return best


def _odd_closure_from(nbrs, s: int, best: int) -> int:
    """The first closure 2r + 1 of a BFS from s (over the lists ``nbrs``)
    when it is below ``best``; ``best`` otherwise."""
    dist = [-1] * len(nbrs)
    dist[s] = 0
    level, r = [s], 0
    while level and 2 * r + 1 < best:
        ahead = []
        for v in level:
            for w in nbrs[v]:
                if dist[w] < 0:
                    dist[w] = r + 1
                    ahead.append(w)
                elif dist[w] == r:
                    return 2 * r + 1
        level, r = ahead, r + 1
    return best


def two_core(g: SparseGraph) -> CoreDecomposition:
    """Maximal induced subgraph of minimum degree >= 2 (may be empty).

    Iterative leaf stripping run in vectorized rounds until fixpoint; the
    result is the unique 2-core regardless of stripping order.  After the
    first round only the surviving ends of the edges removed last round
    can turn weak, so a round updates and tests those ends alone; ``deg``
    is kept exact at living vertices only.
    """
    alive_v = np.ones(g.n, dtype=bool)
    live_e = np.arange(g.m)
    deg = g.degrees()
    weak = np.flatnonzero(deg < 2)
    while weak.size:
        alive_v[weak] = False
        dead = ~(alive_v[g.eu[live_e]] & alive_v[g.ev[live_e]])
        dying = live_e[dead]
        live_e = live_e[~dead]
        ends = np.concatenate([g.eu[dying], g.ev[dying]])
        ends, counts = np.unique(ends[alive_v[ends]], return_counts=True)
        deg[ends] -= counts
        weak = ends[deg[ends] < 2]
    return CoreDecomposition(*induced_subgraph(g, alive_v))


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
        # what is left are bare cycles, each a whole component of core:
        # break each at its lowest vertex v (the lower end of both its
        # edges) by ending the walk that returns to v along v's second entry
        rest = np.flatnonzero(~covered)
        lows = np.unique(core.eu[rest])
        labels, _ = component_labels(core)
        _, first = np.unique(labels[lows], return_index=True)
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
