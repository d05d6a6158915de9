"""MAXCUT and distance-to-bipartiteness machinery.

Both exact solvers call one engine, ``_least_labeling``.  With one vertex
anchored, it splits the free vertices into a high and a low half; a
labeling's value is its high part's worth, its low part's worth and a
cross term that sees the high labels only on the border B, the high
vertices with a nonzero net edge weight into the low half L.  So the
engine fills one table row per border signature, 2^|B| x 2^|L| entries
in float32 matrix products that carry the low worth in their inner
dimension, and keeps each row's least value and first column; every high
labeling then adds its own worth to its signature's least.  Lexicographic
order of the labelings is row-major order of the full high-by-low table,
whose rows are those signature rows shifted by the high worth, so the
first least high row and its signature's first column make the canonical
witness.  Every sum is an integer, exact in float32 while
10 sum(|weight|) < 2^24, which the engine guards.  The polynomial-time
route mirrors the giant-component strategy: clean up small components
greedily, then break every degree-2 chain of the 2-core once.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core_model import ExpandedCore, kernelize, KernelMultigraph
from .errors import GuardLimitError
from .graph import (
    GiantDecomposition,
    KernelChains,
    SparseGraph,
    _bfs_two_color,
    _shared_ends,
    _smallest_per_label,
    component_labels,
    decompose_giant,
    induced_subgraph,
    two_core,
)

EXACT_LIMIT = 30
KERNEL_LIMIT = 24
_BLOCK = 1 << 18
_FLOAT32_EXACT = 1 << 24  # float32 holds every integer of magnitude <= 2^24


@dataclass(frozen=True)
class CutResult:
    """A cut, its bipartition witness, and the edges left out of the cut."""

    cut_size: int
    partition: np.ndarray
    deleted_edge_ids: frozenset

    def to_json(self) -> str:
        digits = self.partition.astype(np.uint8) + ord("0")
        return json.dumps(
            {
                "cut_size": self.cut_size,
                "partition": digits.tobytes().decode(),
                "deleted_edge_ids": sorted(self.deleted_edge_ids),
            }
        )


def _bits(k: int) -> np.ndarray:
    """The 2^k label vectors of k vertices in lexicographic order, as rows."""
    shifts = np.arange(k - 1, -1, -1)
    return ((np.arange(1 << k)[:, None] >> shifts) & 1).astype(np.float32)


def _least_labeling(n: int, eu, ev, weight):
    """Least sum of weight[e] over crossing edges, with its first labeling.

    Labelings put vertex 0 on side 0; of those reaching the least value,
    the lexicographically least label sequence is returned.  Edge uv
    crosses exactly when x_u + x_v - 2 x_u x_v = 1, so a labeling x is
    worth f(x) = d.x + x^T Q x, with d[v] the weight at v and Q[u, v] =
    Q[v, u] minus the weight between u and v (a loop is worth 0).  Split
    x = a + b, with a on the high half H = 1..h of the free vertices (the
    major labels) and b on the low half L: x is worth f(a) + f(b) +
    2 a^T Q b.  Read row by row (a the row, b the column), that table is
    in lexicographic order.

    The cross term sees a only through its border signature s, the labels
    of the border B: the high vertices with a nonzero Q entry into L
    (parallel edges whose weights cancel leave a vertex out).  So only
    the 2^|B| x 2^|L| signature table is filled: the product of the
    float32 matrices [s | 1] (one row per s) and [2 Q[B, L] b ; f(b)] (one
    column per b), about _BLOCK entries per product, keeping each row's
    least value and its first column.  Each of the 2^h high rows a then
    reads f(a) + least[s(a)], and the first least row, with its
    signature's first column, is the first least entry of the full table:
    an earlier row has a larger least, and row a's entries are f(a) plus
    its signature's row.  With B = H (a dense graph) the signature table
    is the full table.

    All arithmetic is float32.  Every partial sum, of an entry or of the
    factors, in any order, is an integer of magnitude at most
    10 sum(|weight|) (2 for the cross term, 4 for each of f(a) and f(b)),
    so it is exact while that is below 2^24; GuardLimitError past it.  A
    signature, below 2^h, is exact as well.
    """
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    total = float(np.abs(weight).sum())
    if 10 * total >= _FLOAT32_EXACT:
        raise GuardLimitError(f"_least_labeling guarded at 10 sum(|weight|) "
                              f"< 2^24 (got sum(|weight|) = {total:g})")
    w = np.asarray(weight, dtype=np.float32)
    q = np.zeros((n, n), dtype=np.float32)
    np.subtract.at(q, (eu, ev), w)
    np.subtract.at(q, (ev, eu), w)
    d = -q.sum(axis=1)  # the weight at each vertex, a loop's twice
    h = (n - 1) // 2
    hi, lo = slice(1, h + 1), slice(h + 1, n)

    def worth(bits, part):
        return bits @ d[part] + ((bits @ q[part, part]) * bits).sum(axis=1)

    # low labels n - 1 - h >= h vertices, and the labelings of j <= h
    # vertices are its first 2^j rows cut to their last j columns
    low = _bits(n - 1 - h)
    high = low[:1 << h, n - 1 - 2 * h:]
    cross = q[hi, lo]
    border = np.flatnonzero(cross.any(axis=1))
    k = border.size
    rows = np.ones((1 << k, k + 1), dtype=np.float32)
    rows[:, :k] = low[:1 << k, n - 1 - h - k:]
    cols = np.empty((k + 1, len(low)), dtype=np.float32)
    cols[:k], cols[k] = 2 * cross[border] @ low.T, worth(low, lo)
    least = np.empty(len(rows), dtype=np.float32)
    column = np.empty(len(rows), dtype=np.int64)
    step = max(1, _BLOCK // len(low))
    for r in range(0, len(rows), step):
        table = rows[r:r + step] @ cols
        column[r:r + step] = table.argmin(axis=1)
        least[r:r + step] = table[np.arange(len(table)), column[r:r + step]]
    # a high row's signature is its border bits read as a binary number
    place = np.zeros(h, dtype=np.float32)
    place[border] = 1 << np.arange(k - 1, -1, -1)
    sig = (high @ place).astype(np.intp)
    value = worth(high, hi) + least[sig]
    row = int(value.argmin())
    first = row * len(low) + int(column[sig[row]])
    return int(value[row]), (first >> np.arange(n - 1, -1, -1)) & 1


def exact_maxcut(g: SparseGraph, limit: int = EXACT_LIMIT) -> CutResult:
    """Optimal cut for n <= limit, with the lexicographically least witness.

    Each component is solved on its own and the witnesses composed, which
    is both faster and yields the same canonical partition as a
    whole-graph search.  A bipartite component keeps the cached rootless
    BFS colouring: its smallest vertex on side 0 and every edge cut, the
    one optimum with that vertex on side 0.  A component with a clashing
    edge is solved by ``_least_labeling`` (weight -1 per edge, so the
    least value is minus the component's best cut).
    """
    if g.n > limit:
        raise GuardLimitError(
            f"exact_maxcut guarded at n <= {limit} (got n = {g.n})"
        )
    color, labels = _bfs_two_color(g)
    partition = color.astype(np.int64)
    clash = partition[g.eu] == partition[g.ev]
    for comp in np.unique(labels[g.eu[clash]]).tolist():
        sub, verts, _ = induced_subgraph(g, labels == comp)
        _, sub_labels = _least_labeling(sub.n, sub.eu, sub.ev,
                                        np.full(sub.m, -1.0))
        partition[verts] = sub_labels
    inside = partition[g.eu] == partition[g.ev]
    deleted = frozenset(np.flatnonzero(inside).tolist())
    return CutResult(g.m - len(deleted), partition, deleted)


def dist_bp_exact(g: SparseGraph) -> int:
    """Fewest edge deletions making g bipartite: e(g) - MAXCUT(g)."""
    return g.m - exact_maxcut(g).cut_size


def giant_cut_algorithm(g: SparseGraph,
                        dec: GiantDecomposition | None = None) -> CutResult:
    """Deterministic polynomial-time cut for supercritical random graphs.

    Delete the representative (last) edge of every degree-2 chain of the
    largest component's 2-core, which leaves that component a forest, and
    color what remains by BFS parity from the lowest vertex of each of its
    components.  The cut is that coloring: the edges inside a color class
    are deleted too, and they all lie in non-largest components with a
    cycle.  There they are exactly the edges found by deleting conflicting
    edges one per component per round, lowest id first, until none is
    left: such an edge joins two vertices at equal distance from the root,
    so no shortest path uses it and deleting it changes no distance, hence
    no color.  The cut size is e(g) minus the deletions.

    The roots come from ``dec``, with no second labelling: the other
    components keep their lowest vertex per ``dec.labels`` label, and each
    tree of the giant forest holds exactly one chain end (or, with an
    empty core, is the whole giant, seeded at its lowest vertex).  One
    BFS runs from all of them; a tree is bipartite, so flipping every
    tree whose lowest vertex came out colored 1 gives the coloring from
    that vertex.  An uncolored vertex or a clashing giant edge raises
    AssertionError.

    ``dec`` is ``decompose_giant(g)`` when the caller already has it; it
    is computed here otherwise.
    """
    if dec is None:
        dec = decompose_giant(g)
    elif dec.labels.size != g.n:
        raise ValueError("decomposition belongs to a different graph")
    reps = dec.giant_edge_ids[dec.core.edge_ids[dec.paths.last_edge_ids]]
    roots = _smallest_per_label(dec.labels, dec.sizes.size)
    if dec.core.graph.n:
        ends = np.unique(np.concatenate([dec.paths.a, dec.paths.b]))
        giant = np.flatnonzero(dec.labels == 0)
        roots = np.concatenate([giant[dec.core.vertices[ends]], roots[1:]])
    colors, owner = _bfs_two_color(g.delete_edges(reps), roots)
    if (colors < 0).any():
        raise AssertionError("bipartization left an odd cycle")
    colors ^= colors[_smallest_per_label(owner, roots.size)][owner]
    inside = colors[g.eu] == colors[g.ev]
    inside[reps] = False
    clash = np.flatnonzero(inside)
    if (dec.labels[g.eu[clash]] == 0).any():
        raise AssertionError("bipartization left an odd cycle")
    deleted = np.concatenate([clash, reps]).tolist()
    return CutResult(g.m - len(deleted), colors.astype(np.int64),
                     frozenset(deleted))


def odd_path_bipartization(graph: SparseGraph,
                           chains: KernelChains) -> np.ndarray:
    """The last edge of every odd chain of ``chains``, graph's chain table,
    certified to leave graph bipartite.

    The certificate is a 2-coloring read off the table in O(m): the
    vertex a chain reaches after its j-th edge (the end that edge shares
    with the next) gets color j mod 2, and chain ends color 0.  Every edge
    end must be colored (a vertex on no edge need not be) and every edge
    but the cut ones must join two colors; AssertionError otherwise.
    """
    ids = chains.edge_ids
    if chains.lengths.sum() != ids.size:
        raise AssertionError("chain lengths do not add up to the edge ids")
    cut = chains.last_edge_ids[chains.lengths % 2 == 1]
    ends = np.cumsum(chains.lengths)
    after = _shared_ends(graph.eu[ids], graph.ev[ids])
    after[ends - 1] = chains.b
    start = np.repeat(ends - chains.lengths, chains.lengths)
    color = np.full(graph.n, -1, dtype=np.int8)
    color[after] = (np.arange(ids.size) - start + 1) % 2
    color[chains.a] = color[chains.b] = 0
    cu, cv = color[graph.eu], color[graph.ev]
    clash = cu == cv
    clash[cut] = False
    if clash.any() or (cu < 0).any() or (cv < 0).any():
        raise AssertionError("odd-path deletion left an odd cycle")
    return cut


def min_bad_edges(kernel: KernelMultigraph, parities) -> int:
    """Minimum, over kernel bipartitions, of the number of bad edges.

    An edge is bad when it lies inside a block with odd path parity or
    crosses blocks with even parity; every bad edge forces a monochromatic
    edge on its path, so this is a lower bound on the expanded core's
    distance to bipartiteness (and in fact matches it exactly, since path
    interiors recolor freely).
    """
    parities = np.asarray(parities, dtype=np.int64) % 2
    if len(parities) != kernel.m:
        raise ValueError("one parity per kernel edge required")
    if kernel.n > KERNEL_LIMIT:
        raise GuardLimitError(f"min_bad_edges guarded at kernel size "
                              f"<= {KERNEL_LIMIT} (got {kernel.n})")
    # an even edge is bad when it crosses (weight 1), an odd one when it
    # does not (1 - crossing: weight -1, plus 1); a loop never crosses
    odd = parities == 1
    value, _ = _least_labeling(kernel.n, kernel.eu, kernel.ev,
                               np.where(odd, -1.0, 1.0))
    return int(odd.sum()) + value


def sandwich_check(core: ExpandedCore):
    """(lower, exact, upper) bracket for the core's distance to bipartiteness.

    lower = best kernel bipartition's bad-edge count, upper = number of
    odd-length paths (``odd_path_bipartization``, certified), exact =
    enumeration on the expanded graph when n <= EXACT_LIMIT (None
    otherwise).  The chain lower <= exact <= upper is checked before
    returning; AssertionError reports a broken bracket.
    """
    lower = min_bad_edges(core.kernel, core.parities)
    upper = odd_path_bipartization(core.graph, core.chains).size
    exact = None
    if core.graph.n <= EXACT_LIMIT:
        exact = dist_bp_exact(core.graph)
    if exact is not None:
        if not lower <= exact <= upper:
            raise AssertionError((lower, exact, upper))
    elif not lower <= upper:
        raise AssertionError((lower, upper))
    return lower, exact, upper


def dist_bp_via_kernel(g: SparseGraph) -> int:
    """Exact distance to bipartiteness through kernel contraction.

    Only cycles matter, so the answer is the sum over 2-core components of
    the best bad-edge count of their contracted kernels, each read from one
    kernelization of the whole 2-core; ``min_bad_edges`` guards each
    component's kernel.  Works far beyond the enumeration guard of
    dist_bp_exact as long as kernels stay small.
    """
    core = two_core(g).graph
    expanded = kernelize(core)
    kernel, parities = expanded.kernel, expanded.parities
    labels, sizes = component_labels(core)
    vertex_comp = labels[expanded.kernel_to_core]
    edge_comp = vertex_comp[kernel.eu]
    total = 0
    for comp in range(len(sizes)):
        inside = vertex_comp == comp
        remap = np.cumsum(inside) - 1
        edges = edge_comp == comp
        sub = KernelMultigraph(
            int(inside.sum()),
            np.column_stack([remap[kernel.eu[edges]], remap[kernel.ev[edges]]]),
        )
        total += min_bad_edges(sub, parities[edges])
    return total
