"""MAXCUT and distance-to-bipartiteness machinery.

Both exact solvers call one engine, ``_least_labeling``: with one vertex
anchored, it fills the table of all labelings in lexicographic order of
the label sequence, a block of rows per matrix product, so the first
optimum found is the canonical witness.  The polynomial-time
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
    SparseGraph,
    _bfs_two_color,
    component_labels,
    decompose_giant,
    induced_subgraph,
    is_bipartite,
    two_core,
)

EXACT_LIMIT = 30
KERNEL_LIMIT = 24
_BLOCK = 1 << 18


@dataclass(frozen=True)
class CutResult:
    """A cut, its bipartition witness, and the edges left out of the cut."""

    cut_size: int
    partition: np.ndarray
    deleted_edge_ids: frozenset

    def to_json(self) -> str:
        return json.dumps(
            {
                "cut_size": self.cut_size,
                "partition": "".join(str(int(b)) for b in self.partition),
                "deleted_edge_ids": sorted(self.deleted_edge_ids),
            }
        )


def _bits(k: int) -> np.ndarray:
    """The 2^k label vectors of k vertices in lexicographic order, as rows."""
    shifts = np.arange(k - 1, -1, -1)
    return ((np.arange(1 << k)[:, None] >> shifts) & 1).astype(np.float64)


def _least_labeling(n: int, eu, ev, weight):
    """Least sum of weight[e] over crossing edges, with its first labeling.

    Labelings put vertex 0 on side 0; of those reaching the least value,
    the lexicographically least label sequence is returned.  Edge uv
    crosses exactly when x_u + x_v - 2 x_u x_v = 1, so a labeling x is
    worth f(x) = d.x + x^T Q x, with d[v] the weight at v and Q[u, v] =
    Q[v, u] minus the weight between u and v (a loop is worth 0).  Split
    x = a + b, with a on the high half H = 1..h of the free vertices (the
    major labels) and b on the low half L: x is worth f(a) + f(b) +
    2 a^T Q b.  Read row by row (a the row, b the column) that table is in
    lexicographic order.  It is filled about _BLOCK entries at a time by
    one float64 matrix product, and a block's first minimum is kept only
    when strictly below the best so far.  Weights are small integers:
    every partial sum is an integer of magnitude at most 4 sum(|weight|),
    far below 2^53, so all float64 arithmetic here is exact.
    """
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    q = np.zeros((n, n))
    np.add.at(q, (eu, ev), -weight)
    np.add.at(q, (ev, eu), -weight)
    d = np.bincount(eu, weight, n) + np.bincount(ev, weight, n)
    h = (n - 1) // 2
    high = np.zeros((1 << h, n))
    high[:, 1:h + 1] = _bits(h)
    low = np.zeros((1 << (n - 1 - h), n))
    low[:, h + 1:] = _bits(n - 1 - h)
    f_high = high @ d + ((high @ q) * high).sum(axis=1)
    f_low = low @ d + ((low @ q) * low).sum(axis=1)
    cross = 2 * q @ low.T
    rows = max(1, _BLOCK // len(low))
    best, first = np.inf, 0
    for r in range(0, len(high), rows):
        table = high[r:r + rows] @ cross
        table += f_low
        table += f_high[r:r + rows, None]
        i = int(table.argmin())
        if table.flat[i] < best:
            best, first = table.flat[i], r * len(low) + i
    return int(best), (first >> np.arange(n - 1, -1, -1)) & 1


def exact_maxcut(g: SparseGraph, limit: int = EXACT_LIMIT) -> CutResult:
    """Optimal cut for n <= limit, with the lexicographically least witness.

    Each component is solved on its own by ``_least_labeling`` (weight -1
    per edge, so the least value is minus the component's best cut) and
    the witnesses composed, which is both faster and yields the same
    canonical partition as a whole-graph search.
    """
    if g.n > limit:
        raise GuardLimitError(
            f"exact_maxcut guarded at n <= {limit} (got n = {g.n})"
        )
    labels, sizes = component_labels(g)
    partition = np.zeros(g.n, dtype=np.int64)
    total = 0
    for comp in range(len(sizes)):
        sub, verts, _ = induced_subgraph(g, labels == comp)
        value, sub_labels = _least_labeling(sub.n, sub.eu, sub.ev,
                                            np.full(sub.m, -1.0))
        partition[verts] = sub_labels
        total -= value
    inside = partition[g.eu] == partition[g.ev]
    deleted = frozenset(np.flatnonzero(inside).tolist())
    return CutResult(total, partition, deleted)


def dist_bp_exact(g: SparseGraph, limit: int = EXACT_LIMIT) -> int:
    """Fewest edge deletions making g bipartite: e(g) - MAXCUT(g)."""
    return g.m - exact_maxcut(g, limit=limit).cut_size


def _small_cycle_deletions(g: SparseGraph, labels, sizes) -> np.ndarray:
    """Edge ids that make every non-largest component bipartite.

    Only components with a cycle (edges >= vertices) are searched; a tree
    has no conflicting edge.  Deleting conflicting edges one per component
    per round, lowest id first, until none is left deletes exactly the
    edges inside a color class of one BFS coloring: such an edge joins two
    vertices at equal distance from the root, so no shortest path uses it
    and deleting it changes no distance, hence no color.
    """
    edges = np.bincount(labels[g.eu], minlength=sizes.size)
    cyclic = edges >= sizes
    cyclic[:1] = False
    if not cyclic.any():
        return np.empty(0, dtype=np.int64)
    sub, _, emap = induced_subgraph(g, cyclic[labels])
    colors = _bfs_two_color(sub)
    return emap[colors[sub.eu] == colors[sub.ev]]


def giant_cut_algorithm(g: SparseGraph,
                        dec: GiantDecomposition | None = None) -> CutResult:
    """Deterministic polynomial-time cut for supercritical random graphs.

    (i) split into components; (ii) in every non-largest component that
    has a cycle, delete the edges inside a color class of its BFS coloring
    from the lowest vertex; (iii) in the largest component's 2-core, delete
    the representative (last) edge of every degree-2 chain, which leaves
    the core acyclic.  The remaining edges all cross the returned
    bipartition, so the cut size is e(g) minus the deletions.

    ``dec`` is ``decompose_giant(g)`` when the caller already has it; it
    is computed here otherwise.
    """
    if dec is None:
        dec = decompose_giant(g)
    elif dec.labels.size != g.n:
        raise ValueError("decomposition belongs to a different graph")
    deleted = np.concatenate([
        _small_cycle_deletions(g, dec.labels, dec.sizes),
        dec.giant_edge_ids[dec.core.edge_ids[dec.paths.last_edge_ids]],
    ]).tolist()
    remaining = g.delete_edges(deleted)
    partition = is_bipartite(remaining)
    if partition is None:
        raise AssertionError("bipartization left an odd cycle")
    return CutResult(g.m - len(deleted), partition, frozenset(deleted))


def odd_path_bipartization(core: ExpandedCore) -> set:
    """One representative edge per odd-length kernel path.

    Removing the returned edge ids from the expanded core kills every odd
    cycle: each cycle traverses whole kernel paths and an odd cycle must
    use an odd number of odd-length ones.
    """
    if not isinstance(core, ExpandedCore):
        raise TypeError("odd_path_bipartization needs per-path metadata")
    out = set()
    for e in range(core.kernel.m):
        if core.path_lengths[e] % 2 == 1:
            out.add(int(core.path_edge_ids[e][-1]))
    return out


def min_bad_edges(
    kernel: KernelMultigraph, parities, limit: int = KERNEL_LIMIT
) -> int:
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
    if kernel.n > limit:
        raise GuardLimitError(
            f"min_bad_edges guarded at kernel size <= {limit} (got {kernel.n})"
        )
    # an even edge is bad when it crosses (weight 1), an odd one when it
    # does not (1 - crossing: weight -1, plus 1); a loop never crosses
    odd = parities == 1
    value, _ = _least_labeling(kernel.n, kernel.eu, kernel.ev,
                               np.where(odd, -1.0, 1.0))
    return int(odd.sum()) + value


def sandwich_check(core: ExpandedCore, exact_limit: int = EXACT_LIMIT):
    """(lower, exact, upper) bracket for the core's distance to bipartiteness.

    lower = best kernel bipartition's bad-edge count, upper = number of
    odd-length paths, exact = enumeration on the expanded graph when it is
    small enough (None otherwise).  The chain lower <= exact <= upper is
    checked before returning; AssertionError reports a broken bracket.
    """
    lower = min_bad_edges(core.kernel, core.parities)
    upper = len(odd_path_bipartization(core))
    exact = None
    if core.graph.n <= exact_limit:
        exact = dist_bp_exact(core.graph, limit=exact_limit)
    if exact is not None:
        if not lower <= exact <= upper:
            raise AssertionError((lower, exact, upper))
    elif not lower <= upper:
        raise AssertionError((lower, upper))
    return lower, exact, upper


def dist_bp_via_kernel(g: SparseGraph, kernel_limit: int = KERNEL_LIMIT) -> int:
    """Exact distance to bipartiteness through kernel contraction.

    Only cycles matter, so the answer is the sum over 2-core components of
    the best bad-edge count of their contracted kernels, each read from one
    kernelization of the whole 2-core; ``kernel_limit`` guards each
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
        total += min_bad_edges(sub, parities[edges], limit=kernel_limit)
    return total
