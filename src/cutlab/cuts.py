"""MAXCUT and distance-to-bipartiteness machinery.

Exact solvers enumerate bipartitions with one vertex anchored, walking the
counter in an order that matches lexicographic order of the label sequence,
so the first optimum found is the canonical witness.  The polynomial-time
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
_CHUNK = 1 << 20


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


def _counter_chunks(nbits: int, dtype):
    total = 1 << nbits
    for start in range(0, total, _CHUNK):
        stop = min(start + _CHUNK, total)
        yield np.arange(start, stop, dtype=dtype)


def _fold_bits(eu, ev, n, combine, flips=None):
    """Accumulate, per enumeration counter, one crossing bit per edge.

    Counter bit layout: vertex v sits at shift n-1-v, so increasing counter
    values enumerate label sequences in lexicographic order and vertex 0
    (shifted past the counter width) is pinned to side 0.  ``flips`` inverts
    chosen edges' bits (crossing vs not), and ``combine`` folds each chunk's
    per-counter totals into a running best.  In-place uint32/uint64
    arithmetic keeps the scan allocation-free.
    """
    dtype = np.uint32 if n <= 32 else np.uint64
    su = (n - 1 - eu).astype(dtype)
    sv = (n - 1 - ev).astype(dtype)
    if flips is None:
        flips = np.zeros(len(su), dtype=bool)
    one = dtype(1)
    buf = np.empty(_CHUNK, dtype=dtype)
    tmp = np.empty(_CHUNK, dtype=dtype)
    acc = np.empty(_CHUNK, dtype=np.uint32)
    for c in _counter_chunks(max(n - 1, 0), dtype):
        k = len(c)
        total = acc[:k]
        total.fill(0)
        for a, b, f in zip(su, sv, flips):
            np.right_shift(c, a, out=buf[:k])
            np.right_shift(c, b, out=tmp[:k])
            np.bitwise_xor(buf[:k], tmp[:k], out=buf[:k])
            np.bitwise_and(buf[:k], one, out=buf[:k])
            if f:
                np.bitwise_xor(buf[:k], one, out=buf[:k])
            total += buf[:k]
        combine(total, int(c[0]))


def _component_maxcut(g: SparseGraph):
    """Best cut of a (small) graph by anchored bipartition enumeration.

    The first counter attaining the maximum is returned, which makes the
    witness the lexicographically least optimal label sequence.
    """
    n = g.n
    if n == 0:
        return 0, np.zeros(0, dtype=np.int64)
    best = {"cut": -1, "c": 0}

    def combine(total, base):
        i = int(np.argmax(total))
        if int(total[i]) > best["cut"]:
            best["cut"] = int(total[i])
            best["c"] = base + i

    _fold_bits(g.eu, g.ev, n, combine)
    shifts = n - 1 - np.arange(n)
    labels = (best["c"] >> shifts) & 1
    return best["cut"], labels.astype(np.int64)


def exact_maxcut(g: SparseGraph, limit: int = EXACT_LIMIT) -> CutResult:
    """Optimal cut for n <= limit, with the lexicographically least witness.

    Components are enumerated independently (2^(k-1) counters each) and the
    witnesses composed, which is both faster and yields the same canonical
    partition as a whole-graph sweep.
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
        cut, sub_labels = _component_maxcut(sub)
        partition[verts] = sub_labels
        total += cut
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
    loops = kernel.is_loop()
    const = int(parities[loops].sum())  # odd loops are bad in every split
    keep = ~loops
    if not keep.any() or kernel.n == 0:
        return const
    best = {"bad": None}

    def combine(total, base):
        m = int(total.min())
        if best["bad"] is None or m < best["bad"]:
            best["bad"] = m

    # an edge is bad when its crossing bit differs from its parity bit,
    # i.e. the crossing indicator flipped on odd-parity edges
    _fold_bits(kernel.eu[keep], kernel.ev[keep], kernel.n, combine,
               flips=parities[keep] == 1)
    return const + best["bad"]


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
