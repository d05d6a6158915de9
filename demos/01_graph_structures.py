#!/usr/bin/env python3
"""Tour of the structural toolkit: components, 2-core, degree-2 chains.

Near p = (1+eps)/n a random graph is a giant component full of long
threads plus a dust of small trees.  Stripping leaves exposes the 2-core;
suppressing its degree-2 vertices exposes the kernel.
"""

from cutlab import (
    RngSpec,
    is_bipartite,
    kernel_paths,
    odd_girth,
    sample_gnp,
    two_core,
)
from cutlab.graph import SparseGraph, component_labels

# a theta graph: two hubs joined by three internally disjoint paths
theta = SparseGraph(7, [(0, 1), (0, 2), (1, 2), (0, 3), (3, 4), (1, 4),
                        (0, 5), (5, 6), (1, 6)])
print("theta graph:", theta)
print("  odd girth:", odd_girth(theta))
print("  bipartite:", is_bipartite(theta) is not None)
chains = kernel_paths(theta)
ends = chains.lengths.cumsum()
for a, b, k, end in zip(chains.a, chains.b, chains.lengths, ends):
    ids = tuple(chains.edge_ids[end - k:end].tolist())
    print(f"  chain {a}..{b} length {k} edge ids {ids}")

# now a supercritical random graph
n, eps = 30000, 0.2
g = sample_gnp(n, (1 + eps) / n, RngSpec(2024))
_, sizes = component_labels(g)  # sizes largest first
print(f"\nG(n={n}, p=(1+{eps})/n): m={g.m}, components={sizes.size}")
print(f"  largest component: {sizes[0]} vertices "
      f"({100 * sizes[0] / n:.1f}%)")
print(f"  second largest: {sizes[1]} vertices")

dec = two_core(g)
print(f"  2-core: {dec.graph.n} vertices, {dec.graph.m} edges")

chains = kernel_paths(dec.graph)
odd = int((chains.lengths % 2).sum())
print(f"  kernel chains: {len(chains)} (odd-length: {odd})")
lengths = sorted(chains.lengths.tolist())
print(f"  chain lengths: min={lengths[0]} median={lengths[len(lengths)//2]} "
      f"max={lengths[-1]}")
print("\nevery edge of the core lies in exactly one chain:",
      int(chains.lengths.sum()) == dec.graph.m)
