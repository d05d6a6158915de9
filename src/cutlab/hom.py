"""Homomorphisms into odd cycles, decided exactly on small graphs, plus the
cut-based certificate that rules them out at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GuardLimitError
from .graph import (
    SparseGraph,
    component_labels,
    induced_subgraph,
    is_bipartite,
    odd_girth,
)

NODE_LIMIT = 60
EDGE_LIMIT = 120


@dataclass(frozen=True)
class HomWitness:
    """A map into the cycle on 2*ell+1 vertices sending edges to edges."""

    ell: int
    mapping: np.ndarray  # vertex -> cycle position in 0..2*ell

    @property
    def cycle_length(self) -> int:
        return 2 * self.ell + 1

    def is_valid(self, g: SparseGraph) -> bool:
        L = self.cycle_length
        diff = (self.mapping[g.eu] - self.mapping[g.ev]) % L
        return bool(((diff == 1) | (diff == L - 1)).all())

    def to_lines(self) -> str:
        return "\n".join(
            f"{v} {int(p)}" for v, p in enumerate(self.mapping)
        ) + "\n"


def _solve_component(g: SparseGraph, ell: int) -> Optional[np.ndarray]:
    """Backtracking over cycle positions with forward domain pruning.

    Variables are taken in decreasing-degree order, values in ascending
    position order; a vertex's domain shrinks to the neighbors of each
    assigned neighbor's position.  Exhaustion proves non-existence.
    """
    L = 2 * ell + 1
    full = (1 << L) - 1
    adj_mask = [
        (1 << ((q - 1) % L)) | (1 << ((q + 1) % L)) for q in range(L)
    ]
    deg = g.degrees()
    order = sorted(range(g.n), key=lambda v: (-deg[v], v))
    rank = {v: i for i, v in enumerate(order)}
    nbrs = [g.neighbors(v)[0].tolist() for v in range(g.n)]

    domains = [full] * g.n
    assignment = [-1] * g.n

    def assign(i: int) -> bool:
        if i == g.n:
            return True
        v = order[i]
        dom = domains[v]
        for q in range(L):
            if not dom & (1 << q):
                continue
            assignment[v] = q
            trail = []
            ok = True
            for u in nbrs[v]:
                if assignment[u] != -1:
                    continue
                newdom = domains[u] & adj_mask[q]
                if newdom != domains[u]:
                    trail.append((u, domains[u]))
                    domains[u] = newdom
                    if newdom == 0:
                        ok = False
                        break
            if ok and assign(i + 1):
                return True
            for u, old in trail:
                domains[u] = old
            assignment[v] = -1
        return False

    if assign(0):
        return np.array(assignment, dtype=np.int64)
    return None


def hom_to_odd_cycle(
    g: SparseGraph,
    ell: int,
    node_limit: int = NODE_LIMIT,
    edge_limit: int = EDGE_LIMIT,
) -> Optional[HomWitness]:
    """Exact decision of a homomorphism into the cycle on 2*ell+1 vertices.

    Components are solved independently; bipartite components map onto a
    single cycle edge, and a component whose odd girth falls short of the
    target cycle length cannot map at all (odd closed walks in the cycle
    have length at least the cycle length), which settles most negative
    instances without search.  None is a proof that no homomorphism exists.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if g.n > node_limit or g.m > edge_limit:
        raise GuardLimitError(
            f"hom solver guarded at v <= {node_limit}, e <= {edge_limit}"
        )
    mapping = np.zeros(g.n, dtype=np.int64)
    labels, sizes = component_labels(g)
    for comp in range(len(sizes)):
        sub, verts, _ = induced_subgraph(g, labels == comp)
        two = is_bipartite(sub)
        if two is not None:
            mapping[verts] = two  # positions 0 and 1 are cycle-adjacent
            continue
        if odd_girth(sub) < 2 * ell + 1:
            return None
        sol = _solve_component(sub, ell)
        if sol is None:
            return None
        mapping[verts] = sol
    witness = HomWitness(ell, mapping)
    if not witness.is_valid(g):
        raise AssertionError("hom solver returned an invalid witness")
    return witness


def no_hom_certificate(g: SparseGraph, ell: int, dist_lower_bound: int) -> bool:
    """Certify non-homomorphism to the (2*ell+1)-cycle from a cut bound.

    A homomorphic graph can be made bipartite by erasing the lightest
    cycle-edge fiber, at most e(g)/(2*ell+1) edges, so any valid distance
    lower bound exceeding that rules the homomorphism out.  False means
    "not certified", never "homomorphism exists".
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if dist_lower_bound < 0:
        raise ValueError("distance lower bound must be nonnegative")
    return dist_lower_bound * (2 * ell + 1) > g.m


def ell_epsilon(delta: float) -> int:
    """Least ell guaranteeing 1/(2*ell+1) < delta: ceil(1/(2*delta))."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0,1)")
    out = math.ceil(1.0 / (2.0 * delta))
    if not 1.0 / (2 * out + 1) < delta:
        raise AssertionError(f"ell_epsilon({delta}) = {out} misses the bound")
    return out
