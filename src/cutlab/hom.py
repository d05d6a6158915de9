"""Homomorphisms into odd cycles, decided exactly on small graphs, plus the
cut-based certificate that rules them out at scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import GuardLimitError
from .graph import SparseGraph, _bfs_two_color, odd_girth

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


def _solve_component(g: SparseGraph, verts: np.ndarray,
                     ell: int) -> Optional[np.ndarray]:
    """Cycle positions for the component ``verts`` of g, or None.

    Backtracking with forward domain pruning and an explicit stack of
    (next position, undo trail), one entry per assigned vertex: variables
    in decreasing-degree order, values in ascending position order, and a
    vertex's domain shrinks to the neighbors of each assigned neighbor's
    position.  Exhaustion proves non-existence.
    """
    L = 2 * ell + 1
    adj_mask = [
        (1 << ((q - 1) % L)) | (1 << ((q + 1) % L)) for q in range(L)
    ]
    nbrs = g._neighbor_view()
    order = sorted(verts.tolist(), key=lambda v: (-len(nbrs[v]), v))

    domains = [(1 << L) - 1] * g.n
    assignment = [-1] * g.n
    stack = [(0, [])]
    while stack:
        q, trail = stack.pop()
        v = order[len(stack)]
        for u, old in trail:  # undo the pruning of v's previous position
            domains[u] = old
        assignment[v] = -1
        while q < L and not domains[v] >> q & 1:
            q += 1
        if q == L:
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
        stack.append((q + 1, trail))
        if ok:
            if len(stack) == len(order):
                return np.array(assignment, dtype=np.int64)[verts]
            stack.append((0, []))
    return None


def hom_to_odd_cycle(
    g: SparseGraph,
    ell: int,
    node_limit: int = NODE_LIMIT,
    edge_limit: int = EDGE_LIMIT,
) -> Optional[HomWitness]:
    """Exact decision of a homomorphism into the cycle on 2*ell+1 vertices.

    One BFS colouring of g maps each bipartite component onto one cycle
    edge, and names each vertex's component by the root that reached it.
    If an edge clashes, one ``odd_girth`` of g (the least over its
    components) settles most negative instances without search, since odd
    closed walks in the cycle are at least as long as the cycle; past it,
    the solver runs on each clashing component's vertices in g itself.
    The colouring, its labelling, the odd girth and the neighbour view
    are cached on g, so a scan over ell (and an ``exact_maxcut`` of g
    before it) computes each once.  Every graph within the guard has at
    most ``graph._SMALL`` vertices, so all of them are read off one
    Python neighbour view: one BFS gives the colouring and labelling
    together, the odd girth is one early-exit BFS per source in the
    clashing components, and the solver walks the same lists.
    None is a proof that no homomorphism exists.
    """
    if ell < 1:
        raise ValueError("ell must be at least 1")
    if g.n > node_limit or g.m > edge_limit:
        raise GuardLimitError(
            f"hom solver guarded at v <= {node_limit}, e <= {edge_limit}"
        )
    color, comp_of = _bfs_two_color(g)
    mapping = color.astype(np.int64)  # 0, 1 are cycle-adjacent
    clash = mapping[g.eu] == mapping[g.ev]
    if clash.any():
        if odd_girth(g) < 2 * ell + 1:
            return None
        for comp in np.unique(comp_of[g.eu[clash]]).tolist():
            verts = np.flatnonzero(comp_of == comp)
            sol = _solve_component(g, verts, ell)
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
