"""Synthetic model of the giant component's 2-core at p = (1+eps)/n.

The construction: draw a Gaussian rate, give every ambient vertex an
i.i.d. Poisson degree conditioned on the truncated degree sum being even,
pair the stubs of the degree->=3 vertices uniformly into a multigraph (the
kernel), then replace each kernel edge by a path of geometric length.
The result is a simple graph together with the chain table the cut
machinery reads: one length per kernel edge and every chain's graph edge
ids, chain after chain, the layout ``graph.KernelChains`` gives real cores.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .graph import (KernelChains, SparseGraph, _count, _pairs, _shared_ends,
                    dump_edge_list, kernel_paths, parse_edge_list)
from .rng import as_generator

MU_TOL = 1e-12
_MAX_PARITY_ATTEMPTS = 10 ** 6


def solve_mu(lam: float) -> float:
    """The root mu < 1 of mu*exp(-mu) = lam*exp(-lam), by bisection.

    x*exp(-x) increases on (0,1), so the root is unique; the bracket is
    [1e-15, 1-1e-15] and the absolute tolerance is 1e-12.
    """
    if not lam > 1.0:
        raise ValueError("lam must exceed 1 (the equation degenerates at 1)")
    target = lam * math.exp(-lam)
    lo, hi = 1e-15, 1.0 - 1e-15
    while hi - lo > MU_TOL:
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class CoreModelParams:
    """(lam, mu, n) with lam = 1 + eps and mu the dual root in (0,1)."""

    lam: float
    mu: float
    n: int

    def __post_init__(self):
        if not self.lam > 1.0:
            raise ValueError("lam must exceed 1")
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0,1)")
        gap = abs(self.mu * math.exp(-self.mu) - self.lam * math.exp(-self.lam))
        if gap > 1e-12:
            raise ValueError("mu does not solve mu*e^-mu = lam*e^-lam")

    @property
    def eps(self) -> float:
        return self.lam - 1.0

    @classmethod
    def from_eps(cls, eps: float, n: int) -> "CoreModelParams":
        lam = 1.0 + eps
        return cls(lam, solve_mu(lam), n)


@dataclass(frozen=True)
class DegreeProfile:
    """One accepted draw of the conditioned degree sequence."""

    lam_value: float  # realized Gaussian rate
    degrees: np.ndarray
    attempts: int

    def counts(self) -> np.ndarray:
        """N_k = number of vertices of degree k."""
        return np.bincount(self.degrees)

    @property
    def kernel_size(self) -> int:
        return int((self.degrees >= 3).sum())

    @property
    def truncated_sum(self) -> int:
        d = self.degrees
        return int(d[d >= 3].sum())


class KernelMultigraph:
    """Multigraph with loops and parallel edges; loops count twice in degrees."""

    __slots__ = ("n", "eu", "ev")

    def __init__(self, n: int, edges=()):
        n = _count(n, "vertex count")
        arr = _pairs(edges, "edges")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        self.n = n
        self.eu = np.minimum(arr[:, 0], arr[:, 1])
        self.ev = np.maximum(arr[:, 0], arr[:, 1])

    @property
    def m(self) -> int:
        return len(self.eu)

    def degrees(self) -> np.ndarray:
        both = np.concatenate([self.eu, self.ev])
        return np.bincount(both, minlength=self.n)

    def __repr__(self):
        return f"KernelMultigraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class ExpandedCore:
    """A simple graph plus the chain table of the kernel it contracts to.

    Kernel edge e is replaced by a chain of ``path_lengths[e]`` graph
    edges.  ``edge_ids`` lists every chain's graph edge ids, chain after
    chain, each in walk order, as in ``KernelChains``; ``chains`` is that
    table in graph vertex ids, and its last edges represent the chains.
    """

    graph: SparseGraph
    kernel: KernelMultigraph
    kernel_to_core: np.ndarray  # kernel vertex -> graph vertex
    path_lengths: np.ndarray
    edge_ids: np.ndarray
    params: Optional[CoreModelParams] = None
    profile: Optional[DegreeProfile] = None

    @property
    def chains(self) -> KernelChains:
        """The chain table with its ends in graph vertex ids."""
        ends = self.kernel_to_core[np.stack([self.kernel.eu, self.kernel.ev])]
        return KernelChains(*ends, self.path_lengths, self.edge_ids)

    @property
    def path_edge_ids(self) -> list:
        """Each chain's edge ids as its own array, derived from ``edge_ids``."""
        return np.split(self.edge_ids, np.cumsum(self.path_lengths))[:-1]

    @property
    def parities(self) -> np.ndarray:
        """1 for odd path lengths, 0 for even."""
        return (self.path_lengths % 2).astype(np.int64)


def _gaussian(mean: float, sd: float, gen) -> float:
    # standard normal from two uniforms
    u1 = 1.0 - gen.random()
    u2 = gen.random()
    z = math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
    return mean + sd * z


def _poisson_cdf_table(rate: float) -> np.ndarray:
    if rate <= 0.0:
        return np.array([1.0])
    terms = [math.exp(-rate)]
    k = 0
    total = terms[0]
    while total < 1.0 - 1e-16 and k < 400:
        k += 1
        terms.append(terms[-1] * rate / k)
        total += terms[-1]
    return np.minimum(np.cumsum(terms), 1.0)


def sample_degree_profile(n: int, lam: float, mu: float, rng) -> DegreeProfile:
    """Gaussian rate, i.i.d. Poisson degrees, resampled as a whole vector
    until the degree sum over the >=3 part is even.

    Poisson sampling is by CDF inversion (the rate here is always far
    below 10).  A nonpositive Gaussian draw, possible only for tiny n,
    degenerates to the all-zero vector.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    gen = as_generator(rng)
    lam_value = _gaussian(lam - mu, 1.0 / math.sqrt(n), gen)
    cdf = _poisson_cdf_table(max(lam_value, 0.0))
    for attempt in range(1, _MAX_PARITY_ATTEMPTS + 1):
        u = gen.random(n)
        degrees = np.searchsorted(cdf, u, side="right").astype(np.int64)
        big = degrees >= 3
        if int(degrees[big].sum()) % 2 == 0:
            return DegreeProfile(lam_value, degrees, attempt)
    raise RuntimeError("even-parity conditioning failed to accept")


def sample_kernel(profile: DegreeProfile, rng) -> KernelMultigraph:
    """Uniform stub pairing over the degree->=3 part of the profile.

    Each degree-k vertex contributes k half-edge stubs; a uniformly random
    perfect matching of the stubs defines the edges.  Loops and parallel
    edges are kept.
    """
    if profile.truncated_sum % 2 != 0:
        raise ValueError("stub total is odd; profile parity conditioning failed")
    gen = as_generator(rng)
    degs = profile.degrees[profile.degrees >= 3]
    N = len(degs)
    if N == 0:
        return KernelMultigraph(0)
    stubs = np.repeat(np.arange(N), degs)
    shuffled = stubs[gen.permutation(stubs.size)]
    return KernelMultigraph(N, np.column_stack([shuffled[0::2], shuffled[1::2]]))


def _geometric(mu: float, gen) -> int:
    # P(len = k) = mu^(k-1) (1-mu); inverse CDF on one uniform
    u = 1.0 - gen.random()
    return max(1, math.ceil(math.log(u) / math.log(mu)))


def _geometric_lengths(mu: float, gen, k: int) -> np.ndarray:
    """k i.i.d. lengths with P(len = j) = mu^(j-1) (1-mu), from k uniforms.

    Inverse CDF: max(1, ceil(log(1 - U) / log(mu))), U = ``gen.random()``.
    ``np.log`` may differ from ``math.log`` in the last ulp or so, which
    can move ceil only where the quotient lies next to an integer; every
    quotient within a relative 1e-9 of one is recomputed with ``math.log``,
    so a length is the same as one drawn by a scalar loop.
    """
    u = 1.0 - gen.random(k)
    log_mu = math.log(mu)
    q = np.log(u) / log_mu
    near = np.abs(q - np.rint(q)) <= 1e-9 * np.maximum(q, 1.0)
    q[near] = [math.log(x) / log_mu for x in u[near].tolist()]
    return np.maximum(np.ceil(q), 1).astype(np.int64)


def expand_paths(kernel: KernelMultigraph, mu: float, rng) -> ExpandedCore:
    """Replace each kernel edge by a path of i.i.d. geometric length.

    Lengths use the inverse CDF ceil(log(U)/log(mu)).  The output must be
    a simple graph, so a loop resamples its length until >= 3 and a
    parallel edge whose twin already realized length 1 resamples until
    >= 2; both conditionings are local to the offending edge.  Chain e
    takes the next edge ids and its ``ell - 1`` new inner vertices.

    The draws, and where the generator ends, are those of a loop over the
    kernel edges in order, each resample right after the draw it replaces.
    One uniform per kernel edge is drawn in bulk; only loops and parallel
    edges can resample, so a Python loop walks just those, and each extra
    draw shifts every later edge onto the next uniform (drawn past the
    bulk ones when the walk needs it).
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0,1)")
    gen = as_generator(rng)
    k = kernel.m
    bulk = _geometric_lengths(mu, gen, k)
    order = np.lexsort((kernel.ev, kernel.eu))
    eu, ev = kernel.eu[order], kernel.ev[order]
    twin = (eu[1:] == eu[:-1]) & (ev[1:] == ev[:-1])
    walked = kernel.eu == kernel.ev  # loops and parallel edges
    walked[order[1:][twin]] = walked[order[:-1][twin]] = True
    later = []  # lengths from the uniforms drawn after the bulk ones

    def length_at(i: int) -> int:  # the length from uniform i
        while i >= bulk.size + len(later):
            later.append(_geometric(mu, gen))
        return int(bulk[i]) if i < bulk.size else later[i - bulk.size]

    idx = np.flatnonzero(walked)
    ells, extras = [], []  # per walked edge: its length, extra draws so far
    seen = set()
    extra = 0
    for e, u, v in zip(idx.tolist(), kernel.eu[idx].tolist(),
                       kernel.ev[idx].tolist()):
        ell = length_at(e + extra)
        need = 3 if u == v else 2 if ell == 1 and (u, v) in seen else 1
        while ell < need:
            extra += 1
            ell = length_at(e + extra)
        if ell == 1:
            seen.add((u, v))
        ells.append(ell)
        extras.append(extra)
    if k:
        length_at(k - 1 + extra)  # the last uniform the loop would draw
    lengths = np.zeros(k, dtype=np.int64)
    shift = np.zeros(k, dtype=np.int64)
    lengths[idx], shift[idx] = ells, extras
    # every other edge takes the uniform after the extras drawn before it
    calm = np.flatnonzero(~walked)
    at = calm + np.maximum.accumulate(shift)[calm]
    lengths[calm] = np.concatenate([bulk, later])[at]
    # edge j of chain e joins inner vertices n + j - e - 1 and n + j - e,
    # except that the chain starts at eu[e] and ends at ev[e]
    ends = np.cumsum(lengths)
    chain_of = np.repeat(np.arange(k), lengths)
    m = chain_of.size
    head = kernel.n + np.arange(m) - chain_of
    tail = head - 1
    tail[ends - lengths] = kernel.eu
    head[ends - 1] = kernel.ev
    return ExpandedCore(
        graph=SparseGraph(kernel.n + m - kernel.m, np.column_stack([tail, head])),
        kernel=kernel,
        kernel_to_core=np.arange(kernel.n, dtype=np.int64),
        path_lengths=lengths,
        edge_ids=np.arange(m, dtype=np.int64),
    )


def sample_core_model(n: int, eps: float, rng) -> ExpandedCore:
    """Full pipeline at lam = 1 + eps, with intermediates attached."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    gen = as_generator(rng)
    params = CoreModelParams.from_eps(eps, n)
    profile = sample_degree_profile(n, params.lam, params.mu, gen)
    core = expand_paths(sample_kernel(profile, gen), params.mu, gen)
    return replace(core, params=params, profile=profile)


def kernelize(core: SparseGraph) -> ExpandedCore:
    """Attach kernel structure to an actual 2-core.

    Suppresses degree-2 chains via kernel_paths and rebuilds the multigraph
    they contract to, so model-side cut machinery applies to real cores.
    Kernel vertices are the chain endpoints in increasing order.
    """
    return _contract(core, kernel_paths(core))


def _contract(graph: SparseGraph, chains: KernelChains) -> ExpandedCore:
    """graph with the kernel its chains contract to, as in kernelize."""
    kernel_to_core, ends = np.unique(np.concatenate([chains.a, chains.b]),
                                     return_inverse=True)
    return ExpandedCore(
        graph=graph,
        kernel=KernelMultigraph(kernel_to_core.size, ends.reshape(2, -1).T),
        kernel_to_core=kernel_to_core,
        path_lengths=chains.lengths,
        edge_ids=chains.edge_ids,
    )


# --- serialization: edge list plus one sidecar line per kernel edge ---

def dump_expanded_core(core: ExpandedCore) -> str:
    c = core.chains
    # one row per chain, "core_u core_v length id...", as one flat array
    flat = np.insert(c.edge_ids, np.repeat(np.cumsum(c.lengths) - c.lengths, 3),
                     np.column_stack([c.a, c.b, c.lengths]).ravel())
    sep = np.full(flat.size, " ")
    sep[np.cumsum(c.lengths + 3) - 1] = "\n"
    head = dump_edge_list(core.graph) + f"kernel {core.kernel.n} {core.kernel.m}\n"
    return head + "".join(np.char.add(flat.astype(str), sep).tolist())


def parse_expanded_core(text: str) -> ExpandedCore:
    split = text.find("\nkernel ")
    if split < 0:
        raise ValueError("missing kernel sidecar section")
    graph = parse_edge_list(text[:split])
    head, _, body = text[split + 1:].partition("\n")
    fields = head.split()
    if len(fields) != 3:
        raise ValueError(f"bad kernel header: {head!r}")
    # N, E and every "core_u core_v length id..." row, one value per line
    flat = np.loadtxt(io.StringIO("\n".join(fields[1:] + body.split())),
                      dtype=np.int64, comments=None)
    (nk, mk), flat = flat[:2].tolist(), flat[2:]
    widths = np.fromiter(map(len, map(str.split, body.splitlines())), np.int64)
    widths = widths[widths > 0]
    if widths.size != mk:
        raise ValueError(f"expected {mk} kernel edge lines, got {widths.size}")
    if (widths < 4).any():
        raise ValueError("bad kernel edge line: a path needs at least one edge")
    first = np.cumsum(widths) - widths
    cu, cv, lengths = flat[first], flat[first + 1], flat[first + 2]
    if (lengths != widths - 3).any():
        raise ValueError("path length disagrees with edge id list")
    ids = np.delete(flat, np.concatenate([first, first + 1, first + 2]))
    if ((cu < 0) | (cu >= graph.n) | (cv < 0) | (cv >= graph.n)).any():
        raise ValueError("kernel edge endpoint is not a graph vertex")
    if ids.size != graph.m or (np.sort(ids) != np.arange(graph.m)).any():
        raise ValueError("path edge ids are out of range or do not cover "
                         "every edge exactly once")
    # each row walks core_u -> core_v: the vertex after an edge is its end
    # shared with the next edge, and every such inner vertex has degree 2
    eu, ev = graph.eu[ids], graph.ev[ids]
    after = _shared_ends(eu, ev)
    last = np.cumsum(lengths) - 1
    after[last] = cv
    before = np.roll(after, 1)
    before[last + 1 - lengths] = cu
    lo, hi = np.minimum(before, after), np.maximum(before, after)
    if (lo != eu).any() or (hi != ev).any():
        raise ValueError("kernel edge line is not a walk from core_u to core_v")
    if (graph.degrees()[np.delete(after, last)] != 2).any():
        raise ValueError("path runs through a vertex whose degree is not 2")
    flip = cu > cv
    if flip.any():
        # a row given from its higher end is stored walking from its lower end
        at = np.arange(ids.size)
        mirror = np.repeat(2 * last + 1 - lengths, lengths) - at
        ids = ids[np.where(np.repeat(flip, lengths), mirror, at)]
        cu, cv = np.minimum(cu, cv), np.maximum(cu, cv)
    core = _contract(graph, KernelChains(cu, cv, lengths, ids))
    if core.kernel.n != nk:
        raise ValueError("kernel vertex count disagrees with sidecar")
    return core


def write_expanded_core(core: ExpandedCore, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_expanded_core(core))


def read_expanded_core(path) -> ExpandedCore:
    with open(path) as fh:
        return parse_expanded_core(fh.read())
