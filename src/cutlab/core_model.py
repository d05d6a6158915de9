"""Synthetic model of the giant component's 2-core at p = (1+eps)/n.

The construction: draw a Gaussian rate, give every ambient vertex an
i.i.d. Poisson degree conditioned on the truncated degree sum being even,
pair the stubs of the degree->=3 vertices uniformly into a multigraph (the
kernel), then replace each kernel edge by a path of geometric length.
The result is a simple graph together with the per-edge path metadata
needed by the cut machinery.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .graph import (KernelChains, SparseGraph, _pairs, dump_edge_list,
                    kernel_paths, parse_edge_list)
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
        arr = _pairs(edges, "edges")
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        self.n = int(n)
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
    """A simple graph plus, per kernel edge, its replacing path.

    ``path_edge_ids[e]`` lists the graph edge ids of the path replacing
    kernel edge e, ordered from the lower endpoint, so each path's
    deterministic representative edge is its last entry.
    """

    graph: SparseGraph
    kernel: KernelMultigraph
    kernel_to_core: np.ndarray  # kernel vertex -> graph vertex
    path_lengths: np.ndarray
    path_edge_ids: list
    params: Optional[CoreModelParams] = None
    profile: Optional[DegreeProfile] = None

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


def expand_paths(kernel: KernelMultigraph, mu: float, rng) -> ExpandedCore:
    """Replace each kernel edge by a path of i.i.d. geometric length.

    Lengths use the inverse CDF ceil(log(U)/log(mu)).  The output must be
    a simple graph, so a loop resamples its length until >= 3 and a
    parallel edge whose twin already realized length 1 resamples until
    >= 2; both conditionings are local to the offending edge.
    """
    if not 0.0 < mu < 1.0:
        raise ValueError("mu must lie in (0,1)")
    gen = as_generator(rng)
    n_vertices = kernel.n
    pairs = []
    lengths = np.zeros(kernel.m, dtype=np.int64)
    path_edge_ids = []
    seen = set()
    next_edge = 0
    for e in range(kernel.m):
        u = int(kernel.eu[e])
        v = int(kernel.ev[e])
        ell = _geometric(mu, gen)
        if u == v:
            while ell < 3:
                ell = _geometric(mu, gen)
        elif ell == 1 and (u, v) in seen:
            while ell < 2:
                ell = _geometric(mu, gen)
        lengths[e] = ell
        if ell == 1:
            pairs.append((u, v))
            path_edge_ids.append(np.array([next_edge], dtype=np.int64))
            seen.add((u, v))
            next_edge += 1
            continue
        lo, hi = min(u, v), max(u, v)
        chain = [lo] + list(range(n_vertices, n_vertices + ell - 1)) + [hi]
        n_vertices += ell - 1
        ids = np.arange(next_edge, next_edge + ell, dtype=np.int64)
        for a, b in zip(chain[:-1], chain[1:]):
            pairs.append((a, b))
        path_edge_ids.append(ids)
        next_edge += ell
    graph = SparseGraph(n_vertices, pairs)
    return ExpandedCore(
        graph=graph,
        kernel=kernel,
        kernel_to_core=np.arange(kernel.n, dtype=np.int64),
        path_lengths=lengths,
        path_edge_ids=path_edge_ids,
    )


def sample_core_model(n: int, eps: float, rng) -> ExpandedCore:
    """Full pipeline at lam = 1 + eps, with intermediates attached."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0,1)")
    gen = as_generator(rng)
    params = CoreModelParams.from_eps(eps, n)
    profile = sample_degree_profile(n, params.lam, params.mu, gen)
    kernel = sample_kernel(profile, gen)
    core = expand_paths(kernel, params.mu, gen)
    return ExpandedCore(
        graph=core.graph,
        kernel=core.kernel,
        kernel_to_core=core.kernel_to_core,
        path_lengths=core.path_lengths,
        path_edge_ids=core.path_edge_ids,
        params=params,
        profile=profile,
    )


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
        path_edge_ids=np.split(chains.edge_ids, np.cumsum(chains.lengths))[:-1],
    )


# --- serialization: edge list plus one sidecar line per kernel edge ---

def dump_expanded_core(core: ExpandedCore) -> str:
    k = core.kernel
    ends = core.kernel_to_core[np.column_stack([k.eu, k.ev])].tolist()
    rows = [f"{cu} {cv} {ell} " + " ".join(map(str, ids.tolist()))
            for (cu, cv), ell, ids in zip(ends, core.path_lengths.tolist(),
                                          core.path_edge_ids)]
    head = dump_edge_list(core.graph) + f"kernel {k.n} {k.m}"
    return "\n".join([head] + rows) + "\n"


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
    after = np.where((eu == np.roll(eu, -1)) | (eu == np.roll(ev, -1)), eu, ev)
    last = np.cumsum(lengths) - 1
    after[last] = cv
    before = np.roll(after, 1)
    before[last + 1 - lengths] = cu
    lo, hi = np.minimum(before, after), np.maximum(before, after)
    if (lo != eu).any() or (hi != ev).any():
        raise ValueError("kernel edge line is not a walk from core_u to core_v")
    if (graph.degrees()[np.delete(after, last)] != 2).any():
        raise ValueError("path runs through a vertex whose degree is not 2")
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
