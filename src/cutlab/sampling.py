"""Seeded samplers for G(n,p) and the biased random tournament T(n,p).

Both samplers walk the lexicographic enumeration of vertex pairs with
geometric gap skipping, so the expected cost is O(n + m) rather than
O(n^2).  Identical (n, p, RngSpec) inputs reproduce identical output.
"""

from __future__ import annotations

import math

import numpy as np

from .graph import SparseGraph
from .rng import as_generator
from .tournament import Tournament

# the largest n either sampler takes: binom(n, 2) <= 2^53 keeps
# _unrank_pairs exact
MAX_N = 2 ** 27


def _skip_sample_indices(total: int, p: float, gen) -> np.ndarray:
    """Indices of a Bernoulli(p) subset of range(total), by gap skipping.

    Gaps are 1 + floor(log(U)/log(1-p)) for U uniform in (0,1]; p=1 is
    special-cased since log(0) degenerates.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    if total == 0 or p == 0.0:
        return np.empty(0, dtype=np.int64)
    if p == 1.0:
        return np.arange(total, dtype=np.int64)
    log1mp = math.log1p(-p)
    chunks = []
    pos = -1  # last selected index
    remaining_expect = total * p
    while pos < total:
        batch = max(1024, int(1.2 * remaining_expect) + 16)
        u = 1.0 - gen.random(batch)  # in (0, 1]
        # capped, as a gap past the end ends the sample and tiny p overflows
        # (below about 1e-308 the division itself overflows to inf: harmless)
        with np.errstate(over="ignore"):
            gaps = np.minimum(np.floor(np.log(u) / log1mp), total)
        gaps = 1 + gaps.astype(np.int64)
        idx = pos + np.cumsum(gaps)
        if idx[-1] >= total:
            chunks.append(idx[idx < total])
            pos = total
        else:
            chunks.append(idx)
            pos = int(idx[-1])
            remaining_expect = (total - pos) * p
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _unrank_pairs(idx: np.ndarray, n: int):
    """Map lexicographic pair indices to (i, j), 0 <= i < j < n.

    index(i, j) = i*(2n-i-1)/2 + (j-i-1).  The closed-form inverse is
    computed in float and then corrected, which keeps it exact while
    n(n-1)/2 <= 2^53, that is n <= MAX_N; the samplers refuse larger n.
    """
    t = idx.astype(np.float64)
    i = np.floor(((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8.0 * t)) / 2.0)
    i = i.astype(np.int64)
    i = np.maximum(i, 0)

    def base(k):
        return k * (2 * n - k - 1) // 2

    # fix rare off-by-one from floating point
    for _ in range(2):
        too_high = base(i) > idx
        i[too_high] -= 1
        too_low = base(i + 1) <= idx
        i[too_low] += 1
    j = idx - base(i) + i + 1
    return i, j


def _sample_pairs(n: int, p: float, rng):
    """(i, j): a Bernoulli(p) subset of the pairs 0 <= i < j < n, in order."""
    if not 1 <= n <= MAX_N:
        raise ValueError("n must lie in 1..2^27")
    idx = _skip_sample_indices(n * (n - 1) // 2, p, as_generator(rng))
    return _unrank_pairs(idx, n)


def sample_gnp(n: int, p: float, rng) -> SparseGraph:
    """G(n,p): each of the binom(n,2) pairs appears independently w.p. p."""
    return SparseGraph(n, np.column_stack(_sample_pairs(n, p, rng)))


def sample_tournament(n: int, p: float, rng) -> Tournament:
    """T(n,p): arc j->i (a backedge) with probability p for each i < j.

    Only the backedge set is materialized; forward arcs are implicit.
    Vertices are 1..n in the natural order, with n in 1..MAX_N.
    """
    i, j = _sample_pairs(n, p, rng)
    return Tournament(n, np.column_stack([i + 1, j + 1]))
