import math

import numpy as np
import pytest
from scipy.stats import chi2

from cutlab.rng import RngSpec, as_generator
from cutlab.sampling import _unrank_pairs, sample_gnp, sample_tournament

# frozen output of the Philox-keyed stream; guards cross-platform drift
GOLDEN_GNP_123 = [
    (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 3), (1, 4), (1, 6),
    (1, 7), (2, 3), (3, 5), (3, 7), (4, 5), (5, 6), (5, 7), (5, 8), (7, 8),
]
GOLDEN_TOUR_123_7 = [
    (1, 2), (1, 9), (2, 9), (3, 4), (3, 5), (3, 7), (3, 8), (3, 10), (4, 5),
    (4, 6), (4, 8), (4, 9), (5, 6), (5, 9), (6, 8), (6, 9), (7, 8), (7, 10),
    (9, 10),
]


def test_determinism_golden():
    g = sample_gnp(10, 0.5, RngSpec(123))
    assert list(g.edge_pairs()) == GOLDEN_GNP_123
    t = sample_tournament(10, 0.5, RngSpec(123, 7))
    assert list(zip(t.bu.tolist(), t.bv.tolist())) == GOLDEN_TOUR_123_7


def test_repeatability_and_stream_independence():
    a = sample_gnp(500, 0.01, RngSpec(9, 3))
    b = sample_gnp(500, 0.01, RngSpec(9, 3))
    c = sample_gnp(500, 0.01, RngSpec(9, 4))
    assert a.edge_set() == b.edge_set()
    assert a.edge_set() != c.edge_set()


def test_gnp_degenerate_probabilities():
    assert sample_gnp(50, 0.0, RngSpec(1)).m == 0
    g = sample_gnp(40, 1.0, RngSpec(1))
    assert g.m == 40 * 39 // 2
    with pytest.raises(ValueError):
        sample_gnp(10, 1.5, RngSpec(1))
    with pytest.raises(ValueError):
        sample_gnp(10, -0.1, RngSpec(1))
    with pytest.raises(ValueError):
        sample_gnp(0, 0.5, RngSpec(1))


def test_samplers_refuse_n_beyond_exact_unranking():
    # binom(2^27 + 1, 2) > 2^53, where float unranking starts to err
    with pytest.raises(ValueError):
        sample_gnp(2 ** 27 + 1, 0.0, RngSpec(1))
    with pytest.raises(ValueError):
        sample_tournament(2 ** 27 + 1, 0.0, RngSpec(1))


def test_samplers_survive_tiny_p():
    # log(U)/log(1-p) exceeds int64 for p below about 1e-19
    assert sample_gnp(1000, 1e-300, RngSpec(1)).m == 0
    assert sample_tournament(2, 2.2e-309, RngSpec(0)).backedge_count == 0


def test_unrank_pairs_exact_at_largest_n():
    n = 2 ** 27
    rows = [0, 1, 2, n - 4, n - 3, n - 2]
    first = [i * (2 * n - i - 1) // 2 for i in rows]  # index of (i, i + 1)
    idx = np.array(first + [f + n - i - 2 for f, i in zip(first, rows)])
    i, j = _unrank_pairs(idx, n)
    assert i.tolist() == rows + rows
    assert j.tolist() == [r + 1 for r in rows] + [n - 1] * len(rows)


def test_tournament_degenerate_probabilities():
    assert sample_tournament(30, 0.0, RngSpec(2)).backedge_count == 0
    t = sample_tournament(30, 1.0, RngSpec(2))
    assert t.backedge_count == 30 * 29 // 2


def test_gnp_mean_edge_count_within_3_sigma():
    # exact binomial oracle: m ~ Bin(binom(n,2), p)
    n, trials = 10 ** 5, 200
    p = 1.3 / n
    pairs = n * (n - 1) / 2
    counts = [sample_gnp(n, p, RngSpec(77, s)).m for s in range(trials)]
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(np.mean(counts) - mean) <= 3 * sigma


def test_tournament_mean_backedges_within_3_sigma():
    n, trials = 10 ** 4, 200
    p = 1.2 / n
    pairs = n * (n - 1) / 2
    counts = [
        sample_tournament(n, p, RngSpec(78, s)).backedge_count
        for s in range(trials)
    ]
    mean = pairs * p
    sigma = math.sqrt(pairs * p * (1 - p) / trials)
    assert abs(np.mean(counts) - mean) <= 3 * sigma


def test_degree_distribution_chi_square():
    # pooled degrees over many graphs against Binomial(n-1, c/n)
    n, c, trials = 200, 1.2, 1000
    p = c / n
    counts = np.zeros(n, dtype=np.int64)
    for s in range(trials):
        g = sample_gnp(n, p, RngSpec(400, s))
        counts += np.bincount(g.degrees(), minlength=n)
    total = counts.sum()
    pmf = []
    prob = (1 - p) ** (n - 1)
    for k in range(n):
        pmf.append(prob)
        prob *= (n - 1 - k) / (k + 1) * p / (1 - p)
    expected = np.array(pmf) * total
    # merge the tail so every bin expects at least 5 observations
    cut = int(np.argmax(np.cumsum(expected[::-1]) >= 5))
    cut = len(expected) - cut
    obs = np.append(counts[: cut - 1], counts[cut - 1:].sum())
    exp = np.append(expected[: cut - 1], expected[cut - 1:].sum())
    stat = float(((obs - exp) ** 2 / exp).sum())
    pvalue = float(chi2.sf(stat, df=len(obs) - 1))
    assert pvalue > 1e-3


def test_as_generator_rejects_other_types():
    with pytest.raises(TypeError):
        as_generator(42)


def test_rng_spec_bounds():
    with pytest.raises(ValueError):
        RngSpec(-1)
    with pytest.raises(ValueError):
        RngSpec(0, -2)
    assert RngSpec(5).substream(9) == RngSpec(5, 9)
