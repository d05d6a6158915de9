"""Round trips and pinned bytes of the three text formats: edge lists,
tournaments and core sidecars."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cutlab.core_model import (
    dump_expanded_core,
    kernelize,
    parse_expanded_core,
    sample_core_model,
)
from cutlab.graph import dump_edge_list, parse_edge_list, two_core
from cutlab.rng import RngSpec
from cutlab.sampling import sample_gnp, sample_tournament
from cutlab.tournament import dump_tournament, parse_tournament
from oracles import chain_graphs, graphs_with_small_cycles

SEEDS = st.integers(0, 2 ** 32 - 1)


def same_graph(a, b):
    assert (a.n, a.eu.tolist(), a.ev.tolist()) == (b.n, b.eu.tolist(), b.ev.tolist())


def same_core(a, b):
    same_graph(a.graph, b.graph)
    assert a.kernel.n == b.kernel.n
    for name in ("eu", "ev"):
        assert np.array_equal(getattr(a.kernel, name), getattr(b.kernel, name))
    assert np.array_equal(a.kernel_to_core, b.kernel_to_core)
    assert np.array_equal(a.path_lengths, b.path_lengths)
    assert len(a.path_edge_ids) == len(b.path_edge_ids)
    for x, y in zip(a.path_edge_ids, b.path_edge_ids):
        assert np.array_equal(x, y)


def round_trip(dump, parse, x, same):
    text = dump(x)
    back = parse(text)
    same(x, back)
    assert dump(back) == text


@settings(deadline=None)
@given(graphs_with_small_cycles())
def test_edge_list_round_trip(g):
    round_trip(dump_edge_list, parse_edge_list, g, same_graph)


@settings(deadline=None)
@given(st.integers(1, 300), st.floats(0.0, 1.0), SEEDS)
def test_tournament_round_trip(n, p, seed):
    t = sample_tournament(n, min(p, 20.0 / n), RngSpec(seed))

    def same(a, b):
        assert (a.n, a.bu.tolist(), a.bv.tolist()) == (b.n, b.bu.tolist(), b.bv.tolist())

    round_trip(dump_tournament, parse_tournament, t, same)


@settings(deadline=None, max_examples=40)
@given(st.integers(20, 3000), st.floats(0.05, 0.9), SEEDS)
def test_model_core_round_trip(n, eps, seed):
    core = sample_core_model(n, eps, RngSpec(seed))
    round_trip(dump_expanded_core, parse_expanded_core, core, same_core)


@settings(deadline=None)
@given(chain_graphs())
def test_kernelized_core_round_trip(core):
    round_trip(dump_expanded_core, parse_expanded_core, kernelize(core), same_core)


N = 3000


@pytest.mark.parametrize("dump, make, digest", [
    (dump_edge_list, lambda: sample_gnp(N, 1.5 / N, RngSpec(11)),
     "c8fcb8cbd419daf2340475c64d85deac2df6ed19c1da66f7f84ae39cd0fb8548"),
    (dump_tournament, lambda: sample_tournament(N, 1.5 / N, RngSpec(11, 1)),
     "01c6313f2ac9d4a49c4a2127a135caf69be78be03e581ea98037de773c2661da"),
    (dump_expanded_core, lambda: sample_core_model(N, 0.3, RngSpec(11, 2)),
     "38786e327812e74272a53915a7a7fb7264f7ad825184b8795b738efc04de4a31"),
    (dump_expanded_core,
     lambda: kernelize(two_core(sample_gnp(N, 1.5 / N, RngSpec(11))).graph),
     "03f14140404d789bea734fee88cb960ebbb652bb21ec2e784ccf6d3323d43a28"),
], ids=["edges", "tournament", "model-core", "kernelized-core"])
def test_dump_bytes_are_pinned(dump, make, digest):
    assert hashlib.sha256(dump(make()).encode()).hexdigest() == digest
