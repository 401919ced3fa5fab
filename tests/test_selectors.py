"""Heap-based selectors against their linear-scan oracles.

The crawl's ``Leaderboard`` and the expansion sampler both pick a maximum
with lazily invalidated heaps. These tests drive them with random operation
sequences and random small graphs and require exactly what a full scan gives.
The criterion crawls' ``rescore_on_pop`` mode is held to the same standard:
every pop sees fresh scores, as a rescan of the whole leaderboard gives.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsample.errors import PartialSampleError, ValidationError
from netsample.graph import Graph
from netsample.samplers import (
    SamplerConfig,
    sample_expansion,
    sample_tcec,
    sample_tcpr,
    tcec_score,
    tcpr_score,
)
from netsample.samplers.base import Leaderboard, neighborhood
from netsample.synth import SbmSpec, generate_sbm

from conftest import (
    ReferenceLeaderboard,
    brute_expansion,
    reference_neighborhood,
    reference_sample_expansion,
    reference_sample_tcec,
    reference_sample_tcpr,
    small_graphs,
)

NODE = st.integers(0, 15)
SCORE = st.integers(0, 4)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), NODE, SCORE),
        st.tuples(st.just("offer"), NODE, SCORE),
        st.tuples(st.just("discard"), NODE),
        st.tuples(st.just("pop_best")),
        st.tuples(st.just("nodes")),
    ),
    min_size=10,
    max_size=80,
)


@settings(max_examples=300)
@given(capacity=st.integers(1, 8), ops=OPS)
def test_leaderboard_matches_linear_scan_model(capacity, ops):
    heap_lb, ref_lb = Leaderboard(capacity), ReferenceLeaderboard(capacity)
    for op in ops:
        name, args = op[0], op[1:]
        if name == "offer":
            args = (args[0], float(args[1]))
        got = getattr(heap_lb, name)(*args)
        want = getattr(ref_lb, name)(*args)
        assert got == want, op
        assert sorted(heap_lb.entries()) == sorted(ref_lb.entries())
        assert len(heap_lb) == len(ref_lb)
        assert heap_lb.evictions == ref_lb.evictions


def test_leaderboard_heaps_stay_bounded_under_rescoring():
    lb = Leaderboard(5)
    for v in range(5):
        lb.offer(v, 0.0)
    for step in range(1, 200):
        for v in lb.nodes():
            lb.offer(v, float(step % 7 + v))
    limit = Leaderboard.COMPACT_FACTOR * lb.capacity
    assert len(lb._best) <= limit and len(lb._worst) <= limit
    assert lb.pop_best() == 4


@given(g=small_graphs(), data=st.data())
def test_expansion_matches_brute_force(g, data):
    m = data.draw(st.integers(1, g.n))
    seed = data.draw(st.integers(0, g.n - 1))
    try:
        want_nodes, want_counters = brute_expansion(g, m, seed)
    except PartialSampleError as exc:
        with pytest.raises(PartialSampleError) as got:
            sample_expansion(g, SamplerConfig(target_size=m, seed_nodes=(seed,)))
        assert str(got.value) == str(exc)
        assert got.value.nodes == exc.nodes
        assert got.value.tags == exc.tags
        assert got.value.counters["border_peak"] == exc.counters["border_peak"]
        return
    r = sample_expansion(g, SamplerConfig(target_size=m, seed_nodes=(seed,)))
    assert r.nodes == want_nodes
    assert r.tags == ["xs"] * m
    assert r.counters["border_peak"] == want_counters["border_peak"]


def _outcome(sampler, g, cfg):
    """Everything a run shows: the result, or the partial sample's payload."""
    try:
        r = sampler(g, cfg)
    except PartialSampleError as exc:
        return "partial", str(exc), exc.nodes, exc.tags, exc.counters
    return "full", r.nodes, r.tags, r.counters, r.config


@st.composite
def expansion_graphs(draw):
    """Graphs with self-loops, repeated and zero-weight edges and isolated
    nodes, where some edges come with their reverse, so that a directed
    node's in- and out-lists overlap."""
    n = draw(st.integers(1, 25))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node, st.sampled_from([0.0, 1.0, 2.5])), max_size=3 * n))
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges += [(v, u, w) for (u, v, w), flip in zip(edges, flips) if flip]
    return Graph.from_edges(n, edges, directed=draw(st.booleans()))


@settings(max_examples=200)
@given(g=expansion_graphs(), data=st.data())
def test_expansion_matches_reference_sampler(g, data):
    seeds = st.one_of(st.just(()), st.tuples(st.integers(0, g.n - 1)))
    cfg = SamplerConfig(
        target_size=data.draw(st.integers(1, g.n)),
        rng_seed=data.draw(st.integers(0, 3)),
        seed_nodes=data.draw(seeds),
    )
    got = _outcome(sample_expansion, g, cfg)
    assert got == _outcome(reference_sample_expansion, g, cfg)


@settings(max_examples=200)
@given(g=expansion_graphs(), data=st.data())
def test_neighborhood_skips_the_masked_nodes(g, data):
    skip = np.array(data.draw(st.lists(st.booleans(), min_size=g.n, max_size=g.n)))
    none = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        want = reference_neighborhood(g, v)
        plain = neighborhood(g, v, none)
        assert plain.dtype == want.dtype and np.array_equal(plain, want)
        got = neighborhood(g, v, skip)
        assert got.dtype == want.dtype and np.array_equal(got, want[~skip[want]])
        # a new array the caller owns, never a view of the graph's lists
        for nb in (plain, got):
            assert nb.flags.owndata and not np.shares_memory(nb, g._out_dst)


def test_undirected_neighborhood_copies_the_list_once():
    n = 200_000
    hub = np.zeros(n - 1, dtype=np.int64)
    g = Graph(n, hub, np.arange(1, n), np.ones(n - 1), directed=False)
    skip = np.zeros(n, dtype=bool)
    skip[:10] = True
    assert not g.has_self_loop  # made on first use; not part of the call
    tracemalloc.start()
    try:
        got = neighborhood(g, 0, skip)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.size == n - 10
    # the kept ids and two one-byte-per-id masks, not a second id array
    assert peak < got.nbytes + 3 * n


@pytest.mark.parametrize("directed", [False, True])
def test_expansion_matches_reference_sampler_on_sbm(directed):
    g, _ = generate_sbm(
        SbmSpec(block_sizes=(300, 400), p_in=0.02, p_out=0.002, directed=directed, rng_seed=5)
    )
    cfg = SamplerConfig(target_size=350, rng_seed=2)
    got = _outcome(sample_expansion, g, cfg)
    assert got[0] == "full" and got[3]["gain_evals"] > got[3]["border_peak"]
    assert got == _outcome(reference_sample_expansion, g, cfg)


def test_expansion_rejects_bad_seed_like_brute_force():
    g = Graph.from_edges(3, [(0, 1)], directed=True)
    with pytest.raises(ValidationError):
        brute_expansion(g, 2, 5)
    with pytest.raises(ValidationError):
        sample_expansion(g, SamplerConfig(target_size=2, seed_nodes=(5,)))


def _border_sizes(g, nodes):
    """Border size |N(S) minus S| after each admission, by replay."""
    member = np.zeros(g.n, dtype=bool)
    closure = np.zeros(g.n, dtype=bool)
    sizes = []
    for v in nodes:
        member[v] = closure[v] = True
        closure[g.out_neighbors(v)[0]] = True
        closure[g.in_neighbors(v)[0]] = True
        sizes.append(int(np.count_nonzero(closure & ~member)))
    return sizes


def test_expansion_counters_on_sbm():
    g, _ = generate_sbm(
        SbmSpec(block_sizes=(500, 700, 800), p_in=0.01, p_out=0.001, rng_seed=3)
    )
    r = sample_expansion(g, SamplerConfig(target_size=400, rng_seed=4))
    sizes = _border_sizes(g, r.nodes)
    assert r.counters["border_peak"] == max(sizes)
    assert r.counters["border_peak"] > sizes[-1]  # peak, not the final border
    # a full rescan evaluates every border node before each admission
    brute_evals = sum(sizes[:-1])
    assert r.counters["gain_evals"] < brute_evals / 10
    again = sample_expansion(g, SamplerConfig(target_size=400, rng_seed=4))
    assert again.counters == r.counters


@st.composite
def crawl_graphs(draw):
    """Graphs with self-loops and zero-weight edges, dense enough that a
    crawl pops from a leaderboard of several entries."""
    n = draw(st.integers(2, 14))
    node = st.integers(0, n - 1)
    edge = st.tuples(node, node, st.sampled_from([0.0, 1.0, 2.5]))
    edges = draw(st.lists(edge, min_size=2 * n, max_size=4 * n))
    return Graph.from_edges(n, edges, directed=draw(st.booleans()))


@settings(max_examples=200)
@given(g=crawl_graphs(), data=st.data())
def test_rescore_mode_pops_from_fresh_scores(g, data):
    name = data.draw(st.sampled_from(["tcec", "tcpr"]))
    cfg = SamplerConfig(
        target_size=data.draw(st.integers(1, g.n)),
        rng_seed=data.draw(st.integers(0, 100)),
        leaderboard_capacity=data.draw(st.integers(1, 8)),
        exploration_p=data.draw(st.sampled_from([0.1, 1.0])),
        rescore_on_pop=True,
    )
    sampler, reference, score, param = {
        "tcec": (sample_tcec, reference_sample_tcec, tcec_score, cfg.resolved_alpha(g.directed)),
        "tcpr": (sample_tcpr, reference_sample_tcpr, tcpr_score, cfg.damping),
    }[name]
    states, stale, pop_best = [], [], Leaderboard.pop_best

    def checked_pop(lb):
        stale.extend(
            (node, stored)
            for node, stored, _ in lb.entries()
            if stored != score(g, states[0], node, param)
        )
        return pop_best(lb)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Leaderboard, "pop_best", checked_pop)
        got = _outcome(
            lambda g, cfg: sampler(g, cfg, lambda state, node, tag: states.append(state)), g, cfg
        )
    assert stale == []
    try:
        want = _outcome(reference, g, cfg)
    except ZeroDivisionError:
        # the reference tcpr score fails; see test_tcpr_zero_weight_edge_from_dangling_member
        return
    assert got == want
