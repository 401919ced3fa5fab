import dataclasses
import itertools
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netsample.errors import (
    DanglingCandidateError,
    ParseError,
    PartialSampleError,
    ValidationError,
)
from netsample.graph import Graph
from netsample.samplers import (
    SAMPLERS,
    SampleResult,
    SamplerConfig,
    sample_expansion,
    sample_node2vec_walk,
    sample_random_node,
    sample_random_walk,
    sample_tcec,
    sample_tcpr,
    tcec_score,
    tcpr_score,
)
from netsample.samplers import tcpr as tcpr_module
from netsample.samplers.base import Leaderboard, SampleState, neighborhood, walk_until_new
from netsample.samplers import baselines
from netsample.samplers.baselines import node2vec_step_weights
from netsample.samplers.tcpr import init_delta, member_deltas, update_deltas_on_admit
from netsample.synth import SbmSpec, generate_sbm

from conftest import (
    dense_adjacency,
    dense_tcec_score,
    dense_tcpr_score,
    random_digraph,
    random_undirected,
    recompute_delta,
    reference_neighborhood,
    reference_node2vec_step_weights,
    reference_sample_node2vec,
    reference_sample_rw,
    reference_sample_tcec,
    reference_sample_tcpr,
    reference_tcec_score,
    reference_tcpr_score,
    reference_walk_until_new,
    small_graphs,
)
from test_golden import TRAP_EDGES
from test_selectors import _outcome


# -- config / result plumbing -----------------------------------------


def test_config_validation():
    with pytest.raises(ValidationError):
        SamplerConfig(target_size=0).validate(10)
    with pytest.raises(ValidationError):
        SamplerConfig(target_size=11).validate(10)
    with pytest.raises(ValidationError):
        SamplerConfig(target_size=5, exploration_p=1.5).validate(10)
    with pytest.raises(ValidationError):
        SamplerConfig(target_size=5, alpha=2.0).validate(10)
    with pytest.raises(ValidationError):
        SamplerConfig(target_size=5, damping=1.0).validate(10)
    SamplerConfig(target_size=5).validate(10)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("leaderboard_capacity", "10", "leaderboard_capacity must be an integer, got '10'"),
        ("leaderboard_capacity", True, "leaderboard_capacity must be an integer"),
        ("rng_seed", 1.0, "rng_seed must be an integer"),
        ("target_size", np.float64(5), "target_size must be an integer"),
        ("exploration_p", "0.1", "exploration_p must be a real number"),
        ("alpha", False, "alpha must be a real number"),
        ("rescore_on_pop", 1, "rescore_on_pop must be true or false"),
        ("node2vec_p", "2", "node2vec_p must be a real number, got '2'"),
        ("node2vec_q", True, "node2vec_q must be a real number"),
        ("node2vec_p", 0.0, "node2vec_p and node2vec_q must be positive"),
        ("node2vec_q", -1, "node2vec_p and node2vec_q must be positive"),
        ("node2vec_q", float("nan"), "node2vec_p and node2vec_q must be positive"),
    ],
)
def test_config_validation_checks_types(field, value, message):
    with pytest.raises(ValidationError, match=message):
        SamplerConfig(**{"target_size": 5, field: value})


def test_config_is_frozen():
    cfg = SamplerConfig(target_size=5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.leaderboard_capacity = None


def test_config_validation_accepts_numpy_and_integer_reals():
    cfg = SamplerConfig(
        target_size=np.int64(5), leaderboard_capacity=3, damping=0, alpha=np.float32(0.5),
        rescore_on_pop=np.True_,
    )
    cfg.validate(10)


@pytest.mark.parametrize("seeds", [(1.7,), (True,), ("x",), (np.float64(2),), 3])
def test_config_rejects_non_integer_seed_nodes(seeds):
    with pytest.raises(ValidationError, match="seed_nodes must be a sequence of integers"):
        SamplerConfig(target_size=5, seed_nodes=seeds)


def test_config_keeps_integer_seed_nodes():
    cfg = SamplerConfig(target_size=5, seed_nodes=[np.int64(3)])
    assert cfg.seed_nodes == (3,) and type(cfg.seed_nodes[0]) is int


@pytest.mark.parametrize("name", sorted(SAMPLERS))
@pytest.mark.parametrize(
    "seeds, message",
    [
        ((99,), "seed node 99 not in 0..5"),
        ((-1,), "seed node -1 not in 0..5"),
        ((6,), "seed node 6 not in 0..5"),
        ((0, 1), r"at most one seed node allowed, got \[0, 1\]"),
    ],
)
def test_samplers_reject_bad_seed_nodes(name, seeds, message):
    g = Graph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)], directed=True)
    with pytest.raises(ValidationError, match=message):
        SAMPLERS[name](g, SamplerConfig(target_size=2, seed_nodes=seeds))


def test_alpha_resolution():
    cfg = SamplerConfig(target_size=5)
    assert cfg.resolved_alpha(directed=True) == 0.5
    assert cfg.resolved_alpha(directed=False) == 0.0
    assert SamplerConfig(target_size=5, alpha=0.3).resolved_alpha(True) == 0.3


def test_sample_result_round_trip():
    r = SampleResult(nodes=[3, 1], tags=["rw-init", "criterion"], counters={"x": 1})
    r2 = SampleResult.from_json(r.to_json())
    assert r2.nodes == [3, 1] and r2.tags == r.tags and r2.counters == {"x": 1}
    with pytest.raises(ValidationError):
        SampleResult(nodes=[1, 1], tags=["a", "b"])
    with pytest.raises(ValidationError):
        SampleResult(nodes=[1, 2], tags=["a"])


@pytest.mark.parametrize(
    "text, error, message",
    [
        ("garbage", ParseError, "^<input>:1: not JSON: "),
        ('{"nodes": [1]}', ValidationError, r"^sample result: missing key\(s\) \['tags'\]"),
        ("[]", ValidationError, "^sample result must be a mapping"),
        ('{"nodes": 5, "tags": []}', ValidationError, "^sample result nodes must be a list of integers"),
        ('{"nodes": [[1]], "tags": ["a"]}', ValidationError, "^sample result nodes must be"),
        ('{"nodes": [true], "tags": ["a"]}', ValidationError, "^sample result nodes must be"),
        ('{"nodes": [1.0], "tags": ["a"]}', ValidationError, "^sample result nodes must be"),
        ('{"nodes": [1], "tags": "a"}', ValidationError, "^sample result tags must be a list of strings"),
        ('{"nodes": [1], "tags": [2]}', ValidationError, "^sample result tags must be"),
        ('{"nodes": [1], "tags": ["a"], "counters": 3}', ValidationError, "^sample result counters must be a mapping"),
        ('{"nodes": [1], "tags": ["a"], "config": []}', ValidationError, "^sample result config must be a mapping"),
        ('{"nodes": [1, 1], "tags": ["a", "b"]}', ValidationError, "^sampled nodes must be distinct"),
    ],
)
def test_sample_result_from_json_names_a_bad_document(text, error, message):
    with pytest.raises(error, match=message):
        SampleResult.from_json(text)


def test_leaderboard_semantics():
    lb = Leaderboard(3)
    lb.offer(1, 5.0)
    lb.offer(2, 5.0)
    lb.offer(3, 1.0)
    assert lb.pop_best() == 1  # tie broken by earliest insertion
    lb.offer(4, 0.5)
    lb.offer(5, 0.7)  # over capacity: node 4 (lowest score) evicted
    assert 4 not in lb and lb.evictions == 1
    lb.offer(3, 9.0)  # re-offer updates score in place
    assert lb.pop_best() == 3
    assert len(lb) == 2


def test_leaderboard_eviction_tie_drops_latest():
    lb = Leaderboard(2)
    lb.offer(1, 1.0)
    lb.offer(2, 1.0)
    lb.offer(3, 1.0)
    assert sorted(lb.nodes()) == [1, 2]  # tie at the bottom: the newest goes


# -- baselines --------------------------------------------------------


def test_random_node_sampler(rng):
    g = random_digraph(30, 0.1, rng)
    cfg = SamplerConfig(target_size=10, rng_seed=4)
    r1 = sample_random_node(g, cfg)
    r2 = sample_random_node(g, cfg)
    assert r1.nodes == r2.nodes
    assert len(set(r1.nodes)) == 10
    assert r1.tags == ["rn"] * 10


def test_random_walk_collects_connected_nodes(rng):
    g = random_digraph(50, 0.15, rng)
    r = sample_random_walk(g, SamplerConfig(target_size=20, rng_seed=1))
    assert len(set(r.nodes)) == 20
    assert all(0 <= v < 50 for v in r.nodes)


def test_random_walk_partial_on_disconnected_graph():
    # two components; walker can never leave the seed's 3-node component
    g = Graph.from_edges(
        6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)], directed=True
    )
    with pytest.raises(PartialSampleError) as exc:
        sample_random_walk(g, SamplerConfig(target_size=5, seed_nodes=(0,), rng_seed=0))
    assert set(exc.value.nodes) == {0, 1, 2}


def test_expansion_greedy_picks_max_new_neighborhood():
    # star around 1 vs dead-end chain: from seed 0, node 1 opens 3 new
    # nodes while node 2 opens 1
    g = Graph.from_edges(
        7, [(0, 1), (0, 2), (1, 3), (1, 4), (1, 5), (2, 6)], directed=False
    )
    r = sample_expansion(g, SamplerConfig(target_size=3, seed_nodes=(0,)))
    assert r.nodes[0] == 0 and r.nodes[1] == 1


def test_expansion_tie_breaks_on_smallest_id():
    g = Graph.from_edges(5, [(0, 1), (0, 2), (1, 3), (2, 4)], directed=False)
    r = sample_expansion(g, SamplerConfig(target_size=2, seed_nodes=(0,)))
    assert r.nodes == [0, 1]  # 1 and 2 both gain one node; 1 < 2


def test_node2vec_step_weights_biases():
    # current=1 came from prev=0; neighbors of 1: 0 (return), 2 (adjacent
    # to 0), 3 (farther)
    g = Graph.from_edges(4, [(0, 1), (0, 2), (1, 0), (1, 2), (1, 3)], directed=True)
    idx, w = node2vec_step_weights(g, 0, 1, p=2.0, q=0.5)
    got = dict(zip(map(int, idx), w))
    assert got == {0: 0.5, 2: 1.0, 3: 2.0}
    # first-order step: raw edge weights
    idx, w = node2vec_step_weights(g, None, 1, p=2.0, q=0.5)
    assert dict(zip(map(int, idx), w)) == {0: 1.0, 2: 1.0, 3: 1.0}


def test_node2vec_walk_runs(rng):
    g = random_undirected(60, 0.1, rng)
    r = sample_node2vec_walk(
        g, SamplerConfig(target_size=25, rng_seed=2, node2vec_p=2.0, node2vec_q=0.5)
    )
    assert len(set(r.nodes)) == 25
    assert r.config["node2vec_p"] == 2.0
    with pytest.raises(ValidationError):
        sample_node2vec_walk(g, SamplerConfig(target_size=5, node2vec_p=0.0, node2vec_q=1.0))


TAGS = {
    "rn": {"rn"},
    "rw": {"rw"},
    "xs": {"xs"},
    "node2vec": {"node2vec"},
    "tcec": {"rw-init", "criterion", "fallback"},
    "tcpr": {"rw-init", "criterion", "fallback"},
}


@settings(max_examples=400)
@given(g=small_graphs(max_n=14), data=st.data())
def test_every_sampler_through_one_signature(g, data):
    name = data.draw(st.sampled_from(sorted(SAMPLERS)))
    m = data.draw(st.integers(1, g.n))
    cfg = SamplerConfig(
        target_size=m,
        rng_seed=data.draw(st.integers(0, 1000)),
        seed_nodes=data.draw(st.sampled_from([(), (0,), (g.n - 1,)])),
        leaderboard_capacity=data.draw(st.integers(1, 4)),
        exploration_p=data.draw(st.sampled_from([0.1, 1.0])),
        rescore_on_pop=data.draw(st.booleans()),
        node2vec_p=data.draw(st.sampled_from([0.5, 2.0])),
        node2vec_q=data.draw(st.sampled_from([0.5, 2.0])),
    )

    def run():
        try:
            r = SAMPLERS[name](g, cfg)
        except PartialSampleError as exc:
            assert len(exc.nodes) < m
            return str(exc), exc.nodes, exc.tags, exc.counters
        assert len(r.nodes) == m
        return None, r.nodes, r.tags, r.counters

    first = run()
    _, nodes, tags, _ = first
    assert len(set(nodes)) == len(nodes) == len(tags)
    assert set(tags) <= TAGS[name]
    assert all(0 <= v < g.n for v in nodes)
    assert run() == first


def test_all_samplers_deterministic(rng):
    g = random_digraph(80, 0.08, rng)
    for fn in (
        sample_random_node,
        sample_random_walk,
        sample_expansion,
        sample_node2vec_walk,
        sample_tcec,
        sample_tcpr,
    ):
        cfg = SamplerConfig(target_size=15, rng_seed=9, seed_nodes=(0,))
        assert fn(g, cfg).nodes == fn(g, cfg).nodes, fn.__name__


# -- eigenvector-criterion sampler ------------------------------------


def test_tcec_score_hand_example():
    # sample {1, 2}; candidate 3 has out-edges to both members and one
    # outside in-edge from 4; alpha = 0.5
    g = Graph.from_edges(5, [(3, 1), (3, 2), (4, 3), (4, 1)], directed=True)
    state = SampleState.empty(5, capacity=10, in_sample_indegree=np.zeros(5))
    state.members = [1, 2]
    state.member_mask[[1, 2]] = True
    # ||b1||^2 = 2, ||b1^T U||^2 = 1 (node 4 feeds member 1), ||b3||^2 = 1
    # in-sample in-degree of 3 is 0
    assert tcec_score(g, state, 3, alpha=0.5) == pytest.approx(1.0)
    assert tcec_score(g, state, 3, alpha=0.0) == pytest.approx(2.0)
    with pytest.raises(ValidationError):
        tcec_score(g, state, 1, alpha=0.5)


def test_tcec_score_matches_dense_oracle(rng):
    g = random_digraph(40, 0.12, rng, weighted=True)
    a = dense_adjacency(g)
    state = SampleState.empty(40, capacity=10, in_sample_indegree=np.zeros(40))
    members = [2, 5, 9, 14, 30]
    state.members = list(members)
    state.member_mask[members] = True
    src, dst, w = g.edge_arrays()
    np.add.at(
        state.in_sample_indegree,
        dst[np.isin(src, members)],
        w[np.isin(src, members)],
    )
    for j in range(40):
        if j in members:
            continue
        eff = tcec_score(g, state, j, alpha=0.5)
        ref = dense_tcec_score(a, members, j, alpha=0.5)
        assert eff == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_tcec_run_shape_and_tags(rng):
    g = random_digraph(100, 0.06, rng)
    cfg = SamplerConfig(target_size=20, rng_seed=3, rw_init_fraction=0.2)
    r = sample_tcec(g, cfg)
    assert len(set(r.nodes)) == 20
    assert r.tags[:4] == ["rw-init"] * 4
    assert set(r.tags[4:]) <= {"criterion", "fallback"}
    assert r.config["sampler"] == "tcec"
    assert "scored_candidates" in r.counters


# -- walk-matrix-criterion sampler ------------------------------------


def _manual_state(g, members):
    state = SampleState.empty(g.n, capacity=10, delta=np.zeros(g.n))
    state.members = list(members)
    state.member_mask[list(members)] = True
    for s in members:
        state.delta[s] = recompute_delta(g, state.member_mask, s)
        if g.out_strength[s] <= 0:
            state.dangling_members.append(s)
    return state


def test_tcpr_score_matches_dense_oracle_up_to_constant(rng):
    g = random_digraph(25, 0.2, rng)
    a = dense_adjacency(g)
    members = [0, 3, 8, 12]
    state = _manual_state(g, members)
    gamma = 0.85
    cands = [
        j for j in range(25) if j not in members and g.out_strength[j] > 0
    ]
    eff = np.array([tcpr_score(g, state, j, gamma) for j in cands])
    ref = np.array([dense_tcpr_score(a, members, j, gamma) for j in cands])
    shift = eff - ref
    assert shift.max() - shift.min() < 1e-12  # same scores up to one constant


def test_tcpr_score_rejects_dangling_and_member():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0)], directed=True)  # 3 dangling
    state = _manual_state(g, [0])
    with pytest.raises(DanglingCandidateError):
        tcpr_score(g, state, 3, gamma=0.85)
    with pytest.raises(ValidationError):
        tcpr_score(g, state, 0, gamma=0.85)


def test_tcpr_delta_updates_match_recomputation(rng):
    g = random_digraph(30, 0.15, rng)
    # make two of the admitted nodes sinks so dangling deltas are read too
    src, dst, w = g.edge_arrays()
    keep = ~np.isin(src, [17, 9])
    g = Graph(30, src[keep], dst[keep], w[keep], directed=True)
    state = SampleState.empty(30, capacity=10, delta=np.zeros(30))
    for s in [4, 17, 2, 9, 25]:
        state.members.append(s)
        state.member_mask[s] = True
        init_delta(g, state, s)
        update_deltas_on_admit(g, state, s)
        for x in state.members:
            assert member_deltas(g, state, [x])[0] == pytest.approx(
                recompute_delta(g, state.member_mask, x), abs=1e-12
            )
    assert state.dangling_members == [17, 9]


def test_tcpr_run_skips_dangling_candidates(rng):
    g = random_digraph(80, 0.08, rng)
    # make some nodes dangling by rebuilding without their out-edges
    src, dst, w = g.edge_arrays()
    keep = ~np.isin(src, [5, 6, 7])
    g = Graph(80, src[keep], dst[keep], w[keep], directed=True)
    cfg = SamplerConfig(target_size=16, rng_seed=1, seed_nodes=(0,))
    r = sample_tcpr(g, cfg)
    assert len(set(r.nodes)) == 16
    assert "dangling_skipped" in r.counters
    crit = [v for v, t in zip(r.nodes, r.tags) if t == "criterion"]
    assert all(g.out_strength[v] > 0 for v in crit)


def test_neighborhood_on_undirected_graphs_equals_union(rng):
    for _ in range(30):
        n = int(rng.integers(1, 25))
        m = int(rng.integers(0, 3 * n))
        # self-loops and duplicate pairs included
        g = Graph(n, rng.integers(0, n, m), rng.integers(0, n, m), np.ones(m), directed=False)
        none = np.zeros(n, dtype=bool)
        for v in range(n):
            union = np.union1d(g.out_neighbors(v)[0], g.in_neighbors(v)[0])
            got = neighborhood(g, v, none)
            assert np.array_equal(got, union[union != v])
            assert got.dtype == union.dtype


# -- crawl hot paths against their loop references ----------------------


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _state_holding(g, members, with_delta):
    """Crawl state after admitting ``members`` in order, as the crawl does."""
    state = SampleState.empty(
        g.n, capacity=10, in_sample_indegree=np.zeros(g.n), delta=np.zeros(g.n)
    )
    for s in members:
        state.members.append(s)
        state.member_mask[s] = True
        out_idx, out_w = g.out_neighbors(s)
        np.add.at(state.in_sample_indegree, out_idx, out_w)
        if with_delta:
            init_delta(g, state, s)
            update_deltas_on_admit(g, state, s)
    return state


@settings(max_examples=300)
@given(g=small_graphs(weighted=True), data=st.data())
def test_hot_paths_equal_loop_references_bitwise(g, data):
    members = data.draw(st.lists(st.integers(0, g.n - 1), unique=True, max_size=g.n))
    alpha = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    none = np.zeros(g.n, dtype=bool)
    for v in range(g.n):
        got, want = neighborhood(g, v, none), reference_neighborhood(g, v)
        assert got.dtype == want.dtype and np.array_equal(got, want)
    state = _state_holding(g, members, with_delta=True)
    for j in range(g.n):
        if state.member_mask[j]:
            continue
        want = reference_tcec_score(g, state, j, alpha)
        assert _bits(tcec_score(g, state, j, alpha)) == _bits(want)
        if g.out_strength[j] <= 0:
            continue
        got = tcpr_score(g, state, j, 0.85)
        try:
            want = reference_tcpr_score(g, state, j, 0.85)
        except ZeroDivisionError:
            # a zero-strength member reaches j by a zero-weight edge;
            # test_tcpr_zero_weight_edge_from_dangling_member covers it
            assert np.isfinite(got)
            continue
        assert _bits(got) == _bits(want)
    for current in range(g.n):
        for prev in (None, *range(g.n)):
            got = node2vec_step_weights(g, prev, current, 2.0, 0.5)
            want = reference_node2vec_step_weights(g, prev, current, 2.0, 0.5)
            assert np.array_equal(got[0], want[0])
            assert got[1].tobytes() == want[1].tobytes()


def test_tcec_score_bitwise_on_dense_weighted_graphs(rng):
    # long bins of products that span many magnitudes, so a change in the
    # order of any bin's additions shows in the last bits
    for directed in (True, False):
        g = (random_digraph if directed else random_undirected)(60, 0.5, rng, weighted=True)
        src, dst, w = g.edge_arrays()
        keep = directed | (src <= dst)  # each undirected pair once, with one weight
        src, dst, w = src[keep], dst[keep], w[keep]
        g = Graph(60, src, dst, w * 10.0 ** rng.uniform(-8, 8, w.size), directed=directed)
        for size in (5, 20, 40):
            members = rng.choice(60, size, replace=False).tolist()
            state = _state_holding(g, members, with_delta=False)
            for j in sorted(set(range(60)) - set(members)):
                want = reference_tcec_score(g, state, j, 0.5)
                assert _bits(tcec_score(g, state, j, 0.5)) == _bits(want)


def test_tcec_score_bitwise_with_one_in_sample_target(rng):
    # every in-neighbor j of a member s has s as its only in-sample target
    # when s's other in-neighbors stay outside, so the one-target path runs
    reached = 0
    for directed in (True, False):
        g = (random_digraph if directed else random_undirected)(50, 0.3, rng, weighted=True)
        src, dst, w = g.edge_arrays()
        keep = directed | (src <= dst)  # each undirected pair once, with one weight
        src, dst, w = src[keep], dst[keep], w[keep]
        g = Graph(50, src, dst, w * 10.0 ** rng.uniform(-8, 8, w.size), directed=directed)
        for s in range(0, 50, 5):
            state = _state_holding(g, [s], with_delta=False)
            for j in g.in_neighbors(s)[0].tolist():
                if j == s:
                    continue
                want = reference_tcec_score(g, state, j, 0.5)
                assert _bits(tcec_score(g, state, j, 0.5)) == _bits(want)
                reached += 1
    assert reached > 200


def test_node2vec_reads_the_current_out_list_once_per_step(rng, monkeypatch):
    g = random_undirected(60, 0.1, rng)
    calls = []
    out_neighbors = g.out_neighbors
    monkeypatch.setattr(g, "out_neighbors", lambda i: calls.append(i) or out_neighbors(i))
    r = sample_node2vec_walk(g, SamplerConfig(target_size=40, rng_seed=1))
    # one read of the current node's list per step, plus one of the previous
    # node's list on each second-order step
    assert len(calls) < 2 * r.counters["steps"]


def _sample_outcome(fn, g, cfg):
    try:
        r = fn(g, cfg)
    except PartialSampleError as exc:
        return "partial", str(exc), exc.nodes, exc.tags, exc.counters
    return "full", r.to_json()


@settings(max_examples=300)
@given(g=small_graphs(max_n=14, weighted=True), data=st.data())
def test_crawls_equal_per_candidate_references(g, data):
    name = data.draw(st.sampled_from(["tcec", "tcpr", "node2vec", "rw"]))
    cfg = SamplerConfig(
        target_size=data.draw(st.integers(1, g.n)),
        rng_seed=data.draw(st.integers(0, 1000)),
        seed_nodes=data.draw(st.sampled_from([(), (0,), (g.n - 1,)])),
        leaderboard_capacity=data.draw(st.integers(1, 4)),
        exploration_p=data.draw(st.sampled_from([0.0, 0.1, 1.0])),
        rescore_on_pop=data.draw(st.booleans()),
    )
    reference = {
        "tcec": reference_sample_tcec,
        "tcpr": reference_sample_tcpr,
        "node2vec": reference_sample_node2vec,
        "rw": reference_sample_rw,
    }[name]
    try:
        want = _sample_outcome(reference, g, cfg)
    except ZeroDivisionError:
        assume(False)  # the reference tcpr score fails; see the test below
    assert _sample_outcome(SAMPLERS[name], g, cfg) == want


@st.composite
def closed_set_graphs(draw, max_n=8):
    """Directed or undirected graphs whose nodes ``0..c-1`` have no positive
    edge out of that set; some have zero-weight ones and some are sinks.
    Returns the graph and ``c``."""
    n = draw(st.integers(2, max_n))
    c = draw(st.integers(1, n - 1))
    inner, outer = st.integers(0, c - 1), st.integers(0, n - 1)
    weight = st.sampled_from([0.1, 1.0, 2.5])
    edges = draw(st.lists(st.tuples(inner, inner, weight), max_size=2 * c))
    edges += draw(st.lists(st.tuples(inner, st.integers(c, n - 1), st.just(0.0)), max_size=c))
    edges += draw(st.lists(st.tuples(st.integers(c, n - 1), outer, weight), max_size=2 * n))
    return Graph.from_edges(n, edges, directed=draw(st.booleans())), c


@settings(max_examples=150, deadline=None)
@given(gc=closed_set_graphs(), data=st.data())
def test_walks_out_of_closed_sets_equal_references(gc, data):
    g, c = gc
    sampled = data.draw(st.lists(st.integers(0, c - 1), min_size=1, unique=True))
    mask = np.zeros(g.n, dtype=bool)
    mask[sampled] = True
    seed, budget = data.draw(st.integers(0, 1000)), data.draw(st.integers(1, 3000))
    got = walk_until_new(g, np.random.default_rng(seed), sampled[0], sampled, mask, budget)
    want = reference_walk_until_new(
        g, np.random.default_rng(seed), sampled[0], sampled, mask, budget
    )
    assert got[:2] == want

    name = data.draw(st.sampled_from(["tcec", "tcpr", "node2vec", "rw"]))
    cfg = SamplerConfig(
        target_size=data.draw(st.integers(1, g.n)),
        rng_seed=seed,
        seed_nodes=(data.draw(st.integers(0, c - 1)),),
        leaderboard_capacity=data.draw(st.integers(1, 4)),
        exploration_p=data.draw(st.sampled_from([0.0, 0.1, 1.0])),
    )
    reference = {
        "tcec": reference_sample_tcec,
        "tcpr": reference_sample_tcpr,
        "node2vec": reference_sample_node2vec,
        "rw": reference_sample_rw,
    }[name]
    try:
        want = _sample_outcome(reference, g, cfg)
    except ZeroDivisionError:
        assume(False)  # see test_tcpr_zero_weight_edge_from_dangling_member
    assert _sample_outcome(SAMPLERS[name], g, cfg) == want


class _CountedDraws:
    """A generator that counts its draws."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), 0

    def random(self):
        self.draws += 1
        return self.rng.random()

    def integers(self, high):
        self.draws += 1
        return self.rng.integers(high)


def test_walk_with_no_way_out_returns_at_once(monkeypatch):
    # seeded at the sink 0, a walk can only restart at 0
    g = Graph.from_edges(3, [(1, 0), (1, 2), (2, 1)], directed=True)
    rng = _CountedDraws(0)
    assert walk_until_new(g, rng, 0, [0], np.array([True, False, False]), 10**6) == (
        None, 10**6, None
    )
    assert rng.draws == 1
    # from {1, 2} the only edge out weighs zero: a uniform step takes it, a
    # node2vec step cannot
    g = Graph.from_edges(3, [(1, 0, 0.0), (1, 2, 1.0), (2, 1, 1.0)], directed=True)
    cfg = SamplerConfig(target_size=3, seed_nodes=(1,))
    assert sorted(sample_random_walk(g, cfg).nodes) == [0, 1, 2]
    calls = []
    step_weights = baselines.node2vec_step_weights
    monkeypatch.setattr(
        baselines, "node2vec_step_weights", lambda *a: calls.append(a) or step_weights(*a)
    )
    with pytest.raises(PartialSampleError) as exc:
        sample_node2vec_walk(g, cfg)
    assert exc.value.nodes == [1, 2] and exc.value.counters == {"steps": 3000}
    assert len(calls) < 10


class _TopDraws:
    """A generator whose ``random()`` is the largest double below 1."""

    def random(self):
        return 1 - 2**-53

    def integers(self, high):
        return high - 1


def test_node2vec_never_takes_a_zero_weight_edge(monkeypatch):
    # eight weights drawn at random and a zero last one, whose pairwise sum
    # is an ulp above the sequential cumsum; the top draw lands past the
    # cumsum's end, and the step takes the last edge of positive weight
    weights = [13.45410878679858, 8.58177174533346, 9.226680994884456, 9.362419139697058,
               24.686124754661666, 15.818906815178652, 16.85809826261234, 8.249086384636458, 0.0]
    w = np.array(weights)
    assert (1 - 2**-53) * float(np.add.reduce(w)) >= w.cumsum()[-1]
    g = Graph.from_edges(10, [(0, j + 1, x) for j, x in enumerate(weights)], directed=True)
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: _TopDraws())
    cfg = SamplerConfig(target_size=2, seed_nodes=(0,))
    assert sample_node2vec_walk(g, cfg).nodes == [0, 8]
    assert reference_sample_node2vec(g, cfg).nodes == [0, 8]


def test_tcpr_reads_each_in_list_once_per_admission(rng, monkeypatch):
    g = random_digraph(80, 0.08, rng)
    reads, scores, states = [], [], []
    in_transitions = Graph.in_transitions
    monkeypatch.setattr(
        Graph, "in_transitions", lambda self, i: reads.append(i) or in_transitions(self, i)
    )
    score = tcpr_module.tcpr_score
    monkeypatch.setattr(tcpr_module, "tcpr_score", lambda *a: scores.append(a) or score(*a))
    cfg = SamplerConfig(target_size=30, rng_seed=2, exploration_p=1.0)
    r = sample_tcpr(g, cfg, step_callback=lambda state, node, tag: states.append(state))
    assert len(scores) > 0
    assert len(reads) == len(r.nodes) + len(scores)
    assert states[0].in_sample_indegree is None


def _realistic_digraph(seed):
    """2,000 nodes, mean out-degree about 8, weighted, with sinks, a few
    self-loops and zero-weight edges; every node with out-edges keeps a
    positive out-strength."""
    rng = np.random.default_rng(seed)
    n, m = 2000, 16_000
    src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
    loops = rng.choice(n, 6, replace=False)
    src, dst = np.concatenate([src, loops]), np.concatenate([dst, loops])
    w = rng.uniform(0.5, 2.0, src.size)
    w[rng.random(src.size) < 0.05] = 0.0
    keep = ~np.isin(src, rng.choice(n, 20, replace=False))
    g = Graph(n, src[keep], dst[keep], w[keep], directed=True)
    # a zero-strength node with out-edges breaks the reference tcpr score
    # (see test_tcpr_zero_weight_edge_from_dangling_member); give it weight
    src, dst, w = g.edge_arrays()
    w[g.out_strength[src] <= 0] = 1.0
    return Graph(n, src, dst, w, directed=True)


@pytest.mark.parametrize("exploration_p", [0.1, 1.0])
@pytest.mark.parametrize("name", ["tcec", "tcpr"])
def test_crawls_equal_references_at_realistic_degrees(name, exploration_p):
    g = _realistic_digraph(11)
    assert g.has_self_loop and np.any(g.edge_arrays()[2] == 0.0)
    assert np.any(g.out_strength == 0)
    reference = {"tcec": reference_sample_tcec, "tcpr": reference_sample_tcpr}[name]
    cfg = SamplerConfig(target_size=300, rng_seed=5, exploration_p=exploration_p)
    want = _sample_outcome(reference, g, cfg)
    got = _sample_outcome(SAMPLERS[name], g, cfg)
    assert got == want
    assert got[0] == "full"
    # the default capacity of 100 binds, except for tcpr at the default
    # exploration_p, which offers fewer than one candidate per admission
    assert SamplerConfig(1).leaderboard_capacity == 100
    evictions = json.loads(got[1])["counters"]["leaderboard_evictions"]
    assert evictions > 0 or (name, exploration_p) == ("tcpr", 0.1)


@given(seed=st.integers(0, 2**32 - 1), k=st.integers(0, 40))
def test_one_vector_draw_equals_scalar_draws(seed, k):
    vec, scalar = np.random.default_rng(seed), np.random.default_rng(seed)
    got = vec.random(k)
    want = np.array([scalar.random() for _ in range(k)], dtype=np.float64)
    assert got.tobytes() == want.tobytes()
    assert vec.random() == scalar.random()  # both streams end in the same place


def test_tcpr_zero_weight_edge_from_dangling_member():
    # member 0 has out-strength 0 but zero-weight edges to 1 and 2, so it is
    # dangling (uniform row) and an in-neighbor of candidates 1 and 2
    edges = [(0, 1, 0.0), (0, 2, 0.0), (1, 2, 1.0), (2, 1, 1.0), (2, 3, 1.0), (3, 1, 1.0)]
    edges += [(1, 4, 2.0), (4, 0, 1.0)]
    g = Graph.from_edges(5, edges, directed=True)
    a = dense_adjacency(g)
    members = [0, 4]
    state = _state_holding(g, members, with_delta=True)
    cands = [1, 2, 3]
    eff = np.array([tcpr_score(g, state, j, 0.85) for j in cands])
    ref = np.array([dense_tcpr_score(a, members, j, 0.85) for j in cands])
    shift = eff - ref
    assert shift.max() - shift.min() < 1e-12
    # from seed 0 the crawl scores candidate 2, whose in-neighbor 0 is such a member
    r = sample_tcpr(Graph.from_edges(3, edges[:4] + [(2, 0, 1.0)], directed=True),
                    SamplerConfig(target_size=3, seed_nodes=(0,)))
    assert sorted(r.nodes) == [0, 1, 2]


# -- output that does not depend on n ------------------------------------


def _edges(g):
    """``g``'s edges as ``(src, dst, w)`` arrays, each undirected edge once."""
    src = np.repeat(np.arange(g.n), np.diff(g._out_indptr))
    keep = (src <= g._out_dst) | g.directed
    return src[keep], g._out_dst[keep], g._out_w[keep]


def _outcome_and_reads(sampler, g, cfg):
    """``_outcome`` of one run, and its count of each kind of neighbour read."""
    reads = dict.fromkeys(("out_neighbors", "in_neighbors", "in_transitions"), 0)
    with pytest.MonkeyPatch.context() as mp:
        for name in reads:

            def counted(self, i, name=name, read=getattr(Graph, name)):
                reads[name] += 1
                return read(self, i)

            mp.setattr(Graph, name, counted)
        return _outcome(sampler, g, cfg), reads


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("name", ["rw", "node2vec", "xs", "tcec"])
def test_output_does_not_depend_on_n(name, directed):
    # tcpr is left out on purpose: its teleport term (1 - gamma)(n - k - 1)/n
    # moves every score with n, so padding the graph can change its samples
    # (here at exploration_p 1)
    g, _ = generate_sbm(SbmSpec((40, 40), 0.04, 0.01, directed=directed, rng_seed=2))
    padded = Graph(10 * g.n, *_edges(g), directed=directed)  # 9n isolated nodes
    for seed_node, rng_seed, p in itertools.product((0, 41), (0, 1, 2), (0.1, 1.0)):
        cfg = SamplerConfig(20, seed_nodes=(seed_node,), rng_seed=rng_seed, exploration_p=p)
        want = _outcome_and_reads(SAMPLERS[name], g, cfg)
        assert _outcome_and_reads(SAMPLERS[name], padded, cfg) == want


def test_partial_and_full_samples_carry_the_same_counter_keys():
    g = Graph.from_edges(9, TRAP_EDGES, directed=True)
    for name, sampler in sorted(SAMPLERS.items()):
        full = sampler(g, SamplerConfig(target_size=3, rng_seed=1, seed_nodes=(0,)))
        if name == "rn":
            continue  # it draws nodes without replacement, so it never ends partial
        with pytest.raises(PartialSampleError) as info:
            sampler(g, SamplerConfig(target_size=8, rng_seed=1, seed_nodes=(0,)))
        assert info.value.counters.keys() == full.counters.keys(), name
