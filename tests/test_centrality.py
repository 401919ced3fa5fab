import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from netsample.centrality import (
    BLOCK_SLOTS,
    CentralityVector,
    betweenness,
    eigenvector_centrality,
    in_degree_centrality,
    pagerank,
    pivot_sources,
    springrank,
)
from netsample.errors import ValidationError
from netsample.graph import Graph
from netsample.synth import SbmSpec, generate_sbm

from conftest import (
    brute_betweenness,
    dense_adjacency,
    random_digraph,
    reference_betweenness,
    reference_eigenvector_centrality,
    reference_pagerank,
    reference_springrank,
    small_graphs,
)


def strongly_connected_digraph(n, p, rng):
    """Random digraph plus a ring, so the leading eigenvector is simple."""
    g = random_digraph(n, p, rng)
    src, dst, w = g.edge_arrays()
    ring = np.arange(n)
    src = np.concatenate([src, ring])
    dst = np.concatenate([dst, (ring + 1) % n])
    w = np.concatenate([w, np.ones(n)])
    return Graph(n, src, dst, w, directed=True)


def dense_pagerank(a, gamma):
    """Stationary vector of the damped walk by direct linear solve."""
    n = a.shape[0]
    dout = a.sum(axis=1)
    p = np.empty((n, n))
    for x in range(n):
        p[x, :] = a[x, :] / dout[x] if dout[x] > 0 else 1.0 / n
    t = gamma * p + (1.0 - gamma) / n
    sys = t.T - np.eye(n)
    sys[-1, :] = 1.0  # replace one redundant equation with the simplex constraint
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    return np.linalg.solve(sys, rhs)


def dense_leading_left_eigenvector(a):
    vals, vecs = np.linalg.eig(a.T)
    lead = np.argmax(np.abs(vals))
    v = np.real(vecs[:, lead])
    if v.sum() < 0:
        v = -v
    return v / np.abs(v).sum()


def test_pagerank_matches_dense_solve(rng):
    for _ in range(5):
        g = random_digraph(40, 0.1, rng)
        x = pagerank(g, gamma=0.85).scores
        ref = dense_pagerank(dense_adjacency(g), 0.85)
        assert np.abs(x - ref).sum() < 1e-8
        assert abs(x.sum() - 1.0) < 1e-12


def test_pagerank_two_node_dangling_example():
    g = Graph.from_edges(2, [(0, 1)], directed=True)
    x = pagerank(g, gamma=0.85).scores
    assert x == pytest.approx([0.350877, 0.649123], abs=1e-6)


def test_pagerank_validation():
    g = Graph.from_edges(2, [(0, 1)], directed=True)
    with pytest.raises(ValidationError):
        pagerank(g, gamma=1.0)


def test_eigenvector_matches_dense_eigensolve(rng):
    for _ in range(5):
        g = strongly_connected_digraph(40, 0.1, rng)
        vec = eigenvector_centrality(g, tol=1e-13, max_iter=20000)
        assert vec.converged
        ref = dense_leading_left_eigenvector(dense_adjacency(g))
        assert np.abs(vec.scores - ref).sum() < 1e-8


def test_eigenvector_directed_cycle_is_uniform_exactly():
    n = 6
    g = Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)], directed=True)
    vec = eigenvector_centrality(g)
    # exactly uniform: every entry bit-identical (scale fixed by L1 norm)
    assert np.all(vec.scores == vec.scores[0])
    assert vec.scores[0] == pytest.approx(1.0 / n, abs=1e-15)
    assert vec.converged and vec.iterations == 1


def test_eigenvector_edge_cases():
    with pytest.raises(ValidationError):
        eigenvector_centrality(Graph.from_edges(3, [], directed=True))
    # nilpotent adjacency: mass dies, flagged not fatal
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    vec = eigenvector_centrality(g)
    assert not vec.converged


def test_in_degree_centrality(rng):
    g = random_digraph(20, 0.2, rng, weighted=True)
    assert np.array_equal(in_degree_centrality(g).scores, g.in_strength)


def test_betweenness_matches_enumeration_oracle(rng):
    for _ in range(4):
        g = random_digraph(14, 0.18, rng)
        bc = betweenness(g).scores
        assert np.abs(bc - brute_betweenness(g)).max() < 1e-12


def test_betweenness_path_graph():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=True)
    # node 1 is inside paths 0-2, 0-3; node 2 inside 0-3, 1-3
    assert list(betweenness(g).scores) == [0.0, 2.0, 2.0, 0.0]


def test_betweenness_all_sources_equals_default(rng):
    g = random_digraph(15, 0.2, rng)
    assert np.array_equal(
        betweenness(g).scores, betweenness(g, sources=range(15)).scores
    )


def bitwise_equal(a, b) -> bool:
    return a.dtype == b.dtype == np.float64 and np.array_equal(a.view(np.int64), b.view(np.int64))


@st.composite
def graphs_with_sources(draw):
    """Small graphs with sinks, isolated nodes, self-loops and duplicate
    edges, plus all sources or an unsorted subset with a repeated source."""
    n = draw(st.integers(1, 14))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    g = Graph.from_edges(n, edges, directed=draw(st.booleans()))
    sources = draw(st.one_of(st.none(), st.lists(node, min_size=1, max_size=2 * n)))
    if sources is not None:
        sources.append(sources[0])
    return g, sources


@given(graphs_with_sources())
def test_betweenness_bitwise_equals_reference_loop(case):
    g, sources = case
    got = betweenness(g, sources=sources).scores
    assert bitwise_equal(got, reference_betweenness(g, sources))


def test_betweenness_bitwise_on_dense_random_graphs(rng):
    # parents with three or more children make the summation order visible
    for trial in range(40):
        n = int(rng.integers(20, 60))
        m = int(rng.integers(3 * n, 8 * n))
        g = Graph(n, rng.integers(0, n, m), rng.integers(0, n, m), np.ones(m), directed=trial % 2 == 0)
        assert bitwise_equal(betweenness(g).scores, reference_betweenness(g))


def test_betweenness_bitwise_across_source_blocks():
    g, _ = generate_sbm(SbmSpec(block_sizes=[1500, 1500], p_in=8e-3, p_out=1e-3, directed=True, rng_seed=7))
    sources = pivot_sources(g.n, 24, seed=3)[::-1]
    sources.append(sources[5])
    # the sources span several blocks of the vectorized pass
    assert len(sources) > 2 * (BLOCK_SLOTS // (g.n + g.num_edges)) > 2
    got = betweenness(g, sources=sources).scores
    assert bitwise_equal(got, reference_betweenness(g, sources))


def test_betweenness_backward_pass_follows_discovery_order_not_id_order():
    # From root 0, parents 3 and 4 find children 6 (via 3), then 5 and 7 (via
    # 4): node 4's children are discovered in the order 6, 5, 7. Their terms
    # in dep[4] are 1/3 for 6 (three shortest paths) and 1 for 5 and 7. The
    # queue loop adds them in reverse discovery order, (1 + 1) + 1/3, which
    # differs in the last bit from the child-id order (1 + 1/3) + 1 and from
    # the discovery order (1/3 + 1) + 1.
    edges = [(0, 1), (0, 2), (1, 3), (2, 3), (2, 4), (3, 6), (4, 5), (4, 6), (4, 7)]
    g = Graph.from_edges(8, edges, directed=True)
    want = (1.0 + 1.0) + 1.0 / 3.0
    assert want != (1.0 + 1.0 / 3.0) + 1.0
    assert betweenness(g, sources=[0]).scores[4] == want
    assert bitwise_equal(betweenness(g).scores, reference_betweenness(g))


def test_betweenness_rejects_bad_sources():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    for bad in (-1, 3):
        with pytest.raises(ValidationError, match=f"source {bad} not in 0..2"):
            betweenness(g, sources=[0, bad])
    for bad in ([0, 1.5], [True]):
        with pytest.raises(ValidationError, match="must be node ids"):
            betweenness(g, sources=bad)
    assert not betweenness(g, sources=[]).scores.any()


def test_pivot_sources():
    want = sorted(int(v) for v in np.random.default_rng(5).choice(50, size=7, replace=False))
    assert pivot_sources(50, 7, 5) == want
    assert pivot_sources(4, 10, 0) == [0, 1, 2, 3]
    for bad in (0, -3):
        with pytest.raises(ValidationError, match="pivot count"):
            pivot_sources(50, bad, 0)


def test_springrank_solves_linear_system(rng):
    g = random_digraph(30, 0.15, rng, weighted=True)
    vec = springrank(g, reg=1.0)
    a = dense_adjacency(g)
    dout, din = a.sum(axis=1), a.sum(axis=0)
    op = np.eye(30) + np.diag(dout + din) - (a + a.T)
    assert np.linalg.norm(op @ vec.scores - (dout - din)) < 1e-8


def test_springrank_two_node_case():
    g = Graph.from_edges(2, [(0, 1)], directed=True)
    vec = springrank(g, reg=2.0)
    assert vec.scores == pytest.approx([0.25, -0.25], abs=1e-9)


def test_springrank_symmetric_graph_is_zero(rng):
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)], directed=False)
    assert np.abs(springrank(g).scores).max() < 1e-9
    with pytest.raises(ValidationError):
        springrank(g, reg=0.0)


def test_centrality_vector_csv(tmp_path):
    vec = CentralityVector(np.array([0.5, 0.25]), "test")
    path = tmp_path / "scores.csv"
    vec.save_csv(path)
    assert path.read_text().splitlines() == ["node_id,score", "0,0.5", "1,0.25"]


# -- operators read from the stored CSRs, against the old builds ------------


def test_to_scipy_transpose_wraps_the_in_csr(rng):
    g = random_digraph(30, 0.2, rng, weighted=True)
    a_t = g.to_scipy_transpose()
    want = g.to_scipy().T.tocsr()
    assert np.shares_memory(a_t.data, g._in_w)
    for name in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(a_t, name), getattr(want, name))


def _outcome(fn, g):
    """Scores and metadata as bytes, or the exception a call raises."""
    try:
        out = fn(g)
    except ValidationError as exc:
        return "error", str(exc)
    if isinstance(out, CentralityVector):
        out = (out.scores, out.iterations, out.residual, out.converged)
    scores, iterations, residual, converged = out
    return scores.tobytes(), iterations, np.float64(residual).tobytes(), bool(converged)


SPECTRAL_REFERENCES = [
    (eigenvector_centrality, reference_eigenvector_centrality),
    (pagerank, reference_pagerank),
    (springrank, reference_springrank),
]


@given(g=small_graphs(weighted=True))
@example(g=Graph.from_edges(1, [], directed=True))
@example(g=Graph.from_edges(1, [(0, 0, 2.5)], directed=True))
@example(g=Graph.from_edges(1, [(0, 0, 0.0)], directed=False))
def test_spectral_centralities_bitwise_equal_old_operator_builds(g):
    for fn, reference in SPECTRAL_REFERENCES:
        assert _outcome(fn, g) == _outcome(reference, g), fn.__name__


def test_spectral_centralities_bitwise_on_larger_weighted_graphs(rng):
    # rows with many entries of spread magnitudes, zero weights and sinks
    for trial in range(12):
        directed = trial % 2 == 0
        n = int(rng.integers(50, 200))
        m = int(rng.integers(2 * n, 6 * n))
        src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
        w = 10.0 ** rng.uniform(-6, 6, m) * (rng.random(m) > 0.1)
        keep = ~np.isin(src, rng.choice(n, n // 10, replace=False)) if directed else slice(None)
        g = Graph(n, src[keep], dst[keep], w[keep], directed=directed)
        for fn, reference in SPECTRAL_REFERENCES:
            assert _outcome(fn, g) == _outcome(reference, g), (trial, fn.__name__)


# -- parameter validation -------------------------------------------------


@pytest.mark.parametrize(
    "fn, kwargs, name",
    [
        (springrank, {"reg": math.nan}, "reg"),
        (springrank, {"reg": math.inf}, "reg"),
        (springrank, {"reg": None}, "reg"),
        (springrank, {"tol": math.nan}, "tol"),
        (springrank, {"max_iter": 0}, "max_iter"),
        (springrank, {"max_iter": 2.5}, "max_iter"),
        (pagerank, {"gamma": None}, "gamma"),
        (pagerank, {"gamma": math.nan}, "gamma"),
        (pagerank, {"tol": math.nan}, "tol"),
        (pagerank, {"tol": -1e-9}, "tol"),
        (pagerank, {"max_iter": 0}, "max_iter"),
        (pagerank, {"max_iter": -3}, "max_iter"),
        (eigenvector_centrality, {"max_iter": 2.5}, "max_iter"),
        (eigenvector_centrality, {"max_iter": 0}, "max_iter"),
        (eigenvector_centrality, {"max_iter": -3}, "max_iter"),
        (eigenvector_centrality, {"max_iter": True}, "max_iter"),
        (eigenvector_centrality, {"tol": math.nan}, "tol"),
        (eigenvector_centrality, {"tol": "1e-9"}, "tol"),
    ],
)
def test_centrality_parameters_are_validated(fn, kwargs, name):
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    with pytest.raises(ValidationError, match=f"^{name}"):
        fn(g, **kwargs)


def test_centrality_parameters_accept_numpy_numbers():
    g = Graph.from_edges(3, [(0, 1), (1, 2), (2, 0)], directed=True)
    assert eigenvector_centrality(g, tol=np.float64(1e-10), max_iter=np.int64(50)).converged
    assert pagerank(g, gamma=np.float32(0.5), max_iter=np.int32(100)).converged
    assert springrank(g, reg=np.float64(2.0), max_iter=np.int64(10)).converged
