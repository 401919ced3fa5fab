import ast
import copy
import math
import pickle
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netsample import SamplerConfig, graph
from netsample.centrality import betweenness
from netsample.errors import ParseError, ValidationError
from netsample.graph import (
    Graph,
    LabeledPartition,
    NodeMapping,
    induced_subgraph,
    load_edge_list,
    load_labels,
    node_ids,
    save_edge_list,
)
from netsample.samplers.baselines import sample_random_walk
from netsample.synth import SbmSpec, generate_sbm

from conftest import (
    assert_bitwise_equal,
    dense_adjacency,
    graph_arrays,
    random_digraph,
    random_undirected,
    reference_graph_arrays,
    reference_load_edge_list,
    reference_save_edge_list,
    small_graphs,
)


def test_out_in_adjacency_are_transposes(rng):
    g = random_digraph(40, 0.1, rng, weighted=True)
    fwd = {}
    for i in range(g.n):
        idx, w = g.out_neighbors(i)
        for j, wt in zip(idx, w):
            fwd[(i, int(j))] = float(wt)
    bwd = {}
    for j in range(g.n):
        idx, w = g.in_neighbors(j)
        for i, wt in zip(idx, w):
            bwd[(int(i), j)] = float(wt)
    assert fwd == bwd


def test_duplicate_edges_merge_by_weight_sum():
    g = Graph.from_edges(3, [(0, 1, 2.0), (0, 1, 3.0), (1, 2)], directed=True)
    idx, w = g.out_neighbors(0)
    assert list(idx) == [1]
    assert w[0] == 5.0
    assert g.num_edges == 2


def test_undirected_mirrors_edges_and_keeps_loops_once():
    g = Graph.from_edges(3, [(0, 1), (2, 2)], directed=False)
    a = dense_adjacency(g)
    assert a[0, 1] == 1.0 and a[1, 0] == 1.0
    assert a[2, 2] == 1.0
    assert g.num_edges == 3


def test_undirected_weights_symmetric_bitwise():
    # the pair appears in both orientations; each direction must sum the same way
    g = Graph.from_edges(2, [(0, 1, 0.25), (0, 1, 1e-7), (1, 0, 0.25)], directed=False)
    a = dense_adjacency(g)
    assert np.array_equal(a, a.T)


def test_strength_vectors(rng):
    g = random_digraph(25, 0.15, rng, weighted=True)
    a = dense_adjacency(g)
    assert np.allclose(g.out_strength, a.sum(axis=1))
    assert np.allclose(g.in_strength, a.sum(axis=0))


def test_strengths_bitwise_equal_add_at_reference(rng):
    for directed in (True, False):
        for _ in range(40):
            n = int(rng.integers(1, 40))
            m = int(rng.integers(0, 4 * n))
            src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
            src, dst = np.concatenate([src, src[: m // 3]]), np.concatenate([dst, dst[: m // 3]])
            w = rng.random(src.size) * 10.0 ** rng.uniform(-3, 3, src.size)
            g = Graph(n, src, dst, w, directed=directed)
            s, d, ew = g.edge_arrays()  # per target, sources ascend as in the in-lists
            out_ref = np.zeros(n)
            np.add.at(out_ref, s, ew)
            in_ref = np.zeros(n)
            np.add.at(in_ref, d, ew)
            assert g.out_strength.dtype == g.in_strength.dtype == np.float64
            assert np.array_equal(g.out_strength.view(np.int64), out_ref.view(np.int64))
            assert np.array_equal(g.in_strength.view(np.int64), in_ref.view(np.int64))


def test_build_bitwise_equals_lexsort_reference(rng):
    for directed in (True, False):
        for n in (0, 1, 2, 7, 40):
            for m in sorted({0, 1, 3 * n, 8 * n}) if n else (0,):
                src, dst = rng.integers(0, n, m), rng.integers(0, n, m)
                dup = rng.integers(0, max(m, 1), m // 2)  # weighted duplicate edges
                src, dst = np.concatenate([src, src[dup]]), np.concatenate([dst, dst[dup]])
                spread = rng.random(src.size) * 10.0 ** rng.uniform(-3, 3, src.size)
                for w in (np.ones(src.size), spread):
                    g = Graph(n, src, dst, w, directed=directed)
                    want = reference_graph_arrays(n, src, dst, w, directed)
                    assert_bitwise_equal(graph_arrays(g), want)
    # distinct (src, dst) pairs in increasing order, as a saved edge list holds
    # them, skip the build's sort; the draws above are not in that order
    for directed in (True, False):
        for n in (1, 2, 7, 40):
            key = np.unique(np.concatenate([[0, n * n - 1], rng.integers(0, n * n, 4 * n)]))
            src, dst = np.divmod(key, n)  # (0, 0) and (n - 1, n - 1) are self-loops
            w = rng.random(key.size)
            w[rng.integers(0, key.size)] = -0.0
            g = Graph(n, src, dst, w, directed=directed)
            want = reference_graph_arrays(n, src, dst, w, directed)
            assert_bitwise_equal(graph_arrays(g), want)


@pytest.mark.parametrize("directed", [True, False])
@pytest.mark.parametrize("order", [[0, 1, 2, 3, 4], [4, 2, 0, 3, 1]], ids=["sorted", "shuffled"])
def test_graph_holds_no_view_of_the_callers_arrays(directed, order):
    src = np.array([0, 0, 1, 2, 2])[order]
    dst = np.array([1, 2, 2, 0, 2])[order]
    w = np.array([0.5, 1.0, 2.0, 3.0, 4.0])[order]
    g = Graph(3, src, dst, w, directed=directed)
    want = {k: v.copy() for k, v in graph_arrays(g).items()}
    src[:], dst[:], w[:] = 1, 0, 9.0
    assert_bitwise_equal(graph_arrays(g), want)


def test_validation_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph(2, [0], [5], [1.0], directed=True)
    with pytest.raises(ValidationError):
        Graph(2, [0], [1], [-1.0], directed=True)
    with pytest.raises(ValidationError, match="exceeds the limit"):
        Graph(graph._MAX_NODES + 1, [], [], [], directed=True)
    # an undirected graph is mirrored after the checks, which see the input as given
    mismatched = [([0, 2], [1], [1.0]), ([0], [1, 2], [1.0, 1.0]), ([0, 1], [1, 2], [1.0])]
    for directed in (True, False):
        for src, dst, w in mismatched:
            with pytest.raises(ValidationError, match="^edge arrays must have equal length$"):
                Graph(3, src, dst, w, directed=directed)
    # ids are 1-D integer arrays, not floats or bools; weights are 1-D and real
    bad = [
        ("src", ([0.5], [1], [1.0])),
        ("src", ([True], [1], [1.0])),
        ("dst", ([0, 1], [np.int64(1), "1"], [1.0, 1.0])),
        ("src", ([[0]], [[1]], [[1.0]])),
        ("src", ([[0], [0, 1]], [1], [1.0])),
        ("src", (0, 1, 1.0)),
        ("w", ([0], [1], ["x"])),
        ("w", ([0], [1], [True])),
        ("w", ([0], [1], [1j])),
        ("w", ([0], [1], [None])),
    ]
    for name, (src, dst, w) in bad:
        with pytest.raises(ValidationError, match=f"^{name} must be a 1-D array of "):
            Graph(3, src, dst, w, directed=True)
    # an empty array of any dtype is no edges; np.asarray([]) is float64
    for empty in ([], np.array([], dtype=bool), np.array([], dtype="U1")):
        assert Graph(3, empty, empty, empty, directed=False).num_edges == 0
    wide = Graph(3, np.array([0], np.uint64), np.array([2], np.int8), [2], directed=True)
    assert wide.out_neighbors(0)[0].tolist() == [2] and wide.out_neighbors(0)[1].tolist() == [2.0]
    with pytest.raises(ValidationError, match="out of range"):
        Graph(3, np.array([2**63], np.uint64), [1], [1.0], directed=True)


def test_undirected_edge_given_high_to_low_is_stored_both_ways(tmp_path):
    g = Graph(3, [1], [0], [1.0], directed=False)
    assert g.out_neighbors(0)[0].tolist() == [1] and g.out_neighbors(1)[0].tolist() == [0]
    assert g.out_strength.tolist() == g.in_strength.tolist() == [1.0, 1.0, 0.0]
    save_edge_list(g, tmp_path / "g.txt")
    assert (tmp_path / "g.txt").read_text() == "0 1\n"
    g2, mapping = load_edge_list(tmp_path / "g.txt", directed=False)
    src, dst, _ = g2.edge_arrays()
    assert mapping.sub_to_full.tolist() == [0, 1]
    assert src.tolist() == [0, 1] and dst.tolist() == [1, 0]


@st.composite
def undirected_edges(draw):
    """Undirected edge arrays with pairs in both orientations, duplicates,
    self-loops and zero weights, in drawn order or presorted."""
    n = draw(st.integers(1, 12))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    if pairs:
        pairs += [(b, a) for a, b in draw(st.lists(st.sampled_from(pairs), max_size=2 * n))]
    if draw(st.booleans()):
        # distinct pairs in increasing (low, high) order skip the build's sort
        pairs = sorted({(min(p), max(p)) for p in pairs})
    flip = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = [(b, a) if f else (a, b) for (a, b), f in zip(pairs, flip)]
    weight = st.sampled_from([0.0, -0.0, 1e-7, 0.1, 1 / 3, 1.0, 2.5])
    w = draw(st.lists(weight, min_size=len(pairs), max_size=len(pairs)))
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    return n, src, dst, np.array(w)


@settings(max_examples=300)
@given(undirected_edges())
def test_undirected_build_bitwise_equals_mirrored_reference(case):
    n, src, dst, w = case
    g = Graph(n, src, dst, w, directed=False)
    assert_bitwise_equal(graph_arrays(g), reference_graph_arrays(n, src, dst, w, False))


def in_side_built(g):
    """The in-side names and the in-transitions a graph holds as attributes."""
    return (graph._IN_SIDE | {"_in_transition"}) & vars(g).keys()


def test_out_side_work_leaves_a_directed_graphs_in_side_unbuilt(tmp_path):
    g, _ = generate_sbm(SbmSpec((40, 40), 0.1, 0.02, directed=True, rng_seed=0))
    save_edge_list(g, tmp_path / "g.txt")
    loaded, _ = load_edge_list(tmp_path / "g.txt", directed=True)
    g.edge_arrays()
    g.to_scipy()
    betweenness(g)
    sub, _ = induced_subgraph(g, range(50))
    sample_random_walk(g, SamplerConfig(target_size=20, rng_seed=0))
    g.digest
    for h in (g, loaded, sub):
        assert not in_side_built(h)


IN_SIDE_READS = {
    "in_neighbors": lambda g: g.in_neighbors(0),
    "in_transitions": lambda g: g.in_transitions(0),
    "in_strength": lambda g: g.in_strength,
    "to_scipy_transpose": lambda g: g.to_scipy_transpose(),
}


@given(undirected_edges(), st.sampled_from(sorted(IN_SIDE_READS)))
def test_first_in_side_read_builds_the_reference_arrays(case, read):
    # the drawn edges hold self-loops, zero weights and parallel edges
    n, src, dst, w = case
    g = Graph(n, src, dst, w, directed=True)
    assert not in_side_built(g)
    IN_SIDE_READS[read](g)
    # a plain Graph, whose attribute reads carry no hook
    assert type(g) is Graph and graph._IN_SIDE <= vars(g).keys()
    assert_bitwise_equal(graph_arrays(g), reference_graph_arrays(n, src, dst, w, True))


@pytest.mark.parametrize("built", [False, True])
@pytest.mark.parametrize("copier", [copy.deepcopy, lambda g: pickle.loads(pickle.dumps(g))])
def test_directed_graph_copies_before_and_after_its_in_side_is_built(rng, copier, built):
    src, dst, w = rng.integers(0, 30, 150), rng.integers(0, 30, 150), rng.random(150)
    g = Graph(30, src, dst, w, directed=True)
    if built:
        g.in_neighbors(0)
    h = copier(g)
    assert (graph._IN_SIDE <= vars(h).keys()) == built == (type(h) is Graph)
    assert_bitwise_equal(graph_arrays(h), reference_graph_arrays(30, src, dst, w, True))


def test_in_side_read_on_a_half_made_graph_raises_attribute_error():
    half = graph._InSideUnbuilt.__new__(graph._InSideUnbuilt)
    for name in (*graph._IN_SIDE, "_out_w"):
        assert not hasattr(half, name)
    with pytest.raises(AttributeError, match="'_out_w'"):
        half.in_neighbors(0)


@given(small_graphs(weighted=True), st.lists(st.integers(0, 11), min_size=1))
def test_undirected_graph_stores_one_csr(g, nodes):
    sub, _ = induced_subgraph(g, [v for v in nodes if v < g.n] or [0])
    for h in (g, sub):
        shared = (h._in_indptr is h._out_indptr, h._in_src is h._out_dst, h._in_w is h._out_w)
        assert shared == (not h.directed,) * 3
        assert (h.in_strength is h.out_strength) == (not h.directed)


@pytest.mark.parametrize("n", [-1, 2.5, "3", True, None])
def test_graph_rejects_bad_node_count(n):
    with pytest.raises(ValidationError, match="n must be a non-negative integer"):
        Graph(n, [], [], [], directed=True)


@pytest.mark.parametrize("directed", ["no", 1, None])
def test_graph_rejects_non_bool_directed(directed):
    message = f"^directed must be true or false, got {re.escape(repr(directed))}$"
    with pytest.raises(ValidationError, match=message):
        Graph(2, [0], [1], [1.0], directed)
    with pytest.raises(ValidationError, match=message):
        Graph.from_edges(2, [(0, 1)], directed=directed)


@given(small_graphs(weighted=True))
def test_edge_arrays_rebuild_round_trips_bitwise(g):
    src, dst, w = g.edge_arrays()
    if not g.directed:
        keep = src <= dst
        src, dst, w = src[keep], dst[keep], w[keep]
    assert_bitwise_equal(graph_arrays(Graph(g.n, src, dst, w, g.directed)), graph_arrays(g))


@given(small_graphs(weighted=True))
def test_in_transitions_hold_the_quotients_of_the_in_lists(g):
    # the drawn weights include 0, so some nodes have out-edges but no strength
    src, dst, _ = g.edge_arrays()
    assert g.has_self_loop == bool(np.any(src == dst))
    for v in range(g.n):
        in_idx, in_w = g.in_neighbors(v)
        idx, p, live = g.in_transitions(v)
        assert np.array_equal(idx, in_idx)
        dout = g.out_strength[in_idx]
        assert np.array_equal(live, dout > 0)
        assert p[live].tobytes() == (in_w[live] / dout[live]).tobytes()
        assert not p[~live].any()
    p, live = g._in_transition
    assert p.shape == live.shape == g._in_src.shape
    assert p.nbytes + live.nbytes == 9 * g._in_src.size
    for a in (p, live):
        with pytest.raises(ValueError, match="read-only"):
            a[:1] = 0


@pytest.mark.parametrize(
    "bad",
    [(0,), (0, 1, 1.0, 2), (0, "x"), 5, (0.5, 1), (True, 1), (0, 1.0), (0, 1, "x"), (0, 1, True)],
)
def test_from_edges_names_bad_edge(bad):
    with pytest.raises(ValidationError, match=r"^edge 1 "):
        Graph.from_edges(3, [(0, 1), bad, (1, 2)], directed=True)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_weights_rejected(tmp_path, bad):
    with pytest.raises(ValidationError, match="NaN or infinite"):
        Graph(2, [0], [1], [bad], directed=True)
    with pytest.raises(ValidationError, match="NaN or infinite"):
        Graph.from_edges(3, [(0, 1, 1.0), (1, 2, bad)], directed=False)
    path = tmp_path / "g.txt"
    path.write_text(f"1 2\n2 3 {bad}\n")
    with pytest.raises(ValidationError, match=r"g\.txt:2: weight .* must be finite"):
        load_edge_list(path, directed=True)


def test_edge_list_round_trip(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# comment\n10 30\n30 20 2.5\n\n20 10\n")
    g, mapping = load_edge_list(path, directed=True)
    assert g.n == 3
    assert list(mapping.sub_to_full) == [10, 20, 30]
    # 10 -> 30 becomes 0 -> 2
    idx, w = g.out_neighbors(0)
    assert list(idx) == [2] and w[0] == 1.0
    idx, w = g.out_neighbors(2)
    assert list(idx) == [1] and w[0] == 2.5

    out = tmp_path / "g2.txt"
    save_edge_list(g, out, mapping)
    g2, mapping2 = load_edge_list(out, directed=True)
    assert np.array_equal(mapping2.sub_to_full, mapping.sub_to_full)
    assert np.array_equal(dense_adjacency(g2), dense_adjacency(g))


@st.composite
def sparse_id_edge_lists(draw):
    """Edges over sparse, non-contiguous original ids, optionally weighted."""
    ids = draw(st.lists(st.integers(0, 10**12), min_size=1, max_size=15, unique=True))
    weighted = draw(st.booleans())
    weight = st.sampled_from([0.0, 0.25, 1.0, 2.5, 1e-7]) if weighted else st.just(1.0)
    edges = draw(st.lists(st.tuples(st.sampled_from(ids), st.sampled_from(ids), weight), max_size=40))
    return edges, draw(st.booleans())


@given(sparse_id_edge_lists())
def test_edge_list_round_trip_property(tmp_path_factory, case):
    edges, directed = case
    used = sorted({v for a, b, _ in edges for v in (a, b)})
    g = Graph.from_edges(
        len(used), [(used.index(a), used.index(b), w) for a, b, w in edges], directed=directed
    )
    path = tmp_path_factory.mktemp("rt") / "g.txt"
    save_edge_list(g, path, NodeMapping(sub_to_full=np.array(used, dtype=np.int64)))
    g2, mapping = load_edge_list(path, directed=directed)
    assert np.all(np.diff(mapping.sub_to_full) > 0)
    assert mapping.sub_to_full.tolist() == used

    def full_edges(graph, m):
        src, dst, w = graph.edge_arrays()
        return sorted(zip(m.to_full(src).tolist(), m.to_full(dst).tolist(), w.tolist()))

    expect = full_edges(g, NodeMapping(sub_to_full=np.array(used, dtype=np.int64)))
    assert full_edges(g2, mapping) == expect


def test_undirected_save_writes_each_edge_once(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=False)
    out = tmp_path / "u.txt"
    save_edge_list(g, out)
    lines = [ln for ln in out.read_text().splitlines() if ln]
    assert len(lines) == 2
    g2, _ = load_edge_list(out, directed=False)
    assert np.array_equal(dense_adjacency(g2), dense_adjacency(g))


def writer_case(kind, block, rng):
    """A graph for ``test_save_edge_list_bytes_match_reference`` and the id
    mappings to write it with."""
    if kind == "extreme_ids":
        # 0, both int64 ends and ids of every digit count from 1 to 19, both signs
        mags = [10**k for k in range(19)] + [10**k - 1 for k in range(2, 19)]
        ids = np.unique(np.array([0, -(2**63), 2**63 - 1] + mags + [-m for m in mags]))
        src = np.arange(ids.size)
        g = Graph(ids.size, src, rng.permutation(src), np.ones(ids.size), True)
        return g, [NodeMapping(sub_to_full=ids)]
    if kind == "edge_weights":
        # the build stores -0.0 as 0.0
        w = [-0.0, 0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0)]
        g = random_digraph(50, 0.1, rng)
        src, dst, _ = g.edge_arrays()
        return Graph(g.n, src, dst, rng.choice(w, src.size), True), [None]
    if kind == "no_edges":
        return Graph(5, [], [], [], True), [None, NodeMapping(sub_to_full=np.arange(5) - 2)]
    if kind == "block_multiple":
        n = 1000
        pairs = rng.choice(n * n, 2 * block, replace=False)
        w = rng.choice([1.0, 0.5], pairs.size)
        g = Graph(n, pairs // n, pairs % n, w, True)
        assert g.num_edges == 2 * block
        return g, [None]
    if kind == "sparse_blocks":
        # more nodes than edges, and id blocks of the write block's size whose
        # digit counts and signs differ: short ids of both signs, then the
        # widest ids (16 digits and a minus sign), then 16-digit positives
        n = 2 * block + 3
        ids = np.concatenate(
            [np.arange(block) - block // 2, np.arange(block) - 10**15, 10**15 - np.arange(3)]
        )
        src = rng.choice(n, n // 2)
        g = Graph(n, src, rng.choice(n, src.size), rng.choice([1.0, 0.25], src.size), True)
        return g, [None, NodeMapping(sub_to_full=ids)]
    if kind == "undirected":
        g = random_undirected(50, 0.1, rng, weighted=True)
    else:
        g = random_digraph(50, 0.1, rng)
    if kind != "unit":  # mix weights that are and are not exactly 1.0
        src, dst, w = g.edge_arrays()
        w = rng.choice([1.0, 0.1, 1 / 3, 2.5, 1e-300, 7.0], src.size)
        g = Graph(g.n, src, dst, w, directed=g.directed)
    ids = np.sort(rng.choice(10**12, g.n, replace=False))
    return g, [None, NodeMapping(sub_to_full=ids)]


@pytest.mark.parametrize(
    "kind",
    [
        "weighted",
        "unit",
        "undirected",
        "extreme_ids",
        "edge_weights",
        "no_edges",
        "block_multiple",
        "sparse_blocks",
    ],
)
@pytest.mark.parametrize("block", [7, graph._WRITE_BLOCK])
def test_save_edge_list_bytes_match_reference(tmp_path, rng, monkeypatch, kind, block):
    monkeypatch.setattr(graph, "_WRITE_BLOCK", block)
    g, mappings = writer_case(kind, block, rng)
    for mapping in mappings:
        save_edge_list(g, tmp_path / "new.txt", mapping)
        reference_save_edge_list(g, tmp_path / "ref.txt", mapping)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "ref.txt").read_bytes()


def test_save_edge_list_rejects_a_mapping_that_does_not_fit(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    for ids in (np.array([5, 6]), np.array([1.5, 2.5, 3.5])):
        with pytest.raises(ValidationError, match="mapping must hold 3 integer ids"):
            save_edge_list(g, tmp_path / "g.txt", NodeMapping(sub_to_full=ids))
    assert not (tmp_path / "g.txt").exists()


def test_save_edge_list_memory_is_flat_in_the_edge_count(tmp_path, monkeypatch):
    block = 4096
    monkeypatch.setattr(graph, "_WRITE_BLOCK", block)
    n = 20_000
    src = np.repeat(np.arange(n), 10)
    dst = (src * 7919 + np.tile(np.arange(10), n) * 104_729) % n
    g = Graph(n, src, dst, np.where(src % 3 == 0, 0.5, 1.0), True)
    assert g.num_edges > 190_000

    def traced_peak(fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # the writer's one array over all edges is the edge sources
    sources = traced_peak(g.edge_src)
    save = traced_peak(lambda: save_edge_list(g, tmp_path / "g.txt"))
    # a block's buffers are a few times block * 8 bytes; one more array over
    # all edges (8 * num_edges) would exceed the margin by far
    assert save - sources < 16 * block * 8, (save, sources)


def test_build_and_load_peaks_stay_near_the_graphs_size(tmp_path):
    def peak_over_size(fn):
        """The graph ``fn`` returns, and its traced peak over the bytes of the
        arrays the graph holds when the trace ends."""
        tracemalloc.start()
        try:
            g, _ = fn()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return g, peak / sum(a.nbytes for a in vars(g).values() if isinstance(a, np.ndarray))

    spec = SbmSpec((20_000,), 5e-4, 0.0, directed=True, rng_seed=0)
    g, sbm_ratio = peak_over_size(lambda: generate_sbm(spec))
    assert g.num_edges > 190_000
    save_edge_list(g, tmp_path / "g.txt")
    loaded, load_ratio = peak_over_size(lambda: load_edge_list(tmp_path / "g.txt", True))
    # a directed graph holds its out-side, 16 bytes per edge, until its first
    # in-side read, and a build needs little more beside it than its input's
    # src and dst (16 bytes per edge); sorting presorted edges, copying them
    # and keeping the parsed rows alive took 3.2x and 2.6x of the whole graph
    assert not in_side_built(g) and not in_side_built(loaded)
    assert sbm_ratio < 2.0, sbm_ratio
    assert load_ratio < 2.0, load_ratio


def test_parse_error_carries_location(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1 2\n1 2 3 4\n")
    with pytest.raises(ParseError) as exc:
        load_edge_list(path, directed=True)
    assert exc.value.line_no == 2

    path.write_text("1 x\n")
    with pytest.raises(ParseError):
        load_edge_list(path, directed=True)

    path.write_text("1 2 -1.0\n")
    with pytest.raises(ValidationError):
        load_edge_list(path, directed=True)


@pytest.mark.parametrize("bad_id", ["9223372036854775808", "-9223372036854775809", "1" + "0" * 30])
def test_load_rejects_id_beyond_int64(tmp_path, bad_id):
    path = tmp_path / "big.txt"
    path.write_text(f"# header\n1 2\n3 {bad_id}\n4 5\n")
    with pytest.raises(ParseError, match=r"big\.txt:3: node id outside the int64 range") as exc:
        load_edge_list(path, directed=True)
    assert exc.value.line_no == 3


def test_load_accepts_int64_extremes(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("-9223372036854775808 9223372036854775807\n")
    g, mapping = load_edge_list(path, directed=True)
    assert mapping.sub_to_full.tolist() == [-(2**63), 2**63 - 1]
    assert g.num_edges == 1


@pytest.mark.parametrize(
    "data,line_no",
    [
        (b"\xff1 2\n", 1),
        (b"1 2\r\n3 4\r5 6\n7 \xff8\n9 10\n", 4),
        (b"# caf\xc3\xa9\n1 2\n3 4 \xc3\n", 3),
    ],
)


def test_load_rejects_invalid_utf8_naming_the_line(tmp_path, data, line_no):
    path = tmp_path / "bin.txt"
    path.write_bytes(data)
    with pytest.raises(ParseError, match=rf"bin\.txt:{line_no}: not valid UTF-8") as exc:
        load_edge_list(path, directed=True)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize(
    "text,one_pass",
    [
        ("1 2\n3 4\n", True),
        ("# Nodes: 3 Edges: 2\n# FromNodeId\tToNodeId\r\n1\t2\r\n3\t4\r\n", True),
        ("1 2 0.5\n  # indented # comment\n3 4 2\n", True),
        ("+5 -3\n\n \t\n", True),
        ("", True),
        ("# only a comment\n", True),
        ("1 2 # inline\n", False),
        ("1 2\r3 4\r", False),
        ("1 2 nan\n", False),
        ("1 2 -1\n", False),
        ("1 2\n3 4 5\n", False),
        ("1_000 2\n", False),
    ],
)


def test_one_pass_parse_takes_only_files_the_line_scan_reads_alike(tmp_path, text, one_pass):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    assert (graph._parse_columns(path) is not None) == one_pass


_SEPS = [" ", "\t", "\xa0", "  ", " \t", "\x0c"]
_ODD_IDS = ["+5", "007", "-0", "1_000", "١٢"]
_ODD_WEIGHTS = ["2", "-0.0", ".5", "5.", "1e-7", "1_0.5", "٣"]
_BIG_IDS = ["9223372036854775808", "-9223372036854775809"]
_BAD_LINES = ["1 2 nan", "1 2 inf", "1 2 -inf", "3 4 -1", "1 2 # inline", "1", "1 2 3 4"]
_BAD_LINES += ["x 2", "1.0 2", "1 2 0x1p3"] + [f"{big} 3" for big in _BIG_IDS]


@st.composite
def edge_list_files(draw):
    """Edge-list text: plain files the one-pass parse takes, files in syntax
    it must leave to the line scan, and either with a few bad lines."""
    plain = draw(st.booleans())
    ids = (st.integers(-(2**63), 2**63 - 1) | st.integers(0, 30)).map(str)
    weights = st.floats(0, 1e300).map(repr)
    if plain:
        seps, ends = st.sampled_from(_SEPS[:2]), st.sampled_from(["\n", "\r\n"])
        widths = st.just(draw(st.sampled_from([2, 3])))
    else:
        ids, weights = ids | st.sampled_from(_ODD_IDS), weights | st.sampled_from(_ODD_WEIGHTS)
        seps, ends = st.sampled_from(_SEPS), st.sampled_from(["\n", "\r\n", "\r"])
        widths = st.sampled_from([2, 3])

    @st.composite
    def data_line(draw):
        fields = [draw(ids), draw(ids)] + [draw(weights) for _ in range(draw(widths) - 2)]
        pad = st.sampled_from(["", " ", "\t"])
        return draw(pad) + draw(seps).join(fields) + draw(pad)

    other = st.sampled_from(["", "   ", "\t", "# comment", "  # indented", "#", "# 1 2 3"])
    lines = draw(st.lists(data_line() | other, max_size=25))
    for bad in draw(st.lists(st.sampled_from(_BAD_LINES), max_size=2)):
        lines.insert(draw(st.integers(0, len(lines))), bad)
    text = "".join(line + draw(ends) for line in lines)
    if lines and draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text, draw(st.booleans())


def _outcome(load, path, directed):
    try:
        return load(path, directed=directed)
    except Exception as exc:  # the error is the outcome compared
        return exc


def _error_line(exc, path) -> int:
    if isinstance(exc, OverflowError):  # raised after the whole file was read
        return math.inf
    return int(re.match(rf"{re.escape(str(path))}:(\d+):", str(exc)).group(1))


@settings(max_examples=400)
@given(edge_list_files())
def test_load_edge_list_matches_line_reference(tmp_path_factory, case):
    text, directed = case
    path = tmp_path_factory.mktemp("diff") / "g.txt"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(reference_load_edge_list, path, directed)
    got = _outcome(load_edge_list, path, directed)
    with open(path, encoding="utf-8") as fh:
        big = [i for i, ln in enumerate(fh, start=1) if ln.split()[:1] in ([b] for b in _BIG_IDS)]
    if big and _error_line(want, path) > big[0]:
        # the reference reads past an id beyond int64; the loader stops there
        assert isinstance(got, ParseError) and got.line_no == big[0]
        assert str(got) == f"{path}:{big[0]}: node id outside the int64 range"
    elif isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
    else:
        assert not isinstance(got, Exception), got
        (g, mapping), (g_ref, mapping_ref) = got, want
        assert g.n == g_ref.n and g.directed == g_ref.directed
        assert mapping.sub_to_full.dtype == mapping_ref.sub_to_full.dtype
        assert np.array_equal(mapping.sub_to_full, mapping_ref.sub_to_full)
        assert_bitwise_equal(graph_arrays(g), graph_arrays(g_ref))


_INT64_IDS = st.integers(-(2**63), 2**63 - 1)


@given(
    st.lists(_INT64_IDS | st.integers(-5, 30), max_size=40)
    | st.tuples(_INT64_IDS, st.lists(st.integers(0, 25), min_size=1, max_size=40)).map(
        lambda c: [max(-(2**63), min(2**63 - 1, c[0] + d)) for d in c[1]]
    )
)
def test_dense_ids_equal_unique(ids):
    ids = np.array(ids, dtype=np.int64)
    want = np.unique(ids, return_inverse=True)
    got = graph._dense_ids(ids.copy())
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a, b)


def test_load_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\ta\n1\tb\n0\ta\n")
    mapping = NodeMapping(sub_to_full=np.arange(3))
    part = load_labels(path, mapping)
    assert part.label_of(0) == "a"
    assert part.label_of(2) == "unknown"
    assert part.categories == ("a", "b")

    path.write_text("0\ta\n0\tb\n")
    with pytest.raises(ValidationError, match=r"labels.txt:2: node 0 relabeled 'a' -> 'b'"):
        load_labels(path, mapping)

    path.write_text("0 a\n")
    with pytest.raises(ParseError):
        load_labels(path, mapping)


def test_load_labels_reads_the_edge_list_ids(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("-5\ta\n40\tb\n7\tc\n")
    part = load_labels(path, NodeMapping(sub_to_full=np.array([-5, 3, 7, 40])))
    assert [part.label_of(v) for v in range(4)] == ["a", "unknown", "c", "b"]


def test_load_labels_rejects_an_id_absent_from_the_edge_list(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("1\ta\n\n4\tb\n")
    mapping = NodeMapping(sub_to_full=np.array([1, 2, 3]))
    with pytest.raises(ValidationError, match=r"labels.txt:3: node 4 is not in the edge list"):
        load_labels(path, mapping)
    path.write_text(f"1\ta\n{2**70}\tb\n")
    with pytest.raises(ParseError, match=r"labels.txt:2: expected an int64 node id"):
        load_labels(path, mapping)


def test_induced_subgraph_matches_dense_submatrix(rng):
    g = random_digraph(30, 0.2, rng, weighted=True)
    nodes = [3, 7, 11, 12, 20, 25]
    sub, mapping = induced_subgraph(g, nodes)
    a = dense_adjacency(g)
    expect = a[np.ix_(nodes, nodes)]
    assert np.array_equal(dense_adjacency(sub), expect)
    assert list(mapping.sub_to_full) == nodes


@given(small_graphs(weighted=True), st.data())
def test_induced_subgraph_keeps_exactly_inner_edges(g, data):
    nodes = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
    sub, mapping = induced_subgraph(g, nodes)
    inside = sorted(set(nodes))
    assert mapping.sub_to_full.tolist() == inside
    assert sub.n == len(inside) and sub.directed == g.directed
    src, dst, w = g.edge_arrays()
    keep = np.isin(src, inside) & np.isin(dst, inside)
    want = list(zip(src[keep].tolist(), dst[keep].tolist(), w[keep].tolist()))
    s, d, sw = sub.edge_arrays()
    got = list(zip(mapping.to_full(s).tolist(), mapping.to_full(d).tolist(), sw.tolist()))
    assert got == want  # both in (src, dst) order, since the id map is increasing


@st.composite
def csr_and_rows(draw):
    """A CSR ``indptr`` with empty rows, and rows to read from it:
    repeated, unsorted, or none at all."""
    counts = draw(st.lists(st.integers(0, 4), min_size=1, max_size=12))
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    rows = draw(st.lists(st.integers(0, len(counts) - 1), max_size=15))
    return indptr, np.array(rows, dtype=np.int64)


@given(csr_and_rows())
def test_csr_rows_equals_per_row_concatenation(case):
    indptr, rows = case
    owner, pos = graph.csr_rows(indptr, rows)
    ranges = [np.arange(indptr[r], indptr[r + 1]) for r in rows.tolist()]
    want_pos = np.concatenate([np.zeros(0, dtype=np.int64), *ranges])
    want_owner = np.repeat(np.arange(rows.size), [len(r) for r in ranges])
    assert owner.dtype == pos.dtype == np.int64
    assert np.array_equal(pos, want_pos)
    assert np.array_equal(owner, want_owner)


def test_induced_subgraph_validation(rng):
    g = random_digraph(10, 0.3, rng)
    with pytest.raises(ValidationError):
        induced_subgraph(g, [])
    with pytest.raises(ValidationError):
        induced_subgraph(g, [0, 99])
    for bad in ([0.5, 1], ["a"], [True], [0, None]):
        with pytest.raises(ValidationError, match="^node id must be a 1-D array of integer node ids"):
            induced_subgraph(g, bad)
    sub, mapping = induced_subgraph(g, np.array([3, 1], dtype=np.uint8))
    assert mapping.sub_to_full.tolist() == [1, 3]


def test_node_mapping():
    m = NodeMapping(sub_to_full=np.array([5, 9, 11]))
    assert list(m.to_full([2, 0])) == [11, 5]
    assert list(m.to_full(v for v in (1,))) == [9]
    assert len(m) == 3
    for bad, message in [
        ([-1], "^subgraph id -1 not in 0..2$"),
        ([3], "^subgraph id 3 not in 0..2$"),
        ([1.5], "^subgraph id must be a 1-D array of integer node ids"),
        (["a"], "^subgraph id must be a 1-D array of integer node ids"),
    ]:
        with pytest.raises(ValidationError, match=message):
            m.to_full(bad)


def test_node_ids_checks_type_shape_and_range():
    got = node_ids("node id", np.array([2, 0], dtype=np.uint8), 3)
    assert got.dtype == np.int64 and got.tolist() == [2, 0]
    assert node_ids("node id", {1}, 3).tolist() == [1]
    assert node_ids("node id", [], 0).dtype == np.int64
    with pytest.raises(ValidationError, match=r"^node id 5 not in 0\.\.2$"):
        node_ids("node id", [0, 5, -1], 3)
    with pytest.raises(ValidationError, match=r"^node id must be a 1-D array of integer node ids, got \[\[0\], \[1, 2\]\]"):
        node_ids("node id", [[0], [1, 2]], 3)


def test_partition_with_integer_labels():
    part = LabeledPartition.from_labels(6, [0, 1, 2], [1, 0, 1])
    assert part.categories == (0, 1)
    assert [part.label_of(v) for v in (0, 1, 5)] == [1, 0, "unknown"]


def test_core_modules_import_nothing_from_samplers():
    root = Path(graph.__file__).parent
    for name in ("graph", "synth", "centrality", "metrics", "errors"):
        tree = ast.parse((root / f"{name}.py").read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                parts = (node.module or "").split(".") + [a.name for a in node.names]
            elif isinstance(node, ast.Import):
                parts = [p for a in node.names for p in a.name.split(".")]
            else:
                continue
            assert "samplers" not in parts, f"{name}.py: {ast.unparse(node)}"
