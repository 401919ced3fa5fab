import numpy as np
import pytest

from netsample.errors import ParseError, ValidationError
from netsample.graph import (
    Graph,
    LabeledPartition,
    NodeMapping,
    induced_subgraph,
    load_edge_list,
    load_labels,
    save_edge_list,
)

from conftest import dense_adjacency, random_digraph


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


def test_strength_vectors(rng):
    g = random_digraph(25, 0.15, rng, weighted=True)
    a = dense_adjacency(g)
    assert np.allclose(g.out_strength, a.sum(axis=1))
    assert np.allclose(g.in_strength, a.sum(axis=0))


def test_validation_rejects_bad_edges():
    with pytest.raises(ValidationError):
        Graph(2, [0], [5], [1.0], directed=True)
    with pytest.raises(ValidationError):
        Graph(2, [0], [1], [-1.0], directed=True)
    with pytest.raises(ValidationError):
        Graph(2, [0, 1], [1], [1.0], directed=True)


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


def test_undirected_save_writes_each_edge_once(tmp_path):
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=False)
    out = tmp_path / "u.txt"
    save_edge_list(g, out)
    lines = [ln for ln in out.read_text().splitlines() if ln]
    assert len(lines) == 2
    g2, _ = load_edge_list(out, directed=False)
    assert np.array_equal(dense_adjacency(g2), dense_adjacency(g))


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


def test_load_labels(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\ta\n1\tb\n0\ta\n")
    part = load_labels(path)
    assert part.label_of(0) == "a"
    assert part.label_of(99) == "unknown"
    assert part.categories == ["a", "b"]

    path.write_text("0\ta\n0\tb\n")
    with pytest.raises(ValidationError):
        load_labels(path)

    path.write_text("0 a\n")
    with pytest.raises(ParseError):
        load_labels(path)


def test_induced_subgraph_matches_dense_submatrix(rng):
    g = random_digraph(30, 0.2, rng, weighted=True)
    nodes = [3, 7, 11, 12, 20, 25]
    sub, mapping = induced_subgraph(g, nodes)
    a = dense_adjacency(g)
    expect = a[np.ix_(nodes, nodes)]
    assert np.array_equal(dense_adjacency(sub), expect)
    assert list(mapping.sub_to_full) == nodes


def test_induced_subgraph_validation(rng):
    g = random_digraph(10, 0.3, rng)
    with pytest.raises(ValidationError):
        induced_subgraph(g, [])
    with pytest.raises(ValidationError):
        induced_subgraph(g, [0, 99])


def test_node_mapping():
    m = NodeMapping(sub_to_full=np.array([5, 9, 11]))
    assert m.full_to_sub == {5: 0, 9: 1, 11: 2}
    assert list(m.to_full([2, 0])) == [11, 5]
    assert len(m) == 3


def test_partition_with_integer_labels():
    part = LabeledPartition({0: 1, 1: 0, 2: 1})
    assert part.categories == [0, 1]
    assert part.labels_for([0, 1, 5]) == [1, 0, "unknown"]
