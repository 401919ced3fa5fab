import hashlib
import json

import numpy as np
import pytest

from netsample.errors import ValidationError
from netsample.graph import LabeledPartition
from netsample.synth import (
    SbmSpec,
    _bernoulli_positions,
    _offdiag_unrank,
    _triangle_unrank,
    generate_sbm,
    plant_attributes,
)

from conftest import dense_adjacency


def test_spec_validation():
    with pytest.raises(ValidationError):
        SbmSpec(block_sizes=(), p_in=0.1, p_out=0.1)
    with pytest.raises(ValidationError):
        SbmSpec(block_sizes=(2, 0), p_in=0.1, p_out=0.1)
    with pytest.raises(ValidationError):
        SbmSpec(block_sizes=(2, 2), p_in=1.5, p_out=0.1)
    assert SbmSpec(block_sizes=(2, 3), p_in=0.1, p_out=0.1).n == 5


GOOD_SBM = {"block_sizes": [2, 3], "p_in": 0.1, "p_out": 0.1}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"pin": 0.1}, "SBM spec: unknown key(s) ['pin']; allowed: ['block_sizes', 'p_in',"),
        ({"p_in": None}, "p_in must be a real number in [0, 1], got None"),
        ({"p_in": "0.1"}, "p_in must be a real number in [0, 1], got '0.1'"),
        ({"p_in": True}, "p_in must be a real number in [0, 1], got True"),
        ({"p_out": float("nan")}, "p_out must be a real number in [0, 1], got nan"),
        ({"p_out": -0.1}, "p_out must be a real number in [0, 1], got -0.1"),
        ({"rng_seed": 1.5}, "rng_seed must be an integer >= 0, got 1.5"),
        ({"rng_seed": -1}, "rng_seed must be an integer >= 0, got -1"),
        ({"rng_seed": True}, "rng_seed must be an integer >= 0, got True"),
        ({"directed": "yes"}, "directed must be true or false, got 'yes'"),
        ({"directed": 1}, "directed must be true or false, got 1"),
        ({"block_sizes": [2.7, 3]}, "block_sizes must be a non-empty list of integers >= 1, got [2.7, 3]"),
        ({"block_sizes": [2, 0]}, "block_sizes must be a non-empty list of integers >= 1, got [2, 0]"),
        ({"block_sizes": [True, 3]}, "got [True, 3]"),
        ({"block_sizes": []}, "block_sizes must be a non-empty list of integers >= 1, got []"),
        ({"block_sizes": 5}, "block_sizes must be a non-empty list of integers >= 1, got 5"),
        ({"block_sizes": "23"}, "got '23'"),
    ],
)
def test_spec_from_dict_names_the_bad_field(change, message):
    with pytest.raises(ValidationError) as exc:
        SbmSpec.from_dict({**GOOD_SBM, **change})
    assert message in str(exc.value)


def test_spec_from_dict_rejects_non_mappings_and_missing_keys():
    for bad in (None, [2, 3], "sbm.yaml", 3):
        with pytest.raises(ValidationError, match="an SBM spec must be a mapping"):
            SbmSpec.from_dict(bad)
    with pytest.raises(ValidationError, match=r"missing key\(s\) \['p_out'\]"):
        SbmSpec.from_dict({"block_sizes": [2], "p_in": 0.1})


def test_spec_accepts_numpy_numbers():
    spec = SbmSpec(
        block_sizes=np.array([4, 5]),
        p_in=np.float32(0.5),
        p_out=np.float64(0.25),
        directed=np.bool_(True),
        rng_seed=np.int64(3),
    )
    assert spec.block_sizes == (4, 5) and all(type(b) is int for b in spec.block_sizes)
    g, _ = generate_sbm(spec)
    want, _ = generate_sbm(SbmSpec.from_dict({"block_sizes": [4, 5], "p_in": 0.5, "p_out": 0.25,
                                              "directed": True, "rng_seed": 3}))
    assert np.array_equal(dense_adjacency(g), dense_adjacency(want))


def test_triangle_unrank_full_enumeration():
    for n in (2, 3, 5, 9):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        k = np.arange(len(pairs), dtype=np.int64)
        i, j = _triangle_unrank(k, n)
        assert list(zip(i.tolist(), j.tolist())) == pairs


def test_offdiag_unrank_full_enumeration():
    for n in (2, 4, 6):
        pairs = [(i, j) for i in range(n) for j in range(n) if j != i]
        k = np.arange(len(pairs), dtype=np.int64)
        i, j = _offdiag_unrank(k, n)
        assert list(zip(i.tolist(), j.tolist())) == pairs


def test_bernoulli_positions_edge_cases(rng):
    assert _bernoulli_positions(0, 0.5, rng).size == 0
    assert _bernoulli_positions(10, 0.0, rng).size == 0
    assert np.array_equal(_bernoulli_positions(5, 1.0, rng), np.arange(5))
    pos = _bernoulli_positions(10000, 0.05, rng)
    assert np.all(np.diff(pos) > 0)
    assert pos.min() >= 0 and pos.max() < 10000


def test_bernoulli_positions_join_later_geometric_batches():
    sizes = []

    class UnitSteps:
        """A generator whose every geometric draw is 1, far below 1 / p."""

        def geometric(self, p, size):
            sizes.append(size)
            return np.ones(size, dtype=np.int64)

    got = _bernoulli_positions(1000, 0.5, UnitSteps())
    assert got.dtype == np.int64 and np.array_equal(got, np.arange(1000))
    assert len(sizes) == 5


def test_bernoulli_positions_mean_within_3_sigma(rng):
    count, p = 200_000, 0.01
    hits = _bernoulli_positions(count, p, rng).size
    sigma = np.sqrt(count * p * (1 - p))
    assert abs(hits - count * p) < 3 * sigma


def test_sbm_deterministic():
    spec = SbmSpec(block_sizes=(20, 30), p_in=0.2, p_out=0.05, rng_seed=7)
    g1, p1 = generate_sbm(spec)
    g2, p2 = generate_sbm(spec)
    assert np.array_equal(dense_adjacency(g1), dense_adjacency(g2))
    assert np.array_equal(p1.codes, p2.codes) and p1.categories == p2.categories


# sha256 of out_indptr, out_dst, out_w and the block labels, recorded before
# the generator worked in place and the build skipped sorting presorted edges
SBM_DIGESTS = [
    ((400,), 0.03, 0.0, True, 5,
     "40bf8b6c6dee739a65af9cf8dc4ae8bc72ef049a535738060a2e3d90f6b4c177"),
    ((100, 150, 200), 0.05, 0.01, True, 1,
     "a607c43fadeec03e421d9ebff17c554d7c119f3fa54c506a64537cc6fd519b6d"),
    ((100, 150, 200), 0.05, 0.01, False, 2,
     "c729aaa756c037c5d09fbc1b3960570bcc0b9c89ade927307273386defa25dc7"),
    ((40, 30), 1.0, 0.2, True, 3,
     "dacaa989b8e8f0c6d8ba5dba110388a86ac0b098b713413fac210fe7d9030c77"),
    ((40, 30), 1.0, 0.2, False, 4,
     "18ceb366934f6648f45293f0c9c1829494a10ebb7d73e18823cc2071e3992728"),
]


@pytest.mark.parametrize("sizes, p_in, p_out, directed, seed, digest", SBM_DIGESTS)
def test_sbm_output_is_pinned(sizes, p_in, p_out, directed, seed, digest):
    g, partition = generate_sbm(SbmSpec(sizes, p_in, p_out, directed=directed, rng_seed=seed))
    h = hashlib.sha256()
    for a in (g._out_indptr, g._out_dst, g._out_w):
        h.update(a.dtype.str.encode())
        h.update(a.tobytes())
    h.update(json.dumps([partition.label_of(v) for v in range(g.n)]).encode())
    assert h.hexdigest() == digest


def test_sbm_degenerate_probabilities_give_disjoint_cliques():
    g, part = generate_sbm(SbmSpec(block_sizes=(2, 2), p_in=1.0, p_out=0.0))
    a = dense_adjacency(g)
    expect = np.zeros((4, 4))
    expect[0, 1] = expect[1, 0] = 1.0
    expect[2, 3] = expect[3, 2] = 1.0
    assert np.array_equal(a, expect)
    assert [part.label_of(i) for i in range(4)] == [0, 0, 1, 1]


def test_sbm_no_self_loops_and_symmetric_when_undirected():
    g, _ = generate_sbm(SbmSpec(block_sizes=(30, 30), p_in=0.3, p_out=0.1, rng_seed=3))
    a = dense_adjacency(g)
    assert np.all(np.diag(a) == 0)
    assert np.array_equal(a, a.T)


def test_sbm_directed_draws_directions_independently():
    g, _ = generate_sbm(
        SbmSpec(block_sizes=(40, 40), p_in=0.3, p_out=0.1, directed=True, rng_seed=1)
    )
    a = dense_adjacency(g)
    assert np.all(np.diag(a) == 0)
    assert not np.array_equal(a, a.T)


def test_sbm_expected_edge_count_within_3_sigma():
    sizes = (60, 60, 80)
    p_in, p_out = 0.1, 0.02
    spec = SbmSpec(block_sizes=sizes, p_in=p_in, p_out=p_out, rng_seed=11)
    g, _ = generate_sbm(spec)
    within_pairs = sum(b * (b - 1) // 2 for b in sizes)
    cross_pairs = (
        sum(a * b for i, a in enumerate(sizes) for b in sizes[i + 1 :])
    )
    mean = within_pairs * p_in + cross_pairs * p_out
    var = within_pairs * p_in * (1 - p_in) + cross_pairs * p_out * (1 - p_out)
    observed = g.num_edges / 2  # undirected edges stored twice
    assert abs(observed - mean) < 3 * np.sqrt(var)


def test_plant_attributes_noise_extremes():
    _, part = generate_sbm(SbmSpec(block_sizes=(10, 10), p_in=0.5, p_out=0.1))
    clean = plant_attributes(part, noise=0.0, labels=["a", "b"])
    assert all(
        clean.label_of(v) == ("a" if part.label_of(v) == 0 else "b") for v in range(20)
    )
    flipped = plant_attributes(part, noise=1.0, labels=["a", "b"])
    assert all(
        flipped.label_of(v) == ("b" if part.label_of(v) == 0 else "a") for v in range(20)
    )


def test_plant_attributes_validation():
    _, part = generate_sbm(SbmSpec(block_sizes=(5, 5), p_in=0.5, p_out=0.1))
    with pytest.raises(ValidationError):
        plant_attributes(part, noise=0.5, labels=["only"])
    with pytest.raises(ValidationError):
        plant_attributes(part, noise=-0.1, labels=["a", "b"])


def test_plant_attributes_skips_unlabelled_nodes():
    # nodes 1, 3 and 4 are unlabelled: they stay unknown and draw no numbers,
    # so the labelled nodes get what a partition of just them gets
    part = LabeledPartition.from_labels(6, [0, 2, 5], [0, 1, 0])
    dense = LabeledPartition.from_labels(3, [0, 1, 2], [0, 1, 0])
    for seed in range(10):
        got = plant_attributes(part, noise=0.5, labels=["a", "b", "c"], rng_seed=seed)
        want = plant_attributes(dense, noise=0.5, labels=["a", "b", "c"], rng_seed=seed)
        assert [got.label_of(v) for v in (1, 3, 4)] == ["unknown"] * 3
        assert [got.label_of(v) for v in (0, 2, 5)] == [want.label_of(v) for v in range(3)]
