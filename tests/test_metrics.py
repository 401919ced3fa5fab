import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from netsample.errors import (
    DegenerateEntropyWarning,
    UndefinedCorrelationError,
    ValidationError,
)
from netsample.graph import LabeledPartition
from netsample.metrics import (
    CategoricalDistribution,
    binary_entropy,
    entropy_ratio,
    kendall_tau,
    kl_divergence,
    label_histogram,
)

from conftest import brute_kendall_tau_b, reference_kendall_tau, reference_label_histogram


def test_kendall_perfect_agreement_and_reversal():
    x = [1.0, 2.0, 3.0, 4.0]
    assert kendall_tau(x, x) == pytest.approx(1.0)
    assert kendall_tau(x, x[::-1]) == pytest.approx(-1.0)


def test_kendall_matches_pair_oracle(rng):
    for _ in range(20):
        x = rng.integers(0, 6, size=40).astype(float)
        y = rng.integers(0, 6, size=40).astype(float)
        assert kendall_tau(x, y) == pytest.approx(
            brute_kendall_tau_b(x, y), abs=1e-12
        )


def test_kendall_continuous_matches_oracle(rng):
    x = rng.random(120)
    y = 0.4 * x + rng.random(120)
    assert kendall_tau(x, y) == pytest.approx(brute_kendall_tau_b(x, y), abs=1e-12)


def test_kendall_errors():
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(UndefinedCorrelationError):
        kendall_tau([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
    with pytest.raises(ValidationError):
        kendall_tau([1.0], [2.0])
    with pytest.raises(ValidationError):
        kendall_tau([1.0, 2.0], [1.0, 2.0, 3.0])
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValidationError, match="finite"):
            kendall_tau([1.0, bad, 2.0, 3.0], [1.0, 2.0, 3.0, 4.0])
        with pytest.raises(ValidationError, match="finite"):
            kendall_tau([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, bad, 3.0])


def _same_tau_or_both_undefined(x, y):
    try:
        expect = reference_kendall_tau(x, y)
    except UndefinedCorrelationError:
        with pytest.raises(UndefinedCorrelationError):
            kendall_tau(x, y)
        return
    got = kendall_tau(x, y)
    assert np.float64(got).view(np.int64) == np.float64(expect).view(np.int64)


@st.composite
def tie_heavy_pairs(draw):
    """Equal-length vectors over a few values, -0.0 and 0.0 among them."""
    n = draw(st.integers(2, 300))
    vals = st.lists(st.sampled_from([-2.0, -0.0, 0.0, 0.5, 1.0, 3.0]), min_size=n, max_size=n)
    return draw(vals), draw(vals)


@given(tie_heavy_pairs())
def test_kendall_bitwise_equals_reference(xy):
    _same_tau_or_both_undefined(*xy)


def test_kendall_bitwise_equals_reference_large_tied(rng):
    # n = 5000 runs thirteen merge levels; rounding gives long tie runs, and
    # the distinct case reaches the top dense rank n - 1
    n = 5000
    x = np.round(rng.random(n), 2)
    y = np.round(0.5 * x + rng.random(n), 1)
    _same_tau_or_both_undefined(x, y)
    _same_tau_or_both_undefined(x, -y)
    _same_tau_or_both_undefined(rng.permutation(n), rng.random(n))


def test_categorical_distribution():
    d = CategoricalDistribution.from_counts(["a", "b"], [3, 1])
    assert d.prob_of("a") == 0.75
    with pytest.raises(ValidationError):
        CategoricalDistribution(("a",), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        CategoricalDistribution(("a", "b"), np.array([0.7, 0.7]))
    with pytest.raises(ValidationError):
        CategoricalDistribution.from_counts(["a"], [0])


def test_kl_divergence_basics():
    p = CategoricalDistribution(("a", "b"), np.array([0.5, 0.5]))
    assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-10)
    q = CategoricalDistribution(("a", "b"), np.array([0.9, 0.1]))
    expect = 0.5 * math.log(0.5 / 0.9) + 0.5 * math.log(0.5 / 0.1)
    assert kl_divergence(p, q) == pytest.approx(expect, rel=1e-9)
    assert kl_divergence(p, q) != kl_divergence(q, p)  # asymmetric by design


def test_kl_divergence_smoothing_keeps_missing_category_finite():
    p = CategoricalDistribution(("a", "b"), np.array([0.5, 0.5]))
    q = CategoricalDistribution(("a", "b"), np.array([1.0, 0.0]))
    v = kl_divergence(p, q)
    assert math.isfinite(v) and v > 1.0


def test_kl_divergence_label_set_mismatch():
    p = CategoricalDistribution(("a", "b"), np.array([0.5, 0.5]))
    q = CategoricalDistribution(("a", "c"), np.array([0.5, 0.5]))
    with pytest.raises(ValidationError):
        kl_divergence(p, q)


def test_binary_entropy():
    assert binary_entropy(0.5) == pytest.approx(math.log(2))
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.2) == binary_entropy(0.8)


def test_entropy_ratio():
    full = ["s"] * 3 + ["t"] * 7
    sample = ["s"] * 5 + ["t"] * 5
    expect = binary_entropy(0.5) / binary_entropy(0.3)
    assert entropy_ratio(sample, full, "s") == pytest.approx(expect)
    assert entropy_ratio(full, full, "s") == pytest.approx(1.0)


def test_entropy_ratio_degenerate_sample_warns():
    full = ["s"] * 3 + ["t"] * 7
    with pytest.warns(DegenerateEntropyWarning):
        assert entropy_ratio(["s", "s"], full, "s") == 0.0
    with pytest.warns(DegenerateEntropyWarning):
        assert entropy_ratio(["t", "t"], full, "s") == 0.0


def test_entropy_ratio_degenerate_full_graph_is_error():
    with pytest.raises(ValidationError):
        entropy_ratio(["s"], ["s", "s"], "s")
    with pytest.raises(ValidationError):
        entropy_ratio([], ["s", "t"], "s")


def test_label_histogram_keeps_zero_count_categories():
    part = LabeledPartition.from_labels(4, [0, 1, 2, 3], ["a", "b", "b", "c"])
    d = label_histogram([1, 2], part)
    assert d.labels == ("a", "b", "c")
    assert list(d.probs) == [0.0, 1.0, 0.0]


def test_label_histogram_unknown_nodes():
    part = LabeledPartition.from_labels(6, [0], ["a"])
    d = label_histogram([0, 5], part)
    assert d.labels == ("a", "unknown")
    assert list(d.probs) == [0.5, 0.5]
    # the partition has unlabelled nodes, so every histogram has their bin
    d = label_histogram([0], part)
    assert d.labels == ("a", "unknown")
    assert list(d.probs) == [1.0, 0.0]
    full = LabeledPartition.from_labels(2, [0, 1], ["a", "b"])
    assert label_histogram([0], full).labels == ("a", "b")
    shared = LabeledPartition.from_labels(4, [0, 1, 2], ["a", "unknown", "b"])
    assert label_histogram([0], shared).labels == ("a", "b", "unknown")
    with pytest.raises(ValidationError):
        label_histogram([], part)


@given(st.data())
def test_label_histogram_matches_per_node_loop(data):
    n = data.draw(st.integers(1, 12))
    label = data.draw(st.sampled_from([
        st.integers(-2, 3), st.sampled_from(["a", "b", "unknown", "Z"]),
    ]))
    assignments = data.draw(st.dictionaries(st.integers(0, n - 1), label))
    part = LabeledPartition.from_labels(n, list(assignments), list(assignments.values()))
    nodes = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
    got = label_histogram(nodes, part)
    want = reference_label_histogram(nodes, assignments, n)
    assert got.labels == want.labels
    assert np.array_equal(got.probs, want.probs)


@pytest.mark.parametrize(
    "bad, message",
    [(v, f"node id {v} not in 0..5") for v in (-1, 6, 2**63 - 1, 2**70)]
    + [(v, "node id must be a 1-D array of integer node ids") for v in (1.0, True)],
)
def test_partition_rejects_node_ids_outside_the_graph(bad, message):
    part = LabeledPartition.from_labels(6, [0, 5], ["a", "b"])
    with pytest.raises(ValidationError, match=message):
        part.label_of(bad)
    with pytest.raises(ValidationError, match=message):
        label_histogram([0, bad] if "not in" in message else [bad], part)
