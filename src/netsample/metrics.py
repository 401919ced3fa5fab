"""Rank-correlation and distribution-discrepancy measures.

All logarithms are natural (nats).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateEntropyWarning,
    UndefinedCorrelationError,
    ValidationError,
    is_real,
    require,
)
from .graph import UNKNOWN_LABEL, LabeledPartition

KL_EPSILON = 1e-12


def _reals(name: str, values) -> np.ndarray:
    """``values`` as a float64 array, or a ``ValidationError`` naming them."""
    try:
        return np.asarray(values, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be real numbers, got {values!r}") from None


@dataclass(frozen=True)
class CategoricalDistribution:
    """Probabilities over a fixed, ordered label list."""

    labels: tuple
    probs: np.ndarray

    def __post_init__(self):
        probs = _reals("probabilities", self.probs)
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != probs.size:
            raise ValidationError("labels and probabilities differ in length")
        if not np.all(probs >= 0):
            raise ValidationError("negative or NaN probability")
        if probs.size and abs(probs.sum() - 1.0) > 1e-12:
            raise ValidationError(f"probabilities sum to {probs.sum()}, not 1")

    @classmethod
    def from_counts(cls, labels, counts) -> "CategoricalDistribution":
        counts = np.asarray(counts, dtype=np.float64)
        total = counts.sum()
        if total <= 0:
            raise ValidationError("empty distribution")
        return cls(tuple(labels), counts / total)

    def prob_of(self, label) -> float:
        return float(self.probs[self.labels.index(label)])


def _tie_pairs(*cols: np.ndarray) -> int:
    """Pairs tied in every column; the columns must be sorted jointly."""
    change = np.zeros(cols[0].size + 1, dtype=bool)
    change[[0, -1]] = True
    for c in cols:
        change[1:-1] |= c[1:] != c[:-1]
    runs = np.diff(np.flatnonzero(change))
    return int(np.sum(runs * (runs - 1) // 2))


def _discordant_pairs(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j] (ranks in 0..n-1), by bottom-up merge.

    Each level merges sorted blocks of ``width`` pairwise. The key
    ``pair * n + rank`` keeps the pairs apart, so one sort merges every pair,
    and two searchsorted calls count, for each right-block element, the
    left-block elements of the same pair with a larger rank.
    """
    n = ranks.size
    pos = np.arange(n)
    a = ranks.astype(np.int64)
    total = 0
    width = 1
    while width < n:
        pair = pos // (2 * width)
        keys = pair * n + a
        left = (pos // width) % 2 == 0
        lkeys = keys[left]
        above = np.searchsorted(lkeys, (pair[~left] + 1) * n)
        total += int(np.sum(above - np.searchsorted(lkeys, keys[~left], side="right")))
        a = np.sort(keys) - pair * n
        width *= 2
    return total


def kendall_tau(x, y) -> float:
    """Tie-corrected Kendall tau-b in O(n log^2 n) (Knight's algorithm).

    The pair counts are exact integers, so the result does not depend on
    summation order.
    """
    x = _reals("kendall_tau inputs", x)
    y = _reals("kendall_tau inputs", y)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValidationError("inputs must be equal-length vectors of size >= 2")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValidationError("inputs must be finite (no NaN or infinity)")
    n = x.size
    perm = np.lexsort((y, x))
    xs, ys = x[perm], y[perm]
    n0 = n * (n - 1) // 2
    n1 = _tie_pairs(xs)
    n2 = _tie_pairs(np.sort(y))
    n3 = _tie_pairs(xs, ys)  # pairs tied in both coordinates
    if n1 == n0 or n2 == n0:
        raise UndefinedCorrelationError("constant input vector")
    # within a run of tied x, ys ascends, so strict inversions are the discordant pairs
    discordant = _discordant_pairs(np.unique(ys, return_inverse=True)[1])
    num = n0 - n1 - n2 + n3 - 2 * discordant
    return num / math.sqrt((n0 - n1) * (n0 - n2))


def kl_divergence(
    p: CategoricalDistribution, q: CategoricalDistribution, eps: float = KL_EPSILON
) -> float:
    """KL(p || q) in nats, with every q bin smoothed by ``eps`` and renormalized.

    Sample distributions can miss categories entirely, so the smoothing keeps
    the divergence finite; the value is still >= 0 and 0 iff p == q
    (pre-smoothing differences aside).
    """
    require("eps", eps, "a finite real number >= 0", is_real(eps) and 0 <= eps < math.inf)
    if set(p.labels) != set(q.labels):
        raise ValidationError("distributions are over different label sets")
    q_aligned = np.array([q.prob_of(lab) for lab in p.labels])
    q_smooth = q_aligned + eps
    q_smooth /= q_smooth.sum()
    mask = p.probs > 0
    return float(np.sum(p.probs[mask] * np.log(p.probs[mask] / q_smooth[mask])))


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log(p) - (1.0 - p) * math.log(1.0 - p)


def entropy_ratio(sample_labels, full_labels, seed_region) -> float:
    """Binary-entropy ratio of the seed-region indicator, sample vs full graph.

    Values above 1 flag over-representation of the seed region in the
    sample, below 1 under-representation. A sample frequency of exactly 0 or
    1 makes the ratio degenerate; 0 is returned with a warning.
    """
    sample_labels = np.asarray(sample_labels, dtype=object)
    full_labels = np.asarray(full_labels, dtype=object)
    if not sample_labels.size or not full_labels.size:
        raise ValidationError("empty label multiset")
    p_full = np.count_nonzero(full_labels == seed_region) / full_labels.size
    if not 0.0 < p_full < 1.0:
        raise ValidationError(
            f"seed region {seed_region!r} has degenerate full-graph frequency {p_full}"
        )
    p_sample = np.count_nonzero(sample_labels == seed_region) / sample_labels.size
    if p_sample <= 0.0 or p_sample >= 1.0:
        warnings.warn(
            f"seed region frequency {p_sample} in sample; entropy ratio degenerate",
            DegenerateEntropyWarning,
        )
        return 0.0
    return binary_entropy(p_sample) / binary_entropy(p_full)


def label_histogram(nodes, partition: LabeledPartition) -> CategoricalDistribution:
    """Empirical label frequencies over the partition's label set.

    Zero-count labels are retained, so every histogram of one partition has
    the same bins; the reserved unknown label has a bin when some node of the
    partition is unlabelled, and shares it with a category of that name.
    """
    codes = partition.codes_of(nodes)
    if not codes.size:
        raise ValidationError("empty node set")
    cats = partition.categories
    counts = np.bincount(codes + 1, minlength=len(cats) + 1)
    unknown, counts = counts[0], counts[1:]
    if UNKNOWN_LABEL in cats:
        counts[cats.index(UNKNOWN_LABEL)] += unknown
    elif partition.codes.min() < 0:
        cats, counts = cats + (UNKNOWN_LABEL,), np.append(counts, unknown)
    return CategoricalDistribution.from_counts(cats, counts)
