"""Synthetic networks: stochastic block models and planted node attributes."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError, from_mapping, is_integer, is_label, is_real, require
from .graph import Graph, LabeledPartition


@dataclass(frozen=True)
class SbmSpec:
    """Stochastic block model parameters.

    Every potential edge (i, j), i != j, exists independently with
    probability ``p_in`` when i and j share a block and ``p_out`` otherwise.
    """

    block_sizes: tuple[int, ...]
    p_in: float
    p_out: float
    directed: bool = False
    rng_seed: int = 0

    def __post_init__(self):
        sizes = self.block_sizes
        ok = isinstance(sizes, (list, tuple, np.ndarray)) and len(sizes) > 0
        ok = ok and all(is_integer(b) and b >= 1 for b in sizes)
        require("block_sizes", sizes, "a non-empty list of integers >= 1", ok)
        object.__setattr__(self, "block_sizes", tuple(int(b) for b in sizes))
        for name in ("p_in", "p_out"):
            p = getattr(self, name)
            require(name, p, "a real number in [0, 1]", is_real(p) and 0.0 <= p <= 1.0)
        directed, seed = self.directed, self.rng_seed
        require("directed", directed, "true or false", isinstance(directed, (bool, np.bool_)))
        require("rng_seed", seed, "an integer >= 0", is_integer(seed) and seed >= 0)

    @classmethod
    def from_dict(cls, d) -> "SbmSpec":
        """The spec of a parsed YAML mapping, with every key checked."""
        return from_mapping(cls, d, "an SBM spec")

    @property
    def n(self) -> int:
        return sum(self.block_sizes)


def _bernoulli_positions(count: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Indices of successes among ``count`` independent Bernoulli(p) trials.

    Uses geometric skips between successes, so the cost is O(successes)
    rather than O(count).
    """
    if count <= 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(count, dtype=np.int64)
    chunks = []
    total = -1  # last emitted position
    est = int(count * p + 10.0 * np.sqrt(count * p) + 10.0)
    while True:
        pos = rng.geometric(p, size=est)
        pos[0] += total
        np.cumsum(pos, out=pos)
        chunks.append(pos)
        total = int(pos[-1])
        if total >= count - 1:
            break
        est = max(16, int((count - 1 - total) * p) + 16)
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    # positions strictly increase, so those below count are a prefix
    return pos[: np.searchsorted(pos, count)]


def _triangle_unrank(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map flat indices over the strict upper triangle of an n x n grid to (i, j), i < j."""
    # row i starts at offset i*n - i*(i+1)/2 - i  ==  C(i) with rows of length n-1-i
    kk = k.astype(np.float64)
    i = np.floor(((2 * n - 1) - np.sqrt((2 * n - 1) ** 2 - 8.0 * kk)) / 2.0).astype(np.int64)
    # guard against float rounding at row boundaries
    for _ in range(2):
        i -= i * (2 * n - i - 1) // 2 > k
        i += k >= (i + 1) * (2 * n - i - 2) // 2
    j = k - i * (2 * n - i - 1) // 2
    j += i + 1
    return i, j


def _rect_unrank(k: np.ndarray, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    return np.divmod(k, ncols)


def _offdiag_unrank(k: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map flat indices over ordered non-diagonal pairs of 0..n-1 to (i, j)."""
    i, j = np.divmod(k, n - 1)
    j += j >= i
    return i, j


def generate_sbm(spec: SbmSpec) -> tuple[Graph, LabeledPartition]:
    """Draw a graph from the SBM, with the block partition.

    Deterministic given ``spec.rng_seed``. Undirected graphs draw each pair
    once and mirror the edge; directed graphs draw the two directions
    independently.
    """
    n = spec.n
    rng = np.random.default_rng(spec.rng_seed)
    offsets = np.concatenate([[0], np.cumsum(spec.block_sizes)])
    src_parts, dst_parts = [], []

    def add(pairs, a, b):
        """Shift block-local pairs of blocks a and b to node ids, in place."""
        i, j = pairs
        i += offsets[a]
        j += offsets[b]
        src_parts.append(i)
        dst_parts.append(j)

    nblocks = len(spec.block_sizes)
    for a in range(nblocks):
        na = spec.block_sizes[a]
        # within-block edges; no name here holds a part or its positions
        ordered = na * (na - 1)
        if spec.directed:
            add(_offdiag_unrank(_bernoulli_positions(ordered, spec.p_in, rng), na), a, a)
        else:
            add(_triangle_unrank(_bernoulli_positions(ordered // 2, spec.p_in, rng), na), a, a)
        # cross-block edges
        for b in range(nblocks):
            if b == a or (not spec.directed and b < a):
                continue
            nb = spec.block_sizes[b]
            add(_rect_unrank(_bernoulli_positions(na * nb, spec.p_out, rng), nb), a, b)
    src = np.concatenate(src_parts) if len(src_parts) > 1 else src_parts[0]
    dst = np.concatenate(dst_parts) if len(dst_parts) > 1 else dst_parts[0]
    del src_parts, dst_parts  # so that the parts are freed before the build
    # unit weights as a read-only view, with no array of ones behind it
    g = Graph(n, src, dst, np.broadcast_to(1.0, src.shape), directed=spec.directed)
    del src, dst  # before the partition is built
    blocks = np.repeat(np.arange(nblocks, dtype=np.int32), spec.block_sizes)
    return g, LabeledPartition(blocks, tuple(range(nblocks)))


def plant_attributes(
    partition: LabeledPartition,
    noise: float,
    labels: list,
    rng_seed: int = 0,
) -> LabeledPartition:
    """Attach a categorical attribute aligned with the blocks, plus noise.

    Each node keeps its block-aligned label with probability ``1 - noise``
    and otherwise gets a uniformly random *other* label from ``labels``.
    """
    require("noise", noise, "a real number in [0, 1]", is_real(noise) and 0.0 <= noise <= 1.0)
    ok = isinstance(labels, (list, tuple)) and all(map(is_label, labels))
    ok = ok and len(set(labels)) == len(labels)
    require("labels", labels, "a list of distinct strings or integers", ok)
    require("rng_seed", rng_seed, "an integer >= 0", is_integer(rng_seed) and rng_seed >= 0)
    blocks = partition.categories
    if len(labels) < len(blocks):
        raise ValidationError(f"need at least {len(blocks)} labels, got {len(labels)}")
    if len(labels) < 2 and noise > 0:
        raise ValidationError("noise requires at least two labels")
    rng = np.random.default_rng(rng_seed)
    # block code k aligns with labels[k]; unlabelled nodes draw nothing
    nodes = np.flatnonzero(partition.codes >= 0)
    out = []
    for code in partition.codes[nodes].tolist():
        base = labels[code]
        if rng.random() < noise:
            others = [lab for lab in labels if lab != base]
            out.append(others[rng.integers(len(others))])
        else:
            out.append(base)
    return LabeledPartition.from_labels(partition.codes.size, nodes, out)
