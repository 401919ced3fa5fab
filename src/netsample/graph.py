"""Immutable directed weighted graph with both out- and in-adjacency.

The graph is stored in compressed sparse form (CSR-style index arrays) for
both edge directions, so samplers can ask for out- and in-neighborhoods in
O(degree). Node ids are dense integers ``0..n-1``; loaders remap arbitrary
file ids and return the mapping alongside the graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable

import numpy as np

from .errors import ParseError, ValidationError

UNKNOWN_LABEL = "unknown"


def _build_csr(n, src, dst, w):
    """Sort edges by (src, dst), merge duplicates by weight sum, build CSR."""
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if src.size:
        # collapse runs of identical (src, dst) pairs
        new_run = np.empty(src.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        run_id = np.cumsum(new_run) - 1
        src = src[new_run]
        dst = dst[new_run]
        w = np.bincount(run_id, weights=w)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst.astype(np.int64), w.astype(np.float64), src.astype(np.int64)


class Graph:
    """Immutable directed weighted graph.

    ``out_adj`` and ``in_adj`` are exact transposes: edge ``(i -> j, w)``
    appears in ``out_adj[i]`` iff ``(i, w)`` appears in ``in_adj[j]``. For
    undirected graphs the edge set is symmetric. All weights are finite and >= 0.
    """

    def __init__(self, n: int, src, dst, w, directed: bool):
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not (src.shape == dst.shape == w.shape):
            raise ValidationError("edge arrays must have equal length")
        if src.size and (src.min() < 0 or src.max() >= n or dst.min() < 0 or dst.max() >= n):
            raise ValidationError("edge endpoint out of range")
        if not np.all(np.isfinite(w)):
            raise ValidationError("edge weight is NaN or infinite")
        if np.any(w < 0):
            raise ValidationError("negative edge weight")
        self.n = int(n)
        self.directed = bool(directed)
        self._out_indptr, self._out_dst, self._out_w, _ = _build_csr(n, src, dst, w)
        self._in_indptr, self._in_src, self._in_w, _ = _build_csr(n, dst, src, w)
        self.out_strength = np.zeros(n, dtype=np.float64)
        np.add.at(self.out_strength, self.edge_src(), self._out_w)
        self.in_strength = np.zeros(n, dtype=np.float64)
        cnt = np.diff(self._in_indptr)
        np.add.at(self.in_strength, np.repeat(np.arange(n), cnt), self._in_w)

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple], directed: bool) -> "Graph":
        """Build from an iterable of ``(src, dst)`` or ``(src, dst, w)``.

        For undirected graphs each edge is materialized in both directions
        (self-loops only once). Duplicate edges merge by weight summation.
        """
        src, dst, w = [], [], []
        for e in edges:
            if len(e) == 2:
                a, b = e
                wt = 1.0
            else:
                a, b, wt = e
            src.append(a)
            dst.append(b)
            w.append(wt)
        return cls.from_arrays(
            n,
            np.asarray(src, dtype=np.int64),
            np.asarray(dst, dtype=np.int64),
            np.asarray(w, dtype=np.float64),
            directed,
        )

    @classmethod
    def from_arrays(cls, n, src, dst, w, directed: bool) -> "Graph":
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        w = np.asarray(w, dtype=np.float64)
        if not directed:
            loop = src == dst
            src2 = np.concatenate([src, dst[~loop]])
            dst2 = np.concatenate([dst, src[~loop]])
            w2 = np.concatenate([w, w[~loop]])
            return cls(n, src2, dst2, w2, directed=False)
        return cls(n, src, dst, w, directed=True)

    # -- neighbor queries ---------------------------------------------

    def out_neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._out_indptr[i], self._out_indptr[i + 1]
        return self._out_dst[lo:hi], self._out_w[lo:hi]

    def in_neighbors(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self._in_indptr[i], self._in_indptr[i + 1]
        return self._in_src[lo:hi], self._in_w[lo:hi]

    # -- bulk views ---------------------------------------------------

    def edge_src(self) -> np.ndarray:
        cnt = np.diff(self._out_indptr)
        return np.repeat(np.arange(self.n), cnt)

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All stored edges as ``(src, dst, w)`` (both directions if undirected)."""
        return self.edge_src(), self._out_dst.copy(), self._out_w.copy()

    @property
    def num_edges(self) -> int:
        return int(self._out_dst.size)

    def to_scipy(self):
        """Adjacency as ``scipy.sparse.csr_matrix`` with ``A[i, j]`` = weight i->j."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self._out_w, self._out_dst, self._out_indptr), shape=(self.n, self.n)
        )

    def __repr__(self):
        kind = "directed" if self.directed else "undirected"
        return f"Graph(n={self.n}, edges={self.num_edges}, {kind})"


@dataclass(frozen=True)
class NodeMapping:
    """Bijection between dense subgraph ids and original ids."""

    sub_to_full: np.ndarray

    @property
    def full_to_sub(self) -> dict:
        return {int(f): s for s, f in enumerate(self.sub_to_full)}

    def to_full(self, sub_ids):
        return self.sub_to_full[np.asarray(sub_ids, dtype=np.int64)]

    def __len__(self):
        return len(self.sub_to_full)


@dataclass
class LabeledPartition:
    """Node -> categorical label map (SBM block or attribute region).

    Nodes absent from ``assignments`` carry the reserved ``unknown`` label so
    attribute metrics can always be computed over full samples.
    """

    assignments: dict[int, Hashable] = field(default_factory=dict)

    def label_of(self, node: int) -> Hashable:
        return self.assignments.get(int(node), UNKNOWN_LABEL)

    def labels_for(self, nodes) -> list:
        return [self.label_of(i) for i in nodes]

    @property
    def categories(self) -> list:
        cats = set(self.assignments.values())
        try:
            return sorted(cats)
        except TypeError:
            return sorted(cats, key=str)

    def __len__(self):
        return len(self.assignments)


def load_edge_list(path, directed: bool) -> tuple[Graph, NodeMapping]:
    """Read a SNAP-style edge list: ``src ws dst [ws weight]``, '#' comments.

    Original ids are remapped to dense 0-based ids (sorted order); duplicate
    edges merge by weight summation; self-loops are kept; for undirected
    graphs each edge is materialized in both directions.
    """
    src, dst, w = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ParseError("expected 2 ids or 2 ids + weight", path, line_no)
            try:
                a = int(parts[0])
                b = int(parts[1])
                wt = float(parts[2]) if len(parts) == 3 else 1.0
            except ValueError as exc:
                raise ParseError(f"malformed line: {exc}", path, line_no) from None
            if not math.isfinite(wt) or wt < 0:
                raise ValidationError(f"{path}:{line_no}: weight {wt} must be finite and >= 0")
            src.append(a)
            dst.append(b)
            w.append(wt)
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    ids = np.unique(np.concatenate([src, dst])) if src.size else np.empty(0, dtype=np.int64)
    remap = {int(orig): i for i, orig in enumerate(ids)}
    src_d = np.asarray([remap[int(a)] for a in src], dtype=np.int64)
    dst_d = np.asarray([remap[int(b)] for b in dst], dtype=np.int64)
    g = Graph.from_arrays(len(ids), src_d, dst_d, w, directed)
    return g, NodeMapping(sub_to_full=ids)


def save_edge_list(g: Graph, path, mapping: NodeMapping | None = None) -> None:
    """Write the graph back out in the loader's format.

    Undirected graphs emit each edge once (the ``src <= dst`` copy).
    """
    src, dst, w = g.edge_arrays()
    if not g.directed:
        keep = src <= dst
        src, dst, w = src[keep], dst[keep], w[keep]
    if mapping is not None:
        src = mapping.to_full(src)
        dst = mapping.to_full(dst)
    with open(path, "w", encoding="utf-8") as fh:
        for a, b, wt in zip(src, dst, w):
            if wt == 1.0:
                fh.write(f"{int(a)} {int(b)}\n")
            else:
                fh.write(f"{int(a)} {int(b)} {float(wt)!r}\n")


def load_labels(path) -> LabeledPartition:
    """Read a ``node_id<TAB>label`` file into a partition.

    Consistent duplicates are allowed; conflicting duplicates are an error.
    """
    assignments: dict[int, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) != 2:
                raise ParseError("expected 'id<TAB>label'", path, line_no)
            try:
                node = int(parts[0])
            except ValueError:
                raise ParseError("non-integer node id", path, line_no) from None
            label = parts[1]
            if node in assignments and assignments[node] != label:
                raise ValidationError(
                    f"{path}:{line_no}: node {node} relabeled "
                    f"{assignments[node]!r} -> {label!r}"
                )
            assignments[node] = label
    return LabeledPartition(assignments=assignments)


def induced_subgraph(g: Graph, nodes) -> tuple[Graph, NodeMapping]:
    """Subgraph on ``nodes`` with exactly the edges of ``g`` inside the set."""
    node_arr = np.unique(np.asarray(list(nodes), dtype=np.int64))
    if node_arr.size == 0:
        raise ValidationError("empty node set")
    if node_arr.min() < 0 or node_arr.max() >= g.n:
        raise ValidationError("node id out of range")
    mask = np.zeros(g.n, dtype=bool)
    mask[node_arr] = True
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[node_arr] = np.arange(node_arr.size)
    src, dst, w = g.edge_arrays()
    keep = mask[src] & mask[dst]
    sub = Graph(node_arr.size, remap[src[keep]], remap[dst[keep]], w[keep], directed=g.directed)
    return sub, NodeMapping(sub_to_full=node_arr)
