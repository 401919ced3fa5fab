"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately naive (dense matrices, pair enumeration,
path enumeration) and never share code with the implementations they check.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from netsample.errors import (
    ParseError,
    PartialSampleError,
    UndefinedCorrelationError,
    ValidationError,
)
from netsample.graph import Graph, NodeMapping

# property tests draw the same examples on every run
settings.register_profile("netsample", derandomize=True, max_examples=60, deadline=None)
settings.load_profile("netsample")


@st.composite
def small_graphs(draw, max_n=12, weighted=False):
    """Random graphs with sinks, isolated nodes, self-loops and repeated edges."""
    n = draw(st.integers(1, max_n))
    directed = draw(st.booleans())
    node = st.integers(0, n - 1)
    weight = st.sampled_from([0.0, 0.1, 1.0, 2.5, 1e-7])
    pairs = st.tuples(node, node, weight) if weighted else st.tuples(node, node)
    edges = draw(st.lists(pairs, max_size=3 * n))  # self-loops allowed
    return Graph.from_edges(n, edges, directed=directed)


def dense_adjacency(g: Graph) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    src, dst, w = g.edge_arrays()
    a[src, dst] = w
    return a


def random_digraph(n, p, rng, weighted=False) -> Graph:
    a = (rng.random((n, n)) < p).astype(float)
    np.fill_diagonal(a, 0)
    if weighted:
        a *= rng.random((n, n)) + 0.5
    src, dst = np.nonzero(a)
    return Graph.from_arrays(n, src, dst, a[src, dst], directed=True)


def random_undirected(n, p, rng, weighted=False) -> Graph:
    a = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    if weighted:
        a *= rng.random((n, n)) + 0.5
    src, dst = np.nonzero(a)
    return Graph.from_arrays(n, src, dst, a[src, dst], directed=False)


# -- dense criterion oracles ------------------------------------------


def dense_tcec_score(a: np.ndarray, members, j: int, alpha: float) -> float:
    """Literal evaluation of the selection criterion from explicit b1/b3/U."""
    n = a.shape[0]
    s_idx = np.fromiter(members, dtype=np.int64)
    o_mask = np.ones(n, dtype=bool)
    o_mask[s_idx] = False
    o_mask[j] = False
    o_idx = np.flatnonzero(o_mask)
    b1 = a[j, s_idx]
    b3 = a[o_idx, j]
    u = a[np.ix_(o_idx, s_idx)]  # rows: outside nodes, columns: members
    btu = u @ b1
    d_in = a[s_idx, j].sum()
    return float((1 - alpha) * (b1 @ b1 + btu @ btu - b3 @ b3) + alpha * d_in)


def pagerank_transition(a: np.ndarray) -> np.ndarray:
    """Row-stochastic walk matrix; dangling rows become uniform."""
    n = a.shape[0]
    p = np.empty((n, n))
    dout = a.sum(axis=1)
    for x in range(n):
        p[x, :] = a[x, :] / dout[x] if dout[x] > 0 else 1.0 / n
    return p


def dense_tcpr_score(a: np.ndarray, members, j: int, gamma: float) -> float:
    """Un-truncated L1 criterion on the dense damped walk matrix."""
    n = a.shape[0]
    t = gamma * pagerank_transition(a) + (1 - gamma) / n
    s_idx = np.fromiter(members, dtype=np.int64)
    o_mask = np.ones(n, dtype=bool)
    o_mask[s_idx] = False
    o_mask[j] = False
    o_idx = np.flatnonzero(o_mask)
    b1 = t[j, s_idx].sum()
    b3 = t[o_idx, j].sum()
    b1u = float(t[j, s_idx] @ t[np.ix_(s_idx, o_idx)].sum(axis=1))
    return float(b1 + b1u - b3)


# -- linear-scan selector oracles --------------------------------------


class ReferenceLeaderboard:
    """Leaderboard by full scans: pop is the max of ``(score, -step)``,
    eviction the min of the same key."""

    def __init__(self, capacity: int):
        self.capacity = int(capacity)
        self._entries: dict[int, list] = {}  # node -> [score, insertion_step, epoch]
        self._steps = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def entries(self):
        return [(node, e[0], e[1]) for node, e in self._entries.items()]

    def offer(self, node, score, epoch=0):
        ent = self._entries.get(node)
        if ent is not None:
            ent[0] = score
            ent[2] = epoch
            return
        self._steps += 1
        self._entries[node] = [score, self._steps, epoch]
        if len(self._entries) > self.capacity:
            worst = min(self._entries, key=lambda v: (self._entries[v][0], -self._entries[v][1]))
            del self._entries[worst]
            self.evictions += 1

    def set_score(self, node, score, epoch):
        ent = self._entries[node]
        ent[0] = score
        ent[2] = epoch

    def stale_nodes(self, epoch):
        return [node for node, e in self._entries.items() if e[2] != epoch]

    def pop_best(self):
        if not self._entries:
            return None
        best = max(self._entries, key=lambda v: (self._entries[v][0], -self._entries[v][1]))
        del self._entries[best]
        return int(best)

    def discard(self, node):
        self._entries.pop(node, None)


def brute_expansion(g: Graph, target_size: int, seed: int):
    """Greedy expansion by rescoring the sorted border at every step.

    Returns ``(nodes, counters)``; ``counters["gain_evals"]`` is the number
    of gain evaluations a full rescan makes (the border size summed over
    steps). Raises the same ``PartialSampleError`` as the sampler when the
    border runs dry.
    """
    n = g.n
    if not 1 <= target_size <= n:
        raise ValidationError(f"target size {target_size} not in 1..{n}")
    if not 0 <= seed < n:
        raise ValidationError(f"seed node {seed} out of range")

    def nbh(v):
        nb = set(map(int, g.out_neighbors(v)[0])) | set(map(int, g.in_neighbors(v)[0]))
        nb.discard(v)
        return nb

    member: set[int] = set()
    closure: set[int] = set()
    border: set[int] = set()
    nodes: list[int] = []
    counters = {"border_peak": 0, "gain_evals": 0}

    def admit(v):
        nodes.append(v)
        member.add(v)
        closure.add(v)
        border.discard(v)
        closure.update(nbh(v))
        border.update(nbh(v) - member)
        counters["border_peak"] = max(counters["border_peak"], len(border))

    admit(seed)
    while len(nodes) < target_size:
        if not border:
            raise PartialSampleError(
                f"expansion border exhausted at {len(nodes)}/{target_size} nodes",
                nodes=nodes,
                tags=["xs"] * len(nodes),
                counters=dict(counters),
            )
        best, best_gain = None, -1
        for v in sorted(border):
            counters["gain_evals"] += 1
            gain = len(nbh(v) - closure)
            if gain > best_gain:
                best, best_gain = v, gain
        admit(best)
    return nodes, counters


# -- brute-force measure oracles --------------------------------------


def brute_kendall_tau_b(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    conc = disc = tx = ty = 0
    for i in range(n):
        for j in range(i + 1, n):
            dx = np.sign(x[i] - x[j])
            dy = np.sign(y[i] - y[j])
            if dx == 0 and dy == 0:
                continue
            if dx == 0:
                tx += 1
            elif dy == 0:
                ty += 1
            elif dx == dy:
                conc += 1
            else:
                disc += 1
    denom = np.sqrt((conc + disc + tx) * (conc + disc + ty))
    return (conc - disc) / denom


def reference_kendall_tau(x, y) -> float:
    """Tau-b from a recursive merge sort and Python tie-run loops; the numpy
    ``kendall_tau`` must match it bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size

    def tie_pairs(sorted_vals) -> int:
        total = 0
        run = 1
        for a, b in zip(sorted_vals[:-1], sorted_vals[1:]):
            if a == b:
                run += 1
            else:
                total += run * (run - 1) // 2
                run = 1
        return total + run * (run - 1) // 2

    perm = np.lexsort((y, x))
    xs, ys = x[perm], y[perm]
    n0 = n * (n - 1) // 2
    n1 = tie_pairs(xs)
    n2 = tie_pairs(np.sort(y))
    n3 = tie_pairs(list(zip(xs, ys)))
    if n1 == n0 or n2 == n0:
        raise UndefinedCorrelationError("constant input vector")

    arr = list(ys)
    buf = [0.0] * n
    inv = 0

    def sort(lo, hi):
        nonlocal inv
        if hi - lo <= 1:
            return
        mid = (lo + hi) // 2
        sort(lo, mid)
        sort(mid, hi)
        i, j, k = lo, mid, lo
        while i < mid and j < hi:
            if arr[j] < arr[i]:  # strict: equal keys are not inversions
                inv += mid - i
                buf[k] = arr[j]
                j += 1
            else:
                buf[k] = arr[i]
                i += 1
            k += 1
        buf[k : k + (mid - i)] = arr[i:mid]
        k += mid - i
        buf[k : k + (hi - j)] = arr[j:hi]
        arr[lo:hi] = buf[lo:hi]

    sort(0, n)
    num = n0 - n1 - n2 + n3 - 2 * inv
    return num / math.sqrt((n0 - n1) * (n0 - n2))


def brute_betweenness(g: Graph) -> np.ndarray:
    """All-pairs shortest-path enumeration (DFS over BFS distance layers)."""
    n = g.n
    adj = [list(map(int, g.out_neighbors(i)[0])) for i in range(n)]
    bc = np.zeros(n)
    for s in range(n):
        # BFS distances
        dist = [-1] * n
        dist[s] = 0
        frontier = [s]
        while frontier:
            nxt = []
            for v in frontier:
                for w in adj[v]:
                    if dist[w] < 0:
                        dist[w] = dist[v] + 1
                        nxt.append(w)
            frontier = nxt
        for tgt in range(n):
            if tgt == s or dist[tgt] < 0:
                continue
            # enumerate all shortest s->tgt paths explicitly
            paths = []
            stack = [(s, [s])]
            while stack:
                v, path = stack.pop()
                if v == tgt:
                    paths.append(path)
                    continue
                for w in adj[v]:
                    if dist[w] == len(path) and dist[w] <= dist[tgt]:
                        stack.append((w, path + [w]))
            npaths = len(paths)
            for path in paths:
                for v in path[1:-1]:
                    bc[v] += 1.0 / npaths
    return bc


def reference_betweenness(g: Graph, sources=None) -> np.ndarray:
    """One-source-at-a-time Brandes loop with a queue; the vectorized
    ``betweenness`` must match it bit for bit."""
    n = g.n
    if sources is None:
        sources = range(n)
    adj = [list(map(int, g.out_neighbors(i)[0])) for i in range(n)]
    bc = np.zeros(n, dtype=np.float64)
    for s in sources:
        dist = [-1] * n
        sigma = [0.0] * n
        preds: list[list[int]] = [[] for _ in range(n)]
        dist[s] = 0
        sigma[s] = 1.0
        order: list[int] = []
        queue = deque([s])
        while queue:
            v = queue.popleft()
            order.append(v)
            dv = dist[v]
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dv + 1
                    queue.append(w)
                if dist[w] == dv + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        dep = [0.0] * n
        for w in reversed(order):
            coeff = (1.0 + dep[w]) / sigma[w]
            for v in preds[w]:
                dep[v] += sigma[v] * coeff
            if w != s:
                bc[w] += dep[w]
    return bc


# -- graph build and edge-list references -------------------------------


def reference_build_csr(n, src, dst, w):
    """The two-key lexsort CSR build that ``Graph`` must match bit for bit:
    sort by (src, dst), merge duplicates by weight sum."""
    order = np.lexsort((dst, src))
    src, dst, w = src[order], dst[order], w[order]
    if src.size:
        new_run = np.empty(src.size, dtype=bool)
        new_run[0] = True
        new_run[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        run_id = np.cumsum(new_run) - 1
        src = src[new_run]
        dst = dst[new_run]
        w = np.bincount(run_id, weights=w)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst.astype(np.int64), w.astype(np.float64), src.astype(np.int64)


GRAPH_ARRAYS = (
    "_out_indptr",
    "_out_dst",
    "_out_w",
    "_in_indptr",
    "_in_src",
    "_in_w",
    "out_strength",
    "in_strength",
)


def reference_graph_arrays(n, src, dst, w, directed) -> dict:
    """CSR arrays and strengths of ``Graph.from_arrays``, built per direction
    by ``reference_build_csr``."""
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    w = np.asarray(w, dtype=np.float64)
    if not directed:
        src, dst = np.minimum(src, dst), np.maximum(src, dst)
        loop = src == dst
        src, dst, w = (
            np.concatenate([src, dst[~loop]]),
            np.concatenate([dst, src[~loop]]),
            np.concatenate([w, w[~loop]]),
        )
    out_indptr, out_dst, out_w, out_src = reference_build_csr(n, src, dst, w)
    in_indptr, in_src, in_w, in_dst = reference_build_csr(n, dst, src, w)
    out_strength = np.bincount(out_src, out_w, n).astype(np.float64)
    in_strength = np.bincount(in_dst, in_w, n).astype(np.float64)
    arrays = (out_indptr, out_dst, out_w, in_indptr, in_src, in_w, out_strength, in_strength)
    return dict(zip(GRAPH_ARRAYS, arrays))


def graph_arrays(g: Graph) -> dict:
    return {k: getattr(g, k) for k in GRAPH_ARRAYS}


def assert_bitwise_equal(got: dict, want: dict):
    assert got.keys() == want.keys()
    for k in want:
        assert got[k].dtype == want[k].dtype, k
        assert got[k].shape == want[k].shape, k
        assert got[k].tobytes() == want[k].tobytes(), k


def reference_load_edge_list(path, directed: bool):
    """The line-by-line edge-list reader that ``load_edge_list`` must match:
    same graph and mapping, or the same error. It raises a raw
    ``OverflowError`` for ids beyond int64 and ``UnicodeDecodeError`` for
    invalid UTF-8, where ``load_edge_list`` raises ``ParseError``."""
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
    ids, dense = np.unique(np.concatenate([src, dst]), return_inverse=True)
    g = Graph.from_arrays(ids.size, dense[: src.size], dense[src.size :], w, directed)
    return g, NodeMapping(sub_to_full=ids)


def reference_save_edge_list(g: Graph, path, mapping=None) -> None:
    """The per-edge writer whose bytes ``save_edge_list`` must reproduce."""
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


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
