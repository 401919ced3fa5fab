"""Shared fixtures and independent oracles for the test suite.

The oracles here are deliberately naive (dense matrices, pair enumeration,
path enumeration) and never share code with the implementations they check.
"""

from __future__ import annotations

import heapq
import math
from collections import deque

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import settings
from hypothesis import strategies as st

from netsample.errors import (
    ParseError,
    PartialSampleError,
    UndefinedCorrelationError,
    ValidationError,
)
from netsample.graph import UNKNOWN_LABEL, Graph, NodeMapping
from netsample.metrics import CategoricalDistribution
from netsample.samplers.base import (
    RESTART_PROB,
    STEP_BUDGET_FACTOR,
    SampleResult,
    SampleState,
    neighborhood,
    pick_seed,
)
from netsample.samplers.tcpr import init_delta, member_deltas, update_deltas_on_admit

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
    return Graph(n, src, dst, a[src, dst], directed=True)


def random_undirected(n, p, rng, weighted=False) -> Graph:
    a = np.triu((rng.random((n, n)) < p).astype(float), k=1)
    if weighted:
        a *= rng.random((n, n)) + 0.5
    src, dst = np.nonzero(a)
    return Graph(n, src, dst, a[src, dst], directed=False)


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
        self._entries: dict[int, list] = {}  # node -> [score, insertion_step]
        self._steps = 0
        self.evictions = 0

    def __len__(self):
        return len(self._entries)

    def nodes(self):
        return list(self._entries)

    def entries(self):
        return [(node, e[0], e[1]) for node, e in self._entries.items()]

    def offer(self, node, score):
        ent = self._entries.get(node)
        if ent is not None:
            ent[0] = score
            return
        self._steps += 1
        self._entries[node] = [score, self._steps]
        if len(self._entries) > self.capacity:
            worst = min(self._entries, key=lambda v: (self._entries[v][0], -self._entries[v][1]))
            del self._entries[worst]
            self.evictions += 1

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


def reference_sample_expansion(g: Graph, cfg) -> SampleResult:
    """``sample_expansion`` as it was before the gains were maintained: the
    lazy-greedy heap re-evaluates a stale top by counting the node's cached
    neighborhood outside the closure ``S u N(S)``."""
    n = g.n
    cfg.validate(n)
    rng = np.random.default_rng(cfg.rng_seed)
    seed = pick_seed(cfg, g, rng)
    m = cfg.target_size
    nbh_cache: dict[int, np.ndarray] = {}
    none = np.zeros(n, dtype=bool)

    def nbh(v):
        arr = nbh_cache.get(v)
        if arr is None:
            arr = neighborhood(g, v, none)
            nbh_cache[v] = arr
        return arr

    closure = np.zeros(n, dtype=bool)  # S union N(S)
    seen = np.zeros(n, dtype=bool)  # S union border
    heap: list[tuple[int, int, int]] = []  # (-gain, node, size at evaluation)
    nodes: list[int] = []
    counters = {"border_peak": 0, "gain_evals": 0}

    def gain(v):
        counters["gain_evals"] += 1
        return int(np.count_nonzero(~closure[nbh(v)]))

    def admit(v):
        nodes.append(v)
        seen[v] = True
        closure[v] = True
        nb = nbh(v)
        closure[nb] = True
        fresh = nb[~seen[nb]]
        seen[fresh] = True
        for u in fresh:
            u = int(u)
            heapq.heappush(heap, (-gain(u), u, len(nodes)))
        counters["border_peak"] = max(counters["border_peak"], len(heap))

    admit(seed)
    while len(nodes) < m:
        if not heap:
            raise PartialSampleError(
                f"expansion border exhausted at {len(nodes)}/{m} nodes",
                nodes,
                ["xs"] * len(nodes),
                dict(counters),
            )
        while heap[0][2] != len(nodes):
            v = heap[0][1]
            heapq.heapreplace(heap, (-gain(v), v, len(nodes)))
        admit(heapq.heappop(heap)[1])
    return SampleResult(
        nodes=nodes,
        tags=["xs"] * len(nodes),
        counters=counters,
        config=cfg.echo(sampler="xs"),
    )


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


def reference_label_histogram(nodes, assignments: dict, n: int) -> CategoricalDistribution:
    """``label_histogram`` as a per-node loop over a ``{node: label}`` dict
    for nodes ``0..n-1``; nodes missing from it read ``unknown``."""
    labels = [assignments.get(v, UNKNOWN_LABEL) for v in nodes]
    cats = set(assignments.values())
    try:
        cats = sorted(cats)
    except TypeError:
        cats = sorted(cats, key=str)
    if any(v not in assignments for v in range(n)) and UNKNOWN_LABEL not in cats:
        cats.append(UNKNOWN_LABEL)
    counts = {c: 0 for c in cats}
    for lab in labels:
        counts[lab] += 1
    return CategoricalDistribution.from_counts(cats, [counts[c] for c in cats])


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


# -- spectral centrality references --------------------------------------
# The operators as they were built before the centralities read the stored
# in-CSR: a transposed copy of the out-CSR, a row-scaled copy, and A + A^T
# with A^T converted from CSC. Each runs the package's iteration unchanged.


def reference_eigenvector_centrality(g: Graph, tol=1e-10, max_iter=1000):
    """Power iteration on ``to_scipy().T.tocsr()``."""
    if g.num_edges == 0:
        raise ValidationError("eigenvector centrality needs at least one edge")
    a_t = g.to_scipy().T.tocsr()
    n = g.n
    x = np.full(n, 1.0 / n)
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = a_t @ x
        norm = y.sum()
        if norm <= 0:
            return np.zeros(n), it, np.inf, False
        y /= norm
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < tol:
            return x, it, residual, True
    return x, it, residual, False


def reference_pagerank(g: Graph, gamma=0.85, tol=1e-12, max_iter=1000):
    """PageRank on ``multiply`` by the inverse out-strengths, then ``.T.tocsr()``."""
    n = g.n
    dout = g.out_strength
    dangling = dout <= 0
    inv_dout = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, dout))
    a = g.to_scipy()
    p_t = sp.csr_matrix(a.multiply(inv_dout[:, None])).T.tocsr()
    x = np.full(n, 1.0 / n)
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = gamma * (p_t @ x + x[dangling].sum() / n) + (1.0 - gamma) / n
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < tol:
            break
    return x / x.sum(), it, residual, residual < tol


def reference_springrank(g: Graph, reg=1.0, tol=1e-10, max_iter=None):
    """SpringRank on ``a + a.T``, with ``a.T`` in CSC."""
    n = g.n
    a = g.to_scipy()
    w = a + a.T
    op = reg * sp.identity(n, format="csr") + sp.diags(g.out_strength + g.in_strength) - w
    rhs = g.out_strength - g.in_strength
    if not np.any(rhs):
        return np.zeros(n), 0, 0.0, True
    s, info = spla.cg(op, rhs, rtol=tol, atol=tol, maxiter=max_iter)
    return s, 0, float(np.linalg.norm(op @ s - rhs)), info == 0


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
    """CSR arrays and strengths of ``Graph(...)``, built per direction
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
    g = Graph(ids.size, dense[: src.size], dense[src.size :], w, directed)
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


# -- crawl hot-path references ------------------------------------------
# The per-candidate admit loop, the scorers and the node2vec step as they were
# before the hot paths became linear passes over sorted lists. They reuse the
# package's walker, leaderboard and delta bookkeeping, which they do not check.


def recompute_delta(g: Graph, member_mask: np.ndarray, x: int) -> float:
    """From-scratch delta of member ``x``: its transition mass to non-members."""
    n = g.n
    if g.out_strength[x] <= 0:
        return float(n - member_mask.sum()) / n
    out_idx, out_w = g.out_neighbors(x)
    keep = ~member_mask[out_idx]
    return float(out_w[keep].sum()) / float(g.out_strength[x])


def reference_neighborhood(g: Graph, node: int) -> np.ndarray:
    """``neighborhood`` by ``np.union1d``; the merge must match it exactly."""
    out_idx, _ = g.out_neighbors(node)
    if g.directed:
        out_idx = np.union1d(out_idx, g.in_neighbors(node)[0])
    return out_idx[out_idx != node]


def reference_tcec_score(g: Graph, state, j: int, alpha: float) -> float:
    """``tcec_score`` with ``np.unique`` bins; equal to it bit for bit."""
    mask = state.member_mask
    out_idx, out_w = g.out_neighbors(j)
    sel = mask[out_idx]
    b1_idx, b1_w = out_idx[sel], out_w[sel]
    b1_sq = float(b1_w @ b1_w)
    in_idx, in_w = g.in_neighbors(j)
    outside = ~mask[in_idx] & (in_idx != j)
    wb3 = in_w[outside]
    b3_sq = float(wb3 @ wb3)
    btu_sq = 0.0
    if b1_idx.size:
        cols, vals = [], []
        for s, w_js in zip(b1_idx, b1_w):
            s_in_idx, s_in_w = g.in_neighbors(int(s))
            cols.append(s_in_idx)
            vals.append(w_js * s_in_w)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        keep = ~mask[cols] & (cols != j)
        cols, vals = cols[keep], vals[keep]
        if cols.size:
            _, inv = np.unique(cols, return_inverse=True)
            sums = np.bincount(inv, weights=vals)
            btu_sq = float(sums @ sums)
    return (1.0 - alpha) * (b1_sq + btu_sq - b3_sq) + alpha * float(
        state.in_sample_indegree[j]
    )


def reference_tcpr_score(g: Graph, state, j: int, gamma: float) -> float:
    """``tcpr_score`` with a dict of member transition probabilities and a
    per-target loop. It raises ``ZeroDivisionError`` when a member with zero
    out-strength reaches ``j`` by a zero-weight edge; elsewhere
    ``tcpr_score`` must equal it bit for bit."""
    n = g.n
    dout = g.out_strength
    mask = state.member_mask
    k = state.k
    out_idx, out_w = g.out_neighbors(j)
    sel = mask[out_idx]
    s_nodes, s_w = out_idx[sel], out_w[sel]
    u = s_w / float(dout[j])
    b1 = gamma * float(u.sum())
    in_idx, in_w = g.in_neighbors(j)
    outside = ~mask[in_idx] & (in_idx != j) & (dout[in_idx] > 0)
    b3 = gamma * float(np.sum(in_w[outside] / dout[in_idx[outside]]))
    msel = mask[in_idx]
    prob_sj = {int(s): float(w) / float(dout[s]) for s, w in zip(in_idx[msel], in_w[msel])}
    sum_prob_sj = sum(prob_sj.values())
    const = (1.0 - gamma) * (n - k - 1) / n
    b1u = 0.0
    if s_nodes.size:
        corr = np.array(
            [prob_sj.get(int(s), 0.0) if dout[s] > 0 else 1.0 / n for s in s_nodes]
        )
        delta_excl = member_deltas(g, state, s_nodes) - corr
        b1u = gamma * float(np.sum(u * (gamma * delta_excl + const)))
    b1u -= gamma * (1.0 - gamma) / n * sum_prob_sj
    return b1 + b1u - b3


def reference_node2vec_step_weights(g: Graph, prev, current: int, p: float, q: float):
    """``node2vec_step_weights`` by a per-neighbor loop over a set of
    ``prev``'s neighbors; equal to it bit for bit."""
    out_idx, out_w = g.out_neighbors(current)
    if prev is None or out_idx.size == 0:
        return out_idx, out_w.astype(np.float64)
    prev_adj = set(int(u) for u in reference_neighborhood(g, prev))
    bias = np.empty(out_idx.size, dtype=np.float64)
    for pos, x in enumerate(out_idx):
        x = int(x)
        if x == prev:
            bias[pos] = 1.0 / p
        elif x in prev_adj:
            bias[pos] = 1.0
        else:
            bias[pos] = 1.0 / q
    return out_idx, out_w * bias


def reference_walk_until_new(g, rng, current, sampled, member_mask, budget):
    """The uniform walk of ``walk_until_new`` as one inline loop that reads
    the out-list on every step; returns ``(node, steps_used)``."""
    steps = 0
    while steps < budget:
        steps += 1
        out_idx, _ = g.out_neighbors(current)
        if out_idx.size == 0 or rng.random() < RESTART_PROB:
            current = sampled[int(rng.integers(len(sampled)))]
            continue
        current = int(out_idx[int(rng.integers(out_idx.size))])
        if not member_mask[current]:
            return current, steps
    return None, steps


def reference_sample_rw(g: Graph, cfg):
    """The uniform random walk over ``reference_walk_until_new``."""
    cfg.validate(g.n)
    rng = np.random.default_rng(cfg.rng_seed)
    seed = pick_seed(cfg, g, rng)
    m = cfg.target_size
    nodes = [seed]
    visited = np.zeros(g.n, dtype=bool)
    visited[seed] = True
    budget = STEP_BUDGET_FACTOR * m
    steps = 0
    while len(nodes) < m:
        current, used = reference_walk_until_new(g, rng, nodes[-1], nodes, visited, budget - steps)
        steps += used
        if current is None:
            raise PartialSampleError(
                f"random walk found {len(nodes)}/{m} nodes within {budget} steps",
                nodes,
                ["rw"] * len(nodes),
                {"steps": steps},
            )
        visited[current] = True
        nodes.append(current)
    return SampleResult(
        nodes=nodes, tags=["rw"] * len(nodes), counters={"steps": steps}, config=cfg.echo(sampler="rw")
    )


def reference_criterion_crawl(g, cfg, state, sampler_name, score_fn, offer_candidates, on_admit=None):
    """``run_criterion_crawl`` with the per-candidate admit loop: one
    ``rng.random()`` per non-member candidate and ``np.add.at`` for the
    in-sample in-degrees. With ``rescore_on_pop`` it rescores every live
    entry before each pop."""
    cfg.validate(g.n)
    rng = np.random.default_rng(cfg.rng_seed)
    m = cfg.target_size
    tags: list[str] = []
    counters = state.counters
    counters.update(scored_candidates=0, fallback_events=0, rw_steps=0)
    budget = STEP_BUDGET_FACTOR * m

    def final_counters():
        return {**counters, "leaderboard_evictions": state.leaderboard.evictions}

    def admit(node, tag):
        state.members.append(node)
        state.member_mask[node] = True
        tags.append(tag)
        state.leaderboard.discard(node)
        out_idx, out_w = g.out_neighbors(node)
        np.add.at(state.in_sample_indegree, out_idx, out_w)
        if on_admit is not None:
            on_admit(node)
        for cand in offer_candidates(node):
            cand = int(cand)
            if state.member_mask[cand]:
                continue
            if cfg.exploration_p < 1.0 and rng.random() >= cfg.exploration_p:
                continue
            counters["scored_candidates"] += 1
            state.leaderboard.offer(cand, score_fn(cand))

    init_size = min(m, max(1, math.ceil(cfg.rw_init_fraction * m)))
    current = pick_seed(cfg, g, rng)
    admit(current, "rw-init")
    while state.k < init_size:
        current, used = reference_walk_until_new(g, rng, current, state.members, state.member_mask, budget)
        counters["rw_steps"] += used
        if current is None:
            raise PartialSampleError(
                f"rw-init exhausted at {state.k}/{m} nodes", state.members, tags, final_counters()
            )
        admit(current, "rw-init")
    while state.k < m:
        if cfg.rescore_on_pop:
            for node in state.leaderboard.nodes():
                state.leaderboard.offer(node, score_fn(node))
        node = state.leaderboard.pop_best()
        if node is not None:
            admit(node, "criterion")
            continue
        counters["fallback_events"] += 1
        start = state.members[int(rng.integers(state.k))]
        nxt, used = reference_walk_until_new(g, rng, start, state.members, state.member_mask, budget)
        counters["rw_steps"] += used
        if nxt is None:
            raise PartialSampleError(
                f"graph exhausted at {state.k}/{m} nodes", state.members, tags, final_counters()
            )
        admit(nxt, "fallback")
    return SampleResult(
        nodes=list(state.members), tags=tags, counters=final_counters(), config=cfg.echo(sampler=sampler_name)
    )


def reference_sample_tcec(g: Graph, cfg):
    alpha = cfg.resolved_alpha(g.directed)
    state = SampleState.empty(g.n, cfg.leaderboard_capacity, in_sample_indegree=np.zeros(g.n))
    return reference_criterion_crawl(
        g,
        cfg,
        state,
        "tcec",
        lambda j: reference_tcec_score(g, state, j, alpha),
        lambda node: reference_neighborhood(g, node),
    )


def reference_sample_tcpr(g: Graph, cfg):
    state = SampleState.empty(
        g.n,
        cfg.leaderboard_capacity,
        in_sample_indegree=np.zeros(g.n),
        delta=np.zeros(g.n),
        counters={"dangling_skipped": 0},
    )
    dangling = g.out_strength <= 0

    def on_admit(node):
        init_delta(g, state, node)
        update_deltas_on_admit(g, state, node)

    def offer_candidates(node):
        cands = np.unique(g.in_neighbors(node)[0])
        cands = cands[cands != node]
        ok = ~dangling[cands]
        state.counters["dangling_skipped"] += int(np.count_nonzero(~ok))
        return cands[ok]

    return reference_criterion_crawl(
        g,
        cfg,
        state,
        "tcpr",
        lambda j: reference_tcpr_score(g, state, j, cfg.damping),
        offer_candidates,
        on_admit,
    )


def reference_sample_node2vec(g: Graph, cfg):
    """The node2vec walk over ``reference_node2vec_step_weights``."""
    cfg.validate(g.n)
    p, q = cfg.node2vec_p, cfg.node2vec_q
    rng = np.random.default_rng(cfg.rng_seed)
    seed = pick_seed(cfg, g, rng)
    m = cfg.target_size
    nodes = [seed]
    visited = np.zeros(g.n, dtype=bool)
    visited[seed] = True
    budget = STEP_BUDGET_FACTOR * m
    steps = 0
    prev, current = None, seed
    while len(nodes) < m:
        if steps >= budget:
            raise PartialSampleError(
                f"node2vec walk found {len(nodes)}/{m} nodes within {budget} steps",
                nodes,
                ["node2vec"] * len(nodes),
                {"steps": steps},
            )
        steps += 1
        out_idx, _ = g.out_neighbors(current)
        if out_idx.size == 0 or rng.random() < RESTART_PROB:
            prev = None
            current = nodes[int(rng.integers(len(nodes)))]
            continue
        idx, weights = reference_node2vec_step_weights(g, prev, current, p, q)
        total = float(weights.sum())
        if total <= 0:
            prev = None
            current = nodes[int(rng.integers(len(nodes)))]
            continue
        u = rng.random() * total
        pos = int(np.searchsorted(np.cumsum(weights), u, side="right"))
        if pos == idx.size:
            pos = int(np.flatnonzero(weights > 0)[-1])
        prev, current = current, int(idx[pos])
        if not visited[current]:
            visited[current] = True
            nodes.append(current)
    return SampleResult(
        nodes=nodes, tags=["node2vec"] * len(nodes), counters={"steps": steps}, config=cfg.echo(sampler="node2vec")
    )


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
