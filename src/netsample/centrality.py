"""Node-importance measures: eigenvector, PageRank, in-degree, betweenness,
SpringRank.

Eigenvector centrality and PageRank use the left eigenvector direction
(importance flows along edges: a node's score is fed by its in-edges), so the
two spectral measures agree on orientation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import ValidationError, is_integer, is_real, require
from .graph import _MAX_NODES, Graph, csr_rows, node_ids

# betweenness runs BLOCK_SLOTS // (n + num_edges) sources at a time (at
# least one), which keeps its per-block key and edge arrays to a few MB;
# larger blocks were no faster
BLOCK_SLOTS = 1 << 18


@dataclass
class CentralityVector:
    """Per-node scores of one centrality method plus convergence metadata."""

    scores: np.ndarray
    method: str
    iterations: int = 0
    residual: float = 0.0
    converged: bool = True

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    def __len__(self):
        return len(self.scores)

    def csv_lines(self):
        yield "node_id,score"
        for i, s in enumerate(self.scores):
            yield f"{i},{float(s)!r}"

    def save_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for line in self.csv_lines():
                fh.write(line + "\n")


def eigenvector_centrality(g: Graph, tol: float = 1e-10, max_iter: int = 1000) -> CentralityVector:
    """Leading left eigenvector of the adjacency matrix by power iteration.

    Scores are L1-normalized; non-convergence (e.g. on graphs that are not
    strongly connected) is flagged, not fatal.
    """
    require("tol", tol, "a positive finite number", is_real(tol) and 0 < tol < math.inf)
    require("max_iter", max_iter, "an integer >= 1", is_integer(max_iter) and max_iter >= 1)
    if g.num_edges == 0:
        raise ValidationError("eigenvector centrality needs at least one edge")
    a_t = g.to_scipy_transpose()
    n = g.n
    x = np.full(n, 1.0 / n)
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = a_t @ x
        norm = y.sum()
        if norm <= 0:
            # all mass died (nilpotent adjacency); report the flat failure
            return CentralityVector(np.zeros(n), "eigenvector", it, np.inf, converged=False)
        y /= norm
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < tol:
            return CentralityVector(x, "eigenvector", it, residual, converged=True)
    return CentralityVector(x, "eigenvector", it, residual, converged=False)


def pagerank(
    g: Graph, gamma: float = 0.85, tol: float = 1e-12, max_iter: int = 1000
) -> CentralityVector:
    """Damped PageRank fixed point, with dangling columns treated as uniform.

    The dense "Google" matrix is never materialized; iterates stay on the
    simplex and the result sums to 1.
    """
    if not (is_real(gamma) and 0.0 <= gamma < 1.0):
        raise ValidationError(f"gamma (damping) must lie in [0, 1), got {gamma!r}")
    require("tol", tol, "a positive finite number", is_real(tol) and 0 < tol < math.inf)
    require("max_iter", max_iter, "an integer >= 1", is_integer(max_iter) and max_iter >= 1)
    n = g.n
    if n == 0:
        raise ValidationError("pagerank needs at least one node")
    dout = g.out_strength
    dangling = dout <= 0
    inv_dout = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, dout))
    # y = P^T x propagates mass along edges; P^T is the in-CSR with each
    # weight divided by its source's out-strength
    p_t = sp.csr_matrix((g._in_w * inv_dout[g._in_src], g._in_src, g._in_indptr), shape=(n, n))
    x = np.full(n, 1.0 / n)
    residual = np.inf
    it = 0
    for it in range(1, max_iter + 1):
        y = gamma * (p_t @ x + x[dangling].sum() / n) + (1.0 - gamma) / n
        residual = float(np.abs(y - x).sum())
        x = y
        if residual < tol:
            break
    x = x / x.sum()
    return CentralityVector(x, "pagerank", it, residual, converged=residual < tol)


def in_degree_centrality(g: Graph) -> CentralityVector:
    """Weighted in-degree of every node."""
    return CentralityVector(g.in_strength.copy(), "indegree")


def pivot_sources(n: int, count: int, seed: int) -> list[int]:
    """``min(count, n)`` distinct pivot nodes drawn uniformly, in ascending order."""
    ok = is_integer(n) and 0 <= n <= _MAX_NODES
    require("node count", n, f"an integer in 0..{_MAX_NODES}", ok)
    require("pivot count", count, "an integer >= 1", is_integer(count) and count >= 1)
    require("pivot seed", seed, "an integer >= 0", is_integer(seed) and seed >= 0)
    rng = np.random.default_rng(seed)
    return sorted(int(v) for v in rng.choice(n, size=min(count, n), replace=False))


def betweenness(g: Graph, sources=None) -> CentralityVector:
    """Brandes betweenness over hop-count shortest paths, endpoints excluded.

    ``sources`` restricts the accumulation to a pivot subset; with all
    sources (the default) the result is exact.

    The sources run in blocks (see ``BLOCK_SLOTS`` and
    ``_block_dependencies``): a forward BFS finds each root's shortest-path
    DAG, and the backward pass accumulates along those same edges, so no
    in-list is read. Every score receives the same float operations in the
    same order as the one-source-at-a-time queue loop, so the result does
    not depend on the block size.
    """
    n = g.n
    if sources is None:
        sources = np.arange(n, dtype=np.int64)
    else:
        sources = node_ids("betweenness source", sources, n)
    # a source with no out-edges adds only zeros
    sources = sources[g._out_indptr[sources + 1] > g._out_indptr[sources]]
    block = max(1, BLOCK_SLOTS // max(1, n + g.num_edges))
    bc = np.zeros(n, dtype=np.float64)
    for lo in range(0, sources.size, block):
        roots = sources[lo : lo + block]
        dep = _block_dependencies(g, roots).reshape(roots.size, n)
        for row, s in zip(dep, roots):
            row[s] = 0.0
            bc += row
    return CentralityVector(bc, "betweenness")


def _gather(indptr, nbrs, keys, n):
    """CSR neighbours of every key ``j*n + v``, in key order: ``(key index, j*n + u)``."""
    v = keys % n
    owner, pos = csr_rows(indptr, v)
    out = nbrs[pos]
    del pos
    out += (keys - v)[owner]
    return owner, out


def _block_dependencies(g: Graph, roots: np.ndarray) -> np.ndarray:
    """Brandes dependencies of each root, flat with key ``j*n + v`` for root ``j``.

    A level-synchronous BFS from all roots at once. A level's out-edges are
    taken in frontier order and a new key is placed at its first discovery,
    which is the queue order of a single-source BFS, so path counts are
    summed in that loop's order (``np.add.at`` applies its updates in index
    order). The edges that discover the next level are exactly its
    shortest-path DAG edges; they are kept per level, sorted by the child's
    discovery rank, descending. The backward pass walks the levels deepest
    first and adds along those edges, so each parent receives its children's
    terms in reverse discovery order, as in the queue loop.
    """
    n = g.n
    size = roots.size * n
    seen = np.zeros(size, dtype=bool)
    sigma = np.zeros(size, dtype=np.float64)
    first = np.full(size, np.iinfo(np.int64).max, dtype=np.int64)
    frontier = np.arange(roots.size, dtype=np.int64) * n + roots
    seen[frontier] = True
    sigma[frontier] = 1.0
    # per level: (parent, child) in reverse discovery order of the child. The
    # keys stay int64: numpy gathers with int32 index arrays run slower, and
    # the backward pass indexes with these arrays five times per level
    dag = []
    while True:
        owner, child = _gather(g._out_indptr, g._out_dst, frontier, n)
        fresh = ~seen[child]
        parent, child = frontier[owner[fresh]], child[fresh]
        del owner, fresh
        if not child.size:
            break
        np.add.at(sigma, child, sigma[parent])
        pos = np.arange(child.size, dtype=np.int64)
        np.minimum.at(first, child, pos)
        rank = first[child]
        frontier = child[rank == pos]
        seen[frontier] = True
        order = np.argsort(-rank)
        dag.append((parent[order], child[order]))
    dep = np.zeros(size, dtype=np.float64)
    while dag:
        parent, child = dag.pop()
        np.add.at(dep, parent, sigma[parent] * ((1.0 + dep[child]) / sigma[child]))
    return dep


def springrank(g: Graph, reg: float = 1.0, tol: float = 1e-10, max_iter: int | None = None) -> CentralityVector:
    """Rank scores from directed interactions via a sparse spring system.

    Solves ``[reg*I + D_out + D_in - (A + A^T)] s = d_out - d_in`` with
    conjugate gradient; the operator is symmetric positive definite for
    ``reg > 0``. Scores are not normalized (only ranks matter downstream).
    """
    require("reg", reg, "a positive finite number", is_real(reg) and 0 < reg < math.inf)
    require("tol", tol, "a positive finite number", is_real(tol) and 0 < tol < math.inf)
    if max_iter is not None:
        require("max_iter", max_iter, "an integer >= 1", is_integer(max_iter) and max_iter >= 1)
    n = g.n
    # A + A^T is a temporary of the expression, freed before CG runs
    op = reg * sp.identity(n, format="csr") + sp.diags(g.out_strength + g.in_strength)
    op = op - (g.to_scipy() + g.to_scipy_transpose())
    rhs = g.out_strength - g.in_strength
    if not np.any(rhs):
        return CentralityVector(np.zeros(n), "springrank", 0, 0.0, converged=True)
    s, info = spla.cg(op, rhs, rtol=tol, atol=tol, maxiter=max_iter)
    residual = float(np.linalg.norm(op @ s - rhs))
    return CentralityVector(s, "springrank", 0, residual, converged=info == 0)


MEASURES = {
    "eigenvector": eigenvector_centrality,
    "pagerank": pagerank,
    "indegree": in_degree_centrality,
    "betweenness": betweenness,
    "springrank": springrank,
}
