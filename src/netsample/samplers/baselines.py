"""Baseline samplers: uniform nodes, random walk, expansion, node2vec walk."""

from __future__ import annotations

import heapq

import numpy as np

from ..graph import csr_rows, sorted_lookup
from .base import (
    STEP_BUDGET_FACTOR,
    SampleResult,
    SamplerConfig,
    SampleState,
    neighborhood,
    pick_seed,
    start,
    uniform_step,
    walk_until_new,
)


def sample_random_node(g, cfg: SamplerConfig) -> SampleResult:
    """Uniform sampling on nodes, without replacement."""
    rng = start(g, cfg)
    nodes = [int(v) for v in rng.permutation(g.n)[: cfg.target_size]]
    return SampleState(nodes, ["rn"] * len(nodes), {"steps": len(nodes)}).result(cfg, "rn")


def _walk_sample(g, cfg: SamplerConfig, name: str, what: str, step, takes=None) -> SampleResult:
    """Collect the first ``target_size`` distinct nodes a walk visits.

    The walk takes ``step``, which can take the out-edges that ``takes``
    flags (see ``walk_until_new``), and goes on from each new node with the
    node before it as ``prev``.
    """
    rng = start(g, cfg)
    current = pick_seed(cfg, g, rng)
    m = cfg.target_size
    state = SampleState.empty(g.n, counters={"steps": 0})
    state.add(current, name)
    budget = STEP_BUDGET_FACTOR * m
    steps = 0
    prev = None
    while state.k < m:
        current, used, prev = walk_until_new(
            g, rng, current, state.members, state.member_mask, budget - steps, step, prev, takes
        )
        steps += used
        state.counters["steps"] = steps
        if current is None:
            raise state.partial(f"{what} found {state.k}/{m} nodes within {budget} steps")
        state.add(current, name)
    return state.result(cfg, name)


def sample_random_walk(g, cfg: SamplerConfig) -> SampleResult:
    """Uniform random walk collecting newly visited nodes.

    On a sink, or with probability 0.15 per step, the walker restarts at a
    uniformly chosen already-sampled node (see ``walk_until_new``).
    """
    return _walk_sample(g, cfg, "rw", "random walk", uniform_step)


def _neighbor_pairs(g, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(owner, neighbor)`` pairs listing the distinct undirected neighbors
    of every ``rows[owner]``, from one CSR gather; a directed graph's in- and
    out-lists are merged and deduplicated per owner. A self-loop stays in."""
    owner, pos = csr_rows(g._out_indptr, rows)
    nbr = g._out_dst[pos]
    if g.directed:
        in_owner, in_pos = csr_rows(g._in_indptr, rows)
        keys = np.concatenate([owner * g.n + nbr, in_owner * g.n + g._in_src[in_pos]])
        owner, nbr = np.divmod(np.unique(keys), g.n)
    return owner, nbr


def sample_expansion(g, cfg: SamplerConfig) -> SampleResult:
    """Greedy expansion sampling.

    At each step the border node maximizing ``|N(v) \\ (S u N(S))|`` joins
    the sample, with N the undirected neighborhood; ties break on the
    smallest node id, so the run is fully deterministic given the seed.

    The gains are kept exact for every node of the closure ``S u N(S)``.
    When nodes enter the closure, one CSR gather lists their neighborhoods:
    each pair with an already-closed neighbor takes one off that neighbor's
    gain, and one ``bincount`` against the grown closure gives the
    newcomers' own gains. An admission thus costs the degrees of the nodes
    it brings into the closure, not a pass over the graph.

    The selection is lazy greedy: a gain can only shrink as the closure
    grows, so each border node sits once in a heap keyed by ``(-gain,
    node)`` with the gain it had when last evaluated, and the sample size at
    that time. A top entry evaluated at the current size is exact and, as no
    entry understates its gain, the exact argmax; an older top entry is
    re-evaluated, by reading its maintained gain, and goes back. Counters:
    ``border_peak`` is the largest border size and ``gain_evals`` the number
    of gain evaluations (one per border entry pushed or re-evaluated).
    """
    n = g.n
    rng = start(g, cfg)
    seed = pick_seed(cfg, g, rng)
    m = cfg.target_size
    closure = np.zeros(n, dtype=bool)  # S union N(S); the border is closure minus S
    gains = np.zeros(n, dtype=np.int64)  # |N(v) minus closure|, exact on the closure
    heap: list[tuple[int, int, int]] = []  # (-gain, node, size at evaluation)
    state = SampleState.empty(n, counters={"border_peak": 0, "gain_evals": 0})
    counters = state.counters

    def close(new):
        """Add ``new``, distinct nodes outside the closure, to it. A
        newcomer's self-loop is neither closed before nor outside after, so
        it changes no gain."""
        owner, nbr = _neighbor_pairs(g, new)
        np.subtract.at(gains, nbr[closure[nbr]], 1)
        closure[new] = True
        gains[new] = np.bincount(owner[~closure[nbr]], minlength=new.size)

    def admit(v):
        state.add(v, "xs")
        nb = neighborhood(g, v)
        fresh = nb[~closure[nb]]
        close(fresh)
        counters["gain_evals"] += fresh.size
        for u, gain in zip(fresh.tolist(), gains[fresh].tolist()):
            heapq.heappush(heap, (-gain, u, state.k))
        counters["border_peak"] = max(counters["border_peak"], len(heap))

    close(np.array([seed]))
    admit(seed)
    while state.k < m:
        if not heap:
            raise state.partial(f"expansion border exhausted at {state.k}/{m} nodes")
        k = state.k
        while heap[0][2] != k:
            v = heap[0][1]
            counters["gain_evals"] += 1
            heapq.heapreplace(heap, (-int(gains[v]), v, k))
        admit(heapq.heappop(heap)[1])
    return state.result(cfg, "xs")


def node2vec_step_weights(g, prev: int | None, current: int, p: float, q: float):
    """Unnormalized transition weights for the second-order walk.

    From previous node ``prev`` at ``current``, neighbor x gets
    ``w(current, x) * (1/p if x == prev; 1 if x adjacent to prev; 1/q)``.
    Adjacency is undirected: x is adjacent to ``prev`` if it is in either of
    ``prev``'s sorted neighbor lists.
    """
    out_idx, out_w = g.out_neighbors(current)
    if prev is None or out_idx.size == 0:
        return out_idx, out_w.astype(np.float64)
    adjacent = sorted_lookup(g.out_neighbors(prev)[0], out_idx)[1]
    if g.directed:
        adjacent |= sorted_lookup(g.in_neighbors(prev)[0], out_idx)[1]
    bias = np.where(adjacent, 1.0, 1.0 / q)
    bias[out_idx == prev] = 1.0 / p
    return out_idx, out_w * bias


def sample_node2vec_walk(g, cfg: SamplerConfig) -> SampleResult:
    """Second-order (node2vec-style) walk collecting newly visited nodes.

    The bias comes from ``cfg.node2vec_p`` and ``cfg.node2vec_q``. Dead-end
    and restart handling are identical to the uniform random walk; a restart
    forgets the previous node, so the next step is first-order. A node whose
    out-edges all weigh zero also forces a restart.
    """
    p, q = cfg.node2vec_p, cfg.node2vec_q

    def step(g, rng, prev, current):
        idx, weights = node2vec_step_weights(g, prev, current, p, q)
        total = float(np.add.reduce(weights))
        if total <= 0:
            return None
        u = rng.random() * total
        pos = int(weights.cumsum().searchsorted(u, "right"))
        if pos == idx.size:  # u at or past a cumsum that rounds below the total
            pos = int(np.flatnonzero(weights > 0)[-1])
        return int(idx[pos])

    return _walk_sample(g, cfg, "node2vec", "node2vec walk", step, lambda w: w > 0)
