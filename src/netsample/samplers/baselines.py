"""Baseline samplers: uniform nodes, random walk, expansion, node2vec walk."""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import PartialSampleError
from .base import (
    STEP_BUDGET_FACTOR,
    SampleResult,
    SamplerConfig,
    neighborhood,
    pick_seed,
    sorted_lookup,
    uniform_step,
    walk_until_new,
)


def sample_random_node(g, cfg: SamplerConfig) -> SampleResult:
    """Uniform sampling on nodes, without replacement."""
    n = g.n
    cfg.validate(n)
    rng = np.random.default_rng(cfg.rng_seed)
    nodes = [int(v) for v in rng.permutation(n)[: cfg.target_size]]
    return SampleResult(
        nodes=nodes,
        tags=["rn"] * len(nodes),
        counters={"steps": len(nodes)},
        config=cfg.echo(sampler="rn"),
    )


def _walk_sample(g, cfg: SamplerConfig, name: str, what: str, step) -> SampleResult:
    """Collect the first ``target_size`` distinct nodes a walk visits.

    The walk takes ``step`` (see ``walk_until_new``) and goes on from each
    new node with the node before it as ``prev``.
    """
    cfg.validate(g.n)
    rng = np.random.default_rng(cfg.rng_seed)
    current = pick_seed(cfg, g, rng)
    m = cfg.target_size
    nodes = [current]
    visited = np.zeros(g.n, dtype=bool)
    visited[current] = True
    budget = STEP_BUDGET_FACTOR * m
    steps = 0
    prev = None
    while len(nodes) < m:
        current, used, prev = walk_until_new(
            g, rng, current, nodes, visited, budget - steps, step, prev
        )
        steps += used
        if current is None:
            raise PartialSampleError(
                f"{what} found {len(nodes)}/{m} nodes within {budget} steps",
                nodes,
                [name] * len(nodes),
                {"steps": steps},
            )
        visited[current] = True
        nodes.append(current)
    return SampleResult(
        nodes=nodes, tags=[name] * m, counters={"steps": steps}, config=cfg.echo(sampler=name)
    )


def sample_random_walk(g, cfg: SamplerConfig) -> SampleResult:
    """Uniform random walk collecting newly visited nodes.

    On a sink, or with probability 0.15 per step, the walker restarts at a
    uniformly chosen already-sampled node (see ``walk_until_new``).
    """
    return _walk_sample(g, cfg, "rw", "random walk", uniform_step)


def sample_expansion(g, cfg: SamplerConfig) -> SampleResult:
    """Greedy expansion sampling.

    At each step the border node maximizing ``|N(v) \\ (S u N(S))|`` joins
    the sample, with N the undirected neighborhood; ties break on the
    smallest node id, so the run is fully deterministic given the seed.

    The selection is lazy greedy: a gain can only shrink as the closure
    ``S u N(S)`` grows, so each border node sits once in a heap keyed by
    ``(-gain, node)`` with the gain it had when last evaluated, and the
    sample size at that time. A top entry evaluated at the current size is
    exact and, as no entry understates its gain, the exact argmax; an older
    top entry is re-evaluated and goes back with its fresh gain. Counters:
    ``border_peak`` is the largest border size and ``gain_evals`` the number
    of gain evaluations.
    """
    n = g.n
    cfg.validate(n)
    rng = np.random.default_rng(cfg.rng_seed)
    seed = pick_seed(cfg, g, rng)
    m = cfg.target_size
    nbh_cache: dict[int, np.ndarray] = {}

    def nbh(v):
        arr = nbh_cache.get(v)
        if arr is None:
            arr = neighborhood(g, v)
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
        total = float(weights.sum())
        if total <= 0:
            return None
        u = rng.random() * total
        pos = min(int(np.searchsorted(np.cumsum(weights), u, side="right")), idx.size - 1)
        return int(idx[pos])

    return _walk_sample(g, cfg, "node2vec", "node2vec walk", step)
