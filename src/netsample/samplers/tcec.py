"""Topology-driven sampling for in-sample eigenvector centrality recovery.

The crawl grows the sample one node at a time, scoring border candidates by

    (1 - alpha) * (||b1||^2 + ||b1^T U||^2 - ||b3||^2) + alpha * d_in_S(j)

where, for candidate j with sample S: b1 holds j's out-edges into S, b3 the
in-edges of j from outside the sample, U the edges from outside nodes into S,
and d_in_S(j) is j's weighted in-degree from sample members. The score is
evaluated from the candidate's own adjacency plus the in-neighbor lists of
its in-sample targets, so the cost stays local to the candidate.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ValidationError
from .base import (
    STEP_BUDGET_FACTOR,
    SampleResult,
    SamplerConfig,
    SampleState,
    neighborhood,
    partial_error,
    pick_seed,
    walk_until_new,
)


def tcec_score(g, state: SampleState, j: int, alpha: float) -> float:
    """Score candidate ``j`` against the current sample.

    Cost is O(sum of in-degrees of j's in-sample out-targets), independent of
    the sample size.
    """
    mask = state.member_mask
    if mask[j]:
        raise ValidationError(f"candidate {j} is already sampled")
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
            uniq, inv = np.unique(cols, return_inverse=True)
            sums = np.bincount(inv, weights=vals)
            btu_sq = float(sums @ sums)

    return (1.0 - alpha) * (b1_sq + btu_sq - b3_sq) + alpha * float(
        state.in_sample_indegree[j]
    )


def _refresh_leaderboard(state, score_fn):
    """Rescore every stale entry so the next pop is an exact argmax."""
    epoch = state.k
    for node in state.leaderboard.stale_nodes(epoch):
        state.leaderboard.set_score(node, score_fn(node), epoch)


def run_criterion_crawl(
    g,
    cfg: SamplerConfig,
    score_fn,
    offer_candidates,
    on_admit=None,
    state: SampleState | None = None,
    sampler_name: str = "tcec",
    step_callback=None,
) -> SampleResult:
    """Shared control flow for the criterion samplers.

    RW-init collects ``ceil(rw_init_fraction * m)`` nodes, then the main loop
    pops the leaderboard top (falling back to one random-walk step when it is
    empty) until ``m`` nodes are sampled. ``offer_candidates(node)`` yields
    the candidates to score when ``node`` enters the sample; ``on_admit`` runs
    state bookkeeping before candidates are offered.
    """
    n = g.node_count()
    cfg.validate(n)
    rng = np.random.default_rng(cfg.rng_seed)
    m = cfg.target_size
    if state is None:
        state = SampleState.empty(n, cfg.leaderboard_capacity)
    tags: list[str] = []
    counters = {"scored_candidates": 0, "fallback_events": 0, "rw_steps": 0}
    budget = STEP_BUDGET_FACTOR * m

    def admit(node: int, tag: str) -> None:
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
            state.leaderboard.offer(cand, score_fn(cand), epoch=state.k)
        if step_callback is not None:
            step_callback(state, node, tag)

    # phase 1: random-walk initialization
    init_size = min(m, max(1, math.ceil(cfg.rw_init_fraction * m)))
    seed = pick_seed(cfg, g, rng)
    admit(seed, "rw-init")
    current = seed
    while state.k < init_size:
        nxt, used = walk_until_new(g, rng, current, state.members, state.member_mask, budget)
        counters["rw_steps"] += used
        if nxt is None:
            raise partial_error(
                f"rw-init exhausted at {state.k}/{m} nodes", state.members, tags, counters
            )
        admit(nxt, "rw-init")
        current = nxt

    # phase 2: criterion-driven growth
    while state.k < m:
        if cfg.rescore_on_pop:
            _refresh_leaderboard(state, score_fn)
        node = state.leaderboard.pop_best()
        if node is not None:
            admit(node, "criterion")
            continue
        counters["fallback_events"] += 1
        start = state.members[int(rng.integers(state.k))]
        nxt, used = walk_until_new(g, rng, start, state.members, state.member_mask, budget)
        counters["rw_steps"] += used
        if nxt is None:
            raise partial_error(
                f"graph exhausted at {state.k}/{m} nodes", state.members, tags, counters
            )
        admit(nxt, "fallback")

    counters["leaderboard_evictions"] = state.leaderboard.evictions
    return SampleResult(
        nodes=list(state.members),
        tags=tags,
        counters=counters,
        config=cfg.echo(sampler=sampler_name),
    )


def sample_tcec(g, cfg: SamplerConfig, step_callback=None) -> SampleResult:
    """Eigenvector-centrality-targeted sampling.

    Candidates come from both edge directions around each admitted node
    (undirected reachability of the crawl frontier).
    """
    alpha = cfg.resolved_alpha(g.directed if hasattr(g, "directed") else True)
    state = SampleState.empty(g.node_count(), cfg.leaderboard_capacity)

    def score_fn(j):
        return tcec_score(g, state, j, alpha)

    def offer_candidates(node):
        return neighborhood(g, node)

    return run_criterion_crawl(
        g,
        cfg,
        score_fn,
        offer_candidates,
        state=state,
        sampler_name="tcec",
        step_callback=step_callback,
    )
