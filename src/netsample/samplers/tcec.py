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

import numpy as np

from ..errors import ValidationError
from .base import SampleResult, SamplerConfig, SampleState, neighborhood, run_criterion_crawl


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
    b1_idx = out_idx[sel]
    b1_sq = btu_sq = 0.0
    if b1_idx.size:
        b1_w = out_w[sel]
        b1_sq = float(b1_w.dot(b1_w))

    in_idx, in_w = g.in_neighbors(j)
    outside = ~mask[in_idx]
    if g.has_self_loop:
        outside &= in_idx != j
    wb3 = in_w[outside]
    b3_sq = float(wb3.dot(wb3))

    if b1_idx.size == 1:
        # one target: its in-list is sorted and distinct, so every outside
        # node's bin holds a single product; j is in the list, as j -> s
        s_in_idx, s_in_w = g.in_neighbors(int(b1_idx[0]))
        keep = ~mask[s_in_idx]
        keep[s_in_idx.searchsorted(j)] = False
        sums = s_in_w[keep] * b1_w
        btu_sq = float(sums.dot(sums))
    elif b1_idx.size:
        cols, vals = [], []
        for s, w_js in zip(b1_idx.tolist(), b1_w.tolist()):
            s_in_idx, s_in_w = g.in_neighbors(s)
            cols.append(s_in_idx)
            vals.append(w_js * s_in_w)
        cols = np.concatenate(cols)
        vals = np.concatenate(vals)
        keep = ~mask[cols] & (cols != j)
        cols, vals = cols[keep], vals[keep]
        if cols.size:
            # a stable sort keeps each outside node's products in gather
            # order, and bincount adds each bin's terms in that order
            order = cols.argsort(kind="stable")
            cols, sums = cols[order], vals[order]
            new_run = cols[1:] != cols[:-1]
            if np.count_nonzero(new_run) < new_run.size:
                # some node has two terms; a bin of one term holds 0.0 + v = v
                bins = np.zeros(cols.size, dtype=np.intp)
                new_run.cumsum(out=bins[1:])
                sums = np.bincount(bins, weights=sums)
            btu_sq = float(sums.dot(sums))

    return (1.0 - alpha) * (b1_sq + btu_sq - b3_sq) + alpha * float(
        state.in_sample_indegree[j]
    )


def sample_tcec(g, cfg: SamplerConfig, step_callback=None) -> SampleResult:
    """Eigenvector-centrality-targeted sampling.

    Candidates come from both edge directions around each admitted node
    (undirected reachability of the crawl frontier).
    """
    alpha = cfg.resolved_alpha(g.directed)
    state = SampleState.empty(g.n, cfg.leaderboard_capacity, in_sample_indegree=np.zeros(g.n))

    def score_fn(j):
        return tcec_score(g, state, j, alpha)

    def on_admit(node):
        out_idx, out_w = g.out_neighbors(node)
        # an out-list is distinct, so no index repeats in this update
        state.in_sample_indegree[out_idx] += out_w
        return neighborhood(g, node, state.member_mask)

    return run_criterion_crawl(g, cfg, state, "tcec", score_fn, on_admit, step_callback)
