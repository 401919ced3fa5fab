"""PageRank-targeted crawling with L1-norm criterion terms.

The PageRank transition matrix is column-stochastic: entry (row i, column j)
is A_ji / d_out(j), with dangling columns (zero out-degree) replaced by the
uniform distribution. The criterion scores candidate j by

    ||b1||_1 + ||b1^T U||_1 - ||b3||_1

with all candidate-independent additive constants dropped. The expensive
cross term is made local by keeping, for every member s, the quantity

    delta_s = sum over non-members i of P(s -> i)

where P(s -> i) = A_si / d_out(s) for non-dangling s and 1/n for dangling s.
A non-dangling member's delta is stored and updated on every admission. A
dangling member's delta is (n - k) / n for a sample of k nodes, so it is
never stored: ``member_deltas`` computes it when it is read.
"""

from __future__ import annotations

import numpy as np

from ..errors import DanglingCandidateError, ValidationError
from .base import SampleResult, SamplerConfig, SampleState, run_criterion_crawl


def init_delta(g, state: SampleState, s: int, dangling: np.ndarray, dout: np.ndarray) -> None:
    """Set delta for a freshly admitted member (mask already includes it).

    A dangling member is only recorded; ``member_deltas`` gives its delta.
    """
    if dangling[s]:
        state.dangling_members.append(s)
        return
    out_idx, out_w = g.out_neighbors(s)
    keep = ~state.member_mask[out_idx]
    state.delta[s] = float(out_w[keep].sum()) / float(dout[s])


def update_deltas_on_admit(g, state: SampleState, s: int, dout: np.ndarray) -> None:
    """Remove the admitted node's term from every non-dangling member's delta.

    No dangling member's delta is stored, so there is none to update.
    """
    in_idx, in_w = g.in_neighbors(s)
    mem = state.member_mask[in_idx] & (in_idx != s)
    xs = in_idx[mem]
    if xs.size:
        state.delta[xs] -= in_w[mem] / dout[xs]


def member_deltas(g, state: SampleState, nodes) -> np.ndarray:
    """Deltas of the members ``nodes``; a dangling member's is (n - k) / n."""
    return np.where(g.out_strength[nodes] <= 0, (g.n - state.k) / g.n, state.delta[nodes])


def tcpr_score(g, state: SampleState, j: int, gamma: float) -> float:
    """Criterion score of non-dangling candidate ``j`` (constants dropped)."""
    n = g.n
    dout = g.out_strength
    mask = state.member_mask
    if mask[j]:
        raise ValidationError(f"candidate {j} is already sampled")
    if dout[j] <= 0:
        raise DanglingCandidateError(f"node {j} has zero out-degree")
    k = state.k

    out_idx, out_w = g.out_neighbors(j)
    sel = mask[out_idx]
    s_nodes, s_w = out_idx[sel], out_w[sel]
    u = s_w / float(dout[j])  # candidate's transition mass into the sample
    b1 = gamma * float(u.sum())

    in_idx, in_w = g.in_neighbors(j)
    outside = ~mask[in_idx] & (in_idx != j) & (dout[in_idx] > 0)
    b3 = gamma * float(np.sum(in_w[outside] / dout[in_idx[outside]]))

    # P(s -> j) for member in-neighbors of j (all necessarily non-dangling)
    msel = mask[in_idx]
    prob_sj = {int(s): float(w) / float(dout[s]) for s, w in zip(in_idx[msel], in_w[msel])}
    sum_prob_sj = sum(prob_sj.values())  # dangling members add a constant; dropped

    const = (1.0 - gamma) * (n - k - 1) / n
    b1u = 0.0
    if s_nodes.size:
        corr = np.array(
            [
                prob_sj.get(int(s), 0.0) if dout[s] > 0 else 1.0 / n
                for s in s_nodes
            ]
        )
        delta_excl = member_deltas(g, state, s_nodes) - corr
        b1u = gamma * float(np.sum(u * (gamma * delta_excl + const)))
    b1u -= gamma * (1.0 - gamma) / n * sum_prob_sj
    return b1 + b1u - b3


def sample_tcpr(g, cfg: SamplerConfig, step_callback=None) -> SampleResult:
    """PageRank-targeted sampling.

    Control flow matches the eigenvector-targeted crawl except that
    candidates are offered only from in-neighbors of admitted nodes (the
    artificial complete-graph edges are never crawled), dangling candidates
    are skipped, and delta bookkeeping runs on every admission.
    """
    state = SampleState.empty(g.n, cfg.leaderboard_capacity, with_delta=True)
    dout = g.out_strength
    dangling = dout <= 0
    gamma = cfg.damping
    counters_extra = {"dangling_skipped": 0}

    def score_fn(j):
        return tcpr_score(g, state, j, gamma)

    def on_admit(node):
        init_delta(g, state, node, dangling, dout)
        update_deltas_on_admit(g, state, node, dout)

    def offer_candidates(node):
        in_idx, _ = g.in_neighbors(node)
        cands = np.unique(in_idx)
        cands = cands[cands != node]
        ok = ~dangling[cands]
        counters_extra["dangling_skipped"] += int(np.count_nonzero(~ok))
        return cands[ok]

    result = run_criterion_crawl(
        g, cfg, state, "tcpr", score_fn, offer_candidates, on_admit, step_callback
    )
    result.counters.update(counters_extra)
    return result


def recompute_delta(g, member_mask: np.ndarray, x: int) -> float:
    """From-scratch delta of member ``x``: its transition mass to non-members."""
    n = g.n
    if g.out_strength[x] <= 0:
        return float(n - member_mask.sum()) / n
    out_idx, out_w = g.out_neighbors(x)
    keep = ~member_mask[out_idx]
    return float(out_w[keep].sum()) / float(g.out_strength[x])
