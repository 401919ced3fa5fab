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
from ..graph import sorted_lookup
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
    # a dangling member can reach s by a zero-weight edge; it has no delta
    mem = state.member_mask[in_idx] & (in_idx != s) & (dout[in_idx] > 0)
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
    in_member = mask[in_idx]
    in_live = dout[in_idx] > 0
    outside = ~in_member & (in_idx != j) & in_live
    b3 = gamma * float((in_w[outside] / dout[in_idx[outside]]).sum())

    # P(s -> j) for non-dangling member in-neighbors of j, ascending by s as
    # the in-list is; a dangling member reaches j only by zero-weight edges
    msel = in_member & in_live
    s_in = in_idx[msel]
    prob_sj = in_w[msel] / dout[s_in]
    # Python's sum adds left to right; dangling members add a constant, dropped
    sum_prob_sj = sum(prob_sj.tolist())

    const = (1.0 - gamma) * (n - k - 1) / n
    b1u = 0.0
    if s_nodes.size:
        # P(s -> j) of each member target s of j: 0 if s is not an
        # in-neighbor of j, 1/n if s is dangling
        corr = np.where(dout[s_nodes] > 0, 0.0, 1.0 / n)
        pos, hit = sorted_lookup(s_in, s_nodes)
        corr[hit] = prob_sj[pos[hit]]
        delta_excl = member_deltas(g, state, s_nodes) - corr
        b1u = gamma * float((u * (gamma * delta_excl + const)).sum())
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
        in_idx, _ = g.in_neighbors(node)  # sorted and distinct
        cands = in_idx[in_idx != node]
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
