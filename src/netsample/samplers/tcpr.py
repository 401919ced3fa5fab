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


def init_delta(g, state: SampleState, s: int) -> None:
    """Set delta for a freshly admitted member (mask already includes it).

    A dangling member is only recorded; ``member_deltas`` gives its delta.
    """
    dout = float(g.out_strength[s])
    if dout <= 0:
        state.dangling_members.append(s)
        return
    out_idx, out_w = g.out_neighbors(s)
    keep = ~state.member_mask[out_idx]
    state.delta[s] = float(np.add.reduce(out_w[keep])) / dout


def update_deltas_on_admit(g, state: SampleState, s: int):
    """Remove the admitted node's term from every non-dangling member's delta.

    No dangling member's delta is stored, so there is none to update. The
    terms ``P(x -> s)`` come from ``g.in_transitions``. Returns what it read
    of the in-list of ``s``: the sources, their ``d_out > 0`` flags and
    their member flags.
    """
    in_idx, p_in, live = g.in_transitions(s)
    member = state.member_mask[in_idx]
    # a dangling member can reach s by a zero-weight edge; it has no delta
    mem = member & live
    if g.has_self_loop:
        mem &= in_idx != s
    xs = in_idx[mem]
    if xs.size:
        state.delta[xs] -= p_in[mem]
    return in_idx, live, member


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
    s_nodes = out_idx[sel]
    u = out_w[sel] / float(dout[j])  # candidate's transition mass into the sample
    b1 = gamma * float(np.add.reduce(u))

    in_idx, p_in, live = g.in_transitions(j)
    in_member = mask[in_idx]
    outside = live & ~in_member
    if g.has_self_loop:
        outside &= in_idx != j
    b3 = gamma * float(np.add.reduce(p_in[outside]))

    # P(s -> j) for non-dangling member in-neighbors of j, ascending by s as
    # the in-list is; a dangling member reaches j only by zero-weight edges
    msel = in_member & live
    prob_sj = p_in[msel]
    # Python's sum adds left to right; dangling members add a constant, dropped
    sum_prob_sj = sum(prob_sj.tolist())

    const = (1.0 - gamma) * (n - k - 1) / n
    b1u = 0.0
    if s_nodes.size:
        # each member target's delta less its P(s -> j): 1/n if s is
        # dangling, the in-list's value if s is an in-neighbor of j, else 0;
        # init_delta lists every dangling member in state.dangling_members
        delta_excl = state.delta[s_nodes]
        if state.dangling_members:
            corr = np.where(dout[s_nodes] > 0, 0.0, 1.0 / n)
            delta_excl = member_deltas(g, state, s_nodes) - corr
        if prob_sj.size:
            pos, hit = sorted_lookup(in_idx[msel], s_nodes)
            delta_excl[hit] -= prob_sj[pos[hit]]
        b1u = gamma * float(np.add.reduce(u * (gamma * delta_excl + const)))
    b1u -= gamma * (1.0 - gamma) / n * sum_prob_sj
    return b1 + b1u - b3


def sample_tcpr(g, cfg: SamplerConfig, step_callback=None) -> SampleResult:
    """PageRank-targeted sampling.

    Control flow matches the eigenvector-targeted crawl except that
    candidates are offered only from in-neighbors of admitted nodes (the
    artificial complete-graph edges are never crawled), dangling candidates
    are skipped, and delta bookkeeping runs on every admission.
    """
    state = SampleState.empty(
        g.n, cfg.leaderboard_capacity, delta=np.zeros(g.n), counters={"dangling_skipped": 0}
    )
    gamma = cfg.damping

    def score_fn(j):
        return tcpr_score(g, state, j, gamma)

    def on_admit(node):
        init_delta(g, state, node)
        # the in-list is sorted and distinct; node itself is no candidate
        in_idx, live, member = update_deltas_on_admit(g, state, node)
        dead = ~live & (in_idx != node) if g.has_self_loop else ~live
        state.counters["dangling_skipped"] += int(np.count_nonzero(dead))
        return in_idx[live & ~member]

    return run_criterion_crawl(g, cfg, state, "tcpr", score_fn, on_admit, step_callback)
