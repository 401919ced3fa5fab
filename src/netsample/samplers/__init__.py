"""Sampling algorithms behind one interface producing ordered node sequences."""

from .base import (
    RESTART_PROB,
    STEP_BUDGET_FACTOR,
    Leaderboard,
    SampleResult,
    SamplerConfig,
    SampleState,
)
from .baselines import (
    node2vec_step_weights,
    sample_expansion,
    sample_node2vec_walk,
    sample_random_node,
    sample_random_walk,
)
from .tcec import sample_tcec, tcec_score
from .tcpr import sample_tcpr, tcpr_score

SAMPLERS = {
    "rn": sample_random_node,
    "rw": sample_random_walk,
    "xs": sample_expansion,
    "node2vec": sample_node2vec_walk,
    "tcec": sample_tcec,
    "tcpr": sample_tcpr,
}

__all__ = [
    "RESTART_PROB",
    "STEP_BUDGET_FACTOR",
    "Leaderboard",
    "SampleResult",
    "SamplerConfig",
    "SampleState",
    "SAMPLERS",
    "node2vec_step_weights",
    "sample_expansion",
    "sample_node2vec_walk",
    "sample_random_node",
    "sample_random_walk",
    "sample_tcec",
    "sample_tcpr",
    "tcec_score",
    "tcpr_score",
]
