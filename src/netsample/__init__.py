"""Graph-sampling toolkit: criterion-driven samplers, baselines, centrality
measures, and distribution metrics, with a CLI experiment runner."""

from .graph import (
    Graph,
    LabeledPartition,
    NodeMapping,
    induced_subgraph,
    load_edge_list,
    load_labels,
    save_edge_list,
)
from .synth import SbmSpec, generate_sbm, plant_attributes
from .samplers import (
    SAMPLERS,
    SampleResult,
    SamplerConfig,
    sample_expansion,
    sample_node2vec_walk,
    sample_random_node,
    sample_random_walk,
    sample_tcec,
    sample_tcpr,
    tcec_score,
    tcpr_score,
)
from .centrality import (
    MEASURES,
    CentralityVector,
    betweenness,
    eigenvector_centrality,
    in_degree_centrality,
    pagerank,
    springrank,
)
from .metrics import (
    CategoricalDistribution,
    entropy_ratio,
    kendall_tau,
    kl_divergence,
    label_histogram,
)

__version__ = "0.1.0"
