"""Per-layer metrics: which netsample calls are wrapped, and what they yield.

``install`` wraps the public functions of each module at the names callers
look up, plus the ``Graph`` and ``Leaderboard`` methods. The wrappers record
spans, read ``SampleResult.counters`` and ``CentralityVector`` metadata, and
check outputs as they pass. ``layer_values`` turns one traced round's span
summary and counters into the metrics listed in ``PER_LAYER``.
"""

from __future__ import annotations

import scipy.stats

from spans import Patcher, Tracer, clock, counted, spanned

SAMPLER_TAGS = {
    "tcec": {"rw-init", "criterion", "fallback"},
    "tcpr": {"rw-init", "criterion", "fallback"},
    "rw": {"rw"},
    "node2vec": {"node2vec"},
    "xs": {"xs"},
    "rn": {"rn"},
}
CRAWL_SAMPLERS = ("tcec", "tcpr", "node2vec", "rw")
CENTRALITIES = ("eigenvector", "pagerank", "springrank", "betweenness", "indegree")
PHASES = ("rw_init", "criterion", "fallback")
# the operations a user calls; each workload runs some of them
OPERATIONS = (
    "load_s",
    *[f"sample_s.{s}" for s in CRAWL_SAMPLERS],
    *[f"centrality_s.{m}" for m in CENTRALITIES[:4]],
    "experiment_s",
)

# (name, unit, better, kind). "time" metrics are medians over traced rounds;
# "count" metrics come from the first traced round and repeat exactly.
PER_LAYER = [
    # untraced timings of the operations a user calls: the fastest untraced
    # call of the traced run, and the cold warm-up call of each sampler
    *[(name, "s", "lower", "time") for name in OPERATIONS],
    ("job_s", "s", "lower", "time"),
    *[(f"samplers.{s}.first_call.s", "s", "lower", "time") for s in CRAWL_SAMPLERS],
    ("trace.overhead_frac", "ratio", "lower", "time"),
    # graph
    ("graph.load_edge_list.s", "s", "lower", "time"),
    ("graph.load_edge_list.edges_per_s", "edges/s", "higher", "time"),
    ("graph.save_edge_list.s", "s", "lower", "time"),
    ("graph.build.s", "s", "lower", "time"),
    ("graph.build.calls", "count", "lower", "count"),
    ("graph.induced_subgraph.s", "s", "lower", "time"),
    ("graph.induced_subgraph.calls", "count", "lower", "count"),
    ("graph.neighbor_queries", "count", "lower", "count"),
    ("graph.neighbor_query.s", "s", "lower", "time"),
    # synth
    ("synth.generate_sbm.s", "s", "lower", "time"),
    ("synth.edges", "count", "higher", "count"),
    # samplers.base
    ("samplers.base.leaderboard.s", "s", "lower", "time"),
    ("samplers.base.leaderboard.offers", "count", "lower", "count"),
    ("samplers.base.leaderboard.pops", "count", "lower", "count"),
    ("samplers.base.leaderboard.evictions", "count", "lower", "count"),
    ("samplers.base.leaderboard.peak_size", "count", "lower", "count"),
    ("samplers.base.walk.s", "s", "lower", "time"),
    ("samplers.base.walk.calls", "count", "lower", "count"),
    ("samplers.base.walk.steps", "count", "lower", "count"),
    ("samplers.base.fallback_events", "count", "lower", "count"),
    ("samplers.base.neighborhood.s", "s", "lower", "time"),
    # phase split from step_callback
    *[
        metric
        for s in ("tcec", "tcpr")
        for p in PHASES
        for metric in (
            (f"samplers.{s}.phase.{p}.s", "s", "lower", "time"),
            (f"samplers.{s}.phase.{p}.admissions", "count", "higher", "count"),
        )
    ],
    # samplers.tcec / samplers.tcpr
    ("samplers.tcec.score.s", "s", "lower", "time"),
    ("samplers.tcec.score.calls", "count", "lower", "count"),
    ("samplers.tcec.useful_ratio", "ratio", "higher", "count"),
    ("samplers.tcpr.score.s", "s", "lower", "time"),
    ("samplers.tcpr.score.calls", "count", "lower", "count"),
    ("samplers.tcpr.delta.s", "s", "lower", "time"),
    ("samplers.tcpr.dangling_members", "count", "lower", "count"),
    # samplers.baselines
    ("samplers.baselines.node2vec.step_weights.s", "s", "lower", "time"),
    ("samplers.baselines.node2vec.steps", "count", "lower", "count"),
    ("samplers.baselines.rw.steps", "count", "lower", "count"),
    ("samplers.baselines.xs.s", "s", "lower", "time"),
    ("samplers.baselines.xs.border_peak", "count", "lower", "count"),
    # centrality, per measure
    *[
        metric
        for m in CENTRALITIES
        for metric in (
            (f"centrality.{m}.s", "s", "lower", "time"),
            (f"centrality.{m}.calls", "count", "lower", "count"),
            (f"centrality.{m}.iterations", "count", "lower", "count"),
            (f"centrality.{m}.converged_frac", "ratio", "higher", "count"),
        )
    ],
    ("centrality.betweenness.s_per_source", "s", "lower", "time"),
    # metrics
    ("metrics.kendall_tau.s", "s", "lower", "time"),
    ("metrics.kendall_tau.calls", "count", "lower", "count"),
    ("metrics.kl_divergence.s", "s", "lower", "time"),
    ("metrics.label_histogram.s", "s", "lower", "time"),
    # experiments and cli
    ("experiments.cells", "count", "higher", "count"),
    ("experiments.missing_cells", "count", "lower", "count"),
    ("experiments.full_centrality.s", "s", "lower", "time"),
    ("experiments.cache.writes", "count", "lower", "count"),
    ("experiments.cache.hits", "count", "lower", "count"),
    ("experiments.load_input.s", "s", "lower", "time"),
    ("experiments.save.s", "s", "lower", "time"),
    ("experiments.self.s", "s", "lower", "time"),
    ("cli.self.s", "s", "lower", "time"),
]


def install(tracer: Tracer) -> Patcher:
    """Wrap every layer boundary; the caller restores with ``Patcher.restore``."""
    from netsample import centrality, experiments, graph, metrics, samplers, synth
    from netsample.samplers import base, baselines, tcec, tcpr

    t = tracer
    p = Patcher(registries=(samplers.SAMPLERS, centrality.MEASURES))

    def wrap(name, original, after=None):
        p.function(original, spanned(t, name, original, after))

    def wrap_method(name, cls, attr, after=None):
        p.method(cls, attr, spanned(t, name, cls.__dict__[attr], after))

    wrap(
        "graph.load_edge_list",
        graph.load_edge_list,
        lambda r, a, k: t.add("graph.load_edge_list.edges", r[0].num_edges),
    )
    wrap("graph.save_edge_list", graph.save_edge_list)
    wrap("graph.induced_subgraph", graph.induced_subgraph)
    wrap_method("graph.build", graph.Graph, "__init__")
    for attr in ("out_neighbors", "in_neighbors"):
        p.method(
            graph.Graph,
            attr,
            counted(t, "graph.neighbor_queries", "graph.neighbor_query.s", vars(graph.Graph)[attr]),
        )
    wrap("synth.generate_sbm", synth.generate_sbm, lambda r, a, k: t.add("synth.edges", r[0].num_edges))

    lb = base.Leaderboard
    wrap_method(
        "samplers.base.leaderboard.offer",
        lb,
        "offer",
        lambda r, a, k: t.peak("samplers.base.leaderboard.peak_size", len(a[0])),
    )
    wrap_method("samplers.base.leaderboard.pop_best", lb, "pop_best")
    wrap_method("samplers.base.leaderboard.discard", lb, "discard")
    wrap(
        "samplers.base.walk",
        base.walk_until_new,
        lambda r, a, k: t.add("samplers.base.walk.steps", r[1]),
    )
    wrap("samplers.base.neighborhood", base.neighborhood)
    wrap("samplers.tcec.score", tcec.tcec_score)
    wrap("samplers.tcpr.score", tcpr.tcpr_score)
    wrap("samplers.tcpr.delta", tcpr.init_delta)
    wrap("samplers.tcpr.delta", tcpr.update_deltas_on_admit)
    wrap("samplers.baselines.node2vec.step_weights", baselines.node2vec_step_weights)

    for name, fn in list(samplers.SAMPLERS.items()):
        wrap(f"sampler.{name}", fn, _after_sample(t, name))
    for name, fn in list(centrality.MEASURES.items()):
        wrap(f"centrality.{name}", fn, _after_measure(t, name))

    wrap("metrics.kendall_tau", metrics.kendall_tau, _after_kendall(t))
    wrap("metrics.kl_divergence", metrics.kl_divergence)
    wrap("metrics.label_histogram", metrics.label_histogram)

    def after_experiment(result, a, k):
        t.add("experiments.cells", len(result.rows))
        t.add("experiments.missing_cells", sum(r["value"] is None for r in result.rows))

    wrap("experiments.run_experiment", experiments.run_experiment, after_experiment)
    wrap("experiments.load_input", experiments.load_input)
    wrap("experiments.full_centrality", experiments.full_centrality)
    wrap_method("experiments.save", experiments.RunResult, "save")
    return p


def check_sample(name: str, result, m: int) -> str | None:
    """Distinct nodes, exactly ``m`` of them, tags from the sampler's vocabulary."""
    if len(set(result.nodes)) != len(result.nodes):
        return f"{name}: repeated nodes"
    if len(result.nodes) != m:
        return f"{name}: {len(result.nodes)} nodes, wanted {m}"
    bad = set(result.tags) - SAMPLER_TAGS[name]
    if bad or len(result.tags) != m:
        return f"{name}: tags {sorted(bad)} outside {sorted(SAMPLER_TAGS[name])}"
    return None


def _after_sample(t: Tracer, name: str):
    def after(result, args, kwargs):
        cfg = args[1] if len(args) > 1 else kwargs["cfg"]
        problem = check_sample(name, result, cfg.target_size)
        if problem:
            t.fail(problem)
        c = result.counters
        t.add("samplers.base.leaderboard.evictions", c.get("leaderboard_evictions", 0))
        t.add("samplers.base.fallback_events", c.get("fallback_events", 0))
        t.add(f"samplers.{name}.criterion_admissions", result.tags.count("criterion"))
        if name in ("rw", "node2vec"):
            t.add(f"samplers.baselines.{name}.steps", c["steps"])
        if name == "xs":
            t.peak("samplers.baselines.xs.border_peak", c["border_peak"])

    return after


def _after_measure(t: Tracer, name: str):
    def after(vec, args, kwargs):
        t.add(f"centrality.{name}.iterations", vec.iterations)
        t.add(f"centrality.{name}.converged", int(vec.converged))
        if name == "betweenness":
            sources = kwargs.get("sources", args[1] if len(args) > 1 else None)
            t.add("centrality.betweenness.sources", args[0].n if sources is None else len(sources))

    return after


def _after_kendall(t: Tracer):
    def after(tau, args, kwargs):
        ref = scipy.stats.kendalltau(args[0], args[1]).statistic
        if not abs(tau - ref) <= 1e-12:
            t.fail(f"kendall_tau {tau!r} != scipy {ref!r}")

    return after


class PhaseClock:
    """``step_callback`` that splits a criterion crawl's time by admission tag.

    The interval that ends at an admission is charged to that admission's
    tag; the first interval starts when the clock is made.
    """

    def __init__(self, tracer: Tracer, sampler: str):
        self.tracer = tracer
        self.prefix = f"samplers.{sampler}.phase."
        self.state = None
        self.last = clock()

    def __call__(self, state, node, tag):
        now = clock()
        key = self.prefix + tag.replace("-", "_")
        self.tracer.add(key + ".s", now - self.last)
        self.tracer.add(key + ".admissions")
        self.state = state
        self.last = now


def layer_values(summary: dict, counters: dict) -> dict[str, float]:
    """Per-layer metric values of one traced round (op timings excluded)."""

    def s(name):
        return summary.get(name, {}).get("s", 0.0)

    def calls(name):
        return summary.get(name, {}).get("calls", 0)

    def k(name):
        return counters.get(name, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    v = {
        "graph.load_edge_list.s": s("graph.load_edge_list"),
        "graph.load_edge_list.edges_per_s": ratio(
            k("graph.load_edge_list.edges"), s("graph.load_edge_list")
        ),
        "graph.save_edge_list.s": s("graph.save_edge_list"),
        "graph.build.s": s("graph.build"),
        "graph.build.calls": calls("graph.build"),
        "graph.induced_subgraph.s": s("graph.induced_subgraph"),
        "graph.induced_subgraph.calls": calls("graph.induced_subgraph"),
        "graph.neighbor_queries": k("graph.neighbor_queries"),
        "graph.neighbor_query.s": k("graph.neighbor_query.s"),
        "synth.generate_sbm.s": s("synth.generate_sbm"),
        "synth.edges": k("synth.edges"),
        "samplers.base.leaderboard.s": sum(
            s(f"samplers.base.leaderboard.{op}") for op in ("offer", "pop_best", "discard")
        ),
        "samplers.base.leaderboard.offers": calls("samplers.base.leaderboard.offer"),
        "samplers.base.leaderboard.pops": calls("samplers.base.leaderboard.pop_best"),
        "samplers.base.leaderboard.evictions": k("samplers.base.leaderboard.evictions"),
        "samplers.base.leaderboard.peak_size": k("samplers.base.leaderboard.peak_size"),
        "samplers.base.walk.s": s("samplers.base.walk"),
        "samplers.base.walk.calls": calls("samplers.base.walk"),
        "samplers.base.walk.steps": k("samplers.base.walk.steps"),
        "samplers.base.fallback_events": k("samplers.base.fallback_events"),
        "samplers.base.neighborhood.s": s("samplers.base.neighborhood"),
        "samplers.tcec.score.s": s("samplers.tcec.score"),
        "samplers.tcec.score.calls": calls("samplers.tcec.score"),
        "samplers.tcec.useful_ratio": ratio(
            k("samplers.tcec.criterion_admissions"), calls("samplers.tcec.score")
        ),
        "samplers.tcpr.score.s": s("samplers.tcpr.score"),
        "samplers.tcpr.score.calls": calls("samplers.tcpr.score"),
        "samplers.tcpr.delta.s": s("samplers.tcpr.delta"),
        "samplers.tcpr.dangling_members": k("samplers.tcpr.dangling_members"),
        "samplers.baselines.node2vec.step_weights.s": s("samplers.baselines.node2vec.step_weights"),
        "samplers.baselines.node2vec.steps": k("samplers.baselines.node2vec.steps"),
        "samplers.baselines.rw.steps": k("samplers.baselines.rw.steps"),
        "samplers.baselines.xs.s": s("sampler.xs"),
        "samplers.baselines.xs.border_peak": k("samplers.baselines.xs.border_peak"),
        "centrality.betweenness.s_per_source": ratio(
            s("centrality.betweenness"), k("centrality.betweenness.sources")
        ),
        "metrics.kendall_tau.s": s("metrics.kendall_tau"),
        "metrics.kendall_tau.calls": calls("metrics.kendall_tau"),
        "metrics.kl_divergence.s": s("metrics.kl_divergence"),
        "metrics.label_histogram.s": s("metrics.label_histogram"),
        "experiments.cells": k("experiments.cells"),
        "experiments.missing_cells": k("experiments.missing_cells"),
        "experiments.full_centrality.s": s("experiments.full_centrality"),
        "experiments.cache.writes": k("experiments.cache.writes"),
        "experiments.cache.hits": calls("experiments.full_centrality")
        - k("experiments.cache.writes"),
        "experiments.load_input.s": s("experiments.load_input"),
        "experiments.save.s": s("experiments.save"),
        "experiments.self.s": summary.get("experiments.run_experiment", {}).get("self_s", 0.0),
        "cli.self.s": summary.get("cli.experiment_run", {}).get("self_s", 0.0),
    }
    for sampler in ("tcec", "tcpr"):
        for phase in PHASES:
            key = f"samplers.{sampler}.phase.{phase}"
            v[key + ".s"] = k(key + ".s")
            v[key + ".admissions"] = k(key + ".admissions")
    for m in CENTRALITIES:
        n = calls(f"centrality.{m}")
        v[f"centrality.{m}.s"] = s(f"centrality.{m}")
        v[f"centrality.{m}.calls"] = n
        v[f"centrality.{m}.iterations"] = k(f"centrality.{m}.iterations")
        v[f"centrality.{m}.converged_frac"] = ratio(k(f"centrality.{m}.converged"), n)
    return v
