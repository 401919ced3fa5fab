"""The names the benchmark in ``perfbench/`` wraps must exist and be called.

``perfbench/layers.py`` wraps netsample functions and methods by identity at
every name a module holds them under, and its ``crawl`` workload reads
``len(state.dangling_members)`` from a ``tcpr`` step callback. These tests
install those wrappers, run each of the six samplers on a tiny graph through
them, check the sample as perfbench does, and check that every original comes
back on restore.
``perfbench/`` is only read.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

import netsample
from netsample.graph import Graph
from netsample.samplers import SamplerConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def layers_and_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    yield layers, spans
    for name in ("layers", "spans"):
        sys.modules.pop(name, None)


def _graph_with_sinks() -> Graph:
    n = 40
    rng = np.random.default_rng(7)
    src = rng.integers(0, n, size=240)
    dst = rng.integers(0, n, size=240)
    keep = src % 4 != 0  # every fourth node is a sink
    return Graph(n, src[keep], dst[keep], np.ones(int(keep.sum())), directed=True)


def test_perfbench_wrappers_install_run_and_restore(layers_and_spans):
    layers, spans = layers_and_spans
    g = _graph_with_sinks()
    seen = []

    def step_callback(state, node, tag):
        seen.append(len(state.dangling_members))

    tracer = spans.Tracer()
    patcher = layers.install(tracer)
    try:
        result = netsample.samplers.SAMPLERS["tcpr"](
            g, SamplerConfig(target_size=20, rng_seed=3, seed_nodes=(1,)), step_callback=step_callback
        )
    finally:
        patcher.restore()
    assert patcher.unrestored() == []
    assert tracer.check_failures == []

    assert len(seen) == 20
    assert seen[-1] == sum(g.out_strength[v] <= 0 for v in result.nodes) > 0
    calls = {name: s["calls"] for name, s in tracer.summary().items()}
    for name in ("sampler.tcpr", "samplers.tcpr.score", "samplers.tcpr.delta",
                 "samplers.base.walk", "samplers.base.leaderboard.offer"):
        assert calls.get(name, 0) > 0, name
    assert tracer.counters["graph.neighbor_queries"] > 0


def _run_wrapped(layers, spans, name):
    """Run sampler ``name`` on the graph with sinks under perfbench's wrappers."""
    g = _graph_with_sinks()
    cfg = SamplerConfig(target_size=20, rng_seed=3, seed_nodes=(1,))
    tracer = spans.Tracer()
    patcher = layers.install(tracer)
    try:
        result = netsample.samplers.SAMPLERS[name](g, cfg)
    finally:
        patcher.restore()
    assert patcher.unrestored() == []
    assert tracer.check_failures == []
    assert layers.check_sample(name, result, cfg.target_size) is None
    assert tracer.summary()[f"sampler.{name}"]["calls"] == 1
    return tracer, result


def test_perfbench_sees_the_uniform_node_sampler(layers_and_spans):
    _run_wrapped(*layers_and_spans, "rn")


def test_perfbench_sees_the_random_walk(layers_and_spans):
    tracer, result = _run_wrapped(*layers_and_spans, "rw")
    assert tracer.summary()["samplers.base.walk"]["calls"] == len(result.nodes) - 1
    assert tracer.counters["samplers.base.walk.steps"] == result.counters["steps"]
    assert tracer.counters["samplers.baselines.rw.steps"] == result.counters["steps"]


def test_perfbench_sees_the_tcec_crawl(layers_and_spans):
    tracer, result = _run_wrapped(*layers_and_spans, "tcec")
    summary = tracer.summary()
    for name in ("samplers.tcec.score", "samplers.base.neighborhood",
                 "samplers.base.leaderboard.offer", "samplers.base.leaderboard.pop_best",
                 "samplers.base.leaderboard.discard"):
        assert summary.get(name, {}).get("calls", 0) > 0, name
    assert summary["samplers.base.leaderboard.discard"]["calls"] == len(result.nodes)


def test_perfbench_sees_the_node2vec_walk(layers_and_spans):
    # node2vec walks through the shared walker, so both its walk and its
    # step weights must reach the wrappers
    tracer, result = _run_wrapped(*layers_and_spans, "node2vec")
    summary = tracer.summary()
    assert summary["samplers.baselines.node2vec.step_weights"]["calls"] > 0
    assert summary["samplers.base.walk"]["calls"] == len(result.nodes) - 1
    assert tracer.counters["samplers.base.walk.steps"] == result.counters["steps"]


def test_perfbench_sees_the_expansion_sampler(layers_and_spans):
    original = netsample.samplers.SAMPLERS["xs"]
    tracer, result = _run_wrapped(*layers_and_spans, "xs")
    assert netsample.samplers.SAMPLERS["xs"] is original
    peak = tracer.counters["samplers.baselines.xs.border_peak"]
    assert peak == result.counters["border_peak"] > 0
