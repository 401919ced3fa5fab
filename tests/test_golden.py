"""Golden digests of fixed-seed samples and experiment outputs.

Each case runs one sampler, or one small experiment spec, at fixed seeds and
compares a sha256 digest of what it produced with the digest recorded here:
for a sample its ``(nodes, tags, counters)``, for a partial sample the
``PartialSampleError`` message plus the same triple, and for an experiment
the bytes of its ``raw.csv``. A refactor must reproduce every digest; only a
change that means to alter an output may record new ones (print them with
``PYTHONPATH=src python tests/test_golden.py``).
"""

from __future__ import annotations

import hashlib
import json

import pytest

from netsample.errors import PartialSampleError
from netsample.experiments import ExperimentSpec, run_experiment
from netsample.graph import Graph
from netsample.samplers import SAMPLERS, SamplerConfig, tcec, tcpr
from netsample.synth import SbmSpec, generate_sbm

GRAPHS = {
    "directed": SbmSpec(block_sizes=(40, 30, 30), p_in=0.06, p_out=0.01, directed=True, rng_seed=3),
    "undirected": SbmSpec(block_sizes=(50, 50), p_in=0.08, p_out=0.01, rng_seed=4),
}
CONFIGS = {
    "default": dict(target_size=30, rng_seed=11),
    "seeded": dict(
        target_size=45,
        rng_seed=12,
        seed_nodes=(7,),
        leaderboard_capacity=5,
        exploration_p=1.0,
        alpha=0.3,
        rescore_on_pop=True,
    ),
}
# no edge leaves 0 -> 1 -> 2 -> 0, and 7 -> 8 is cut off from the rest, so
# no sampler seeded at 0 collects eight nodes
TRAP_EDGES = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 6), (6, 3), (6, 0), (7, 8)]


def _digest(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def _sample_payload(nodes, tags, counters) -> list:
    return [[int(v) for v in nodes], list(tags), counters]


def sample_digest(graph: str, sampler: str, config: str) -> str:
    g, _ = generate_sbm(GRAPHS[graph])
    result = SAMPLERS[sampler](g, SamplerConfig(**CONFIGS[config]))
    return _digest(_sample_payload(result.nodes, result.tags, result.counters))


def partial_sample(sampler: str) -> tuple[str, str]:
    g = Graph.from_edges(9, TRAP_EDGES, directed=True)
    with pytest.raises(PartialSampleError) as info:
        SAMPLERS[sampler](g, SamplerConfig(target_size=8, rng_seed=1, seed_nodes=(0,)))
    exc = info.value
    return str(exc), _digest(_sample_payload(exc.nodes, exc.tags, exc.counters))


SPECS = {
    "centrality_comparison": dict(
        kind="centrality_comparison",
        input={"sbm": dict(block_sizes=[60, 60], p_in=0.05, p_out=0.01, directed=True, rng_seed=8)},
        samplers=[
            {"name": "rn"},
            {"name": "rw"},
            {"name": "xs"},
            {"name": "node2vec", "config": {"node2vec_p": 1.0, "node2vec_q": 2.0}},
            {"name": "tcec", "config": {"leaderboard_capacity": 20}},
            {"name": "tcpr"},
        ],
        fractions=(0.1, 0.25),
        measures=("eigenvector", "pagerank", "indegree", "betweenness", "springrank"),
        repetitions=2,
        base_seed=5,
    ),
    "community": dict(
        kind="community",
        input={"sbm": dict(block_sizes=[30, 50, 70], p_in=0.1, p_out=0.01, rng_seed=9)},
        samplers=[{"name": s} for s in ("rn", "rw", "xs", "node2vec", "tcec", "tcpr")],
        fractions=(0.1, 0.2),
        repetitions=3,
        seeds=(4, 5, 6),
        seed_policy="smallest_block",
    ),
    "attribute": dict(
        kind="attribute",
        input={
            "sbm": dict(block_sizes=[40, 40, 40], p_in=0.1, p_out=0.01, rng_seed=10),
            "attributes": {"noise": 0.2, "labels": ["a", "b", "c"], "rng_seed": 2},
        },
        samplers=[
            {"name": "node2vec", "config": {"node2vec_p": 0.5, "node2vec_q": 2.0}},
            {"name": "rw"},
            {"name": "tcec"},
        ],
        fractions=(0.1,),
        repetitions=2,
        base_seed=3,
        seed_regions=("a", "c"),
    ),
}


def raw_csv_digest(kind: str, out_dir) -> str:
    spec = ExperimentSpec.from_dict(dict(SPECS[kind], dataset=kind, output_dir=str(out_dir)))
    run_experiment(spec).save(out_dir)
    return hashlib.sha256((out_dir / "raw.csv").read_bytes()).hexdigest()


SAMPLE_DIGESTS = {
    "directed/rn/default": "9852e34962af740a93b611bac08eee7941e41af9addc5d69298528f77995e143",
    "directed/rn/seeded": "ac1fc28b01cccef9b7ebfb4c6713bd4da3220f0a47a7b186800839af7e61f160",
    "directed/rw/default": "7f69a54d46aa6a80a559fa8d030d2b9aa0f628a684777aec7fe6a5c0b1e0d19f",
    "directed/rw/seeded": "411ae916f3e4c6e2d9473f3c335d08141b53e59975a0b908dbc13cce107ff8ce",
    "directed/xs/default": "56db4be2f76396322f899cf1034041af020c59a3e1a89cdab6913e906fd12d3d",
    "directed/xs/seeded": "4849e21d64cddb9b8a37fece42e39bdc4959c58a7461d13bb1c502d68521edbb",
    "directed/node2vec/default": "c54ec32c61969d6383c3ae733ece457c0eebcfd1aa85a9839d393fd841af3ec6",
    "directed/node2vec/seeded": "30b522b35a04e3ba07f5dfc7a46b356b6a7c186cdbee3bb863533e037b124220",
    "directed/tcec/default": "cde40538fc7705b5d639caf99ea4fd7ff59e46d01ce5455f7b33172c80d92937",
    "directed/tcec/seeded": "7905f1a4d53e00b2533dce847301e6095c4dea1094e7657b3c54fcf38913e4e6",
    "directed/tcpr/default": "02ef2cdc54fde8078d98748e132c5820e44d409ae5bf95acd85d494c6614e638",
    "directed/tcpr/seeded": "42ad3a2f25fb4bdf75189fa2b93ebac59f7f304a1ddef76a4d4599a851654aac",
    "undirected/rn/default": "9852e34962af740a93b611bac08eee7941e41af9addc5d69298528f77995e143",
    "undirected/rn/seeded": "ac1fc28b01cccef9b7ebfb4c6713bd4da3220f0a47a7b186800839af7e61f160",
    "undirected/rw/default": "ac28e2a35513b5a7353f451191e03564118f03a1b4a8872c456110b17a15d4c3",
    "undirected/rw/seeded": "016e566cf353009140291e80840a3f9037a9872a9a13709ea8f3d204cc84bed0",
    "undirected/xs/default": "2c6726204ba4a3b2bb25fc23aa6874394da1e4c330502f5fdabcb8b9424ee55f",
    "undirected/xs/seeded": "cd2ed7db47f227b97b0c94ba06c71ab44a642963608ae1366fd8d82484168442",
    "undirected/node2vec/default": "d7b2bacf0e4be2a84c5c3ae7b483c2786848901adcda040e179d68eb5b1c372b",
    "undirected/node2vec/seeded": "12b14ee0a205160717e16148942939d68b1251845858e346045ea10184ff7386",
    "undirected/tcec/default": "95137ec425070a27e9eedb7d723aac8e6ea67ff1b1110a0adfce103dc9ca7ecd",
    "undirected/tcec/seeded": "0f5b6153535353948e0c4f029d330fcf91c23e8347c07087f1ea07055ed842ab",
    "undirected/tcpr/default": "fbf95d759b30124906162c2f3dc57bab1fd7c884216cda6e9f727e75022ca676",
    "undirected/tcpr/seeded": "cdcc8d71ee25adf3fbf292c03aee4a3b2012e79519d34cc1b9dc5215364a80ba",
}
PARTIAL_SAMPLES = {
    "rw": (
        "random walk found 3/8 nodes within 8000 steps",
        "c01396862d980f639e006fa07f9f9d6be799ad94a33fcddea29d054e0f3c20ad",
    ),
    "node2vec": (
        "node2vec walk found 3/8 nodes within 8000 steps",
        "b65061b1179ca71093a30220090b953d750584d0d5245f438bd09e109478fdee",
    ),
    "xs": (
        "expansion border exhausted at 7/8 nodes",
        "97ff9cb3edb4e2596dd2a065938b49cb43eb2c8cab6f38420d5f688840c37707",
    ),
    "tcec": (
        "graph exhausted at 3/8 nodes",
        "ae0a244fb536f0c4bb3715844cbb1e9c1e1eebb803eecc0c6a06ed5b75f7688c",
    ),
    "tcpr": (
        "graph exhausted at 3/8 nodes",
        "a739b9cdee3649427dd55414adb746769f8be306496354b850d932a637f1a3de",
    ),
}
# score calls of the seeded config's rescore mode; rescoring every live entry
# before each pop, not only those an admission left stale, makes 329, 223,
# 305 and 307
SCORE_CALLS = {
    "directed/tcec": 270,
    "directed/tcpr": 175,
    "undirected/tcec": 239,
    "undirected/tcpr": 251,
}
RAW_CSV_DIGESTS = {
    "centrality_comparison": "da8f42bf2601e62589eef3efcec73a8640545c28f03f15e8471f09833254b0ef",
    "community": "4f5ef3aa7a6d462d2e8ed05f8a2b588f4f7806360587dae92e44e911349725a3",
    "attribute": "2f00d27de0e38976b8412885327257fc6afe21d40fd633a224b9abf19bf4df9a",
}


@pytest.mark.parametrize("key", sorted(SAMPLE_DIGESTS))
def test_sample_digest(key):
    assert sample_digest(*key.split("/")) == SAMPLE_DIGESTS[key]


@pytest.mark.parametrize("key", sorted(SCORE_CALLS))
def test_rescore_mode_score_calls(key, monkeypatch):
    graph, sampler = key.split("/")
    module = {"tcec": tcec, "tcpr": tcpr}[sampler]
    score, calls = getattr(module, f"{sampler}_score"), []
    monkeypatch.setattr(module, f"{sampler}_score", lambda *a: calls.append(a) or score(*a))
    sample_digest(graph, sampler, "seeded")
    assert len(calls) == SCORE_CALLS[key]


@pytest.mark.parametrize("sampler", sorted(PARTIAL_SAMPLES))
def test_partial_sample_digest(sampler):
    assert partial_sample(sampler) == PARTIAL_SAMPLES[sampler]


@pytest.mark.parametrize("kind", sorted(RAW_CSV_DIGESTS))
def test_raw_csv_digest(kind, tmp_path, monkeypatch):
    monkeypatch.delenv("NETSAMPLE_CACHE_DIR", raising=False)
    assert raw_csv_digest(kind, tmp_path) == RAW_CSV_DIGESTS[kind]


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    for graph in GRAPHS:
        for sampler in SAMPLERS:
            for config in CONFIGS:
                print(f'"{graph}/{sampler}/{config}": "{sample_digest(graph, sampler, config)}",')
    for sampler in ("rw", "node2vec", "xs", "tcec", "tcpr"):
        print(f'"{sampler}": {partial_sample(sampler)!r},')
    for kind in SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            print(f'"{kind}": "{raw_csv_digest(kind, Path(tmp))}",')
