import copy
import hashlib
import itertools
import json
import math
import multiprocessing
import os
import re
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from netsample import experiments, graph
from netsample.centrality import MEASURES, betweenness, pivot_sources
from netsample.errors import NetsampleError, ValidationError
from netsample.experiments import (
    ExperimentSpec,
    RunResult,
    _rep_seeds,
    aggregate_rows,
    full_centrality,
    load_input,
    merge_results,
    read_raw_csv,
    run_experiment,
)
from netsample.graph import Graph, NodeMapping, save_edge_list
from netsample.synth import SbmSpec, generate_sbm

from test_golden import SPECS as GOLDEN_SPECS

SBM_INPUT = {
    "sbm": {
        "block_sizes": [40, 40, 60],
        "p_in": 0.15,
        "p_out": 0.02,
        "rng_seed": 5,
    }
}


def small_spec(**over):
    base = dict(
        kind="centrality_comparison",
        dataset="toy",
        input=SBM_INPUT,
        samplers=[{"name": "rn"}, {"name": "rw"}],
        fractions=(0.2,),
        measures=("indegree", "pagerank"),
        repetitions=2,
        base_seed=42,
    )
    base.update(over)
    return ExperimentSpec.from_dict(base)


def test_spec_validation():
    with pytest.raises(ValidationError):
        small_spec(kind="nope")
    with pytest.raises(ValidationError):
        small_spec(fractions=(0.0,))
    with pytest.raises(ValidationError):
        small_spec(repetitions=0)
    with pytest.raises(ValidationError):
        small_spec(samplers=[{"name": "mystery"}])
    with pytest.raises(ValidationError):
        small_spec(seeds=(1,), repetitions=2)
    with pytest.raises(ValidationError):
        ExperimentSpec.from_dict({"kind": "community", "bogus_key": 1})


def test_spec_rejects_unknown_seed_policy():
    with pytest.raises(ValidationError, match="'smalest_block'.*uniform, smallest_block"):
        small_spec(seed_policy="smalest_block")
    assert small_spec(seed_policy="smallest_block").seed_policy == "smallest_block"


@pytest.mark.parametrize(
    "name, key",
    [
        ("tcec", "leaderboard_capcity"),
        ("rw", "target_size"),
        ("rn", "rng_seed"),
        ("tcpr", "seed_nodes"),
        ("rw", "node2vec_p"),
        ("xs", "node2vec_q"),
    ],
)
def test_spec_rejects_unknown_sampler_config_key(name, key):
    with pytest.raises(ValidationError, match=f"sampler '{name}'.*'{key}'"):
        small_spec(samplers=[{"name": name, "config": {key: 1}}])


def test_spec_accepts_known_sampler_config_keys():
    spec = small_spec(
        samplers=[
            {"name": "tcec", "config": {"leaderboard_capacity": 10, "alpha": 0.3}},
            {"name": "node2vec", "config": {"node2vec_p": 1.0, "node2vec_q": 2.0}},
            {"name": "rw", "config": None},
        ]
    )
    assert spec.samplers[1]["config"] == {"node2vec_p": 1.0, "node2vec_q": 2.0}
    assert spec.samplers[2]["config"] == {}


@pytest.mark.parametrize(
    "entry, message",
    [
        ("tcec", "sampler entry 'tcec': expected a mapping {name: <sampler>, config: {...}}"),
        ({"config": {}}, "sampler entry {'config': {}}: expected a mapping"),
        ({"name": "rw", "confg": {}}, "sampler entry .*'confg'.*: expected a mapping"),
        ({"name": ["rw"]}, "unknown sampler \\['rw'\\]"),
        ({"name": "rw", "config": [1]}, "sampler 'rw': config must be a mapping, got \\[1\\]"),
    ],
)
def test_spec_rejects_malformed_sampler_entry(entry, message):
    with pytest.raises(ValidationError, match=message):
        small_spec(samplers=[{"name": "rn"}, entry])


@pytest.mark.parametrize(
    "name, config, message",
    [
        ("tcec", {"leaderboard_capacity": "10"}, "leaderboard_capacity must be an integer, got '10'"),
        ("tcpr", {"leaderboard_capacity": True}, "leaderboard_capacity must be an integer"),
        ("tcec", {"alpha": "0.3"}, "alpha must be a real number"),
        ("rw", {"damping": None}, "damping must be a real number"),
        ("tcec", {"rescore_on_pop": "yes"}, "rescore_on_pop must be true or false"),
        ("node2vec", {"node2vec_q": "2"}, "node2vec_q must be a real number"),
        ("tcec", {"exploration_p": 2}, "exploration_p must lie in"),
    ],
)
def test_spec_rejects_badly_typed_sampler_config(name, config, message):
    with pytest.raises(ValidationError, match=f"sampler '{name}': {message}"):
        small_spec(samplers=[{"name": name, "config": config}])


def test_spec_rejects_bad_betweenness_pivots():
    for bad in (0, -3, 2.5, "10"):
        with pytest.raises(ValidationError, match="betweenness_pivots must be an integer >= 1"):
            small_spec(betweenness_pivots=bad)
    assert small_spec(betweenness_pivots=1).betweenness_pivots == 1


@pytest.mark.parametrize(
    "over, message",
    [
        ({"repetitions": "3"}, "repetitions must be an integer >= 1, got '3'"),
        ({"repetitions": 2.0}, "repetitions must be an integer >= 1, got 2.0"),
        ({"base_seed": "x"}, "base_seed must be an integer >= 0, got 'x'"),
        ({"base_seed": -1}, "base_seed must be an integer >= 0, got -1"),
        ({"seeds": [1.5, 2]}, "seeds entry must be an integer >= 0, got 1.5"),
        ({"seeds": [True, 2]}, "seeds entry must be an integer >= 0, got True"),
        ({"seeds": 7}, "seeds must be a list, got 7"),
        ({"fractions": ["a"]}, "fractions entry must be a real number in (0, 1], got 'a'"),
        ({"fractions": [0.1, 1.5]}, "fractions entry must be a real number in (0, 1], got 1.5"),
        ({"fractions": 0.2}, "fractions must be a list, got 0.2"),
        (
            {"measures": ["pagerank", "pagrank"]},
            "unknown measure 'pagrank'; allowed: betweenness, eigenvector, indegree, "
            "pagerank, springrank",
        ),
        ({"measures": "pagerank"}, "measures must be a list, got 'pagerank'"),
        ({"seed_regions": "abc"}, "seed_regions must be a list, got 'abc'"),
    ],
)
def test_spec_rejects_badly_typed_fields(over, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        small_spec(**over)


def _sbm_input(attributes=None, **sbm):
    inp = {"sbm": {**SBM_INPUT["sbm"], **sbm}}
    return inp if attributes is None else {**inp, "attributes": attributes}


@pytest.mark.parametrize(
    "inp, message",
    [
        (_sbm_input(p_in=2), "p_in must be a real number in [0, 1], got 2"),
        (_sbm_input(block_sizes="x"), "block_sizes must be a non-empty list of integers >= 1"),
        (_sbm_input(bogus=1), "an SBM spec: unknown key(s) ['bogus']"),
        (_sbm_input({"labels": ["a", "b", "c"], "noise": "x"}), "noise must be a real number"),
        (_sbm_input({"labels": ["a", "b"]}), "need at least 3 labels, got 2"),
        (_sbm_input({"labels": ["a", "b", "c"], "nois": 0.1}), "attributes: unknown key(s)"),
        ({**SBM_INPUT, "labels": "l.txt"}, "an sbm input: unknown key(s) ['labels']"),
        ({"edge_list": "g.txt", "direct": True}, "an edge_list input: unknown key(s)"),
        ({"edge_list": 5}, "edge_list must be a file path, got 5"),
        ({"edge_list": "g.txt", "directed": "yes"}, "directed must be true or false, got 'yes'"),
        ({"edge_list": "g.txt", "labels": []}, "labels must be a file path, got []"),
        ("sbm.yaml", "input must be a mapping naming an edge_list or an sbm"),
    ],
)
def test_spec_checks_its_input_when_built(inp, message):
    # the spec and the loader raise the same error, and the spec needs no graph
    for build in (lambda: small_spec(input=inp), lambda: load_input(inp)):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()


def test_spec_yaml_round_trip(tmp_path):
    spec = small_spec()
    path = tmp_path / "spec.yaml"
    path.write_text(yaml.safe_dump(spec.resolved()))
    # the resolved echo contains only spec keys plus materialized defaults
    again = ExperimentSpec.from_dict(
        {k: v for k, v in yaml.safe_load(path.read_text()).items()}
    )
    assert again.resolved() == spec.resolved()


def test_load_input_variants(tmp_path):
    g, part = load_input(small_spec().input)
    assert g.n == 140
    assert part is not None and part.label_of(0) == 0
    edge_path = tmp_path / "g.txt"
    edge_path.write_text("0 1\n1 2\n")
    spec = small_spec(input={"edge_list": str(edge_path), "directed": True})
    g2, part2 = load_input(spec.input)
    assert g2.n == 3 and part2 is None
    with pytest.raises(ValidationError):
        load_input(small_spec(input={}).input)


def test_rep_seeds_deterministic_and_distinct():
    spec = small_spec()
    a = _rep_seeds(spec, (0, 0), 0)
    assert a == _rep_seeds(spec, (0, 0), 0)
    seen = {
        _rep_seeds(spec, cell, rep)
        for cell in [(0, 0), (0, 1), (1, 0)]
        for rep in range(3)
    }
    assert len(seen) == 9


def test_centrality_comparison_rows(tmp_path):
    spec = small_spec(output_dir=str(tmp_path / "out"))
    result = run_experiment(spec)
    # samplers x fractions x reps x measures
    assert len(result.rows) == 2 * 1 * 2 * 2
    taus = [v for v in (r["value"] for r in result.rows) if v is not None]
    assert all(-1.0 <= v <= 1.0 for v in taus)
    result.save(spec.output_dir)
    rows = read_raw_csv(tmp_path / "out" / "raw.csv")
    assert rows == result.rows
    cfg = json.loads((tmp_path / "out" / "resolved_config.json").read_text())
    assert cfg == spec.resolved()


def test_community_runner(tmp_path):
    spec = small_spec(
        kind="community",
        samplers=[{"name": "rw"}],
        seed_policy="smallest_block",
        output_dir=str(tmp_path / "out"),
    )
    result = run_experiment(spec)
    measures = {r["measure"] for r in result.rows}
    assert measures == {"kl", "seed_block_fraction"}
    assert all(r["value"] >= 0 for r in result.rows if r["measure"] == "kl")


def test_attribute_runner(tmp_path):
    inp = dict(SBM_INPUT)
    inp["attributes"] = {"noise": 0.1, "labels": ["a", "b", "c"]}
    spec = small_spec(
        kind="attribute",
        input=inp,
        samplers=[{"name": "rw"}],
        seed_regions=("a", "b"),
        output_dir=str(tmp_path / "out"),
    )
    result = run_experiment(spec)
    measures = {r["measure"] for r in result.rows}
    assert measures == {"kl:a", "entropy_ratio:a", "kl:b", "entropy_ratio:b"}
    with pytest.raises(ValidationError):
        run_experiment(small_spec(kind="attribute", input=inp))
    with pytest.raises(ValidationError):
        run_experiment(
            small_spec(kind="attribute", input=inp, seed_regions=("missing",))
        )


def _labeled_edge_list(tmp_path, name, ids):
    """A two-block SBM saved with node ``v`` as ``ids[v]``, and its blocks as
    a labels file in the same ids, last node first."""
    g, part = generate_sbm(SbmSpec((15, 15), p_in=0.4, p_out=0.05, rng_seed=3))
    edges, labels = tmp_path / f"{name}.txt", tmp_path / f"{name}.labels"
    save_edge_list(g, edges, NodeMapping(sub_to_full=ids))
    rows = [f"{ids[v]}\t{'ab'[part.label_of(v)]}\n" for v in range(g.n)]
    labels.write_text("".join(reversed(rows)))
    return {"edge_list": str(edges), "directed": False, "labels": str(labels)}


@pytest.mark.filterwarnings("ignore::netsample.errors.DegenerateEntropyWarning")
@pytest.mark.parametrize(
    "name, relabel",
    [
        ("from_one", lambda v: v + 1),
        ("gaps", lambda v: 3 * v + 7),
        ("negative", lambda v: 5 * v - 100),
    ],
)
def test_labels_follow_the_edge_list_ids(tmp_path, name, relabel):
    base = _labeled_edge_list(tmp_path, "base", np.arange(30))
    other = _labeled_edge_list(tmp_path, name, relabel(np.arange(30)))
    g, part = load_input(other)
    assert g.n == 30 and [part.label_of(v) for v in (0, 14, 15, 29)] == ["a", "a", "b", "b"]
    specs = {
        "community": dict(kind="community", seed_policy="smallest_block"),
        "attribute": dict(kind="attribute", seed_regions=("a", "b")),
    }
    for kind, over in specs.items():
        raw = []
        for inp in (base, other):
            out = tmp_path / f"{kind}-{len(raw)}"
            spec = small_spec(
                input=inp, samplers=[{"name": "rw"}, {"name": "tcec"}], fractions=(0.3,),
                output_dir=str(out), **over,
            )
            run_experiment(spec).save(spec.output_dir)
            raw.append((out / "raw.csv").read_bytes())
        assert raw[0] == raw[1], kind


@pytest.mark.filterwarnings("ignore::netsample.errors.DegenerateEntropyWarning")
def test_partially_labelled_input_runs_community_and_attribute_studies(tmp_path):
    inp = _labeled_edge_list(tmp_path, "g", np.arange(30))
    rows = Path(inp["labels"]).read_text().splitlines(keepends=True)
    Path(inp["labels"]).write_text("".join(rows[:-2]))  # nodes 1 and 0 are the last lines
    assert np.flatnonzero(load_input(inp)[1].codes < 0).tolist() == [0, 1]
    studies = [dict(kind="community"), dict(kind="attribute", seed_regions=("a", "b"))]
    for study, regions in zip(studies, (1, 2)):
        spec = small_spec(
            input=inp, samplers=[{"name": "rw"}, {"name": "xs"}], fractions=(0.3,), repetitions=10,
            **study,
        )
        kl = [r["value"] for r in run_experiment(spec).rows if r["measure"].startswith("kl")]
        assert len(kl) == 2 * 10 * regions
        assert all(v is not None and 0.0 <= v < math.inf for v in kl), kl


def test_seed_region_absent_from_labels_lists_the_labels(tmp_path):
    inp = _labeled_edge_list(tmp_path, "g", np.arange(30))
    Path(inp["labels"]).write_text("0\t0\n1\t1\n")
    spec = small_spec(kind="attribute", input=inp, seed_regions=(0,))
    with pytest.raises(ValidationError, match=re.escape("seed region 0 absent from labels ('0', '1')")):
        run_experiment(spec)


def test_degenerate_seed_region_is_named(tmp_path):
    inp = {**SBM_INPUT, "attributes": {"labels": ["a", "b", "c"]}}
    inp["sbm"] = {**inp["sbm"], "block_sizes": [40]}
    spec = small_spec(kind="attribute", input=inp, seed_regions=("a",), samplers=[{"name": "rw"}])
    with pytest.raises(ValidationError, match="seed region 'a' has degenerate full-graph frequency 1.0"):
        run_experiment(spec)


def test_seed_pools_resolve_once_per_region(tmp_path, monkeypatch):
    resolved = []
    seed_pool = experiments._seed_pool

    def counted(spec, partition, region):
        resolved.append(region)
        return seed_pool(spec, partition, region)

    monkeypatch.setattr(experiments, "_seed_pool", counted)
    inp = {**SBM_INPUT, "attributes": {"noise": 0.1, "labels": ["a", "b", "c"]}}
    spec = small_spec(
        kind="attribute",
        input=inp,
        samplers=[{"name": "rw"}, {"name": "xs"}],
        fractions=(0.1, 0.2),
        seed_regions=("a", "b"),
        output_dir=str(tmp_path / "out"),
    )
    assert len(run_experiment(spec).rows) == 2 * 2 * 2 * 2 * 2
    assert resolved == ["a", "b"]


def test_smallest_block_seed_policy_needs_labels(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    spec = small_spec(
        input={"edge_list": str(edges)},
        seed_policy="smallest_block",
        output_dir=str(tmp_path / "out"),
    )
    with pytest.raises(ValidationError, match="smallest_block seed policy needs labels"):
        run_experiment(spec)
    # a labels file with no lines labels no block
    (tmp_path / "labels.txt").write_text("")
    spec.input = {"edge_list": str(edges), "labels": str(tmp_path / "labels.txt")}
    assert load_input(spec.input)[1].categories == ()
    with pytest.raises(ValidationError, match="smallest_block seed policy needs labels"):
        run_experiment(spec)


def test_smallest_block_ties_break_by_label_text(tmp_path, monkeypatch):
    # blocks 2 and 10 are the equal smallest; "10" < "2", so block 10 wins
    sizes = [8, 8, 3, 8, 8, 8, 8, 8, 8, 8, 3]
    seeds = []
    build = experiments._build_config

    def recorded(entry, m, rng_seed, seed_node):
        seeds.append(seed_node)
        return build(entry, m, rng_seed, seed_node)

    spec = small_spec(
        kind="community",
        input={"sbm": {"block_sizes": sizes, "p_in": 0.5, "p_out": 0.05, "rng_seed": 1}},
        samplers=[{"name": "rw"}, {"name": "rn"}],
        repetitions=4,
        seed_policy="smallest_block",
        output_dir=str(tmp_path / "out"),
    )
    monkeypatch.setattr(experiments, "_build_config", recorded)
    monkeypatch.setattr(experiments, "_cell_workers", lambda cells: 1)  # calls recorded here
    run_experiment(spec)
    _, partition = load_input(spec.input)
    assert len(seeds) == 8
    assert {partition.label_of(v) for v in seeds} == {10}


def test_aggregate_rows_handles_missing_values():
    rows = [
        {"dataset": "d", "sampler": "rn", "fraction": 0.1, "measure": "m",
         "repetition": i, "rng_seed": i, "value": v}
        for i, v in enumerate([1.0, 3.0, None])
    ]
    summary = aggregate_rows(rows)
    assert len(summary) == 1
    cell = summary[0]
    assert cell["mean"] == 2.0 and cell["std"] == 1.0 and cell["R"] == 2


def test_full_centrality_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NETSAMPLE_CACHE_DIR", str(tmp_path / "cache"))
    spec = small_spec()
    g, _ = load_input(spec.input)
    v1 = full_centrality(g, "pagerank", spec, cache_root=str(tmp_path))
    cached = list((tmp_path / "cache").glob("pagerank-*.npy"))
    assert len(cached) == 1
    v2 = full_centrality(g, "pagerank", spec, cache_root=str(tmp_path))
    assert np.array_equal(v1.scores, v2.scores)
    with pytest.raises(ValidationError):
        full_centrality(g, "mystery", spec)


@pytest.mark.parametrize("directed", [True, False])
def test_graph_digest_hashes_the_bytes_of_edge_arrays(directed):
    # the cache tags of existing centrality caches stay valid
    g, _ = generate_sbm(SbmSpec((30, 50), 0.2, 0.05, directed=directed, rng_seed=3))
    h = hashlib.sha256(np.int64(g.n).tobytes())
    h.update(b"directed" if directed else b"undirected")
    for a in g.edge_arrays():
        h.update(a.tobytes())
    assert g.digest == h.hexdigest()


def test_a_run_hashes_its_graph_once(tmp_path, monkeypatch):
    monkeypatch.delenv("NETSAMPLE_CACHE_DIR", raising=False)
    hashed = []
    sha256 = hashlib.sha256
    monkeypatch.setattr(graph, "hashlib", SimpleNamespace(sha256=lambda: hashed.append(1) or sha256()))
    _workers(monkeypatch, 1)  # calls recorded here
    measures = ("eigenvector", "pagerank", "indegree", "betweenness", "springrank")
    run_experiment(small_spec(measures=measures, output_dir=str(tmp_path)))
    assert len(list((tmp_path / ".cache").glob("*.npy"))) == 5
    assert len(hashed) == 1


def test_full_centrality_cache_keeps_convergence_metadata(tmp_path, monkeypatch):
    monkeypatch.setenv("NETSAMPLE_CACHE_DIR", str(tmp_path / "cache"))
    spec = small_spec()
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)], directed=False)

    def meta(vec):
        return vec.iterations, vec.residual, vec.converged

    fresh = full_centrality(star, "eigenvector", spec, cache_root=str(tmp_path))
    cached = full_centrality(star, "eigenvector", spec, cache_root=str(tmp_path))
    assert meta(cached) == meta(fresh)
    assert np.array_equal(cached.scores, fresh.scores)
    # a missing sidecar is a miss: the vector is recomputed and both files rewritten
    (sidecar,) = (tmp_path / "cache").glob("eigenvector-*.json")
    sidecar.unlink()
    assert meta(full_centrality(star, "eigenvector", spec, cache_root=str(tmp_path))) == meta(fresh)
    assert sidecar.exists()
    assert meta(full_centrality(star, "eigenvector", spec, cache_root=str(tmp_path))) == meta(fresh)


def test_sample_subgraph_betweenness_uses_pivots_above_limit(tmp_path, monkeypatch):
    monkeypatch.delenv("NETSAMPLE_CACHE_DIR", raising=False)
    monkeypatch.setattr(experiments, "EXACT_BETWEENNESS_LIMIT", 30)
    calls = []

    def recording(g, sources=None):
        calls.append((g.n, sources))
        return betweenness(g, sources=sources)

    monkeypatch.setattr(experiments, "betweenness", recording)
    monkeypatch.setitem(MEASURES, "betweenness", recording)
    monkeypatch.setattr(experiments, "_cell_workers", lambda cells: 1)  # calls recorded here
    spec = small_spec(
        samplers=[{"name": "rn"}],
        fractions=(0.2, 0.3),
        measures=("betweenness",),
        betweenness_pivots=5,
        output_dir=str(tmp_path),
    )
    result = run_experiment(spec)
    # whole graph (140 nodes) and 42-node samples are above the limit,
    # 28-node samples are not
    assert calls == [
        (140, pivot_sources(140, 5, 42)),
        (28, None),
        (28, None),
        (42, pivot_sources(42, 5, 42)),
        (42, pivot_sources(42, 5, 42)),
    ]
    assert all(v is not None for v in result.values())


def test_pivoted_betweenness_cache_is_keyed_on_the_pivot_seed(tmp_path, monkeypatch):
    # a rerun with another base_seed into a shared cache draws other pivots
    monkeypatch.setattr(experiments, "EXACT_BETWEENNESS_LIMIT", 30)
    _workers(monkeypatch, 1)

    def raw_csv(seed, out, cache):
        monkeypatch.setenv("NETSAMPLE_CACHE_DIR", str(cache))
        spec = small_spec(
            measures=("betweenness",), betweenness_pivots=10, base_seed=seed, output_dir=str(out)
        )
        run_experiment(spec).save(out)
        return (out / "raw.csv").read_bytes()

    fresh = {seed: raw_csv(seed, tmp_path / f"fresh{seed}", tmp_path / f"cache{seed}") for seed in (0, 1)}
    for seed in (0, 1):
        assert raw_csv(seed, tmp_path / f"shared{seed}", tmp_path / "shared") == fresh[seed]
    assert len(list((tmp_path / "shared").glob("betweenness-*.npy"))) == 2


def test_merge_results(tmp_path):
    spec = small_spec(output_dir=str(tmp_path / "a"))
    run_experiment(spec).save(spec.output_dir)
    spec2 = small_spec(dataset="toy2", output_dir=str(tmp_path / "b"))
    run_experiment(spec2).save(spec2.output_dir)
    rows, summary = merge_results(tmp_path)
    assert {r["dataset"] for r in rows} == {"toy", "toy2"}
    assert len(rows) == 16
    assert all(s["R"] <= 2 for s in summary)
    with pytest.raises(ValidationError):
        merge_results(tmp_path / "empty")


def test_rerun_is_byte_identical(tmp_path):
    for d in ("r1", "r2"):
        spec = small_spec(output_dir=str(tmp_path / d))
        run_experiment(spec).save(spec.output_dir)
    assert (tmp_path / "r1" / "raw.csv").read_bytes() == (
        tmp_path / "r2" / "raw.csv"
    ).read_bytes()
    assert (tmp_path / "r1" / "summary.csv").read_bytes() == (
        tmp_path / "r2" / "summary.csv"
    ).read_bytes()


def _workers(monkeypatch, n):
    monkeypatch.setattr(experiments, "_cell_workers", lambda cells: n)


def _golden_outputs(kind, out) -> dict:
    """The bytes of each file a golden spec's run writes under ``out``:
    raw.csv, summary.csv and the whole-graph cache; the echoed config names
    the output directory, so it is left out."""
    spec = ExperimentSpec.from_dict(dict(GOLDEN_SPECS[kind], dataset=kind, output_dir=str(out)))
    run_experiment(spec).save(out)
    assert multiprocessing.active_children() == []
    files = sorted(p for p in out.rglob("*") if p.is_file() and p.name != "resolved_config.json")
    outputs = {str(p.relative_to(out)): p.read_bytes() for p in files}
    assert "raw.csv" in outputs and "summary.csv" in outputs
    return outputs


@pytest.mark.parametrize("kind", sorted(GOLDEN_SPECS))
def test_pool_and_in_process_runs_write_the_same_bytes(kind, tmp_path, monkeypatch):
    monkeypatch.delenv("NETSAMPLE_CACHE_DIR", raising=False)
    outputs = []
    for workers in (1, 2):
        _workers(monkeypatch, workers)
        outputs.append(_golden_outputs(kind, tmp_path / str(workers)))
    assert outputs[0] == outputs[1]


# an explicit id, so that runs of this case keep one name
@pytest.mark.parametrize("workers", [pytest.param(3, id="3-None")])
def test_more_processes_than_cpus_and_runs_of_cells_write_the_same_bytes(
    workers, tmp_path, monkeypatch
):
    # 3 processes on 2 CPUs claim the 36 cells
    monkeypatch.delenv("NETSAMPLE_CACHE_DIR", raising=False)
    _workers(monkeypatch, 1)
    in_process = _golden_outputs("community", tmp_path / "1")
    _workers(monkeypatch, workers)
    assert _golden_outputs("community", tmp_path / "pool") == in_process


def _rn_spec(tmp_path):
    # rn never returns a partial sample, so measure runs in every cell
    return small_spec(samplers=[{"name": "rn"}], fractions=(0.1, 0.2), repetitions=4,
                      output_dir=str(tmp_path))


class CellFailed(Exception):
    pass


def _fail_at_cells(monkeypatch, spec, fail_at, fail=None):
    """Make the centrality study's ``measure`` call ``fail(k)`` at each cell
    ``k`` in ``fail_at``; by default it raises ``CellFailed``."""

    def raise_cell_failed(k):
        raise CellFailed(f"measure failed at cell {k}")

    fail = fail or raise_cell_failed
    keys = itertools.product(range(len(spec.samplers)), range(len(spec.fractions)), range(spec.repetitions))
    cell_of = {_rep_seeds(spec, (si, fi), rep)[0]: k for k, (si, fi, rep) in enumerate(keys)}
    study = experiments.STUDIES["centrality_comparison"]

    def failing_study(spec, g, partition):
        regions, names, measure = study(spec, g, partition)

        def failing(sample, seed_node, region):
            k = cell_of[sample.config["rng_seed"]]
            if k in fail_at:
                fail(k)
            return measure(sample, seed_node, region)

        return regions, names, failing

    monkeypatch.setitem(experiments.STUDIES, "centrality_comparison", failing_study)


@pytest.mark.parametrize("fail_at", [{0}, {6}, {3, 5}])
def test_the_first_failing_cell_raises_on_both_paths(fail_at, tmp_path, monkeypatch):
    spec = _rn_spec(tmp_path)
    _fail_at_cells(monkeypatch, spec, fail_at)
    for workers in (1, 2, 3):
        _workers(monkeypatch, workers)
        with pytest.raises(CellFailed) as info:
            run_experiment(spec)
        assert type(info.value) is CellFailed
        assert str(info.value) == f"measure failed at cell {min(fail_at)}"
        assert multiprocessing.active_children() == []


def _in_child(parent_pid, child, parent):
    """A ``fail`` for ``_fail_at_cells`` that calls ``child(k)`` in a forked
    worker and ``parent(k)`` in the calling process."""
    return lambda k: child(k) if os.getpid() != parent_pid else parent(k)


def _wait_for_the_child():
    for proc in multiprocessing.active_children():
        proc.join(10)


def test_a_slow_worker_leaves_its_share_of_the_cells_to_the_others(tmp_path, monkeypatch):
    # each cell takes 0.2 s in the child and no time in the calling process,
    # which so claims at least 6 of the 8 cells, in cell order
    spec = _rn_spec(tmp_path)
    in_parent = []
    record = _in_child(os.getpid(), lambda k: time.sleep(0.2), in_parent.append)
    _fail_at_cells(monkeypatch, spec, set(range(8)), record)
    _workers(monkeypatch, 2)
    assert len(run_experiment(spec).rows) == 8 * len(spec.measures)
    assert len(in_parent) >= 6 and in_parent == sorted(in_parent)


def test_a_dead_worker_breaks_the_pool_instead_of_hanging(tmp_path, monkeypatch):
    # the child dies in its first cell; the parent's first cell waits for
    # that, so cells are left for the child to claim
    spec = _rn_spec(tmp_path)
    fail = _in_child(os.getpid(), lambda k: os._exit(1), lambda k: _wait_for_the_child())
    _fail_at_cells(monkeypatch, spec, set(range(8)), fail)
    _workers(monkeypatch, 2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(spec)
    assert multiprocessing.active_children() == []


def test_the_first_failing_cell_raises_when_the_parent_fails_first(tmp_path, monkeypatch):
    # each process blocks in its first cell, cell 0 or 1; the parent's
    # raises while the child's still runs, and cell 0 raises either way
    spec = _rn_spec(tmp_path)
    started = multiprocessing.get_context("fork").Event()

    def child(k):
        started.set()
        time.sleep(0.5)
        raise CellFailed(f"measure failed at cell {k}")

    def parent(k):
        assert started.wait(10)
        raise CellFailed(f"measure failed at cell {k}")

    _fail_at_cells(monkeypatch, spec, set(range(8)), _in_child(os.getpid(), child, parent))
    _workers(monkeypatch, 2)
    with pytest.raises(CellFailed, match="at cell 0$"):
        run_experiment(spec)
    assert multiprocessing.active_children() == []


def test_an_interrupt_in_the_parent_stops_the_children(tmp_path, monkeypatch):
    spec = _rn_spec(tmp_path)
    started = multiprocessing.get_context("fork").Event()

    def child(k):
        started.set()
        time.sleep(60)

    def parent(k):
        assert started.wait(10)
        raise KeyboardInterrupt

    _fail_at_cells(monkeypatch, spec, set(range(8)), _in_child(os.getpid(), child, parent))
    _workers(monkeypatch, 2)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(spec)
    assert time.perf_counter() - t0 < 30
    assert multiprocessing.active_children() == []


def test_cell_workers_follow_the_usable_cpus(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert [experiments._cell_workers(c) for c in (0, 1, 2, 5)] == [1, 1, 2, 3]
    monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
    assert experiments._cell_workers(5) == 1
    monkeypatch.undo()
    # with one usable CPU nothing is forked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", None)
    assert len(run_experiment(small_spec(output_dir=str(tmp_path))).rows) == 8

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 40),
    st.floats(-1, 2),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.text(max_size=4),
)
DRAWN = st.one_of(
    SCALARS,
    st.lists(SCALARS, max_size=4),
    st.dictionaries(st.text(max_size=4), SCALARS, max_size=3),
)


def _key_paths(d, prefix=()):
    """The path of every key in ``d``, into nested mappings and the first
    sampler entry."""
    for key, value in d.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        elif key == "samplers":
            yield from _key_paths(value[0], prefix + (key, 0))


def test_spec_and_input_either_work_or_raise_a_netsample_error(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 0\n")
    labels = tmp_path / "labels.txt"
    labels.write_text("0\ta\n1\tb\n2\ta\n")
    sbm_spec = {
        "kind": "attribute",
        "input": {
            "sbm": {"block_sizes": [6, 7], "p_in": 0.5, "p_out": 0.1, "directed": True,
                    "rng_seed": 3},
            "attributes": {"labels": ["a", "b"], "noise": 0.1, "rng_seed": 4},
        },
        "samplers": [{"name": "tcec", "config": {"leaderboard_capacity": 10, "alpha": 0.3}}],
        "fractions": [0.2],
        "measures": ["indegree"],
        "repetitions": 2,
        "seed_regions": ["a"],
        "output_dir": str(tmp_path / "out"),
    }
    edge_spec = {
        "kind": "community",
        "input": {"edge_list": str(edges), "directed": False, "labels": str(labels)},
        "samplers": [{"name": "node2vec", "config": {"node2vec_p": 1.0}}],
        "seeds": [1, 2],
    }

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def check(data):
        spec = copy.deepcopy(data.draw(st.sampled_from([sbm_spec, edge_spec])))
        path = data.draw(st.sampled_from(sorted(_key_paths(spec), key=str)))
        parent = spec
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = data.draw(DRAWN)
        try:
            load_input(ExperimentSpec.from_dict(spec).input)
        except NetsampleError:
            pass

    check()
