import json

import pytest
import yaml
from click.testing import CliRunner

import netsample.cli as cli_mod
from netsample.cli import cli

SBM_YAML = {
    "block_sizes": [30, 30],
    "p_in": 0.2,
    "p_out": 0.05,
    "rng_seed": 3,
}


def write_sbm(tmp_path):
    path = tmp_path / "sbm.yaml"
    path.write_text(yaml.safe_dump(SBM_YAML))
    return path


def write_edge_list(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n2 0\n2 3\n3 0\n")
    return path


def test_sample_command(tmp_path):
    sbm = write_sbm(tmp_path)
    out = tmp_path / "sample"
    result = CliRunner().invoke(
        cli,
        [
            "sample", "--sbm", str(sbm), "--undirected", "--sampler", "rw",
            "--fraction", "0.2", "--rng-seed", "7", "--output", str(out),
        ],
    )
    assert result.exit_code == 0, result.output
    meta = json.loads((tmp_path / "sample.json").read_text())
    assert len(meta["nodes"]) == 12
    listed = (tmp_path / "sample.nodes.txt").read_text().split()
    assert [int(v) for v in listed] == meta["nodes"]


def test_sample_command_tcec_deterministic(tmp_path):
    edges = write_edge_list(tmp_path)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        result = CliRunner().invoke(
            cli,
            [
                "sample", "--edge-list", str(edges), "--sampler", "tcec",
                "--size", "3", "--rng-seed", "1", "--output", str(out),
            ],
        )
        assert result.exit_code == 0, result.output
        outs.append((tmp_path / f"{name}.json").read_bytes())
    assert outs[0] == outs[1]


def test_sample_usage_errors(tmp_path):
    sbm = write_sbm(tmp_path)
    edges = write_edge_list(tmp_path)
    runner = CliRunner()
    # both inputs
    r = runner.invoke(
        cli,
        ["sample", "--sbm", str(sbm), "--edge-list", str(edges), "--sampler",
         "rw", "--size", "3", "--output", str(tmp_path / "x")],
    )
    assert r.exit_code == 2
    # neither size nor fraction
    r = runner.invoke(
        cli, ["sample", "--sbm", str(sbm), "--sampler", "rw", "--output",
              str(tmp_path / "x")]
    )
    assert r.exit_code == 2


def test_sample_validation_error_exits_1(tmp_path):
    edges = write_edge_list(tmp_path)
    r = CliRunner().invoke(
        cli,
        ["sample", "--edge-list", str(edges), "--sampler", "rw", "--size",
         "99", "--output", str(tmp_path / "x")],
    )
    assert r.exit_code == 1
    assert "Error" in r.output


def test_sample_rejects_bad_seed_nodes(tmp_path):
    edges = write_edge_list(tmp_path)
    base = ["sample", "--edge-list", str(edges), "--sampler", "rn", "--size", "2",
            "--output", str(tmp_path / "x")]
    for seeds, message in [
        (["--seed-node", "99"], "seed node 99 not in 0..3"),
        (["--seed-node", "0", "--seed-node", "1"], "at most one seed node allowed, got [0, 1]"),
    ]:
        r = CliRunner().invoke(cli, base + seeds)
        assert r.exit_code == 1
        assert message in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "x.json").exists()


def test_centrality_command(tmp_path):
    edges = write_edge_list(tmp_path)
    out = tmp_path / "pr.csv"
    r = CliRunner().invoke(
        cli,
        ["centrality", "--edge-list", str(edges), "--measure", "pagerank",
         "--output", str(out)],
    )
    assert r.exit_code == 0, r.output
    lines = out.read_text().splitlines()
    assert lines[0] == "node_id,score"
    assert len(lines) == 5


def test_centrality_exact_betweenness_limit(tmp_path, monkeypatch):
    monkeypatch.setattr(cli_mod, "EXACT_BETWEENNESS_LIMIT", 3)
    edges = write_edge_list(tmp_path)
    runner = CliRunner()
    r = runner.invoke(
        cli,
        ["centrality", "--edge-list", str(edges), "--measure", "betweenness",
         "--output", str(tmp_path / "bc.csv")],
    )
    assert r.exit_code == 1
    assert "approximate" in r.output
    r = runner.invoke(
        cli,
        ["centrality", "--edge-list", str(edges), "--measure", "betweenness",
         "--approximate", "--pivots", "2", "--output", str(tmp_path / "bc.csv")],
    )
    assert r.exit_code == 0, r.output


def test_centrality_pagerank_on_empty_graph_exits_with_message(tmp_path):
    edges = tmp_path / "empty.txt"
    edges.write_text("# no edges\n")
    r = CliRunner().invoke(
        cli,
        ["centrality", "--edge-list", str(edges), "--measure", "pagerank",
         "--output", str(tmp_path / "pr.csv")],
    )
    assert r.exit_code == 1
    assert "pagerank needs at least one node" in r.output
    assert "Traceback" not in r.output
    assert not (tmp_path / "pr.csv").exists()


def test_centrality_rejects_non_positive_pivots(tmp_path):
    edges = write_edge_list(tmp_path)
    r = CliRunner().invoke(
        cli,
        ["centrality", "--edge-list", str(edges), "--measure", "betweenness",
         "--approximate", "--pivots", "0", "--output", str(tmp_path / "bc.csv")],
    )
    assert r.exit_code == 2
    assert "Invalid value for '--pivots': 0 is not in the range x>=1" in r.output
    assert not (tmp_path / "bc.csv").exists()


def test_experiment_run_and_report(tmp_path):
    spec = {
        "kind": "community",
        "dataset": "toy",
        "input": {"sbm": SBM_YAML},
        "samplers": [{"name": "rw"}, {"name": "rn"}],
        "fractions": [0.2],
        "repetitions": 2,
        "seed_policy": "smallest_block",
        "output_dir": str(tmp_path / "results" / "toy"),
    }
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump(spec))
    runner = CliRunner()
    r = runner.invoke(cli, ["experiment", "run", str(spec_path)])
    assert r.exit_code == 0, r.output
    assert (tmp_path / "results" / "toy" / "raw.csv").exists()
    assert (tmp_path / "results" / "toy" / "summary.csv").exists()

    r = runner.invoke(
        cli,
        ["report", str(tmp_path / "results"), "--output-dir",
         str(tmp_path / "report")],
    )
    assert r.exit_code == 0, r.output
    meta = json.loads((tmp_path / "report" / "summary.json").read_text())
    assert meta["datasets"] == ["toy"]
    assert sorted(meta["samplers"]) == ["rn", "rw"]
    assert (tmp_path / "report" / "merged_raw.csv").exists()


def test_experiment_run_output_dir_overrides_the_spec(tmp_path):
    spec = {**GOOD_SPEC, "output_dir": str(tmp_path / "from_spec")}
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump(spec))
    out = tmp_path / "from_flag"
    r = CliRunner().invoke(cli, ["experiment", "run", str(spec_path), "--output-dir", str(out)])
    assert r.exit_code == 0, r.output
    assert (out / "raw.csv").exists()
    assert not (tmp_path / "from_spec").exists()


def test_sample_stuck_walk_exits_with_the_partial_sample_message(tmp_path):
    edges = tmp_path / "g.txt"
    edges.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 6\n6 3\n6 0\n7 8\n")
    r = CliRunner().invoke(cli, [
        "sample", "--edge-list", str(edges), "--sampler", "rw", "--size", "8",
        "--seed-node", "0", "--rng-seed", "1", "--output", str(tmp_path / "x"),
    ])
    assert r.exit_code == 1
    assert "partial sample: random walk found 3/8 nodes within 8000 steps" in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


def test_experiment_run_bad_spec_exits_1(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump({"kind": "community", "input": {},
                                         "samplers": [{"name": "nope"}]}))
    r = CliRunner().invoke(cli, ["experiment", "run", str(spec_path)])
    assert r.exit_code == 1


def test_experiment_run_bad_sampler_key_exits_with_message(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump({
        "kind": "community",
        "input": {"sbm": SBM_YAML},
        "samplers": [{"name": "tcec", "config": {"capacity": 5}}],
    }))
    r = CliRunner().invoke(cli, ["experiment", "run", str(spec_path)])
    assert r.exit_code == 1
    assert "sampler 'tcec': unknown config key(s) ['capacity']" in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


def test_experiment_run_badly_typed_spec_field_exits_with_message(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump({
        "kind": "community",
        "input": {"sbm": SBM_YAML},
        "samplers": [{"name": "rw"}],
        "repetitions": "3",
    }))
    r = CliRunner().invoke(cli, ["experiment", "run", str(spec_path)])
    assert r.exit_code == 1
    assert "repetitions must be an integer >= 1, got '3'" in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


def test_experiment_run_badly_typed_config_exits_with_message(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump({
        "kind": "community",
        "input": {"sbm": SBM_YAML},
        "samplers": [{"name": "tcec", "config": {"leaderboard_capacity": "10"}}],
    }))
    r = CliRunner().invoke(cli, ["experiment", "run", str(spec_path)])
    assert r.exit_code == 1
    assert "sampler 'tcec': leaderboard_capacity must be an integer, got '10'" in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


def test_sample_bad_sbm_file_exits_with_message(tmp_path):
    sbm = tmp_path / "sbm.yaml"
    for text, message in [
        (yaml.safe_dump({**SBM_YAML, "pin": 0.1}), "SBM spec: unknown key(s) ['pin']"),
        (yaml.safe_dump({**SBM_YAML, "rng_seed": -1}), "rng_seed must be an integer >= 0, got -1"),
        ("- 30\n- 30\n", "an SBM spec must be a mapping of its parameters, got [30, 30]"),
    ]:
        sbm.write_text(text)
        r = CliRunner().invoke(
            cli, ["sample", "--sbm", str(sbm), "--sampler", "rw", "--size", "3",
                  "--output", str(tmp_path / "x")]
        )
        assert r.exit_code == 1
        assert message in r.output
        assert "Traceback" not in r.output
        assert not (tmp_path / "x.json").exists()


def test_experiment_run_bad_sbm_input_exits_with_message(tmp_path):
    spec_path = tmp_path / "spec.yaml"
    spec_path.write_text(yaml.safe_dump({
        "kind": "community",
        "input": {"sbm": {**SBM_YAML, "p_in": "0.2"}},
        "samplers": [{"name": "rw"}],
        "output_dir": str(tmp_path / "out"),
    }))
    r = CliRunner().invoke(cli, ["experiment", "run", str(spec_path)])
    assert r.exit_code == 1
    assert "p_in must be a real number in [0, 1], got '0.2'" in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


def test_sample_passes_every_knob_to_the_config(tmp_path):
    edges = write_edge_list(tmp_path)
    out = tmp_path / "s"
    r = CliRunner().invoke(cli, [
        "sample", "--edge-list", str(edges), "--sampler", "tcec", "--size", "3",
        "--seed-node", "1", "--rng-seed", "5", "--alpha", "0.3", "--exploration-p", "0.2",
        "--leaderboard-capacity", "7", "--rw-init-fraction", "0.4", "--damping", "0.8",
        "--rescore-on-pop", "--p", "1.5", "--q", "0.7", "--output", str(out),
    ])
    assert r.exit_code == 0, r.output
    config = json.loads((tmp_path / "s.json").read_text())["config"]
    assert {k: config[k] for k in (
        "target_size", "seed_nodes", "rng_seed", "alpha", "exploration_p",
        "leaderboard_capacity", "rw_init_fraction", "damping", "rescore_on_pop",
        "node2vec_p", "node2vec_q",
    )} == {
        "target_size": 3, "seed_nodes": [1], "rng_seed": 5, "alpha": 0.3, "exploration_p": 0.2,
        "leaderboard_capacity": 7, "rw_init_fraction": 0.4, "damping": 0.8,
        "rescore_on_pop": True, "node2vec_p": 1.5, "node2vec_q": 0.7,
    }


GOOD_SPEC = {
    "kind": "community",
    "input": {"sbm": SBM_YAML},
    "samplers": [{"name": "rw"}],
    "fractions": [0.2],
    "repetitions": 1,
}
ATTRIBUTE_INPUT = {"sbm": SBM_YAML, "attributes": {"labels": ["a", "b"], "noise": 0.1}}

# (what the case writes, the spec's changes or CLI arguments, the message); in a
# spec, "DROP" leaves the key out and the upper-case names stand for paths
BAD_INPUTS = [
    ("yaml-sbm", "block_sizes: [30, 30\np_in: 0.2\n", "bad.yaml:2: expected ',' or ']'"),
    ("yaml-spec", "kind: community\ninput: {sbm: [1\n", "bad.yaml:3: expected ',' or ']'"),
    ("yaml-spec", "", "an experiment spec must be a mapping of its parameters, got None"),
    ("yaml-spec", "kind: [community\n", "bad.yaml:2: expected ',' or ']'"),
    ("yaml-spec", b"kind: community\nx: \xff\n", "bad.yaml:2: not valid UTF-8"),
    ("yaml-spec", "kind: \x07\n", "bad.yaml: unacceptable character #x0007"),
    ("spec", {"kind": "DROP"}, "missing key(s) ['kind']"),
    ("spec", {"samplers": None}, "samplers must be a list, got None"),
    ("spec", {"input": "sbm.yaml"},
     "input must be a mapping naming an edge_list or an sbm, got 'sbm.yaml'"),
    ("spec", {"input": {**ATTRIBUTE_INPUT, "attributes": {"labels": ["a", "b"], "noise": "x"}}},
     "noise must be a real number in [0, 1], got 'x'"),
    ("spec", {"input": {**ATTRIBUTE_INPUT, "attributes": {"labels": 3}}},
     "labels must be a list of distinct strings or integers, got 3"),
    ("spec", {"input": {**ATTRIBUTE_INPUT, "attributes": {"labels": ["a", "a"]}}},
     "labels must be a list of distinct strings or integers, got ['a', 'a']"),
    ("spec", {"input": {**ATTRIBUTE_INPUT, "attributes": {"labels": ["a", "b"], "nois": 0.1}}},
     "attributes: unknown key(s) ['nois']"),
    ("spec", {"input": {**ATTRIBUTE_INPUT, "attributes": {"noise": 0.1}}},
     "attributes: missing key(s) ['labels']"),
    ("spec", {"input": {"sbm": SBM_YAML, "attributs": {"labels": ["a", "b"]}}},
     "an sbm input: unknown key(s) ['attributs']"),
    ("spec", {"input": {"sbm": SBM_YAML, "directed": False}},
     "an sbm input: unknown key(s) ['directed']"),
    ("spec", {"input": {"edge_list": "EDGES", "directed": "no"}},
     "directed must be true or false, got 'no'"),
    ("spec", {"input": {"edge_list": "EDGES", "weighted": True}},
     "an edge_list input: unknown key(s) ['weighted']"),
    ("spec", {"input": {"edge_list": 5}}, "cannot read 5: "),
    ("spec", {"input": {"edge_list": "MISSING"}}, "nope.txt: No such file or directory"),
    ("spec", {"input": {"edge_list": "DIR"}}, "cannot read DIR: "),
    ("spec", {"input": {"edge_list": "EDGES", "labels": "MISSING"}},
     "nope.txt: No such file or directory"),
    ("spec", {"input": {"edge_list": "EDGES", "labels": "DIR"}}, "cannot read DIR: "),
    ("spec", {"input": {"edge_list": "EDGES", "labels": "BADLABELS"}},
     "labels.txt:2: not valid UTF-8"),
    ("spec", {"kind": "centrality_comparison", "measures": ["indegree"], "output_dir": 3},
     "output_dir must be a directory path, got 3"),
    ("spec", {"kind": "attribute", "input": ATTRIBUTE_INPUT, "seed_regions": [["a"]]},
     "seed_regions entry must be a string or an integer, got ['a']"),
    ("spec", {"kind": "attribute", "input": ATTRIBUTE_INPUT, "seed_regions": [{"a": 1}]},
     "seed_regions entry must be a string or an integer, got {'a': 1}"),
    ("spec", {"measures": [["indegree"]], "kind": "centrality_comparison"},
     "unknown measure ['indegree']"),
    ("spec", {"dataset": ["toy"]}, "dataset must be a string or a number, got ['toy']"),
    ("args", ["--edge-list", "EDGES", "--fraction", "nan"],
     "fraction must be a real number in (0, 1], got nan"),
    ("args", ["--edge-list", "DIR", "--size", "2"], "cannot read DIR: "),
    ("args", ["--edge-list", "EDGES", "--size", "2", "--rng-seed", "-1"],
     "rng_seed must be an integer >= 0, got -1"),
    ("cmd", ["centrality", "--edge-list", "EDGES", "--measure", "betweenness", "--approximate",
             "--pivot-seed", "-1"], "pivot seed must be an integer >= 0, got -1"),
    ("cmd", ["sample", "--sbm", "DSBM", "--undirected", "--sampler", "rw", "--size", "3"],
     "--undirected contradicts the directed SBM in "),
    ("cmd", ["centrality", "--sbm", "SBM", "--directed", "--measure", "indegree"],
     "--directed contradicts the undirected SBM in "),
]


@pytest.mark.parametrize("kind, case, message", BAD_INPUTS)
def test_bad_input_exits_with_one_line_message(tmp_path, kind, case, message):
    paths = {
        "EDGES": write_edge_list(tmp_path),
        "MISSING": tmp_path / "nope.txt",
        "DIR": tmp_path / "subdir",
        "BADLABELS": tmp_path / "labels.txt",
        "SBM": write_sbm(tmp_path),
        "DSBM": tmp_path / "directed.yaml",
    }
    paths["DIR"].mkdir()
    paths["DSBM"].write_text(yaml.safe_dump({**SBM_YAML, "directed": True}))
    paths["BADLABELS"].write_bytes(b"0\ta\n1\t\xff\n")

    def fill(value):
        if isinstance(value, dict):
            return {k: fill(v) for k, v in value.items()}
        if isinstance(value, list):
            return [fill(v) for v in value]
        return str(paths[value]) if isinstance(value, str) and value in paths else value

    bad = tmp_path / "bad.yaml"
    if kind == "args":
        args = ["sample", *fill(case), "--sampler", "rw", "--output", str(tmp_path / "x")]
    elif kind == "cmd":
        args = [*fill(case), "--output", str(tmp_path / "x")]
    elif kind == "yaml-sbm":
        bad.write_text(case)
        args = ["sample", "--sbm", str(bad), "--sampler", "rw", "--size", "3",
                "--output", str(tmp_path / "x")]
    else:
        if kind == "spec":
            spec = {**GOOD_SPEC, "output_dir": str(tmp_path / "out"), **fill(case)}
            case = yaml.safe_dump({k: v for k, v in spec.items() if v != "DROP"})
        bad.write_bytes(case if isinstance(case, bytes) else case.encode())
        args = ["experiment", "run", str(bad)]
    r = CliRunner().invoke(cli, args)
    assert r.exit_code == 1, r.output
    assert message.replace("DIR", str(paths["DIR"])) in r.output
    assert "Traceback" not in r.output
    assert isinstance(r.exception, SystemExit)


@pytest.mark.parametrize(
    "row, message",
    [
        ("toy,rw,x,indegree,0,1,0.5", "raw.csv:3: fraction must be a number, got 'x'"),
        ("toy,rw,0.1,indegree,0.5,1,", "raw.csv:3: repetition must be an integer, got '0.5'"),
        ("toy,rw,0.1,indegree,0,-,0.5", "raw.csv:3: rng_seed must be an integer, got '-'"),
        ("toy,rw,0.1,indegree,0,1,high", "raw.csv:3: value must be a number or empty, got 'high'"),
        ("toy,rw,0.1", "raw.csv:3: expected 7 fields, got 3"),
    ],
)
def test_report_names_a_bad_raw_csv_cell(tmp_path, row, message):
    run_dir = tmp_path / "results" / "run"
    run_dir.mkdir(parents=True)
    header = "dataset,sampler,fraction,measure,repetition,rng_seed,value"
    (run_dir / "raw.csv").write_text(f"{header}\ntoy,rw,0.1,indegree,0,1,0.5\n{row}\n")
    args = ["report", str(tmp_path / "results"), "--output-dir", str(tmp_path / "report")]
    r = CliRunner().invoke(cli, args)
    assert r.exit_code == 1, r.output
    assert message in r.output
    assert "Traceback" not in r.output
