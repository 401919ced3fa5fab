"""The input contract: every input that the API or a spec accepts either works
or raises a ``NetsampleError`` that names the problem.

Each case starts from a known-good input and changes one thing. A
``SamplerConfig`` field, a leaf or branch of a golden experiment spec, or an
argument of a public API call takes a value from a fixed list of odd values;
or a spec mapping loses a key or gains an unknown one. A spec that parses is
then run.
"""

import copy
import itertools
import json
import math
import pickle
from dataclasses import fields

import pytest

from netsample import errors
from netsample.centrality import betweenness, pivot_sources
from netsample.errors import NetsampleError
from netsample.experiments import ExperimentSpec, run_experiment
from netsample.graph import Graph, induced_subgraph
from netsample.metrics import CategoricalDistribution, kendall_tau, kl_divergence
from netsample.samplers import SAMPLERS, SamplerConfig

from test_golden import CONFIGS, SPECS

HUGE = 10**30
ODD = [None, "x", -1, 0, 0.5, True, math.nan, math.inf, -math.inf, [], {}, HUGE]
DELETE = object()
# a self-loop, a zero-weight edge, a sink (5) and a node with no edges (6)
TINY_EDGES = [
    (0, 1, 1.0), (1, 2, 2.0), (2, 0, 1.0), (2, 3, 1.0), (3, 3, 1.0), (3, 4, 0.0), (4, 5, 1.0)
]


def _raw_exception(run, case) -> list[str]:
    """``[]`` if ``run()`` finishes or raises a ``NetsampleError``, else the case."""
    try:
        run()
    except NetsampleError:
        return []
    except Exception as exc:  # noqa: BLE001 - any other exception breaks the contract
        return [f"{case}: {type(exc).__name__}: {exc}"]
    return []


@pytest.mark.parametrize("directed", [True, False])
def test_sampler_configs_work_or_raise_netsample_errors(directed):
    g = Graph.from_edges(7, TINY_EDGES, directed=directed)
    base = dict(CONFIGS["seeded"], target_size=4, seed_nodes=(1,))
    raw = []
    for name, f, value in itertools.product(sorted(SAMPLERS), fields(SamplerConfig), ODD):
        cfg = {**base, f.name: copy.deepcopy(value)}
        case = (name, f.name, value)
        raw += _raw_exception(lambda: SAMPLERS[name](g, SamplerConfig(**cfg)), case)
    assert raw == []


def _paths(node, path=()):
    """The path of every entry below ``node``, a tree of dicts and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _edited(doc, path, value=DELETE):
    """A deep copy of ``doc`` with the entry at ``path`` set to ``value``, or deleted."""
    doc = copy.deepcopy(doc)
    parent = _at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(value)
    return doc


def _spec_cases(base):
    """``(case, spec mapping)`` pairs, each one change away from ``base``."""
    for path in _paths(base):
        for value in ODD:
            yield f"{path} = {value!r}", _edited(base, path, value)
        if isinstance(path[-1], str):
            yield f"del {path}", _edited(base, path)
    for path in [(), *_paths(base)]:
        if isinstance(_at(base, path), dict):
            yield f"{path} gains a key", _edited(base, (*path, "bogus"), 1)


@pytest.mark.parametrize("kind", sorted(SPECS))
def test_specs_work_or_raise_netsample_errors(kind, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # a relative output_dir lands here
    monkeypatch.delenv("NETSAMPLE_CACHE_DIR", raising=False)
    # as parsed from YAML: lists, not tuples
    base = json.loads(json.dumps(dict(SPECS[kind], dataset=kind, output_dir=str(tmp_path))))
    raw = []

    def run(doc):
        spec = ExperimentSpec.from_dict(doc)
        # no upper bound on these counts: a huge one is accepted and runs for ever
        if spec.repetitions < HUGE and spec.betweenness_pivots < HUGE:
            run_experiment(spec)

    for case, doc in _spec_cases(base):
        raw += _raw_exception(lambda: run(doc), case)
    assert raw == []


def test_api_calls_work_or_raise_netsample_errors():
    g = Graph.from_edges(7, TINY_EDGES, directed=True)
    p = CategoricalDistribution(("a", "b"), [0.5, 0.5])
    q = CategoricalDistribution(("a", "b"), [0.9, 0.1])
    calls = {
        "pivot_sources count": lambda v: pivot_sources(10, v, 0),
        "pivot_sources n": lambda v: pivot_sources(v, 3, 0),
        "betweenness sources": lambda v: betweenness(g, sources=v),
        "induced_subgraph nodes": lambda v: induced_subgraph(g, v),
        "kl_divergence eps": lambda v: kl_divergence(p, q, eps=v),
        "CategoricalDistribution probs": lambda v: CategoricalDistribution(("a", "b"), v),
        "kendall_tau x": lambda v: kendall_tau(v, [1.0, 2.0, 3.0]),
    }
    raw = []

    def run(call, value):
        out = call(value)
        if isinstance(out, float) and math.isnan(out):
            raise AssertionError("a NaN result without a word")

    for (name, call), value in itertools.product(calls.items(), ODD):
        raw += _raw_exception(lambda: run(call, copy.deepcopy(value)), (name, value))
    assert raw == []


def test_every_error_survives_pickling():
    # an experiment cell that fails in a worker process reaches the caller pickled
    examples = [
        errors.NetsampleError("m"),
        errors.ValidationError("m"),
        errors.ParseError("m", "g.txt", 3),
        errors.ParseError("m", "g.txt"),
        errors.PartialSampleError("m", [1, 4], ["rw", "criterion"], {"steps": 2}),
        errors.DanglingCandidateError("m"),
        errors.UndefinedCorrelationError("m"),
    ]
    classes = {c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, NetsampleError)}
    assert {type(e) for e in examples} == classes
    for exc in examples:
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc)
        assert str(back) == str(exc)
        # path and line_no; nodes, tags and counters
        assert vars(back) == vars(exc)
