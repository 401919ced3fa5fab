"""The input contract: every input that the API or a spec accepts either works
or raises a ``NetsampleError`` that names the problem.

Each case starts from a known-good input and changes one thing. A
``SamplerConfig`` field, a leaf or branch of a golden experiment spec, or an
argument of a public API call takes a value from a fixed list of odd values;
or a spec mapping loses a key or gains an unknown one. A spec that parses is
then run. Every call that takes node ids gets a fixed list of odd ids, and
an error it raises must name the argument.
"""

import copy
import itertools
import json
import math
import pickle
import re
from dataclasses import fields

import numpy as np
import pytest

from netsample import errors
from netsample.centrality import betweenness, pivot_sources
from netsample.errors import NetsampleError, ValidationError
from netsample.experiments import ExperimentSpec, run_experiment
from netsample.graph import Graph, LabeledPartition, NodeMapping, induced_subgraph
from netsample.metrics import CategoricalDistribution, kendall_tau, kl_divergence, label_histogram
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


def test_node_id_calls_work_or_raise_errors_that_name_the_argument():
    g = Graph.from_edges(3, [(0, 1), (1, 2)], directed=True)
    part = LabeledPartition.from_labels(3, [0, 1], ["a", "b"])
    mapping = NodeMapping(sub_to_full=np.array([10, 20, 30]))
    # (call, a pattern that names its argument, the call)
    calls = [
        ("induced_subgraph", "node id|empty node set", lambda v: induced_subgraph(g, v)),
        ("betweenness", "betweenness source", lambda v: betweenness(g, sources=v)),
        ("codes_of", "node id", part.codes_of),
        ("label_histogram", "node id|empty node set", lambda v: label_histogram(v, part)),
        ("label_of", "node id", part.label_of),
        ("to_full", "subgraph id", mapping.to_full),
        ("SamplerConfig.validate", "seed.node", lambda v: SamplerConfig(1, seed_nodes=v).validate(3)),
    ]
    scalars = [-1, 3, 1.5, True, "x", 2**70]
    # factories, so that each call gets a fresh generator
    inputs = [
        *[lambda v=v: v for v in scalars],
        *[lambda v=v: [v] for v in scalars],
        lambda: [[0], [1, 2]],
        lambda: np.array([2**64 - 1], dtype=np.uint64),
        lambda: [],
        lambda: (v for v in (2, 0)),
    ]
    bad = []
    for (name, pattern, call), make in itertools.product(calls, inputs):
        value = make()
        case = (name, repr(value))
        try:
            call(value)
        except NetsampleError as exc:
            if not re.search(pattern, str(exc)):
                bad.append(f"{case}: {exc}")
        except Exception as exc:  # noqa: BLE001 - any other exception breaks the contract
            bad.append(f"{case}: {type(exc).__name__}: {exc}")
    assert bad == []
    # an integer beyond 64 bits is out of range; str and bytes are not read as ids
    exact = [
        ([2**70], f"{2**70} not in 0..2$"),
        ([-(2**70)], f"{-(2**70)} not in 0..2$"),
        (b"\x01", "must be a "),
        ("1", "must be a "),
    ]
    for (name, pattern, call), (ids, message) in itertools.product(calls, exact):
        # label_of takes one id
        value = ids[-1] if name == "label_of" and isinstance(ids, list) else ids
        with pytest.raises(ValidationError, match=message):
            call(value)


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
