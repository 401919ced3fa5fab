"""Declarative experiment runner reproducing the three study protocols.

An experiment spec (YAML) names an input graph (edge list or SBM), a list of
samplers with their configurations, sample fractions, measures, and a
repetition count. Results are written as long-format CSV
(``dataset,sampler,fraction,measure,mean,std,R`` after aggregation) plus a
JSON sidecar with the fully resolved configuration, so identical specs
reproduce byte-identical outputs.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import json
import math
import multiprocessing
import os
import traceback
from collections.abc import Callable, Mapping
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
import yaml

from .centrality import MEASURES, CentralityVector, betweenness, pivot_sources
from .errors import (
    ParseError,
    PartialSampleError,
    UndefinedCorrelationError,
    ValidationError,
    checked_keys,
    from_mapping,
    is_integer,
    is_label,
    is_real,
    require,
)
from .graph import (
    Graph,
    LabeledPartition,
    induced_subgraph,
    load_edge_list,
    load_labels,
    read_text,
)
from .metrics import entropy_ratio, kendall_tau, kl_divergence, label_histogram
from .samplers import SAMPLERS, SamplerConfig
from .synth import SbmSpec, check_attributes, generate_sbm, plant_attributes

CACHE_ENV_VAR = "NETSAMPLE_CACHE_DIR"
DEFAULT_FRACTIONS = (0.05, 0.1, 0.15, 0.2, 0.25, 0.3)
RAW_HEADER = ["dataset", "sampler", "fraction", "measure", "repetition", "rng_seed", "value"]
SUMMARY_HEADER = ["dataset", "sampler", "fraction", "measure", "mean", "std", "R"]
EXACT_BETWEENNESS_LIMIT = 10_000
# the runner sets target_size, rng_seed and seed_nodes for every cell
RUNNER_KEYS = {"target_size", "rng_seed", "seed_nodes"}
NODE2VEC_KEYS = {"node2vec_p", "node2vec_q"}
SAMPLER_CONFIG_KEYS = set(SamplerConfig.__dataclass_fields__) - RUNNER_KEYS - NODE2VEC_KEYS


@dataclass
class ExperimentSpec:
    """Declarative experiment configuration."""

    kind: str
    input: dict
    samplers: list
    dataset: str = "dataset"
    fractions: tuple = DEFAULT_FRACTIONS
    measures: tuple = ("eigenvector", "pagerank", "indegree")
    repetitions: int = 10
    base_seed: int = 0
    seeds: tuple | None = None
    seed_policy: str = "uniform"
    seed_regions: tuple = ()
    betweenness_pivots: int = 200
    output_dir: str = "results"

    SEED_POLICIES = ("uniform", "smallest_block")

    def __post_init__(self):
        if not (isinstance(self.kind, str) and self.kind in STUDIES):
            raise ValidationError(f"unknown experiment kind {self.kind!r}")
        for f in _entries("fractions", self.fractions):
            require("fractions entry", f, "a real number in (0, 1]", is_real(f) and 0.0 < f <= 1.0)
        self.fractions = tuple(float(f) for f in self.fractions)
        for name, low in (("repetitions", 1), ("betweenness_pivots", 1), ("base_seed", 0)):
            value = getattr(self, name)
            require(name, value, f"an integer >= {low}", is_integer(value) and value >= low)
        if self.seeds is not None:
            for s in _entries("seeds", self.seeds):
                require("seeds entry", s, "an integer >= 0", is_integer(s) and s >= 0)
            self.seeds = tuple(int(s) for s in self.seeds)
            if len(self.seeds) < self.repetitions:
                raise ValidationError("fixed seed list shorter than repetitions")
        self.seed_regions = _entries("seed_regions", self.seed_regions)
        for r in self.seed_regions:
            require("seed_regions entry", r, "a string or an integer", is_label(r))
        for name in _entries("measures", self.measures):
            if not (isinstance(name, str) and name in MEASURES):
                raise ValidationError(
                    f"unknown measure {name!r}; allowed: {', '.join(sorted(MEASURES))}"
                )
        dataset, out = self.dataset, self.output_dir
        ok = isinstance(dataset, str) or is_real(dataset)
        require("dataset", dataset, "a string or a number", ok)
        require("output_dir", out, "a directory path", isinstance(out, (str, os.PathLike)))
        self.output_dir = str(out)
        if self.seed_policy not in self.SEED_POLICIES:
            raise ValidationError(
                f"unknown seed_policy {self.seed_policy!r}; "
                f"allowed: {', '.join(self.SEED_POLICIES)}"
            )
        self.samplers = [_sampler_entry(s) for s in _entries("samplers", self.samplers)]
        names = [s["name"] for s in self.samplers]
        for name in names:
            at = [i for i, other in enumerate(names) if other == name]
            if len(at) > 1:
                # raw.csv rows and summary cells are keyed by the sampler's name
                raise ValidationError(f"sampler {name!r} is listed more than once, at entries {at}")
        _checked_input(self.input)

    @classmethod
    def from_dict(cls, d) -> "ExperimentSpec":
        return from_mapping(cls, d, "an experiment spec")

    @classmethod
    def from_yaml(cls, path) -> "ExperimentSpec":
        return cls.from_dict(read_yaml(path))

    def resolved(self) -> dict:
        """All defaults materialized, for the provenance echo."""
        values = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


def read_yaml(path):
    """The YAML document in the file at ``path``; every error names the file."""
    try:
        return yaml.safe_load(read_text(path))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        problem = getattr(exc, "problem", None) or str(exc).splitlines()[0]
        raise ParseError(problem, path, None if mark is None else mark.line + 1) from None


def _entries(name: str, value) -> tuple:
    require(name, value, "a list", isinstance(value, (list, tuple)))
    return tuple(value)


def _sampler_entry(entry) -> dict:
    """Check one ``{name, config}`` sampler entry of a spec and normalize it."""
    if not isinstance(entry, Mapping) or "name" not in entry or set(entry) - {"name", "config"}:
        raise ValidationError(
            f"sampler entry {entry!r}: expected a mapping {{name: <sampler>, config: {{...}}}}"
        )
    name, config = entry["name"], entry.get("config") or {}
    if not (isinstance(name, str) and name in SAMPLERS):
        raise ValidationError(f"unknown sampler {name!r}")
    if not isinstance(config, Mapping):
        raise ValidationError(f"sampler {name!r}: config must be a mapping, got {config!r}")
    allowed = SAMPLER_CONFIG_KEYS.union(NODE2VEC_KEYS if name == "node2vec" else ())
    unknown = sorted(set(config) - allowed, key=str)
    if unknown:
        raise ValidationError(
            f"sampler {name!r}: unknown config key(s) {unknown}; allowed: {sorted(allowed)}"
        )
    entry = {"name": name, "config": dict(config)}
    try:
        _build_config(entry, 1, 0, 0)
    except ValidationError as exc:
        raise ValidationError(f"sampler {name!r}: {exc}") from None
    return entry


def _checked_input(inp) -> tuple[dict, SbmSpec | None]:
    """A spec's ``input`` mapping, checked without building its graph:
    ``{edge_list, directed, labels}`` or ``{sbm, attributes}``. Returns it
    as a dict, with the defaults of ``attributes`` filled in, and the
    ``SbmSpec`` of an SBM input."""
    if isinstance(inp, Mapping) and "edge_list" in inp:
        inp = checked_keys(inp, "an edge_list input", ("edge_list",), ("directed", "labels"))
        for key in ("edge_list", "labels"):
            if key in inp:
                require(key, inp[key], "a file path", isinstance(inp[key], (str, os.PathLike)))
        directed = inp.get("directed", True)
        require("directed", directed, "true or false", isinstance(directed, (bool, np.bool_)))
        return inp, None
    if isinstance(inp, Mapping) and "sbm" in inp:
        inp = checked_keys(inp, "an sbm input", ("sbm",), ("attributes",))
        sbm = SbmSpec.from_dict(inp["sbm"])
        if "attributes" in inp:
            attrs = {"noise": 0.0, "rng_seed": sbm.rng_seed + 1}  # the optional keys
            attrs |= checked_keys(inp["attributes"], "attributes", ("labels",), attrs)
            check_attributes(len(sbm.block_sizes), **attrs)
            inp["attributes"] = attrs
        return inp, sbm
    raise ValidationError(f"input must be a mapping naming an edge_list or an sbm, got {inp!r}")


def load_input(inp) -> tuple[Graph, LabeledPartition | None]:
    """Materialize the graph and (optional) node labels of a spec's ``input``
    mapping: ``{edge_list, directed, labels}`` or ``{sbm, attributes}``."""
    inp, sbm = _checked_input(inp)
    if sbm is None:
        g, mapping = load_edge_list(inp["edge_list"], directed=inp.get("directed", True))
        return g, load_labels(inp["labels"], mapping) if "labels" in inp else None
    g, partition = generate_sbm(sbm)
    if "attributes" in inp:
        partition = plant_attributes(partition, **inp["attributes"])
    return g, partition


def _rep_seeds(spec: ExperimentSpec, cell: tuple, rep: int) -> tuple[int, int]:
    """Derive (sampler rng seed, seed-node rng seed) for one repetition."""
    if spec.seeds is not None:
        entropy = (spec.seeds[rep],) + cell
    else:
        entropy = (spec.base_seed, rep) + cell
    state = np.random.SeedSequence(entropy).generate_state(2)
    return int(state[0]), int(state[1])


def _seed_pool(spec: ExperimentSpec, partition: LabeledPartition | None, region):
    """The sorted nodes a seed node of ``region`` is drawn from; ``None``
    means every node."""
    if region is not None:
        code = partition.categories.index(region)
    elif spec.seed_policy == "smallest_block":
        if partition is None or not partition.categories:
            raise ValidationError("smallest_block seed policy needs labels")
        sizes = np.bincount(partition.codes + 1, minlength=len(partition.categories) + 1)[1:]
        # the first by str of the smallest blocks
        code = min(np.flatnonzero(sizes == sizes.min()), key=lambda k: str(partition.categories[k]))
    else:
        return None
    return np.flatnonzero(partition.codes == code)


def _pick_seed_node(pool: np.ndarray | None, n: int, rng: np.random.Generator) -> int:
    if pool is None:
        return int(rng.integers(n))
    return int(pool[int(rng.integers(len(pool)))])


def _build_config(entry: dict, m: int, rng_seed: int, seed_node: int) -> SamplerConfig:
    return SamplerConfig(
        target_size=m, rng_seed=rng_seed, seed_nodes=(seed_node,), **entry["config"]
    )


# -- ground-truth centrality cache ------------------------------------


def cache_dir(default_root) -> Path:
    root = os.environ.get(CACHE_ENV_VAR)
    path = Path(root) if root else Path(default_root) / ".cache"
    path.mkdir(parents=True, exist_ok=True)
    return path


def _pivoted(g: Graph, measure: str) -> bool:
    return measure == "betweenness" and g.n > EXACT_BETWEENNESS_LIMIT


def _measure_scores(g: Graph, measure: str, spec: ExperimentSpec) -> CentralityVector:
    """Scores of ``measure`` on ``g``, a whole graph or a sample subgraph.

    Betweenness on more than ``EXACT_BETWEENNESS_LIMIT`` nodes is the
    estimate from ``spec.betweenness_pivots`` pivots drawn with
    ``spec.base_seed``.
    """
    if _pivoted(g, measure):
        sources = pivot_sources(g.n, spec.betweenness_pivots, spec.base_seed)
        return betweenness(g, sources=sources)
    return MEASURES[measure](g)


def full_centrality(
    g: Graph, measure: str, spec: ExperimentSpec, cache_root=None
) -> CentralityVector:
    """Whole-graph scores, computed once per (graph, measure) and cached.

    The scores go to ``<measure>-<tag>.npy`` and the convergence metadata to
    a ``.json`` sidecar of the same name; a missing sidecar is a cache miss.
    """
    if measure not in MEASURES:
        raise ValidationError(f"unknown measure {measure!r}")
    # pivoted betweenness depends on the pivots, which base_seed draws
    params = {"pivots": spec.betweenness_pivots, "seed": spec.base_seed} if _pivoted(g, measure) else {}
    key = None
    if cache_root is not None:
        tag = hashlib.sha256(
            (g.digest + measure + json.dumps(params, sort_keys=True)).encode()
        ).hexdigest()
        key = cache_dir(cache_root) / f"{measure}-{tag[:24]}.npy"
        if key.exists() and key.with_suffix(".json").exists():
            meta = json.loads(key.with_suffix(".json").read_text(encoding="utf-8"))
            return CentralityVector(np.load(key), measure, **meta)
    vec = _measure_scores(g, measure, spec)
    if key is not None:
        np.save(key, vec.scores)
        meta = {
            "iterations": int(vec.iterations),
            "residual": float(vec.residual),
            "converged": bool(vec.converged),
        }
        key.with_suffix(".json").write_text(json.dumps(meta), encoding="utf-8")
    return vec


# -- experiment loop ----------------------------------------------------------


@dataclass
class RunResult:
    """Per-repetition metric rows plus their aggregates."""

    rows: list = field(default_factory=list)
    resolved_config: dict = field(default_factory=dict)

    def add(self, dataset, sampler, fraction, measure, repetition, rng_seed, value):
        self.rows.append(
            {
                "dataset": dataset,
                "sampler": sampler,
                "fraction": fraction,
                "measure": measure,
                "repetition": repetition,
                "rng_seed": rng_seed,
                "value": value,
            }
        )

    def summary_rows(self) -> list:
        return aggregate_rows(self.rows)

    def values(self, sampler=None, measure=None, fraction=None) -> list:
        out = []
        for r in self.rows:
            if sampler is not None and r["sampler"] != sampler:
                continue
            if measure is not None and r["measure"] != measure:
                continue
            if fraction is not None and r["fraction"] != fraction:
                continue
            out.append(r["value"])
        return out

    def mean(self, **kw) -> float:
        vals = [v for v in self.values(**kw) if v is not None]
        return float(np.mean(vals)) if vals else math.nan

    def save(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        write_csv(out / "raw.csv", RAW_HEADER, self.rows)
        write_csv(out / "summary.csv", SUMMARY_HEADER, self.summary_rows())
        with open(out / "resolved_config.json", "w", encoding="utf-8") as fh:
            json.dump(self.resolved_config, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def write_csv(path, header, rows) -> None:
    """Write the ``header`` columns of each row dict, empty for ``None``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for r in rows:
            writer.writerow([_fmt(r[c]) for c in header])


def aggregate_rows(rows) -> list:
    """Mean/std per (dataset, sampler, fraction, measure) cell."""
    cells: dict = {}
    for r in rows:
        key = (r["dataset"], r["sampler"], r["fraction"], r["measure"])
        cells.setdefault(key, []).append(r["value"])
    out = []
    for key in sorted(cells, key=lambda k: tuple(str(x) for x in k)):
        vals = [v for v in cells[key] if v is not None]
        dataset, sampler, fraction, measure = key
        out.append(
            {
                "dataset": dataset,
                "sampler": sampler,
                "fraction": fraction,
                "measure": measure,
                "mean": float(np.mean(vals)) if vals else None,
                "std": float(np.std(vals)) if vals else None,
                "R": len(vals),
            }
        )
    return out


def sample_size(fraction: float, n: int) -> int:
    ok = is_real(fraction) and 0 < fraction <= 1
    require("fraction", fraction, "a real number in (0, 1]", ok)
    return max(1, min(n, round(fraction * n)))


def _centrality_study(spec: ExperimentSpec, g: Graph, partition):
    """In-sample vs whole-graph Kendall tau-b over the sampled nodes, per measure."""
    full = {m: full_centrality(g, m, spec, cache_root=spec.output_dir) for m in spec.measures}

    def measure(sample, seed_node, region) -> dict:
        sub, mapping = induced_subgraph(g, sample.nodes)
        taus = {}
        for meas in spec.measures:
            try:
                sub_scores = _measure_scores(sub, meas, spec).scores
                taus[meas] = kendall_tau(sub_scores, full[meas].scores[mapping.sub_to_full])
            except (UndefinedCorrelationError, ValidationError):
                taus[meas] = None
        return taus

    return (None,), lambda region: spec.measures, measure


def _community_study(spec: ExperimentSpec, g: Graph, partition):
    """KL(p_G || p_Gm) of the block distributions and the sample's share in
    the seed node's block."""
    if partition is None:
        raise ValidationError("community experiment needs a labeled input")
    full_hist = label_histogram(np.arange(g.n), partition)

    def measure(sample, seed_node, region) -> dict:
        labels = partition.names[partition.codes_of(sample.nodes)]
        in_seed = np.count_nonzero(labels == partition.label_of(seed_node))
        return {
            "kl": kl_divergence(full_hist, label_histogram(sample.nodes, partition)),
            "seed_block_fraction": in_seed / len(sample.nodes),
        }

    return (None,), lambda region: ("kl", "seed_block_fraction"), measure


def _attribute_study(spec: ExperimentSpec, g: Graph, partition):
    """KL(p_G || p_Gm) of the attribute distribution and the entropy ratio of
    the seed region, with the region folded into the measure name
    (``kl:REGION``, ``entropy_ratio:REGION``) so the report schema stays flat."""
    if partition is None:
        raise ValidationError("attribute experiment needs labeled input")
    if not spec.seed_regions:
        raise ValidationError("attribute experiment needs seed_regions")
    for region in spec.seed_regions:
        if region not in partition.categories:
            raise ValidationError(f"seed region {region!r} absent from labels {partition.categories}")
    full_hist = label_histogram(np.arange(g.n), partition)
    full_labels = partition.names[partition.codes]

    def names(region) -> tuple:
        return f"kl:{region}", f"entropy_ratio:{region}"

    def measure(sample, seed_node, region) -> dict:
        kl = kl_divergence(full_hist, label_histogram(sample.nodes, partition))
        labels = partition.names[partition.codes_of(sample.nodes)]
        ratio = entropy_ratio(labels, full_labels, region)
        return dict(zip(names(region), (kl, ratio)))

    return spec.seed_regions, names, measure


STUDIES = {
    "centrality_comparison": _centrality_study,
    "community": _community_study,
    "attribute": _attribute_study,
}


@dataclass(frozen=True)
class _Study:
    """What every cell of a run reads: the spec, the graph, the seed
    regions and their seed pools, and the study's ``names`` and ``measure``."""

    spec: ExperimentSpec
    g: Graph
    regions: tuple
    pools: list
    names: Callable
    measure: Callable


def _run_cell(study: _Study, cell: tuple) -> tuple[int, dict]:
    """The sampler's rng seed and the value of each measure name for one
    ``(region index, sampler index, fraction index, repetition)`` cell."""
    ri, si, fi, rep = cell
    spec, g, region = study.spec, study.g, study.regions[ri]
    entry = spec.samplers[si]
    prefix = () if region is None else (ri,)
    s_seed, n_seed = _rep_seeds(spec, prefix + (si, fi), rep)
    seed_node = _pick_seed_node(study.pools[ri], g.n, np.random.default_rng(n_seed))
    cfg = _build_config(entry, sample_size(spec.fractions[fi], g.n), s_seed, seed_node)
    try:
        sample = SAMPLERS[entry["name"]](g, cfg)
    except PartialSampleError:
        return s_seed, dict.fromkeys(study.names(region))
    return s_seed, study.measure(sample, seed_node, region)


def _cell_workers(cells: int) -> int:
    """Worker processes for ``cells`` cells: one per CPU this process may
    run on, at most one per cell. 1, which runs the cells in this process,
    where ``fork`` or CPU affinity is missing, or in a daemonic process,
    which cannot have children."""
    if not hasattr(os, "sched_getaffinity") or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    if multiprocessing.current_process().daemon:
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), cells))


class _CellTraceback(Exception):
    """The traceback of a cell that raised in a forked worker."""

    def __str__(self):
        return self.args[0]


def _claim_cells(study: _Study, cells: list, claimed) -> tuple[dict, tuple | None]:
    """Run the cells claimed in cell order from the shared counter
    ``claimed`` until none is left.

    Returns ``_run_cell`` of each cell run, by cell index, and the index, the
    exception and the traceback text of the cell that raised, or None. A
    cell that raises claims every cell left, so no process starts a new one.
    """
    results = {}
    while True:
        with claimed.get_lock():
            i = claimed.value
            claimed.value = i + 1
        if i >= len(cells):
            return results, None
        try:
            results[i] = _run_cell(study, cells[i])
        except Exception as exc:
            claimed.value = len(cells)
            return results, (i, exc, traceback.format_exc())


def _child(study: _Study, cells: list, claimed, conn) -> None:
    conn.send(_claim_cells(study, cells, claimed))


def _map_cells(study: _Study, cells: list) -> list:
    """``_run_cell`` of each cell, in cell order.

    With more than one worker, this process and ``workers - 1`` forked
    children, which inherit the study rather than unpickle it, claim the
    cells in cell order from one shared counter, so a process on a slow or
    busy CPU runs fewer cells. Each child sends its results in one message
    once every cell is claimed. The first failing cell in cell order raises
    its own exception, as in process: the cells claimed before it finish,
    and none starts after it. A child that exits without its message raises
    ``BrokenProcessPool``. Every child has been stopped and joined on
    return.
    """
    workers = _cell_workers(len(cells))
    if workers == 1:
        return [_run_cell(study, cell) for cell in cells]
    ctx = multiprocessing.get_context("fork")
    claimed = ctx.Value("q", 0)
    children = []
    try:
        for _ in range(workers - 1):
            conn, child_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(study, cells, claimed, child_end), daemon=True)
            proc.start()
            child_end.close()  # so the pipe of a child that dies reads end of file
            children.append((proc, conn))
        messages = [_claim_cells(study, cells, claimed)]
        for proc, conn in children:
            try:
                messages.append(conn.recv())
            except (EOFError, OSError):
                proc.join()
                raise BrokenProcessPool(
                    f"a cell worker exited with code {proc.exitcode} before sending its results"
                ) from None
    except BaseException:
        for proc, _ in children:
            proc.terminate()
        raise
    finally:
        for proc, conn in children:
            proc.join()
            conn.close()
    failures = [failure for _, failure in messages if failure is not None]
    if failures:
        _, exc, text = min(failures, key=lambda f: f[0])
        if exc.__traceback__ is None:  # unpickled from a child
            raise exc from _CellTraceback(text)
        raise exc
    results = {}
    for done, _ in messages:
        results.update(done)
    return [results[i] for i in range(len(cells))]


def run_experiment(spec: ExperimentSpec) -> RunResult:
    """Run every (seed region, sampler, fraction, repetition) cell of a spec.

    The study of ``spec.kind`` builds its whole-graph state once and gives
    the seed regions (attribute runs start every sampler in each region in
    turn; the other kinds have the single region ``None``), the measure
    names of a region, and ``measure(sample, seed_node, region)``, which
    maps each name to a value. A partial sample becomes a row with an empty
    value for each name, not a failure. An attribute run puts the region
    index at the front of every cell's seed entropy.

    Each cell depends only on the spec, the graph and its own seeds, so
    the cells run in parallel where several CPUs are usable (see
    ``_map_cells``); the rows are added in cell order, so the outputs are
    the same byte for byte.
    """
    g, partition = load_input(spec.input)
    regions, names, measure = STUDIES[spec.kind](spec, g, partition)
    result = RunResult(resolved_config=spec.resolved())
    cells = list(
        itertools.product(
            range(len(regions)),
            range(len(spec.samplers)),
            range(len(spec.fractions)),
            range(spec.repetitions),
        )
    )
    # a run with no cells draws no seed node, so a bad seed policy passes
    pools = [_seed_pool(spec, partition, region) for region in regions] if cells else []
    study = _Study(spec, g, regions, pools, names, measure)
    for (ri, si, fi, rep), (s_seed, values) in zip(cells, _map_cells(study, cells)):
        name, fraction = spec.samplers[si]["name"], spec.fractions[fi]
        for meas, value in values.items():
            result.add(spec.dataset, name, fraction, meas, rep, s_seed, value)
    return result


# -- report merging ---------------------------------------------------


# each parsed raw.csv column: its parser and what its text must be, and the
# check of the parsed value and what that value must be, as a run writes it
_RAW_CELLS = {
    "fraction": (float, "a number", lambda f: 0 < f <= 1, "in (0, 1]"),
    "repetition": (int, "an integer", lambda i: i >= 0, ">= 0"),
    "rng_seed": (int, "an integer", lambda i: i >= 0, ">= 0"),
    "value": (
        lambda text: float(text) if text else None,
        "a number or empty",
        lambda v: v is None or math.isfinite(v),
        "finite or empty",
    ),
}


def read_raw_csv(path) -> list:
    """The rows of a ``raw.csv``; a bad header, row or cell is a
    ``ValidationError`` that names the file and the line. A cell must hold
    what a run can write: a finite value or none, a fraction in (0, 1], and
    a repetition and a sampler seed >= 0."""
    rows = []
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    header = next(reader, None)
    if header != RAW_HEADER:
        raise ValidationError(f"{path}: unexpected schema {header}")
    for rec in reader:
        if len(rec) != len(RAW_HEADER):
            message = f"expected {len(RAW_HEADER)} fields, got {len(rec)}"
            raise ParseError(message, path, reader.line_num)
        row = dict(zip(RAW_HEADER, rec))
        for column, (parse, what, ok, bound) in _RAW_CELLS.items():
            text = row[column]
            try:
                row[column] = parse(text)
            except ValueError:
                raise ParseError(f"{column} must be {what}, got {text!r}", path, reader.line_num) from None
            if not ok(row[column]):
                raise ParseError(f"{column} must be {bound}, got {text!r}", path, reader.line_num)
        rows.append(row)
    return rows


def merge_results(results_dir) -> tuple[list, list]:
    """Merge every raw.csv under ``results_dir``; returns (rows, summary)."""
    paths = sorted(Path(results_dir).rglob("raw.csv"))
    if not paths:
        raise ValidationError(f"no raw.csv files under {results_dir}")
    rows = []
    bad = []
    for p in paths:
        try:
            rows.extend(read_raw_csv(p))
        except ValidationError as exc:
            bad.append(str(exc))
    if bad:
        raise ValidationError("cannot merge:\n" + "\n".join(bad))
    return rows, aggregate_rows(rows)
