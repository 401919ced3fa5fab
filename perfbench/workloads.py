"""The benchmark's workloads: inputs made from the seed, operations, checks.

Each workload builds its input in ``setup`` (the experiment workloads, whose
runs generate their own graph, build the checks' copy of it), then yields
rounds of operations. An operation is one call into netsample (a load, a sampler call,
a centrality call or an experiment run) plus a check of its output, done
outside the timed region. A failed check raises ``CheckFailed``.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import shutil
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.stats
import yaml

import netsample
import netsample.cli
from netsample.metrics import kendall_tau as unwrapped_kendall_tau
from layers import CRAWL_SAMPLERS, PhaseClock, check_sample
from spans import Tracer

# What the programs receive is made from the workload seed alone; these
# tags keep the derived streams apart.
STREAM_WARMUP, STREAM_ROUND, STREAM_PIVOTS = 1, 2, 3


class CheckFailed(Exception):
    """An operation returned, but its output is wrong."""


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], None]


def derived_seed(seed: int, *path: int) -> int:
    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def sample_digest(result) -> str:
    payload = json.dumps([[int(v) for v in result.nodes], list(result.tags)])
    return hashlib.sha256(payload.encode()).hexdigest()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_sbm(g, block_sizes, p_in: float, p_out: float) -> None:
    """Edge counts per block pair within 6 standard deviations of the SBM's."""
    sizes = np.asarray(block_sizes)
    blocks = np.repeat(np.arange(sizes.size), sizes)
    src, dst, _ = g.edge_arrays()
    counts = np.zeros((sizes.size, sizes.size))
    np.add.at(counts, (blocks[src], blocks[dst]), 1)
    pairs = np.outer(sizes, sizes) - np.diag(sizes)
    probs = np.where(np.eye(sizes.size, dtype=bool), p_in, p_out)
    # undirected graphs store every edge twice; inside a block both copies
    # land in the same cell
    copies = 1 if g.directed else 1 + np.eye(sizes.size)
    trials = pairs if g.directed else np.where(copies > 1, pairs / 2, pairs)
    want = copies * trials * probs
    sd = copies * np.sqrt(trials * probs * (1 - probs))
    if np.any(np.abs(counts - want) > 6 * sd + 1e-9):
        raise CheckFailed(f"SBM edge counts {counts.tolist()} far from {want.tolist()}")


class Workload:
    """Base class: seed, scratch directory, golden values and digests."""

    name = ""
    setup_is_input = True  # False: set-up builds the checks' reference only

    def __init__(self, seed: int, workdir: Path, golden: dict):
        self.seed = seed
        self.workdir = workdir
        self.golden = golden if seed == 0 else {}
        self.digests: dict[str, str] = {}
        self.tracer: Tracer | None = None  # set while a round is traced

    def expect(self, key: str, value) -> None:
        """Record ``value``; at the default seed it must equal the golden one."""
        self.digests[key] = value
        want = self.golden.get(key)
        if want is not None and want != value:
            raise CheckFailed(f"{key}: {value!r} differs from the golden {want!r}")

    def setup(self) -> None:
        raise NotImplementedError

    def warmup_ops(self) -> list[Op]:
        return []

    def round_ops(self, r: int) -> list[Op]:
        raise NotImplementedError


# -- crawl ------------------------------------------------------------------


class Crawl(Workload):
    """Load a 1e6-edge SBM edge list, rank it four ways, crawl it four ways."""

    name = "crawl"
    N, P_IN, M, PIVOTS = 100_000, 1e-4, 10_000, 4

    def setup(self) -> None:
        spec = netsample.SbmSpec((self.N,), self.P_IN, 0.0, directed=True, rng_seed=self.seed)
        g, _ = netsample.generate_sbm(spec)
        self.path = self.workdir / "crawl.edges"
        netsample.save_edge_list(g, self.path)
        self.edges = g.edge_arrays()
        self.g = g  # the warm-up calls crawl the generated graph
        self.ref = None

    # operations ----------------------------------------------------------

    def _load(self):
        self.g = None
        g, mapping = netsample.graph.load_edge_list(self.path, directed=True)
        self.g = g
        return g, mapping

    def _check_load(self, out) -> None:
        g, mapping = out
        src, dst, w = g.edge_arrays()
        want_src, want_dst, want_w = self.edges
        if not (
            np.array_equal(mapping.to_full(src), want_src)
            and np.array_equal(mapping.to_full(dst), want_dst)
            and np.array_equal(w, want_w)
        ):
            raise CheckFailed("loaded edges differ from the saved graph")
        if self.ref is None:
            check_sbm(g, (self.N,), self.P_IN, 0.0)
            self.ref = sp.csr_matrix((w, (src, dst)), shape=(g.n, g.n))

    def _measure(self, name: str, r: int):
        measures = netsample.centrality.MEASURES
        if name == "betweenness":
            rng = np.random.default_rng(derived_seed(self.seed, STREAM_PIVOTS, r))
            sources = sorted(int(v) for v in rng.choice(self.g.n, self.PIVOTS, replace=False))
            return lambda: (measures[name](self.g, sources=sources), sources)
        return lambda: (measures[name](self.g), None)

    def _check_measure(self, name: str):
        def check(out) -> None:
            vec, sources = out
            x = vec.scores
            a = self.ref
            if not (vec.converged and np.all(np.isfinite(x))):
                raise CheckFailed(f"{name}: not converged or not finite")
            if name == "eigenvector":
                y = a.T @ x
                resid = float(np.abs(y / y.sum() - x).sum())
                if resid > 1e-8:
                    raise CheckFailed(f"eigenvector residual {resid:.3g}")
            elif name == "pagerank":
                dout = np.asarray(a.sum(axis=1)).ravel()
                dangling = dout == 0
                inv = np.where(dangling, 0.0, 1.0 / np.where(dangling, 1.0, dout))
                y = 0.85 * (a.T @ (x * inv) + x[dangling].sum() / len(x)) + 0.15 / len(x)
                resid = float(np.abs(y - x).sum())
                if resid > 1e-9 or abs(x.sum() - 1.0) > 1e-9:
                    raise CheckFailed(f"pagerank fixed-point residual {resid:.3g}")
            elif name == "springrank":
                dout = np.asarray(a.sum(axis=1)).ravel()
                din = np.asarray(a.sum(axis=0)).ravel()
                op = sp.identity(len(x)) + sp.diags(dout + din) - (a + a.T)
                rhs = dout - din
                resid = float(np.linalg.norm(op @ x - rhs) / np.linalg.norm(rhs))
                if resid > 1e-8:
                    raise CheckFailed(f"springrank relative residual {resid:.3g}")
            elif name == "betweenness":
                # each shortest s-t path of length d has d-1 interior nodes
                dist = csgraph.shortest_path(a, directed=True, unweighted=True, indices=sources)
                reach = np.isfinite(dist) & (dist > 0)
                want = float((dist[reach] - 1).sum())
                if x.min() < 0 or abs(x.sum() - want) > 1e-9 * max(want, 1.0):
                    raise CheckFailed(f"betweenness total {x.sum()!r} != {want!r}")

        return check

    def _sampler(self, name: str, rng_seed: int):
        def call():
            cfg = netsample.SamplerConfig(target_size=self.M, rng_seed=rng_seed)
            fn = netsample.samplers.SAMPLERS[name]
            if self.tracer is not None and name in ("tcec", "tcpr"):
                clock = PhaseClock(self.tracer, name)
                result = fn(self.g, cfg, step_callback=clock)
                if name == "tcpr":
                    dangling = len(clock.state.dangling_members)
                    self.tracer.add("samplers.tcpr.dangling_members", dangling)
                return result
            return fn(self.g, cfg)

        return call

    def _check_sample(self, name: str, key: str | None):
        def check(result) -> None:
            problem = check_sample(name, result, self.M)
            if problem:
                raise CheckFailed(problem)
            if key is not None:
                self.expect(key, sample_digest(result))

        return check

    def warmup_ops(self) -> list[Op]:
        ops = []
        for i, name in enumerate(CRAWL_SAMPLERS):
            rng_seed = derived_seed(self.seed, STREAM_WARMUP, i)
            check = self._check_sample(name, f"warmup.sample.{name}")
            ops.append(Op(f"sample_s.{name}", self._sampler(name, rng_seed), check))
        return ops

    def round_ops(self, r: int) -> list[Op]:
        ops = [Op("load_s", self._load, self._check_load)]
        for name in ("eigenvector", "pagerank", "springrank", "betweenness"):
            ops.append(Op(f"centrality_s.{name}", self._measure(name, r), self._check_measure(name)))
        for i, name in enumerate(CRAWL_SAMPLERS):
            rng_seed = derived_seed(self.seed, STREAM_ROUND, r, i)
            key = f"sample.{name}" if r == 0 else None
            ops.append(Op(f"sample_s.{name}", self._sampler(name, rng_seed), self._check_sample(name, key)))
        return ops


# -- experiments ------------------------------------------------------------


class ExperimentRun(Workload):
    """One in-process ``netsample experiment run`` per operation.

    The graph comes from the workload seed. Every round draws a fresh
    ``base_seed``, so sampler seeds and seed nodes differ between rounds.
    """

    setup_is_input = False
    SPEC: dict = {}
    calls = 0

    def setup(self) -> None:
        # the benchmark's own copy of the graph, for the output checks
        sbm = dict(self.SPEC["input"]["sbm"], rng_seed=self.seed)
        self.ref_graph, _ = netsample.generate_sbm(netsample.SbmSpec(**sbm))

    def round_ops(self, r: int) -> list[Op]:
        spec = json.loads(json.dumps(self.SPEC))
        spec["input"]["sbm"]["rng_seed"] = self.seed
        spec["base_seed"] = derived_seed(self.seed, STREAM_ROUND, r)
        self.calls += 1
        run_dir = self.workdir / f"{self.name}-{self.calls}"
        run_dir.mkdir()
        with open(run_dir / "spec.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(spec, fh)
        key = self.name if r == 0 else None
        return [Op("experiment_s", lambda: self._run(run_dir), lambda _: self._check(spec, run_dir, key))]

    def _run(self, run_dir: Path) -> None:
        os.environ["NETSAMPLE_CACHE_DIR"] = str(run_dir / "cache")
        args = ["experiment", "run", str(run_dir / "spec.yaml"), "--output-dir", str(run_dir / "out")]
        with contextlib.redirect_stdout(io.StringIO()):
            if self.tracer is not None:
                self.tracer.span("cli.experiment_run", netsample.cli.cli.main, args, standalone_mode=False)
            else:
                netsample.cli.cli.main(args, standalone_mode=False)

    def _check(self, spec: dict, run_dir: Path, key: str | None) -> None:
        try:
            self._check_outputs(spec, run_dir / "out", run_dir / "cache", key)
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    def _check_outputs(self, spec: dict, out: Path, cache: Path, key: str | None) -> None:
        with open(out / "raw.csv", encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        measures = list(self.VALUE_RANGE)
        want_rows = len(spec["samplers"]) * len(spec["fractions"]) * spec["repetitions"] * len(measures)
        if len(rows) != want_rows or {r["measure"] for r in rows} != set(measures):
            raise CheckFailed(f"raw.csv has {len(rows)} rows, wanted {want_rows}")
        cells = defaultdict(list)
        for row in rows:
            if row["value"] != "":
                value = float(row["value"])
                lo, hi = self.VALUE_RANGE[row["measure"]]
                if not lo <= value <= hi:
                    raise CheckFailed(f"{row['measure']} value {value} outside [{lo}, {hi}]")
                cells[(row["sampler"], row["measure"])].append(value)
        with open(out / "summary.csv", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                vals = cells[(row["sampler"], row["measure"])]
                if int(row["R"]) != len(vals) or (
                    vals and abs(float(row["mean"]) - float(np.mean(vals))) > 1e-12
                ):
                    raise CheckFailed(f"summary.csv disagrees with raw.csv at {row}")
        with open(out / "resolved_config.json", encoding="utf-8") as fh:
            if json.load(fh)["base_seed"] != spec["base_seed"]:
                raise CheckFailed("resolved_config.json names another base_seed")
        if self.tracer is not None:
            self.tracer.add("experiments.cache.writes", len(list(cache.glob("*.npy"))))
        sbm = spec["input"]["sbm"]
        check_sbm(self.ref_graph, sbm["block_sizes"], sbm["p_in"], sbm["p_out"])
        self.check_cache(cache)
        if key is not None:
            self.expect(f"{key}.raw_csv", file_digest(out / "raw.csv"))
            self.expect(f"{key}.missing_cells", sum(r["value"] == "" for r in rows))

    def check_cache(self, cache: Path) -> None:
        pass


class CentralityComparison(ExperimentRun):
    """Whole-graph against in-sample ranks: many centralities of ~600-node
    subgraphs, ``induced_subgraph`` and ``kendall_tau``. Some seed nodes
    reach too few nodes along out-edges; those crawls burn their step budget
    and leave missing cells."""

    name = "experiment"
    SPEC = {
        "kind": "centrality_comparison",
        "dataset": "sbm3",
        "input": {
            "sbm": {
                "block_sizes": [3000, 4000, 5000],
                "p_in": 1e-3,
                "p_out": 1e-4,
                "directed": True,
            }
        },
        "samplers": [{"name": s} for s in ("rn", "rw", "tcec", "tcpr", "node2vec")],
        "fractions": [0.05],
        "measures": ["eigenvector", "pagerank", "indegree", "betweenness", "springrank"],
        "repetitions": 4,
        "betweenness_pivots": 10,
    }
    VALUE_RANGE = {m: (-1.0 - 1e-12, 1.0 + 1e-12) for m in SPEC["measures"]}

    def check_cache(self, cache: Path) -> None:
        """Check the cached whole-graph scores against the reference graph."""
        g = self.ref_graph
        a = g.to_scipy()
        vectors = {}
        for path in cache.glob("*.npy"):
            vectors[path.name.split("-")[0]] = np.load(path)
        if set(vectors) != set(self.SPEC["measures"]):
            raise CheckFailed(f"cache holds {sorted(vectors)}")
        ev = vectors["eigenvector"]
        y = a.T @ ev
        if abs(ev.sum() - 1.0) > 1e-9 or float(np.abs(y / y.sum() - ev).sum()) > 1e-8:
            raise CheckFailed("cached eigenvector is not a fixed point")
        if not np.array_equal(vectors["indegree"], np.asarray(a.sum(axis=0)).ravel()):
            raise CheckFailed("cached in-degree differs")
        bc = vectors["betweenness"]
        if not (np.all(np.isfinite(bc)) and bc.min() >= 0):
            raise CheckFailed("cached betweenness negative or not finite")
        tau = unwrapped_kendall_tau(vectors["eigenvector"], vectors["pagerank"])
        ref = scipy.stats.kendalltau(vectors["eigenvector"], vectors["pagerank"]).statistic
        if not abs(tau - ref) <= 1e-12:
            raise CheckFailed(f"kendall_tau {tau!r} != scipy {ref!r}")


class Community(ExperimentRun):
    """Block representation in samples of an undirected SBM: the only
    workload that runs ``xs``, ``kl_divergence`` and ``label_histogram``."""

    name = "community"
    SPEC = {
        "kind": "community",
        "dataset": "sbm3u",
        "input": {
            "sbm": {
                "block_sizes": [600, 600, 800],
                "p_in": 0.02,
                "p_out": 0.002,
                "directed": False,
            }
        },
        "samplers": [{"name": s} for s in ("rn", "rw", "xs", "tcec", "tcpr", "node2vec")],
        "fractions": [0.1],
        "repetitions": 10,
        "seed_policy": "smallest_block",
    }
    # rounding can put KL(p || p) a few ulps below 0
    VALUE_RANGE = {"kl": (-1e-12, np.inf), "seed_block_fraction": (0.0, 1.0)}


WORKLOADS = {w.name: w for w in (Crawl, CentralityComparison, Community)}
