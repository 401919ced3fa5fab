"""Time experiment runs with and without stuck crawls, and one stuck walk.

A walk is stuck when no sampled node has an out-edge that leads out of the
sample: it restarts only at sampled nodes, so it can never find a new node.
perfbench cannot show what such walks cost, because its ``job_ref`` keeps
each operation's fastest call and most of its rounds hold no stuck crawl.

This script runs perfbench's ``experiment`` spec (imported from
``perfbench/workloads.py``) through ``run_experiment`` for fixed
``(rng_seed, base_seed)`` pairs: the SBM's seed and the spec's base seed.
Some pairs hold stuck crawls, seeded at nodes with no out-edges; the others
hold none. Each run starts with an empty whole-graph cache. It records the
times, the ``raw.csv`` digest and the number of empty cells of each pair,
then times one ``rw`` call of m=1e4 seeded at a sink of the ``rng_seed`` 0
graph, with its error message and step count.

Run from the root of a checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python bench/stuck_walks.py --out stuck.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CentralityComparison  # noqa: E402

from netsample import SAMPLERS, SamplerConfig, SbmSpec, generate_sbm  # noqa: E402
from netsample.errors import PartialSampleError  # noqa: E402
from netsample.experiments import ExperimentSpec, run_experiment  # noqa: E402

STUCK_PAIRS = [(3, 33), (5, 55), (8, 88)]
CLEAN_PAIRS = [(0, 0), (1, 11), (2, 22)]
RW_SIZE = 10_000


def time_experiment(rng_seed: int, base_seed: int, repeats: int, tmp: Path) -> dict:
    doc = json.loads(json.dumps(CentralityComparison.SPEC))
    doc["input"]["sbm"]["rng_seed"] = rng_seed
    doc["base_seed"] = base_seed
    times, digests, missing = [], set(), set()
    for i in range(repeats):
        run_dir = tmp / f"{rng_seed}-{base_seed}-{i}"
        os.environ["NETSAMPLE_CACHE_DIR"] = str(run_dir / "cache")
        spec = ExperimentSpec.from_dict(dict(doc, output_dir=str(run_dir / "out")))
        t0 = time.perf_counter()
        result = run_experiment(spec)
        times.append(time.perf_counter() - t0)
        result.save(run_dir / "out")
        digests.add(hashlib.sha256((run_dir / "out" / "raw.csv").read_bytes()).hexdigest())
        missing.add(sum(row["value"] is None for row in result.rows))
    if len(digests) != 1 or len(missing) != 1:
        raise RuntimeError(f"pair {(rng_seed, base_seed)} is not reproducible")
    return {
        "rng_seed": rng_seed,
        "base_seed": base_seed,
        "times_s": times,
        "median_s": statistics.median(times),
        "raw_csv_sha256": digests.pop(),
        "missing_cells": missing.pop(),
    }


def time_stuck_rw() -> dict:
    sbm = dict(CentralityComparison.SPEC["input"]["sbm"], rng_seed=0)
    g, _ = generate_sbm(SbmSpec(**sbm))
    sink = int(np.flatnonzero(g.out_strength == 0)[0])
    cfg = SamplerConfig(target_size=RW_SIZE, seed_nodes=(sink,))
    t0 = time.perf_counter()
    try:
        SAMPLERS["rw"](g, cfg)
    except PartialSampleError as exc:
        seconds = time.perf_counter() - t0
        return {"seed_node": sink, "m": RW_SIZE, "seconds": seconds, "error": str(exc),
                "nodes": exc.nodes, "counters": exc.counters}
    raise RuntimeError(f"rw from sink {sink} was not stuck")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--repeats", type=int, default=3, help="runs per pair")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        runs = {
            kind: [time_experiment(r, b, args.repeats, Path(tmp)) for r, b in pairs]
            for kind, pairs in (("stuck", STUCK_PAIRS), ("clean", CLEAN_PAIRS))
        }
    record = {
        "experiment": runs,
        "rw_from_sink": time_stuck_rw(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
