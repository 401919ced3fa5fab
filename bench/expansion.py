"""Time the ``xs``, ``tcec`` and ``tcpr`` samplers in two checkouts, in process.

perfbench's ``community`` workload is the only one that runs ``xs``, and it
runs it inside ``run_experiment``, whose cells go to forked workers: a
traced run sees only the calling process's share of them. This script calls
the samplers directly instead, on the ``community`` workload's undirected
SBM (imported from ``perfbench/workloads.py``, generated with
``rng_seed=0``) at its sample size, 10% of the nodes.

A child process builds the graph, then makes ``--passes`` passes. A pass
runs every sampler once per repetition ``r`` in ``0..--reps-1``, with
``rng_seed=r`` and a seed node drawn from the first block by
``default_rng(r)``, and times each sampler's calls in the pass together.
The child reports every pass time, each sampler's median pass time per call
as its metric, and the SHA-256 of each sampler's results (nodes, tags and
counters of every repetition); the digests must agree between the sides.
The sides run in alternating pairs (see ``pairs.py``).

Run from the root of a checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python bench/expansion.py --parent PARENT_DIR --change . --out expansion.json
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench: pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import hashlib
import json
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Community  # noqa: E402

from pairs import script_main  # noqa: E402

from netsample import SAMPLERS as REGISTRY, SamplerConfig, SbmSpec, generate_sbm  # noqa: E402

SAMPLERS = ("xs", "tcec", "tcpr")


def run_child(passes: int, reps: int) -> dict:
    """Time the samplers in this process, on this side's ``netsample``."""
    sbm = dict(Community.SPEC["input"]["sbm"], rng_seed=0)
    g, _ = generate_sbm(SbmSpec(**sbm))
    m = round(Community.SPEC["fractions"][0] * g.n)
    first_block = sbm["block_sizes"][0]
    configs = [
        SamplerConfig(
            target_size=m,
            rng_seed=r,
            seed_nodes=(int(np.random.default_rng(r).integers(first_block)),),
        )
        for r in range(reps)
    ]
    times = {name: [] for name in SAMPLERS}
    results = {}
    for _ in range(passes):
        for name in SAMPLERS:
            fn = REGISTRY[name]
            t0 = time.perf_counter()
            results[name] = [fn(g, cfg) for cfg in configs]
            times[name].append(time.perf_counter() - t0)
    digests = {
        name: hashlib.sha256(json.dumps(
            [[r.nodes, r.tags, r.counters] for r in results[name]], sort_keys=True).encode()).hexdigest()
        for name in SAMPLERS
    }
    metrics = {name: statistics.median(times[name]) / reps for name in SAMPLERS}
    return {"digests": digests, "metrics": metrics, "pass_s": times}


def main(argv=None) -> int:
    return script_main(__file__, __doc__, run_child, argv, passes=5, reps=10)


if __name__ == "__main__":
    sys.exit(main())
