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
The child reports every pass time and the SHA-256 of each sampler's
results (nodes, tags and counters of every repetition); the digests must
agree between the sides.

Each pair starts one child per side, the first side alternating between
pairs; a child imports ``netsample`` from its side's ``src``. Run from the
root of a checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python bench/expansion.py --parent PARENT_DIR --change . --out expansion.json
"""

from __future__ import annotations

import os

# one BLAS thread, as in perfbench: pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Community  # noqa: E402

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
    out = {}
    for name in SAMPLERS:
        payload = json.dumps([[r.nodes, r.tags, r.counters] for r in results[name]], sort_keys=True)
        out[name] = {
            "pass_s": times[name],
            "call_s": statistics.median(times[name]) / reps,
            "sha256": hashlib.sha256(payload.encode()).hexdigest(),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="root of the parent checkout")
    parser.add_argument("--change", help="root of the changed checkout")
    parser.add_argument("--out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--passes", type=int, default=5)
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(args.passes, args.reps)))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required")

    sides = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        order = list(sides) if pair % 2 == 0 else list(sides)[::-1]
        digests = {}
        for side in order:
            env = dict(os.environ, PYTHONPATH=str(Path(sides[side]).resolve() / "src"))
            cmd = [sys.executable, __file__, "--child",
                   "--passes", str(args.passes), "--reps", str(args.reps)]
            rec = json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                            text=True).stdout.splitlines()[-1])
            runs.append({"pair": pair, "side": side, "samplers": rec})
            digests[side] = {name: r["sha256"] for name, r in rec.items()}
            print(f"pair {pair} {side:<6} " + "  ".join(
                f"{name} {r['call_s'] * 1e3:.2f} ms" for name, r in rec.items()), flush=True)
        if digests["parent"] != digests["change"]:
            raise RuntimeError(f"pair {pair}: the samples differ between the sides")

    summary = {}
    for name in SAMPLERS:
        call = {side: [r["samplers"][name]["call_s"] for r in runs if r["side"] == side]
                for side in sides}
        summary[name] = {
            "pairs": args.pairs,
            "change_faster": sum(c < p for p, c in zip(call["parent"], call["change"])),
            "parent_median_call_s": statistics.median(call["parent"]),
            "change_median_call_s": statistics.median(call["change"]),
        }
        summary[name]["change_over_parent"] = (
            summary[name]["change_median_call_s"] / summary[name]["parent_median_call_s"])
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "pairs": args.pairs,
        "passes": args.passes,
        "reps": args.reps,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
