"""Time experiment runs in process and on the cell pool, with their memory.

``run_experiment`` runs a spec's cells on one process per CPU the process
may run on: the calling process and forked workers claim the cells in cell
order from one shared counter. With one CPU it forks nothing. This script
runs perfbench's ``experiment`` and ``community`` specs (imported from
``perfbench/workloads.py``) in a fresh child process per setting: first with
the child's CPU affinity set to ``{0}``, then to every CPU this process may
run on. Each child runs the spec ``--repeats`` times, with base seeds 0, 1,
... and an empty whole-graph cache each time, and records:

* the wall time of each ``run_experiment`` call;
* the minor page faults of a ``generate_sbm`` call of the spec's graph made
  right after each run; after a forking run they include the copy-on-write
  faults of the pages the workers shared;
* its own peak RSS (``ru_maxrss`` of ``RUSAGE_SELF``), which is what
  perfbench's ``peak_rss_mb`` reports, and which includes the working set of
  the cells it ran itself;
* the largest peak RSS of its forked workers (``ru_maxrss`` of
  ``RUSAGE_CHILDREN``), which perfbench does not see;
* the ``raw.csv`` digest of each run, which must not depend on the setting.

Run from the root of a checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python bench/cell_pool.py --out cell_pool.json
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
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import CentralityComparison, Community  # noqa: E402

import numpy as np  # noqa: E402

from netsample import SbmSpec, generate_sbm  # noqa: E402
from netsample.experiments import ExperimentSpec, run_experiment  # noqa: E402

SPECS = {"experiment": CentralityComparison.SPEC, "community": Community.SPEC}


def run_child(workload: str, repeats: int) -> dict:
    """Run one spec ``repeats`` times in this process, as set up by ``main``."""
    doc = json.loads(json.dumps(SPECS[workload]))
    doc["input"]["sbm"]["rng_seed"] = 0
    sbm = SbmSpec(**doc["input"]["sbm"])
    times, faults, digests = [], [], []
    with tempfile.TemporaryDirectory() as tmp:
        for rep in range(repeats):
            run_dir = Path(tmp) / str(rep)
            os.environ["NETSAMPLE_CACHE_DIR"] = str(run_dir / "cache")
            spec = ExperimentSpec.from_dict(dict(doc, base_seed=rep, output_dir=str(run_dir / "out")))
            t0 = time.perf_counter()
            result = run_experiment(spec)
            times.append(time.perf_counter() - t0)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            generate_sbm(sbm)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
            result.save(run_dir / "out")
            digests.append(hashlib.sha256((run_dir / "out" / "raw.csv").read_bytes()).hexdigest())
    return {
        "workload": workload,
        "cpus": sorted(os.sched_getaffinity(0)),
        "run_s": times,
        "median_run_s": statistics.median(times),
        "generate_sbm_minor_faults": faults,
        "median_generate_sbm_minor_faults": statistics.median(faults),
        "self_maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "children_maxrss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        "raw_csv_sha256": digests,
        "numpy": np.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", choices=sorted(SPECS), help=argparse.SUPPRESS)
    parser.add_argument("--cpus", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
        print(json.dumps(run_child(args.child, args.repeats)))
        return 0

    settings = {"in_process": [0], "pool": sorted(os.sched_getaffinity(0))}
    runs = []
    for workload in SPECS:
        digests = set()
        for name, cpus in settings.items():
            cmd = [sys.executable, __file__, "--out", args.out, "--repeats", str(args.repeats),
                   "--child", workload, "--cpus", ",".join(map(str, cpus))]
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            rec = dict(json.loads(out.splitlines()[-1]), setting=name)
            digests.add(tuple(rec["raw_csv_sha256"]))
            runs.append(rec)
            print(f"{workload:<11} {name:<10} cpus={cpus} run {rec['median_run_s']:.3f} s  "
                  f"faults {rec['median_generate_sbm_minor_faults']:.0f}  "
                  f"self {rec['self_maxrss_mb']:.1f} MB  children {rec['children_maxrss_mb']:.1f} MB")
        if len(digests) != 1:
            raise RuntimeError(f"{workload}: raw.csv differs between settings")
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "usable_cpus": sorted(os.sched_getaffinity(0))},
        "repeats": args.repeats,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
