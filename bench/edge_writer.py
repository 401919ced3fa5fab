"""Time ``save_edge_list`` in two checkouts, one process per side, alternating.

Three graphs are written, each built the same way on both sides:

* ``crawl``: perfbench's ``crawl`` graph (imported from
  ``perfbench/workloads.py``), a directed SBM with 1e5 nodes and about 1e6
  edges, written with its dense ids;
* ``crawl_mapped``: the same graph written through a ``NodeMapping`` of
  distinct ids drawn from ``0..10**12``;
* ``sparse``: a directed graph with 1e6 nodes and 1e4 random edges, where
  most nodes have no edge.

Each pair starts one child process per side, the first side alternating
between pairs. A child writes each graph ``--repeats`` times into a
temporary file and reports the wall time of every call and the SHA-256 of
the file; the digests must agree between the sides.

A child imports ``netsample`` from its side's ``src``. Run from the root of
a checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python bench/edge_writer.py --parent PARENT_DIR --change . --out edge_writer.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Crawl  # noqa: E402

from netsample import Graph, NodeMapping, SbmSpec, generate_sbm, save_edge_list  # noqa: E402


def graphs():
    """The graphs to write, as ``name -> (graph, mapping)``."""
    rng = np.random.default_rng(0)
    g, _ = generate_sbm(SbmSpec((Crawl.N,), Crawl.P_IN, 0.0, directed=True, rng_seed=0))
    ids = np.sort(rng.choice(10**12, g.n, replace=False))
    n, m = 10**6, 10**4
    sparse = Graph(n, rng.integers(0, n, m), rng.integers(0, n, m), np.ones(m), True)
    return {
        "crawl": (g, None),
        "crawl_mapped": (g, NodeMapping(sub_to_full=ids)),
        "sparse": (sparse, None),
    }


def run_child(repeats: int) -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        for name, (g, mapping) in graphs().items():
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                save_edge_list(g, path, mapping)
                times.append(time.perf_counter() - t0)
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            out[name] = {"s": times, "median_s": statistics.median(times), "sha256": digest}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", help="root of the parent checkout")
    parser.add_argument("--change", help="root of the changed checkout")
    parser.add_argument("--out")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(run_child(args.repeats)))
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
            cmd = [sys.executable, __file__, "--child", "--repeats", str(args.repeats)]
            rec = json.loads(subprocess.run(cmd, env=env, check=True, capture_output=True,
                                            text=True).stdout.splitlines()[-1])
            runs.append({"pair": pair, "side": side, "graphs": rec})
            digests[side] = {name: r["sha256"] for name, r in rec.items()}
            print(f"pair {pair} {side:<6} " + "  ".join(
                f"{name} {r['median_s']:.4f} s" for name, r in rec.items()))
        if digests["parent"] != digests["change"]:
            raise RuntimeError(f"pair {pair}: the written bytes differ between the sides")

    summary = {}
    for name in runs[0]["graphs"]:
        med = {side: [r["graphs"][name]["median_s"] for r in runs if r["side"] == side]
               for side in sides}
        summary[name] = {
            "pairs": args.pairs,
            "change_faster": sum(c < p for p, c in zip(med["parent"], med["change"])),
            "parent_median_s": statistics.median(med["parent"]),
            "change_median_s": statistics.median(med["change"]),
        }
        summary[name]["change_over_parent"] = (
            summary[name]["change_median_s"] / summary[name]["parent_median_s"])
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count()},
        "pairs": args.pairs,
        "repeats": args.repeats,
        "summary": summary,
        "runs": runs,
    }
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
