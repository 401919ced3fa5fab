"""Time ``save_edge_list`` in two checkouts, one process per side, alternating.

Three graphs are written, each built the same way on both sides:

* ``crawl``: perfbench's ``crawl`` graph (imported from
  ``perfbench/workloads.py``), a directed SBM with 1e5 nodes and about 1e6
  edges, written with its dense ids;
* ``crawl_mapped``: the same graph written through a ``NodeMapping`` of
  distinct ids drawn from ``0..10**12``;
* ``sparse``: a directed graph with 1e6 nodes and 1e4 random edges, where
  most nodes have no edge.

The sides run in alternating pairs (see ``pairs.py``). A child writes each
graph ``--repeats`` times into a temporary file and reports the wall time of
every call, their median as the graph's metric, and the SHA-256 of the file;
the digests must agree between the sides.

Run from the root of a checkout, with that checkout's ``src`` on the path:

    PYTHONPATH=src python bench/edge_writer.py --parent PARENT_DIR --change . --out edge_writer.json
"""

from __future__ import annotations

import hashlib
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import Crawl  # noqa: E402

from pairs import script_main  # noqa: E402

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
    times, digests = {}, {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.edges"
        for name, (g, mapping) in graphs().items():
            times[name] = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                save_edge_list(g, path, mapping)
                times[name].append(time.perf_counter() - t0)
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    metrics = {name: statistics.median(t) for name, t in times.items()}
    return {"digests": digests, "metrics": metrics, "s": times}


def main(argv=None) -> int:
    return script_main(__file__, __doc__, run_child, argv, repeats=5)


if __name__ == "__main__":
    sys.exit(main())
