"""netsample benchmark: one workload per process, closed loop, one thread.

Run from the root of a checkout:

    python3 perfbench/run.py --workload crawl --seed 0 --seconds 30 --trace 0

The workloads (see ``workloads.py``) are ``crawl``, ``experiment`` and
``community``. Each runs in its own process, single-threaded, in a closed
loop: every call starts when the previous one has returned.

``--trace 0`` runs rounds of operations back to back until ``--seconds``
have passed, setting the workload up again before each round; the first
round always runs in full. Each round draws fresh inputs from the seed. It
reports the end-to-end metrics:

* ``setup_s``: median over the run's set-ups;
* ``job_ref``: one pass of the workload's job, ``job_s``, in units of
  ``Reference``, a fixed computation timed before every operation: ``job_s``
  divided by the run's fastest reference time;
* ``peak_rss_mb``: peak resident memory of the process.

``job_s`` is the sum over the workload's operations of each operation's
fastest call in the run (+inf if any call failed). It is printed with the
per-operation table and reported by the traced run.

``--trace 1`` sets up once, then runs rounds in which every operation runs
untraced and then traced on the same input. It reports the per-layer
metrics of ``layers.py`` and ``trace.overhead_frac`` (traced over untraced
round time, minus 1).
Outputs are checked in both modes; a failed check is a failed operation.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it is
the run record: machine, versions, seed, load averages and output digests.
"""

from __future__ import annotations

import os

# one BLAS thread: pinned before numpy is imported
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import math
import platform
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

from spans import Tracer, clock, selftest_self_times

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORKDIR = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("crawl", "experiment", "community")
END_TO_END = [("setup_s", "s"), ("job_ref", "ref"), ("peak_rss_mb", "MB")]


def import_netsample():
    """Import netsample from ``src/`` of the checkout, and from nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "netsample" / "__init__.py").is_file():
        raise SystemExit(f"error: no netsample sources under {src}; run from a checkout root")
    sys.path.insert(0, str(src))
    import netsample

    if Path(netsample.__file__).resolve().parent.parent != src:
        raise SystemExit(f"error: imported netsample from {netsample.__file__}, not {src}")
    return netsample


class Runner:
    """Executes operations, times them and counts failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def execute(self, op) -> float:
        """Seconds the call took, or +inf if it raised or failed its check."""
        from workloads import CheckFailed

        self.attempted += 1
        gc.collect()
        t0 = clock()
        try:
            out = op.call()
        except Exception:  # any raise is a failed operation; keep measuring
            self.fail(op.name, traceback.format_exc(limit=3))
            return math.inf
        elapsed = clock() - t0
        try:
            op.check(out)
        except CheckFailed as exc:
            self.fail(op.name, str(exc))
            return math.inf
        return elapsed

    def fail(self, name: str, message: str) -> None:
        self.failed += 1
        self.failures.append(f"{name}: {message}")


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def fastest(values) -> float:
    """An operation's time in a run: its fastest call, +inf if any call failed.

    The machine this was tuned on ran up to 2x slower for stretches of
    seconds to minutes, and some experiment inputs hold stuck crawls that cost
    seconds more; the fastest of the run's calls moved least with either.
    """
    if not values:
        return 0.0
    return math.inf if math.inf in values else min(values)


def timed(fn) -> float:
    gc.collect()
    t0 = clock()
    fn()
    return clock() - t0


class Reference:
    """A fixed mix of interpreter, numpy and sparse work: the machine's speed.

    On the 2-core VM this was tuned on, machine speed swung by up to 2x over
    seconds to minutes. The fastest reference time of a run measures the
    machine at its fastest in that run, as the fastest calls do; in four sets
    of six to ten seeds, dividing ``job_s`` by it cut the spread over seeds
    1.2-2.3x.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp

        rng = np.random.default_rng(0)
        self.values = rng.random(200_000)
        self.matrix = sp.random(50_000, 50_000, density=2e-4, random_state=rng, format="csr")
        self.vector = np.ones(50_000)

    def __call__(self) -> float:
        import numpy as np

        t0 = clock()
        sums: dict[int, int] = {}
        for i in range(100_000):
            sums[i % 997] = sums.get(i % 997, 0) + i
        np.sort(self.values)
        for _ in range(15):
            self.matrix @ self.vector
        return clock() - t0


def run_untraced(wl, runner: Runner, seconds: float, table: dict) -> dict:
    """Set-up before every round, so set-up and operations see the same run."""
    reference = Reference()
    setup = [timed(wl.setup)]
    for op in wl.warmup_ops():
        table[f"first_call.{op.name}"] = [runner.execute(op)]
    deadline = clock() + seconds
    per_op: dict[str, list[float]] = {}
    refs = []
    r = 0
    while r == 0 or clock() < deadline:
        if r:
            setup.append(timed(wl.setup))
        for op in wl.round_ops(r):
            if r and clock() >= deadline:
                break
            refs.append(reference())
            per_op.setdefault(op.name, []).append(runner.execute(op))
        r += 1
    refs.append(reference())
    table["setup"] = setup
    table["reference"] = refs
    table.update(per_op)
    job_s = sum(fastest(v) for v in per_op.values())
    return {"setup_s": median(setup), "job_s": job_s, "job_ref": job_s / min(refs)}


def run_traced(wl, runner: Runner, seconds: float, table: dict) -> dict:
    """One set-up, then rounds in which each operation runs untraced, then traced.

    The two calls of a pair get the same input and run back to back, so a
    change in machine speed between them stays small.
    """
    import layers

    for problem in selftest_self_times():
        runner.fail("selftest", problem)
    tracer = Tracer()
    setup_summary, setup_counters = {}, {}
    if wl.setup_is_input:
        patcher = layers.install(tracer)
        try:
            wl.setup()
        finally:
            patcher.restore()
        setup_summary, setup_counters = tracer.summary(), dict(tracer.counters)
    else:
        wl.setup()
    first = {op.name: runner.execute(op) for op in wl.warmup_ops()}
    deadline = clock() + seconds
    untraced, traced, rounds = [], [], []
    r = 0
    while r == 0 or clock() < deadline:
        tracer.counters = dict(setup_counters)
        tracer.check_failures = []
        mark = tracer.mark()
        plain, with_trace = {}, {}
        for op, op_again in zip(wl.round_ops(r), wl.round_ops(r)):
            plain[op.name] = runner.execute(op)
            patcher = layers.install(tracer)
            wl.tracer = tracer
            try:
                with_trace[op.name] = runner.execute(op_again)
            finally:
                wl.tracer = None
                patcher.restore()
            for name in patcher.unrestored():
                runner.fail("selftest", f"{name} still wrapped after a traced call")
        for problem in tracer.check_failures:
            runner.fail("traced-check", problem)
        summary = merge(setup_summary, tracer.summary(mark))
        rounds.append(layers.layer_values(summary, tracer.counters))
        untraced.append(plain)
        traced.append(with_trace)
        r += 1
    WORKDIR.mkdir(exist_ok=True)
    tracer.save(WORKDIR / f"{wl.name}-seed{wl.seed}-spans.npz")

    values = {}
    for name, unit, better, kind in layers.PER_LAYER:
        if name in rounds[0]:
            per_round = [rnd[name] for rnd in rounds]
            values[name] = median(per_round) if kind == "time" else per_round[0]
    for name in layers.OPERATIONS:
        values[name] = fastest([rnd[name] for rnd in untraced if name in rnd])
    values["job_s"] = sum(values[name] for name in layers.OPERATIONS)
    for s in layers.CRAWL_SAMPLERS:
        values[f"samplers.{s}.first_call.s"] = first.get(f"sample_s.{s}", 0.0)
    values["trace.overhead_frac"] = median(
        [sum(t.values()) / sum(u.values()) - 1.0 for t, u in zip(traced, untraced)]
    )
    for name, vals in (("untraced", untraced), ("traced", traced)):
        for rnd in vals:
            for op, t in rnd.items():
                table.setdefault(f"{name}.{op}", []).append(t)
    return values


def merge(a: dict, b: dict) -> dict:
    out = {k: dict(v) for k, v in a.items()}
    for name, rec in b.items():
        if name in out:
            out[name] = {key: out[name][key] + rec[key] for key in rec}
        else:
            out[name] = dict(rec)
    return out


def run_record(args, load_start, digests, versions, table) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        **versions,
        "loadavg_start": load_start,
        "loadavg_end": list(os.getloadavg()),
        "digests": digests,
        "call_s": table,
    }


def print_table(table: dict, metrics: dict) -> None:
    for name, vals in table.items():
        finite = [v for v in vals if math.isfinite(v)]
        print(
            f"  {name:<40} min {min(finite, default=math.inf):9.4f} s  "
            f"median {median(vals):9.4f} s  n={len(vals)}"
        )
    for name, rec in metrics.items():
        print(f"  {name:<40} {rec['value']:.6g} {rec['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = list(os.getloadavg())
    netsample = import_netsample()
    import numpy
    import scipy

    import layers
    from workloads import WORKLOADS

    golden = json.loads((HERE / "golden.json").read_text())
    tmp = WORKDIR / f"tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    wl = WORKLOADS[args.workload](args.seed, tmp, golden.get(args.workload, {}))
    runner = Runner()
    table: dict[str, list[float]] = {}
    try:
        if args.trace:
            values = run_traced(wl, runner, args.seconds, table)
            metrics = {
                name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit, _, _ in layers.PER_LAYER
            }
        else:
            values = run_untraced(wl, runner, args.seconds, table)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
            print(f"job_s {values['job_s']:.6g} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    versions = {"netsample": netsample.__version__, "numpy": numpy.__version__, "scipy": scipy.__version__}
    print(f"{args.workload} seed={args.seed} failed_frac={runner.failed / max(runner.attempted, 1):.4g}")
    print_table(table, metrics)
    print(json.dumps(run_record(args, load_start, wl.digests, versions, table), sort_keys=True))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
