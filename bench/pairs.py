"""Run two checkouts in alternating pairs and judge every metric by one rule.

A pair starts one child process per side, ``parent`` and ``change``; the
side that goes first alternates between pairs. A child runs with its
checkout's root as working directory and that checkout's ``src`` as
``PYTHONPATH``. The last line of its standard output is its record, a JSON
object with ``digests``, which must equal the other side's in every pair,
and ``metrics``, one number per name, lower being better.

Each metric is summarized over the pairs:

* the median and quartiles of each side;
* ``wins``: the pairs in which the change reads lower, and ``losses``: those
  in which it reads higher; ties count for neither;
* ``gap_over_iqr``: the parent's median minus the change's, over the
  distance between the parent's quartiles (``None`` when that is 0);
* ``verdict``, the first that holds of:

  - ``claim met``: there are at least 10 pairs, the change wins at least
    nine tenths of them, and its median is lower than the parent's by more
    than the parent's interquartile range;
  - ``regression``: with a bound, the change's median exceeds the parent's
    by more than the bound, a fraction of the parent's median; with no
    bound, the parent meets the claim rule against the change;
  - ``unresolved``: with a bound, the interquartile range of either side is
    wider than the bound, and not every change run reads lower than every
    parent run;
  - ``no change``.

Run as a script, it pairs perfbench runs: the command of ``BENCHMARK.json``
with ``--workload W --seed S --seconds <its run_seconds> --trace 0``. Every
run must report ``failed`` 0. The metrics of a run are

* its end-to-end metrics, judged with the bounds of ``BENCHMARK.json``;
* ``call_s.<op>``: the median of each operation's calls in the run, since
  ``job_ref`` keeps only the fastest call;
* ``setup_s.fast_ref`` and ``setup_s.slow_ref``: when each round runs one
  operation (``experiment`` and ``community``), set-up ``i`` is timed next to
  reference probe ``i``, and these are the medians of the set-ups beside
  probes at or below the run's median probe time, and above it.

Run from the root of a checkout; it reads that checkout's ``BENCHMARK.json``:

    python3 bench/pairs.py --parent PARENT_DIR --change . \\
        --workload community --seed 0 --pairs 10 --out BENCH_tag.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SIDES = ("parent", "change")
MIN_PAIRS = 10  # fewer pairs support no claim either way


def last_line(stdout: str) -> dict:
    return json.loads(stdout.splitlines()[-1])


def run_pairs(parent, change, pairs: int, command: list[str], read=last_line) -> list[dict]:
    """Every child's record, with its ``pair`` and ``side``, in the order run."""
    roots = {"parent": Path(parent).resolve(), "change": Path(change).resolve()}
    runs = []
    for pair in range(pairs):
        digests = {}
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            env = dict(os.environ, PYTHONPATH=str(roots[side] / "src"))
            proc = subprocess.run(command, cwd=roots[side], env=env, capture_output=True, text=True)
            if proc.returncode:
                raise RuntimeError(f"pair {pair} {side}: exit {proc.returncode}\n{proc.stderr}")
            rec = read(proc.stdout)
            runs.append({"pair": pair, "side": side, **rec})
            digests[side] = rec["digests"]
            print(f"pair {pair} {side:<6} " + "  ".join(
                f"{name} {value:.6g}" for name, value in rec["metrics"].items()), flush=True)
        if digests["parent"] != digests["change"]:
            raise RuntimeError(f"pair {pair}: the digests differ between the sides")
    return runs


def judge(parent: list[float], change: list[float], bound: float | None = None) -> dict:
    """One metric's summary; ``parent[i]`` and ``change[i]`` are pair ``i``."""
    quart = {side: np.percentile(v, [25, 50, 75]) for side, v in zip(SIDES, (parent, change))}
    (p1, pm, p3), (c1, cm, c3) = quart["parent"], quart["change"]
    wins = sum(c < p for p, c in zip(parent, change))
    losses = sum(c > p for p, c in zip(parent, change))
    enough, need = len(parent) >= MIN_PAIRS, 0.9 * len(parent)
    if enough and wins >= need and pm - cm > p3 - p1:
        said = "claim met"
    elif bound is None:
        said = "regression" if enough and losses >= need and cm - pm > p3 - p1 else "no change"
    elif cm - pm > bound * pm:
        said = "regression"
    elif max(p3 - p1, c3 - c1) > bound * pm and not max(change) < min(parent):
        said = "unresolved"
    else:
        said = "no change"
    return {
        **{side: {"median": q[1], "q1": q[0], "q3": q[2]} for side, q in quart.items()},
        "pairs": len(parent),
        "wins": wins,
        "losses": losses,
        "change_over_parent": cm / pm if pm else None,
        "gap_over_iqr": (pm - cm) / (p3 - p1) if p3 > p1 else None,
        "bound": bound,
        "verdict": said,
    }


def summarize(runs: list[dict], bounds: dict) -> dict:
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}  # in pair order
    return {
        name: judge(*([float(r["metrics"][name]) for r in by_side[side]] for side in SIDES),
                      bounds.get(name))
        for name in runs[0]["metrics"]
    }


def compare(parent, change, pairs: int, child: list[str], out, read=last_line,
            bounds=None, **settings) -> dict:
    """Run the pairs, print each metric's summary and save every run in ``out``."""
    runs = run_pairs(parent, change, pairs, child, read)
    summary = summarize(runs, bounds or {})
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        print(f"{name:<32} parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]  "
              f"change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]  "
              f"wins {s['wins']}/{s['pairs']}  {s['verdict']}")
    record = {
        "machine": {"python": platform.python_version(), "nproc": os.cpu_count(),
                    "affinity": sorted(os.sched_getaffinity(0))},
        "pairs": pairs,
        **settings,
        "summary": summary,
        "runs": runs,
    }
    Path(out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return record


def script_main(script, doc, run_child, argv=None, **options) -> int:
    """The command line of a script that times its own child in both checkouts.

    ``--child`` prints ``run_child(**options)`` as JSON; without it, the
    script runs itself with ``--child`` in alternating pairs. Each option is
    an integer with the given default, passed on to the child.
    """
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--parent", help="root of the parent checkout")
    parser.add_argument("--change", help="root of the changed checkout")
    parser.add_argument("--out")
    parser.add_argument("--pairs", type=int, default=10)
    for name, default in options.items():
        parser.add_argument(f"--{name}", type=int, default=default)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    settings = {name: getattr(args, name) for name in options}
    if args.child:
        print(json.dumps(run_child(**settings)))
        return 0
    if not (args.parent and args.change and args.out):
        parser.error("--parent, --change and --out are required")
    command = [sys.executable, str(Path(script).resolve()), "--child",
               *(arg for name, value in settings.items() for arg in (f"--{name}", str(value)))]
    compare(args.parent, args.change, args.pairs, command, args.out, **settings)
    return 0


def read_perfbench(stdout: str) -> dict:
    """A perfbench run's digests and metrics, with its result line and run record."""
    *_, line, last = stdout.splitlines()
    record, result = json.loads(line), json.loads(last)
    if result["failed"]:
        raise RuntimeError(
            f"a perfbench run failed {result['failed']} of {result['attempted']} operations")
    calls = record["call_s"]
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    for name, values in calls.items():
        if name not in ("setup", "reference"):
            metrics[f"call_s.{name}"] = statistics.median(values)
    setups, refs = calls["setup"], calls["reference"]
    if len(refs) <= len(setups) + 1:  # one reference probe, so one operation, per round
        cut = statistics.median(refs[: len(setups)])
        for name, keep in (("fast_ref", lambda t: t <= cut), ("slow_ref", lambda t: t > cut)):
            beside = [s for s, t in zip(setups, refs) if keep(t)]
            metrics[f"setup_s.{name}"] = statistics.median(beside) if beside else float("nan")
    return {"digests": record["digests"], "metrics": metrics, "result": result, "record": record}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="root of the parent checkout")
    parser.add_argument("--change", required=True, help="root of the changed checkout")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    bench = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    command = [*bench["command"], "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    compare(args.parent, args.change, args.pairs, command, args.out, read_perfbench, bounds,
            command=" ".join(command), workload=args.workload, seed=args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
