"""The paired-run driver of ``bench/pairs.py``: its decision rule on fixed
numbers, and its loop on a stub child; no benchmark run."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("pairs", ROOT / "bench" / "pairs.py")
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [10.0 + 0.01 * i for i in range(10)]  # quartiles 10.0225 and 10.0675


def test_claim_is_met_at_nine_of_ten_wins_with_the_gap_above_the_iqr():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3] + 0.5
    s = pairs.judge(PARENT, change)
    assert (s["wins"], s["losses"]) == (9, 1)
    assert s["gap_over_iqr"] > 1
    assert s["verdict"] == "claim met"


def test_fewer_than_ten_pairs_support_no_claim():
    change = [p - 1.0 for p in PARENT]
    assert pairs.judge(PARENT[:9], change[:9])["verdict"] == "no change"
    assert pairs.judge(change[:9], PARENT[:9])["verdict"] == "no change"


def test_claim_is_not_met_at_eight_of_ten_wins():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3] + 0.5
    change[7] = PARENT[7] + 0.5
    s = pairs.judge(PARENT, change)
    assert s["wins"] == 8 and s["gap_over_iqr"] > 1
    assert s["verdict"] == "no change"
    assert pairs.judge(PARENT, change, bound=0.25)["verdict"] == "no change"


def test_ties_count_for_neither_side():
    change = [p - 1.0 for p in PARENT]
    change[3] = PARENT[3]
    s = pairs.judge(PARENT, change)
    assert (s["wins"], s["losses"]) == (9, 0)
    assert s["verdict"] == "claim met"
    change[7] = PARENT[7]
    s = pairs.judge(PARENT, change)
    assert (s["wins"], s["losses"]) == (8, 0)
    assert s["verdict"] == "no change"


def test_a_gap_inside_the_parents_iqr_is_no_claim():
    # 10 of 10 wins, but the medians differ by less than the parent's spread
    change = [p - 0.01 for p in PARENT]
    s = pairs.judge(PARENT, change)
    assert s["wins"] == 10 and s["gap_over_iqr"] < 1
    assert s["verdict"] == "no change"


def test_regression_is_judged_against_the_bound_or_by_the_mirrored_claim_rule():
    worse = [p * 1.3 for p in PARENT]
    assert pairs.judge(PARENT, worse, bound=0.25)["verdict"] == "regression"
    assert pairs.judge(PARENT, worse)["verdict"] == "regression"
    slightly = [p * 1.1 for p in PARENT]
    assert pairs.judge(PARENT, slightly, bound=0.25)["verdict"] == "no change"


def test_a_spread_wider_than_the_bound_is_unresolved_unless_every_change_run_is_better():
    parent = [10.0] * 5 + [20.0] * 5  # median 15, IQR 10: wider than 0.25 * 15
    mixed = [10.5] * 5 + [19.0] * 5
    assert pairs.judge(parent, mixed, bound=0.25)["verdict"] == "unresolved"
    below = [9.0] * 5 + [9.9] * 5  # every change run under every parent run
    s = pairs.judge(parent, below, bound=0.25)
    assert s["wins"] == 10 and s["gap_over_iqr"] < 1
    assert s["verdict"] == "no change"
    # without a bound there is no spread to compare with
    assert pairs.judge(parent, mixed)["verdict"] == "no change"


STUB = """
import json, os, sys
from pathlib import Path
print("noise before the record")
print(json.dumps({
    "digests": {"out": Path("digest.txt").read_text()},
    "metrics": {"t": 1.0},
    "cwd": os.getcwd(),
    "path": os.environ["PYTHONPATH"],
}))
"""


def checkouts(tmp_path, digests):
    roots = []
    for name, digest in zip(("parent", "change"), digests):
        root = tmp_path / name
        (root / "src").mkdir(parents=True)
        (root / "digest.txt").write_text(digest)
        roots.append(root)
    stub = tmp_path / "stub.py"
    stub.write_text(STUB)
    return roots, [sys.executable, str(stub)]


def test_the_loop_alternates_the_first_side_and_runs_each_side_in_its_checkout(tmp_path):
    (parent, change), command = checkouts(tmp_path, ("a", "a"))
    out = tmp_path / "record.json"
    record = pairs.compare(parent, change, 4, command, out, setting=3)
    runs = record["runs"]
    assert [r["side"] for r in runs] == ["parent", "change", "change", "parent"] * 2
    assert [r["pair"] for r in runs] == [0, 0, 1, 1, 2, 2, 3, 3]
    for r in runs:
        root = {"parent": parent, "change": change}[r["side"]]
        assert Path(r["cwd"]) == root.resolve()
        assert r["path"] == str(root.resolve() / "src")
    assert record["summary"]["t"]["verdict"] == "no change"
    assert json.loads(out.read_text())["setting"] == 3


def test_the_loop_stops_when_the_digests_differ(tmp_path):
    (parent, change), command = checkouts(tmp_path, ("a", "b"))
    with pytest.raises(RuntimeError, match="pair 0: the digests differ"):
        pairs.run_pairs(parent, change, 2, command)


def perfbench_stdout(setups, refs, failed=0):
    record = {"digests": {"x": 1}, "call_s": {"setup": setups, "reference": refs, "op": [3.0, 1.0, 2.0]}}
    metrics = {"job_ref": {"value": 5.0, "unit": "ref"}}
    result = {"correct": not failed, "attempted": 3, "failed": failed, "metrics": metrics}
    return "table\n" + json.dumps(record) + "\n" + json.dumps(result) + "\n"


def test_a_perfbench_run_reports_median_calls_and_setups_split_by_the_probe_beside_them():
    got = pairs.read_perfbench(perfbench_stdout([1.0, 4.0, 2.0, 5.0], [0.1, 0.3, 0.1, 0.3, 0.2]))
    assert got["metrics"] == {
        "job_ref": 5.0, "call_s.op": 2.0, "setup_s.fast_ref": 1.5, "setup_s.slow_ref": 4.5,
    }
    # several operations per round: no probe sits next to a set-up
    got = pairs.read_perfbench(perfbench_stdout([1.0], [0.1, 0.3, 0.1]))
    assert "setup_s.fast_ref" not in got["metrics"]
    with pytest.raises(RuntimeError, match="failed 1 of 3"):
        pairs.read_perfbench(perfbench_stdout([1.0], [0.1], failed=1))


FAKE_PERFBENCH = """
import json
print("table")
record = {"digests": {"x": 1}, "call_s": {"setup": [1.0, 2.0], "reference": [0.1, 0.2], "op": [3.0, 1.0]}}
print(json.dumps(record))
metrics = {"job_ref": {"value": 5.0, "unit": "ref"}}
print(json.dumps({"correct": True, "attempted": 2, "failed": 0, "metrics": metrics}))
"""


def test_the_command_line_pairs_perfbench_runs_with_the_benchmarks_bounds(tmp_path, capsys):
    roots = []
    for name in ("parent", "change"):
        (tmp_path / name / "perfbench").mkdir(parents=True)
        (tmp_path / name / "perfbench" / "run.py").write_text(FAKE_PERFBENCH)
        roots.append(str(tmp_path / name))
    out = tmp_path / "BENCH_x.json"
    args = ["--parent", roots[0], "--change", roots[1], "--workload", "community", "--seed", "0",
            "--pairs", "2", "--out", str(out)]
    assert pairs.main(args) == 0
    record = json.loads(out.read_text())
    assert record["command"] == "python3 perfbench/run.py --workload community --seed 0 --seconds 30 --trace 0"
    assert record["summary"]["job_ref"]["bound"] == 0.25
    assert record["summary"]["call_s.op"]["parent"]["median"] == 2.0
    assert len(record["runs"]) == 4 and record["runs"][0]["result"]["failed"] == 0
    assert "job_ref" in capsys.readouterr().out
