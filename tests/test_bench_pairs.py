"""The pair runner in tools/bench_pairs.py, on stub trees."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "op_p50_s", "better": "lower", "bound": 0.25},
]

# A bench/run.py that logs its tree and prints a record line and a summary
# line, reading its metrics off the number of runs already logged: the
# rate grows by SPREAD per earlier run.  It attempts 100 operations, and
# its check passes only while it fails at most 2 of them.
STUB = """\
import json, sys
from pathlib import Path
log = Path(__file__).resolve().parents[2] / "order.log"
runs = log.read_text().split() if log.exists() else []
log.write_text(" ".join(runs + [Path.cwd().name]))
rate = {RATE} + {SPREAD} * len(runs)
print("record " + json.dumps({{"digests": {{"canonical-matrix": "{DIGEST}"}}}}))
metrics = {{"ops_per_s": {{"value": rate}}, "op_p50_s": {{"value": 1 / rate}}}}
summary = {{"correct": {FAILED} <= 2, "attempted": 100, "failed": {FAILED}}}
print(json.dumps({{**summary, "metrics": metrics}}))
"""


def make_tree(
    root: Path, name: str, rate: int, digest: str, failed: int, spread: int = 1
) -> Path:
    tree = root / name
    (tree / "bench").mkdir(parents=True)
    (tree / "bench" / "run.py").write_text(
        STUB.format(RATE=rate, SPREAD=spread, DIGEST=digest, FAILED=failed), encoding="utf-8"
    )
    (tree / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}), encoding="utf-8")
    return tree


def test_pairs_alternate_which_tree_runs_first(tmp_path, capsys):
    parent = make_tree(tmp_path, "parent", 100, "same", 2)
    change = make_tree(tmp_path, "change", 200, "same", 2)
    args = [str(parent), str(change), "--workload", "exact-deep", "--pairs", "3", "--seed", "5"]
    assert bench_pairs.main(args) == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent", "parent", "change"]
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "workload exact-deep, seed 5, 3 pairs"
    assert out[1].startswith("pair 1 (parent first), parent/change: ops_per_s 100/201")
    assert out[2].startswith("pair 2 (change first)")
    rows = {tuple(line.split()[:2]): line.split() for line in out}
    assert rows[("op_p50_s", "parent")][-1] == "0" and rows[("op_p50_s", "change")][-1] == "3"
    assert "failed parent: [2/100, 2/100, 2/100], 6/300 (2.0%) overall" in out
    assert "digests match: yes" in out
    assert "ops_per_s    verdict within bound (bound 25%)" in out


# (parent rate, change rate, spread): the parent runs read rates
# R, R + 3s and R + 4s, the change runs R' + s, R' + 2s and R' + 5s
@pytest.mark.parametrize(
    "rates, expected",
    [
        ((100, 200, 1), "within bound"),  # the change is faster
        ((100, 90, 1), "within bound"),  # about 10% slower, inside the 25% bound
        ((200, 100, 1), "worse"),  # about half the rate
        ((10, 10, 10), "unresolved"),  # parent 10, 40, 50: IQR 20 of median 40
        ((10, 1000, 10), "within bound"),  # as wide, but every change run is faster
    ],
)
def test_verdicts_read_the_gap_and_the_parent_spread_against_the_bound(
    tmp_path, capsys, rates, expected
):
    parent_rate, change_rate, spread = rates
    parent = make_tree(tmp_path, "parent", parent_rate, "same", 0, spread)
    change = make_tree(tmp_path, "change", change_rate, "same", 0, spread)
    args = [str(parent), str(change), "--workload", "cli-mix", "--pairs", "3", "--seed", "0"]
    assert bench_pairs.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    for name in ("ops_per_s", "op_p50_s"):
        assert f"{name:<12} verdict {expected} (bound 25%)" in out, out


def test_report_counts_wins_ties_and_digest_mismatch():
    def run(rate, digest="a"):
        return {"correct": True, "attempted": 8, "failed": 0, "digests": {"d": digest},
                "metrics": {"ops_per_s": rate, "op_p50_s": 1 / rate}}

    runs = {"parent": [run(10), run(10), run(12)], "change": [run(10), run(11, "b"), run(11)]}
    lines = bench_pairs.report(runs, METRICS)
    rows = {tuple(line.split()[:2]): line.split() for line in lines}
    # the tie counts for neither side
    assert rows[("ops_per_s", "parent")][-1] == "1" and rows[("ops_per_s", "change")][-1] == "1"
    assert rows[("ops_per_s", "parent")][2:5] == ["10", "10", "11"]  # median, q1, q3
    assert "ops_per_s    gap +1 (+10.0%), parent IQR 1, higher is better" in lines
    assert lines[-1] == "digests match: no"


def test_report_gives_the_failed_share_and_marks_incorrect_runs(tmp_path, capsys):
    parent = make_tree(tmp_path, "parent", 100, "same", 2)
    change = make_tree(tmp_path, "change", 100, "same", 5)
    args = [str(parent), str(change), "--workload", "float-sweep", "--pairs", "2", "--seed", "0"]
    assert bench_pairs.main(args) == 0
    out = capsys.readouterr().out.splitlines()
    assert "failed parent: [2/100, 2/100], 4/200 (2.0%) overall" in out
    assert "failed change: [5/100 incorrect, 5/100 incorrect], 10/200 (5.0%) overall" in out
