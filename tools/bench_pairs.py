"""Run bench/run.py on two trees in alternating pairs and compare them.

Usage:
    python3 tools/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S
                                 [--seconds X]

PARENT and CHANGE are two checkouts of the repository.  Each pair runs
``python3 bench/run.py --workload W --seed S`` once in each tree, as a
fresh process with the tree as its working directory; the even pairs run
PARENT first and the odd pairs CHANGE first, so that a drift in machine
speed falls on both sides alike.  --seconds is passed through when given,
and bench/run.py's own default applies otherwise.

For every end-to-end metric of BENCHMARK.json the report gives each
side's median and quartiles over the pairs, the median gap (CHANGE minus
PARENT), the parent's interquartile range, and how many pairs each side
won in the metric's better direction, after one line per pair with both
sides' values.  A verdict line per metric reads it against the metric's
bound b from BENCHMARK.json: "unresolved" when the parent's IQR exceeds
b times its median, so two runs of one tree can differ by more than the
bound, unless every CHANGE run beats every PARENT run; otherwise "worse"
when the median gap in the worse direction exceeds b times the parent's
median, and "within bound" when it does not.  The report then gives each
side's failed counts and whether the output digests of every run agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(tree: Path, args) -> dict:
    """One bench/run.py process in tree: its record and its metrics."""
    argv = [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed)]
    if args.seconds is not None:
        argv += ["--seconds", str(args.seconds)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: bench/run.py in {tree} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("record "))[7:])
    summary = json.loads(lines[-1])
    return {
        "failed": summary["failed"],
        "digests": record["digests"],
        "metrics": {name: m["value"] for name, m in summary["metrics"].items()},
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(parent: list[float], change: list[float], metric: dict) -> str:
    """The metric's verdict on the two sides' runs (see the module docstring)."""
    lower, bound = metric["better"] == "lower", metric["bound"]
    q1, median, q3 = quartiles(parent)
    beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
    if q3 - q1 > bound * median and not beats_all:
        return "unresolved"
    worse_gap = (quartiles(change)[1] - median) * (1 if lower else -1)
    return "worse" if worse_gap > bound * median else "within bound"


def report(runs: dict[str, list[dict]], metrics: list[dict]) -> list[str]:
    names = [metric["name"] for metric in metrics]
    lines = []
    for pair, (parent, change) in enumerate(zip(runs["parent"], runs["change"])):
        first = SIDES[pair % 2]
        values = ", ".join(
            f"{name} {parent['metrics'][name]:.5g}/{change['metrics'][name]:.5g}" for name in names
        )
        lines.append(f"pair {pair + 1} ({first} first), parent/change: {values}")
    lines.append(f"{'metric':<12} {'side':<7} {'median':>11} {'q1':>11} {'q3':>11} {'wins':>5}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [run["metrics"][name] for run in runs[side]] for side in SIDES}
        pairs = list(zip(values["parent"], values["change"]))
        wins = {
            "parent": sum((p < c) if lower else (p > c) for p, c in pairs),
            "change": sum((c < p) if lower else (c > p) for p, c in pairs),
        }
        for side in SIDES:
            q1, median, q3 = quartiles(values[side])
            lines.append(
                f"{name:<12} {side:<7} {median:>11.5g} {q1:>11.5g} {q3:>11.5g} "
                f"{wins[side]:>5}"
            )
        q1, parent_median, q3 = quartiles(values["parent"])
        gap = quartiles(values["change"])[1] - parent_median
        lines.append(
            f"{name:<12} gap {gap:+.5g} ({gap / parent_median:+.1%}), "
            f"parent IQR {q3 - q1:.5g}, {metric['better']} is better"
        )
        lines.append(
            f"{name:<12} verdict {verdict(values['parent'], values['change'], metric)} "
            f"(bound {metric['bound']:.0%})"
        )
    for side in SIDES:
        lines.append(f"failed {side}: {[run['failed'] for run in runs[side]]}")
    digests = {json.dumps(run["digests"], sort_keys=True) for side in SIDES for run in runs[side]}
    lines.append(f"digests match: {'yes' if len(digests) == 1 else 'no'}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "bench" / "run.py").is_file():
            parser.error(f"no bench/run.py under {tree}")
    benchmark = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for pair in range(args.pairs):
        for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_bench(trees[side], args))
        print(f"pair {pair + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    print(f"workload {args.workload}, seed {args.seed}, {args.pairs} pairs")
    for line in report(runs, benchmark["end_to_end"]):
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
