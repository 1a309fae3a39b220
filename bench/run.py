"""Benchmark of the tanfam working tree: three workloads, each in its own process.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

--seconds defaults to run_seconds in BENCHMARK.json, the run length the
bounds there were measured at.

Without --workload, each of the three workloads runs in a fresh process
one after another.  With it, this process runs that workload: it sets
up (imports tanfam from ./src, makes the seeded inputs, warms up), then
repeats whole rounds of the workload's operations for about --seconds
of wall time, timing each operation alone.  It then reads its
peak resident set, measures set-up time as the median of several fresh
set-up processes, checks every output against the oracle and prints a
record line and, last, one JSON object: correct, attempted, failed and
the metrics.  With --trace 1 it alternates untraced rounds with rounds
run under span wrappers and reports per-layer metrics and the tracing
overhead instead of the end-to-end metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("exact-deep", "float-sweep", "cli-mix")
SETUP_PROBES = 11
P90_MIN_OPS = 100  # so that at least ten samples lie beyond the 90th percentile


def build_workload(name: str, seed: int, scratch: Path):
    if name == "exact-deep":
        from exact import exact_deep

        return exact_deep(seed)
    if name == "float-sweep":
        from floatsweep import float_sweep

        return float_sweep(seed, scratch)
    from climix import cli_mix

    return cli_mix(seed, scratch)


@dataclass(frozen=True)
class Raised:
    """Captured in place of an output when the operation raised."""

    error: str


def run_round(workload, ctx: dict, latencies: list, captured: list) -> None:
    """One round, timing each operation; outputs are appended to captured.

    An output equal to the first round's is appended as that same object,
    so that repeated rounds neither grow this process's memory (and with
    it peak_rss_mb) nor repeat identical checks.
    """
    repeat = len(captured) >= len(workload.ops)
    for index, op in enumerate(workload.ops):
        start = time.perf_counter()
        try:
            result = op.call(ctx)
        except Exception as exc:  # a raising operation is a failed one, not a crash
            latencies.append(time.perf_counter() - start)
            captured.append(Raised(repr(exc)))
            continue
        latencies.append(time.perf_counter() - start)
        got = op.capture(result)
        del result
        if repeat:
            try:
                if bool(got == captured[index]):
                    got = captured[index]
            except ValueError:  # numpy arrays compare elementwise
                pass
        captured.append(got)


def run_rounds(workload, seconds: float):
    """Whole untraced rounds for about `seconds`: at least one, and no
    further round once the next would likely end past 1.25 x `seconds`,
    so that long rounds do not double a run.

    Returns all latencies and all captured outputs.
    """
    latencies: list[float] = []
    captured: list = []
    start = time.perf_counter()
    last = None
    while last is None or time.perf_counter() - start + last <= 1.25 * seconds:
        begin = time.perf_counter()
        run_round(workload, {"traced": False, "cli_exports": []}, latencies, captured)
        last = time.perf_counter() - begin
    return latencies, captured


def check_all(workload, captured: list) -> tuple[int, list[str], bool]:
    """Failed count, the first reasons, and whether every failure was the
    documented fault of a known-fault operation."""
    failed = 0
    reasons: list[str] = []
    only_known = True
    ops = workload.ops
    seen: dict[tuple[int, int], str | None] = {}  # outputs shared across rounds
    for index, got in enumerate(captured):
        op = ops[index % len(ops)]
        key = (index % len(ops), id(got))
        if key in seen:
            reason = seen[key]
        elif isinstance(got, Raised):
            reason = f"raised {got.error}"
        else:
            try:
                reason = op.check(got)
            except Exception as exc:  # a malformed output can break a check
                reason = f"check raised {exc!r}"
        seen[key] = reason
        if reason:
            failed += 1
            only_known = only_known and reason == op.known_fault
            if len(reasons) < 5 and f"{op.kind}: {reason}" not in reasons:
                reasons.append(f"{op.kind}: {reason}")
    return failed, reasons, only_known


def digests(workload, captured: list) -> dict[str, str]:
    out: dict = {}
    for op, got in zip(workload.ops, captured):
        if op.digest is None or isinstance(got, Raised):
            continue
        kind, to_bytes = op.digest
        out.setdefault(kind, hashlib.sha256()).update(to_bytes(got))
    return {kind: h.hexdigest() for kind, h in sorted(out.items())}


def setup_probe_times(name: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
             "--probe-setup"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        )
        line = proc.stdout.readline()
        times.append(time.perf_counter() - start)
        proc.stdout.read()
        if proc.wait(timeout=170) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
    return times


def machine_record() -> dict:
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    versions = {}
    for package in ("numpy", "sympy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            commit = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tanfam").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # Linux reports KiB


def run_workload(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import tanfam

    if Path(tanfam.__file__).resolve().parent != (ROOT / "src" / "tanfam").resolve():
        print(f"error: tanfam imported from {tanfam.__file__}, not the working tree",
              file=sys.stderr)
        return 2
    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = build_workload(args.workload, args.seed, scratch)
        workload.warmup()
        if args.probe_setup:
            print("ready", flush=True)
            return 0
        return measure(args, workload, tanfam.__file__)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def traced_pairs(workload, seconds: float):
    """Pairs of one untraced and one traced round, in alternating order
    (ABBA), at least two pairs and until `seconds` have passed, so that
    drift in machine speed and first-round costs fall on both alike.
    Per-layer totals come from the traced rounds, the overhead from the
    difference."""
    from tracing import LAYER_METRICS, Tracer, layer_totals

    tracer = Tracer()
    plain: list[float] = []
    traced: list[float] = []
    captured: list = []
    exports: list = []
    start = time.perf_counter()
    pairs = 0
    while pairs < 2 or time.perf_counter() - start < seconds:
        for with_spans in ((False, True) if pairs % 2 == 0 else (True, False)):
            if with_spans:
                tracer.install()
            try:
                run_round(workload, {"traced": with_spans, "cli_exports": exports},
                          traced if with_spans else plain, captured)
            finally:
                tracer.uninstall()
        pairs += 1
    spans = exports if workload.name == "cli-mix" else [tracer.export()]
    metrics = {name: {"value": value, "unit": LAYER_METRICS[name]}
               for name, value in layer_totals(spans).items()}
    overhead = sum(traced) - sum(plain)
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    metrics["trace.overhead_ratio"] = {"value": overhead / sum(plain), "unit": "ratio"}
    return metrics, plain + traced, captured


def measure(args, workload, tanfam_file: str) -> int:
    if args.trace:
        metrics, latencies, captured = traced_pairs(workload, args.seconds)
    else:
        latencies, captured = run_rounds(workload, args.seconds)
        rss = peak_rss_mb(children=workload.name == "cli-mix")
        setup = setup_probe_times(workload.name, args.seed)
        metrics = {
            "ops_per_s": {"value": len(latencies) / sum(latencies), "unit": "op/s"},
            "op_p50_s": {"value": statistics.median(latencies), "unit": "s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    rounds = len(captured) // len(workload.ops)
    check_start = time.perf_counter()
    failed, reasons, only_known = check_all(workload, captured)
    check_s = time.perf_counter() - check_start
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(),
        "tanfam_file": tanfam_file,
        "inputs": workload.inputs,
        "rounds": rounds,
        "ops_per_round": len(workload.ops),
        "attempted": len(captured),
        "failed": failed,
        "failures": reasons,
        "digests": digests(workload, captured[: len(workload.ops)]),
        "timed_ops": len(latencies),
        "timed_s": sum(latencies),
        "check_s": check_s,
    }
    if not args.trace:
        record["setup_probes_s"] = setup
        if len(latencies) >= P90_MIN_OPS:
            record["op_p90_s"] = statistics.quantiles(latencies, n=10)[8]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**record, "metrics": metrics}, indent=1, sort_keys=True), encoding="utf-8")
    print("record " + json.dumps(record, sort_keys=True))
    for name, metric in metrics.items():
        print(f"{workload.name} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"correct": only_known, "attempted": len(captured), "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process; a summary object last."""
    summary = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900,
        )
        lines = proc.stdout.strip().splitlines()
        for line in lines[:-1]:
            if not line.startswith("record "):
                print(line)
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        summary[name] = json.loads(lines[-1])
        print(f"{name}: attempted {summary[name]['attempted']}, failed {summary[name]['failed']}, "
              f"correct {summary[name]['correct']}")
    print(json.dumps(summary))
    return 0 if all(result["correct"] for result in summary.values()) else 3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "tanfam" / "__init__.py").is_file():
        print(f"error: no tanfam source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
