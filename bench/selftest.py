"""Self-test of the output checks: plant wrong outputs, expect failures.

    python3 bench/selftest.py

Runs a few real operations from the workloads, confirms their true
outputs pass the checks, then plants one wrong output each (a
codimension off by one, a flipped block verdict, a cusp count off by 2,
a payload holding -Infinity, a wrong exit code) and confirms every
planted output is counted as failed.  It also plants two outputs of the
known-fault call `envelope --domain inf`: its documented symptom must be
counted as failed with the run still correct, and a traceback must make
the run incorrect.  Exits 0 only if all of that holds.
"""

from __future__ import annotations

import dataclasses
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from run import check_all  # noqa: E402
from common import Workload  # noqa: E402


def first_op(workload, kind: str):
    return next(op for op in workload.ops if op.kind == kind)


def real_capture(workload, op, ctx, start=None):
    """Run the workload's ops (from the op start) up to and including op;
    return op's capture."""
    ops = workload.ops
    if start is not None:
        ops = ops[ops.index(start):]
    for other in ops:
        result = other.call(ctx)
        if other is op:
            return op.capture(result)
    raise LookupError(op.kind)


def counted_failed(op, captured) -> bool:
    failed, _, _ = check_all(Workload("selftest", [op], lambda: None), [captured])
    return failed == 1


def run_stays_correct(op, captured) -> bool:
    _, _, only_known = check_all(Workload("selftest", [op], lambda: None), [captured])
    return only_known


def main() -> int:
    from climix import cli_mix
    from exact import exact_deep
    from floatsweep import float_sweep

    scratch = ROOT / ".bench_tmp" / "selftest"
    scratch.mkdir(parents=True, exist_ok=True)
    cases = []
    try:
        deep = exact_deep(0)
        deep.ops = deep.ops[:9]  # the first germ at orders 7 and 8 is enough
        ctx: dict = {}
        build = first_op(deep, "build")
        got = real_capture(deep, build, ctx)
        rank, codim, dim = got
        cases.append(("codimension off by one", build, got, (rank, codim + 1, dim)))
        block = first_op(deep, "block")
        got = real_capture(deep, block, ctx)
        cases.append(("flipped block verdict", block, got, {**got, "holds": not got["holds"]}))

        sweep = float_sweep(0, scratch)
        cusps = first_op(sweep, "cusps")
        trace = sweep.ops[sweep.ops.index(cusps) - 1]  # the criminant its cusps are counted on
        got = real_capture(sweep, cusps, {}, start=trace)
        extra = got.branches[0].points[:2]  # two criminant points claimed as cusps
        planted = dataclasses.replace(got, cusps=got.cusps + tuple(extra))
        cases.append(("cusp count off by 2", cusps, got, planted))

        cli = cli_mix(0, scratch)
        ctx = {"traced": False, "cli_exports": []}
        classify = next(op for op in cli.ops if op.kind == "classify-coefficients")
        got = classify.capture(classify.call(ctx))
        code, stdout, stderr, files = got
        bad = stdout.replace(b'"order": 7', b'"order": -Infinity')
        cases.append(("payload with -Infinity", classify, got, (code, bad, stderr, files)))
        k1_zero = next(op for op in cli.ops if op.kind == "classify-k1-zero")
        got = k1_zero.capture(k1_zero.call(ctx))
        cases.append(("wrong exit code", k1_zero, got, (0,) + got[1:]))
        domain_inf = first_op(cli, "envelope-domain-inf")
        known = [
            ("documented fault", (0, b'{"domain": [[-Infinity, Infinity]]}', b"", {}), True),
            ("traceback", (1, b"", b"Traceback (most recent call last):\n", {}), False),
        ]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ok = True
    for name, op, true_output, planted in cases:
        true_passes = not counted_failed(op, true_output)
        planted_fails = counted_failed(op, planted)
        ok = ok and true_passes and planted_fails
        print(f"{name}: true output {'passes' if true_passes else 'FAILS'}, "
              f"planted output {'counted failed' if planted_fails else 'NOT caught'}")
    for name, planted, stays_correct in known:
        good = counted_failed(domain_inf, planted) and (
            run_stays_correct(domain_inf, planted) == stays_correct)
        ok = ok and good
        print(f"envelope --domain inf, {name}: counted failed, run "
              f"{'correct' if stays_correct else 'incorrect'}: {'yes' if good else 'NO'}")
    print("selftest", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
