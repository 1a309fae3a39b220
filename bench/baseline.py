"""Time the ROADMAP baseline cases one by one.

    python3 bench/baseline.py

Prints the median and the best of three runs for each case: the
extended build of the double umbrella a = 1/5, b = 1 at orders 6, 7 and
9, H-branch classify (k0 = 0, k1 = 3, alpha = 2) at caps 8 and 12,
trace_criminant of (xi+t, t^2 xi) at grids 256, 512 and 1024,
count_cusps of the beaks deformation (lambda = 0.1, a = 1/5) at 512, the
default library sweep, and each CLI subcommand as a fresh process.
These are single-case figures for reading, not the benchmark's metrics.
"""

from __future__ import annotations

import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import tanfam as tf  # noqa: E402

from climix import child_env  # noqa: E402


def library_cases():
    du = tf.double_umbrella_form(Fraction(1, 5), 1, 8)
    du10 = tf.double_umbrella_form(Fraction(1, 5), 1, 10)
    h8 = tf.family_from_invariants(0, 3, 2, cap=8)
    h12 = tf.family_from_invariants(0, 3, 2, cap=12)
    xi = tf.TruncatedPoly.variable(tf.SOURCE_VARS, "xi", 8)
    t = tf.TruncatedPoly.variable(tf.SOURCE_VARS, "t", 8)
    cubic = tf.MapGerm((xi + t, t * t * xi))
    beaks = tf.apply_deformation(du, tf.DeformationParams(lam=0.1), tf.MODE_BEAKS)
    return [
        ("build_extended_tangent_space order 6 (cap 8)", lambda: tf.build_extended_tangent_space(du, 6)),
        ("build_extended_tangent_space order 7 (cap 8)", lambda: tf.build_extended_tangent_space(du, 7)),
        ("build_extended_tangent_space order 9 (cap 10)", lambda: tf.build_extended_tangent_space(du10, 9)),
        ("classify H-branch cap 8", lambda: tf.classify(h8)),
        ("classify H-branch cap 12", lambda: tf.classify(h12)),
        ("trace_criminant grid 256", lambda: tf.trace_criminant(cubic, tf.GridSpec.square(1.0, 256))),
        ("trace_criminant grid 512", lambda: tf.trace_criminant(cubic, tf.GridSpec.square(1.0, 512))),
        ("trace_criminant grid 1024", lambda: tf.trace_criminant(cubic, tf.GridSpec.square(1.0, 1024))),
        ("count_cusps beaks lambda 0.1 grid 512", lambda: tf.count_cusps(beaks, tf.GridSpec.square(1.0, 512))),
        ("deformation_sweep default (11 frames, 512)", lambda: tf.deformation_sweep(du)),
    ]


def cli_cases(scratch: Path):
    env = child_env()
    py = [sys.executable]
    commands = [
        ("import tanfam", py + ["-c", "import tanfam"]),
        ("cli classify", py + ["-m", "tanfam.cli", "classify", "--input", '{"u": "1 xi t^2 + 1/3 t^4"}']),
        ("cli verify ideal-block", py + ["-m", "tanfam.cli", "verify", "--kind", "ideal-block", "--a", "1/5"]),
        ("cli envelope", py + ["-m", "tanfam.cli", "envelope", "--input", '{"u": "1 xi t^2"}',
                               "--out", "envelope.svg"]),
        ("cli sweep", py + ["-m", "tanfam.cli", "sweep", "--a", "1/5", "--out", "sweep-out"]),
        ("cli selfcheck", py + ["-m", "tanfam.cli", "selfcheck", "--seed", "0"]),
    ]
    return [
        (name, lambda cmd=cmd: subprocess.run(cmd, cwd=scratch, env=env, capture_output=True,
                                              timeout=170))
        for name, cmd in commands
    ]


REPEAT = 3


def main() -> int:
    scratch = ROOT / ".bench_tmp" / "baseline"
    scratch.mkdir(parents=True, exist_ok=True)
    print(f"{'case':48s} {'median s':>10s} {'best s':>10s}")
    try:
        for name, case in library_cases() + cli_cases(scratch):
            times = []
            for _ in range(REPEAT):
                start = time.perf_counter()
                case()
                times.append(time.perf_counter() - start)
            print(f"{name:48s} {statistics.median(times):10.3f} {min(times):10.3f}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
