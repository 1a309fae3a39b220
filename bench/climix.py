"""The cli-mix workload: a seeded stream of fresh ``python -m tanfam.cli``
processes, run one at a time.

Every JSON payload must be strict JSON and validate against its shipped
schema; exit codes must follow the documented table (0 definite, 1
malformed input, 2 indeterminate, 3 contradicts the prediction), with
``verify`` exiting 0 exactly when ``agrees`` is true; ``verify``'s
``measured`` must match the oracle; SVG output must parse as XML.

``envelope --domain inf`` is kept on purpose: it should exit 1 as
malformed input but exits 0 and prints -Infinity, so it is counted as
failed in every round until the program rejects non-finite domains.
Only that exact symptom is forgiven; any other failure of the call
makes the run incorrect.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import oracle as O
from common import Op, Workload, expect, first, rng_for, small_rational, strict_json
from exact import Oracle, check_label, expected_miniversal, BLOCK, FOLD_BLOCK
from floatsweep import schema_errors, svg_shape

ROOT = Path(__file__).resolve().parents[1]
LAUNCHER = Path(__file__).with_name("launch.py")
CAP = 8  # the CLI's default cap
DOMAIN_INF_FAULT = "non-finite domain accepted: exit 0 with -Infinity in its JSON"


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_cli(ctx: dict, args: list[str], scratch: Path, env: dict) -> subprocess.CompletedProcess:
    """One CLI invocation; traced rounds go through the launcher."""
    if not ctx.get("traced"):
        return subprocess.run([sys.executable, "-m", "tanfam.cli", *args], cwd=scratch,
                              env=env, capture_output=True, timeout=170)
    spans = scratch / "spans.json"
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(LAUNCHER), str(spans), *args], cwd=scratch,
                          env=env, capture_output=True, timeout=170)
    wall = time.perf_counter() - start
    export = json.loads(spans.read_text(encoding="utf-8"))
    spans.unlink()
    main = sum(end - begin for layer, begin, end, parent in export["spans"]
               if layer == "cli.main" and parent < 0)
    export["counters"]["cli.process_s"] = wall - export["counters"]["cli.import_s"] - main
    ctx["cli_exports"].append(export)
    return proc


def _payload(stdout: bytes) -> tuple[dict | None, str | None]:
    try:
        return strict_json(stdout.decode()), None
    except ValueError as exc:
        return None, f"stdout is not strict JSON: {exc}"


def cli_op(kind: str, args: list[str], scratch: Path, env: dict, expect_code,
           check_payload=None, schema: str | None = None, files=(), digest=None) -> Op:
    """A CLI call whose exit code must be expect_code (a number, or a
    function of the payload) and whose payload must pass check_payload."""

    def capture(proc):
        return proc.returncode, proc.stdout, proc.stderr, {
            name: (scratch / name).read_bytes() for name in files if (scratch / name).exists()
        }

    def check(got):
        code, stdout, stderr, outputs = got
        if schema is None:  # malformed input: no payload, a message, exit 1
            return first((
                expect(code == expect_code, f"exit {code}, expected {expect_code}"),
                expect(not stdout and stderr.startswith(b"error:"),
                       "malformed input must print only an error"),
            ))
        payload, reason = _payload(stdout)
        if reason:
            return reason
        want = expect_code(payload) if callable(expect_code) else expect_code
        return first((
            expect(code == want, f"exit {code}, expected {want}"),
            schema_errors(payload, schema),
            check_payload(payload, outputs) if check_payload else None,
        ))

    return Op(kind, lambda ctx: run_cli(ctx, args, scratch, env), check, capture=capture,
              digest=digest)


def cli_mix(seed: int, scratch: Path) -> Workload:
    rng = rng_for("cli-mix", seed)
    oracle = Oracle()
    env = child_env()
    ops: list[Op] = []

    def classify(label, data: dict, u: dict, code):
        k0, k1, alpha = (u.get(e, Fraction(0)) for e in ((0, 2), (1, 2), (0, 3)))
        ops.append(cli_op(
            f"classify-{label}", ["classify", "--input", json.dumps(data)], scratch, env, code,
            lambda p, _: check_label(p, k0, k1, alpha, u, CAP, oracle.reference),
            schema="classify", digest=("verdict-json", lambda got: got[1])))

    while True:
        k1, alpha = small_rational(rng), small_rational(rng)
        if k1 != alpha and 2 * k1 != 3 * alpha and k1 != 3 * alpha:
            break
    tail = {(2, 2): small_rational(rng, top=5), (0, 5): small_rational(rng, top=5)}
    u_text = O.poly([((1, 2), k1), ((0, 3), alpha), *tail.items()])
    classify("text", {"u": O.render_text(u_text)}, u_text, 0)
    k1, alpha = small_rational(rng), small_rational(rng)
    while k1 == alpha or 2 * k1 == 3 * alpha or k1 == 3 * alpha:
        alpha = small_rational(rng)
    classify("coefficients", {"k0": "0", "k1": str(k1), "alpha": str(alpha)},
             O.poly([((1, 2), k1), ((0, 3), alpha)]), 0)
    alpha = small_rational(rng)
    classify("k1-zero", {"k0": "0", "k1": "0", "alpha": str(alpha)},
             O.poly([((0, 3), alpha)]), 2)

    c = small_rational(rng)
    ops.append(cli_op(
        "classify-not-tangential",
        ["classify", "--input", json.dumps({"u": f"{c} xi t + 1 t^2"})], scratch, env, 0,
        lambda p, _: expect(p["variant"] == "NotTangential" and p["reason"],
                            "a t-degree-1 term must read NotTangential"),
        schema="classify"))

    def verify(args, measured_by_oracle):
        def check(payload, _):
            return expect(payload["measured"] == measured_by_oracle(),
                          f"measured {payload['measured']} != oracle")

        ops.append(cli_op(
            f"verify-{args[0]}", ["verify", "--kind", *args], scratch, env,
            lambda p: 0 if p["agrees"] else 3, check, schema="verify",
            digest=("verdict-json", lambda got: got[1])))

    def du_facts(a, b, order):
        return oracle.facts(("du", a, b), O.double_umbrella(a, b), order, "A-star")

    verify(["fold-sufficiency"],
           lambda: oracle.facts(("fold",), O.fold(), 4, "reduced").block(FOLD_BLOCK)[0])
    a_generic = Fraction(-rng.randint(1, 9), rng.randint(2, 9))
    b_generic = small_rational(rng)
    for a, b in ((a_generic, b_generic), (Fraction(-1), 1), (Fraction(0), 1), (Fraction(1, 3), 1)):
        verify(["ideal-block", f"--a={a}", f"--b={b}"],
               lambda a=a, b=b: du_facts(a, b, 6).block(BLOCK)[0])
    verify(["miniversal", f"--a={a_generic}", f"--b={b_generic}"],
           lambda: expected_miniversal(du_facts(a_generic, b_generic, 6), 6)["spans"])

    def envelope_check(payload, outputs):
        if "envelope.svg" not in outputs:
            return "no SVG written"
        try:
            shape = svg_shape(outputs["envelope.svg"])
        except ET.ParseError as exc:
            return f"SVG does not parse: {exc}"
        return expect(shape == (payload["branches"], payload["cusps"]),
                      f"SVG shapes {shape} != payload {payload['branches'], payload['cusps']}")

    family = O.render_text(O.poly([((1, 2), small_rational(rng, top=3)),
                                   ((0, 3), small_rational(rng, top=3))]))
    ops.append(cli_op(
        "envelope", ["envelope", "--input", json.dumps({"u": family}), "--grid", "256",
                     "--out", "envelope.svg"],
        scratch, env, 0, envelope_check, schema="envelope", files=("envelope.svg",),
        digest=("svg", lambda got: got[3].get("envelope.svg", b""))))

    def sweep_check(payload, outputs):
        stored = json.loads(outputs["sweep/manifest.json"])
        return first((
            schema_errors(stored, "sweep-manifest"),
            expect(stored == payload["manifest"], "manifest file differs from the payload"),
            expect(payload["cusp_counts"] == [f["cusps"] for f in stored["frames"]],
                   "cusp counts differ from the manifest"),
        ))

    a_sweep = Fraction(-rng.randint(2, 8), 10)
    ops.append(cli_op(
        "sweep", ["sweep", f"--a={a_sweep}", "--lambdas=-0.1,0,0.1", "--grid", "256",
                  "--out", "sweep"],
        scratch, env, 0, sweep_check, schema="sweep", files=("sweep/manifest.json",),
        digest=("sweep-manifest", lambda got: got[3].get("sweep/manifest.json", b""))))

    ops.append(cli_op(
        "selfcheck", ["selfcheck", "--seed", str(rng.randrange(1000)), "--rounds", "40",
                      "--samples", "3"],
        scratch, env, 0, lambda p, _: expect(p["ok"] is True, "a property suite failed"),
        schema="selfcheck"))

    ops.append(cli_op("malformed-text",
                      ["classify", "--input", json.dumps({"u": "1 xi t^2 + 1 q^2"})], scratch, env, 1))
    ops.append(cli_op("malformed-missing-a", ["verify", "--kind", "ideal-block"], scratch, env, 1))
    # Known fault: a non-finite domain should be rejected as malformed input.
    domain_inf = cli_op(
        "envelope-domain-inf",
        ["envelope", "--input", json.dumps({"u": "1 xi t^2"}), "--domain", "inf", "--grid", "64",
         "--out", "inf.svg"],
        scratch, env, 1)

    def domain_inf_check(got):
        code, stdout = got[:2]
        if code == 0 and b"-Infinity" in stdout:
            try:
                json.loads(stdout)  # JSON but for its non-finite numbers
                return DOMAIN_INF_FAULT
            except ValueError:
                pass
        return domain_inf.check(got)

    ops.append(replace(domain_inf, check=domain_inf_check, known_fault=DOMAIN_INF_FAULT))

    return Workload(
        "cli-mix", ops,
        warmup=lambda: subprocess.run([sys.executable, "-c", "import tanfam.cli"], env=env,
                                      cwd=scratch, check=True, timeout=170),
        inputs={"family": family, "a_generic": str(a_generic), "b_generic": str(b_generic),
                "a_sweep": str(a_sweep)},
    )
