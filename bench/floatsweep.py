"""The float-sweep workload: beaks and versal sweeps, criminant traces,
envelopes, cusp counts, lifts and their SVG and archive output.

Checks evaluate the maps with this module's own numpy code from the
exact coefficients: criminant points must zero the Jacobian determinant
to within one cell's linear-interpolation error, envelope points must be
the map's values there, and lift slopes must be dy/dx.  Cusp counts
must not change when the grid is coarsened, and on the two acceptance
scenarios they must read 0 at lambda = 0 and differ by exactly 2 across
it.  Archives must validate against the shipped JSON schemas.

Two operations fail every round, on fixed inputs, because count_cusps
gives different counts at different grid sizes: the versal frame
a = 1/10, mu = (0.028, 0.019), lambda = 0 (1 cusp at grid 512, 0 at 256)
and (xi+t, 1/2 t^2 xi - 3/2 t^3) (0 cusps at 512, 1 at 256).  They are
counted as failed while they show exactly that fault.
"""

from __future__ import annotations

import json
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np

import tanfam as tf

import oracle as O
from common import Op, Workload, expect, first, rng_for

LAMBDAS = (-0.1, 0.0, 0.1)
VERSAL_A, VERSAL_MU = Fraction(1, 10), (0.028, 0.019)
VERSAL_FAULT = "a = 1/10, lambda 0.0: 1 cusps at 512, 0 at 256"
GENERIC_U = {(1, 2): Fraction(1, 2), (0, 3): Fraction(-3, 2)}
GENERIC_FAULT = "0 cusps at 512, 1 at 256"
SCHEMAS = Path(__file__).resolve().parents[1] / "src" / "tanfam" / "schemas"


# -- the benchmark's own float evaluation -------------------------------------------


def evaluate(p: dict, xi, t):
    xi = np.asarray(xi, dtype=float)
    t = np.asarray(t, dtype=float)
    total = np.zeros(np.broadcast(xi, t).shape)
    for (i, j), c in p.items():
        total = total + float(c) * xi**i * t**j
    return total


def product(a: dict, b: dict) -> dict:
    out: dict = {}
    for (i, j), c in a.items():
        for (k, l), d in b.items():
            out[(i + k, j + l)] = out.get((i + k, j + l), 0.0) + float(c) * float(d)
    return out


def combine(a: dict, b: dict, scale: float) -> dict:
    out = {e: float(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, 0.0) + scale * float(c)
    return out


def jacobian_det(c1: dict, c2: dict) -> dict:
    return combine(
        product(O.derive(c1, 0), O.derive(c2, 1)),
        product(O.derive(c1, 1), O.derive(c2, 0)),
        -1.0,
    )


def deformed(comps, lam: float, mu1: float = 0.0, mu2: float = 0.0) -> tuple[dict, dict]:
    """The planar part of the deformation: mu1 and mu2 times slot 3 added
    to slots 1 and 2 (versal; both 0 in beaks), then lam * t to slot 2."""
    c1 = combine(comps[0], comps[2], mu1)
    c2 = combine(comps[1], comps[2], mu2)
    c2[(0, 1)] = c2.get((0, 1), 0.0) + lam
    return c1, c2


def check_criminant(curves, c1: dict, c2: dict, grid) -> str | None:
    """Every traced point lies on a grid edge where the determinant was
    linearly interpolated; its true value there is at most h^2/8 times the
    second derivative along the edge.  A factor 2 covers the change of
    that derivative within a cell."""
    det = jacobian_det(c1, c2)
    d_xx = O.derive(O.derive(det, 0), 0)
    d_tt = O.derive(O.derive(det, 1), 1)
    h_xi = (grid.xi_max - grid.xi_min) / (grid.resolution_xi - 1)
    h_t = (grid.t_max - grid.t_min) / (grid.resolution_t - 1)
    for branch in curves.branches:
        pts = np.asarray(branch.points, dtype=float)
        bound = np.zeros(len(pts))
        for dx, dt in ((0, 0), (h_xi, h_t), (-h_xi, h_t), (h_xi, -h_t), (-h_xi, -h_t)):
            xi, t = pts[:, 0] + dx, pts[:, 1] + dt
            bound = np.maximum(bound, np.abs(evaluate(d_xx, xi, t)) * h_xi**2)
            bound = np.maximum(bound, np.abs(evaluate(d_tt, xi, t)) * h_t**2)
        value = np.abs(evaluate(det, pts[:, 0], pts[:, 1]))
        if np.any(value > bound / 4.0 + 1e-11):
            worst = int(np.argmax(value - bound / 4.0))
            return (f"{branch.tag}: |det| {value[worst]:.3e} at {tuple(pts[worst])} "
                    f"exceeds the interpolation bound {bound[worst] / 4.0:.3e}")
    return None


def check_envelope(envelope, criminant, c1: dict, c2: dict) -> str | None:
    if len(envelope.branches) != len(criminant.branches):
        return "envelope and criminant branch counts differ"
    pairs = [(e.points, c.points) for e, c in zip(envelope.branches, criminant.branches)]
    pairs.append((envelope.cusps, criminant.cusps))
    for image, source in pairs:
        if len(image) != len(source):
            return "envelope and criminant point counts differ"
        if not source:
            continue
        src = np.asarray(source, dtype=float)
        img = np.asarray(image, dtype=float)
        want = np.stack([evaluate(c1, src[:, 0], src[:, 1]),
                         evaluate(c2, src[:, 0], src[:, 1])], axis=1)
        if not np.allclose(img, want, rtol=1e-9, atol=1e-12):
            return "an envelope point is not the map's value at its criminant point"
    return None


def cubic_fit(points) -> float:
    pts = np.asarray(points, dtype=float)
    return float(np.sum(pts[:, 0] ** 3 * pts[:, 1]) / np.sum(pts[:, 0] ** 6))


def svg_shape(data: bytes) -> tuple[int, int]:
    root = ET.fromstring(data)
    ns = "{http://www.w3.org/2000/svg}"
    return len(root.findall(f".//{ns}polyline")), len(root.findall(f".//{ns}circle"))


def schema_errors(payload, name: str) -> str | None:
    import jsonschema

    schema = json.loads((SCHEMAS / f"{name}.schema.json").read_text(encoding="utf-8"))
    try:
        jsonschema.validate(payload, schema)
    except jsonschema.ValidationError as exc:
        return f"{name} schema: {exc.message}"
    return None


# -- the workload ------------------------------------------------------------------


def _planar(u_text: str):
    xi = tf.TruncatedPoly.variable(tf.SOURCE_VARS, "xi", 8)
    t = tf.TruncatedPoly.variable(tf.SOURCE_VARS, "t", 8)
    return tf.MapGerm((xi + t, tf.TruncatedPoly.from_text(tf.SOURCE_VARS, u_text, 8)))


def float_sweep(seed: int, scratch: Path) -> Workload:
    """Sweeps of the double umbrella at grid 512 (beaks: the two acceptance
    scenarios and one seeded a; versal: one fixed frame), cusp counts of
    one beaks frame and of a fixed generic family at 512, traces of
    (xi+t, t^2 xi) at 512 and of a seeded family at 512 and 1024, and a
    lift at 1024.

    Versal sweeps and cusp counts of generic families are not seeded: on
    some seeds their cusp counts change with the grid (see README.md)."""
    rng = rng_for("float-sweep", seed)
    coarse = {}  # memoized recounts at a coarser grid, keyed by input
    blocks: dict[str, list[Op]] = {}  # operations that share results, in call order

    def half(h, n):
        return tf.GridSpec(-h, h, -h, h, n, n)

    a_beaks = Fraction(-rng.randint(2, 8), 10)
    sweeps = [
        ("acceptance", Fraction(-1, 2), 1.0),
        ("acceptance", Fraction(1, 4), 1.5),
        ("seeded", a_beaks, 1.0),
    ]
    for index, (role, a, width) in enumerate(sweeps):
        archive = scratch / f"sweep-{index}" if index % 2 == 0 else None
        blocks[f"sweep-{index}"] = _sweep_ops(index, role, a, half(width, 512), half(width, 256),
                                              archive, coarse)
    # Known fault: the lambda = 0 frame has 1 cusp at grid 512 and 0 at 256.
    blocks["versal"] = _sweep_ops(len(sweeps), "versal", VERSAL_A, half(1.0, 512),
                                  half(1.0, 256), None, coarse, mu=VERSAL_MU,
                                  known_fault=VERSAL_FAULT)
    blocks["cusps-beaks"] = [_beaks_cusps_op(Fraction(-1, 2), LAMBDAS[2], half(1.0, 512),
                                             half(1.0, 256), coarse)]

    k1 = Fraction(rng.choice((1, 2, 3)), rng.choice((1, 2)))
    alpha = Fraction(rng.randint(-6, 6), 4)
    family = O.poly([((1, 2), k1), ((0, 3), alpha)])
    family_text = O.render_text(family)
    # No cusp count on the seeded family: on some seeds it changes with the
    # grid (see README.md), so it could not be checked on every seed.  The
    # fixed generic family shows that fault on every round.
    curves = [
        ("cubic", {(1, 2): Fraction(1)}, 512, ("trace", "cusps", "envelope", "svg")),
        ("family", family, 512, ("trace",)),
        ("generic", GENERIC_U, 512, ("count",)),
        ("family", family, 1024, ("trace", "envelope")),
    ]
    for role, u, n, steps in curves:
        blocks[f"{role}-{n}"] = _curve_ops(
            role, u, half(1.0, n), half(1.0, n // 2), steps, scratch / f"{role}-{n}.svg", coarse,
            known_fault=GENERIC_FAULT if role == "generic" else None)

    lift_grid = half(1.0, 1024)
    picks = [(rng.randrange(1024), rng.randrange(1024)) for _ in range(200)]
    blocks["lift"] = [_lift_op(family, lift_grid, picks)]

    # The four operations of about 0.3 s (grid 512 traces and cusp counts)
    # hold the median latency.  They alternate with the longer ones, so that
    # one slow spell of the machine does not cover all of them in a round.
    order = ("sweep-0", "cusps-beaks", "family-1024", "cubic-512", "sweep-1", "family-512",
             "lift", "generic-512", "sweep-2", "versal")
    ops = [op for name in order for op in blocks[name]]

    warm = _planar("1 xi t^2")
    return Workload(
        "float-sweep", ops,
        warmup=lambda: tf.trace_criminant(warm, half(1.0, 64)),
        inputs={"a_beaks": str(a_beaks), "family": family_text},
    )


def _sweep_ops(index, role, a, grid, coarser, directory, coarse, mu=(0.0, 0.0),
               known_fault=None):
    """A beaks sweep, or a versal one with the given mu when role is
    "versal", and its archive when directory is given."""
    germ = tf.double_umbrella_form(a, 1, 8)
    comps = O.double_umbrella(a, 1)
    mode = tf.MODE_VERSAL if role == "versal" else tf.MODE_BEAKS
    slot = ("frames", index)

    def sweep(ctx):
        ctx[slot] = tf.deformation_sweep(germ, mode=mode, lambdas=LAMBDAS, grid=grid,
                                         mu1=mu[0], mu2=mu[1])
        return ctx[slot]

    def recount(lam):
        key = ("sweep", index, lam)
        if key not in coarse:
            params = tf.DeformationParams(lam=lam, mu1=mu[0], mu2=mu[1])
            coarse[key] = tf.count_cusps(tf.apply_deformation(germ, params, mode), coarser).count
        return coarse[key]

    def check_sweep(frames):
        if [f.params.lam for f in frames] != list(LAMBDAS):
            return "frames do not follow the requested lambdas"
        reasons = []  # every failing frame, so that a known fault is matched whole
        for frame in frames:
            c1, c2 = deformed(comps, frame.params.lam, *mu)
            reason = first((
                check_criminant(frame.criminant, c1, c2, grid),
                check_envelope(frame.envelope, frame.criminant, c1, c2),
                expect(frame.cusp_count == len(frame.criminant.cusps), "cusp count != cusp points"),
                expect(frame.cusp_count == recount(frame.params.lam),
                       f"{frame.cusp_count} cusps at {grid.resolution_xi}, "
                       f"{recount(frame.params.lam)} at {coarser.resolution_xi}"),
            ))
            if reason:
                reasons.append(f"a = {a}, lambda {frame.params.lam}: {reason}")
        counts = [f.cusp_count for f in frames]
        if role == "acceptance" and (counts[1] != 0 or abs(counts[2] - counts[0]) != 2):
            reasons.append(f"a = {a}: cusp counts {counts} do not jump by 2 across a "
                           f"cusp-free lambda = 0")
        return "; ".join(reasons) or None

    def capture_archive(manifest):
        files = {p.name: p.read_bytes() for p in sorted(directory.iterdir())}
        return manifest, files

    def check_archive(got):
        manifest, files = got
        if "manifest.json" not in files:
            return "manifest.json missing"
        stored = json.loads(files["manifest.json"])
        reason = first((
            expect(stored == manifest, "manifest file differs from the returned manifest"),
            schema_errors(stored, "sweep-manifest"),
            expect(stored["count"] == len(LAMBDAS), "manifest frame count"),
        ))
        if reason:
            return reason
        for entry in stored["frames"]:
            frame = json.loads(files[entry["file"]])
            reason = first((
                schema_errors(frame, "sweep-frame"),
                expect(frame["cusps"] == entry["cusps"] == len(frame["cusp_points"]),
                       "frame and manifest cusp counts differ"),
                expect(frame["branches"] == entry["branches"], "frame and manifest branches differ"),
                expect(frame["params"] == entry["params"], "frame and manifest params differ"),
            ))
            if reason:
                return f"{entry['file']}: {reason}"
        return None

    ops = [Op(f"sweep-{mode}", sweep, check_sweep, known_fault=known_fault)]
    if directory is not None:
        ops.append(Op("emit-sweep", lambda ctx: tf.emit_sweep(ctx[slot], directory),
                      check_archive, capture=capture_archive,
                      digest=("sweep-manifest", lambda got: got[1]["manifest.json"])))
    return ops


def _beaks_cusps_op(a, lam, grid, coarser, coarse):
    """count_cusps alone on one beaks frame, against a coarser recount."""
    germ = tf.double_umbrella_form(a, 1, 8)
    target = tf.apply_deformation(germ, tf.DeformationParams(lam=lam), tf.MODE_BEAKS)
    c1, c2 = deformed(O.double_umbrella(a, 1), lam)

    def check(report):
        key = ("beaks-cusps", a, lam)
        if key not in coarse:
            coarse[key] = tf.count_cusps(target, coarser).count
        points = {p for b in report.curves.branches for p in b.points}
        return first((
            check_criminant(report.curves, c1, c2, grid),
            expect(report.count == len(report.points) == len(report.curves.cusps),
                   "cusp count != cusp points"),
            expect(all(p in points for p in report.points), "a cusp point is off the criminant"),
            expect(report.count == coarse[key],
                   f"{report.count} cusps at {grid.resolution_xi}, {coarse[key]} at "
                   f"{coarser.resolution_xi}"),
        ))

    return Op("cusps-beaks", lambda ctx: tf.count_cusps(target, grid), check)


def _curve_ops(role, u, grid, coarser, steps, svg_path, coarse, known_fault=None):
    """The given steps among trace, cusps (on the traced criminant), count
    (cusps with its own trace), envelope and svg for (xi+t, u)."""
    target = _planar(O.render_text(u))
    c1 = {(1, 0): Fraction(1), (0, 1): Fraction(1)}
    c2 = u
    slot = ("curves", role, grid.resolution_xi)

    def trace(ctx):
        ctx[slot] = tf.trace_criminant(target, grid)
        return ctx[slot]

    def cusps(ctx):
        ctx[slot] = tf.count_cusps(target, grid, criminant=ctx[slot]).curves
        return ctx[slot]

    def count(ctx):
        return tf.count_cusps(target, grid).curves

    def envelope(ctx):
        ctx[slot + ("envelope",)] = tf.envelope_curves(target, ctx[slot])
        return ctx[slot + ("envelope",)], ctx[slot]

    def emit(ctx):
        env = ctx[slot + ("envelope",)]
        return tf.emit_svg(env, svg_path), env.branch_count, len(env.cusps)

    def check_trace(crim):
        return first((
            expect(role != "cubic" or crim.branch_count == 2,
                   f"(xi+t, t^2 xi) has {crim.branch_count} criminant branches, not 2"),
            check_criminant(crim, c1, c2, grid),
        ))

    def check_cusps(curves):
        key = ("curve", role, grid.resolution_xi)
        if key not in coarse:
            coarse[key] = tf.count_cusps(target, coarser).count
        points = {p for b in curves.branches for p in b.points}
        return first((
            expect(all(p in points for p in curves.cusps), "a cusp point is off the criminant"),
            expect(len(curves.cusps) == coarse[key],
                   f"{len(curves.cusps)} cusps at {grid.resolution_xi}, {coarse[key]} at "
                   f"{coarser.resolution_xi}"),
        ))

    def check_envelope_op(got):
        env, source = got
        fits = [cubic_fit(b.points) for b in env.branches]
        best = max(fits, key=abs) if fits else None
        return first((
            check_envelope(env, source, c1, c2),
            expect(role != "cubic" or (best is not None and abs(best - 4 / 27) <= 1e-3),
                   f"cubic coefficient {best} not within 1e-3 of 4/27"),
        ))

    def check_svg(got):
        data, branches, cusp_count = got
        try:
            shape = svg_shape(data)
        except ET.ParseError as exc:
            return f"SVG does not parse: {exc}"
        return expect(shape == (branches, cusp_count),
                      f"SVG shapes {shape} != {(branches, cusp_count)}")

    ops = {
        "trace": Op("trace", trace, check_trace),
        "cusps": Op("cusps", cusps, check_cusps),
        "count": Op("cusps-count", count,
                    lambda curves: check_criminant(curves, c1, c2, grid) or check_cusps(curves),
                    known_fault=known_fault),
        "envelope": Op("envelope", envelope, check_envelope_op),
        "svg": Op("emit-svg", emit, check_svg,
                  capture=lambda got: (Path(got[0]).read_bytes(), got[1], got[2]),
                  digest=("svg", lambda got: got[0])),
    }
    return [ops[step] for step in steps]


def _lift_op(u, grid, picks):
    target = _planar(O.render_text(u))
    rows = np.array([i for i, _ in picks])
    cols = np.array([j for _, j in picks])
    xi = np.linspace(grid.xi_min, grid.xi_max, grid.resolution_xi)[rows]
    t = np.linspace(grid.t_min, grid.t_max, grid.resolution_t)[cols]

    def capture(lift):
        return tuple(np.array(a[rows, cols]) for a in
                     (lift.x, lift.y, lift.slope, lift.chart, lift.invalid))

    def check(got):
        x, y, slope, chart, invalid = got
        d_x = np.ones_like(xi)  # d(xi + t)/dt
        d_y = evaluate(O.derive(u, 1), xi, t)
        reciprocal = np.abs(d_x) < 1e-8 * np.abs(d_y)
        want = np.where(reciprocal, d_x / np.where(d_y == 0, 1, d_y), d_y / d_x)
        return first((
            expect(np.allclose(x, xi + t, rtol=1e-12, atol=1e-12), "lift x is not xi + t"),
            expect(np.allclose(y, evaluate(u, xi, t), rtol=1e-9, atol=1e-12), "lift y is not u"),
            expect(not np.any(invalid), "lift marks immersed samples invalid"),
            expect(np.array_equal(chart.astype(bool), reciprocal), "lift chart choice"),
            expect(np.allclose(slope, want, rtol=1e-9, atol=1e-12), "lift slope is not dy/dx"),
        ))

    return Op("lift", lambda ctx: tf.legendrian_lift(target, grid), check, capture=capture)
