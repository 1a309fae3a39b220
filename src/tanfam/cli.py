"""Command-line front end: classify, verify, envelope, sweep, selfcheck.

Exit codes separate four situations:

  0  definite verdict, or a computation matching its documented
     prediction (including predicted failure modes: demonstrating that a
     check fails where it is supposed to fail is a success)
  1  malformed input: unreadable file, bad JSON, bad polynomial text,
     inconsistent configuration, I/O trouble
  2  the classification is indeterminate at the working order
  3  the computation contradicts the documented prediction, or a
     self-check suite found a violation

Flag misuse (unknown flags, missing required flags) keeps argparse's
own exit status; only content-level problems map to exit 1.

Every flag is resolved and checked once, before any command runs:
argparse holds each default it can express, and one check fills in the
rest (verify's per-kind working order, the output path) and rejects
out-of-range values.  The commands then read the checked namespace.

Inputs are JSON, passed either as a file path or inline (anything
starting with "{").  All rational parameters are exact: "1/5", "-0.5"
and integers are accepted, binary floats never sneak into the algebra.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

from tanfam import emit, geometry, selfcheck
from tanfam.families import (
    NotTangentialError,
    SingularityLabel,
    classify,
    double_umbrella_form,
    family_from_mapping,
    fold_form,
)
from tanfam.jets import (
    DEFAULT_CAP,
    DEFAULT_ORACLE_SAMPLES,
    DEFAULT_RESOLUTION,
    DEFAULT_ROUNDS,
    MODE_BEAKS,
    MODE_VERSAL,
    MapGerm,
    SOURCE_VARS,
    TruncatedPoly,
    _check_digits,
)
from tanfam.tangent import (
    _UMBRELLA_BLOCK,
    build_extended_tangent_space,
    build_reduced_tangent_space,
    contains_ideal_block,
    miniversality_check,
)

EXIT_OK = 0
EXIT_MALFORMED = 1
EXIT_INDETERMINATE = 2
EXIT_CONTRADICTS = 3

VERIFY_KINDS = ("ideal-block", "fold-sufficiency", "miniversal")

# Samples per axis that --grid may ask for.  A trace holds about 24 bytes
# per grid sample at its peak (three float grids while the determinant is
# formed), so the limit costs about 0.4 GB.
MAX_GRID_RESOLUTION = 4096

# Largest --cap accepted.  Time, not memory, limits it: verify
# --kind ideal-block at the deepest order (cap - 1, a = -37/11,
# b = 13/7) took 0.20 s at cap 16, 1.46 s at cap 24 and 4.51 s at cap 28
# as a fresh process on a 2-core Xeon (median of 3); its build and block
# check took 18.7 s at cap 32 through the library.
MAX_CAP = 28

_EXCLUDED_MODULI = (Fraction(-1), Fraction(0), Fraction(1, 3))

# Commands that write their own artefacts to --out and print the payload;
# the others write the payload to --out when it is given.
_ARTEFACT_OUT = {"envelope": "envelope.svg", "sweep": "sweep-out"}


class CLIError(Exception):
    """Content-level problem with the invocation; maps to exit 1."""


def _parse_domain(text: str | None) -> tuple[float, float, float, float]:
    """(xi_min, xi_max, t_min, t_max) of --domain, checked as GridSpec checks it.

    The checks run here, before the float layer loads, so a bad --domain
    exits 1 on every command without importing numpy.  Their messages are
    GridSpec's, so the error line does not depend on where it was found.
    """
    if text is None:
        return (-1.0, 1.0, -1.0, 1.0)
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (1, 4):
        raise CLIError("--domain takes a half-width or 'ximin,ximax,tmin,tmax'")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise CLIError(f"bad --domain value {text!r}: {exc}") from exc
    bounds = (-values[0], values[0], -values[0], values[0]) if len(values) == 1 else tuple(values)
    if not all(math.isfinite(bound) for bound in bounds):
        problem = "grid rectangle bounds must be finite"
    elif not (bounds[0] < bounds[1] and bounds[2] < bounds[3]):
        problem = "grid rectangle is degenerate"
    else:
        return bounds
    raise CLIError(f"bad --domain value {text!r}: {problem}")


def _parse_lambdas(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise CLIError(f"bad --lambdas value {text!r}: {exc}") from exc
    if not values:
        raise CLIError("--lambdas must list at least one value")
    return values


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """JSON object hook: a repeated key is an error, not a silent overwrite."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise CLIError(f"input JSON repeats the key {key!r}")
        data[key] = value
    return data


def _load_input(text: str) -> dict:
    stripped = text.strip()
    try:
        raw = stripped if stripped.startswith("{") else Path(text).read_text(encoding="utf-8")
        data = json.loads(raw, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers bad JSON, bytes that are not UTF-8 and integers
        # above the interpreter's digit limit; RecursionError, deep nesting.
        raise CLIError(f"cannot read input: {exc}") from exc
    if not isinstance(data, dict):
        raise CLIError("input JSON must be an object")
    return data


def _check_args(args: argparse.Namespace) -> None:
    """Resolve and check every setting in place, before any command runs.

    Afterwards ``grid`` is a GridSpec for envelope and sweep; otherwise
    it stays the checked samples per axis, so the exact commands never
    load the float layer (a given --domain is still checked).  ``data``
    holds the parsed --input, ``lambdas`` is a tuple or None (the library
    default), ``b`` is the given --b or 1, ``order`` is the working order
    (None lets classify use cap - 1) and ``out`` is a Path, or None where
    the payload goes to stdout.
    """
    if not 2 <= args.grid <= MAX_GRID_RESOLUTION:
        raise CLIError(f"--grid takes 2 to {MAX_GRID_RESOLUTION} samples per axis")
    if args.cap > MAX_CAP:
        raise CLIError(f"--cap takes at most {MAX_CAP}")
    bounds = _parse_domain(args.domain)
    if args.command in ("envelope", "sweep"):
        args.grid = geometry.GridSpec(*bounds, args.grid, args.grid)
    if hasattr(args, "input"):
        args.data = _load_input(args.input)
    if getattr(args, "lambdas", None) is not None:
        args.lambdas = _parse_lambdas(args.lambdas)
    if args.cap < 2:
        raise CLIError("--cap must be at least 2")
    if getattr(args, "kind", None) == "fold-sufficiency" and (args.a, args.b) != (None, None):
        raise CLIError("--a/--b do not apply to fold-sufficiency")
    if hasattr(args, "b") and args.b is None:
        args.b = Fraction(1)
    if args.command == "verify" and args.order is None:
        args.order = 4 if args.kind == "fold-sufficiency" else 6
    if args.order is not None and not 1 <= args.order <= args.cap - 1:
        raise CLIError(f"--order must lie in 1..{args.cap - 1} (one below the cap)")
    out = args.out if args.out is not None else _ARTEFACT_OUT.get(args.command)
    args.out = None if out is None else Path(out)


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    """Sort a family input into its singularity class."""
    try:
        family = family_from_mapping(args.data, args.cap)
    except NotTangentialError as exc:
        # A definite, correct verdict about the input, not a usage error:
        # the function describes a family that is not tangential.
        return {**SingularityLabel("NotTangential").to_json(), "reason": str(exc)}, EXIT_OK
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"bad family input: {exc}") from exc
    label = classify(family, args.order)
    code = EXIT_INDETERMINATE if label.variant == "IndeterminateAtOrder" else EXIT_OK
    return {**label.to_json(), "reason": None}, code


def _normal_form(args: argparse.Namespace, validate: bool) -> MapGerm:
    try:
        return double_umbrella_form(args.a, args.b, args.cap, validate=validate)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def cmd_verify(args: argparse.Namespace) -> tuple[dict, int]:
    """Run one tangent-space check against its documented prediction.

    The exit code reports agreement with the prediction, not the raw
    outcome: a check that fails where failure is predicted exits 0, and
    a check that succeeds where failure is predicted exits 3.
    """
    if args.kind == "fold-sufficiency":
        basis = build_reduced_tangent_space(fold_form(args.cap), args.order)
        check = contains_ideal_block(basis, 2, 3, 2)
        predicted, measured, detail = True, check.holds, check.to_json()
        params: dict = {}
    else:
        if args.a is None:
            raise CLIError(f"verify kind {args.kind!r} needs --a")
        germ = _normal_form(args, validate=False)
        params = {"a": str(args.a), "b": str(args.b)}
        if args.kind == "ideal-block":
            basis = build_extended_tangent_space(germ, args.order)
            check = contains_ideal_block(basis, *_UMBRELLA_BLOCK)
            predicted, measured = args.a not in _EXCLUDED_MODULI, check.holds
            detail = check.to_json()
        else:
            t = TruncatedPoly.variable(SOURCE_VARS, "t", args.cap)
            zero = TruncatedPoly.zero(SOURCE_VARS, args.cap)
            bump = t * t + t**3
            complement = [(zero, t, zero), (bump, zero, zero), (zero, bump, zero)]
            detail = miniversality_check(germ, complement, args.order)
            predicted, measured = args.b != 0, bool(detail["spans"])
    agrees = predicted == measured
    payload = {
        "kind": args.kind,
        "params": params,
        "order": args.order,
        "predicted": predicted,
        "measured": measured,
        "agrees": agrees,
        "detail": detail,
    }
    return payload, EXIT_OK if agrees else EXIT_CONTRADICTS


def _envelope_target(args: argparse.Namespace) -> MapGerm:
    data = args.data
    if "components" in data:
        others = [key for key in data if key != "components"]
        if others:
            raise CLIError(f"'components' cannot be combined with {others}; pass one form")
        texts = data["components"]
        if not isinstance(texts, (list, tuple)) or len(texts) != 2:
            raise CLIError("'components' must list exactly two polynomial texts")
        try:
            comps = tuple(
                TruncatedPoly.from_text(SOURCE_VARS, text, args.cap) for text in texts
            )
            return MapGerm(comps)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise CLIError(f"bad component: {exc}") from exc
    try:
        family = family_from_mapping(data, args.cap)
    except NotTangentialError as exc:
        raise CLIError(
            f"not a tangential family ({exc}); pass raw 'components' instead"
        ) from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"bad family input: {exc}") from exc
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", args.cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", args.cap)
    return MapGerm((xi + t, family.u))


def cmd_envelope(args: argparse.Namespace) -> tuple[dict, int]:
    """Trace the criminant, map it to the envelope, emit the picture."""
    target = _envelope_target(args)
    try:
        report = geometry.count_cusps(target, args.grid)
        envelope = geometry.envelope_curves(target, report.curves)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    fits = []
    for branch in envelope.branches:
        try:
            c = geometry.fit_cubic_coefficient(branch)
        except ValueError:
            c = None
        fits.append({"tag": branch.tag, "c": c})
    emit.emit_svg(envelope, args.out)
    payload = {
        "branches": envelope.branch_count,
        "cusps": report.count,
        "fits": fits,
        "note": None if envelope.branch_count else "no criminant in the window",
        "svg": str(args.out),
        "grid": args.grid.to_json(),
    }
    return payload, EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> tuple[dict, int]:
    """Deformation sweep of the two-parameter form: frames plus manifest."""
    germ = _normal_form(args, validate=True)
    if args.mode == MODE_BEAKS and (args.mu1 != 0.0 or args.mu2 != 0.0):
        raise CLIError("--mu1/--mu2 apply in versal mode only")
    try:
        frames = geometry.deformation_sweep(
            germ,
            mode=args.mode,
            lambdas=args.lambdas,
            grid=args.grid,
            mu1=args.mu1,
            mu2=args.mu2,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    manifest = emit.emit_sweep(frames, args.out)
    payload = {
        "directory": str(args.out),
        "cusp_counts": [frame.cusp_count for frame in frames],
        "manifest": manifest,
    }
    return payload, EXIT_OK


def cmd_selfcheck(args: argparse.Namespace) -> tuple[dict, int]:
    """Seeded property suites; any recorded violation exits 3."""
    if args.rounds < 1 or args.samples < 1:
        raise CLIError("--rounds and --samples must be at least 1")
    results = selfcheck.run_all(args.seed, args.rounds, args.samples, args.cap)
    ok = all(result.ok for result in results)
    payload = {"ok": ok, "results": [result.to_json() for result in results]}
    return payload, EXIT_OK if ok else EXIT_CONTRADICTS


COMMANDS = {
    "classify": cmd_classify,
    "verify": cmd_verify,
    "envelope": cmd_envelope,
    "sweep": cmd_sweep,
    "selfcheck": cmd_selfcheck,
}


# ----------------------------------------------------------------------
# Rendering and entry point
# ----------------------------------------------------------------------


def _text_lines(value, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines: list[str] = []
    if isinstance(value, dict):
        for key in value:
            child = value[key]
            if isinstance(child, (dict, list)) and child:
                lines.append(f"{pad}{key}:")
                lines.extend(_text_lines(child, indent + 1))
            else:
                lines.append(f"{pad}{key}: {_scalar(child)}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}-")
                lines.extend(_text_lines(item, indent + 1))
            else:
                lines.append(f"{pad}- {_scalar(item)}")
    else:
        lines.append(f"{pad}{_scalar(value)}")
    return lines


def _scalar(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[]"
    if isinstance(value, dict):
        return "{}"
    return str(value)


def _render(payload: dict, fmt: str) -> str:
    if fmt == "text":
        return "\n".join(_text_lines(payload)) + "\n"
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _exact(text: str) -> Fraction:
    """argparse type for an exact rational; a zero denominator is a bad value
    too, and so is a number above the input digit bound."""
    try:
        _check_digits(text)
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _add_moduli(p: argparse.ArgumentParser, a_required: bool) -> None:
    p.add_argument(
        "--a", type=_exact, required=a_required,
        help="modulus a (exact, e.g. 1/5; write --a=-1/2 for negative values)",
    )
    p.add_argument("--b", type=_exact, help="parameter b (exact, default 1)")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=DEFAULT_CAP, help="jet truncation cap")
    common.add_argument("--order", type=int, default=None, help="working order (max cap-1)")
    common.add_argument(
        "--grid", type=int, default=DEFAULT_RESOLUTION, help="samples per axis"
    )
    common.add_argument(
        "--domain", default=None, help="half-width, or 'ximin,ximax,tmin,tmax'"
    )
    common.add_argument("--out", default=None, help="output file or directory")
    common.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    common.add_argument("--format", dest="fmt", choices=("json", "text"), default="json")

    parser = argparse.ArgumentParser(
        prog="tanfam",
        description="Tangential-family analysis: classification, tangent-space "
        "verification, envelope geometry, deformation sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="classify a family input")
    p.add_argument("--input", required=True, help="JSON file path or inline JSON")

    p = sub.add_parser("verify", parents=[common], help="tangent-space checks vs predictions")
    p.add_argument("--kind", required=True, choices=VERIFY_KINDS)
    _add_moduli(p, a_required=False)

    p = sub.add_parser("envelope", parents=[common], help="trace criminant and envelope")
    p.add_argument("--input", required=True, help="JSON file path or inline JSON")

    p = sub.add_parser("sweep", parents=[common], help="deformation sweep with manifest")
    _add_moduli(p, a_required=True)
    p.add_argument("--mode", choices=(MODE_BEAKS, MODE_VERSAL), default=MODE_BEAKS)
    p.add_argument(
        "--lambdas", default=None,
        help="comma-separated lambda values (use --lambdas=-0.1,0,0.1 form)",
    )
    p.add_argument("--mu1", type=float, default=0.0, help="versal-mode mu1")
    p.add_argument("--mu2", type=float, default=0.0, help="versal-mode mu2")

    p = sub.add_parser("selfcheck", parents=[common], help="seeded property suites")
    p.add_argument("--rounds", type=int, default=DEFAULT_ROUNDS)
    p.add_argument("--samples", type=int, default=DEFAULT_ORACLE_SAMPLES)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_args(args)
        payload, code = COMMANDS[args.command](args)
        rendered = _render(payload, args.fmt)
        if args.out is not None and args.command not in _ARTEFACT_OUT:
            args.out.write_text(rendered, encoding="utf-8")
        else:
            sys.stdout.write(rendered)
    except (CLIError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    return code


if __name__ == "__main__":
    sys.exit(main())
