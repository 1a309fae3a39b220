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

Inputs are JSON, passed either as a file path or inline (anything
starting with "{").  All rational parameters are exact: "1/5", "-0.5"
and integers are accepted, binary floats never sneak into the algebra.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from tanfam.emit import emit_svg, emit_sweep
from tanfam.families import (
    NotTangentialError,
    classify,
    double_umbrella_form,
    family_from_mapping,
    fold_form,
)
from tanfam.geometry import (
    DEFAULT_RESOLUTION,
    GridSpec,
    MODE_BEAKS,
    MODE_VERSAL,
    count_cusps,
    default_sweep_lambdas,
    deformation_sweep,
    envelope_curves,
    fit_cubic_coefficient,
)
from tanfam.jets import DEFAULT_CAP, MapGerm, SOURCE_VARS, TruncatedPoly
from tanfam.selfcheck import (
    DEFAULT_ORACLE_SAMPLES,
    DEFAULT_ROUNDS,
    run_all,
)
from tanfam.tangent import (
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

# Samples per axis that --grid may ask for.  A trace holds about 50 bytes
# per grid sample at its peak, so the limit costs about 0.85 GB.
MAX_GRID_RESOLUTION = 4096

# Largest --cap accepted.  Time, not memory, limits it: verify at the
# deepest order (cap - 1) took 2.2 s at cap 24, 7.9 s at cap 28 and
# 27.5 s at cap 32 as a fresh process on a 2-core Xeon.
MAX_CAP = 28

_EXCLUDED_MODULI = (Fraction(-1), Fraction(0), Fraction(1, 3))


class CLIError(Exception):
    """Content-level problem with the invocation; maps to exit 1."""


@dataclass(frozen=True)
class RunConfig:
    """Everything a command run depends on, resolved and validated."""

    command: str
    data: dict | None
    cap: int
    order: int | None
    grid: GridSpec
    out: Path | None
    seed: int
    fmt: str
    kind: str | None = None
    a: Fraction | None = None
    b: Fraction | None = None
    mode: str = MODE_BEAKS
    lambdas: tuple[float, ...] | None = None
    mu1: float = 0.0
    mu2: float = 0.0
    rounds: int = DEFAULT_ROUNDS
    samples: int = DEFAULT_ORACLE_SAMPLES

    def __post_init__(self) -> None:
        if self.cap < 2:
            raise CLIError("--cap must be at least 2")
        if self.order is not None and not 1 <= self.order <= self.cap - 1:
            raise CLIError(
                f"--order must lie in 1..{self.cap - 1} (one below the cap)"
            )


def _parse_domain(text: str | None, resolution: int) -> GridSpec:
    if text is None:
        return GridSpec.square(1.0, resolution)
    parts = [p.strip() for p in text.split(",")]
    try:
        if len(parts) == 1:
            return GridSpec.square(float(parts[0]), resolution)
        if len(parts) == 4:
            lo_xi, hi_xi, lo_t, hi_t = (float(p) for p in parts)
            return GridSpec(lo_xi, hi_xi, lo_t, hi_t, resolution, resolution)
    except ValueError as exc:
        raise CLIError(f"bad --domain value {text!r}: {exc}") from exc
    raise CLIError("--domain takes a half-width or 'ximin,ximax,tmin,tmax'")


def _parse_lambdas(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        values = tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError as exc:
        raise CLIError(f"bad --lambdas value {text!r}: {exc}") from exc
    if not values:
        raise CLIError("--lambdas must list at least one value")
    return values


def _load_input(text: str | None) -> dict:
    if text is None:
        raise CLIError("this command needs --input (a JSON file path or inline JSON)")
    stripped = text.strip()
    try:
        if stripped.startswith("{"):
            data = json.loads(stripped)
        else:
            data = json.loads(Path(text).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CLIError(f"cannot read input: {exc}") from exc
    if not isinstance(data, dict):
        raise CLIError("input JSON must be an object")
    return data


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    resolution = args.grid if args.grid is not None else DEFAULT_RESOLUTION
    if not 2 <= resolution <= MAX_GRID_RESOLUTION:
        raise CLIError(f"--grid takes 2 to {MAX_GRID_RESOLUTION} samples per axis")
    if args.cap > MAX_CAP:
        raise CLIError(f"--cap takes at most {MAX_CAP}")
    grid = _parse_domain(args.domain, resolution)
    data = _load_input(args.input) if getattr(args, "input", None) is not None else None
    return RunConfig(
        command=args.command,
        data=data,
        cap=args.cap,
        order=args.order,
        grid=grid,
        out=None if args.out is None else Path(args.out),
        seed=args.seed,
        fmt=args.fmt,
        kind=getattr(args, "kind", None),
        a=getattr(args, "a", None),
        b=getattr(args, "b", None),
        mode=getattr(args, "mode", MODE_BEAKS),
        lambdas=_parse_lambdas(getattr(args, "lambdas", None)),
        mu1=getattr(args, "mu1", 0.0),
        mu2=getattr(args, "mu2", 0.0),
        rounds=getattr(args, "rounds", DEFAULT_ROUNDS),
        samples=getattr(args, "samples", DEFAULT_ORACLE_SAMPLES),
    )


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------


def cmd_classify(config: RunConfig) -> tuple[dict, int]:
    """Sort a family input into its singularity class."""
    try:
        family = family_from_mapping(config.data, config.cap)
    except NotTangentialError as exc:
        # A definite, correct verdict about the input, not a usage error:
        # the function describes a family that is not tangential.
        payload = {
            "variant": "NotTangential",
            "a": None,
            "projection_form_applicable": None,
            "branch": None,
            "order": None,
            "parameterization": None,
            "reason": str(exc),
        }
        return payload, EXIT_OK
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"bad family input: {exc}") from exc
    label = classify(family, config.order)
    payload = label.to_json()
    payload["reason"] = None
    code = EXIT_INDETERMINATE if label.variant == "IndeterminateAtOrder" else EXIT_OK
    return payload, code


def _require_modulus(config: RunConfig) -> Fraction:
    if config.a is None:
        raise CLIError(f"verify kind {config.kind!r} needs --a")
    return config.a


def cmd_verify(config: RunConfig) -> tuple[dict, int]:
    """Run one tangent-space check against its documented prediction.

    The exit code reports agreement with the prediction, not the raw
    outcome: a check that fails where failure is predicted exits 0, and
    a check that succeeds where failure is predicted exits 3.
    """
    cap = config.cap
    if config.kind == "fold-sufficiency":
        order = config.order if config.order is not None else 4
        basis = build_reduced_tangent_space(fold_form(cap), order)
        check = contains_ideal_block(basis, 2, 3, 2)
        predicted, measured = True, check.holds
        params: dict = {}
        detail = check.to_json()
    elif config.kind == "ideal-block":
        a = _require_modulus(config)
        b = config.b if config.b is not None else Fraction(1)
        order = config.order if config.order is not None else 6
        germ = double_umbrella_form(a, b, cap, validate=False)
        basis = build_extended_tangent_space(germ, order)
        check = contains_ideal_block(basis, 3, 5, 4)
        predicted, measured = a not in _EXCLUDED_MODULI, check.holds
        params = {"a": str(a), "b": str(b)}
        detail = check.to_json()
    elif config.kind == "miniversal":
        a = _require_modulus(config)
        b = config.b if config.b is not None else Fraction(1)
        order = config.order if config.order is not None else 6
        germ = double_umbrella_form(a, b, cap, validate=False)
        t = TruncatedPoly.variable(SOURCE_VARS, "t", cap)
        zero = TruncatedPoly.zero(SOURCE_VARS, cap)
        bump = t * t + t**3
        complement = [(zero, t, zero), (bump, zero, zero), (zero, bump, zero)]
        verdict = miniversality_check(germ, complement, order)
        predicted, measured = b != 0, bool(verdict["spans"])
        params = {"a": str(a), "b": str(b)}
        detail = verdict
    else:
        raise CLIError(f"unknown verify kind {config.kind!r}")
    agrees = predicted == measured
    payload = {
        "kind": config.kind,
        "params": params,
        "order": order,
        "predicted": predicted,
        "measured": measured,
        "agrees": agrees,
        "detail": detail,
    }
    return payload, EXIT_OK if agrees else EXIT_CONTRADICTS


def _envelope_target(config: RunConfig) -> MapGerm:
    data = config.data
    if "components" in data:
        others = [key for key in data if key != "components"]
        if others:
            raise CLIError(f"'components' cannot be combined with {others}; pass one form")
        texts = data["components"]
        if not isinstance(texts, (list, tuple)) or len(texts) != 2:
            raise CLIError("'components' must list exactly two polynomial texts")
        try:
            comps = tuple(
                TruncatedPoly.from_text(SOURCE_VARS, text, config.cap) for text in texts
            )
            return MapGerm(comps)
        except (TypeError, ValueError, ZeroDivisionError) as exc:
            raise CLIError(f"bad component: {exc}") from exc
    try:
        family = family_from_mapping(data, config.cap)
    except NotTangentialError as exc:
        raise CLIError(
            f"not a tangential family ({exc}); pass raw 'components' instead"
        ) from exc
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise CLIError(f"bad family input: {exc}") from exc
    xi = TruncatedPoly.variable(SOURCE_VARS, "xi", config.cap)
    t = TruncatedPoly.variable(SOURCE_VARS, "t", config.cap)
    return MapGerm((xi + t, family.u))


def cmd_envelope(config: RunConfig) -> tuple[dict, int]:
    """Trace the criminant, map it to the envelope, emit the picture."""
    target = _envelope_target(config)
    report = count_cusps(target, config.grid)
    envelope = envelope_curves(target, report.curves)
    fits = []
    for branch in envelope.branches:
        try:
            c = fit_cubic_coefficient(branch)
        except ValueError:
            c = None
        fits.append({"tag": branch.tag, "c": c})
    out = config.out if config.out is not None else Path("envelope.svg")
    emit_svg(envelope, out)
    payload = {
        "branches": envelope.branch_count,
        "cusps": report.count,
        "fits": fits,
        "note": None if envelope.branch_count else "no criminant in the window",
        "svg": str(out),
        "grid": config.grid.to_json(),
    }
    return payload, EXIT_OK


def cmd_sweep(config: RunConfig) -> tuple[dict, int]:
    """Deformation sweep of the two-parameter form: frames plus manifest."""
    b = config.b if config.b is not None else Fraction(1)
    try:
        germ = double_umbrella_form(config.a, b, config.cap)
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    lambdas = config.lambdas if config.lambdas is not None else default_sweep_lambdas()
    if config.mode == MODE_BEAKS and (config.mu1 != 0.0 or config.mu2 != 0.0):
        raise CLIError("--mu1/--mu2 apply in versal mode only")
    try:
        frames = deformation_sweep(
            germ,
            mode=config.mode,
            lambdas=lambdas,
            grid=config.grid,
            mu1=config.mu1,
            mu2=config.mu2,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    out = config.out if config.out is not None else Path("sweep-out")
    manifest = emit_sweep(frames, out)
    payload = {
        "directory": str(out),
        "cusp_counts": [frame.cusp_count for frame in frames],
        "manifest": manifest,
    }
    return payload, EXIT_OK


def cmd_selfcheck(config: RunConfig) -> tuple[dict, int]:
    """Seeded property suites; any recorded violation exits 3."""
    if config.rounds < 1 or config.samples < 1:
        raise CLIError("--rounds and --samples must be at least 1")
    results = run_all(config.seed, config.rounds, config.samples, config.cap)
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


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--cap", type=int, default=DEFAULT_CAP, help="jet truncation cap")
    common.add_argument("--order", type=int, default=None, help="working order (max cap-1)")
    common.add_argument("--grid", type=int, default=None, help="samples per axis")
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
    p.add_argument(
        "--a", type=Fraction, default=None,
        help="modulus a (exact, e.g. 1/5; write --a=-1/2 for negative values)",
    )
    p.add_argument("--b", type=Fraction, default=None, help="parameter b (exact)")

    p = sub.add_parser("envelope", parents=[common], help="trace criminant and envelope")
    p.add_argument("--input", required=True, help="JSON file path or inline JSON")

    p = sub.add_parser("sweep", parents=[common], help="deformation sweep with manifest")
    p.add_argument(
        "--a", type=Fraction, required=True,
        help="modulus a (exact; write --a=-1/2 for negative values)",
    )
    p.add_argument("--b", type=Fraction, default=None, help="parameter b (exact, default 1)")
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
        config = _config_from_args(args)
        payload, code = COMMANDS[config.command](config)
    except (CLIError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    rendered = _render(payload, config.fmt)
    if config.out is not None and config.command in ("classify", "verify", "selfcheck"):
        try:
            config.out.write_text(rendered, encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_MALFORMED
    else:
        sys.stdout.write(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
