"""Digest the canonical outputs of tanfam, one sha256 per case.

Runs tanfam.cli.main in-process on a fixed list of calls (classify at
the default order and at --order 1, classify of a family with a higher
tail and of one given by its u, verify for every kind, envelope of a
family given by u and of one given by k0, k1 and alpha, and both sweep
modes at --grid 64), each in JSON and in text.  It also builds the exact
tangent spaces of three germs, of the planar projection of the double
umbrella at a = 1/5, b = 1, of a generic double umbrella at orders 7-9,
and of the H and A branch lifts at caps 10 and 12, and evaluates the
float Jacobian determinant (PlanarMap.det) of three maps on one fixed
open mesh: the beaks frame at a = 1/5, b = 1, lambda = 0.1, the versal
frame at a = 1/10, b = 1, lambda = 0, mu = (0.028, 0.019), and a seeded
dense map.  A CLI case hashes its exit code, stdout, stderr and every
file it wrote; each call runs in a fresh temporary directory, so
relative output paths read the same on every run.  A library case
hashes the canonical matrix and the provenance of one space, with the
(3, 5, 4) block check of each umbrella order and the branch probe of
each lift, or the determinant's values on the mesh.  selfcheck is left
out: its payload holds timings.

Usage: PYTHONPATH=<tree>/src python tools/output_digest.py
Prints one "sha256  case" line per case.  Run it against two trees' src
and diff the outputs to see which cases a change moves.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path
from typing import Iterator

FAMILIES = {
    "TypeI": '{"u": "1 t^2"}',
    "A1Plus": '{"k0": "0", "k1": "1", "alpha": "1/2"}',
    "A1Minus": '{"u": "1 xi t^2"}',
    "HBranch": '{"k0": "0", "k1": "3", "alpha": "2"}',
    "ABranch": '{"k0": "0", "k1": "3", "alpha": "1"}',
    "IndeterminateAtOrder": '{"u": "1 t^4"}',
    "NotTangential": '{"u": "1 t"}',
}
# The other ways a family record is built: invariants with a tail, and
# the u of a second-type family.
MORE_FAMILIES = (
    '{"k0": "0", "k1": "1", "alpha": "1/2", "higher": "1/3 t^4 + -2 xi^2 t^3"}',
    '{"u": "1 xi t^2 + 1/2 t^3"}',
)


def cli_calls() -> Iterator[list[str]]:
    calls = [["classify", "--input", raw] for raw in FAMILIES.values()]
    calls += [call + ["--order", "1"] for call in calls]
    calls += [["classify", "--input", raw] for raw in MORE_FAMILIES]
    calls += [
        ["verify", "--kind", "fold-sufficiency"],
        ["verify", "--kind", "ideal-block", "--a", "1/5"],
        ["verify", "--kind", "miniversal", "--a", "1/5", "--b", "0"],
        ["envelope", "--input", FAMILIES["A1Minus"], "--grid", "64"],
        ["envelope", "--input", FAMILIES["A1Plus"], "--grid", "64"],
        ["sweep", "--a", "1/5", "--grid", "64"],
        ["sweep", "--a", "1/5", "--grid", "64", "--mode", "versal", "--mu1", "0.1"],
    ]
    for call in calls:
        for fmt in ("json", "text"):
            yield call + ["--format", fmt]


def _feed(digest, *chunks: bytes) -> None:
    # Length-prefixed, so no two different sequences of chunks collide.
    for chunk in chunks:
        digest.update(b"%d:" % len(chunk) + chunk)


def cli_digest(argv: list[str]) -> str:
    """sha256 over the exit code, stdout, stderr and written files of one call."""
    from tanfam.cli import main

    digest = hashlib.sha256()
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's own exits
                    code = exc.code
            _feed(digest, str(code).encode(), out.getvalue().encode(), err.getvalue().encode())
            for path in sorted(p for p in Path(".").rglob("*") if p.is_file()):
                _feed(digest, path.as_posix().encode(), path.read_bytes())
        finally:
            os.chdir(cwd)
    return digest.hexdigest()


def library_records() -> Iterator[tuple[str, dict]]:
    from tanfam import (
        KIND_FIBERED,
        KIND_FULL,
        build_extended_tangent_space,
        build_reduced_tangent_space,
        contains_ideal_block,
        double_umbrella_form,
        family_from_invariants,
        fold_form,
        legendrian_parameterization,
        probe_branch_index,
    )

    def record(basis) -> dict:
        return {"matrix": basis.canonical_matrix(), "provenance": list(basis.provenance)}

    germs = {
        "fold": fold_form(),
        "umbrella a=1/5 b=1": double_umbrella_form("1/5", "1"),
        "A-branch lift": legendrian_parameterization(family_from_invariants(0, 3, 1)),
    }
    for name, germ in germs.items():
        for kind in (KIND_FIBERED, KIND_FULL):
            yield f"{kind}-extended {name}", record(build_extended_tangent_space(germ, kind=kind))
        yield f"reduced {name}", record(build_reduced_tangent_space(germ))
    # A plane-to-plane germ: two slots, and only the extended spaces.
    planar = germs["umbrella a=1/5 b=1"].planar_projection()
    for kind in (KIND_FIBERED, KIND_FULL):
        basis = build_extended_tangent_space(planar, 7, kind)
        yield f"{kind}-extended umbrella a=1/5 b=1 planar projection order 7", record(basis)
    # The deep shapes: a generic umbrella at orders 7-9 with its (3, 5, 4)
    # block, and the H and A branch lifts with their probes.
    deep = double_umbrella_form("-37/11", "13/7", 10, validate=False)
    for order in (7, 8, 9):
        basis = build_extended_tangent_space(deep, order, KIND_FIBERED)
        # before the matrix, so the block back-eliminates from its own start
        block = contains_ideal_block(basis, 3, 5, 4)
        yield (
            f"{KIND_FIBERED}-extended umbrella a=-37/11 b=13/7 order {order} block (3, 5, 4)",
            {**record(basis), "block": block.to_json()},
        )
    for family, (k1, alpha) in {"H": (3, 2), "A": (3, 1)}.items():
        for cap in (10, 12):
            germ = legendrian_parameterization(family_from_invariants(0, k1, alpha, cap=cap))
            basis = build_extended_tangent_space(germ, kind=KIND_FULL)
            yield (
                f"{KIND_FULL}-extended {family}-branch lift cap {cap} probe",
                {**record(basis), "probe": probe_branch_index(germ, family).to_json()},
            )
    yield from determinant_records()


def determinant_records() -> Iterator[tuple[str, dict]]:
    """PlanarMap.det of three maps on one fixed open mesh, as floats."""
    import numpy as np

    from tanfam import (
        MODE_BEAKS,
        MODE_VERSAL,
        DeformationParams,
        GridSpec,
        PlanarMap,
        apply_deformation,
        double_umbrella_form,
    )

    maps = {
        "beaks a=1/5 b=1 lambda=0.1": apply_deformation(
            double_umbrella_form("1/5", "1"), DeformationParams(lam=0.1), MODE_BEAKS
        ),
        "versal a=1/10 b=1 lambda=0 mu=(0.028, 0.019)": apply_deformation(
            double_umbrella_form("1/10", "1"), DeformationParams(0.0, 0.028, 0.019), MODE_VERSAL
        ),
        "dense 9x9 seed 5": PlanarMap(*np.random.default_rng(5).normal(size=(2, 9, 9))),
    }
    mesh = GridSpec(-1.0, 0.9, -1.1, 1.0, 97, 89).mesh()
    for name, planar in maps.items():
        yield f"PlanarMap.det {name} on a 97x89 mesh", {"det": planar.det(*mesh).tolist()}


def library_digest(record: dict) -> str:
    """sha256 over one library record: the canonical matrix and the
    provenance of one space, with a block check or a probe where given,
    or the determinant's values on a mesh."""
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()


def digest_lines() -> Iterator[str]:
    for argv in cli_calls():
        yield f"{cli_digest(argv)}  tanfam {' '.join(argv)}"
    for name, record in library_records():
        yield f"{library_digest(record)}  {name}"


if __name__ == "__main__":
    for line in digest_lines():
        print(line, flush=True)
