"""Artifact emission: SVG curve plots, OBJ lift meshes, sweep manifests.

Every float that reaches a file goes through one fixed-width formatter,
and every JSON payload is serialized with sorted keys and a trailing
newline.  Identical inputs therefore give byte-identical artifacts,
which is what lets sweep manifests and tests pin outputs by content
instead of by tolerance.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Sequence

import numpy as np

from tanfam.geometry import LiftedSurface, PlaneCurveSet, SweepFrame

SVG_SIZE = 640
SVG_MARGIN = 24.0
CUSP_MARKER_RADIUS = 4.0

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _fmt(value: float) -> str:
    text = f"{float(value):.6f}"
    # A tiny negative rounds to "-0.000000"; normalize so the sign of an
    # invisible quantity cannot make two equal pictures differ in bytes.
    return "0.000000" if text == "-0.000000" else text


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _checked_path(path) -> Path:
    if path is None or str(path) == "":
        raise ValueError("output path is empty")
    return Path(path)


# ----------------------------------------------------------------------
# SVG
# ----------------------------------------------------------------------


def _world_bounds(curves: PlaneCurveSet) -> tuple[float, float, float, float]:
    xs: list[float] = []
    ys: list[float] = []
    for branch in curves.branches:
        for x, y in branch.points:
            xs.append(x)
            ys.append(y)
    for x, y in curves.cusps:
        xs.append(x)
        ys.append(y)
    if not xs:
        return -1.0, 1.0, -1.0, 1.0
    x_min, x_max = min(xs), max(xs)
    y_min, y_max = min(ys), max(ys)
    # Degenerate spans (a single point, or an axis-aligned segment) still
    # need a finite viewport.
    if x_max - x_min < 1e-12:
        x_min, x_max = x_min - 0.5, x_max + 0.5
    if y_max - y_min < 1e-12:
        y_min, y_max = y_min - 0.5, y_max + 0.5
    return x_min, x_max, y_min, y_max


def svg_document(curves: PlaneCurveSet) -> str:
    """Render a curve set as a standalone SVG 1.1 document, SVG_SIZE wide.

    One polyline per branch (palette color by branch position, tag kept
    as a data attribute), one circle per cusp.  The world box is fitted
    uniformly into the viewport with the y axis pointing up.  An empty
    curve set renders as a valid document with no paths.
    """
    x_min, x_max, y_min, y_max = _world_bounds(curves)
    span = max(x_max - x_min, y_max - y_min)
    scale = (SVG_SIZE - 2.0 * SVG_MARGIN) / span
    offset_x = (SVG_SIZE - (x_max - x_min) * scale) / 2.0
    offset_y = (SVG_SIZE - (y_max - y_min) * scale) / 2.0

    def place(x: float, y: float) -> tuple[float, float]:
        return (
            offset_x + (x - x_min) * scale,
            SVG_SIZE - offset_y - (y - y_min) * scale,
        )

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_SIZE}" height="{SVG_SIZE}" viewBox="0 0 {SVG_SIZE} {SVG_SIZE}">',
        '  <g fill="none" stroke-width="2">',
    ]
    for index, branch in enumerate(curves.branches):
        color = _PALETTE[index % len(_PALETTE)]
        points = " ".join(
            f"{_fmt(px)},{_fmt(py)}" for px, py in (place(x, y) for x, y in branch.points)
        )
        lines.append(
            f'    <polyline stroke="{color}" data-tag="{branch.tag}" points="{points}"/>'
        )
    lines.append("  </g>")
    if curves.cusps:
        lines.append('  <g fill="#000000" stroke="none">')
        for x, y in curves.cusps:
            px, py = place(x, y)
            lines.append(
                f'    <circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="{_fmt(CUSP_MARKER_RADIUS)}"/>'
            )
        lines.append("  </g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_svg(curves: PlaneCurveSet, path) -> Path:
    target = _checked_path(path)
    target.write_text(svg_document(curves), encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# OBJ
# ----------------------------------------------------------------------


def obj_document(surface: LiftedSurface) -> str:
    """Render a lifted surface as Wavefront OBJ (v and f records only).

    Vertices appear in xi-major grid order (index = i * nt + j, 1-based
    in the file), one per grid sample, so the face arithmetic is pure
    index bookkeeping.  The height is the affine slope p = dy/dx; at
    reciprocal-chart samples it is recovered as 1/q.  Samples where no
    finite slope exists (q = 0, or the invalid mask) still get a vertex
    record at height 0 to keep the indexing dense, but no face touches
    them.  Each fully placeable grid cell becomes two triangles.
    """
    nx = surface.grid.resolution_xi
    nt = surface.grid.resolution_t
    placeable = np.asarray(~surface.invalid, dtype=bool).copy()
    heights = np.zeros((nx, nt), dtype=float)
    affine = placeable & (surface.chart == 0)
    heights[affine] = surface.slope[affine]
    reciprocal = placeable & (surface.chart == 1)
    finite = reciprocal & (surface.slope != 0.0)
    heights[finite] = 1.0 / surface.slope[finite]
    placeable &= ~(reciprocal & ~finite)

    lines: list[str] = []
    for i in range(nx):
        for j in range(nt):
            lines.append(
                f"v {_fmt(surface.x[i, j])} {_fmt(surface.y[i, j])} {_fmt(heights[i, j])}"
            )
    for i in range(nx - 1):
        for j in range(nt - 1):
            if not (
                placeable[i, j]
                and placeable[i + 1, j]
                and placeable[i + 1, j + 1]
                and placeable[i, j + 1]
            ):
                continue
            v00 = i * nt + j + 1
            v10 = (i + 1) * nt + j + 1
            v11 = (i + 1) * nt + j + 2
            v01 = i * nt + j + 2
            lines.append(f"f {v00} {v10} {v11}")
            lines.append(f"f {v00} {v11} {v01}")
    return "\n".join(lines) + "\n"


def emit_obj(surface: LiftedSurface, path) -> Path:
    target = _checked_path(path)
    target.write_text(obj_document(surface), encoding="utf-8")
    return target


# ----------------------------------------------------------------------
# Sweep frames and manifest
# ----------------------------------------------------------------------


def emit_sweep(frames: Sequence[SweepFrame], directory) -> dict:
    """Write one JSON file per frame, frame-000.json on, plus a manifest.

    The manifest carries each frame's file name, deformation parameters
    and headline counts; the frame files hold the full payloads.  Both
    levels use sorted-key JSON so reruns are byte-identical.
    """
    base = _checked_path(directory)
    base.mkdir(parents=True, exist_ok=True)
    entries = []
    for index, frame in enumerate(frames):
        name = f"frame-{index:03d}.json"
        (base / name).write_text(_json_text(frame.to_json()), encoding="utf-8")
        entries.append(
            {
                "file": name,
                "params": frame.params.to_json(),
                "mode": frame.mode,
                "cusps": frame.cusp_count,
                "branches": frame.criminant.branch_count,
            }
        )
    manifest = {"count": len(entries), "frames": entries}
    (base / "manifest.json").write_text(_json_text(manifest), encoding="utf-8")
    return manifest
