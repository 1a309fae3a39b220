"""SVG / OBJ / sweep-archive emitters: structure, determinism, edge cases."""

from fractions import Fraction

import numpy as np
import pytest

from tanfam.emit import (
    CUSP_MARKER_RADIUS,
    SVG_SIZE,
    _fmt,
    emit_obj,
    emit_svg,
    emit_sweep,
    obj_document,
    svg_document,
)
from tanfam.families import double_umbrella_form
from tanfam.geometry import (
    Branch,
    DeformationParams,
    GridSpec,
    MODE_BEAKS,
    PlaneCurveSet,
    analyze_deformation,
    legendrian_lift,
    trace_criminant,
)
from tanfam.jets import MapGerm, SOURCE_VARS, TruncatedPoly

XI = TruncatedPoly.variable(SOURCE_VARS, "xi", 8)
T = TruncatedPoly.variable(SOURCE_VARS, "t", 8)


def _two_branch_set(with_cusp=False):
    line = Branch(points=((-1.0, 0.0), (0.0, 0.0), (1.0, 0.0)), tag="branch-0")
    arc = Branch(points=((-1.0, -1.0), (0.0, 0.5), (1.0, 1.0)), tag="branch-1")
    cusps = ((0.25, 0.5),) if with_cusp else ()
    return PlaneCurveSet(branches=(line, arc), cusps=cusps)


def test_fmt_normalizes_negative_zero():
    assert _fmt(-0.0) == "0.000000"
    assert _fmt(1.0 / 3.0) == "0.333333"
    assert _fmt(-2.5) == "-2.500000"


def test_svg_empty_set_is_valid_document():
    empty = trace_criminant(MapGerm((XI, T)), GridSpec.square(1.0, 16))
    doc = svg_document(empty)
    assert doc.startswith("<?xml")
    assert "<svg" in doc and doc.rstrip().endswith("</svg>")
    assert "<polyline" not in doc
    assert "<circle" not in doc


def test_svg_branches_and_cusps():
    doc = svg_document(_two_branch_set(with_cusp=True))
    assert doc.count("<polyline") == 2
    assert 'data-tag="branch-0"' in doc and 'data-tag="branch-1"' in doc
    assert doc.count("<circle") == 1
    assert f'r="{_fmt(CUSP_MARKER_RADIUS)}"' in doc or f'r="{CUSP_MARKER_RADIUS}"' in doc
    # distinct palette entries per branch
    strokes = [part.split('"')[1] for part in doc.split('stroke="')[1:]]
    assert len(set(strokes)) >= 2


def test_svg_cusp_group_only_when_present():
    without = svg_document(_two_branch_set(with_cusp=False))
    with_cusp = svg_document(_two_branch_set(with_cusp=True))
    assert with_cusp.count("<g ") == without.count("<g ") + 1


def test_svg_deterministic_and_sized():
    curves = _two_branch_set(with_cusp=True)
    assert svg_document(curves) == svg_document(curves)
    assert f'width="{SVG_SIZE}"' in svg_document(curves)


def test_emit_svg_writes_file(tmp_path):
    curves = _two_branch_set()
    out = emit_svg(curves, tmp_path / "curves.svg")
    assert out == tmp_path / "curves.svg"
    assert out.read_text() == svg_document(curves)
    with pytest.raises(ValueError):
        emit_svg(curves, "")


def test_obj_affine_lift_full_grid():
    surface = legendrian_lift(MapGerm((XI + T, T * T)), GridSpec.square(1.0, 4))
    doc = obj_document(surface)
    lines = doc.splitlines()
    vertex_lines = [l for l in lines if l.startswith("v ")]
    face_lines = [l for l in lines if l.startswith("f ")]
    assert len(vertex_lines) == 16  # 4 x 4 samples
    assert len(face_lines) == 18  # 3 x 3 cells, two triangles each
    # sample (xi, t) = (-1, -1): x = xi + t = -2, y = t^2 = 1, height = 2t = -2
    assert vertex_lines[0] == "v -2.000000 1.000000 -2.000000"
    indices = [int(tok) for l in face_lines for tok in l.split()[1:]]
    assert min(indices) == 1 and max(indices) == 16  # 1-based, all in range


def test_obj_reciprocal_chart_drops_flat_row():
    # x = t^2, y = t: the t = 0 row uses the reciprocal chart with q = 0,
    # which has no finite height, so the row and its 8 adjacent cells drop out
    surface = legendrian_lift(MapGerm((T * T, T)), GridSpec.square(1.0, 5))
    assert int(np.count_nonzero(surface.chart)) == 5
    doc = obj_document(surface)
    vertex_lines = [l for l in doc.splitlines() if l.startswith("v ")]
    face_lines = [l for l in doc.splitlines() if l.startswith("f ")]
    assert len(vertex_lines) == 25
    assert len(face_lines) == 16  # (4 x 4 cells) - 8 touching the dead row
    heights = [float(l.split()[3]) for l in vertex_lines]
    assert [heights[i * 5 + 2] for i in range(5)] == [0.0] * 5  # placeholder row
    assert heights[1] == pytest.approx(-1.0)  # t = -1/2: height 1/q = 1/(2t)


def test_obj_invalid_samples_drop_faces():
    # (t^2, t^3) has both t-derivatives vanishing along t = 0
    surface = legendrian_lift(MapGerm((T * T, T**3)), GridSpec.square(1.0, 5))
    assert surface.invalid_count == 5
    face_lines = [l for l in obj_document(surface).splitlines() if l.startswith("f ")]
    assert len(face_lines) == 16


def test_emit_obj_writes_file(tmp_path):
    surface = legendrian_lift(MapGerm((XI + T, T * T)), GridSpec.square(1.0, 4))
    out = emit_obj(surface, tmp_path / "lift.obj")
    assert out.read_text() == obj_document(surface)


def _small_frames():
    base = double_umbrella_form(Fraction(-1, 2), 1)
    grid = GridSpec.square(1.0, 32)
    return [
        analyze_deformation(base, DeformationParams(lam=lam), MODE_BEAKS, grid)
        for lam in (-0.1, 0.1)
    ]


def test_emit_sweep_layout(tmp_path):
    frames = _small_frames()
    manifest = emit_sweep(frames, tmp_path / "out")
    directory = tmp_path / "out"
    assert sorted(p.name for p in directory.iterdir()) == [
        "frame-000.json",
        "frame-001.json",
        "manifest.json",
    ]
    assert manifest["count"] == 2
    assert [entry["file"] for entry in manifest["frames"]] == [
        "frame-000.json",
        "frame-001.json",
    ]
    for entry, frame in zip(manifest["frames"], frames):
        assert entry["mode"] == MODE_BEAKS
        assert entry["cusps"] == frame.cusp_count
        assert entry["params"]["lambda"] == frame.params.lam
        assert entry["branches"] == frame.criminant.branch_count
    import json

    on_disk = json.loads((directory / "manifest.json").read_text())
    assert on_disk == manifest


def test_emit_sweep_byte_stable(tmp_path):
    frames = _small_frames()
    emit_sweep(frames, tmp_path / "a")
    emit_sweep(frames, tmp_path / "b")
    for name in ("manifest.json", "frame-000.json", "frame-001.json"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second
        assert first.endswith(b"\n")
