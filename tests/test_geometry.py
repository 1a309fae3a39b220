"""Envelope geometry: criminant tracing, cusp counting, lifts, sweeps.

Resolution-dependent assertions pin the measured behavior at the stated
grids; analytic comparisons (exact determinants, cusp positions of the
deformed two-parameter form) come from closed-form elimination.
"""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tanfam.families import double_umbrella_form, fold_form
from tanfam.geometry import (
    _CASE_EDGES,
    _SHARP_TURN_DEGREES,
    CHART_EPSILON,
    DEFAULT_RESOLUTION,
    Branch,
    DeformationParams,
    GridSpec,
    MODE_BEAKS,
    MODE_VERSAL,
    PlanarMap,
    PlaneCurveSet,
    analyze_deformation,
    apply_deformation,
    as_planar_map,
    coefficient_array,
    count_cusps,
    default_sweep_lambdas,
    deformation_sweep,
    envelope_curves,
    fit_cubic_coefficient,
    jacobian_det,
    legendrian_lift,
    trace_criminant,
    _cell_segments,
    _chains,
    _evaluate,
    _march,
    _own_axes,
    _turn_candidates,
    _turn_degrees,
)
from tanfam.jets import MapGerm, SOURCE_VARS, TruncatedPoly

XI = TruncatedPoly.variable(SOURCE_VARS, "xi", 8)
T = TruncatedPoly.variable(SOURCE_VARS, "t", 8)

TYPE_I = MapGerm((XI + T, T * T))
TYPE_II = MapGerm((XI + T, T * T * XI))
# the float benchmark's lift input: d_x is the constant 1
ADAPTED = MapGerm((XI + T, TruncatedPoly.from_text(SOURCE_VARS, "1/2 xi t^2 + 3/2 t^3", 8)))
# det = 2 t + 2 xi^4 t - 20 xi^3 t^6, of degree 9 > cap 8
HIGH_DEGREE = MapGerm(
    (
        TruncatedPoly.from_text(SOURCE_VARS, "1 xi + 1 t^5"),
        TruncatedPoly.from_text(SOURCE_VARS, "1 t^2 + 1 xi^4 t^2"),
    )
)
# det = xi^2 + t^2 - 1/4: the criminant is the circle of radius 1/2
CIRCLE = MapGerm((XI, TruncatedPoly.from_text(SOURCE_VARS, "1/3 t^3 + 1 xi^2 t + -1/4 t", 8)))
BEAKS_FRAME = apply_deformation(
    double_umbrella_form(Fraction(1, 5), 1), DeformationParams(lam=0.1), MODE_BEAKS
)


# ---------------------------------------------------------------------------
# grids and coefficient plumbing


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, -1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        GridSpec(resolution_xi=1)
    with pytest.raises(ValueError, match="finite"):
        GridSpec.square(math.inf)
    with pytest.raises(ValueError, match="finite"):
        GridSpec(-1.0, 1.0, -1.0, math.inf)
    grid = GridSpec.square(2.0, 5)
    assert grid.xi_min == -2.0 and grid.t_max == 2.0
    assert grid.resolution_xi == grid.resolution_t == 5
    assert grid.cell_diagonal() == pytest.approx(math.hypot(1.0, 1.0))
    assert grid.to_json() == {"domain": [[-2.0, 2.0], [-2.0, 2.0]], "resolution": [5, 5]}
    assert GridSpec().resolution_xi == DEFAULT_RESOLUTION


def test_coefficient_array_layout():
    p = TruncatedPoly.from_text(SOURCE_VARS, "3 xi^2 t + -1/2 t^4")
    c = coefficient_array(p)
    assert c.shape == (9, 9)
    assert c[2, 1] == 3.0
    assert c[0, 4] == -0.5
    assert np.count_nonzero(c) == 2


def test_planar_map_evaluation():
    planar = PlanarMap.from_germ(TYPE_II)
    x, y = planar(0.5, 0.25)
    assert x == pytest.approx(0.75)
    assert y == pytest.approx(0.25**2 * 0.5)
    j11, j12, j21, j22 = planar.jacobian(0.5, 0.25)
    assert j11 == pytest.approx(1.0) and j12 == pytest.approx(1.0)
    assert j21 == pytest.approx(0.25**2)
    assert j22 == pytest.approx(2 * 0.25 * 0.5)
    assert planar.det(0.5, 0.25) == pytest.approx(j11 * j22 - j12 * j21)


def test_as_planar_map_accepts_various_inputs():
    assert isinstance(as_planar_map(TYPE_I), PlanarMap)
    assert isinstance(as_planar_map((TYPE_I[0], TYPE_I[1])), PlanarMap)
    planar = PlanarMap.from_germ(TYPE_I)
    assert as_planar_map(planar) is planar
    deformed = apply_deformation(double_umbrella_form(Fraction(-1, 2), 1), DeformationParams())
    assert isinstance(deformed, PlanarMap)
    assert as_planar_map(deformed) is deformed
    with pytest.raises(TypeError):
        as_planar_map(42)


def test_planar_map_on_open_mesh_matches_dense_polyval2d():
    """Grid evaluation on GridSpec.mesh() is bit-for-bit numpy's polyval2d."""
    umbrella = double_umbrella_form(Fraction(1, 5), 1)
    rng = np.random.default_rng(11)
    maps = [
        apply_deformation(umbrella, DeformationParams(lam=0.1), MODE_BEAKS),
        apply_deformation(umbrella, DeformationParams(lam=-0.05, mu1=0.03, mu2=0.02)),
        PlanarMap(rng.normal(size=(4, 6)), rng.normal(size=(5, 3))),
    ]
    grid = GridSpec(-1.0, 0.5, -0.75, 1.0, resolution_xi=23, resolution_t=17)
    open_xi, open_t = grid.mesh()
    assert open_xi.shape == (23, 1) and open_t.shape == (1, 17)
    dense_xi, dense_t = np.meshgrid(grid.xi_samples(), grid.t_samples(), indexing="ij")
    for planar in maps:
        derivatives = [
            np.polynomial.polynomial.polyder(c, axis=axis)
            for c in (planar.c1, planar.c2)
            for axis in (0, 1)
        ]
        expected_jacobian = [
            np.polynomial.polynomial.polyval2d(dense_xi, dense_t, d) for d in derivatives
        ]
        expected_values = [
            np.polynomial.polynomial.polyval2d(dense_xi, dense_t, c)
            for c in (planar.c1, planar.c2)
        ]
        for got, want in zip(planar(open_xi, open_t), expected_values):
            assert np.array_equal(got, want)
        for got, want in zip(planar.jacobian(open_xi, open_t), expected_jacobian):
            assert np.array_equal(got, want)
        j11, j12, j21, j22 = expected_jacobian
        assert np.array_equal(planar.det(open_xi, open_t), j11 * j22 - j12 * j21)


def _padded(c, rows, cols):
    """c in the top-left corner of a larger array of +0.0."""
    out = np.zeros((c.shape[0] + rows, c.shape[1] + cols))
    out[: c.shape[0], : c.shape[1]] = c
    return out


def _assert_same_bits(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _random_coefficients(rng, shape):
    c = rng.normal(size=shape)
    c[rng.random(shape) < 0.3] = 0.0
    return c


_TRIM_RNG = np.random.default_rng(29)
_TRIM_CASES = {
    "random": (_random_coefficients(_TRIM_RNG, (4, 3)), _random_coefficients(_TRIM_RNG, (3, 4))),
    "zero-1x1": (np.zeros((1, 1)), np.zeros((1, 1))),
    "t-constant": (_TRIM_RNG.normal(size=(4, 1)), _TRIM_RNG.normal(size=(2, 1))),
    "xi-constant": (_TRIM_RNG.normal(size=(1, 4)), _TRIM_RNG.normal(size=(1, 2))),
    "negative-zeros": (np.full((2, 1), -0.0), np.array([[0.0, 1.5, -0.0], [-0.0, 0.0, 0.0]])),
}


@pytest.mark.parametrize("case", sorted(_TRIM_CASES))
@pytest.mark.parametrize("pad", [(5, 6), (0, 4), (3, 0)])
def test_zero_padding_leaves_evaluation_bit_identical(case, pad):
    """Padded and compact coefficients give the same bits and shapes.

    The padded values must also equal a full Horner pass over every
    padded coefficient, the evaluation before trailing zeros were trimmed.
    """
    c1, c2 = _TRIM_CASES[case]
    compact = PlanarMap(c1, c2)
    padded = PlanarMap(_padded(c1, *pad), _padded(c2, *pad))
    assert padded.c1.shape == (c1.shape[0] + pad[0], c1.shape[1] + pad[1])
    grid = GridSpec(-1.3, 0.9, -0.8, 1.1, resolution_xi=29, resolution_t=13)
    rng = np.random.default_rng(3)
    scattered = [
        np.concatenate([rng.uniform(-1.5, 1.5, 40), [0.0, -0.0, 0.0, -0.0]]),
        np.concatenate([rng.uniform(-1.5, 1.5, 40), [0.0, 0.0, -0.0, -0.0]]),
    ]
    polyval = np.polynomial.polynomial.polyval
    for xi, t in (grid.mesh(), GridSpec.square(1.0, 21).mesh(), scattered):
        for got, c in zip(padded(xi, t), (padded.c1, padded.c2)):
            _assert_same_bits(got, polyval(t, polyval(xi, c), tensor=False))
        for got, want in zip(padded(xi, t), compact(xi, t)):
            _assert_same_bits(got, want)
        for got, want in zip(padded.jacobian(xi, t), compact.jacobian(xi, t)):
            _assert_same_bits(got, want)
        _assert_same_bits(padded.det(xi, t), compact.det(xi, t))
    lift_padded, lift_compact = legendrian_lift(padded, grid), legendrian_lift(compact, grid)
    for name in ("x", "y", "slope", "chart", "invalid", "d_x", "d_y"):
        _assert_same_bits(getattr(lift_padded, name), getattr(lift_compact, name))


# ---------------------------------------------------------------------------
# grid kernels against the formulations they replaced


def _reference_evaluate(c, xi, t):
    """numpy's polyval in xi, then in t, each Horner step a new array."""
    polyval = np.polynomial.polynomial.polyval
    return polyval(t, polyval(xi, c), tensor=False)


def _reference_jacobian(planar, xi, t):
    derivatives = (planar._d1_xi, planar._d1_t, planar._d2_xi, planar._d2_t)
    return [_reference_evaluate(d, xi, t) for d in derivatives]


def _reference_lift(planar, grid, epsilon):
    """Slope, chart and invalid mask by boolean indexing."""
    xi, t = grid.mesh()
    _, d_x, _, d_y = _reference_jacobian(planar, xi, t)
    invalid = (d_x == 0.0) & (d_y == 0.0)
    reciprocal = (np.abs(d_x) < epsilon * np.abs(d_y)) & ~invalid
    slope = np.zeros_like(d_x)
    affine = ~reciprocal & ~invalid
    slope[affine] = d_y[affine] / d_x[affine]
    slope[reciprocal] = d_x[reciprocal] / d_y[reciprocal]
    chart = np.zeros(d_x.shape, dtype=np.uint8)
    chart[reciprocal] = 1
    return {"slope": slope, "chart": chart, "invalid": invalid, "d_x": d_x, "d_y": d_y}


def _reference_cell_segments(values):
    """Segments and ambiguous edges with the cells found by 2-D nonzero."""
    n, m = values.shape
    signs = (values >= 0.0).astype(np.uint8)
    case = signs[:-1, :-1] | signs[1:, :-1] << 1 | signs[1:, 1:] << 2 | signs[:-1, 1:] << 3
    offsets = np.array([0, m, n * m, n * m + 1])
    ambiguous = (case == 5) | (case == 10)
    i, j = np.nonzero((case != 0) & (case != 15) & ~ambiguous)
    segments = (i * m + j)[:, None] + offsets[_CASE_EDGES[case[i, j]]]
    i, j = np.nonzero(ambiguous)
    return segments, set(((i * m + j)[:, None] + offsets).ravel().tolist())


def _assert_same_value(got, want):
    """Same type (array or numpy scalar), shape and bits."""
    assert type(got) is type(want)
    _assert_same_bits(got, want)


_KERNEL_RNG = np.random.default_rng(41)
_SIGNED_ZEROS = np.array([[0.0, -0.0, 1.25], [-0.0, -0.0, 0.0], [-2.5, 0.0, -0.0]])
_KERNEL_MAPS = {
    "beaks": BEAKS_FRAME,
    "versal": apply_deformation(
        double_umbrella_form(Fraction(1, 10), 1), DeformationParams(0.01, 0.028, 0.019)
    ),
    "random": PlanarMap(
        _random_coefficients(_KERNEL_RNG, (5, 4)), _random_coefficients(_KERNEL_RNG, (3, 6))
    ),
    "signed-zeros": PlanarMap(_SIGNED_ZEROS, -_SIGNED_ZEROS.T),
    # -0.0 + t * 0 is +0.0 for t >= 0: the t pass must start with that sum
    "negative-zero": PlanarMap(np.array([[-0.0]]), np.array([[-0.0, 0.0, -0.0]])),
    "crossing": as_planar_map(TYPE_II),
}
_SCATTERED = np.array([0.5, -0.0, 0.0, -1.25, 0.75, -0.0, 1e-300, -3.0])
_KERNEL_SAMPLES = {
    "open-square": GridSpec.square(1.0, 33).mesh(),
    "open-wide": GridSpec(-1.3, 0.9, -0.8, 1.1, 7, 41).mesh(),
    "open-tall": GridSpec(-1.3, 0.9, -0.8, 1.1, 41, 2).mesh(),
    "dense": np.meshgrid(np.linspace(-1, 1, 9), np.linspace(-0.5, 2, 5), indexing="ij"),
    "scattered": (_SCATTERED, _SCATTERED[::-1].copy()),
    "scalars": (0.5, -0.25),
    "signed-zero-scalars": (-0.0, 0.0),
    "scalar-and-row": (-0.0, _SCATTERED),
}


@pytest.mark.parametrize("samples", sorted(_KERNEL_SAMPLES))
@pytest.mark.parametrize("name", sorted(_KERNEL_MAPS))
def test_grid_kernels_match_the_polyval_reference(name, samples):
    """Values, Jacobian and determinant keep the bits of the old formulas."""
    planar = _KERNEL_MAPS[name]
    xi, t = _KERNEL_SAMPLES[samples]
    for got, c in zip(planar(xi, t), (planar.c1, planar.c2)):
        _assert_same_value(got, _reference_evaluate(c, xi, t))
    want = _reference_jacobian(planar, xi, t)
    for got, expected in zip(planar.jacobian(xi, t), want):
        _assert_same_value(got, expected)
    j11, j12, j21, j22 = want
    _assert_same_value(planar.det(xi, t), j11 * j22 - j12 * j21)


def test_determinant_keeps_its_bits_where_it_overflows():
    planar = as_planar_map(MapGerm((XI + T, XI * T * T)))
    xi, t = GridSpec.square(1e160, 16).mesh()
    with np.errstate(over="ignore", invalid="ignore"):
        j11, j12, j21, j22 = _reference_jacobian(planar, xi, t)
        want = j11 * j22 - j12 * j21
        got = planar.det(xi, t)
    assert not np.isfinite(want).all()
    _assert_same_value(got, want)
    # still refused, and numpy's warnings stay inside trace_criminant
    with pytest.raises(ValueError, match="not finite"):
        trace_criminant(planar, GridSpec(-1e160, 1e160, -1e159, 1e161, 16, 11))


def _full_grid_det(planar, xi, t):
    """PlanarMap.det as it was before entries got their own axes: all four
    entries over the full broadcast grid, in three grids."""
    shape = np.broadcast_shapes(np.shape(xi), np.shape(t))
    det, other = np.empty(shape), np.empty(shape)
    _evaluate(planar._d1_xi, xi, t, out=det)
    _evaluate(planar._d2_t, xi, t, out=other)
    np.multiply(det, other, out=det)
    _evaluate(planar._d1_t, xi, t, out=other)
    np.multiply(other, _evaluate(planar._d2_xi, xi, t), out=other)
    np.subtract(det, other, out=det)
    return det[()]


# Signed zeros and small integers make exact cancellations and zero
# products, where the sign of a zero decides the bits.
_COEFFICIENT = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, -3.0]),
    st.floats(-1e3, 1e3),
    st.floats(allow_nan=False, allow_infinity=False),  # overflows to inf and NaN
)
_SAMPLE = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
    st.floats(-3.0, 3.0),
    st.sampled_from([math.inf, -math.inf, math.nan, 1e300]),
)


@st.composite
def _coefficient_arrays(draw):
    """Up to 4 x 4, so the derivatives take every shape down to 1 x 1."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    values = draw(st.lists(_COEFFICIENT, min_size=rows * cols, max_size=rows * cols))
    return np.array(values, dtype=float).reshape(rows, cols)


@st.composite
def _sample_sets(draw):
    """Open meshes, equal-shape scattered points (1-D and 2-D) or scalars."""
    kind = draw(st.sampled_from(["open", "scattered", "scattered-2d", "scalars"]))
    if kind == "scalars":
        return draw(_SAMPLE), draw(_SAMPLE)
    n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    shapes = {"open": ((n, 1), (1, m)), "scattered": ((n,), (n,)), "scattered-2d": ((n, m),) * 2}
    arrays = []
    for shape in shapes[kind]:
        size = math.prod(shape)
        values = draw(st.lists(_SAMPLE, min_size=size, max_size=size))
        arrays.append(np.array(values).reshape(shape))
    return tuple(arrays)


_MIXED_SIGNS = (np.array([[-1.0], [1.0]]), np.array([[-1.0, 1.0]]))


@settings(database=None, deadline=None, max_examples=400)
@given(_coefficient_arrays(), _coefficient_arrays(), _sample_sets())
# A constant -0.0 entry, -0.0 + xi * 0 + t * 0, is -0.0 only where xi and t
# are both negative, so it must not be read from the first sample alone
@example(np.array([[0.0], [-0.0]]), np.array([[0.0, 1.0]]), _MIXED_SIGNS)  # j11
@example(np.array([[1.0, -0.0]]), np.array([[0.0, 1.0], [-0.0, 0.0]]), _MIXED_SIGNS)  # j12, j21
def test_own_axes_determinant_matches_the_full_grid_reference(c1, c2, samples):
    """On a finite open mesh each Jacobian entry on its own axes, broadcast,
    has the full-grid bits; on every kind of samples the determinant has
    the bits of the full-grid formulation."""
    xi, t = samples
    shape = np.broadcast_shapes(np.shape(xi), np.shape(t))
    open_mesh = np.ndim(xi) == np.ndim(t) == 2 and np.shape(xi)[1] == np.shape(t)[0] == 1
    mesh = open_mesh and np.isfinite(xi).all() and np.isfinite(t).all()
    with np.errstate(all="ignore"):
        planar = PlanarMap(c1, c2)
        for c in (planar._d1_xi, planar._d1_t, planar._d2_xi, planar._d2_t):
            own = _own_axes(c, xi, t, mesh)
            got = np.broadcast_to(_evaluate(c, *own), shape)
            _assert_same_bits(got, _evaluate(c, xi, t))
        _assert_same_value(planar.det(xi, t), _full_grid_det(planar, xi, t))


# (t^2, t^3) at epsilon 1 has affine, reciprocal and invalid samples on this grid
@pytest.mark.parametrize(
    "target, epsilon",
    [(BEAKS_FRAME, CHART_EPSILON), (MapGerm((T * T, T**3)), 1.0), (MapGerm((T * T, T)), 0.5),
     (_KERNEL_MAPS["random"], 0.3), (_KERNEL_MAPS["signed-zeros"], 2.0),
     (ADAPTED, CHART_EPSILON),
     (MapGerm((XI * XI * T + T, T**3 - XI * T)), 0.5)],
    ids=["beaks", "invalid-row", "vertical", "random", "signed-zeros", "adapted", "dx-of-xi"],
)
def test_lift_matches_the_boolean_index_reference(target, epsilon):
    """Bits of every field; each a full-grid, C-ordered, writeable array
    that owns its data, also where an entry depends on one axis or none
    (d_x is 1 for the adapted family and 1 + xi^2 for dx-of-xi)."""
    planar = as_planar_map(target)
    grid = GridSpec(-1.0, 0.6, -1.0, 1.0, 37, 41)  # t = 0 is a sample
    lift = legendrian_lift(planar, grid, epsilon)
    want = _reference_lift(planar, grid, epsilon)
    for key, expected in want.items():
        _assert_same_value(getattr(lift, key), expected)
    x, y = (_reference_evaluate(c, *grid.mesh()) for c in (planar.c1, planar.c2))
    _assert_same_value(lift.x, x)
    _assert_same_value(lift.y, y)
    for key in ("x", "y", "slope", "chart", "invalid", "d_x", "d_y"):
        flags = getattr(lift, key).flags
        assert getattr(lift, key).shape == (37, 41), key
        assert flags.c_contiguous and flags.writeable and flags.owndata, key


@pytest.mark.parametrize("shape", [(2, 2), (2, 9), (9, 2), (31, 17), (64, 64)])
def test_cell_segments_match_the_two_dimensional_nonzero(shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    grids = [
        rng.normal(size=shape),
        rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape),  # ambiguous cells and signed zeros
        np.where(rng.random(shape) < 0.5, 1.0, -1.0),
    ]
    xi, t = GridSpec(-1.0, 1.0, -0.5, 0.5, *shape).mesh()
    grids.append(BEAKS_FRAME.det(xi, t))
    for values in grids:
        got_segments, got_edges = _cell_segments(values)
        want_segments, want_edges = _reference_cell_segments(values)
        _assert_same_value(got_segments, want_segments)
        assert got_edges == want_edges


def _reference_march(values, xi, t):
    """Chains of edge ids and (points, closed, loose_start, loose_end) per
    curve, from per-edge neighbour lists in a dict."""
    n, m = values.shape
    segments, junction_edges = _reference_cell_segments(values)
    neighbours = {}
    for a, b in segments.tolist():
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)
    chains = []
    seen = set()
    path_ends = sorted(node for node, near in neighbours.items() if len(near) == 1)
    for start in path_ends + sorted(neighbours):
        if start in seen:
            continue
        chain = [start]
        seen.add(start)
        previous, node = start, min(neighbours[start])
        while True:
            chain.append(node)
            seen.add(node)
            near = neighbours[node]
            if node == start or len(near) == 1:
                break
            previous, node = node, near[0] if near[1] == previous else near[1]
        chains.append(chain)
    curves = []
    for chain in chains:
        ids = np.array(chain)
        along_t = ids < n * m
        i, j = np.divmod(np.where(along_t, ids, ids - n * m), m)
        i2 = np.where(along_t, i, i + 1)
        j2 = np.where(along_t, j + 1, j)
        va = values[i, j]
        s = va / (va - values[i2, j2])
        xs = np.where(along_t, xi[i], xi[i] + s * (xi[i2] - xi[i]))
        ts = np.where(along_t, t[j] + s * (t[j2] - t[j]), t[j])
        closed = chain[0] == chain[-1]
        loose_start = not closed and chain[0] in junction_edges
        loose_end = not closed and chain[-1] in junction_edges
        curves.append((np.stack([xs, ts], axis=1), closed, loose_start, loose_end))
    return chains, curves


def _march_grids():
    """(values, xi, t) by name: seeded, signed-zero, shaped and constant grids."""
    grids = []
    for shape in [(2, 2), (2, 9), (9, 2), (31, 17), (64, 64)]:
        rng = np.random.default_rng(shape[0] * 100 + shape[1] + 7)
        xi, t = GridSpec(-1.0, 1.0, -0.5, 0.5, *shape).mesh()
        grids.append((f"normal-{shape}", rng.normal(size=shape), xi, t))
        # ambiguous cells, signed zeros and zero samples shared by several edges
        grids.append((f"zeros-{shape}", rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape), xi, t))
    xi, t = GridSpec.square(1.0, 41).mesh()
    grids += [
        ("circle", xi * xi + t * t - 0.25, xi, t),
        # two lines crossing at the centre of a cell, which is ambiguous
        ("node", (t - 0.025 - 0.9 * (xi - 0.025)) * (t - 0.025 + 1.1 * (xi - 0.025)), xi, t),
        ("border", xi + t * t - 0.3, xi, t),  # paths from border to border
        ("positive", xi * xi + t * t + 1.0, xi, t),
        ("row-pair", np.array([[1.0, -1.0, 1.0, -1.0, 1.0], [1.0, 1.0, -1.0, -1.0, 1.0]]),
         *GridSpec(0.0, 1.0, 0.0, 1.0, 2, 5).mesh()),
        ("column-pair", np.array([[1.0, -1.0], [-1.0, 1.0], [1.0, 1.0], [-1.0, 1.0], [1.0, -1.0]]),
         *GridSpec(0.0, 1.0, 0.0, 1.0, 5, 2).mesh()),
    ]
    return [pytest.param(*grid, id=grid[0]) for grid in grids]


@pytest.mark.parametrize("name, values, xi, t", _march_grids())
def test_march_matches_the_dict_walk_reference(name, values, xi, t):
    xi, t = xi.ravel(), t.ravel()
    want_chains, want_curves = _reference_march(values, xi, t)
    ids, lengths = _chains(_cell_segments(values)[0])
    assert lengths == [len(chain) for chain in want_chains]
    assert ids.tolist() == [edge for chain in want_chains for edge in chain]
    got = _march(values, xi, t)
    assert len(got) == len(want_curves)
    for curve, (points, closed, loose_start, loose_end) in zip(got, want_curves):
        _assert_same_bits(np.array(curve.points).reshape(-1, 2), points)
        assert (curve.closed, curve.loose_start, curve.loose_end) == (closed, loose_start, loose_end)
    if name == "positive":
        assert got == []
    if name == "circle":
        assert [curve.closed for curve in got] == [True]
    if name == "node":  # four arms, each with a loose end at the crossing
        assert sum(curve.loose_start + curve.loose_end for curve in got) == 4


def test_turn_prefilter_passes_every_sharp_turn():
    """Every vertex _turn_degrees would cut is a candidate, at any scale."""
    rng = np.random.default_rng(8)
    polylines = []
    for scale in (1e-150, 1e-3, 1.0, 1e150):
        steps = rng.normal(size=(400, 2)) * rng.uniform(0.01, 1.0, size=(400, 1))
        steps[rng.random(400) < 0.05] = 0.0  # repeated points
        polylines.append(np.cumsum(steps, axis=0) * scale)
        # turns of 20 to 40 degrees, around the 0.9 cosine and the 35 degree cut
        angles = np.cumsum(np.radians(rng.uniform(20.0, 40.0, size=200)))
        unit = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        polylines.append(np.cumsum(unit, axis=0) * scale)
    for pts in polylines:
        pts = [tuple(p) for p in pts.tolist()]
        candidates = _turn_candidates(pts)
        sharp = [
            k
            for k in range(1, len(pts) - 1)
            if _turn_degrees(pts[k - 1], pts[k], pts[k + 1]) > _SHARP_TURN_DEGREES
        ]
        assert sharp and set(sharp) <= set(candidates)
        assert candidates == sorted(candidates)
        # what the filter drops turns by less than 26 degrees
        for k in set(range(1, len(pts) - 1)) - set(candidates):
            assert _turn_degrees(pts[k - 1], pts[k], pts[k + 1]) < 26.0


# ---------------------------------------------------------------------------
# Jacobian determinants


def test_jacobian_det_exact_forms():
    det2, _ = jacobian_det(TYPE_II)
    assert det2 == TruncatedPoly.from_text(SOURCE_VARS, "2 xi t + -1 t^2")
    det1, _ = jacobian_det(TYPE_I)
    assert det1 == TruncatedPoly.from_text(SOURCE_VARS, "2 t")
    # three-component germs are projected first
    det3, _ = jacobian_det(fold_form(8))
    assert det3 == TruncatedPoly.from_text(SOURCE_VARS, "2 t")
    # the determinant is not truncated at the cap of its inputs
    det4, _ = jacobian_det(HIGH_DEGREE)
    assert det4.coefficient((3, 6)) == -20
    assert det4 == TruncatedPoly.from_text(SOURCE_VARS, "2 t + 2 xi^4 t + -20 xi^3 t^6", 14)


def test_jacobian_det_evaluator_matches_exact():
    for target in (TYPE_II, HIGH_DEGREE):
        det, evaluate = jacobian_det(target)
        for xi, t in [(0.3, -0.7), (0.0, 0.5), (-1.0, 1.0), (0.7, 0.9)]:
            exact = float(det.evaluate((Fraction(str(xi)), Fraction(str(t)))))
            assert evaluate(xi, t) == pytest.approx(exact, abs=1e-12)


def test_jacobian_matches_finite_differences():
    """Symbolic Jacobian vs centered differences: 1e-6 relative at step 1e-5."""
    deformed = apply_deformation(
        double_umbrella_form(Fraction(-1, 2), 1),
        DeformationParams(lam=0.1),
        MODE_BEAKS,
    )
    planar = deformed
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.0, 1.0, size=(100, 2))
    h = 1e-5
    xi, t = pts[:, 0], pts[:, 1]
    j11, j12, j21, j22 = planar.jacobian(xi, t)
    fd = [
        ((planar(xi + h, t)[0] - planar(xi - h, t)[0]) / (2 * h), j11),
        ((planar(xi, t + h)[0] - planar(xi, t - h)[0]) / (2 * h), j12),
        ((planar(xi + h, t)[1] - planar(xi - h, t)[1]) / (2 * h), j21),
        ((planar(xi, t + h)[1] - planar(xi, t - h)[1]) / (2 * h), j22),
    ]
    worst = max(
        float(np.max(np.abs(approx - exact) / np.maximum(1.0, np.abs(exact))))
        for approx, exact in fd
    )
    assert worst < 1e-6


# ---------------------------------------------------------------------------
# criminant tracing


def test_trace_type_one_single_branch_on_axis():
    curves = trace_criminant(TYPE_I, GridSpec.square(1.0, 128))
    assert curves.branch_count == 1
    pts = curves.branches[0].as_array()
    assert np.max(np.abs(pts[:, 1])) < 1e-9  # the line t = 0
    assert pts[:, 0].min() == pytest.approx(-1.0)
    assert pts[:, 0].max() == pytest.approx(1.0)


def test_trace_type_two_recovers_both_lines():
    grid = GridSpec.square(1.0, 256)
    curves = trace_criminant(TYPE_II, grid)
    assert curves.branch_count == 2
    deviations = []
    for branch in curves.branches:
        pts = branch.as_array()
        deviations.append(
            (
                float(np.max(np.abs(pts[:, 1]))),  # distance from t = 0
                float(np.max(np.abs(pts[:, 1] - 2 * pts[:, 0]))),  # from t = 2 xi
            )
        )
    # One branch per line, each straight through the crossing at the origin.
    # Vertices come from linear interpolation along cell edges, so the
    # placement error stays below a cell diagonal but not much below.
    axis = min(deviations, key=lambda d: d[0])
    slanted = min(deviations, key=lambda d: d[1])
    assert axis[0] < grid.cell_diagonal()
    assert slanted[1] < grid.cell_diagonal()
    assert axis is not slanted


def test_trace_constant_det_is_empty():
    shear = MapGerm((XI, T))  # det = 1 everywhere
    curves = trace_criminant(shear, GridSpec.square(1.0, 64))
    assert curves.branch_count == 0
    assert envelope_curves(shear, curves).branch_count == 0
    assert count_cusps(shear, GridSpec.square(1.0, 64)).count == 0


def test_trace_rejects_a_determinant_that_overflows():
    # before, inf and NaN samples read as "no criminant in the window"
    target = MapGerm((XI + T, XI * T * T))
    assert trace_criminant(target, GridSpec.square(1e150, 16)).branch_count == 2
    with pytest.raises(ValueError, match="not finite"):
        trace_criminant(target, GridSpec.square(1e160, 16))


def test_envelope_rejects_an_image_point_that_overflows():
    # before, the envelope read inf and the SVG held the vertex
    planar = PlanarMap(np.array([[0.0, 1.0], [4.0, 0.0]]), np.array([[0.0, 0.0, 1.0]]))
    fine = Branch(points=((1e307, 0.0), (0.0, 0.0)), tag="branch-0")
    assert envelope_curves(planar, PlaneCurveSet(branches=(fine,))).branches[0].points[0] == (
        4e307, 0.0)
    huge = Branch(points=((5e307, 0.0), (0.0, 0.0)), tag="branch-0")
    for curves in (PlaneCurveSet(branches=(huge,)), PlaneCurveSet(cusps=((5e307, 0.0),))):
        with pytest.raises(ValueError, match="envelope is not finite"):
            envelope_curves(planar, curves)


def test_cusp_scan_rejects_products_that_overflow():
    # before, overflowing row norms picked the kernel row blindly and NaN
    # angles never counted as a cusp, with numpy warnings on stderr
    target = MapGerm((XI + T, XI * T * T + T**3))
    grid = GridSpec.square(1e150, 64)
    assert trace_criminant(target, grid).branch_count > 0  # the trace itself is finite
    with pytest.raises(ValueError, match="cusp scan is not finite"):
        count_cusps(target, grid)
    count_cusps(target, GridSpec.square(1e60, 64))  # far below overflow: no error


def test_trace_closed_criminant_is_one_closed_branch():
    grid = GridSpec.square(1.0, 101)
    curves = trace_criminant(CIRCLE, grid)
    assert curves.branch_count == 1
    (branch,) = curves.branches
    assert branch.closed
    assert branch.points[0] == branch.points[-1]
    pts = branch.as_array()
    assert np.all(np.abs(np.hypot(pts[:, 0], pts[:, 1]) - 0.5) <= grid.cell_diagonal())


@pytest.mark.parametrize("target", [BEAKS_FRAME, TYPE_II, CIRCLE], ids=["beaks", "crossing", "circle"])
def test_trace_vertices_are_scalar_edge_interpolants(target):
    """Every vertex is the scalar interpolant s = va / (va - vb) on a crossed edge."""
    grid = GridSpec(-0.73, 1.19, -0.61, 0.97, 61, 47)
    values = as_planar_map(target).det(*grid.mesh()).tolist()
    xi, t = grid.xi_samples().tolist(), grid.t_samples().tolist()
    reference = set()
    for i in range(len(xi)):
        for j in range(len(t)):
            va = values[i][j]
            if i + 1 < len(xi) and (va >= 0.0) != (values[i + 1][j] >= 0.0):
                s = va / (va - values[i + 1][j])
                reference.add((xi[i] + s * (xi[i + 1] - xi[i]), t[j]))
            if j + 1 < len(t) and (va >= 0.0) != (values[i][j + 1] >= 0.0):
                s = va / (va - values[i][j + 1])
                reference.add((xi[i], t[j] + s * (t[j + 1] - t[j])))
    vertices = {p for branch in trace_criminant(target, grid).branches for p in branch.points}
    assert vertices == reference


def test_criminant_vertices_satisfy_residual_bound():
    """Every traced vertex is within one cell's determinant variation of zero."""
    grid = GridSpec.square(1.0, 256)
    _, evaluate = jacobian_det(TYPE_II)
    curves = trace_criminant(TYPE_II, grid)
    mesh_xi, mesh_t = grid.mesh()
    h = 1e-6
    grad = np.hypot(
        (evaluate(mesh_xi + h, mesh_t) - evaluate(mesh_xi - h, mesh_t)) / (2 * h),
        (evaluate(mesh_xi, mesh_t + h) - evaluate(mesh_xi, mesh_t - h)) / (2 * h),
    )
    lipschitz_bound = float(np.max(grad)) * grid.cell_diagonal()
    worst = 0.0
    for branch in curves.branches:
        pts = branch.as_array()
        worst = max(worst, float(np.max(np.abs(evaluate(pts[:, 0], pts[:, 1])))))
    assert worst <= lipschitz_bound


def test_branch_needs_two_points():
    with pytest.raises(ValueError):
        Branch(points=((0.0, 0.0),), tag="branch-0")


# ---------------------------------------------------------------------------
# envelopes


def test_envelope_images_and_cubic_fit():
    grid = GridSpec.square(1.0, DEFAULT_RESOLUTION)
    criminant = trace_criminant(TYPE_II, grid)
    envelope = envelope_curves(TYPE_II, criminant)
    assert envelope.branch_count == 2
    assert [b.tag for b in envelope.branches] == [b.tag for b in criminant.branches]
    fits = {}
    for branch in envelope.branches:
        pts = branch.as_array()
        fits[branch.tag] = (float(np.max(np.abs(pts[:, 1]))), fit_cubic_coefficient(branch))
    # one branch is the support image y = 0, the other the cubic y = (4/27) x^3
    flat_tag = min(fits, key=lambda tag: fits[tag][0])
    cubic_tag = ({t for t in fits} - {flat_tag}).pop()
    assert fits[flat_tag][0] < 1e-6
    assert abs(fits[cubic_tag][1] - 4.0 / 27.0) <= 1e-3


def test_envelope_contains_support_image():
    # the support (t = 0) maps into the envelope for both representatives
    for germ in (TYPE_I, TYPE_II):
        grid = GridSpec.square(1.0, 128)
        envelope = envelope_curves(germ, trace_criminant(germ, grid))
        assert any(
            float(np.max(np.abs(b.as_array()[:, 1]))) < 1e-6 for b in envelope.branches
        )


def test_fit_cubic_coefficient():
    x = np.linspace(-1.0, 1.0, 101)
    pts = np.stack([x, 0.25 * x**3], axis=1)
    assert fit_cubic_coefficient(pts) == pytest.approx(0.25)
    branch = Branch(points=tuple(map(tuple, pts)), tag="branch-0")
    assert fit_cubic_coefficient(branch) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        fit_cubic_coefficient(np.array([[0.0, 1.0], [0.0, 2.0]]))


def test_fit_cubic_coefficient_rejects_a_fit_that_overflows():
    # before, NaN came back and later broke the JSON payload
    with pytest.raises(ValueError, match="not finite"):
        fit_cubic_coefficient(np.array([[1e60, 1e180], [-1e60, -1e180]]))


def test_fit_cubic_coefficient_rejects_an_overflowing_denominator():
    # sum(x**6) overflows while sum(x**3 * y) stays finite; before, c read 0.0
    x = np.array([1e52, -1e52, 2e51])
    pts = np.stack([x, 1e-100 * x], axis=1)
    assert np.isfinite(np.sum(x**3 * pts[:, 1]))
    with pytest.raises(ValueError, match="not finite"):
        fit_cubic_coefficient(pts)


# ---------------------------------------------------------------------------
# deformations


def test_apply_deformation_identity():
    base = double_umbrella_form(Fraction(-1, 2), 1)
    deformed = apply_deformation(base, DeformationParams(), MODE_VERSAL)
    assert np.array_equal(deformed.c1, coefficient_array(base[0]))
    assert np.array_equal(deformed.c2, coefficient_array(base[1]))


def test_apply_deformation_beaks_adds_linear_term():
    base = double_umbrella_form(Fraction(-1, 2), 1)
    deformed = apply_deformation(base, DeformationParams(lam=0.1), MODE_BEAKS)
    expected = coefficient_array(base[1])
    expected[0, 1] += 0.1
    assert np.array_equal(deformed.c2, expected)
    assert np.array_equal(deformed.c1, coefficient_array(base[0]))


def test_apply_deformation_versal_mixes_third_component():
    base = double_umbrella_form(Fraction(-1, 2), 1)  # third component t^2 + t^3
    deformed = apply_deformation(base, DeformationParams(mu1=0.1), MODE_VERSAL)
    expected = coefficient_array(base[0])
    expected[0, 2] += 0.1
    expected[0, 3] += 0.1
    assert np.array_equal(deformed.c1, expected)


def test_apply_deformation_rejects_bad_configs():
    base = double_umbrella_form(Fraction(-1, 2), 1)
    with pytest.raises(ValueError):
        apply_deformation(base, DeformationParams(mu1=0.1), MODE_BEAKS)
    with pytest.raises(ValueError):
        apply_deformation(base, DeformationParams(), "twist")
    with pytest.raises(ValueError):
        apply_deformation(TYPE_I, DeformationParams())
    with pytest.raises(ValueError):
        DeformationParams(lam=float("nan"))
    assert DeformationParams(lam=0.5).to_json() == {"lambda": 0.5, "mu1": 0.0, "mu2": 0.0}


def test_beaks_cusp_transition_and_positions():
    """lambda < 0 gives a smooth criminant, lambda > 0 two cusps at the
    analytic positions t = -xi/3, xi^2 = lambda / (1/3 - a)."""
    base = double_umbrella_form(Fraction(-1, 2), 1)
    grid = GridSpec.square(1.0, 256)
    counts = {}
    for lam in (-0.1, 0.0, 0.1):
        deformed = apply_deformation(base, DeformationParams(lam=lam), MODE_BEAKS)
        report = count_cusps(deformed, grid)
        counts[lam] = report.count
        if lam == 0.1:
            xi_star = math.sqrt(0.1 / (1.0 / 3.0 + 0.5))
            expected = {(xi_star, -xi_star / 3.0), (-xi_star, xi_star / 3.0)}
            tol = 2.0 * grid.cell_diagonal()
            for point in report.points:
                assert any(math.hypot(point[0] - ex, point[1] - ey) < tol
                           for ex, ey in expected)
    assert counts == {-0.1: 0, 0.0: 0, 0.1: 2}


def test_count_cusps_on_a_given_criminant():
    grid = GridSpec.square(1.0, 1024)
    given = count_cusps(BEAKS_FRAME, criminant=trace_criminant(BEAKS_FRAME, grid))
    traced = count_cusps(BEAKS_FRAME, grid)
    assert (given.count, given.points) == (traced.count, traced.points)
    assert given.count == len(given.points) == len(given.curves.cusps) == 2


# ---------------------------------------------------------------------------
# Legendrian lifts


def test_lift_affine_chart_everywhere():
    surface = legendrian_lift(TYPE_I, GridSpec.square(1.0, 65))
    assert surface.invalid_count == 0
    assert not np.any(surface.chart)
    mesh_xi, mesh_t = surface.grid.mesh()
    assert np.allclose(surface.slope, 2.0 * mesh_t)  # slope of t -> t^2
    assert surface.chart_coherence_error() <= 1e-9


def test_lift_spatial_germ_coherence():
    germ = MapGerm((XI + T, T * T, T**3))
    surface = legendrian_lift(germ, GridSpec.square(1.0, 65))
    assert surface.invalid_count == 0
    assert surface.chart_coherence_error() <= 1e-9


def test_lift_chart_switch_on_vertical_tangents():
    # x = t^2, y = t: dx/dt vanishes along t = 0, the curve turns vertical
    germ = MapGerm((T * T, T))
    surface = legendrian_lift(germ, GridSpec.square(1.0, 65))
    assert surface.invalid_count == 0
    t_zero_row = surface.chart[:, 32]  # t = 0 is the middle sample
    assert np.all(t_zero_row == 1)
    assert np.count_nonzero(surface.chart) == 65  # only that row switches
    assert surface.chart_coherence_error() <= 1e-9


def test_lift_marks_degenerate_samples_invalid():
    # (t^2, t^3): both t-derivatives vanish along t = 0
    germ = MapGerm((T * T, T**3))
    surface = legendrian_lift(germ, GridSpec.square(1.0, 65))
    assert surface.invalid_count == 65
    assert bool(np.all(surface.invalid[:, 32]))


# ---------------------------------------------------------------------------
# sweeps


def test_default_sweep_lambdas():
    lams = default_sweep_lambdas()
    assert len(lams) == 11
    assert lams[0] == -0.25 and lams[-1] == 0.25
    assert 0.0 in lams


def test_analyze_deformation_frame():
    frame = analyze_deformation(
        double_umbrella_form(Fraction(-1, 2), 1),
        DeformationParams(lam=0.1),
        MODE_BEAKS,
        GridSpec.square(1.0, 128),
    )
    assert frame.cusp_count == 2
    assert frame.envelope.branch_count == frame.criminant.branch_count
    payload = frame.to_json()
    assert payload["params"]["lambda"] == 0.1
    assert payload["mode"] == MODE_BEAKS
    assert payload["cusps"] == 2
    assert len(payload["cusp_points"]) == 2


def test_deformation_sweep_cusp_counts():
    frames = deformation_sweep(
        double_umbrella_form(Fraction(-1, 2), 1),
        mode=MODE_BEAKS,
        lambdas=default_sweep_lambdas(0.1, 5),
        grid=GridSpec.square(1.0, 128),
    )
    assert [frame.cusp_count for frame in frames] == [0, 0, 0, 2, 2]
    assert [frame.params.lam for frame in frames] == pytest.approx(
        [-0.1, -0.05, 0.0, 0.05, 0.1]
    )


@pytest.mark.parametrize("mode, mu", [(MODE_BEAKS, (0.0, 0.0)), (MODE_VERSAL, (0.028, 0.019))])
def test_sweep_frames_equal_single_frame_runs(mode, mu):
    """Frames that share the lambda-invariant determinant grids equal
    frames analysed one at a time, lambda repeated and -0.0 included."""
    germ = double_umbrella_form(Fraction(1, 5), 1)
    grid = GridSpec(-1.0, 0.9, -1.1, 1.0, 97, 89)
    lambdas = (0.1, -0.05, 0.1, -0.0, 0.0, 0.05, -0.05)
    frames = deformation_sweep(germ, mode, lambdas, grid, *mu)
    assert len({frame.cusp_count for frame in frames}) > 1  # the frames differ
    for lam, frame in zip(lambdas, frames):
        alone = analyze_deformation(germ, DeformationParams(lam, *mu), mode, grid)
        assert frame.to_json() == alone.to_json()
        for got, want in ((frame.criminant, alone.criminant), (frame.envelope, alone.envelope)):
            assert got.branches == want.branches
            assert got.cusps == want.cusps


def test_shared_determinant_grids_are_keyed_by_coefficient_bytes():
    """One dict of shared grids serves maps whose j11 or j12 * j21 differ."""
    xi, t = GridSpec(-1.0, 0.9, -1.1, 1.0, 41, 37).mesh()
    maps = [
        apply_deformation(double_umbrella_form(a, 1), DeformationParams(lam, *mu), mode)
        for a in (Fraction(1, 5), Fraction(-1, 2))
        for lam in (0.1, -0.0)
        for mode, mu in ((MODE_BEAKS, (0.0, 0.0)), (MODE_VERSAL, (0.028, 0.019)))
    ] + [_KERNEL_MAPS[name] for name in ("random", "signed-zeros", "crossing")]
    shared = {}
    for planar in maps + maps[::-1]:
        sharing = PlanarMap(planar.c1, planar.c2)
        sharing._shared = shared
        _assert_same_value(sharing.det(xi, t), planar.det(xi, t))
    # j11 = 1 in the umbrella maps and in (xi + t, t^2 xi), two more j11 in the
    # others; one j12 * j21 per a and mode (not per lambda), three more
    assert len(shared) == 3 + 4 + 3


@pytest.mark.parametrize(
    "target",
    [ADAPTED, BEAKS_FRAME],
    ids=["adapted", "beaks"],
)
def test_lift_peak_memory_stays_near_its_outputs(target):
    """tracemalloc's peak over a lift at grid 256, per sample.

    The seven returned arrays hold 42 bytes per sample (five float64, the
    uint8 chart and the bool mask).  Evaluating every field on the full
    grid and dividing under full-grid masks peaked at about 50.2.
    """
    grid = GridSpec.square(1.0, 256)
    legendrian_lift(target, grid)  # first-call caches
    tracemalloc.start()
    try:
        legendrian_lift(target, grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 45 * 256 * 256


def test_sweep_peak_memory_stays_below_the_full_grid_determinant():
    """tracemalloc's peak over a 3-frame beaks sweep at grid 256.

    The bound is the peak measured when every frame evaluated all four
    Jacobian entries on the full grid (1,926,414 bytes, about 29 bytes
    per sample); sharing the lambda-invariant grids peaks at about
    1,524,509 bytes.
    """
    germ = double_umbrella_form(Fraction(1, 5), 1)
    grid = GridSpec.square(1.0, 256)
    lambdas = (-0.1, 0.0, 0.1)
    deformation_sweep(germ, lambdas=lambdas, grid=grid)  # first-call caches
    tracemalloc.start()
    try:
        deformation_sweep(germ, lambdas=lambdas, grid=grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1_926_414
