"""Float-side geometry: criminant tracing, envelopes, lifts, deformations.

Everything upstream of this module is exact rational arithmetic; here the
polynomial coefficients cross over into numpy double precision once, and
all further work (grid evaluation, zero-curve extraction, cusp counting)
is plain numerics.  The split keeps the algebraic verdicts exact while
pictures and counts stay cheap.

The criminant of a planar map (the source-side critical curve of the
projection restricted to the graph surface) is traced with marching
squares on the Jacobian determinant, with a node-repair pass on top.
Plain marching squares cannot represent a curve crossing: an X-node
either lands in an ambiguous cell (where any local resolution splits the
two analytic branches into hyperbola-like mixed halves) or, when the
branch slopes conspire, in ordinary cells that silently weld the halves
into V-shaped kinks.  One marching pass turns the sign grid into
polylines: each non-ambiguous cell adds one segment between its two
crossed edges, the segments chain into simple paths and cycles, and a
path that ends on an edge of an ambiguous cell gets a loose end there.
Both artifacts are then repaired the same way: interior turns sharper
than 35 degrees are cut, the loose ends (cut points plus the ambiguous
ends) are clustered within two cell diagonals, and each cluster is
re-spliced in the pairing with the least total turning.  Criminants in
this territory are unions of smooth curves, so sharp polyline turns are
always tracing artifacts, never features.  Downstream branch counts and
per-branch fits rely on this repair.

Cusp detection uses the kernel line of the Jacobian along the criminant:
the envelope has a cusp where that line turns tangent to the criminant.
The signed angle between the two lines is tracked along each polyline
and a cusp is counted at each sign crossing (and at direct dips below
the angle tolerance), with consecutive detections clustered so one
geometric cusp is never counted twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from tanfam.jets import (
    DEFAULT_RESOLUTION,
    MODE_BEAKS,
    MODE_VERSAL,
    MapGerm,
    TruncatedPoly,
    monomial_text,
)

CHART_EPSILON = 1e-8
CUSP_ANGLE_DEGREES = 2.0

# Guard against wrap-around of the kernel/tangent line angle (which lives
# mod 180 degrees): a sign change only counts as a tangency crossing when
# both samples are already this close to alignment.
_CROSSING_GUARD_DEGREES = 30.0


@dataclass(frozen=True)
class GridSpec:
    """Sampling rectangle in the source plane with per-axis resolutions.

    resolution counts samples per axis (so a 4x4 grid has 16 samples and
    9 cells).  Axis order is (xi, t) throughout.
    """

    xi_min: float = -1.0
    xi_max: float = 1.0
    t_min: float = -1.0
    t_max: float = 1.0
    resolution_xi: int = DEFAULT_RESOLUTION
    resolution_t: int = DEFAULT_RESOLUTION

    def __post_init__(self) -> None:
        bounds = (self.xi_min, self.xi_max, self.t_min, self.t_max)
        if not all(math.isfinite(bound) for bound in bounds):
            raise ValueError("grid rectangle bounds must be finite")
        if not (self.xi_min < self.xi_max and self.t_min < self.t_max):
            raise ValueError("grid rectangle is degenerate")
        if self.resolution_xi < 2 or self.resolution_t < 2:
            raise ValueError("grid needs at least 2 samples per axis")

    @classmethod
    def square(cls, half_width: float = 1.0, resolution: int = DEFAULT_RESOLUTION) -> "GridSpec":
        return cls(-half_width, half_width, -half_width, half_width, resolution, resolution)

    def xi_samples(self) -> np.ndarray:
        return np.linspace(self.xi_min, self.xi_max, self.resolution_xi)

    def t_samples(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.resolution_t)

    def mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """Open (xi, t) mesh of shapes (resolution_xi, 1) and (1, resolution_t).

        The two arrays broadcast against each other to the full grid, so
        PlanarMap evaluates on them without a dense copy of either axis.
        """
        return np.meshgrid(self.xi_samples(), self.t_samples(), indexing="ij", sparse=True)

    def cell_diagonal(self) -> float:
        dx = (self.xi_max - self.xi_min) / (self.resolution_xi - 1)
        dt = (self.t_max - self.t_min) / (self.resolution_t - 1)
        return math.hypot(dx, dt)

    def to_json(self) -> dict:
        return {
            "domain": [[self.xi_min, self.xi_max], [self.t_min, self.t_max]],
            "resolution": [self.resolution_xi, self.resolution_t],
        }


@dataclass(frozen=True)
class Branch:
    """One traced polyline with a stable tag; points are (xi, t) or (x, y)."""

    points: tuple[tuple[float, float], ...]
    tag: str
    closed: bool = False

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a branch needs at least 2 points")

    def as_array(self) -> np.ndarray:
        return np.asarray(self.points, dtype=float)


@dataclass(frozen=True)
class PlaneCurveSet:
    branches: tuple[Branch, ...] = ()
    cusps: tuple[tuple[float, float], ...] = ()

    @property
    def branch_count(self) -> int:
        return len(self.branches)


@dataclass(frozen=True)
class DeformationParams:
    lam: float = 0.0
    mu1: float = 0.0
    mu2: float = 0.0

    def __post_init__(self) -> None:
        for name in ("lam", "mu1", "mu2"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"deformation parameter {name} must be finite")

    def to_json(self) -> dict:
        return {"lambda": self.lam, "mu1": self.mu1, "mu2": self.mu2}


def coefficient_array(p: TruncatedPoly) -> np.ndarray:
    """Dense float coefficient grid c[i, j] of xi^i t^j (axis 0 is xi).

    A nonzero coefficient beyond the float range at either end (too
    large for a float, or so small that it rounds to 0.0) raises
    ValueError naming its monomial.
    """
    c = np.zeros((p.cap + 1, p.cap + 1))
    for (e_xi, e_t), value in p.terms():
        try:
            c[e_xi, e_t] = float(value)
        except OverflowError:
            pass  # the entry stays 0.0 and is refused below
        if c[e_xi, e_t] == 0.0:
            monomial = monomial_text((e_xi, e_t), p.variables)
            raise ValueError(f"the coefficient of {monomial} is beyond the float range")
    return c


def _derive_array(c: np.ndarray, axis: int) -> np.ndarray:
    """d/d(xi) for axis 0, d/dt for axis 1, on a coefficient_array grid."""
    n = c.shape[axis]
    if n <= 1:
        return np.zeros_like(c)
    factors = np.arange(1, n)
    if axis == 0:
        return c[1:, :] * factors[:, None]
    return c[:, 1:] * factors[None, :]


def _trim(c: np.ndarray) -> np.ndarray:
    """c without its trailing all-+0.0 rows and columns, keeping one of each."""
    kept = (c != 0) | np.signbit(c)
    rows = np.flatnonzero(kept.any(axis=1))
    cols = np.flatnonzero(kept.any(axis=0))
    return c[: rows[-1] + 1 if rows.size else 1, : cols[-1] + 1 if cols.size else 1]


def _evaluate(c: np.ndarray, xi, t, out: np.ndarray | None = None) -> np.ndarray:
    """sum c[i, j] xi^i t^j at (xi, t) broadcast together, Horner in xi then t.

    Scattered points (equal shapes), open meshes (GridSpec.mesh) and
    Python-float scalars all work; per sample the operations are those of
    numpy's polyval2d.  The result goes into out when given (it must have
    the broadcast shape of xi and t), else into a new array; a scalar
    result comes back as a numpy scalar.

    Evaluation runs at the true degree: trailing rows and columns whose
    entries are all +0.0 are dropped first (keeping at least one of each),
    so a cubic stored at cap 8 runs over 4 coefficients per axis, not 9.
    The result is bit-identical for finite samples.  On the padded array
    the accumulator starts at +0.0 + x * 0 = +0.0 and each further +0.0
    coefficient gives +0.0 + (+-0.0) = +0.0; the first kept coefficient
    then enters as c + (+0.0) * x, the same value as the trimmed start
    c + x * 0.  numpy's start c[-1] + x * 0 also keeps the broadcast shape
    when a single row or column is left.  A -0.0 entry counts as nonzero,
    since it can turn the accumulator negative.

    The xi pass is numpy's polyval on the small coefficient array.  The t
    pass, over the full grid, runs in the one result buffer: it starts at
    inner[-1] + t * 0 and then steps acc = inner[-k] + acc * t in place.
    That is numpy's own step c[-k] + c0 * x with the same two roundings per
    sample (one product, one sum; IEEE sums and products are commutative),
    so the bits are those of polyval(t, inner, tensor=False), without a
    new grid-sized array at every step.
    """
    c = _trim(c)
    inner = polyval(xi, c)
    acc = np.empty(np.broadcast_shapes(np.shape(xi), np.shape(t))) if out is None else out
    np.add(inner[-1], t * 0, out=acc)
    for k in range(2, len(inner) + 1):
        np.multiply(acc, t, out=acc)
        np.add(inner[-k], acc, out=acc)
    # an array result is acc itself; a 0-d one becomes a numpy scalar, as from polyval
    return acc if acc.ndim else acc[()]


class PlanarMap:
    """A planar polynomial map with vectorized evaluation and Jacobian data.

    Coefficients are plain float arrays, so deformations with float
    parameters fit here even though they leave exact-jet land.  Every
    method takes xi and t that broadcast together.
    """

    def __init__(self, c1: np.ndarray, c2: np.ndarray):
        self.c1 = np.asarray(c1, dtype=float)
        self.c2 = np.asarray(c2, dtype=float)
        self._d1_xi = _derive_array(self.c1, 0)
        self._d1_t = _derive_array(self.c1, 1)
        self._d2_xi = _derive_array(self.c2, 0)
        self._d2_t = _derive_array(self.c2, 1)
        # Determinant grids shared with maps evaluated on the same samples
        # (see det); deformation_sweep sets one dict for all its frames.
        self._shared: dict | None = None

    @classmethod
    def from_polys(cls, p1: TruncatedPoly, p2: TruncatedPoly) -> "PlanarMap":
        return cls(coefficient_array(p1), coefficient_array(p2))

    @classmethod
    def from_germ(cls, germ: MapGerm) -> "PlanarMap":
        flat = germ.planar_projection()
        return cls.from_polys(flat[0], flat[1])

    def __call__(self, xi, t) -> tuple[np.ndarray, np.ndarray]:
        return _evaluate(self.c1, xi, t), _evaluate(self.c2, xi, t)

    def jacobian(self, xi, t) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Entries (d x/d xi, d x/d t, d y/d xi, d y/d t) at the samples."""
        return (
            _evaluate(self._d1_xi, xi, t),
            _evaluate(self._d1_t, xi, t),
            _evaluate(self._d2_xi, xi, t),
            _evaluate(self._d2_t, xi, t),
        )

    def det(self, xi, t) -> np.ndarray:
        """j11 * j22 - j12 * j21 at the samples, with the same roundings.

        Each entry is evaluated on only the axes it depends on (_own_axes)
        and the products broadcast into the one full-shape result: j22
        goes straight into it, is multiplied by j11 and has the product
        subtracted.  Per sample these are the operations of the full-grid
        j11 * j22 - j12 * j21, so the bits are the same.

        The j11 and j12 * j21 grids are read from self._shared, keyed by
        the bytes of their coefficient arrays, and added to it when
        missing.  That dict must serve one set of samples only.  Without
        one, the grids live only as long as this call.
        """
        shared = {} if self._shared is None else self._shared
        shape = np.broadcast_shapes(np.shape(xi), np.shape(t))
        mesh = _is_open_mesh(xi, t)

        def grid(c):
            return _evaluate(c, *_own_axes(c, xi, t, mesh))

        def product():
            j12, j21 = grid(self._d1_t), grid(self._d2_xi)
            # j12 is a new array: fill it when it has the product's shape
            # (not for scalar samples, where it is a numpy scalar)
            in_place = isinstance(j12, np.ndarray) and j12.shape == np.broadcast_shapes(
                j12.shape, np.shape(j21)
            )
            return np.multiply(j12, j21, out=j12 if in_place else None)

        j11 = _shared_grid(shared, (self._d1_xi,), lambda: grid(self._d1_xi))
        j12_j21 = _shared_grid(shared, (self._d1_t, self._d2_xi), product)
        det = np.empty(shape)
        xi22, t22 = _own_axes(self._d2_t, xi, t, mesh)
        full = np.broadcast_shapes(np.shape(xi22), np.shape(t22)) == shape
        np.multiply(j11, _evaluate(self._d2_t, xi22, t22, out=det if full else None), out=det)
        np.subtract(det, j12_j21, out=det)
        return det[()]


def _shared_grid(shared: dict, arrays: tuple[np.ndarray, ...], make: Callable):
    """shared's value for the coefficient bytes of arrays, made when missing."""
    key = tuple((c.shape, c.tobytes()) for c in arrays)
    if key not in shared:
        shared[key] = make()
    return shared[key]


def _is_open_mesh(xi, t) -> bool:
    """Finite float samples laid out as an (N, 1) by (1, M) open mesh."""
    return (
        isinstance(xi, np.ndarray)
        and isinstance(t, np.ndarray)
        and xi.ndim == t.ndim == 2
        and xi.shape[1] == 1
        and t.shape[0] == 1
        and xi.dtype.kind == t.dtype.kind == "f"
        and bool(np.isfinite(xi).all() and np.isfinite(t).all())
    )


def _own_axes(c: np.ndarray, xi, t, mesh: bool) -> tuple:
    """The samples c needs: on an open mesh, only the axes it depends on.

    When mesh holds (_is_open_mesh) and c has no -0.0 entry, a c without
    xi terms after _trim gets xi's first row only, giving its (1, M) t
    row, one without t terms gets t's first column, giving its (N, 1) xi
    column, and a constant gets both.  Broadcast back, these are the bits
    of the full-grid evaluation: with no -0.0 coefficient no Horner
    partial result is -0.0, so the xi * 0 and t * 0 terms that carried
    the broadcast, each +-0.0 for a finite sample, add nothing to it.
    Scattered points and anything else get xi and t unchanged.
    """
    c = _trim(c)
    if mesh and not (np.signbit(c) & (c == 0)).any():
        if c.shape[0] == 1:
            xi = xi[:1]
        if c.shape[1] == 1:
            t = t[:, :1]
    return xi, t


def as_planar_map(target) -> PlanarMap:
    """Accept a MapGerm, a pair of jets or a PlanarMap."""
    if isinstance(target, PlanarMap):
        return target
    if isinstance(target, MapGerm):
        return PlanarMap.from_germ(target)
    if isinstance(target, Sequence) and len(target) >= 2:
        first = target[0]
        if isinstance(first, TruncatedPoly):
            return PlanarMap.from_polys(target[0], target[1])
    raise TypeError(f"cannot interpret {type(target).__name__} as a planar map")


def jacobian_det(f) -> tuple[TruncatedPoly, Callable]:
    """Exact Jacobian determinant of a planar jet map, plus a float evaluator.

    Both halves are the determinant of the polynomial map the two jets
    define, untruncated: for inputs at cap N the first derivatives have
    degree <= N - 1, so the exact form is computed at cap max(1, 2N - 2),
    where no product term is dropped.  Three-component germs are projected
    to their first two components first.
    """
    if isinstance(f, MapGerm):
        f = f.planar_projection().components
    p1, p2 = f[0], f[1]
    if p1.cap != p2.cap:
        raise ValueError(f"degree caps differ: {p1.cap} vs {p2.cap}")
    planar = PlanarMap.from_polys(p1, p2)
    cap = max(1, 2 * p1.cap - 2)
    p1, p2 = p1.with_cap(cap), p2.with_cap(cap)
    det = p1.derive("xi") * p2.derive("t") - p1.derive("t") * p2.derive("xi")
    return det, planar.det


def apply_deformation(
    base: MapGerm, params: DeformationParams, mode: str = MODE_VERSAL
) -> PlanarMap:
    """The planar part of a 3-component germ deformed with float parameters.

    Modes: "versal" adds (mu1 * z, lam * t + mu2 * z) with z read off as
    the third component of the base; "beaks" allows only the lam * t term,
    the deformation that keeps the projection direction fixed.
    """
    if base.arity != 3:
        raise ValueError("deformations act on 3-component germs")
    if mode not in (MODE_VERSAL, MODE_BEAKS):
        raise ValueError(f"mode must be '{MODE_VERSAL}' or '{MODE_BEAKS}', got {mode!r}")
    if mode == MODE_BEAKS and (params.mu1 != 0.0 or params.mu2 != 0.0):
        raise ValueError("the beaks deformation has mu1 = mu2 = 0")
    a3 = coefficient_array(base[2])
    c1 = coefficient_array(base[0]) + params.mu1 * a3
    c2 = coefficient_array(base[1]) + params.mu2 * a3
    c2[0, 1] += params.lam
    return PlanarMap(c1, c2)


# ----------------------------------------------------------------------
# Marching squares
# ----------------------------------------------------------------------


class _OpenCurve:
    """Mutable polyline during node repair; loose ends may be re-spliced."""

    __slots__ = ("points", "closed", "loose_start", "loose_end")

    def __init__(self, points, closed=False, loose_start=False, loose_end=False):
        self.points = list(points)
        self.closed = closed
        self.loose_start = loose_start
        self.loose_end = loose_end


# Case index bits: 1 = corner (i, j), 2 = (i+1, j), 4 = (i+1, j+1),
# 8 = (i, j+1), set when the value there is >= 0.  Row c names the two
# cell edges crossed by the one segment of case c, as columns of the edge
# offsets in _cell_segments: 0 = left (xi = xi_i), 1 = right
# (xi = xi_{i+1}), 2 = bottom (t = t_j), 3 = top (t = t_{j+1}).  Cases 0
# and 15 cross nothing; the ambiguous cases 5 and 10 get no segment.
_CASE_EDGES = np.array(
    [(0, 0), (2, 0), (2, 1), (0, 1), (1, 3), (0, 0), (2, 3), (0, 3),
     (0, 3), (2, 3), (0, 0), (1, 3), (0, 1), (2, 1), (2, 0), (0, 0)]
)


def _cell_segments(values: np.ndarray) -> tuple[np.ndarray, set[int]]:
    """Edge-id pairs of the crossing cells' segments, and the ambiguous edges.

    Rows of the first result come in row-major cell order; the set holds
    the four edges of every ambiguous cell.  Edge ids are those of _march.

    The crossing cells (cases 1-14) are found from the edge sign changes,
    in three boolean passes: h marks the crossed t-edges, v the crossed
    xi-edges, and a cell is crossed when its left (h[:-1]), right (h[1:])
    or bottom (v) edge is, since a cell crosses an even number of its four
    edges.  flatnonzero lists the C-ordered (N-1) x (M-1) cells in
    row-major order, the order of a 2-D nonzero; cell k = i*(M-1) + j has
    its (i, j) corner at k + k // (M-1) = i*M + j in the flat sign array,
    and the case of only those cells is read from their four corners
    there.  The split into ambiguous and segment cells is a mask over that
    short list, which keeps its order.
    """
    n, m = values.shape
    signs = values >= 0.0
    h = signs[:, :-1] != signs[:, 1:]
    v = signs[:-1, :-1] != signs[1:, :-1]
    cells = np.flatnonzero(h[:-1] | h[1:] | v)
    corner = cells + cells // (m - 1)
    flat = signs.ravel().view(np.uint8)
    kinds = flat[corner] | flat[corner + m] << 1 | flat[corner + m + 1] << 2 | flat[corner + 1] << 3
    offsets = np.array([0, m, n * m, n * m + 1])
    ambiguous = (kinds == 5) | (kinds == 10)
    segments = corner[~ambiguous][:, None] + offsets[_CASE_EDGES[kinds[~ambiguous]]]
    return segments, set((corner[ambiguous][:, None] + offsets).ravel().tolist())


def _chains(segments: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The edge ids of the chains that segments form, end to end, and their lengths.

    Every chain is a simple path or cycle, since an edge borders at most
    two cells.  Paths come first, ordered by their lower end and walked
    from it, then cycles, each from its lowest edge towards the lower of
    that edge's neighbours and back to it (a cycle lists its start twice).

    The crossed edges get compact node ids in increasing edge order
    (np.unique), so ordering by node is ordering by edge.  near0[k] and
    near1[k] are node k's two neighbours (near1[k] is -1 at a path end),
    in no particular order: the walk leaves each node by the neighbour it
    did not come from, and a cycle starts towards the lower one, so the
    order never shows.  The walk runs over these plain lists, and a
    bytearray marks seen nodes.
    """
    edges, ends = np.unique(segments.ravel(), return_inverse=True)
    across = ends.reshape(-1, 2)[:, ::-1].ravel()  # the other end of each segment end
    near0 = np.full(len(edges), -1)
    near0[ends] = across  # one of each node's neighbours
    other = across != near0[ends]
    near1 = np.full(len(edges), -1)
    near1[ends[other]] = across[other]
    path_ends = np.flatnonzero(near1 < 0).tolist()
    near0, near1 = near0.tolist(), near1.tolist()

    nodes: list[int] = []
    lengths: list[int] = []
    seen = bytearray(len(edges))
    for begin in path_ends + list(range(len(edges))):
        if seen[begin]:
            continue
        size = len(nodes)
        nodes.append(begin)
        seen[begin] = 1
        previous, node = begin, near0[begin]
        if 0 <= near1[begin] < node:
            node = near1[begin]
        while True:
            nodes.append(node)
            seen[node] = 1
            after = near1[node]
            if node == begin or after < 0:
                break
            previous, node = node, near0[node] if after == previous else after
        lengths.append(len(nodes) - size)
    return edges[np.array(nodes, dtype=np.intp)], lengths


def _march(values: np.ndarray, xi: np.ndarray, t: np.ndarray) -> list[_OpenCurve]:
    """Zero-level polylines of values sampled at xi x t, with loose-end flags.

    Grid edges get integer ids: the t-edge from sample (i, j) to (i, j+1)
    is i*M + j, the xi-edge from (i, j) to (i+1, j) is N*M + i*M + j.
    Every non-ambiguous cell adds one segment between its two crossed
    edges (_cell_segments), and the segments chain into simple paths and
    cycles (_chains), each point placed on its edge by linear
    interpolation.  Ambiguous cells (diagonal sign pattern) add no
    segment; a path ending on one of their edges gets a loose end for
    node repair.
    """
    n, m = values.shape
    segments, junction_edges = _cell_segments(values)
    if not len(segments):
        return []
    ids, lengths = _chains(segments)
    along_t = ids < n * m
    i, j = np.divmod(np.where(along_t, ids, ids - n * m), m)
    i2 = np.where(along_t, i, i + 1)
    j2 = np.where(along_t, j + 1, j)
    va = values[i, j]
    s = va / (va - values[i2, j2])
    xs = np.where(along_t, xi[i], xi[i] + s * (xi[i2] - xi[i]))
    ts = np.where(along_t, t[j] + s * (t[j2] - t[j]), t[j])
    points = list(zip(xs.tolist(), ts.tolist()))
    curves = []
    first = 0
    for length in lengths:
        head, tail = int(ids[first]), int(ids[first + length - 1])
        closed = head == tail
        curves.append(
            _OpenCurve(
                points[first : first + length],
                closed=closed,
                loose_start=not closed and head in junction_edges,
                loose_end=not closed and tail in junction_edges,
            )
        )
        first += length
    return curves


_SHARP_TURN_DEGREES = 35.0
_SPLICE_RADIUS_CELLS = 2.0
_MAX_SPLICE_TURN_DEGREES = 90.0
_MAX_SPLICE_CLUSTER = 8


def _turn_degrees(p0, p1, p2) -> float:
    v1 = (p1[0] - p0[0], p1[1] - p0[1])
    v2 = (p2[0] - p1[0], p2[1] - p1[1])
    n1 = math.hypot(*v1)
    n2 = math.hypot(*v2)
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    norm = n1 * n2
    if norm == 0.0 or not math.isfinite(norm):
        # The product of two tiny or huge steps under- or overflows:
        # compare the unit steps instead.
        v1 = (v1[0] / n1, v1[1] / n1)
        v2 = (v2[0] / n2, v2[1] / n2)
        norm = 1.0
    cos = (v1[0] * v2[0] + v1[1] * v2[1]) / norm
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


# Cosine below which a turn may be sharp: a turn of about 25.8 degrees,
# far below the 35 of _SHARP_TURN_DEGREES (cos 35 = 0.819).
_TURN_PREFILTER_COS = 0.9


def _turn_candidates(pts) -> list[int]:
    """Interior vertices whose turn _turn_degrees must decide.

    The cosine of every turn is formed at once with _turn_degrees'
    operations; only np.hypot may differ from math.hypot, by an ulp or so.
    A vertex whose cosine is at least 0.9 therefore turns by less than 26
    degrees and is never cut; every other vertex (cosine NaN included, as
    for a zero-length step) goes to _turn_degrees unchanged.
    """
    p = np.asarray(pts)
    v1 = p[1:-1] - p[:-2]
    v2 = p[2:] - p[1:-1]
    with np.errstate(all="ignore"):
        cos = (v1[:, 0] * v2[:, 0] + v1[:, 1] * v2[:, 1]) / (
            np.hypot(v1[:, 0], v1[:, 1]) * np.hypot(v2[:, 0], v2[:, 1])
        )
    return (np.flatnonzero(~(cos >= _TURN_PREFILTER_COS)) + 1).tolist()


def _cut_sharp_turns(curves: list[_OpenCurve]) -> list[_OpenCurve]:
    """Split polylines at interior turns sharper than the threshold.

    The split vertex stays on both pieces and both new ends become loose.
    Closed curves with a sharp turn are opened there first (a figure
    eight traced as one loop becomes two open arcs).
    """
    out: list[_OpenCurve] = []
    queue = list(curves)
    while queue:
        curve = queue.pop(0)
        pts = curve.points
        cuts = [
            k
            for k in _turn_candidates(pts)
            if _turn_degrees(pts[k - 1], pts[k], pts[k + 1]) > _SHARP_TURN_DEGREES
        ]
        if curve.closed:
            sharp = cuts[0] if cuts else None
            if sharp is None and len(pts) > 3:
                if _turn_degrees(pts[-2], pts[0], pts[1]) > _SHARP_TURN_DEGREES:
                    sharp = 0
            if sharp is None:
                out.append(curve)
                continue
            reopened = pts[sharp:-1] + pts[: sharp + 1]
            queue.append(_OpenCurve(reopened, loose_start=True, loose_end=True))
            continue
        if not cuts:
            out.append(curve)
            continue
        bounds = [0] + cuts + [len(pts) - 1]
        for lo, hi in zip(bounds, bounds[1:]):
            out.append(
                _OpenCurve(
                    pts[lo : hi + 1],
                    loose_start=curve.loose_start if lo == 0 else True,
                    loose_end=curve.loose_end if hi == len(pts) - 1 else True,
                )
            )
    return out


def _end_point(curve: _OpenCurve, end: int):
    return curve.points[-1] if end else curve.points[0]


def _end_direction(curve: _OpenCurve, end: int):
    """Unit vector pointing out of the curve at the given end."""
    if end:
        tail, tip = curve.points[-2], curve.points[-1]
    else:
        tail, tip = curve.points[1], curve.points[0]
    vec = (tip[0] - tail[0], tip[1] - tail[1])
    norm = math.hypot(*vec)
    if norm == 0.0:
        return (0.0, 0.0)
    return (vec[0] / norm, vec[1] / norm)


def _splice_cost(curves, stub_a, stub_b):
    """(turning degrees, gap length) for joining two loose ends, or None."""
    da = _end_direction(curves[stub_a[0]], stub_a[1])
    db = _end_direction(curves[stub_b[0]], stub_b[1])
    cos = -(da[0] * db[0] + da[1] * db[1])
    turn = math.degrees(math.acos(max(-1.0, min(1.0, cos))))
    if turn > _MAX_SPLICE_TURN_DEGREES:
        return None
    pa = _end_point(curves[stub_a[0]], stub_a[1])
    pb = _end_point(curves[stub_b[0]], stub_b[1])
    return turn, math.hypot(pa[0] - pb[0], pa[1] - pb[1])


def _matchings(stubs: list) -> Iterable[list[tuple]]:
    """All pairings of the stubs; odd counts leave one stub out."""
    if len(stubs) <= 1:
        yield []
        return
    if len(stubs) % 2 == 1:
        for skip in range(len(stubs)):
            rest = stubs[:skip] + stubs[skip + 1 :]
            yield from _matchings(rest)
        return
    first, rest = stubs[0], stubs[1:]
    for k, partner in enumerate(rest):
        remaining = rest[:k] + rest[k + 1 :]
        for sub in _matchings(remaining):
            yield [(first, partner)] + sub


def _cluster_stubs(curves: list[_OpenCurve], radius: float) -> list[list[tuple]]:
    stubs = []
    for index, curve in enumerate(curves):
        if curve.closed:
            continue
        if curve.loose_start:
            stubs.append((index, 0))
        if curve.loose_end:
            stubs.append((index, 1))
    clusters: list[list[tuple]] = []
    for stub in stubs:
        point = _end_point(curves[stub[0]], stub[1])
        target = None
        for cluster_id, members in enumerate(clusters):
            for other in members:
                q = _end_point(curves[other[0]], other[1])
                if math.hypot(point[0] - q[0], point[1] - q[1]) <= radius:
                    target = cluster_id
                    break
            if target is not None:
                break
        if target is None:
            clusters.append([stub])
        else:
            clusters[target].append(stub)
    return [cluster for cluster in clusters if len(cluster) >= 2]


def _join(curves: list[_OpenCurve], joins: list[tuple]) -> list[_OpenCurve]:
    """Apply end-to-end joins of stubs (curve index, end), merging curves.

    ends[id] holds the two original stubs at the start and the end of live
    curve id, and home[stub] the (id, end) where that stub now sits.
    """
    store: dict[int, _OpenCurve] = dict(enumerate(curves))
    ends = {index: ((index, 0), (index, 1)) for index in store}
    home = {stub: stub for pair in ends.values() for stub in pair}
    for new_id, (stub_a, stub_b) in enumerate(joins, start=len(curves)):
        id_a, end_a = home[stub_a]
        id_b, end_b = home[stub_b]
        curve_a = store.pop(id_a)
        if id_a == id_b:
            store[new_id] = _OpenCurve(curve_a.points + curve_a.points[:1], closed=True)
            continue
        curve_b = store.pop(id_b)
        points_a = curve_a.points if end_a == 1 else curve_a.points[::-1]
        points_b = curve_b.points if end_b == 0 else curve_b.points[::-1]
        if points_a[-1] == points_b[0]:
            points_b = points_b[1:]
        store[new_id] = _OpenCurve(
            points_a + points_b,
            loose_start=curve_a.loose_start if end_a == 1 else curve_a.loose_end,
            loose_end=curve_b.loose_end if end_b == 0 else curve_b.loose_start,
        )
        ends[new_id] = (ends.pop(id_a)[1 - end_a], ends.pop(id_b)[1 - end_b])
        home[ends[new_id][0]] = (new_id, 0)
        home[ends[new_id][1]] = (new_id, 1)
    return list(store.values())


def _repair_nodes(curves: list[_OpenCurve], radius: float) -> list[_OpenCurve]:
    curves = _cut_sharp_turns(curves)
    clusters = _cluster_stubs(curves, radius)
    joins: list[tuple] = []
    for cluster in sorted(clusters, key=lambda c: sorted(c)):
        if len(cluster) > _MAX_SPLICE_CLUSTER:
            continue
        best = None
        for matching in _matchings(sorted(cluster)):
            if not matching:
                continue
            turning = 0.0
            length = 0.0
            valid = True
            for stub_a, stub_b in matching:
                cost = _splice_cost(curves, stub_a, stub_b)
                if cost is None:
                    valid = False
                    break
                turning += cost[0]
                length += cost[1]
            if not valid:
                continue
            score = (-len(matching), round(turning, 6), round(length, 9), matching)
            if best is None or score < best:
                best = score
        if best is not None:
            joins.extend(best[3])
    return _join(curves, joins)


def trace_criminant(target, grid: GridSpec | None = None) -> PlaneCurveSet:
    """Zero curves of the Jacobian determinant in source coordinates.

    Branches are tagged "branch-0", "branch-1", ... in deterministic
    order.  An empty zero set gives an empty curve set.  A determinant
    sample that overflows to inf or NaN raises ValueError: the zero set
    read from such a grid would be silently wrong.
    """
    grid = grid if grid is not None else GridSpec()
    # Overflow is detected just below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.asarray(as_planar_map(target).det(*grid.mesh()), dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("the Jacobian determinant is not finite on this grid; shrink the domain")
    curves = _march(values, grid.xi_samples(), grid.t_samples())
    curves = _repair_nodes(curves, _SPLICE_RADIUS_CELLS * grid.cell_diagonal())
    branches = tuple(
        Branch(points=tuple(curve.points), tag=f"branch-{k}", closed=curve.closed)
        for k, curve in enumerate(curves)
    )
    return PlaneCurveSet(branches=branches)


def envelope_curves(target, criminant: PlaneCurveSet) -> PlaneCurveSet:
    """Image of the criminant under the planar map, tags preserved.

    An image point that overflows to inf or NaN raises ValueError: the
    picture drawn from it would be silently wrong.
    """
    planar = as_planar_map(target)

    def image(xi, t):
        # Overflow is detected just below, so numpy need not warn about it.
        with np.errstate(over="ignore", invalid="ignore"):
            x, y = planar(xi, t)
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValueError("the envelope is not finite on this grid; shrink the domain")
        return x, y

    branches = []
    for branch in criminant.branches:
        pts = branch.as_array()
        x, y = image(pts[:, 0], pts[:, 1])
        branches.append(
            Branch(
                points=tuple(zip(x.tolist(), y.tolist())),
                tag=branch.tag,
                closed=branch.closed,
            )
        )
    cusps = []
    for xi, t in criminant.cusps:
        x, y = image(xi, t)
        cusps.append((float(x), float(y)))
    return PlaneCurveSet(branches=tuple(branches), cusps=tuple(cusps))


# ----------------------------------------------------------------------
# Cusp detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CuspReport:
    """The criminant of count_cusps with its cusp points attached.

    curves.cusps is the one stored copy of the cusps; count and points
    read it.
    """

    curves: PlaneCurveSet

    @property
    def count(self) -> int:
        return len(self.curves.cusps)

    @property
    def points(self) -> tuple[tuple[float, float], ...]:
        return self.curves.cusps


def _line_angles_degrees(cross: np.ndarray, dot: np.ndarray) -> np.ndarray:
    """Signed angle between two line fields from the cross and dot products
    of their direction vectors, folded into (-90, 90]."""
    angles = np.degrees(np.arctan2(cross, dot))
    angles = np.where(angles > 90.0, angles - 180.0, angles)
    angles = np.where(angles <= -90.0, angles + 180.0, angles)
    return angles


def _branch_cusps(branch: Branch, planar: PlanarMap) -> list[tuple[float, float]]:
    pts = branch.as_array()
    n = len(pts)
    if n < 3:
        return []
    tangent = np.empty_like(pts)
    tangent[1:-1] = pts[2:] - pts[:-2]
    tangent[0] = pts[1] - pts[0]
    tangent[-1] = pts[-1] - pts[-2]
    j11, j12, j21, j22 = planar.jacobian(pts[:, 0], pts[:, 1])
    row1 = np.stack([j11, j12], axis=1)
    row2 = np.stack([j21, j22], axis=1)
    # Overflow is detected just below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        norm1 = np.linalg.norm(row1, axis=1)
        norm2 = np.linalg.norm(row2, axis=1)
        rows = np.where((norm2 > norm1)[:, None], row2, row1)
        kernel = np.stack([-rows[:, 1], rows[:, 0]], axis=1)
        cross = kernel[:, 0] * tangent[:, 1] - kernel[:, 1] * tangent[:, 0]
        dot = kernel[:, 0] * tangent[:, 0] + kernel[:, 1] * tangent[:, 1]
    # An inf norm picks the kernel row blindly; an inf or NaN product gives
    # a wrong angle or one that is never a cusp.
    if not all(np.isfinite(v).all() for v in (norm1, norm2, cross, dot)):
        raise ValueError("the cusp scan is not finite on this grid; shrink the domain")
    angles = _line_angles_degrees(cross, dot)

    candidates = set(np.nonzero(np.abs(angles) <= CUSP_ANGLE_DEGREES)[0].tolist())
    flips = np.nonzero(
        (angles[:-1] * angles[1:] < 0.0)
        & (np.abs(angles[:-1]) < _CROSSING_GUARD_DEGREES)
        & (np.abs(angles[1:]) < _CROSSING_GUARD_DEGREES)
    )[0]
    for k in flips.tolist():
        candidates.add(k if abs(angles[k]) <= abs(angles[k + 1]) else k + 1)
    if not candidates:
        return []
    ordered = sorted(candidates)
    clusters: list[list[int]] = [[ordered[0]]]
    for idx in ordered[1:]:
        if idx - clusters[-1][-1] <= 3:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    if branch.closed and len(clusters) > 1:
        if clusters[0][0] <= 3 and (n - 1) - clusters[-1][-1] <= 3:
            clusters[0] = clusters.pop() + clusters[0]
    cusps = []
    for cluster in clusters:
        best = min(cluster, key=lambda k: (abs(float(angles[k])), k))
        cusps.append((float(pts[best, 0]), float(pts[best, 1])))
    return cusps


def count_cusps(
    target, grid: GridSpec | None = None, criminant: PlaneCurveSet | None = None
) -> CuspReport:
    """Count criminant points whose Jacobian kernel line turns tangent.

    These are exactly the points whose envelope image is a cusp.  A
    given criminant is scanned as it is and grid is not read; otherwise
    the criminant is traced on grid.  Counts are resolution-dependent.
    The turning-angle tolerance is CUSP_ANGLE_DEGREES.
    """
    planar = as_planar_map(target)
    if criminant is None:
        criminant = trace_criminant(planar, grid if grid is not None else GridSpec())
    points: list[tuple[float, float]] = []
    for branch in criminant.branches:
        points.extend(_branch_cusps(branch, planar))
    return CuspReport(PlaneCurveSet(branches=criminant.branches, cusps=tuple(points)))


# ----------------------------------------------------------------------
# Legendrian lift sampling
# ----------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LiftedSurface:
    """Grid samples of a family lift (x, y, slope) with chart bookkeeping.

    chart is 0 where the affine slope p = dy/dx is used, 1 where the
    reciprocal chart q = dx/dy took over, and invalid marks samples where
    both derivatives vanish (the curve is not immersed there).
    """

    grid: GridSpec
    x: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    slope: np.ndarray = field(repr=False)
    chart: np.ndarray = field(repr=False)
    invalid: np.ndarray = field(repr=False)
    d_x: np.ndarray = field(repr=False)
    d_y: np.ndarray = field(repr=False)
    epsilon: float = CHART_EPSILON

    @property
    def invalid_count(self) -> int:
        return int(np.count_nonzero(self.invalid))

    def chart_coherence_error(self) -> float:
        """max |p*q - 1| over samples where both charts are evaluable."""
        both = (~self.invalid) & (self.d_x != 0.0) & (self.d_y != 0.0)
        if not np.any(both):
            return 0.0
        p = self.d_y[both] / self.d_x[both]
        q = self.d_x[both] / self.d_y[both]
        return float(np.max(np.abs(p * q - 1.0)))


def legendrian_lift(
    target, grid: GridSpec | None = None, epsilon: float = CHART_EPSILON
) -> LiftedSurface:
    """Sample the lift of a planar family map with its slope coordinate.

    The slope is p = dy/dx along the family parameter t; where
    |dx| < epsilon * |dy| the reciprocal chart q = dx/dy is stored
    instead and the sample is tagged.  Samples with dx = dy = 0 are
    marked invalid rather than raising.

    x, y, dx and dy are each evaluated on only the grid axes they depend
    on (_own_axes, as in PlanarMap.det); for an adapted family dx is the
    constant 1.  The chart test runs before dx is broadcast: epsilon *
    |dy| is formed in the slope buffer and compared with |dx| into the
    chart array.  The plain dy / dx then goes over the whole slope buffer,
    and masked passes rewrite only the reciprocal samples with dx / dy and
    the invalid ones with +0.0.  Per sample these are the operations of
    the masked divides over full grids, so the bits are the same.  Every
    returned array has the grid's shape and owns its data.
    """
    grid = grid if grid is not None else GridSpec()
    planar = as_planar_map(target)
    xi, t = grid.mesh()
    shape = (grid.resolution_xi, grid.resolution_t)
    mesh = _is_open_mesh(xi, t)

    def own(c):
        return _evaluate(c, *_own_axes(c, xi, t, mesh))

    def full(values):
        if values.shape == shape:
            return values
        out = np.empty(shape)
        out[...] = values
        return out

    d_x, d_y = own(planar._d1_t), full(own(planar._d2_t))
    slope = np.empty(shape)
    np.abs(d_y, out=slope)
    np.multiply(epsilon, slope, out=slope)
    chart = np.empty(shape, dtype=np.uint8)
    # 0 where d_x = d_y = 0, since 0 < epsilon * 0 fails
    np.less(np.abs(d_x), slope, out=chart)
    invalid = d_y == 0.0
    invalid &= d_x == 0.0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(d_y, d_x, out=slope)
    np.divide(d_x, d_y, out=slope, where=chart.view(bool))
    np.copyto(slope, 0.0, where=invalid)
    return LiftedSurface(
        grid=grid,
        x=full(own(planar.c1)),
        y=full(own(planar.c2)),
        slope=slope,
        chart=chart,
        invalid=invalid,
        d_x=full(d_x),
        d_y=d_y,
        epsilon=epsilon,
    )


# ----------------------------------------------------------------------
# Fits and sweeps
# ----------------------------------------------------------------------


def fit_cubic_coefficient(branch) -> float:
    """Least-squares c for y = c x^3 through the branch points.

    A second-order self-tangency with the x-axis means exactly this cubic
    leading behavior, so the fitted c is the tangency certificate.  A fit
    whose sum of x^6 or of x^3 y overflows to inf or NaN raises ValueError:
    an infinite denominator alone would read as c = 0.
    """
    pts = branch.as_array() if isinstance(branch, Branch) else np.asarray(branch, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    # Overflow is detected below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        denominator = float(np.sum(x**6))
        numerator = float(np.sum(x**3 * y))
    if not (math.isfinite(denominator) and math.isfinite(numerator)):
        raise ValueError("the cubic fit is not finite in float range")
    if denominator == 0.0:
        raise ValueError("cannot fit a cubic through points with x identically 0")
    c = numerator / denominator
    if not math.isfinite(c):
        raise ValueError("the cubic fit is not finite in float range")
    return c


DEFAULT_SWEEP_STEPS = 11
DEFAULT_SWEEP_LIMIT = 0.25


def default_sweep_lambdas(
    limit: float = DEFAULT_SWEEP_LIMIT, steps: int = DEFAULT_SWEEP_STEPS
) -> tuple[float, ...]:
    return tuple(float(v) for v in np.linspace(-limit, limit, steps))


@dataclass(frozen=True)
class SweepFrame:
    """One traced deformation frame; criminant.cusps holds its cusp points."""

    params: DeformationParams
    mode: str
    criminant: PlaneCurveSet
    envelope: PlaneCurveSet
    grid: GridSpec

    @property
    def cusp_count(self) -> int:
        return len(self.criminant.cusps)

    def to_json(self) -> dict:
        return {
            "params": self.params.to_json(),
            "mode": self.mode,
            "cusps": self.cusp_count,
            "cusp_points": [list(p) for p in self.criminant.cusps],
            "branches": self.criminant.branch_count,
            "grid": self.grid.to_json(),
        }


def analyze_deformation(
    base: MapGerm,
    params: DeformationParams,
    mode: str = MODE_VERSAL,
    grid: GridSpec | None = None,
) -> SweepFrame:
    """Trace, count and map one deformation frame."""
    return _analyze(base, params, mode, grid, None)


def _analyze(
    base: MapGerm,
    params: DeformationParams,
    mode: str,
    grid: GridSpec | None,
    shared: dict | None,
) -> SweepFrame:
    """analyze_deformation, the deformed map's determinant grids shared
    through the given dict (PlanarMap.det)."""
    grid = grid if grid is not None else GridSpec()
    deformed = apply_deformation(base, params, mode)
    deformed._shared = shared
    criminant = count_cusps(deformed, grid).curves
    return SweepFrame(
        params=params,
        mode=mode,
        criminant=criminant,
        envelope=envelope_curves(deformed, criminant),
        grid=grid,
    )


def deformation_sweep(
    base: MapGerm,
    mode: str = MODE_BEAKS,
    lambdas: Sequence[float] | None = None,
    grid: GridSpec | None = None,
    mu1: float = 0.0,
    mu2: float = 0.0,
) -> list[SweepFrame]:
    """One frame per lambda; mu parameters apply in versal mode only.

    Lambda changes the t coefficient of the second component only, which
    reaches the Jacobian entry j22 alone.  The frames therefore share one
    dict of determinant grids (PlanarMap.det): j11 and j12 * j21 are
    evaluated for the first frame and reused, keyed by their coefficient
    bytes, and every frame evaluates j22 only.
    """
    lambdas = tuple(lambdas) if lambdas is not None else default_sweep_lambdas()
    shared: dict = {}  # every frame is traced on the one grid
    return [
        _analyze(base, DeformationParams(lam=lam, mu1=mu1, mu2=mu2), mode, grid, shared)
        for lam in lambdas
    ]
