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

    def to_json(self) -> dict:
        return {
            "branches": [
                {"tag": b.tag, "closed": b.closed, "points": len(b.points)}
                for b in self.branches
            ],
            "cusps": [list(p) for p in self.cusps],
        }


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
    """Dense float coefficient grid c[i, j] of xi^i t^j (axis 0 is xi)."""
    c = np.zeros((p.cap + 1, p.cap + 1))
    for (e_xi, e_t), value in p.terms():
        c[e_xi, e_t] = float(value)
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


def _evaluate(c: np.ndarray, xi, t) -> np.ndarray:
    """sum c[i, j] xi^i t^j at (xi, t) broadcast together, Horner in xi then t.

    Scattered points (equal shapes) and open meshes (GridSpec.mesh) both
    work; per sample the operations are those of numpy's polyval2d.

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
    """
    kept = (c != 0) | np.signbit(c)
    rows = np.flatnonzero(kept.any(axis=1))
    cols = np.flatnonzero(kept.any(axis=0))
    c = c[: rows[-1] + 1 if rows.size else 1, : cols[-1] + 1 if cols.size else 1]
    return polyval(t, polyval(xi, c), tensor=False)


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
        j11, j12, j21, j22 = self.jacobian(xi, t)
        return j11 * j22 - j12 * j21


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

    The exact form multiplies first derivatives, so it is trustworthy up
    to one degree below the cap of the inputs.  Three-component germs are
    projected to their first two components first.
    """
    if isinstance(f, MapGerm):
        f = f.planar_projection().components
    p1, p2 = f[0], f[1]
    det = p1.derive("xi") * p2.derive("t") - p1.derive("t") * p2.derive("xi")
    planar = PlanarMap.from_polys(p1, p2)
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
# offsets in _march: 0 = left (xi = xi_i), 1 = right (xi = xi_{i+1}),
# 2 = bottom (t = t_j), 3 = top (t = t_{j+1}).  Cases 0 and 15 cross
# nothing; the ambiguous cases 5 and 10 get no segment.
_CASE_EDGES = np.array(
    [(0, 0), (2, 0), (2, 1), (0, 1), (1, 3), (0, 0), (2, 3), (0, 3),
     (0, 3), (2, 3), (0, 0), (1, 3), (0, 1), (2, 1), (2, 0), (0, 0)]
)


def _march(values: np.ndarray, xi: np.ndarray, t: np.ndarray) -> list[_OpenCurve]:
    """Zero-level polylines of values sampled at xi x t, with loose-end flags.

    Grid edges get integer ids: the t-edge from sample (i, j) to (i, j+1)
    is i*M + j, the xi-edge from (i, j) to (i+1, j) is N*M + i*M + j.
    Every non-ambiguous cell adds one segment between its two crossed
    edges, and an edge borders at most two cells, so the segments chain
    into simple paths and cycles by stepping to the other neighbour.
    Ambiguous cells (diagonal sign pattern) add no segment; a path ending
    on one of their edges gets a loose end for node repair.  Paths come
    first, ordered by their lower end, then cycles, each from its lowest
    edge towards the lower of that edge's neighbours.
    """
    n, m = values.shape
    signs = (values >= 0.0).astype(np.uint8)
    case = signs[:-1, :-1] | signs[1:, :-1] << 1 | signs[1:, 1:] << 2 | signs[:-1, 1:] << 3
    offsets = np.array([0, m, n * m, n * m + 1])
    ambiguous = (case == 5) | (case == 10)
    i, j = np.nonzero((case != 0) & (case != 15) & ~ambiguous)
    segments = (i * m + j)[:, None] + offsets[_CASE_EDGES[case[i, j]]]
    i, j = np.nonzero(ambiguous)
    junction_edges = set(((i * m + j)[:, None] + offsets).ravel().tolist())
    neighbours: dict[int, list[int]] = {}
    for a, b in segments.tolist():
        neighbours.setdefault(a, []).append(b)
        neighbours.setdefault(b, []).append(a)

    chains: list[list[int]] = []
    seen: set[int] = set()
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
    if not chains:
        return []

    ids = np.array([edge for chain in chains for edge in chain])
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
    for chain in chains:
        closed = chain[0] == chain[-1]
        curves.append(
            _OpenCurve(
                points[first : first + len(chain)],
                closed=closed,
                loose_start=not closed and chain[0] in junction_edges,
                loose_end=not closed and chain[-1] in junction_edges,
            )
        )
        first += len(chain)
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
    cos = (v1[0] * v2[0] + v1[1] * v2[1]) / (n1 * n2)
    return math.degrees(math.acos(max(-1.0, min(1.0, cos))))


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
        if curve.closed:
            sharp = None
            for k in range(1, len(pts) - 1):
                if _turn_degrees(pts[k - 1], pts[k], pts[k + 1]) > _SHARP_TURN_DEGREES:
                    sharp = k
                    break
            if sharp is None and len(pts) > 3:
                if _turn_degrees(pts[-2], pts[0], pts[1]) > _SHARP_TURN_DEGREES:
                    sharp = 0
            if sharp is None:
                out.append(curve)
                continue
            reopened = pts[sharp:-1] + pts[: sharp + 1]
            queue.append(_OpenCurve(reopened, loose_start=True, loose_end=True))
            continue
        cuts = [
            k
            for k in range(1, len(pts) - 1)
            if _turn_degrees(pts[k - 1], pts[k], pts[k + 1]) > _SHARP_TURN_DEGREES
        ]
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
    """Image of the criminant under the planar map, tags preserved."""
    planar = as_planar_map(target)
    branches = []
    for branch in criminant.branches:
        pts = branch.as_array()
        x, y = planar(pts[:, 0], pts[:, 1])
        branches.append(
            Branch(
                points=tuple((float(px), float(py)) for px, py in zip(x, y)),
                tag=branch.tag,
                closed=branch.closed,
            )
        )
    cusps = []
    for xi, t in criminant.cusps:
        x, y = planar(xi, t)
        cusps.append((float(x), float(y)))
    return PlaneCurveSet(branches=tuple(branches), cusps=tuple(cusps))


# ----------------------------------------------------------------------
# Cusp detection
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CuspReport:
    count: int
    points: tuple[tuple[float, float], ...]
    curves: PlaneCurveSet
    grid: GridSpec
    angle_degrees: float

    def to_json(self) -> dict:
        return {
            "count": self.count,
            "points": [list(p) for p in self.points],
            "grid": self.grid.to_json(),
            "angle_degrees": self.angle_degrees,
        }


def _line_angles_degrees(kernel: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Signed angle between two line fields, folded into (-90, 90]."""
    cross = kernel[:, 0] * tangent[:, 1] - kernel[:, 1] * tangent[:, 0]
    dot = kernel[:, 0] * tangent[:, 0] + kernel[:, 1] * tangent[:, 1]
    angles = np.degrees(np.arctan2(cross, dot))
    angles = np.where(angles > 90.0, angles - 180.0, angles)
    angles = np.where(angles <= -90.0, angles + 180.0, angles)
    return angles


def _branch_cusps(
    branch: Branch, planar: PlanarMap, angle_degrees: float
) -> list[tuple[float, float]]:
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
    use_row2 = np.linalg.norm(row2, axis=1) > np.linalg.norm(row1, axis=1)
    rows = np.where(use_row2[:, None], row2, row1)
    kernel = np.stack([-rows[:, 1], rows[:, 0]], axis=1)
    angles = _line_angles_degrees(kernel, tangent)

    candidates = set(np.nonzero(np.abs(angles) <= angle_degrees)[0].tolist())
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
    target,
    grid: GridSpec | None = None,
    criminant: PlaneCurveSet | None = None,
    angle_degrees: float = CUSP_ANGLE_DEGREES,
) -> CuspReport:
    """Count criminant points whose Jacobian kernel line turns tangent.

    These are exactly the points whose envelope image is a cusp.  Counts
    are resolution-dependent, so the report carries the grid spec.
    """
    grid = grid if grid is not None else GridSpec()
    planar = as_planar_map(target)
    if criminant is None:
        criminant = trace_criminant(planar, grid)
    points: list[tuple[float, float]] = []
    for branch in criminant.branches:
        points.extend(_branch_cusps(branch, planar, angle_degrees))
    curves = PlaneCurveSet(branches=criminant.branches, cusps=tuple(points))
    return CuspReport(
        count=len(points),
        points=tuple(points),
        curves=curves,
        grid=grid,
        angle_degrees=angle_degrees,
    )


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
    """
    grid = grid if grid is not None else GridSpec()
    planar = as_planar_map(target)
    mesh_xi, mesh_t = grid.mesh()
    x, y = planar(mesh_xi, mesh_t)
    d_x = _evaluate(planar._d1_t, mesh_xi, mesh_t)
    d_y = _evaluate(planar._d2_t, mesh_xi, mesh_t)
    invalid = (d_x == 0.0) & (d_y == 0.0)
    reciprocal = (np.abs(d_x) < epsilon * np.abs(d_y)) & ~invalid
    slope = np.zeros_like(d_x)
    affine = ~reciprocal & ~invalid
    slope[affine] = d_y[affine] / d_x[affine]
    slope[reciprocal] = d_x[reciprocal] / d_y[reciprocal]
    chart = np.zeros(d_x.shape, dtype=np.uint8)
    chart[reciprocal] = 1
    return LiftedSurface(
        grid=grid,
        x=np.asarray(x, dtype=float),
        y=np.asarray(y, dtype=float),
        slope=slope,
        chart=chart,
        invalid=invalid,
        d_x=d_x,
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
    that overflows to inf or NaN raises ValueError.
    """
    pts = branch.as_array() if isinstance(branch, Branch) else np.asarray(branch, dtype=float)
    x = pts[:, 0]
    y = pts[:, 1]
    # Overflow is detected below, so numpy need not warn about it.
    with np.errstate(over="ignore", invalid="ignore"):
        denominator = float(np.sum(x**6))
        if denominator == 0.0:
            raise ValueError("cannot fit a cubic through points with x identically 0")
        c = float(np.sum(x**3 * y) / denominator)
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
    params: DeformationParams
    mode: str
    criminant: PlaneCurveSet
    envelope: PlaneCurveSet
    cusp_count: int
    grid: GridSpec

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
    angle_degrees: float = CUSP_ANGLE_DEGREES,
) -> SweepFrame:
    """Trace, count and map one deformation frame."""
    grid = grid if grid is not None else GridSpec()
    deformed = apply_deformation(base, params, mode)
    report = count_cusps(deformed, grid, angle_degrees=angle_degrees)
    envelope = envelope_curves(deformed, report.curves)
    return SweepFrame(
        params=params,
        mode=mode,
        criminant=report.curves,
        envelope=envelope,
        cusp_count=report.count,
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
    """One frame per lambda; mu parameters apply in versal mode only."""
    lambdas = tuple(lambdas) if lambdas is not None else default_sweep_lambdas()
    return [
        analyze_deformation(base, DeformationParams(lam=lam, mu1=mu1, mu2=mu2), mode, grid)
        for lam in lambdas
    ]
