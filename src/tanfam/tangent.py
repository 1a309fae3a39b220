"""Tangent spaces to map-germ equivalence orbits, as exact row spaces.

For a germ f = (f1, f2, f3) from the plane to 3-space, the infinitesimal
deformations absorbed by coordinate changes come from two generator
families: reparameterizations of the source contribute multiples of the
partial derivatives of f, and coordinate changes of the target contribute
pullbacks of target functions placed componentwise.  The fibered
equivalence (target changes commuting with the projection
(x, y, z) -> (x, y)) restricts slots 1 and 2 to pullbacks of functions of
x, y only; the unrestricted equivalence allows x, y, z everywhere.

The reduced space used in jet-sufficiency steps keeps only source
multipliers of degree >= 2 (vector fields of positive order) and replaces
the full pullback module by M*: pullbacks of {y} + m^2 in slot 1,
{x} + m^2 in slot 2, and {x, y} + m^2 in slot 3.

Every space is truncated at a working order W <= cap - 1 (the cap-degree
terms of the derivatives of f are not trustworthy).  Generators are built
on integer tables with the kernels of jets, on the germ's numerators over
one shared denominator s (shared_numerators), truncated at W:

- the pullback of a target monomial m of degree d is s^d times the true
  one: pullback forms it as pull(m / v) * f_v, with v the last variable
  of m, memoized per build, through truncated_product;
- a source generator shifts the exponents of a partial_derivative of the
  numerators taken at W + 1, which is s times the true partial in all
  three slots alike, by its multiplier monomial.

So every row is a positive multiple of the true generator's row, and
primitive_row is invariant under nonzero scaling.  Truncation drops only
terms of degree > W, which have no column; degrees add under
multiplication and fall by one under differentiation, so no dropped term
could have reached a kept one.  Each generator is read straight into a
sparse row over the slot-major columns (slot, monomial), in the global
monomial order, and row-reduced with the fraction-free elimination from
linalg, in a fixed generator order.  Identical inputs therefore produce
identical reduced matrices and provenance, the same as building each
generator as a Fraction jet at the cap and flattening it would.

Membership has one primitive, RowSpace.contains.  Unit vectors need no
call at all: e_j lies in the span exactly when it is a row of the
reduced echelon form, so block checks and branch probes read the set of
such columns (absorbed_columns) from RowSpace.reduced_rows, starting at
the block's first column.  The row space caches that reduced form, the
only one a basis has; canonical_matrix writes the same cache out
densely.  Membership modulo per-slot degree caps is membership in a
copy of the space with the unit rows of the truncated columns added,
and the miniversality check adds its complement rows to such a copy.
TangentSpaceBasis is the one place that knows the column layout and
the row space: it builds the (slot, monomial) -> column index once per
basis, reads every generator row through it, flatten_triple reads
user-given jet triples (membership and complement vectors) through it,
block_columns turns per-slot degree thresholds into columns for block
checks, caps and branch probes alike, and _enlarged hands out the
enlarged copies.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence

from tanfam.jets import (
    SOURCE_VARS,
    TARGET_VARS,
    Exponents,
    IntTable,
    MapGerm,
    TruncatedPoly,
    _monomial_tuple,
    monomial_text,
    partial_derivative,
    pullback,
    shared_numerators,
)
from tanfam.linalg import RowSpace, SparseRow, primitive_row

JetTriple = tuple[TruncatedPoly, TruncatedPoly, TruncatedPoly]
# The reduced space's source multipliers have degree >= 2: vector fields
# of positive order.
_REDUCED_MULTIPLIER_DEGREE = 2
# A generator: its provenance tag, unformatted as (prefix, monomial,
# variable names), and its slots as (slot, integer table) pairs.
Generator = tuple[tuple[str, Exponents, Sequence[str]], tuple[tuple[int, IntTable], ...]]

KIND_FIBERED = "A-star"
KIND_FULL = "A"
# The ideal block the double umbrella's fibered tangent space is stated
# to contain (slotwise degrees >= 3, >= 5, >= 4), for a outside {-1, 0}.
_UMBRELLA_BLOCK = (3, 5, 4)


def _as_map_germ(f: "MapGerm | Sequence[TruncatedPoly]") -> MapGerm:
    germ = f if isinstance(f, MapGerm) else MapGerm(tuple(f))
    if germ.arity != 3:
        raise ValueError("tangent spaces are built for 3-component germs")
    if germ.variables != SOURCE_VARS:
        raise ValueError(f"tangent spaces are built for germs in {SOURCE_VARS}")
    return germ


def resolve_order(germ: MapGerm, order: int | None) -> int:
    """The working order for germ: cap - 1 by default, and 1..cap - 1 when given."""
    cap = germ.cap
    if order is None:
        order = cap - 1
    if not 1 <= order <= cap - 1:
        raise ValueError(
            f"working order must lie in 1..{cap - 1} (cap {cap} minus the "
            "derivative trust margin)"
        )
    return order


def _coerce_triple(vec: Sequence[TruncatedPoly], germ: MapGerm) -> JetTriple:
    triple = tuple(vec)
    if len(triple) != 3:
        raise ValueError(f"expected a 3-slot jet vector, got {len(triple)} slots")
    for comp in triple:
        if not isinstance(comp, TruncatedPoly):
            raise TypeError("jet vector slots must be TruncatedPoly")
        if comp.variables != germ.variables:
            raise ValueError("jet vector must live in the source variables of the germ")
    return triple  # type: ignore[return-value]


def flatten_triple(
    triple: Sequence[TruncatedPoly], columns: Mapping[tuple[int, Exponents], int]
) -> SparseRow:
    """Primitive integer row of a jet triple over a (slot, monomial) -> column index.

    Terms whose monomial has no column (above the working order) are
    dropped.
    """
    _, tables = shared_numerators(triple, max(comp.cap for comp in triple))
    row: SparseRow = {}
    for slot, table in enumerate(tables):
        for md, value in table.items():
            j = columns.get((slot, md))
            if j is not None:
                row[j] = value
    return primitive_row(row)


def _pullback_rows(
    germ: MapGerm, order: int, slot_monomials: Sequence[Sequence[Exponents]]
) -> Iterator[Generator]:
    _, comps = shared_numerators(germ.components, order)
    # Pullbacks of target monomials (padded to x, y, z), shared by the slots.
    pulled: dict[Exponents, IntTable] = {(0, 0, 0): {(0, 0): 1}}
    for slot, monomials in enumerate(slot_monomials):
        prefix = f"slot{slot + 1} <- "
        for md in monomials:
            jet = pullback(md + (0,) * (3 - len(md)), pulled, comps, order)
            yield (prefix, md, TARGET_VARS[: len(md)]), ((slot, jet),)


def _source_rows(germ: MapGerm, order: int, min_multiplier_degree: int) -> Iterator[Generator]:
    _, comps = shared_numerators(germ.components, order + 1)
    for index, name in enumerate(SOURCE_VARS):
        partials = [partial_derivative(comp, index) for comp in comps]
        prefix = f"d{name} * "
        for i, j in _monomial_tuple(2, min_multiplier_degree, order):
            room = order - i - j
            shifted = tuple(
                (slot, {(k + i, l + j): v for (k, l), v in table.items() if k + l <= room})
                for slot, table in enumerate(partials)
            )
            yield (prefix, (i, j), SOURCE_VARS), shifted


class TangentSpaceBasis:
    """Row-reduced span of tangent-space generators at a working order.

    Holds the flattening monomial list, the column layout, the echelon
    row space, and one provenance tag per independent row (the generator
    that created it).  Construction is the one assembly loop: every
    generator's integer jets are read through the column layout into a
    sparse row, which is kept when it enlarges the span.
    """

    def __init__(self, kind: str, germ: MapGerm, order: int, rows: Iterable[Generator]):
        self.kind = kind
        self.germ = germ
        self.order = order
        self.monomials = _monomial_tuple(2, 0, order)
        # Slot-major layout: column j holds the (slot, monomial) pair _cells[j].
        self._cells = tuple((slot, md) for slot in range(3) for md in self.monomials)
        self._columns = {cell: j for j, cell in enumerate(self._cells)}
        self._space = RowSpace(len(self._cells))
        per_slot = len(self.monomials)
        slot_columns = [
            {md: base + k for k, md in enumerate(self.monomials)}
            for base in range(0, 3 * per_slot, per_slot)
        ]
        provenance: list[str] = []
        for (prefix, md, names), cells in rows:
            row = {
                slot_columns[slot][m]: value for slot, jet in cells for m, value in jet.items()
            }
            if self._space.add(row):
                provenance.append(prefix + monomial_text(md, names))
        self.provenance = tuple(provenance)

    @property
    def rank(self) -> int:
        return self._space.rank

    @property
    def dimension(self) -> int:
        """Dimension of the ambient truncated jet space (3 slots)."""
        return 3 * len(self.monomials)

    @property
    def codimension(self) -> int:
        return self.dimension - self.rank

    def canonical_matrix(self) -> list[list[int]]:
        return self._space.canonical_matrix()

    def column_label(self, index: int) -> dict:
        """Map a flattened column index back to its slot and monomial."""
        slot, md = self._cells[index]
        return {"slot": slot + 1, "monomial": monomial_text(md, SOURCE_VARS)}

    def block_columns(self, thresholds: Sequence[int]) -> dict[int, int]:
        """The per-slot degree block: columns of slot s whose monomial has
        degree >= thresholds[s], in column order, mapped to that degree.

        A threshold above the working order selects nothing in its slot.
        """
        if len(thresholds) != 3:
            raise ValueError(f"expected one degree threshold per slot, got {len(thresholds)}")
        return {
            j: sum(md)
            for j, (slot, md) in enumerate(self._cells)
            if sum(md) >= thresholds[slot]
        }

    def absorbed_columns(self, start: int = 0) -> frozenset[int]:
        """Columns j >= start whose unit vector e_j lies in the span.

        e_j lies in the span exactly when it is a row of the reduced
        echelon form: its one nonzero entry sits in at most one pivot
        column, so it is a multiple of that pivot's primitive row.  The
        rows are read from RowSpace.reduced_rows(start), which
        back-eliminates from column start on only and caches the rows of
        the lowest start read, canonical_matrix included.
        """
        return frozenset(j for j, row in self._space.reduced_rows(start).items() if len(row) == 1)

    def _enlarged(
        self, caps: Sequence[int] | None = None, triples: Iterable[JetTriple] = ()
    ) -> tuple[RowSpace, list[JetTriple]]:
        """A copy of the span, enlarged by the unit rows of the columns of
        slot s above degree caps[s], then by each triple in turn; returned
        with the triples that lay inside it and so did not enlarge it."""
        space = self._space.copy()
        if caps is not None:
            for j in self.block_columns([limit + 1 for limit in caps]):
                space.add({j: 1})
        inside = [t for t in triples if not space.add(flatten_triple(t, self._columns))]
        return space, inside

    def contains(
        self, vec: Sequence[TruncatedPoly], caps: Sequence[int] | None = None
    ) -> bool:
        """Membership of a jet triple, optionally modulo per-slot degree caps.

        With caps = (p, q, r), the monomials of slot s above degree caps[s]
        are quotiented out: their unit rows join a copy of the space.
        """
        space, _ = self._enlarged(caps)
        return space.contains(flatten_triple(_coerce_triple(vec, self.germ), self._columns))

    def to_verdict(self) -> dict:
        return {
            "kind": self.kind,
            "order": self.order,
            "dimension": self.dimension,
            "rank": self.rank,
            "codimension": self.codimension,
            "germ": list(self.germ.to_texts()),
        }

    def __repr__(self) -> str:
        return (
            f"TangentSpaceBasis(kind={self.kind!r}, order={self.order}, "
            f"rank={self.rank}/{self.dimension})"
        )


def build_extended_tangent_space(
    f: "MapGerm | Sequence[TruncatedPoly]",
    order: int | None = None,
    kind: str = KIND_FIBERED,
) -> TangentSpaceBasis:
    """Extended tangent space: source multiples of the partials plus full
    componentwise pullbacks (fibered in slots 1-2 unless kind is "A")."""
    germ = _as_map_germ(f)
    order = resolve_order(germ, order)
    if kind not in (KIND_FIBERED, KIND_FULL):
        raise ValueError(f"kind must be {KIND_FIBERED!r} or {KIND_FULL!r}, got {kind!r}")
    spatial = _monomial_tuple(3, 0, order)
    planar = spatial if kind == KIND_FULL else _monomial_tuple(2, 0, order)
    rows = chain(
        _source_rows(germ, order, 0), _pullback_rows(germ, order, (planar, planar, spatial))
    )
    return TangentSpaceBasis(f"{kind}-extended", germ, order, rows)


def build_reduced_tangent_space(
    f: "MapGerm | Sequence[TruncatedPoly]",
    order: int | None = None,
) -> TangentSpaceBasis:
    """Reduced tangent space: positive-order source part plus the M* module."""
    germ = _as_map_germ(f)
    order = resolve_order(germ, order)
    planar_sq = _monomial_tuple(2, 2, order)
    spatial_sq = _monomial_tuple(3, 2, order)
    slots = (
        ((0, 1),) + planar_sq,                # {y} + m^2 in x, y
        ((1, 0),) + planar_sq,                # {x} + m^2 in x, y
        ((1, 0, 0), (0, 1, 0)) + spatial_sq,  # {x, y} + m^2 in x, y, z
    )
    rows = chain(
        _source_rows(germ, order, _REDUCED_MULTIPLIER_DEGREE), _pullback_rows(germ, order, slots)
    )
    return TangentSpaceBasis(f"{KIND_FIBERED}-reduced", germ, order, rows)


class BlockCheck(NamedTuple):
    """Outcome of an ideal-block containment test, certified at finite order.

    holds means every slotwise monomial of degree >= the block threshold
    (up to the working order) lies in the span; the certificate is only
    valid modulo degree modulo_degree = order + 1, which is recorded
    rather than silently assumed away.
    """

    holds: bool
    block: tuple[int, int, int]
    order: int
    modulo_degree: int
    witness: dict | None = None

    def __bool__(self) -> bool:
        return self.holds

    def to_json(self) -> dict:
        return {
            "holds": self.holds,
            "block": list(self.block),
            "order": self.order,
            "modulo_degree": self.modulo_degree,
            "witness": self.witness,
        }


def contains_ideal_block(
    basis: TangentSpaceBasis, p: int, q: int, r: int
) -> BlockCheck:
    """Does the span contain all slotwise monomials of degrees (>=p, >=q, >=r)?

    Reads the absorbed columns for every coordinate vector (mu, 0, 0) with
    deg mu in p..W, then (0, mu, 0) from q and (0, 0, mu) from r.  An empty
    degree range (block threshold above W) is vacuously satisfied.  On
    failure the first missing monomial in column order (slot, then
    monomial) is returned as a witness.
    """
    for threshold in (p, q, r):
        if threshold < 0:
            raise ValueError("block degrees must be non-negative")
    block = basis.block_columns((p, q, r))
    missing = block.keys() - basis.absorbed_columns(min(block, default=0))
    witness = basis.column_label(min(missing)) if missing else None
    return BlockCheck(not missing, (p, q, r), basis.order, basis.order + 1, witness)


def jet_sufficiency_step(
    f: "MapGerm | Sequence[TruncatedPoly]",
    perturbation: Sequence[TruncatedPoly],
    degrees: Sequence[int] | None = None,
    order: int | None = None,
) -> bool:
    """Can the perturbation be absorbed at its own jet level?

    True iff the perturbation lies in the reduced tangent space of f
    modulo the per-slot ideals of the next degree, i.e. membership after
    truncating every slot s at degrees[s].  When degrees is omitted each
    nonzero slot must be homogeneous and contributes its degree; zero
    slots are unconstrained and default to the working order.
    """
    germ = _as_map_germ(f)
    order = resolve_order(germ, order)
    triple = _coerce_triple(perturbation, germ)
    if degrees is None:
        inferred: list[int] = []
        for slot, comp in enumerate(triple):
            slot_degrees = {sum(md) for md, _ in comp.terms()}
            if not slot_degrees:
                inferred.append(order)
            elif len(slot_degrees) == 1:
                inferred.append(slot_degrees.pop())
            else:
                raise ValueError(
                    f"slot {slot + 1} is not homogeneous; pass degrees explicitly"
                )
        degrees = inferred
    degrees = tuple(degrees)
    if len(degrees) != 3:
        raise ValueError("degrees must have one entry per slot")
    if any(d < 0 for d in degrees):
        raise ValueError("degrees must be non-negative")
    if max(degrees) > order:
        raise ValueError(
            f"slot degrees {degrees} exceed the working order {order}"
        )
    basis = build_reduced_tangent_space(germ, order)
    return basis.contains(triple, caps=degrees)


def miniversality_check(
    f: "MapGerm | Sequence[TruncatedPoly]",
    complement: Sequence[Sequence[TruncatedPoly]],
    order: int | None = None,
) -> dict:
    """Does the complement span the cokernel of the extended tangent space?

    Computes the codimension of the fibered (KIND_FIBERED) extended
    tangent space in the order-W jet space, then adds the complement
    rows.  spans is true iff every complement row enlarges the space
    (direct sum) and the result is the whole jet space.  The verdict
    records the ideal-block certificate for the block (3, 5, 4) because
    the codimension count is meaningful above the working order only
    where the block guarantees saturation.  Complement vectors already
    inside the span are reported as a non-direct sum, not raised.
    """
    germ = _as_map_germ(f)
    basis = build_extended_tangent_space(germ, order, KIND_FIBERED)
    triples = [_coerce_triple(vec, germ) for vec in complement]
    block_check = contains_ideal_block(basis, *_UMBRELLA_BLOCK)

    space, inside = basis._enlarged(triples=triples)
    added = len(triples) - len(inside)
    direct = not inside
    spans = direct and space.rank == basis.dimension

    defect: list[dict] = []
    if space.rank < basis.dimension:
        pivots = set(space.pivot_columns())
        defect = [
            basis.column_label(i) for i in range(basis.dimension) if i not in pivots
        ]

    verdict = basis.to_verdict()
    verdict.update(
        {
            "complement": [[c.to_text() for c in t] for t in triples],
            "complement_size": len(triples),
            "complement_added": added,
            "direct_sum": direct,
            "dependent_complement_vectors": [[c.to_text() for c in t] for t in inside],
            "spans": spans,
            "defect": defect,
            "certified_block": list(_UMBRELLA_BLOCK),
            "block_holds": block_check.holds,
            "block_witness": block_check.witness,
            "modulo_degree": basis.order + 1,
        }
    )
    return verdict
