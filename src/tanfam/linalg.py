"""Fraction-free exact row reduction over the rationals, on sparse rows.

A row is a dict mapping column to nonzero entry.  Tangent-space
generators touch few of their columns, so rows store only those.  Every
row is rescaled to a primitive integer row (divide by the GCD of its
entries, flip so the entry in the lowest column is positive), which
keeps the arithmetic in integers and makes the reduced form unique,
hence byte-for-byte reproducible.  Rows hold integers, which is what
the tangent-space builders and the elimination produce.  Each stored
row takes one primitive step: an incoming row is only copied without
its zero entries, add() makes the reduced row primitive when it stores
it, and contains() never makes a row primitive.  The stored row is the
one a primitive incoming row would give: scaling a row by k != 0 scales
each elimination step's result by a nonzero factor of k's sign, with
the same pivot sequence, and the primitive step removes that factor.
primitive_row takes one gcd call and rebuilds the row only when there
is a zero to drop, a content to divide out or a sign to flip.

RowSpace is an incremental echelon basis: rows are added one at a time
and forward-reduced against the existing pivots, each row's pivot being
its lowest column.  Rank and membership are available at any point.
The reduced echelon row with pivot j depends only on the echelon rows
whose pivots lie above j, so reduced_rows(start) reads only the rows
with pivot >= start, once each, from the last pivot up, keeping the set
of columns whose reduced row is a unit vector.  A stored row R with
pivot j whose other entries all lie in that set reduces to {j: 1}, with
no copy and no arithmetic: R - sum of R[c] e_c over those columns c is
R[j] e_j.  Every other row is copied, eliminated against the already
reduced rows of the pivot columns it touches, and made primitive, and
joins the set when one entry is left.  Reduced rows are zero in every
other pivot column, so no step brings in a pivot column, and a reader
of a trailing block of columns pays for that block alone.  One kernel,
_eliminate, does every elimination step, forward and back, in place on
a row its caller owns; stored rows are never changed, so copy() may
share them.  The space caches the reduced rows of the lowest start
read so far, tagged with its rank: rows are only ever added, so an
unchanged rank means unchanged rows, and that cache answers every
start at or above its own.  The cache is the one reduced
form a space keeps, and copy() carries it along.  canonical_matrix()
and unit_columns() read its rows in place; only reduced_rows() hands
out copies of them.
"""

from __future__ import annotations

from math import gcd
from typing import Mapping

SparseRow = dict[int, int]


def primitive_row(row: Mapping[int, int]) -> SparseRow:
    """Rescale a sparse integer row to a primitive row with positive lead
    entry, dropping zero entries.  Returns a new dict."""
    common = gcd(*row.values())
    if not common:
        return {}
    if 0 in row.values():
        row = {col: value for col, value in row.items() if value}
    if row[min(row)] < 0:
        common = -common
    if common != 1:
        return {col: value // common for col, value in row.items()}
    return dict(row)


def _eliminate(row: SparseRow, pivot_row: SparseRow, col: int) -> None:
    """Cross-multiply row, which the caller owns, in place so that row[col]
    becomes 0, keeping integer entries; pivot_row is only read."""
    a = pivot_row[col]
    b = row[col]
    g = gcd(a, b)
    ra, rb = a // g, b // g
    if ra != 1:
        for c in row:
            row[c] *= ra
    for c, p in pivot_row.items():
        value = row.get(c, 0) - rb * p
        if value:
            row[c] = value
        else:
            del row[c]


class RowSpace:
    """Incremental row space of primitive sparse integer rows of fixed width."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        # Echelon rows keyed by pivot column; kept primitive.
        self._rows: dict[int, SparseRow] = {}
        # (rank, start, reduced rows with pivot >= start) of the lowest start read
        self._reduced: tuple[int, int, dict[int, SparseRow]] | None = None

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _prepare(self, row: Mapping[int, int]) -> SparseRow:
        """A copy of row without its zero entries, its columns checked."""
        if row and not (0 <= min(row) and max(row) < self.width):
            raise ValueError(f"row has a column outside 0..{self.width - 1}")
        return {col: value for col, value in row.items() if value}

    def _reduce(self, row: SparseRow) -> SparseRow:
        """Forward-reduce row, which the caller owns, in place; returns it."""
        while row:
            col = min(row)
            pivot_row = self._rows.get(col)
            if pivot_row is None:
                break
            _eliminate(row, pivot_row, col)
        return row

    def add(self, row: Mapping[int, int]) -> bool:
        """Insert a row; returns True iff it enlarged the space."""
        reduced = self._reduce(self._prepare(row))
        if not reduced:
            return False
        self._rows[min(reduced)] = primitive_row(reduced)
        return True

    def contains(self, row: Mapping[int, int]) -> bool:
        return not self._reduce(self._prepare(row))

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)

    def reduced_rows(self, start: int = 0) -> dict[int, SparseRow]:
        """The rows of the unique reduced echelon form whose pivot is
        >= start, primitive and sparse, keyed by pivot in column order.
        The rows are copies; the cache stays the space's own."""
        return {col: dict(row) for col, row in self._reduced_form(start).items() if col >= start}

    def unit_columns(self, start: int = 0) -> frozenset[int]:
        """Columns j >= start whose reduced row is the unit vector e_j."""
        rows = self._reduced_form(start)
        return frozenset(col for col, row in rows.items() if col >= start and len(row) == 1)

    def _reduced_form(self, start: int) -> dict[int, SparseRow]:
        """The cached reduced rows, of a start at most start,
        back-eliminated first if the cache cannot answer.  They are the
        cache itself: callers read them and never change them."""
        cached = self._reduced
        if cached is None or cached[0] != self.rank or start < cached[1]:
            cached = self._reduced = (self.rank, start, self._back_eliminate(start))
        return cached[2]

    def _back_eliminate(self, start: int) -> dict[int, SparseRow]:
        reduced: dict[int, SparseRow] = {}
        units: set[int] = set()
        for col in sorted((c for c in self._rows if c >= start), reverse=True):
            stored = self._rows[col]
            units.add(col)  # R's own column: the test then asks about its others
            if units.issuperset(stored):
                # R - sum of R[c] e_c over its other columns is R[col] e_col
                reduced[col] = {col: 1}
                continue
            row = dict(stored)
            for c in [c for c in row if c in reduced]:
                _eliminate(row, reduced[c], c)
            reduced[col] = row = primitive_row(row)
            if len(row) != 1:
                units.discard(col)  # an entry in a non-pivot column is left
        return dict(reversed(reduced.items()))

    def canonical_matrix(self) -> list[list[int]]:
        """Unique reduced echelon form: back-eliminated, primitive, dense rows."""
        dense = []
        for row in self._reduced_form(0).values():
            out = [0] * self.width
            for j, value in row.items():
                out[j] = value
            dense.append(out)
        return dense

    def copy(self) -> "RowSpace":
        clone = RowSpace(self.width)
        clone._rows = dict(self._rows)
        clone._reduced = self._reduced
        return clone
