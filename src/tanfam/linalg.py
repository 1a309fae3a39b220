"""Fraction-free exact row reduction over the rationals, on sparse rows.

A row is a dict mapping column to nonzero entry.  Tangent-space
generators touch few of their columns, so rows store only those.  Every
row is rescaled to a primitive integer row (multiply by the LCM of the
denominators, divide by the GCD, flip so the entry in the lowest column
is positive), which keeps the arithmetic in integers and makes the
reduced form unique, hence byte-for-byte reproducible.

RowSpace is an incremental echelon basis: rows are added one at a time
and forward-reduced against the existing pivots, each row's pivot being
its lowest column.  Rank and membership are available at any point;
canonical_matrix() back-eliminates to the unique reduced echelon form
and is the one place rows are written out densely.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Mapping

SparseRow = dict[int, int]


def primitive_row(row: Mapping[int, Fraction | int]) -> SparseRow:
    """Rescale a sparse rational row to a primitive integer row with
    positive lead entry, dropping zero entries."""
    denom = lcm(*(value.denominator for value in row.values()))
    ints = {
        col: value.numerator * (denom // value.denominator)
        for col, value in row.items()
        if value != 0
    }
    if not ints:
        return ints
    common = gcd(*ints.values())
    if ints[min(ints)] < 0:
        common = -common
    if common != 1:
        ints = {col: value // common for col, value in ints.items()}
    return ints


def _eliminate(row: SparseRow, pivot_row: SparseRow, col: int) -> SparseRow:
    """Cross-multiply so row[col] becomes 0, keeping integer entries."""
    a = pivot_row[col]
    b = row[col]
    g = gcd(a, b)
    ra, rb = a // g, b // g
    out = {c: ra * x for c, x in row.items()}
    for c, p in pivot_row.items():
        value = out.get(c, 0) - rb * p
        if value:
            out[c] = value
        else:
            del out[c]
    return out


class RowSpace:
    """Incremental row space of primitive sparse integer rows of fixed width."""

    def __init__(self, width: int):
        if width < 1:
            raise ValueError("width must be positive")
        self.width = width
        # Echelon rows keyed by pivot column; kept primitive.
        self._rows: dict[int, SparseRow] = {}

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _prepare(self, row: Mapping[int, Fraction | int]) -> SparseRow:
        if row and not (0 <= min(row) and max(row) < self.width):
            raise ValueError(f"row has a column outside 0..{self.width - 1}")
        return primitive_row(row)

    def _reduce(self, row: SparseRow) -> SparseRow:
        current = row
        while current:
            col = min(current)
            pivot_row = self._rows.get(col)
            if pivot_row is None:
                break
            current = _eliminate(current, pivot_row, col)
        return current

    def add(self, row: Mapping[int, Fraction | int]) -> bool:
        """Insert a row; returns True iff it enlarged the space."""
        reduced = self._reduce(self._prepare(row))
        if not reduced:
            return False
        self._rows[min(reduced)] = primitive_row(reduced)
        return True

    def contains(self, row: Mapping[int, Fraction | int]) -> bool:
        return not self._reduce(self._prepare(row))

    def pivot_columns(self) -> list[int]:
        return sorted(self._rows)

    def canonical_matrix(self) -> list[list[int]]:
        """Unique reduced echelon form: back-eliminated, primitive, dense rows."""
        cols = sorted(self._rows)
        rows = [self._rows[c] for c in cols]
        for i in range(len(rows) - 1, -1, -1):
            col = cols[i]
            for k in range(i):
                if col in rows[k]:
                    rows[k] = _eliminate(rows[k], rows[i], col)
        dense = []
        for row in rows:
            out = [0] * self.width
            for j, value in primitive_row(row).items():
                out[j] = value
            dense.append(out)
        return dense

    def copy(self) -> "RowSpace":
        clone = RowSpace(self.width)
        clone._rows = dict(self._rows)
        return clone
